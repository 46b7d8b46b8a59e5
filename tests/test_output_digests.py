"""Bundled outputs stay byte-identical: every stdout run of
``tools/output_matrix.py``, made in process, against the committed digests.

A change that moves an output on purpose regenerates the file with
``python tools/output_matrix.py src OUT_DIR --digests tests/output_digests.txt``;
its diff then names the moved runs. The digests hold for the Python and
numpy versions in the file's header, since float text depends on them.
"""

import importlib.util
from pathlib import Path

from voteflow.cli import main

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("output_matrix", ROOT / "tools" / "output_matrix.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_bundled_outputs_match_their_digests(tmp_path):
    recorded = (ROOT / "tests" / "output_digests.txt").read_text(encoding="utf-8").splitlines()
    assert load_tool().digests(main, tmp_path) == recorded
