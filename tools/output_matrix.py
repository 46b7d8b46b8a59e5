"""Record every CLI output on every bundled config, for diffing two checkouts.

    python tools/output_matrix.py SRC_DIR OUT_DIR [--compare OTHER_OUT_DIR]
    python tools/output_matrix.py SRC_DIR OUT_DIR --digests FILE

Runs ``python -m voteflow.cli`` with ``PYTHONPATH=SRC_DIR`` for 30
invocations (forecast, deadzone, maxsupport, aggregate, the three sweep
axes, simulate with and without ``--seed 7``, calibrate, calibrate
``--data`` on a fixed 201-row poll CSV, on a constant 5-row one and on one
whose second row sums to 1.1, calibrate on three target configs: the second
candidate at win probability 0, the last at 0.45 and the first at its own
prior, forecast and deadzone on a zero-first config: the first candidate's
prior moved onto the second, forecast, deadzone, maxsupport and calibrate
``--data`` (the fixed poll CSV) on a near config: every position times
1e-160, simulate and calibrate ``--data`` on a far config: every
position times 1e200, aggregate and calibrate ``--data`` on a bad-race
config: the first two positions swapped, and forecast, deadzone, maxsupport
and the sigma sweep on a piecewise config: the rate doubled at half the
horizon) on each config in ``configs/``, in both formats, once to stdout
and once to ``--out``: 720 runs. The poll CSVs and derived
configs are written to ``OUT_DIR/polls/``. Each run leaves
``OUT_DIR/<config>/<invocation>/<format>-<destination>/`` holding
``stdout``, ``stderr`` (with SRC_DIR written as ``<src>``), ``exit_code``
and, for ``--out`` runs, the written ``report.<format>``. Runs use relative
paths from OUT_DIR, so two checkouts' trees differ only where their outputs
do, and ``diff -r`` compares them.

``--compare`` then lists every file that differs from OTHER_OUT_DIR, with
the largest absolute difference between corresponding numbers, or
"text differs" when more than numbers changed; it exits 1 if any differs.
Uses only the standard library, so it runs whatever the checkout holds.

``--digests`` runs only the stdout runs (360), in this process through
``voteflow.cli.main`` imported from SRC_DIR, with RuntimeWarnings raised as
errors, and writes FILE: one line per run with its exit code (or the class
of the exception that escaped) and the SHA-256 of that code and its stdout,
under a header that records the Python and numpy versions. The inputs are
written to OUT_DIR as above. ``tests/test_output_digests.py`` makes the
same runs and compares them with ``tests/output_digests.txt``; a change
that moves an output on purpose regenerates that file, so its diff names
the moved runs.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# implied-rate targets as (candidate index, win probability, or "prior" for
# the candidate's own prior): the second candidate at 0 reaches a dead-zone
# edge where there is one, the last at 0.45 crosses a humped curve twice on
# the polarised configs, and the first at its prior, the win probability
# that full information gives, reaches the edge of the plateau where it
# holds exactly
TARGETS = {
    "second-at-0": (1, 0.0),
    "last-at-0.45": (-1, 0.45),
    "first-at-prior": (0, "prior"),
}

# flat poll CSVs as the amount added to the first support of the second
# row: a constant series (sigma 0) and a row summing to 1.1 (exit 3)
FLAT_POLLS = {"constant": 0.0, "row-sum-1.1": 0.1}

# positions scaled toward either end of the float range, as the amount
# every position is multiplied by
SCALES = {"near": 1e-160, "far": 1e200}

INVOCATIONS = {
    "forecast": ["forecast"],
    "deadzone": ["deadzone"],
    "maxsupport": ["maxsupport"],
    "aggregate": ["aggregate"],
    "sweep-sigma": ["sweep", "--axis", "sigma"],
    "sweep-priors": ["sweep", "--axis", "priors"],
    "sweep-positions": ["sweep", "--axis", "positions"],
    "simulate": ["simulate"],
    "simulate-seed7": ["simulate", "--seed", "7"],
    "calibrate": ["calibrate"],
    "calibrate-data": ["calibrate", "--data", "polls/{stem}.csv"],
    **{
        f"calibrate-data-{label}": ["calibrate", "--data", f"polls/{{stem}}-{label}.csv"]
        for label in FLAT_POLLS
    },
    **{
        f"calibrate-{label}": ["calibrate", "--config", f"polls/{{stem}}-{label}.json"]
        for label in TARGETS
    },
    # no bundled config has a zero prior, whose crossings are infinite
    **{
        f"{name}-zero-first": [name, "--config", "polls/{stem}-zero-first.json"]
        for name in ("forecast", "deadzone")
    },
    **{
        f"{name}-near": [name, "--config", "polls/{stem}-near.json"]
        for name in ("forecast", "deadzone", "maxsupport")
    },
    "simulate-far": ["simulate", "--config", "polls/{stem}-far.json"],
    **{
        f"calibrate-data-{label}": ["calibrate", "--data", "polls/{stem}.csv",
                                    "--config", f"polls/{{stem}}-{label}.json"]
        for label in SCALES
    },
    # a race the model rejects (positions out of order), under the two
    # subcommands whose own work needs no model
    "aggregate-bad-race": ["aggregate", "--config", "polls/{stem}-bad-race.json"],
    "calibrate-data-bad-race": ["calibrate", "--data", "polls/{stem}.csv",
                                "--config", "polls/{stem}-bad-race.json"],
}
# no bundled config has a piecewise schedule
INVOCATIONS.update({
    f"{name}-piecewise": [*INVOCATIONS[name], "--config", "polls/{stem}-piecewise.json"]
    for name in ("forecast", "deadzone", "maxsupport", "sweep-sigma")
})

FORMATS = ("json", "csv")

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def write_polls(config: dict, path: Path, rows: int = 201) -> None:
    """A poll series from the model's own filter along one seeded signal
    path at unit rate: header t,<names>, then rows of supports."""
    names = [c["name"] for c in config["candidates"]]
    x = [float(c["position"]) for c in config["candidates"]]
    log_p = [math.log(c["prior"]) if c["prior"] > 0 else -math.inf for c in config["candidates"]]
    dt = float(config["horizon_years"]) / (rows - 1)
    rng = random.Random(20230501)
    y = 0.0
    lines = [",".join(["t", *names])]
    for i in range(rows):
        t = i * dt
        w = [lp + y * xj - 0.5 * xj * xj * t for lp, xj in zip(log_p, x)]
        e = [math.exp(v - max(w)) for v in w]
        total = sum(e)
        lines.append(",".join(repr(v) for v in (t, *(v / total for v in e))))
        y += rng.gauss(0.0, math.sqrt(dt))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_flat_polls(config: dict, stem: str, polls: Path, rows: int = 5) -> None:
    """The priors as a poll series, once per entry of FLAT_POLLS."""
    names = [c["name"] for c in config["candidates"]]
    priors = [float(c["prior"]) for c in config["candidates"]]
    dt = float(config["horizon_years"]) / (rows - 1)
    for label, bump in FLAT_POLLS.items():
        lines = [",".join(["t", *names])]
        for i in range(rows):
            row = [priors[0] + (bump if i == 1 else 0.0), *priors[1:]]
            lines.append(",".join(repr(v) for v in (i * dt, *row)))
        (polls / f"{stem}-{label}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_targets(config: dict, stem: str, polls: Path) -> None:
    """The config once per entry of TARGETS, with that implied-rate target."""
    for label, (k, probability) in TARGETS.items():
        candidate = config["candidates"][k]
        if probability == "prior":
            probability = candidate["prior"]
        target = {"candidate": candidate["name"], "win_probability": probability}
        text = json.dumps({**config, "target": target}, indent=2)
        (polls / f"{stem}-{label}.json").write_text(text + "\n", encoding="utf-8")


def write_zero_first(config: dict, stem: str, polls: Path) -> None:
    """The config with the first candidate's prior moved onto the second."""
    first, second, *rest = config["candidates"]
    moved = [{**first, "prior": 0.0}, {**second, "prior": first["prior"] + second["prior"]}]
    text = json.dumps({**config, "candidates": [*moved, *rest]}, indent=2)
    (polls / f"{stem}-zero-first.json").write_text(text + "\n", encoding="utf-8")


def write_scaled(config: dict, stem: str, polls: Path) -> None:
    """The config once per entry of SCALES, with every position scaled."""
    for label, scale in SCALES.items():
        moved = [{**c, "position": c["position"] * scale} for c in config["candidates"]]
        text = json.dumps({**config, "candidates": moved}, indent=2)
        (polls / f"{stem}-{label}.json").write_text(text + "\n", encoding="utf-8")


def write_bad_race(config: dict, stem: str, polls: Path) -> None:
    """The config with the first two candidates' positions swapped."""
    first, second, *rest = config["candidates"]
    swapped = [{**first, "position": second["position"]}, {**second, "position": first["position"]}]
    text = json.dumps({**config, "candidates": [*swapped, *rest]}, indent=2)
    (polls / f"{stem}-bad-race.json").write_text(text + "\n", encoding="utf-8")


def write_piecewise(config: dict, stem: str, polls: Path) -> None:
    """The config with its constant rate doubled at half the horizon."""
    horizon, sigma = config["horizon_years"], config["sigma"]
    schedule = {"breakpoints": [horizon / 2], "rates": [sigma, 2 * sigma]}
    text = json.dumps({**config, "sigma": schedule}, indent=2)
    (polls / f"{stem}-piecewise.json").write_text(text + "\n", encoding="utf-8")


def arguments(stem: str, name: str, fmt: str) -> list[str]:
    """The CLI arguments of one run to stdout, with paths relative to OUT_DIR."""
    argv = [a.format(stem=stem) for a in INVOCATIONS[name]]
    if "--config" not in argv:
        argv += ["--config", f"configs/{stem}.json"]
    return argv + ["--format", fmt]


def run_one(src: Path, out_dir: Path, stem: str, name: str, fmt: str, dest: str) -> None:
    run_dir = Path(stem) / name / f"{fmt}-{dest}"
    (out_dir / run_dir).mkdir(parents=True, exist_ok=True)
    argv = arguments(stem, name, fmt)
    if dest == "out":
        argv += ["--out", str(run_dir / f"report.{fmt}")]
    proc = subprocess.run(
        [sys.executable, "-m", "voteflow.cli", *argv],
        cwd=out_dir,
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        check=False,
    )
    (out_dir / run_dir / "stdout").write_bytes(proc.stdout)
    # warnings name the source file, which differs between checkouts
    (out_dir / run_dir / "stderr").write_bytes(proc.stderr.replace(bytes(src), b"<src>"))
    (out_dir / run_dir / "exit_code").write_text(f"{proc.returncode}\n", encoding="utf-8")


def write_inputs(out_dir: Path) -> list[str]:
    """Copy the bundled configs to OUT_DIR and derive every poll CSV and
    config the runs read; the config stems, sorted."""
    shutil.copytree(CONFIG_DIR, out_dir / "configs", dirs_exist_ok=True)
    (out_dir / "polls").mkdir(parents=True, exist_ok=True)
    stems = sorted(p.stem for p in CONFIG_DIR.glob("*.json"))
    for stem in stems:
        config = json.loads((CONFIG_DIR / f"{stem}.json").read_text(encoding="utf-8"))
        write_polls(config, out_dir / "polls" / f"{stem}.csv")
        write_flat_polls(config, stem, out_dir / "polls")
        write_targets(config, stem, out_dir / "polls")
        write_zero_first(config, stem, out_dir / "polls")
        write_scaled(config, stem, out_dir / "polls")
        write_bad_race(config, stem, out_dir / "polls")
        write_piecewise(config, stem, out_dir / "polls")
    return stems


def record(src: Path, out_dir: Path) -> int:
    runs = [
        (stem, name, fmt, dest)
        for stem in write_inputs(out_dir)
        for name in INVOCATIONS
        for fmt in FORMATS
        for dest in ("stdout", "out")
    ]
    for run in runs:
        run_one(src, out_dir, *run)
    return len(runs)


def digest(main, argv: list[str]) -> str:
    """'<exit> <sha256>' of one in-process run: the exit code, or the class
    of the exception that escaped ``main``, and the SHA-256 of that code,
    a newline and the run's stdout."""
    stdout = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(argv)
        except Exception as exc:  # a traceback in a fresh process: recorded, not raised
            code = type(exc).__name__
    text = f"{code}\n" + stdout.getvalue()
    return f"{code} {hashlib.sha256(text.encode('utf-8')).hexdigest()}"


def digests(main, out_dir: Path) -> list[str]:
    """The digest file's lines: a header, then '<stem>/<invocation>/<format>
    <exit> <sha256>' for every run to stdout, made by ``main`` (the CLI's
    entry point) in OUT_DIR, where ``write_inputs`` puts what they read."""
    import numpy

    stems = write_inputs(out_dir)
    lines = [
        "# exit code and SHA-256 of (exit code, stdout) of each stdout run of",
        "# tools/output_matrix.py, made in process; regenerate with",
        "#   python tools/output_matrix.py src OUT_DIR --digests tests/output_digests.txt",
        f"# python {'.'.join(map(str, sys.version_info[:3]))}, numpy {numpy.__version__}",
    ]
    cwd = os.getcwd()
    os.chdir(out_dir)
    try:
        for stem in stems:
            for name in INVOCATIONS:
                for fmt in FORMATS:
                    lines.append(f"{stem}/{name}/{fmt} {digest(main, arguments(stem, name, fmt))}")
    finally:
        os.chdir(cwd)
    return lines


def difference(a: str, b: str) -> str:
    """The largest absolute difference between corresponding numbers of two
    texts, or "text differs" when anything but the numbers differs."""
    if NUMBER.sub("#", a) != NUMBER.sub("#", b):
        return "text differs"
    pairs = zip(NUMBER.findall(a), NUMBER.findall(b))
    return f"max abs diff {max(abs(float(u) - float(v)) for u, v in pairs):.3g}"


def compare(ours: Path, theirs: Path) -> int:
    files = {
        p.relative_to(root) for root in (ours, theirs) for p in root.rglob("*") if p.is_file()
    }
    differing = 0
    for rel in sorted(files):
        a, b = ours / rel, theirs / rel
        if not (a.is_file() and b.is_file()):
            print(f"{rel}: only in {ours if a.is_file() else theirs}")
        elif a.read_bytes() != b.read_bytes():
            texts = (path.read_text(encoding="utf-8") for path in (a, b))
            print(f"{rel}: {difference(*texts)}")
        else:
            continue
        differing += 1
    print(f"{differing} of {len(files)} files differ")
    return 1 if differing else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("src", type=Path, help="a checkout's src directory")
    parser.add_argument("out", type=Path, help="directory to record the outputs in")
    parser.add_argument("--compare", type=Path, default=None, help="another OUT_DIR to diff with")
    parser.add_argument("--digests", type=Path, default=None,
                        help="write the stdout runs' digests to this file instead")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    if args.digests is not None:
        sys.path.insert(0, str(args.src.resolve()))
        import voteflow.cli

        lines = digests(voteflow.cli.main, args.out.resolve())
        args.digests.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {len(lines) - 4} digests to {args.digests}")
        return 0
    count = record(args.src.resolve(), args.out.resolve())
    print(f"recorded {count} runs in {args.out}")
    return compare(args.out, args.compare) if args.compare is not None else 0


if __name__ == "__main__":
    sys.exit(main())
