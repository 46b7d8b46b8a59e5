"""Compare a parent commit with HEAD on the benchmark, in pairs.

    python tools/bench_pairs.py --parent REF --out BENCH_<n>.json
        [--workload W ...] [--seed S]

For each workload (default: every one ``BENCHMARK.json`` lists) it runs 10
pairs of ``perfbench/run.py --workload W --seed s --seconds T``, with T the
benchmark's own ``run_seconds``: one run on the committed files of REF and
one on those of HEAD, with the same seed within a pair (S, S + 1, ...) and
the side that runs first alternating from pair to pair. Ten pairs is the
fewest that can back a claimed gain. Both commits are unpacked with
``git archive`` into a temporary directory, so what is measured is what
was committed, the checkout may change while the pairs run, and a killed
run leaves nothing behind but that directory.

For each end-to-end metric the output holds both medians, their ratio
(change / parent), the parent's quartiles and their distance, and how many
of the pairs the change won (strictly better in the metric's direction;
ties count for neither side), beside every run's figures and failure
counts. After each workload's pairs it makes one ``--trace 1`` run per
side at the first seed and records its per-layer metrics under
``per_layer``, so the output shows which layer a difference sits in. It
also records the seeds, the two commits, ``nproc``, the CPU model, and the
Python, numpy and scipy versions. Uses only the standard library besides
git and tar.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900.0
PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True).stdout


def unpack(ref: str, dest: Path) -> None:
    """The committed files of ``ref`` under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: bool = False) -> dict:
    """The result line of one benchmark run in ``checkout``: the end-to-end
    metrics, or with ``trace`` the per-layer ones."""
    argv = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        **{name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarise(runs: list[dict], metric: dict) -> dict:
    """Medians, ratio, the parent's quartiles and the change's wins of one
    metric (a ``BENCHMARK.json`` ``end_to_end`` entry) over paired runs."""
    name, lower_is_better = metric["name"], metric["better"] == "lower"
    parent = [run["parent"][name] for run in runs]
    change = [run["change"][name] for run in runs]
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    wins = sum((c < p) if lower_is_better else (c > p) for p, c in zip(parent, change))
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric.get("bound"),
        "parent_median": parent_median,
        "change_median": change_median,
        "ratio": change_median / parent_median if parent_median else None,
        "parent_quartiles": [q1, q3],
        "parent_iqr": q3 - q1,
        "change_quartiles": list(quartiles(change)),
        "wins": wins,
        "of": len(runs),
    }


def machine() -> dict:
    cpu_model = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def version(package: str):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="paired parent/change benchmark runs")
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--out", required=True, type=Path, help="where to write the JSON")
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in benchmark["workloads"]],
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    seeds = list(range(args.seed, args.seed + PAIRS))
    seconds = benchmark["run_seconds"]
    commits = {"parent": git("rev-parse", args.parent).strip(), "change": git("rev-parse", "HEAD").strip()}

    report = {
        "parent": {"ref": args.parent, "commit": commits["parent"]},
        "change": {"ref": "HEAD", "commit": commits["change"]},
        "pairs": PAIRS,
        "seconds": seconds,
        "seeds": seeds,
        "machine": machine(),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = {side: Path(tmp) / side for side in commits}
        for side, commit in commits.items():
            roots[side].mkdir()
            unpack(commit, roots[side])
        for workload in workloads:
            runs = []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = run_once(roots[side], workload, seed, seconds)
                    print(f"{workload} seed {seed} {side}: {json.dumps(run[side])}", file=sys.stderr, flush=True)
                runs.append(run)
            per_layer = {side: run_once(roots[side], workload, seeds[0], seconds, trace=True) for side in commits}
            report["workloads"][workload] = {
                "metrics": {m["name"]: summarise(runs, m) for m in benchmark["end_to_end"]},
                "runs": runs,
                "per_layer": per_layer,
            }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
