"""The voteflow benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 1]

With ``--workload`` it runs that workload and prints, as its last line, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-module ones). Without it,
it runs every workload in turn and prints a table; ``--trace 1`` then adds
a traced run of each and its overhead.

Each workload runs in a fresh worker process (perfbench/worker.py) against
the voteflow source in this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("queries", "cli_reports", "paths", "mc_tally")
DEFAULT_SEED = 1
TIME_LIMIT_S = 170.0

sys.path.insert(0, str(HERE))
import spans  # noqa: E402


def unit(metric: str) -> str:
    if metric.endswith(".calls"):
        return "count"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("draws_per_s"):
        return "1/s"
    if metric.endswith("wall_s"):
        return "s"
    return "ratio"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """The worker's report of one measured run."""
    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *argv, "--work", str(work)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=TIME_LIMIT_S,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(report: dict) -> dict:
    return {
        "setup_s": {"value": statistics.median(report["setup_s"]), "unit": "s"},
        "wall_s": {"value": statistics.median(report["pass_wall_s"]), "unit": "s"},
        "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
    }


def describe(workload: str, seed: int, report: dict) -> None:
    walls = report["pass_wall_s"]
    print(
        f"{workload}: seed={seed} passes={len(walls)} ops/pass={report['ops_per_pass']} "
        f"attempted={report['attempted']} failed={report['failed']} "
        f"pass_wall_s min={min(walls):.4f} median={statistics.median(walls):.4f} max={max(walls):.4f}"
    )
    print(f"env: {json.dumps(report['env'])}")
    for line in report["unexpected"]:
        print(f"  unexpected failure: {line}")
    for name in report["known_faults_passing"]:
        print(f"  known-fault operation now passes: {name}")


def result_line(report: dict, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": report["unexpected_count"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": metrics,
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="voteflow benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "voteflow" / "__init__.py").is_file():
        print(f"error: no voteflow source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        describe(args.workload, args.seed, report)
        if args.trace:
            metrics = {m: {"value": report["per_layer"][m], "unit": unit(m)} for m in spans.METRICS}
        else:
            metrics = end_to_end(report)
        print(result_line(report, metrics))
        return 0

    summary = {}
    for workload in WORKLOADS:
        report = run_workload(workload, args.seed, args.seconds, False)
        describe(workload, args.seed, report)
        metrics = end_to_end(report)
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        entry = json.loads(result_line(report, metrics))
        if args.trace:
            traced = run_workload(workload, args.seed, args.seconds, True)
            layer = traced["per_layer"]
            for name in spans.METRICS:
                if layer[name]:
                    print(f"  {name} = {layer[name]:.6g} {unit(name)}")
            overhead = layer["trace.wall_s"] / metrics["wall_s"]["value"] - 1.0
            print(f"  tracing overhead = {100.0 * overhead:.1f}% of wall_s")
            entry["per_layer"] = layer
        summary[workload] = entry
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
