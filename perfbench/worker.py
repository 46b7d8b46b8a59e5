"""Run one workload in this process and print its figures as JSON.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --work DIR [--setup-only]

Inputs are generated first (standard library only). Set-up is then timed
from ``import voteflow`` through one small warm-up operation. Whole passes
over the workload's operations follow, in a closed loop, until ``--seconds``
have elapsed (at least two passes). Each operation is timed alone and then
checked; a pass's time is the sum of its operations' times.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(1, str(ROOT / "src"))

MIN_PASSES = 2
WARMUP_CONFIG = {
    "candidates": [
        {"name": "left", "position": 1.0, "prior": 0.38},
        {"name": "centre", "position": 2.0, "prior": 0.26},
        {"name": "right", "position": 3.0, "prior": 0.36},
    ],
    "horizon_years": 1.0,
    "sigma": 1.0,
    "simulation": {"n_paths": 1, "n_steps": 10, "seed": 0},
}


def warm_up(workload: str, work: Path) -> None:
    """One small operation of the workload's kind, so lazy set-up is done."""
    import voteflow
    import voteflow.cli

    if workload == "queries":
        model = voteflow.ElectionModel((1.0, 2.0, 3.0), (0.38, 0.26, 0.36), 1.0, 1.0)
        voteflow.win_probabilities(model)
        voteflow.is_dead_zone(model, 1)
    elif workload == "mc_tally":
        model = voteflow.ElectionModel((1.0, 2.0, 3.0), (0.38, 0.26, 0.36), 1.0, 1.0)
        voteflow.monte_carlo_win_probabilities(model, 10_000, 0)
    else:
        command = "forecast" if workload == "cli_reports" else "simulate"
        argv = [command, "--config", str(work / "warmup.json"), "--out", str(work / "warmup.out")]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = voteflow.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"warm-up {command} exited {code}")


def time_setup(argv: list[str]) -> float:
    """Set-up time measured in a fresh process (``argv`` plus ``--setup-only``)."""
    proc = subprocess.run(
        [sys.executable, __file__, *argv, "--setup-only"], capture_output=True, text=True, timeout=60, check=True
    )
    return json.loads(proc.stdout)["setup_s"]


def run_passes(ops, seconds: float, tracer, setup_argv: list[str]):
    """Whole passes until ``seconds`` have passed; a set-up sample is taken
    in a fresh process before each pass, so that both spread over the run."""
    walls, layers, setups, unexpected, fixed = [], [], [], [], set()
    attempted = failed = 0
    deadline = perf_counter() + seconds
    while len(walls) < MIN_PASSES or perf_counter() < deadline:
        setups.append(time_setup(setup_argv))
        if tracer:
            tracer.reset()
        wall = 0.0
        for op in ops:
            error = None
            start = perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # an operation's error is a failed operation
                error = exc
            wall += perf_counter() - start
            attempted += 1
            try:
                if error is not None:
                    raise error
                op.check(out)
            except Exception as exc:  # a malformed output fails its check, not the run
                failed += 1
                if not op.known_fault:
                    unexpected.append(f"{op.name}: {exc!r}")
            else:
                if op.known_fault:
                    fixed.add(op.name)
        walls.append(wall)
        if tracer:
            layers.append(tracer.metrics(wall))
    return walls, layers, setups, attempted, failed, unexpected, sorted(fixed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    work = Path(args.work)

    spec = None
    if not args.setup_only:
        import inputs

        spec = inputs.PREPARE[args.workload](args.seed, ROOT, work)
    (work / "warmup.json").write_text(json.dumps(WARMUP_CONFIG), encoding="utf-8")

    start = perf_counter()
    import voteflow  # noqa: F401  (the import is what set-up times)

    warm_up(args.workload, work)
    setup_s = perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy
    import scipy

    import spans
    import workloads

    ops = workloads.build(args.workload, spec, work)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    setup_argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", "0", "--work", args.work]
    walls, layers, setups, attempted, failed, unexpected, fixed = run_passes(ops, args.seconds, tracer, setup_argv)
    result = {
        "setup_s": [setup_s, *setups],
        "pass_wall_s": walls,
        "ops_per_pass": len(ops),
        "attempted": attempted,
        "failed": failed,
        "unexpected": unexpected[:10],
        "unexpected_count": len(unexpected),
        "known_faults_passing": fixed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
        },
    }
    if layers:
        result["per_layer"] = {name: statistics.median(p[name] for p in layers) for name in spans.METRICS}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
