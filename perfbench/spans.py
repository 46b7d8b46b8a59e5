"""Outside-in spans around voteflow's public functions.

``Tracer.install`` rebinds each traced function, in every loaded
``voteflow`` module that holds it, to a wrapper that records a span; and it
wraps ``ElectionModel.__init__`` so every construction is a span, whoever
makes it. Spans nest on one thread, so each is kept only while open: on
exit its duration is charged to its parent's child time, and its self time
(duration minus the time its child spans cover) is added to its name's
totals. A name missing from the program is not wrapped and reads 0.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

TRACED = {
    "model": ["ElectionModel", "posterior_support", "condition_on_history"],
    "outcomes": ["crossing_threshold", "ordering_partition", "interval_probability", "win_probabilities"],
    "gaussian": ["normal_cdf_diff"],
    "strategy": [
        "is_dead_zone", "dead_zone_sigma_bound", "max_support_point", "max_support_curve",
        "sweep_sigma", "sweep_priors", "sweep_positions",
    ],
    "calibration": ["implied_sigma", "estimate_sigma_historic"],
    "simulation": ["simulate_paths", "posterior_paths", "winprob_paths", "monte_carlo_win_probabilities"],
    "aggregation": ["aggregate_n"],
    "cli": [
        "build_parser", "load_config", "read_poll_csv", "cmd_forecast", "cmd_sweep", "cmd_simulate",
        "cmd_deadzone", "cmd_maxsupport", "cmd_aggregate", "cmd_calibrate",
    ],
}
SPANS = [f"{module}.{name}" for module, names in TRACED.items() for name in names]

# (outer, inner): calls of inner made while outer is open
NESTED = [
    ("strategy.dead_zone_sigma_bound", "outcomes.crossing_threshold"),
    ("calibration.implied_sigma", "outcomes.win_probabilities"),
    ("simulation.winprob_paths", "model.ElectionModel"),
]


def _path_steps(args, kwargs) -> int:
    ensemble = args[0] if args else kwargs.get("ensemble")
    return ensemble.n_paths * ensemble.n_steps


def _draws(args, kwargs) -> int:
    return args[1] if len(args) > 1 else kwargs["n_paths"]


# argument-derived work counts: span -> (counter, function of the call's arguments)
WORK = {
    "simulation.winprob_paths": ("path_steps", _path_steps),
    "simulation.monte_carlo_win_probabilities": ("draws", _draws),
}

METRICS = [
    *(f"{span}.{kind}" for span in SPANS for kind in ("calls", "self_ms")),
    "outcomes.partitions_per_model",
    "strategy.dead_zone_sigma_bound.thresholds_per_call",
    "calibration.implied_sigma.evals_per_call",
    "simulation.winprob_paths.models_per_step",
    "simulation.monte_carlo_win_probabilities.draws_per_s",
    "trace.wall_s",
]


class Tracer:
    def __init__(self):
        self._stack: list[list[float]] = []
        self._open: dict[str, int] = defaultdict(int)
        self._undo: list = []
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.nested: dict[tuple[str, str], int] = defaultdict(int)
        self.work: dict[str, int] = defaultdict(int)

    def _wrap(self, span: str, fn):
        stack, open_, inside = self._stack, self._open, [o for o, i in NESTED if i == span]
        work = WORK.get(span)

        def traced(*args, **kwargs):
            for outer in inside:
                if open_[outer]:
                    self.nested[outer, span] += 1
            if work:
                self.work[work[0]] += work[1](args, kwargs)
            frame = [0.0]
            stack.append(frame)
            open_[span] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                open_[span] -= 1
                self.calls[span] += 1
                self.self_s[span] += duration - frame[0]
                self.total_s[span] += duration
                if stack:
                    stack[-1][0] += duration

        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == "voteflow" or name.startswith("voteflow.")]
        for module_name, names in TRACED.items():
            home = sys.modules.get(f"voteflow.{module_name}")
            for name in names:
                target = getattr(home, name, None)
                if target is None:
                    continue
                span = f"{module_name}.{name}"
                if isinstance(target, type):
                    init = target.__init__
                    target.__init__ = self._wrap(span, init)
                    self._undo.append((target, "__init__", init))
                    continue
                wrapper = self._wrap(span, target)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is target:
                            setattr(module, attr, wrapper)
                            self._undo.append((module, attr, target))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def metrics(self, wall_s: float) -> dict[str, float]:
        """This pass's per-layer figures, by metric name."""
        out: dict[str, float] = {}
        for span in SPANS:
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.self_ms"] = 1e3 * self.self_s[span]

        def ratio(num, den):
            return num / den if den else 0.0

        out["outcomes.partitions_per_model"] = ratio(
            self.calls["outcomes.ordering_partition"], self.calls["model.ElectionModel"]
        )
        bound, evals, paths = NESTED
        out["strategy.dead_zone_sigma_bound.thresholds_per_call"] = ratio(self.nested[bound], self.calls[bound[0]])
        out["calibration.implied_sigma.evals_per_call"] = ratio(self.nested[evals], self.calls[evals[0]])
        out["simulation.winprob_paths.models_per_step"] = ratio(self.nested[paths], self.work["path_steps"])
        out["simulation.monte_carlo_win_probabilities.draws_per_s"] = ratio(
            self.work["draws"], self.total_s["simulation.monte_carlo_win_probabilities"]
        )
        out["trace.wall_s"] = wall_s
        return out
