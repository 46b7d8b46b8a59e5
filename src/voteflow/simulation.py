"""Seeded Monte Carlo engine for information paths and outcome tallies.

Full path simulation draws the latent candidate label from the priors, then
advances the accumulated signal with the Euler step

    Y_{t+dt} = Y_t + rate_t^2 * x * dt + rate_t * sqrt(dt) * Z,

evaluating support rates pathwise from the exact filter formula (never an
SDE discretization of the filter itself). The outcome tally needs only the
terminal signal, whose law given the label is exactly Gaussian, so it draws
one normal per path and carries no discretization error at all; it is the
independent check for every closed-form probability in this package.

Reproducibility: path i's random stream is a pure function of (seed, i), so
ensembles are bit-identical across runs and independent of evaluation
order; simulating a prefix of the paths yields a prefix of the ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ModelMismatch, ValidationError
from .model import ElectionModel, _log_weight, _softmax
from .outcomes import _win_kernel

__all__ = [
    "PathEnsemble",
    "TrajectoryBundle",
    "MonteCarloOutcome",
    "simulate_paths",
    "posterior_paths",
    "winprob_paths",
    "monte_carlo_win_probabilities",
]


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Discretized accumulated-signal paths with their latent labels."""

    model: ElectionModel
    seed: int
    n_paths: int
    n_steps: int
    dt: float
    times: np.ndarray
    latent: np.ndarray
    signal_paths: np.ndarray

    def __post_init__(self):
        for name in ("times", "latent", "signal_paths"):
            arr = getattr(self, name)
            arr.flags.writeable = False


@dataclass(frozen=True, eq=False)
class TrajectoryBundle:
    """Per-path, per-time support rates (and optionally the conditional
    win probabilities realized along each path)."""

    times: np.ndarray
    support: np.ndarray
    win_probs: Optional[np.ndarray] = None

    def __post_init__(self):
        self.times.flags.writeable = False
        self.support.flags.writeable = False
        if self.win_probs is not None:
            self.win_probs.flags.writeable = False


@dataclass(frozen=True, eq=False)
class MonteCarloOutcome:
    """Terminal-ordering tally from exact terminal draws.

    ``ordering_counts`` partition the paths (integer counts sum to
    n_paths exactly); its keys, the observed orderings only, come in
    ascending lexicographic order. Frequencies and binomial standard errors
    are derived from the counts. Each path is ranked by the candidates' log
    posterior weights, which do not underflow, so trailing candidates are
    ranked too.
    ``tie_count`` records paths on which two finite weights were exactly
    equal (resolved toward the lower index); zero-prior candidates, all at
    -inf, are ranked last by index and never count as a tie.
    """

    n_paths: int
    seed: int
    ordering_counts: dict[tuple[int, ...], int]
    win_freqs: np.ndarray
    win_std_errors: np.ndarray
    tie_count: int

    def __post_init__(self):
        self.win_freqs.flags.writeable = False
        self.win_std_errors.flags.writeable = False

    @property
    def ordering_freqs(self) -> dict[tuple[int, ...], float]:
        return {k: c / self.n_paths for k, c in self.ordering_counts.items()}

    @property
    def ordering_std_errors(self) -> dict[tuple[int, ...], float]:
        out = {}
        for k, c in self.ordering_counts.items():
            f = c / self.n_paths
            out[k] = math.sqrt(f * (1.0 - f) / self.n_paths)
        return out


#: Path-steps per win-kernel call in ``winprob_paths``. The kernel holds a
#: few N x N arrays per path-step; a fixed block caps them (6 MB at N = 6)
#: however long the paths, yet makes numpy's per-call overhead negligible.
PATH_STEP_BLOCK = 2048


def _path_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _draw_latent(rng: np.random.Generator, cum_priors: np.ndarray, size=None):
    u = rng.random(size)
    # clip guards the u > cum_priors[-1] sliver left by rounding in the cumsum
    return np.minimum(np.searchsorted(cum_priors, u, side="right"), len(cum_priors) - 1)


def simulate_paths(
    model: ElectionModel, n_paths: int, n_steps: int, seed: int
) -> PathEnsemble:
    """Simulate accumulated-signal paths under the physical measure.

    Deterministic for a fixed seed; path i consumes its own stream derived
    from (seed, i), so the ensemble does not depend on generation order.
    """
    if n_paths < 1 or n_steps < 1:
        raise ValidationError(f"need n_paths >= 1 and n_steps >= 1, got {n_paths}, {n_steps}")
    horizon = model.horizon
    dt = horizon / n_steps
    times = np.linspace(0.0, horizon, n_steps + 1)
    rates = model.schedule.rates_at(times[:-1])
    drift_unit = rates * rates * dt
    noise_unit = rates * math.sqrt(dt)
    cum_priors = np.cumsum(model.priors_arr)
    positions = model.positions_arr

    latent = np.zeros(n_paths, dtype=np.int64)
    signals = np.zeros((n_paths, n_steps + 1))
    for i in range(n_paths):
        rng = _path_rng(seed, i)
        label = int(_draw_latent(rng, cum_priors))
        z = rng.standard_normal(n_steps)
        increments = drift_unit * positions[label] + noise_unit * z
        latent[i] = label
        signals[i, 1:] = np.cumsum(increments)
    return PathEnsemble(
        model=model,
        seed=int(seed),
        n_paths=n_paths,
        n_steps=n_steps,
        dt=dt,
        times=times,
        latent=latent,
        signal_paths=signals,
    )


def _require_same_model(ensemble: PathEnsemble, model: ElectionModel) -> None:
    if ensemble.model != model:
        raise ModelMismatch("ensemble was generated from different model parameters")


def posterior_paths(ensemble: PathEnsemble, model: ElectionModel) -> TrajectoryBundle:
    """Support-rate trajectories along each simulated path.

    Evaluated at every step from the exact filter formula (posterior weights
    in the log domain with a max shift), not from a discretization of the
    filter dynamics.
    """
    _require_same_model(ensemble, model)
    v_times = np.array(
        [model.schedule.variance(0.0, float(t)) for t in ensemble.times]
    )
    support = _softmax(_log_weight(model, ensemble.signal_paths, v_times))
    return TrajectoryBundle(times=ensemble.times, support=support)


def winprob_paths(ensemble: PathEnsemble, model: ElectionModel) -> TrajectoryBundle:
    """Support plus realized conditional win-probability trajectories.

    Given the history up to an interior time t, the race is the same race
    with the time-t supports as priors and V(t, T) as terminal variance, so
    every path-step's closed-form win probabilities come from one batched
    evaluation per block of path-steps; at the final time the win vector is
    the indicator of the leading candidate (ties to the lower index).
    """
    _require_same_model(ensemble, model)
    bundle = posterior_paths(ensemble, model)
    n_paths, n_steps = ensemble.n_paths, ensemble.n_steps
    remaining = np.array(
        [model.schedule.variance(float(t), model.horizon) for t in ensemble.times[:-1]]
    )
    win = np.zeros_like(bundle.support)
    total = n_paths * n_steps
    for start in range(0, total, PATH_STEP_BLOCK):
        path, step = np.divmod(np.arange(start, min(start + PATH_STEP_BLOCK, total)), n_steps)
        win[path, step] = _win_kernel(
            model.positions_arr, bundle.support[path, step], remaining[step]
        )
    winner = np.argmax(bundle.support[:, -1, :], axis=-1)
    win[np.arange(n_paths), -1, winner] = 1.0
    return TrajectoryBundle(times=ensemble.times, support=bundle.support, win_probs=win)


def monte_carlo_win_probabilities(
    model: ElectionModel, n_paths: int, seed: int
) -> MonteCarloOutcome:
    """Tally terminal orderings from exact terminal-signal draws.

    Only the terminal accumulated signal matters for the outcome and its law
    given the label is Normal(x_j V, V), so each path is a single Gaussian
    draw: the estimate carries sampling error but no discretization error.
    """
    if n_paths < 1:
        raise ValidationError(f"need n_paths >= 1, got {n_paths}")
    rng = np.random.default_rng(seed)
    cum_priors = np.cumsum(model.priors_arr)
    latent = _draw_latent(rng, cum_priors, n_paths)
    v = model.terminal_variance
    y = model.positions_arr[latent] * v + math.sqrt(v) * rng.standard_normal(n_paths)
    log_weight = _log_weight(model, y, v)

    order = np.argsort(-log_weight, axis=1, kind="stable")
    sorted_weight = np.take_along_axis(log_weight, order, axis=1)
    # -inf - -inf is NaN, so zero-prior candidates never compare equal here
    tie_count = int(np.sum(np.any(np.diff(sorted_weight, axis=1) == 0.0, axis=1)))

    # one lexicographic sort of the rank rows, narrowest type for speed and no
    # per-permutation code to overflow; a count is the gap to the next start
    n = model.n_candidates
    ranks = order.astype(np.min_scalar_type(n - 1))
    ranks = ranks[np.lexsort(ranks.T[::-1])]
    starts = np.flatnonzero(np.r_[True, np.any(ranks[1:] != ranks[:-1], axis=1)])
    row_counts = np.diff(np.r_[starts, n_paths]).tolist()
    counts = dict(zip(map(tuple, ranks[starts].tolist()), row_counts))

    win_counts = np.bincount(order[:, 0], minlength=n)
    win_freqs = win_counts / n_paths
    win_se = np.sqrt(win_freqs * (1.0 - win_freqs) / n_paths)
    return MonteCarloOutcome(
        n_paths=n_paths,
        seed=int(seed),
        ordering_counts=counts,
        win_freqs=win_freqs,
        win_std_errors=win_se,
        tie_count=tie_count,
    )
