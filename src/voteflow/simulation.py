"""Seeded Monte Carlo engine for information paths and outcome tallies.

Full path simulation draws the latent candidate label from the priors, then
advances the accumulated signal with the exact step

    Y_{t1} = Y_{t0} + x * V(t0, t1) + sqrt(V(t0, t1)) * Z,

free of discretization error at grid times for any schedule, and
evaluating support rates pathwise from the exact filter formula (never an
SDE discretization of the filter itself). The outcome tally needs only the
terminal signal, whose law given the label is exactly Gaussian, so it draws
one normal per path and carries no discretization error at all; it is the
independent check for every closed-form probability in this package. It
takes its draws in blocks of ``TALLY_BLOCK``, and each block reads only the
multiset of its terminal signals, so it draws how many paths each label
holds (one multinomial count vector) and the signals label by label, not a
label per path: the same law for the multiset. Weights w_j = fl(c_j +
fl(x_j y)), c_j = log p_j - x_j^2 V / 2, err by at most u = 2^-53 a
rounding (2^-1075 for a subnormal product), so by less than e_j = 2u (|c_j|
+ 2 |x_j| Y) + 2^-1022 for |y| <= Y, the block's largest. A pair's exact
gap is affine in y, so one computed above 2 (e_p + e_q) at both ends of a
stretch of sorted draws stays positive between them; rounding is monotone,
so a weight finite (or -inf) at both ends is so between them. A stretch
whose end draws rank alike, each neighbouring pair of that ranking so apart
(or its lower weight -inf at both ends; never NaN), holds that ranking and
no tie; the others are halved down to ``TALLY_LEAF`` draws.

Reproducibility: path simulation draws every label from the stream of
(seed, 0) and every normal increment from the stream of (seed, 1), each in
path order, so ensembles are bit-identical across runs and independent of
evaluation order, and simulating fewer paths of the same length yields a
prefix of the ensemble. Tally block i draws from the stream of (seed, i).
Blocks run on a thread pool of at most one worker per CPU and their
tallies are added in block order, so a tally is bit-identical across runs
and machines and never depends on the CPU count.
"""

from __future__ import annotations

import collections
import math
import numbers
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError
from .model import ElectionModel, _log_weight, _schedule_variances, _softmax
from .outcomes import _lead_masses

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
    are derived from the counts. Each path is ranked by a stable sort of the
    candidates' log posterior weights, which do not underflow, so trailing
    candidates are ranked too. They are affine in the terminal signal, so
    the paths are sorted by it and a stretch whose end paths rank alike,
    each neighbouring pair apart by over twice its rounding bound at both
    ends (see the module docstring), is counted whole; the counts are those
    of ranking every path alone. The paths come in blocks of
    ``TALLY_BLOCK``, each from its own stream and sorted and counted alone,
    added in block order: the outcome is a function of (model, n_paths,
    seed), whatever the number of threads. ``tie_count`` records paths on which two
    finite weights were exactly equal (resolved toward the lower index);
    zero-prior candidates, all at -inf, are ranked last by index and never
    count as a tie.
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


#: Path-steps per ``_lead_masses`` call in ``winprob_paths``. It holds a
#: few N x N arrays per path-step and hands ``math.erfc`` one list of at most
#: (m - 1) N ends per path-step for m live candidates; a fixed block caps
#: them (5.3 MB at N = 6) however long the paths, yet makes numpy's per-call
#: overhead negligible.
PATH_STEP_BLOCK = 2048

#: Draws per block of ``monte_carlo_win_probabilities``. Each block draws
#: from its own stream and is tallied alone, so blocks run in parallel and
#: the tally's memory does not grow with the draw count (a few MB a block);
#: 2^18 draws make the per-block overhead negligible.
TALLY_BLOCK = 1 << 18

#: Draws in a tally leaf: an uncertified stretch this short is ranked alone.
TALLY_LEAF = 256


def _check_counts(seed, **counts) -> None:
    """Reject a seed that is not an integer >= 0 or a count that is not an
    integer >= 1, naming the argument; numpy would raise TypeError or a
    bare ValueError, or draw nothing."""
    for name, value, least in [("seed", seed, 0), *((k, v, 1) for k, v in counts.items())]:
        if not (isinstance(value, numbers.Integral) and value >= least):
            raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")


def _path_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def simulate_paths(
    model: ElectionModel, n_paths: int, n_steps: int, seed: int
) -> PathEnsemble:
    """Simulate accumulated-signal paths under the physical measure.

    Each step's increment is drawn from its exact law given the label,
    Normal(x V(t0, t1), V(t0, t1)), with V the schedule's variance over the
    step, so a step that straddles a breakpoint is as exact as any other.
    Deterministic for a fixed seed. The labels are one draw of n_paths from
    the priors, from the stream of (seed, 0); the standard normals are one
    [n_paths, n_steps] draw, row by row, from the stream of (seed, 1). Each
    stream is read in path order, so a run with fewer paths and the same
    n_steps yields a prefix of the ensemble. Two streams, not one: the
    normals would otherwise start at an offset that depends on n_paths.
    """
    _check_counts(seed, n_paths=n_paths, n_steps=n_steps)
    times = np.linspace(0.0, model.horizon, n_steps + 1)
    dv = _schedule_variances(model.schedule, times[:-1], times[1:])

    latent = _path_rng(seed, 0).choice(model.n_candidates, size=n_paths, p=model.priors_arr)
    z = _path_rng(seed, 1).standard_normal((n_paths, n_steps))
    signals = np.zeros((n_paths, n_steps + 1))
    increments = dv * model.positions_arr[latent, None] + np.sqrt(dv) * z
    np.cumsum(increments, axis=1, out=signals[:, 1:])
    return PathEnsemble(
        model=model,
        seed=int(seed),
        n_paths=n_paths,
        n_steps=n_steps,
        times=times,
        latent=latent,
        signal_paths=signals,
    )


def posterior_paths(ensemble: PathEnsemble) -> TrajectoryBundle:
    """Support-rate trajectories along each path of ``ensemble``, under the
    model it was drawn from.

    Evaluated at every step from the exact filter formula (posterior weights
    in the log domain with a max shift), not from a discretization of the
    filter dynamics.
    """
    v_times = _schedule_variances(ensemble.model.schedule, 0.0, ensemble.times)
    support = _softmax(_log_weight(ensemble.model, ensemble.signal_paths, v_times))
    return TrajectoryBundle(times=ensemble.times, support=support)


def winprob_paths(ensemble: PathEnsemble) -> TrajectoryBundle:
    """Support plus realized conditional win-probability trajectories.

    Conditioning only shifts the thresholds: given the signal y at an
    interior time t, the race is the model's own with every crossing moved
    to table[a, b] - y, the time-t supports as priors and V(t, T) as
    terminal variance. So who can win is decided once per model, and each
    path-step's win probabilities are the masses of the model's lead
    intervals shifted by -y, one batched call per block of path-steps. At
    the final time they are the indicator of the leader (ties to the lower index).
    """
    model = ensemble.model
    bundle = posterior_paths(ensemble)
    n_paths, n_steps = ensemble.n_paths, ensemble.n_steps
    remaining = _schedule_variances(model.schedule, ensemble.times[:-1], model.horizon)
    ends = np.array(model.lead_intervals)[:, None, :]  # [2, 1, N]
    win = np.zeros_like(bundle.support)
    total = n_paths * n_steps
    for start in range(0, total, PATH_STEP_BLOCK):
        path, step = np.divmod(np.arange(start, min(start + PATH_STEP_BLOCK, total)), n_steps)
        shifted = ends - ensemble.signal_paths[path, step, None]  # [2, B, N]
        win[path, step] = _lead_masses(
            shifted, model.positions_arr, bundle.support[path, step], remaining[step]
        )
    winner = np.argmax(bundle.support[:, -1, :], axis=-1)
    win[np.arange(n_paths), -1, winner] = 1.0
    return TrajectoryBundle(times=ensemble.times, support=bundle.support, win_probs=win)


def _rank_each(model: ElectionModel, y: np.ndarray, v: float):
    """Each draw's ranking [m, N], a stable argsort of its negated log
    weights (NaN last), and its weights in that order."""
    weight = _log_weight(model, y, v)
    order = np.argsort(-weight, axis=1, kind="stable")
    return order, np.take_along_axis(weight, order, axis=1)


def monte_carlo_win_probabilities(
    model: ElectionModel, n_paths: int, seed: int
) -> MonteCarloOutcome:
    """Tally terminal orderings from exact terminal-signal draws.

    Only the terminal accumulated signal matters for the outcome and its law
    given the label is Normal(x_j V, V), so each path is a single Gaussian
    draw: the estimate carries sampling error but no discretization error.
    The paths come in blocks of ``TALLY_BLOCK`` (the last may be shorter);
    block i draws from the stream of (seed, i), its paths per label as one
    multinomial draw from the priors and the paths of label j as one run of
    Normal(x_j V, V) draws, and is tallied alone. Blocks run on a pool of at
    most one thread per CPU (a single block on the calling thread), and
    their tallies are added in block order, so the outcome depends on
    (model, n_paths, seed) alone, never on the CPU count.
    """
    _check_counts(seed, n_paths=n_paths)
    n = model.n_candidates
    sizes = [min(TALLY_BLOCK, n_paths - lo) for lo in range(0, n_paths, TALLY_BLOCK)]
    # numpy's error state is per thread (a context variable): each block
    # runs under the caller's
    errors = np.geterr()

    def tally(i):
        with np.errstate(**errors):
            return _tally_block(model, sizes[i], _path_rng(seed, i))

    workers = min(len(sizes), os.cpu_count() or 1)
    if workers == 1:
        tallies = list(map(tally, range(len(sizes))))
    else:
        # imported here, since the import costs every process that loads
        # the package about 4 ms, and only a tally of several blocks uses it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            tallies = list(pool.map(tally, range(len(sizes))))

    counts = collections.Counter()
    leaders = np.zeros(n)
    tie_count = 0
    for block_counts, block_leaders, block_ties in tallies:
        counts.update(block_counts)
        leaders += block_leaders
        tie_count += block_ties
    # integer-valued sums below 2^53: the frequencies are exact
    win_freqs = leaders / n_paths
    win_se = np.sqrt(win_freqs * (1.0 - win_freqs) / n_paths)
    return MonteCarloOutcome(
        n_paths=n_paths,
        seed=int(seed),
        ordering_counts=dict(sorted(counts.items())),
        win_freqs=win_freqs,
        win_std_errors=win_se,
        tie_count=tie_count,
    )


def _tally_block(model: ElectionModel, n_paths: int, rng: np.random.Generator):
    """One block's ordering counts, leader counts [N] and tied draws, from
    n_paths draws of ``rng``. Reads the model's arrays and calls only
    private kernels, so blocks may run on any thread."""
    # the tally is a function of the multiset of draws, so it draws how many
    # paths each label holds, not which path holds which, and orders the
    # draws by y: draws with one ranking then sit in runs
    held = rng.multinomial(n_paths, model.priors_arr)
    v = model.terminal_variance
    y = rng.standard_normal(n_paths)
    y *= math.sqrt(v)
    ends = np.cumsum(held).tolist()
    for mean, lo, hi in zip((model.positions_arr * v).tolist(), [0, *ends], ends):
        y[lo:hi] += mean
    y.sort()
    n = model.n_candidates
    counts, leaders = collections.Counter(), np.zeros(n)

    def add(order, lengths):
        for key, c in zip(map(tuple, order.tolist()), lengths.tolist()):
            counts[key] += c
        leaders[:] += np.bincount(order[:, 0], weights=lengths, minlength=n)

    # certify stretches [lo, hi) of the sorted draws a level at a time, with
    # the module docstring's e_j; only the weights see the caller's errstate
    with np.errstate(all="ignore"):
        y_max, c = np.abs(y[[0, -1]]).max(), np.abs(_log_weight(model, 0.0, v))
        bound = np.finfo(float).eps * (c + 2.0 * np.abs(model.positions_arr) * y_max) + 2.0**-1022
    lo, hi, leaves = np.array([0]), np.array([n_paths]), []
    while lo.size:
        k = lo.size
        order, ranked = _rank_each(model, y[np.r_[lo, hi - 1]], v)
        with np.errstate(all="ignore"):
            gap = ranked[:, :-1] - ranked[:, 1:]
            apart = (gap > 2.0 * (bound[order[:, :-1]] + bound[order[:, 1:]])) & (gap < np.inf)
        dead = ranked[:, 1:] == -np.inf
        same = (order[:k] == order[k:]).all(axis=1)
        whole = same & ((apart[:k] & apart[k:]) | (dead[:k] & dead[k:])).all(axis=1)
        add(order[:k][whole], (hi - lo)[whole])
        split = ~whole & (hi - lo > TALLY_LEAF)
        leaves += zip(lo[~whole & ~split].tolist(), hi[~whole & ~split].tolist())
        mid = (lo + hi) // 2
        lo, hi = np.r_[lo[split], mid[split]], np.r_[mid[split], hi[split]]

    # rank each leaf draw, 2^17 weights a step (in cache, flat in N)
    leaf_y = np.concatenate([y[a:b] for a, b in sorted(leaves)] or [y[:0]])
    tied = 0
    step = (1 << 17) // n
    for lo in range(0, leaf_y.size, step):
        order, ranked = _rank_each(model, leaf_y[lo:lo + step], v)
        # -inf == -inf, so a tie needs finite weights: zero priors never tie
        tie = (ranked[:, 1:] == ranked[:, :-1]) & np.isfinite(ranked[:, 1:])
        tied += int(np.count_nonzero(tie.any(axis=1)))
        starts = np.flatnonzero(np.r_[True, (order[1:] != order[:-1]).any(axis=1)])
        add(order[starts], np.diff(np.r_[starts, len(order)]))
    return counts, leaders, tied
