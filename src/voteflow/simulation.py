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
label per path: the same law for the multiset.

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
    are derived from the counts. Each path is ranked by a stable sort of the
    candidates' log posterior weights, which do not underflow, so trailing
    candidates are ranked too. The weights depend on the terminal signal
    alone, so the paths are sorted by it and counted in runs over which the
    ranking does not change (read from which weight of each pair is larger
    up to N = 32, from ranking each path beyond), with one ranked path per
    run: the counts are those of ranking every path alone. The paths come
    in blocks of ``TALLY_BLOCK``, each from its own stream and sorted and
    counted alone, and the blocks' counts are added in block order: the
    outcome is a function of (model, n_paths, seed), whatever the number of
    threads that tallied it. ``tie_count`` records paths on which two
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
    horizon = model.horizon
    dt = horizon / n_steps
    times = np.linspace(0.0, horizon, n_steps + 1)
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
        dt=dt,
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


def _compare_pairs(model: ElectionModel, y: np.ndarray, v: float):
    """Where the ranking changes between neighbours of the sorted signals y
    (one flag per draw after the first), and which draws hold two equal
    finite weights, from each pair's comparison w[b] > w[a]: a draw's stable
    ranking is a function of those bits. A draw with a NaN weight, which the
    bits do not rank (argsort places it last), is a run of its own."""
    weight = _log_weight(model, y, v, candidates_first=True)  # [N, m]
    nan = np.isnan(weight).any(axis=0)
    flip = nan[1:] | nan[:-1]
    tie = np.zeros_like(nan)
    for b in range(1, model.n_candidates):
        # -inf == -inf, so a tie needs finite weights: zero priors never tie
        tie |= (weight[b] == weight[:b]).any(axis=0) & np.isfinite(weight[b])
        above = weight[b] > weight[:b]
        flip |= (above[:, 1:] != above[:, :-1]).any(axis=0)
    return flip, tie


def _rank_each(model: ElectionModel, y: np.ndarray, v: float):
    """As ``_compare_pairs``, from a stable argsort of each draw's negated
    weights; equal finite weights sit side by side once ranked."""
    weight = _log_weight(model, y, v)  # [m, N]
    order = np.argsort(-weight, axis=1, kind="stable")
    ranked = np.take_along_axis(weight, order, axis=1)
    tie = ((ranked[:, 1:] == ranked[:, :-1]) & np.isfinite(ranked[:, 1:])).any(axis=1)
    return (order[1:] != order[:-1]).any(axis=1), tie


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
    y = np.repeat(model.positions_arr * v, held) + math.sqrt(v) * rng.standard_normal(n_paths)
    y.sort()

    # a run starts wherever a draw's ranking differs from the draw before's;
    # steps of about 2^17 weights, each with the draw before it, keep every
    # pass in cache. Pair comparisons cost O(N^2) a draw and ranking each
    # draw O(N log N), plus a per-draw overhead that dominates at small N:
    # the first is the faster up to about N = 32.
    n = model.n_candidates
    compare = _compare_pairs if n <= 32 else _rank_each
    start = np.zeros(n_paths, dtype=bool)
    tied = np.zeros(n_paths, dtype=bool)
    step = (1 << 17) // n
    for lo in range(0, n_paths, step):
        rows = slice(max(lo - 1, 0), lo + step)
        start[rows][1:], tied[rows] = compare(model, y[rows], v)
    start[0] = True

    # rank one draw per run; runs of one ordering add up
    starts = np.flatnonzero(start)
    run_lengths = np.diff(np.r_[starts, n_paths])
    order = np.argsort(-_log_weight(model, y[starts], v), axis=1, kind="stable")
    counts = collections.Counter()
    for key, c in zip(map(tuple, order.tolist()), run_lengths.tolist()):
        counts[key] += c
    leaders = np.bincount(order[:, 0], weights=run_lengths, minlength=n)
    return counts, leaders, int(np.count_nonzero(tied))
