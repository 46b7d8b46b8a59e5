"""Exact probabilities for every ordering of election-day support rates.

Two candidates' support rates cross at exactly one value of the accumulated
signal, so the real line splits into intervals on each of which the
election-day ranking of all candidates is a fixed permutation. The
probability of the terminal signal landing in an interval has a closed form:
a change of measure turns the information process into a standard Brownian
motion, leaving a prior-weighted mixture of Gaussian CDF differences. Every
ordering probability, and hence every candidate's probability of ranking
first, is a finite sum of such interval probabilities.

All thresholds and intervals live in accumulated-signal space (Y-space),
which unifies constant and time-dependent rate schedules; for a constant
rate, dividing a threshold by the rate recovers the raw-process value.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegeneratePrior,
    InvalidInterval,
    InvalidPermutation,
    NonPositiveHorizon,
    NonPositiveRate,
)
from .gaussian import normal_cdf, normal_cdf_diff
from .model import ElectionModel, _log_weight

__all__ = [
    "CrossingThreshold",
    "PartitionCell",
    "OrderingPartition",
    "OutcomeProbabilities",
    "crossing_threshold",
    "ordering_partition",
    "interval_probability",
    "ordering_probability",
    "win_probabilities",
    "two_candidate_win_probability",
]

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CrossingThreshold:
    """Accumulated-signal value at which candidates ``first`` and ``second``
    have equal election-day support. Symmetric in the pair; infinite when one
    of the two priors is zero (the other can never be overtaken)."""

    first: int
    second: int
    value: float


@dataclass(frozen=True)
class PartitionCell:
    """One open interval of accumulated-signal values and the strict ranking
    (best first) realized on it. ``lower``/``upper`` may be infinite."""

    lower: float
    upper: float
    ordering: tuple[int, ...]


@dataclass(frozen=True)
class OrderingPartition:
    """Interval decomposition of the real line by election-day ranking.

    ``boundaries`` are the sorted distinct finite thresholds; ``cells`` tile
    the line left to right, one per gap (plus the two unbounded ends).
    ``tie_count`` is the number of coincident thresholds that were merged
    away (zero-width cells); coincidences happen only on measure-zero
    parameter sets and do not affect probabilities.
    """

    boundaries: tuple[float, ...]
    cells: tuple[PartitionCell, ...]
    tie_count: int = 0


@dataclass(frozen=True, eq=False)
class OutcomeProbabilities:
    """Per-candidate probabilities of ranking first for ``model``.

    ``partition`` and ``ordering_probs`` (only realized orderings appear as
    keys) are built on first read; the win probabilities need neither.
    """

    model: ElectionModel
    win_probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.win_probs, dtype=np.float64)
        arr.flags.writeable = False
        object.__setattr__(self, "win_probs", arr)

    @cached_property
    def partition(self) -> OrderingPartition:
        return ordering_partition(self.model)

    @cached_property
    def ordering_probs(self) -> dict[tuple[int, ...], float]:
        probs: dict[tuple[int, ...], float] = {}
        for cell in self.partition.cells:
            p = interval_probability(self.model, cell.lower, cell.upper)
            probs[cell.ordering] = probs.get(cell.ordering, 0.0) + p
        return probs


def crossing_threshold(model: ElectionModel, k: int, j: int) -> CrossingThreshold:
    """Threshold in accumulated-signal space where k's and j's election-day
    support rates are equal.

        value = (log p_j - log p_k) / (x_k - x_j) + (x_k + x_j) V / 2

    with V the terminal accumulated squared rate. For a constant rate this
    is rate * (raw-process threshold). Support above the threshold favours
    whichever of the pair sits further right on the spectrum. With exactly
    one zero prior the value is +-infinity; with both zero it is NaN (the
    pair is tied everywhere at zero support).
    """
    n = model.n_candidates
    if k == j or not (0 <= k < n) or not (0 <= j < n):
        raise InvalidPermutation(f"need distinct candidate indices in [0, {n}), got ({k}, {j})")
    pair = [min(k, j), max(k, j)]
    table = _crossings(model.positions_arr[pair], model.priors_arr[pair], model.terminal_variance)
    return CrossingThreshold(first=k, second=j, value=float(table[0, 1]))


def ordering_partition(model: ElectionModel) -> OrderingPartition:
    """Partition accumulated-signal space by the election-day ranking.

    The ranking on each cell is found constructively: evaluate each
    candidate's log posterior weight (up to a common constant) at the cell
    midpoint, or one unit beyond the end boundary for the unbounded cells,
    and sort, ties broken by lower candidate index. The log weights do not
    underflow, so trailing candidates are ranked too; only zero-prior
    candidates tie, at -inf. This works for any number of candidates.
    Adjacent cells with identical rankings are merged; exactly coincident
    thresholds count into ``tie_count`` and are logged at DEBUG level.
    """
    v = model.terminal_variance
    table = _crossings(model.positions_arr, model.priors_arr, v)
    finite = list(filter(math.isfinite, table.ravel().tolist()))  # a zero prior crosses at +-inf
    boundaries = sorted(set(finite))
    tie_count = len(finite) - len(boundaries)
    if tie_count:
        _log.debug("%d coincident crossing threshold(s); zero-width cells merged", tie_count)

    edges = [-math.inf, *boundaries, math.inf]
    mids = [0.5 * (lo + hi) for lo, hi in zip(boundaries, boundaries[1:])]
    probes = [boundaries[0] - 1.0, *mids, boundaries[-1] + 1.0] if boundaries else [0.0]
    score = _log_weight(model, probes, v)
    rankings = np.argsort(-score, axis=-1, kind="stable").tolist()
    cells: list[PartitionCell] = []
    for lo, hi, ordering in zip(edges, edges[1:], map(tuple, rankings)):
        if cells and cells[-1].ordering == ordering:
            cells[-1] = PartitionCell(cells[-1].lower, hi, ordering)
        else:
            cells.append(PartitionCell(lo, hi, ordering))
    kept = tuple(c.upper for c in cells if math.isfinite(c.upper))
    return OrderingPartition(boundaries=kept, cells=tuple(cells), tie_count=tie_count)


def interval_probability(model: ElectionModel, a: float, b: float) -> float:
    """P(a < Y_T < b) for the terminal accumulated signal Y_T.

    Under candidate j the terminal signal is Normal(x_j V, V), so

        P(a < Y_T < b) = sum_j p_j [Phi((b - x_j V)/sqrt(V)) - Phi((a - x_j V)/sqrt(V))].

    Endpoints may be infinite. Far-tail intervals are evaluated through
    complementary CDFs, so the result is positive and monotone in the
    endpoints with no catastrophic cancellation.
    """
    if not (a <= b):
        raise InvalidInterval(f"need a <= b, got ({a}, {b})")
    if a == b:
        return 0.0
    v = model.terminal_variance
    sd = math.sqrt(v)
    total = 0.0
    for xj, pj in zip(model.positions, model.priors):
        if pj == 0.0:
            continue
        lo = (a - xj * v) / sd if math.isfinite(a) else -math.inf
        hi = (b - xj * v) / sd if math.isfinite(b) else math.inf
        total += pj * normal_cdf_diff(lo, hi)
    return total


def ordering_probability(model: ElectionModel, permutation) -> float:
    """Probability that the election-day ranking (best first) equals
    ``permutation``. Zero for orderings realized on no cell."""
    perm = tuple(int(i) for i in permutation)
    if sorted(perm) != list(range(model.n_candidates)):
        raise InvalidPermutation(
            f"{permutation!r} is not a strict ordering of all {model.n_candidates} candidates"
        )
    return win_probabilities(model).ordering_probs.get(perm, 0.0)


def win_probabilities(model: ElectionModel) -> OutcomeProbabilities:
    """Per-candidate probabilities of ranking first on election day
    (first-past-the-post), with all ordering probabilities on demand."""
    win = _win_kernel(model.positions_arr, model.priors_arr, model.terminal_variance)
    return OutcomeProbabilities(model=model, win_probs=win)


# interval_probability's CDF difference, lifted elementwise
_cdf_diffs = np.frompyfunc(normal_cdf_diff, 2, 1)


@np.errstate(divide="ignore", invalid="ignore")
def _crossings(x: np.ndarray, p: np.ndarray, v) -> np.ndarray:
    """Crossing thresholds of a batch of races with float positions x and
    priors p [..., N] and terminal accumulated variances v [..., 1] (a float
    for one race), as a table [..., N, N]: entry [a, b] with a < b is

        (log p_b - log p_a) / (x_a - x_b) + (x_a + x_b) V / 2,

    +-inf where one of the pair's priors is zero and NaN where both are;
    every other entry is NaN. This is the only place a crossing is formed."""
    x_a, x_b = x[..., :, None], x[..., None, :]
    log_p = np.log(p)
    half_v = np.asarray(v * 0.5)[..., None]
    table = (log_p[..., None, :] - log_p[..., :, None]) / (x_a - x_b) + (x_a + x_b) * half_v
    table *= _pair_mask(x.shape[-1])
    return table


@functools.lru_cache(maxsize=16)
def _pair_mask(n: int) -> np.ndarray:
    """[n, n] factors that keep the entries [a, b] with a < b exactly (1)
    and turn the rest to NaN."""
    mask = np.where(np.arange(n)[:, None] < np.arange(n), 1.0, np.nan)
    mask.flags.writeable = False
    return mask


def _lead_intervals(x: np.ndarray, p: np.ndarray, v) -> tuple[np.ndarray, np.ndarray]:
    """Lead intervals (L_k, U_k) of a batch of races, shaped as for
    ``_crossings``, with lower and upper ends [..., N]: k's largest crossing
    threshold with a rival to its left (-inf if none) and its smallest with
    one to its right (+inf if none). Candidate k ranks first exactly on
    (L_k, U_k). A pair with two zero priors (NaN) never binds."""
    table = _crossings(x, p, v)
    lower = np.fmax.reduce(table, axis=-2, initial=-np.inf)  # column k: rivals left of k
    upper = np.fmin.reduce(table, axis=-1, initial=np.inf)  # row k: rivals right of k
    return lower, upper


def _win_kernel(positions, priors, variance) -> np.ndarray:
    """Win probabilities of a batch of races: positions and priors [..., N]
    and terminal accumulated variances [...] broadcast to a result [..., N].

    Candidate k wins with the mass of its lead interval (L_k, U_k),
    sum_j p_j [Phi((U_k - x_j V)/sqrt V) - Phi((L_k - x_j V)/sqrt V)];
    exactly 0 when p_k = 0 or L_k >= U_k, as in ``is_dead_zone``.
    """
    x = np.asarray(positions, dtype=np.float64)
    p = np.asarray(priors, dtype=np.float64)
    v = np.asarray(variance, dtype=np.float64)[..., None]
    lower, upper = _lead_intervals(x, p, v)

    # [..., k, j]: mass of k's lead interval under candidate j's law, needed
    # only where k can lead and p_j > 0
    mean, sd = x[..., None, :] * v[..., None], np.sqrt(v)[..., None]
    lo, hi = (lower[..., :, None] - mean) / sd, (upper[..., :, None] - mean) / sd
    need = ((p > 0.0) & (lower < upper))[..., :, None] & (p > 0.0)[..., None, :]
    mass = np.zeros(need.shape)
    mass[need] = _cdf_diffs(lo[need], hi[need])
    return (p[..., None, :] * mass).sum(axis=-1)


def two_candidate_win_probability(p: float, sigma: float, horizon: float) -> float:
    """Closed form for a two-candidate race with labels (0, 1).

    The candidate holding current support p wins with probability

        p N(d+) + (1 - p) N(d-),   d+- = [log(p/(1-p)) +- sigma^2 T / 2] / (sigma sqrt(T)).

    Agrees with ``win_probabilities`` on the equivalent two-candidate model.
    """
    if not (0.0 < p < 1.0):
        raise DegeneratePrior(f"need 0 < p < 1, got {p}")
    if not (sigma > 0.0):
        raise NonPositiveRate(f"need sigma > 0, got {sigma}")
    if not (horizon > 0.0):
        raise NonPositiveHorizon(f"need horizon > 0, got {horizon}")
    log_odds = math.log(p / (1.0 - p))
    scale = sigma * math.sqrt(horizon)
    half_var = 0.5 * sigma * sigma * horizon
    d_plus = (log_odds + half_var) / scale
    d_minus = (log_odds - half_var) / scale
    return p * normal_cdf(d_plus) + (1.0 - p) * normal_cdf(d_minus)
