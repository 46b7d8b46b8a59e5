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
from .gaussian import normal_mass, normal_masses, tail_values
from .model import ElectionModel, _crossings, _is_index, _lead_intervals

__all__ = [
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
    ``tie_count`` is the number of finite thresholds that coincide exactly
    with another, so leave no zero-width cell; coincidences happen only on
    measure-zero parameter sets and do not affect probabilities.
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
        return _ordering_sums(self.model, self.partition)


def crossing_threshold(model: ElectionModel, k: int, j: int) -> float:
    """Threshold in accumulated-signal space where k's and j's election-day
    support rates are equal (symmetric in the pair).

        value = (log p_j - log p_k) / (x_k - x_j) + (x_k + x_j) V / 2

    with V the terminal accumulated squared rate. For a constant rate this
    is rate * (raw-process threshold). Support above the threshold favours
    whichever of the pair sits further right on the spectrum. With exactly
    one zero prior the value is +-infinity; with both zero it is NaN (the
    pair is tied everywhere at zero support).
    """
    n = model.n_candidates
    if k == j or not (_is_index(k, 0, n) and _is_index(j, 0, n)):
        raise InvalidPermutation(f"need distinct candidate indices in [0, {n}), got ({k}, {j})")
    return float(model.crossing_table[min(k, j), max(k, j)])


def ordering_partition(model: ElectionModel) -> OrderingPartition:
    """Partition accumulated-signal space by the election-day ranking.

    The boundaries and the ranking on each cell both come from the model's
    crossing table, one cell per gap. k's score on a cell is the number of
    rivals it beats: for a < b, a beats b left of table[a, b] and b beats a
    right of it; a NaN entry (two zero priors) beats no one. Scores are
    sorted stably, so zero-prior candidates rank last in index order. No
    pair crosses inside a cell and one swaps at each boundary, so no two
    cells share a ranking, except that a cell a few ulps wide, where
    rounding misorders three candidates' crossings, can repeat another's.
    Exactly coincident thresholds count into ``tie_count``, logged at DEBUG.
    """
    table = model.crossing_table
    # a zero prior crosses at +-inf
    finite = list(filter(math.isfinite, table.ravel().tolist()))
    boundaries = sorted(set(finite))
    tie_count = len(finite) - len(boundaries)
    if tie_count:
        _log.debug("%d coincident crossing threshold(s)", tie_count)

    edges = [-math.inf, *boundaries, math.inf]
    # each pair's wins as steps over the cells, so the scores take O(cells x
    # N) memory: a pair flips at the edge holding its crossing, where -inf
    # is the first edge and +inf the last; a NaN pair fails table == table
    a, b = np.nonzero(table == table)
    flip = np.searchsorted(edges, table[a, b])
    steps = np.zeros((len(edges), model.n_candidates))
    np.add.at(steps, (0, a), 1.0)
    np.add.at(steps, (flip, a), -1.0)
    np.add.at(steps, (flip, b), 1.0)
    score = steps.cumsum(axis=0)[:-1]
    rankings = np.argsort(-score, axis=-1, kind="stable").tolist()
    cells = tuple(map(PartitionCell, edges, edges[1:], map(tuple, rankings)))
    return OrderingPartition(boundaries=tuple(boundaries), cells=cells, tie_count=tie_count)


def interval_probability(model: ElectionModel, a: float, b: float) -> float:
    """P(a < Y_T < b) for the terminal accumulated signal Y_T.

    Under candidate j the terminal signal is Normal(x_j V, V), so

        P(a < Y_T < b) = sum_j p_j [Phi((b - x_j V)/sqrt(V)) - Phi((a - x_j V)/sqrt(V))].

    Endpoints may be infinite. Each term is formed from tail values
    (``normal_mass``), so a far-tail interval's probability is positive and
    monotone in the endpoints with no catastrophic cancellation.
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
        total += pj * normal_mass(lo, hi)
    return total


def ordering_probability(model: ElectionModel, permutation) -> float:
    """Probability that the election-day ranking (best first) equals
    ``permutation``. Zero for orderings realized on no cell."""
    n = model.n_candidates
    perm = tuple(permutation)
    if not all(_is_index(i, 0, n) for i in perm) or sorted(perm) != list(range(n)):
        raise InvalidPermutation(f"{permutation!r} is not a strict ordering of all {n} candidates")
    return _ordering_sums(model, ordering_partition(model)).get(tuple(map(int, perm)), 0.0)


def _ordering_sums(
    model: ElectionModel, partition: OrderingPartition
) -> dict[tuple[int, ...], float]:
    """Probability of each ranking realized on ``partition``: the
    ``interval_probability`` of its cells, summed in cell order (a cell a few
    ulps wide can repeat another's ranking)."""
    probs: dict[tuple[int, ...], float] = {}
    for cell in partition.cells:
        p = interval_probability(model, cell.lower, cell.upper)
        probs[cell.ordering] = probs.get(cell.ordering, 0.0) + p
    return probs


def win_probabilities(model: ElectionModel) -> OutcomeProbabilities:
    """Per-candidate probabilities of ranking first on election day
    (first-past-the-post), with all ordering probabilities on demand. Each
    is the ``interval_probability`` of the candidate's lead interval; a dead
    candidate's (0, 0) gives exactly 0."""
    lower, upper = model.lead_intervals
    win = [interval_probability(model, a, b) for a, b in zip(lower.tolist(), upper.tolist())]
    return OutcomeProbabilities(model=model, win_probs=win)


def _win_kernel(positions, priors, variance) -> np.ndarray:
    """Win probabilities of a batch of races: positions and priors [..., N]
    and terminal accumulated variances [...] broadcast to a result [..., N].

    Candidate k wins with the ``_lead_masses`` of its lead interval, whose
    live intervals tile the line, its laws summed in index order: bit for
    bit ``win_probabilities`` of each race, at any number of candidates."""
    x = np.asarray(positions, dtype=np.float64)
    p = np.asarray(priors, dtype=np.float64)
    v = np.asarray(variance, dtype=np.float64)
    return _lead_masses(_lead_intervals(_crossings(x, p, v[..., None]), p), x, p, v)


def _lead_masses(ends, x, p, v) -> np.ndarray:
    """sum_j p_j P(L_k < Y <= U_k | j), Y ~ Normal(x_j V, V), of interval ends
    [2, ..., N], positions x and weights p [..., N] and variances V [...], as
    [..., N]. Each interval is empty, with equal ends, or live, and the live
    ones must tile the line, as ``_lead_intervals`` makes them: each finite
    end is the upper end of one live interval and the lower end of the next.
    So each law with a positive weight finds its tail value once per finite
    end, m - 1 for m live intervals rather than 2 N, and ``normal_masses``
    of the standardised ends gives every mass as if each end had its own."""
    v = np.asarray(v)[..., None, None]
    # [2, ..., k, j]: k's interval ends standardised under candidate j's law
    z = (ends[..., :, None] - x[..., None, :] * v) / np.sqrt(v)
    live = ends[0] < ends[1]
    shared = (live & (ends[1] < np.inf))[..., :, None] & (p[..., None, :] > 0.0)
    t_upper = np.zeros(shared.shape)  # 0: the tail value of an infinite end
    t_upper[shared] = tail_values(z[1][shared])
    # a live k's lower end is, bit for bit, the upper end of the live one
    # before it; an empty interval's or a dead law's end adds 0
    before = (ends[0][..., :, None] == ends[1][..., None, :]) & live[..., :, None]
    t_lower = before @ t_upper
    # a running sum adds the laws in index order, as interval_probability does
    return np.cumsum(p[..., None, :] * normal_masses(z, (t_lower, t_upper)), axis=-1)[..., -1]


def two_candidate_win_probability(p: float, sigma: float, horizon: float) -> float:
    """Closed form for a two-candidate race with labels (0, 1).

    The candidate holding current support p wins with probability

        p N(d+) + (1 - p) N(d-),   d+- = [log(p/(1-p)) +- sigma^2 T / 2] / (sigma sqrt(T)).

    Agrees with ``win_probabilities`` on the equivalent two-candidate model.
    """
    if not (0.0 < p < 1.0):
        raise DegeneratePrior(f"need 0 < p < 1, got {p}")
    if not (0.0 < sigma < math.inf):
        raise NonPositiveRate(f"sigma must be finite and > 0, got {sigma}")
    if not (0.0 < horizon < math.inf):
        raise NonPositiveHorizon(f"horizon must be finite and > 0, got {horizon}")
    log_odds = math.log(p / (1.0 - p))
    scale = sigma * math.sqrt(horizon)
    half_var = 0.5 * sigma * sigma * horizon
    d_plus = (log_odds + half_var) / scale
    d_minus = (log_odds - half_var) / scale
    return p * normal_mass(-math.inf, d_plus) + (1.0 - p) * normal_mass(-math.inf, d_minus)
