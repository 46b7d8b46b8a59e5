"""Election model, information schedule, and the posterior support filter.

The latent outcome is a random label X taking one value per candidate, with
the candidates' positions on the political spectrum as the values and the
current poll shares as the prior. Evidence reaches the electorate through a
signal-plus-noise information process; the sufficient statistic for the
posterior is the accumulated signal

    Y_t = integral of rate_s d(information process)_s,

which under candidate j is Gaussian with mean ``x_j * V(0, t)`` and variance
``V(0, t)``, where ``V(t0, t1)`` is the accumulated squared rate. For a
constant rate, Y_t is just rate * (information process value). All public
operations condition on Y rather than on the raw process so that constant
and time-dependent schedules share one code path.

Everything here is immutable and pure; instances are safe to share across
threads.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .errors import (
    NonIncreasingPositions,
    NonPositiveHorizon,
    NonPositiveRate,
    OutOfRangeInterval,
    OutOfRangeTime,
    PriorsNotNormalized,
    ValidationError,
)

__all__ = [
    "InfoSchedule",
    "ElectionModel",
    "effective_variance",
    "posterior_support",
    "condition_on_history",
]

#: Input priors may miss 1 by this much (poll data is rounded); they are
#: renormalized to machine precision internally.
PRIOR_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class InfoSchedule:
    """Piecewise-constant information flow rate on [0, infinity).

    ``breakpoints`` are the interior segment boundaries (strictly increasing,
    positive); ``rates`` has one entry per segment, so ``len(rates) ==
    len(breakpoints) + 1``. The final rate extends past the last breakpoint;
    the model's horizon bounds what is actually used. A constant schedule has
    no breakpoints.
    """

    breakpoints: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self):
        breaks = tuple(float(b) for b in self.breakpoints)
        rates = tuple(float(r) for r in self.rates)
        object.__setattr__(self, "breakpoints", breaks)
        object.__setattr__(self, "rates", rates)
        if len(rates) != len(breaks) + 1:
            raise ValidationError(
                f"need len(rates) == len(breakpoints) + 1, got {len(rates)} rates "
                f"for {len(breaks)} breakpoints"
            )
        for r in rates:
            if not (r > 0.0) or not math.isfinite(r):
                raise NonPositiveRate(f"rates must be finite and > 0, got {r}")
        for b in breaks:
            if not (b > 0.0) or not math.isfinite(b):
                raise OutOfRangeInterval(f"breakpoints must be finite and > 0, got {b}")
        if any(b1 >= b2 for b1, b2 in zip(breaks, breaks[1:])):
            raise OutOfRangeInterval(f"breakpoints must be strictly increasing: {breaks}")

    @classmethod
    def constant(cls, rate: float) -> "InfoSchedule":
        return cls((), (rate,))

    @classmethod
    def piecewise(cls, breakpoints: Sequence[float], rates: Sequence[float]) -> "InfoSchedule":
        return cls(tuple(breakpoints), tuple(rates))

    @property
    def is_constant(self) -> bool:
        return len(self.rates) == 1

    def variance(self, t0: float, t1: float) -> float:
        """Accumulated squared rate over [t0, t1]: sum of rate_i^2 * overlap."""
        edges = (0.0,) + self.breakpoints + (math.inf,)
        total = 0.0
        for rate, lo, hi in zip(self.rates, edges, edges[1:]):
            overlap = min(t1, hi) - max(t0, lo)
            if overlap > 0.0:
                total += rate * rate * overlap
        return total

    def restricted(self, t0: float) -> "InfoSchedule":
        """The schedule from t0 onward, re-based so t0 becomes time 0."""
        keep = [i for i, b in enumerate(self.breakpoints) if b > t0]
        if not keep:
            return InfoSchedule.constant(self.rates[-1])
        first = keep[0]
        return InfoSchedule(
            tuple(self.breakpoints[i] - t0 for i in keep),
            self.rates[first:],
        )


ScheduleLike = Union[InfoSchedule, float, int]


def _as_schedule(schedule: ScheduleLike) -> InfoSchedule:
    if isinstance(schedule, InfoSchedule):
        return schedule
    return InfoSchedule.constant(float(schedule))


def _is_index(k, lo: int, hi: int) -> bool:
    """Whether k is a candidate index in [lo, hi): an integer, numpy's
    included, but no float, not even 1.0, which numpy would not index by."""
    try:
        return lo <= operator.index(k) < hi
    except TypeError:
        return False


def _positions(values) -> tuple[float, ...]:
    """Candidate positions as floats: at least two, finite, strictly increasing."""
    positions = tuple(float(v) for v in values)
    if len(positions) < 2:
        raise NonIncreasingPositions("need at least two candidates")
    if any(not math.isfinite(v) for v in positions):
        raise NonIncreasingPositions(f"positions must be finite: {positions}")
    if any(a >= b for a, b in zip(positions, positions[1:])):
        raise NonIncreasingPositions(
            f"positions must be strictly increasing: {positions}"
        )
    return positions


def _priors(values, n: int) -> tuple[float, ...]:
    """Priors of n candidates, finite and >= 0, summing to 1 within
    PRIOR_SUM_TOLERANCE; returned divided by their ``math.fsum``."""
    raw_priors = tuple(float(v) for v in values)
    if len(raw_priors) != n:
        raise PriorsNotNormalized(f"{len(raw_priors)} priors for {n} positions")
    if any((v < 0.0) or not math.isfinite(v) for v in raw_priors):
        raise PriorsNotNormalized(f"priors must be finite and >= 0: {raw_priors}")
    try:
        total = math.fsum(raw_priors)
    except OverflowError:  # finite priors whose sum passes the float range
        total = math.inf
    if abs(total - 1.0) > PRIOR_SUM_TOLERANCE:
        raise PriorsNotNormalized(f"priors sum to {total!r}, not 1")
    return tuple(v / total for v in raw_priors)


def _terminal_variance(schedule: InfoSchedule, horizon: float) -> float:
    """V(0, horizon) of a schedule; where it underflows to 0 or overflows to
    inf, no crossing or interval mass is defined, so it is rejected."""
    v = schedule.variance(0.0, horizon)
    if not (0.0 < v < math.inf):
        raise NonPositiveRate(
            f"sigma rates {schedule.rates} over horizon_years {horizon!r} give terminal "
            f"variance {v!r}; it must be finite and > 0"
        )
    return v


def _rate_variances(rates, horizon: float) -> np.ndarray:
    """Terminal variances ``r * r * h`` of constant rates over a valid horizon h, bit for
    bit as ``InfoSchedule`` forms them; the first bad entry fails ``_terminal_variance``."""
    rates = np.asarray(rates, dtype=np.float64)
    with np.errstate(over="ignore"):
        variances = rates * rates * horizon
    ok = np.isfinite(rates) & (rates > 0.0) & np.isfinite(variances) & (variances > 0.0)
    if not ok.all():
        _terminal_variance(_as_schedule(rates[np.argmin(ok)]), horizon)
    return variances


def _schedule_variances(schedule: InfoSchedule, t0, t1) -> np.ndarray:
    """``schedule.variance`` over arrays of t0 and t1 broadcast together, bit
    for bit: the same segment terms, summed in the same order."""
    edges = (0.0,) + schedule.breakpoints + (math.inf,)
    total = np.zeros(np.broadcast(t0, t1).shape)
    for rate, lo, hi in zip(schedule.rates, edges, edges[1:]):
        overlap = np.minimum(t1, hi) - np.maximum(t0, lo)
        if np.any(overlap > 0.0):  # a segment none reaches may square to inf
            total += rate * rate * np.maximum(overlap, 0.0)
    return total


@dataclass(frozen=True)
class ElectionModel:
    """Validated parameterization of a race.

    positions: candidate labels on the political spectrum, strictly
        increasing (only the gaps matter for outcomes, not the absolute
        values).
    priors: current support rates; nonnegative, summing to 1 within 1e-9
        on input (renormalized exactly). A zero entry is allowed and means
        the candidate has negligible current support.
    horizon: time to the election in years, > 0.
    schedule: information flow rate process; a bare float means a constant
        rate. Its terminal variance V(0, horizon) must be finite and > 0.
    """

    positions: tuple[float, ...]
    priors: tuple[float, ...]
    horizon: float
    schedule: InfoSchedule

    def __post_init__(self):
        schedule = _as_schedule(self.schedule)
        object.__setattr__(self, "positions", _positions(self.positions))
        object.__setattr__(self, "priors", _priors(self.priors, len(self.positions)))
        horizon = float(self.horizon)
        if not (horizon > 0.0) or not math.isfinite(horizon):
            raise NonPositiveHorizon(f"horizon must be finite and > 0, got {horizon}")
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "schedule", schedule)
        object.__setattr__(self, "_variance", _terminal_variance(schedule, horizon))

    @property
    def n_candidates(self) -> int:
        return len(self.positions)

    @cached_property
    def positions_arr(self) -> np.ndarray:
        arr = np.asarray(self.positions, dtype=np.float64)
        arr.flags.writeable = False
        return arr

    @cached_property
    def priors_arr(self) -> np.ndarray:
        arr = np.asarray(self.priors, dtype=np.float64)
        arr.flags.writeable = False
        return arr

    @cached_property
    def log_priors_arr(self) -> np.ndarray:
        """log priors with zeros mapped to -inf (no runtime warnings)."""
        arr = np.array(
            [math.log(p) if p > 0.0 else -math.inf for p in self.priors],
            dtype=np.float64,
        )
        arr.flags.writeable = False
        return arr

    @property
    def terminal_variance(self) -> float:
        """V(0, horizon), the election-day accumulated squared rate; checked
        and computed once, at construction."""
        return self._variance

    @cached_property
    def crossing_table(self) -> np.ndarray:
        """The race's ``_crossings`` [N, N], built once, on first read."""
        table = _crossings(self.positions_arr, self.priors_arr, self._variance)
        table.flags.writeable = False
        return table

    @cached_property
    def lead_intervals(self) -> tuple[np.ndarray, np.ndarray]:
        """``_lead_intervals`` of the race: (0, 0) for a candidate who cannot win."""
        lower, upper = _lead_intervals(self.crossing_table, self.priors_arr)
        lower.flags.writeable = upper.flags.writeable = False
        return lower, upper

    def with_schedule(self, schedule: ScheduleLike) -> "ElectionModel":
        """The race under another schedule, with its priors bit for bit:
        their ``fsum`` is 1 only to rounding, so normalising them again could
        move them by an ulp, and at a dead-zone edge that decides who can win."""
        moved = ElectionModel(self.positions, self.priors, self.horizon, schedule)
        object.__setattr__(moved, "priors", self.priors)
        return moved


def effective_variance(schedule: ScheduleLike, t0: float, t1: float) -> float:
    """Accumulated squared information flow rate over [t0, t1].

    Exact for piecewise-constant schedules (sum of rate^2 times segment
    overlap). Additive over adjacent intervals and nonnegative.
    """
    if not (0.0 <= t0 <= t1) or not math.isfinite(t0) or not math.isfinite(t1):
        raise OutOfRangeInterval(f"need 0 <= t0 <= t1, got [{t0}, {t1}]")
    return _as_schedule(schedule).variance(t0, t1)


def posterior_support(model: ElectionModel, y, t: float) -> np.ndarray:
    """Support rates given accumulated signal(s) y at time t.

    Accepts a scalar y (returns shape (N,)) or an array of signals (returns
    shape y.shape + (N,)). Weights are formed in the log domain with a
    max-shift, so no overflow occurs even for |y| up to 1e6; candidates with
    a zero prior get exactly zero support.
    """
    if not (0.0 <= t <= model.horizon):
        raise OutOfRangeTime(f"t={t} outside [0, {model.horizon}]")
    return _softmax(_log_weight(model, y, model.schedule.variance(0.0, t)))


def _log_weight(model: ElectionModel, y, variance) -> np.ndarray:
    """Log posterior weights log p_j + y x_j - x_j^2 V / 2 (up to a common
    constant) of signals y[...] at accumulated variances V[...], broadcast
    together to [..., N]; a zero prior gives -inf. The model's schedule is
    not read. Every support, ranking and support peak comes from these."""
    x, log_p = model.positions_arr, model.log_priors_arr
    y = np.asarray(y, dtype=np.float64)[..., None]
    v = np.asarray(variance, dtype=np.float64)[..., None]
    return (log_p - 0.5 * x * x * v) + y * x


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _crossings(x: np.ndarray, p: np.ndarray, v) -> np.ndarray:
    """Crossing thresholds of a batch of races with float positions x and
    priors p [..., N] and terminal accumulated variances v [..., 1] (a float
    for one race), as a table [..., N, N]: entry [a, b] with a < b is

        (log p_b - log p_a) / (x_a - x_b) + (x_a / 2 + x_b / 2) V,

    +-inf where one of the pair's priors is zero or the exact crossing lies
    past the float maximum (a subnormal gap), NaN where both priors are zero,
    and NaN off the pairs a < b. Positions are halved before they are added,
    so the mean term stays finite. This is the only place a crossing is formed."""
    x_a, x_b = x[..., :, None], x[..., None, :]
    half_x = 0.5 * x
    mean_x = half_x[..., :, None] + half_x[..., None, :]
    log_p = np.log(p)
    v = np.asarray(v)[..., None]
    table = (log_p[..., None, :] - log_p[..., :, None]) / (x_a - x_b) + mean_x * v
    table *= _pair_mask(x.shape[-1])
    return table


@functools.lru_cache(maxsize=16)
def _pair_mask(n: int) -> np.ndarray:
    """[n, n] factors that keep the entries [a, b] with a < b exactly (1)
    and turn the rest to NaN."""
    mask = np.where(np.arange(n)[:, None] < np.arange(n), 1.0, np.nan)
    mask.flags.writeable = False
    return mask


def _lead_intervals(table: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Lead intervals (L_k, U_k) of races with crossing tables [..., N, N]
    (``_crossings``) and priors p [..., N], as ends [2, ..., N]. k can lead
    when its prior is positive and L_k, its largest crossing with a rival to
    its left (-inf if none), is below its smallest with one to its right
    (+inf if none); a pair of zero priors (NaN) never binds. The one home of
    the dead rule: a k that cannot lead never wins, and gets (0, 0). The
    live intervals tile the line: U_k is the L of the next live candidate
    (+inf if none), which equals k's smallest crossing wherever rounding
    does not split three crossings. k ranks first exactly on (L_k, U_k)."""
    lower = np.fmax.reduce(table, axis=-2, initial=-np.inf)  # column k: rivals left of k
    upper = np.fmin.reduce(table, axis=-1, initial=np.inf)  # row k: rivals right of k
    live = (p > 0.0) & (lower < upper)
    # live lower ends increase with k, so a running min from the right finds the next
    upper = np.full_like(lower, np.inf)
    np.minimum.accumulate(np.where(live, lower, np.inf)[..., :0:-1], axis=-1, out=upper[..., -2::-1])
    return np.where(live, (lower, upper), 0.0)


def _bisect_floats(lo: np.ndarray, hi: np.ndarray, moves_lo):
    """Halve the float intervals between int64 keys lo < hi until each pair
    of ends is two neighbouring floats, and return those ends as floats. A
    float's key is its bit pattern, negated for a negative float, so keys
    sort as their floats do and positive floats are their own keys; keys
    under 2^64 apart meet within 64 halvings, at any scale and with no
    tolerance. ``moves_lo(y)`` says where the float y at a midpoint replaces
    lo; elsewhere it replaces hi."""

    def float_of(key):
        return np.copysign(np.abs(key).view(np.float64), key)

    while np.any(lo + 1 < hi):  # not hi - lo > 1, which overflows for ends of opposite sign
        mid = (lo >> 1) + (hi >> 1) + (lo & hi & 1)  # floor of the mean, without overflow
        move = moves_lo(float_of(mid))
        lo, hi = np.where(move, mid, lo), np.where(move, hi, mid)
    return float_of(lo), float_of(hi)


def _softmax(log_weight: np.ndarray) -> np.ndarray:
    """Weights normalized along the last axis, max-shifted so none overflows."""
    w = np.exp(log_weight - np.max(log_weight, axis=-1, keepdims=True))
    w /= np.sum(w, axis=-1, keepdims=True)
    return w


def condition_on_history(model: ElectionModel, y: float, t: float) -> ElectionModel:
    """The model as seen from time t after observing accumulated signal y.

    Returns a new model whose priors are the time-t support rates, whose
    horizon is the remaining time, and whose schedule is the original one
    re-based at t. The information process is Markov, so every downstream
    probability from the new model is conditional on the history up to t.
    Conditioning only shifts the thresholds: the new crossing table is the
    model's minus y, since V(0, t) + V(t, T) = V, so the same candidates can win.
    """
    if not (0.0 <= t < model.horizon):
        raise OutOfRangeTime(f"t={t} outside [0, {model.horizon}) for conditioning")
    support = posterior_support(model, float(y), t)
    return ElectionModel(
        positions=model.positions,
        priors=tuple(support.tolist()),
        horizon=model.horizon - t,
        schedule=model.schedule.restricted(t),
    )
