"""Strategy analytics: dead zones, attainable support, parameter sweeps.

A centre-ground candidate can be locked out entirely: when the crossing
thresholds order the wrong way, no value of the terminal signal ranks that
candidate first and their win probability is identically zero. For three
candidates the lockout condition is equivalent to an upper bound on the
information flow rate, so the rate at which the dead zone opens up can be
solved for. Interior candidates also face a hard ceiling on their
election-day support, the root of a one-dimensional first-order condition,
found for a whole rate grid by one batched bisection over the floats.

Sweeps evaluate win probabilities over grids of the rate, the current
support rates, and the spectrum positions. Each takes the caller's model,
reads the parts of the race it holds fixed from it, and checks each entry
of the axis it varies by the rule that model applies to it; then the whole
grid's lead-interval masses are evaluated in one batched closed-form call,
in deterministic grid order.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    NoBracket,
    NonIncreasingPositions,
    NotInteriorCandidate,
    NumericalError,
    RequiresThreeCandidates,
    ValidationError,
    ZeroPrior,
)
from .model import (
    ElectionModel, _bisect_floats, _is_index, _log_weight, _positions, _priors, _rate_variances,
    _softmax,
)
from .outcomes import _win_kernel

__all__ = [
    "DeadZoneReport",
    "MaxSupportReport",
    "SweepTable",
    "is_dead_zone",
    "dead_zone_sigma_bound",
    "max_support_point",
    "max_support_curve",
    "sweep_sigma",
    "sweep_positions",
    "sweep_priors",
    "default_sigma_grid",
]

@dataclass(frozen=True)
class DeadZoneReport:
    """Whether a candidate can rank first for any terminal signal value.

    ``sigma_bound`` is filled only for the centre candidate of a
    three-candidate race with all-positive priors and a constant rate: the
    largest rate below which that candidate's win probability is identically
    zero (None when no rate creates a dead zone, or when not applicable).
    """

    candidate: int
    is_dead: bool
    sigma_bound: Optional[float]


@dataclass(frozen=True)
class MaxSupportReport:
    """Peak election-day support attainable by an interior candidate.

    ``y_star`` is the accumulated-signal value at the peak (rate * raw
    process value for constant schedules); ``residual`` is the absolute
    value of the posterior-weighted first-order condition there. A
    zero-prior candidate has ``pi_max`` 0, with ``y_star`` and
    ``residual`` NaN only where its root lies beyond the float range.
    """

    candidate: int
    y_star: float
    pi_max: float
    residual: float


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Win probabilities (or probability differences) over a parameter grid.

    Rows follow ``axis_values`` in order; ``kind`` is "probability" for
    entries in [0, 1] or "difference" for entries in [-1, 1].
    """

    axis_name: str
    axis_values: tuple
    columns: tuple[str, ...]
    values: np.ndarray
    kind: str = "probability"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (len(self.axis_values), len(self.columns)):
            raise ValidationError(
                f"values shape {values.shape} does not match "
                f"{len(self.axis_values)} axis points x {len(self.columns)} columns"
            )
        lo = -1.0 if self.kind == "difference" else 0.0
        if values.size and (values.min() < lo - 1e-12 or values.max() > 1.0 + 1e-12):
            raise ValidationError(f"{self.kind} entries outside [{lo}, 1]")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def default_sigma_grid() -> tuple[float, ...]:
    """0.05, 0.10, ..., 3.00 (the resolution of the rate sweeps)."""
    return tuple(round(0.05 * i, 10) for i in range(1, 61))


def is_dead_zone(model: ElectionModel, k: int) -> DeadZoneReport:
    """Whether candidate k ranks first for no value of the terminal signal.

    Any two candidates' support rates cross exactly once, and above the
    crossing the candidate further right leads the pair. So k leads the
    whole field exactly on the open interval (L_k, U_k), where L_k is the
    largest crossing with a candidate to the left (-inf if none) and U_k the
    smallest crossing with a candidate to the right (+inf if none); a
    zero-prior rival crosses at -+inf and so never binds. k is dead when its
    own prior is zero or the interval is empty; the model's lead intervals
    are then (0, 0), whose mass, k's win probability, is exactly 0. Works
    for any number of candidates and any k. For the three-candidate centre
    seat (all priors positive, constant rate) the report also carries the
    rate bound below which the dead zone persists.
    """
    n = model.n_candidates
    if not _is_index(k, 0, n):
        raise ValidationError(f"candidate index {k!r} is not an integer in [0, {n})")
    lower, upper = model.lead_intervals
    dead = not lower[k] < upper[k]
    bound = None
    if (
        n == 3
        and k == 1
        and model.schedule.is_constant
        and all(p > 0.0 for p in model.priors)
    ):
        bound = dead_zone_sigma_bound(model)
    return DeadZoneReport(candidate=operator.index(k), is_dead=dead, sigma_bound=bound)


def dead_zone_sigma_bound(model: ElectionModel) -> Optional[float]:
    """Largest constant rate at which the centre candidate is locked out.

    The centre candidate of a three-candidate race has identically zero win
    probability exactly when its lead interval is empty: the (0, 1) crossing
    lies at or above the (1, 2) crossing. With gaps g01, g12, g02 between
    the positions and l_k = log p_k, the crossings are (l0 - l1)/g01 +
    (x0 + x1) V / 2 and (l1 - l2)/g12 + (x1 + x2) V / 2 with V = sigma^2 T,
    so the lockout condition is linear in sigma^2:

        sigma^2 <= 2 * (a01 - a12) / (g02 * T),
        a01 = (l0 - l1) / g01,  a12 = (l1 - l2) / g12.

    Returns sqrt(a01 - a12) * sqrt(2 / (g02 T)), which forms neither a
    product of gaps nor the bound's square, so it stays finite and nonzero
    with the positions scaled by anything from 1e-160 to 1e150; None when
    a01 <= a12 (no positive rate creates a dead zone). Reads the model's
    positions, priors and horizon; its schedule, the rate being solved for,
    is not read. All three priors must be positive.
    """
    if model.n_candidates != 3:
        raise RequiresThreeCandidates(
            f"bound is defined for 3 candidates, got {model.n_candidates}"
        )
    if any(p <= 0.0 for p in model.priors):
        raise ZeroPrior(f"all priors must be > 0, got {model.priors}")
    x0, x1, x2 = model.positions
    l0, l1, l2 = model.log_priors_arr.tolist()
    a01, a12 = (l0 - l1) / (x1 - x0), (l1 - l2) / (x2 - x1)
    if a01 <= a12:
        return None
    return math.sqrt(a01 - a12) * math.sqrt(2.0 / ((x2 - x0) * model.horizon))


def max_support_point(model: ElectionModel, k: int) -> MaxSupportReport:
    """Peak election-day support for interior candidate k.

    The support curve of an interior candidate is unimodal in the terminal
    signal; its maximum sits where the posterior mean of the positions
    equals x_k. That first-order condition

        g(y) = sum_j (x_j - x_k) * pi_j(y)  =  0

    is strictly increasing in y (g is the posterior mean minus x_k), so
    bisecting its sign change over every finite signal ends on two
    neighbouring floats, at any scale of the positions. Requires positive
    prior mass strictly on both sides of x_k; otherwise the support curve is
    monotone and has no interior peak (``NoBracket``). A peak whose signal
    lies beyond the float range raises ``NumericalError``, unless k's own
    prior is zero: its support is 0 at every signal, so ``pi_max`` is 0,
    and ``y_star`` and ``residual`` are NaN.
    """
    return _max_support_points(model, [k])[0]


def _max_support_points(model: ElectionModel, ks) -> list[MaxSupportReport]:
    """``max_support_point`` of each interior candidate in ks, from one
    batched search at the model's terminal variance."""
    n = model.n_candidates
    for k in ks:
        if not _is_index(k, 1, n - 1):
            raise NotInteriorCandidate(f"candidate {k!r} is not an interior index for N={n}")
    ks = [operator.index(k) for k in ks]
    peaks = _support_peaks(model, [model.terminal_variance], ks)
    y_star, pi_max, residual = (a[0].tolist() for a in peaks)
    for k, peak in zip(ks, pi_max):
        if math.isnan(peak):
            raise NoBracket(f"no supported candidate on one side of x_{k}={model.positions[k]}")
    return list(map(MaxSupportReport, ks, y_star, pi_max, residual))


def _support_peaks(model: ElectionModel, variances, ks):
    """``max_support_point``'s search for candidates ks[K] of the model's
    race at terminal variances V[R]: y_star, pi_max and residual [R, K].
    Every (rate, candidate) verdict is made here, once.

    g is bisected over the floats themselves (``_bisect_floats``), from
    -+reach = -+float max / max(1, 2 max|x|), where every y x_j is finite;
    y_star is the final end with the smaller |g|. Where g(-reach) < 0 <
    g(reach) fails, either no candidate on one side of x_k has a positive
    prior (all three NaN), or the root lies beyond -+reach, as it does for
    gaps near the smallest floats. There a zero-prior k gets pi_max 0, its
    support at every signal, with y_star and residual NaN, and a supported
    k raises NumericalError. A g that is not finite at either end (every
    log weight -inf: x_j^2 V / 2 overflows) raises NumericalError too. The
    first candidate in ks with an error raises it.
    """
    v = np.asarray(variances, dtype=np.float64)[:, None]
    x, priors = model.positions_arr, model.priors_arr
    ks = np.asarray(ks, dtype=np.intp)
    offsets = (x - x[ks, None])[..., None]  # [K, N, 1]: x_j - x_k
    supported = np.cumsum(priors > 0.0)  # supported candidates up to each index
    two_sided = (supported[ks - 1] > 0) & (supported[ks] < supported[-1])

    def g(y):
        support = _softmax(_log_weight(model, y, v))
        return np.matmul(support[..., None, :], offsets)[..., 0, 0]

    reach = np.finfo(np.float64).max / 2.0 / max(0.5, np.max(np.abs(x)))
    ends = np.array([-reach, reach])[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        g_ends = g(ends)  # [2, R, K]
        found = (g_ends[0] < 0.0) & (g_ends[1] > 0.0)
        broken = ~np.isfinite(g_ends)
        beyond = ~found & two_sided & (priors[ks] > 0.0)
        failed = np.flatnonzero(broken.any(axis=(0, 1)) | beyond.any(axis=0))
        if failed.size:
            i = failed[0]
            k = ks[i]
            if not broken[..., i].any():
                raise NumericalError(
                    f"peak support of candidate {k}: both sides of x_{k}={model.positions[k]} hold "
                    "supported candidates, but the peak's signal y* lies beyond the float range"
                )
            e, r = np.argwhere(broken[..., i])[0]
            y, var = ends.flat[e].item(), v[r, 0].item()
            log_weight = _log_weight(model, y, var)
            raise NumericalError(
                f"peak support of candidate {k}: posterior weights "
                f"{_softmax(log_weight).tolist()} at y={y!r}, V={var!r} are not finite "
                f"(log weights {log_weight.tolist()})"
            )
    lo = np.full(found.shape, -reach.view(np.int64))
    y_lo, y_hi = _bisect_floats(lo, -lo, lambda y: g(y) < 0.0)
    g_lo, g_hi = np.abs(g(y_lo)), np.abs(g(y_hi))
    y_star = np.where(found, np.where(g_hi < g_lo, y_hi, y_lo), np.nan)
    residual = np.where(found, np.minimum(g_lo, g_hi), np.nan)
    peak = _softmax(_log_weight(model, y_star, v))[:, np.arange(len(ks)), ks]
    pi_max = np.where(found, peak, np.where(two_sided, 0.0, np.nan))
    return y_star, pi_max, residual


def max_support_curve(
    model: ElectionModel, sigma_grid: Optional[Sequence[float]] = None
) -> SweepTable:
    """Peak attainable support per candidate over a grid of constant rates.

    Spectrum-end candidates have no interior peak: their support is monotone
    in the signal and approaches 1 (0 for a zero prior), reported as such;
    so is an interior candidate with no supported rival on one side. A
    zero-prior interior candidate reads 0, wherever its peak lies. The peak
    of a supported interior candidate whose signal lies beyond the float
    range at some rate raises ``NumericalError``, as in
    ``max_support_point``. The model's schedule, the axis varied here, is
    not read.
    """
    grid = tuple(sigma_grid) if sigma_grid is not None else default_sigma_grid()
    n = model.n_candidates
    _, peak, _ = _support_peaks(model, _rate_variances(grid, model.horizon), np.arange(1, n - 1))
    values = np.tile(model.priors_arr > 0.0, (len(grid), 1)).astype(np.float64)
    values[:, 1:-1] = np.where(np.isnan(peak), values[:, 1:-1], peak)
    return SweepTable(
        axis_name="sigma",
        axis_values=grid,
        columns=tuple(f"max_support_{k}" for k in range(n)),
        values=values,
    )


def sweep_sigma(
    model: ElectionModel, sigma_grid: Optional[Sequence[float]] = None
) -> SweepTable:
    """Win probabilities per candidate over a grid of constant rates."""
    grid = tuple(sigma_grid) if sigma_grid is not None else default_sigma_grid()
    n = model.n_candidates
    return SweepTable(
        axis_name="sigma",
        axis_values=grid,
        columns=tuple(f"p_win_{k}" for k in range(n)),
        values=_win_kernel(
            model.positions_arr, model.priors_arr, _rate_variances(grid, model.horizon)
        ),
    )


def sweep_positions(
    base_model: ElectionModel,
    variants: Sequence[Sequence[float]],
    sigma_grid: Optional[Sequence[float]] = None,
) -> SweepTable:
    """Win-probability gains of repositioned spectra over a rate grid.

    For each variant position vector (same length, checked as a model's
    positions) and each rate, the entry is win_prob(variant) -
    win_prob(base), candidate by candidate. Columns are grouped
    variant-major; with a single variant the labels are plain ``delta_<k>``.
    """
    grid = tuple(sigma_grid) if sigma_grid is not None else default_sigma_grid()
    n = base_model.n_candidates
    variants = [_positions(v) for v in variants]
    for v in variants:
        if len(v) != n:
            raise NonIncreasingPositions(f"variant {v} has {len(v)} positions, need {n}")
    variances = _rate_variances(grid, base_model.horizon)
    base = _win_kernel(base_model.positions_arr, base_model.priors_arr, variances)
    # [sigma, variant, k], so each sigma's variants sit side by side
    moved = _win_kernel(np.reshape(variants, (-1, n)), base_model.priors_arr, variances[:, None])
    values = (moved - base[:, None, :]).reshape(len(grid), len(variants) * n)
    if len(variants) == 1:
        columns = tuple(f"delta_{k}" for k in range(n))
    else:
        columns = tuple(
            f"delta_{k}_v{vi + 1}" for vi in range(len(variants)) for k in range(n)
        )
    return SweepTable(
        axis_name="sigma",
        axis_values=grid,
        columns=columns,
        values=values,
        kind="difference",
    )


def simplex_grid(
    n_candidates: int, step: Optional[float] = None
) -> tuple[tuple[float, ...], ...]:
    """Prior vectors on a regular simplex grid (exact corners included).

    Two candidates: p0 runs over {0, step, ..., 1}. Three candidates: all
    (p0, p1) with p0 + p1 <= 1 on the step lattice, p2 the remainder. The
    step defaults to 0.01.
    """
    cells = _simplex_cells(0.01 if step is None else step)
    if n_candidates == 2:
        return tuple((i / cells, (cells - i) / cells) for i in range(cells + 1))
    if n_candidates == 3:
        return tuple(
            (i / cells, j / cells, (cells - i - j) / cells)
            for i in range(cells + 1)
            for j in range(cells + 1 - i)
        )
    raise ValidationError(
        f"no default prior grid for {n_candidates} candidates; pass prior points explicitly"
    )


def _simplex_cells(step: float) -> int:
    """Lattice cells per unit of a simplex grid step, which must divide 1."""
    cells = 1.0 / step if step > 0.0 else math.nan  # NaN fails the check below
    if not (1.0 <= cells < math.inf) or abs(round(cells) * step - 1.0) > 1e-9:
        raise ValidationError(f"step {step} must divide 1")
    return round(cells)


def sweep_priors(
    model: ElectionModel,
    prior_points: Optional[Sequence[Sequence[float]]] = None,
    step: Optional[float] = None,
) -> SweepTable:
    """Win probabilities per candidate over a grid of current support rates.

    ``prior_points`` are full prior vectors, each checked as a model's
    priors; by default a regular simplex grid of the given step (two or
    three candidates; ``simplex_grid``'s default step when None). Passing
    both is rejected. Entries are exactly zero where the candidate is locked
    out. The model's priors, the axis varied here, are not read.
    """
    n = model.n_candidates
    if prior_points is not None and step is not None:
        raise ValidationError("pass prior points or a simplex step, not both")
    if prior_points is None:
        prior_points = simplex_grid(n, step)
    points = tuple(tuple(float(p) for p in pt) for pt in prior_points)
    priors = np.reshape([_priors(p, n) for p in points], (-1, n))
    return SweepTable(
        axis_name="priors",
        axis_values=points,
        columns=tuple(f"p_win_{k}" for k in range(n)),
        values=_win_kernel(model.positions_arr, priors, model.terminal_variance),
    )
