"""Estimating the information flow rate from data.

Historic route: along the filter dynamics each support rate moves as
d pi_i = sigma * pi_i * (x_i - xbar) dW with a single driving noise, so the
squared increments of an observed poll series, normalized by that loading,
recover sigma^2 as a quadratic-variation ratio:

    sigma_hat^2 = sum_steps sum_i (d pi_i)^2
                  / sum_steps sum_i pi_i^2 (x_i - xbar)^2 dt.

Implied route: invert the closed-form win probability for the rate that
reproduces a target probability. Win probabilities need not be monotone in
the rate when there are more than two candidates, so the inversion scans a
grid, bisects every bracket of the target together on the float line down
to two neighbouring floats, and returns all solutions (including the edges
of exact plateaus, e.g. the dead-zone boundary when the target is zero).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSeriesWarning,
    TooFewObservations,
    Unattainable,
    ValidationError,
)
from .model import ElectionModel, _bisect_floats, _is_index, _positions, _rate_variances
from .outcomes import _win_kernel

__all__ = [
    "PollSeries",
    "SigmaEstimate",
    "estimate_sigma_historic",
    "implied_sigma",
]

_ROW_SUM_TOL = 1e-6

#: ``implied_sigma``'s scan: SCAN_POINTS geometric rates over [SCAN_SIGMA_MIN,
#: SCAN_SIGMA_MAX], each bracket of the target bisected to two neighbouring floats.
SCAN_SIGMA_MIN = 1e-4
SCAN_SIGMA_MAX = 1e3
SCAN_POINTS = 200


@dataclass(frozen=True, eq=False)
class PollSeries:
    """Observed support-rate time series on a fixed candidate spectrum,
    whose positions are checked as a model's are."""

    times: np.ndarray
    supports: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        # copy, then freeze: callers keep ownership of what they passed in
        times = np.array(self.times, dtype=np.float64)
        supports = np.array(self.supports, dtype=np.float64)
        positions = np.array(_positions(self.positions))
        if times.ndim != 1 or len(times) < 3:
            raise TooFewObservations(f"need at least 3 observations, got {times.shape}")
        for name, arr in (("times", times), ("supports", supports)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} must be finite")
        if np.any(np.diff(times) <= 0.0):
            raise ValidationError("observation times must be strictly increasing")
        if supports.shape != (len(times), len(positions)):
            raise ValidationError(
                f"supports shape {supports.shape} does not match "
                f"{len(times)} times x {len(positions)} candidates"
            )
        if np.any(supports < 0.0) or np.any(supports > 1.0):
            raise ValidationError("support entries must lie in [0, 1]")
        row_sums = supports.sum(axis=1)
        worst = np.argmax(np.abs(row_sums - 1.0))
        if abs(row_sums[worst] - 1.0) > _ROW_SUM_TOL:
            raise ValidationError(
                f"support row at t={float(times[worst])!r} sums to {float(row_sums[worst])!r},"
                f" not 1 within {_ROW_SUM_TOL}"
            )
        for name, arr in (("times", times), ("supports", supports), ("positions", positions)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_observations(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class SigmaEstimate:
    """Point estimate of the information flow rate with its standard error.

    ``effective_increments`` is the effective number of independent squared
    increments behind the estimate (loadings vary along the series, so this
    is generally below the raw step count).
    """

    sigma: float
    standard_error: float
    effective_increments: float


def estimate_sigma_historic(series: PollSeries) -> SigmaEstimate:
    """Quadratic-variation estimate of the rate from a poll series.

    A constant series (or one stuck at a degenerate one-hot posterior, which
    carries no loading) yields sigma = 0 with a DegenerateSeriesWarning. The
    standard error comes from the chi-squared spread of squared Gaussian
    increments via the delta method: Var(sigma_hat^2) ~ 2 sigma^4 / M_eff.

    The estimate is scale-free: the positions are divided by 2^e, the power
    of two of the largest |position|, and the steps by 4^f, an even power of
    two near the largest step, before anything is squared, and sigma is
    multiplied back by 2^-(e + f). Powers of two scale exactly, so wherever
    the unscaled sums are finite and normal the result is the same bits.
    """
    pi = series.supports
    e = math.frexp(float(np.abs(series.positions).max()))[1]
    x = np.ldexp(series.positions, -e)
    dt = np.diff(series.times)
    f = math.frexp(float(dt.max()))[1] // 2
    dt = np.ldexp(dt, -2 * f)
    d_pi = np.diff(pi, axis=0)
    numerator = float(np.sum(d_pi * d_pi))

    left = pi[:-1]
    xbar = left @ x
    loading = np.sum(left * left * (x[None, :] - xbar[:, None]) ** 2, axis=1)
    weights = loading * dt
    denominator = float(np.sum(weights))

    if numerator == 0.0 or denominator == 0.0:
        reason = "constant supports" if numerator == 0.0 else "degenerate posterior loading"
        warnings.warn(
            f"poll series carries no usable movement ({reason}); estimate is 0",
            DegenerateSeriesWarning,
            stacklevel=2,
        )
        return SigmaEstimate(sigma=0.0, standard_error=0.0, effective_increments=0.0)

    sigma = math.ldexp(math.sqrt(numerator / denominator), -(e + f))
    m_eff = denominator**2 / float(np.sum(weights * weights))
    # Var(sigma^2) ~ 2 sigma^4 / m_eff; SE(sigma) = SE(sigma^2) / (2 sigma)
    standard_error = sigma * math.sqrt(0.5 / m_eff)
    return SigmaEstimate(sigma=sigma, standard_error=standard_error, effective_increments=m_eff)


def implied_sigma(model: ElectionModel, candidate: int, target: float) -> tuple[float, ...]:
    """All constant rates at which the candidate's win probability hits target.

    Reads the model's positions, priors and horizon; its schedule, the rate
    being solved for, is not read. Scans SCAN_POINTS geometric rates over
    [SCAN_SIGMA_MIN, SCAN_SIGMA_MAX]. Each pair of neighbouring scan points
    on different sides of the target (above, below, or exactly on it) is a
    bracket, and one bisection over the floats (``_bisect_floats``) refines
    every bracket together, one kernel call over every midpoint per halving,
    until its ends are two neighbouring floats. A midpoint replaces the left
    end where it lies on another side than the right end, and, where the
    left end hits the target exactly, only where the midpoint does too.
    Where one scan end hits the target exactly, the bracket returns its
    last exact hit: the interior edge of a run where the probability equals
    the target (for a zero target, the dead-zone rate bound). Otherwise it
    returns its left end, which hits the target or has a neighbouring float
    on the other side of it. Raises Unattainable when the scan never meets
    or crosses the target.
    """
    if not (0.0 <= target <= 1.0):
        raise ValidationError(f"target probability must lie in [0, 1], got {target}")
    n = model.n_candidates
    if not _is_index(candidate, 0, n):
        raise ValidationError(f"candidate index {candidate!r} is not an integer in [0, {n})")

    def win(sigmas) -> np.ndarray:
        variances = _rate_variances(sigmas, model.horizon)
        return _win_kernel(model.positions_arr, model.priors_arr, variances)[:, candidate]

    grid = np.geomspace(SCAN_SIGMA_MIN, SCAN_SIGMA_MAX, SCAN_POINTS)
    gap = win(grid) - target
    side = np.sign(gap)
    if not side.any():
        return (float(grid[0]), float(grid[-1]))  # target met everywhere
    k = np.flatnonzero(side[:-1] != side[1:])
    if not len(k):
        raise Unattainable(
            f"target {target} for candidate {candidate} not reached on "
            f"[{SCAN_SIGMA_MIN}, {SCAN_SIGMA_MAX}] (achieved range [{target + gap.min():.6g}, "
            f"{target + gap.max():.6g}])"
        )

    def moves_lo(mid):
        mid_side = np.sign(win(mid) - target)
        return (mid_side != side[k + 1]) & ((side[k] != 0) | (mid_side == 0))

    lo, hi = _bisect_floats(grid[k].view(np.int64), grid[k + 1].view(np.int64), moves_lo)
    return tuple(sorted(set(np.where(side[k + 1] == 0, hi, lo).tolist())))
