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
grid, refines every bracket of the target in one batched bisection, and
returns all solutions (including the edges of exact plateaus, e.g. the
dead-zone boundary when the target is zero).
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
from .model import ElectionModel, _rate_variances
from .outcomes import _win_kernel

__all__ = [
    "PollSeries",
    "SigmaEstimate",
    "estimate_sigma_historic",
    "implied_sigma",
]

_ROW_SUM_TOL = 1e-6

#: ``implied_sigma``'s scan: SCAN_POINTS geometric rates over [SCAN_SIGMA_MIN,
#: SCAN_SIGMA_MAX], each bracket of the target bisected to a width of SCAN_TOL.
SCAN_SIGMA_MIN = 1e-4
SCAN_SIGMA_MAX = 1e3
SCAN_POINTS = 200
SCAN_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class PollSeries:
    """Observed support-rate time series on a fixed candidate spectrum."""

    times: np.ndarray
    supports: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        # copy, then freeze: callers keep ownership of what they passed in
        times = np.array(self.times, dtype=np.float64)
        supports = np.array(self.supports, dtype=np.float64)
        positions = np.array(self.positions, dtype=np.float64)
        if times.ndim != 1 or len(times) < 3:
            raise TooFewObservations(f"need at least 3 observations, got {times.shape}")
        for name, arr in (("times", times), ("supports", supports), ("positions", positions)):
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
        if np.any(np.diff(positions) <= 0.0):
            raise ValidationError("positions must be strictly increasing")
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
    """
    pi = series.supports
    x = series.positions
    dt = np.diff(series.times)
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

    sigma_sq = numerator / denominator
    sigma = math.sqrt(sigma_sq)
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
    bracket: a plateau edge when one end hits the target exactly, else a
    sign change. One bisection refines all brackets together to SCAN_TOL,
    one kernel call over every midpoint per step. A plateau edge returns
    its last exact hit: the interior edge of a run where the probability
    equals the target (for a zero target inside a dead zone this is the
    supremum solution, the dead-zone rate bound). A sign change returns its
    final midpoint, or a midpoint that hits the target exactly. Raises
    Unattainable when the scan never meets or crosses the target.
    """
    if not (0.0 <= target <= 1.0):
        raise ValidationError(f"target probability must lie in [0, 1], got {target}")
    n = model.n_candidates
    if not (0 <= candidate < n):
        raise ValidationError(f"candidate index {candidate} outside [0, {n})")

    def win(sigmas) -> np.ndarray:
        variances = _rate_variances(sigmas, model.horizon)
        return _win_kernel(model.positions_arr, model.priors_arr, variances)[:, candidate]

    grid = np.geomspace(SCAN_SIGMA_MIN, SCAN_SIGMA_MAX, SCAN_POINTS)
    gap = win(grid) - target
    side = np.sign(gap)
    if not side.any():
        solutions = [float(grid[0]), float(grid[-1])]  # target met everywhere
    else:
        # a bracket holds its exact-hit end if it has one, else its left end
        k = np.flatnonzero(side[:-1] != side[1:])
        held_at = np.where(side[k + 1] == 0, k + 1, k)
        held, far, held_side = grid[held_at], grid[2 * k + 1 - held_at], side[held_at]
        for _ in range(200):
            live = np.abs(far - held) > SCAN_TOL
            if not live.any():
                break
            mid = 0.5 * (held[live] + far[live])
            mid_side = np.sign(win(mid) - target)
            on_held = mid_side == held_side[live]
            # an exact hit also collapses a sign-change bracket onto itself
            held[live] = np.where(on_held | (mid_side == 0), mid, held[live])
            far[live] = np.where(on_held, far[live], mid)
        solutions = np.where(held_side == 0, held, 0.5 * (held + far)).tolist()

    if not solutions:
        raise Unattainable(
            f"target {target} for candidate {candidate} not reached on "
            f"[{SCAN_SIGMA_MIN}, {SCAN_SIGMA_MAX}] (achieved range [{target + gap.min():.6g}, "
            f"{target + gap.max():.6g}])"
        )
    solutions.sort()
    deduped = [solutions[0]]
    for s in solutions[1:]:
        if s - deduped[-1] > 10.0 * SCAN_TOL:
            deduped.append(s)
    return tuple(deduped)
