"""Aggregation of correlated information sources into one effective channel.

Each source reveals the same latent candidate label at its own rate, with
its own Brownian noise; the noises may be correlated. For inference the
whole battery of sources is equivalent to a single process whose rate is
the square root of the precision-weighted quadratic form

    sigma_eff^2 = rates^T corr^{-1} rates,

with effective noise B = sum_i w_i B^i, w = corr^{-1} rates / sigma_eff.
The weights make the effective noise standard (w^T corr w = 1) and double
as the gradient of the effective rate in each source rate, which is what a
campaign needs to know to judge whether pushing one channel harder raises
the overall information flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite, PerfectCorrelation, ValidationError

__all__ = ["SourceSet", "EffectiveChannel", "aggregate_two", "aggregate_n"]

#: Smallest admissible eigenvalue of the correlation matrix; anything closer
#: to singular is rejected rather than regularized (the decomposition of the
#: noises is ill-posed at perfect correlation).
EIGENVALUE_FLOOR = 1e-10

_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SourceSet:
    """Per-source information flow rates plus the noise correlation matrix."""

    rates: np.ndarray
    correlation: np.ndarray

    def __post_init__(self):
        # copy, then freeze: callers keep ownership of what they passed in
        rates = np.atleast_1d(np.array(self.rates, dtype=np.float64))
        try:
            corr = np.array(self.correlation, dtype=np.float64)
        except ValueError as exc:  # ragged rows
            raise ValidationError(f"correlation must be a matrix of numbers: {exc}") from exc
        n = rates.shape[0]
        if rates.ndim != 1 or n < 1:
            raise ValidationError("rates must be a nonempty vector")
        if np.any(~np.isfinite(rates)) or np.any(rates < 0.0):
            raise ValidationError(f"rates must be finite and >= 0: {rates}")
        if corr.shape != (n, n):
            raise ValidationError(f"correlation must be {n}x{n}, got {corr.shape}")
        if np.any(~np.isfinite(corr)):
            raise ValidationError("correlation entries must be finite")
        if np.max(np.abs(corr - corr.T)) > _SYMMETRY_TOL:
            raise ValidationError("correlation matrix must be symmetric within 1e-12")
        if np.max(np.abs(np.diag(corr) - 1.0)) > _SYMMETRY_TOL:
            raise ValidationError("correlation matrix must have unit diagonal")
        off = corr - np.eye(n)
        if np.any(np.abs(off) >= 1.0):
            raise PerfectCorrelation("off-diagonal correlations must satisfy |rho| < 1")
        if n > 1 and np.linalg.eigvalsh(corr)[0] <= EIGENVALUE_FLOOR:
            raise NotPositiveDefinite(
                f"smallest eigenvalue {np.linalg.eigvalsh(corr)[0]:.3e} <= {EIGENVALUE_FLOOR}"
            )
        rates.flags.writeable = False
        corr = 0.5 * (corr + corr.T)
        corr.flags.writeable = False
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "correlation", corr)

    @property
    def n_sources(self) -> int:
        return self.rates.shape[0]


@dataclass(frozen=True, eq=False)
class EffectiveChannel:
    """Single-process equivalent of a source set.

    ``noise_weights`` w satisfy w^T corr w = 1 (the combined noise is a
    standard Brownian motion) and equal d sigma_eff / d rate_i, the
    sensitivity of the effective rate to each source. All weights are zero
    when every source rate is zero (no information flows at all).
    """

    sigma: float
    noise_weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.noise_weights, dtype=np.float64)
        w.flags.writeable = False
        object.__setattr__(self, "noise_weights", w)

    @property
    def rate_gradient(self) -> np.ndarray:
        return self.noise_weights


def aggregate_two(sigma1: float, sigma2: float, rho: float) -> EffectiveChannel:
    """Aggregate two sources with noise correlation rho.

    Eliminating the part of the second noise correlated with the first gives
    an orthogonal residual source of rate (sigma2 - rho sigma1)/sqrt(1-rho^2),
    whence

        sigma_eff^2 = (sigma1^2 + sigma2^2 - 2 rho sigma1 sigma2) / (1 - rho^2).

    The residual rate is zero when sigma2 = rho sigma1: the second source
    then adds nothing beyond the first.
    """
    if not (abs(rho) < 1.0):
        raise PerfectCorrelation(f"need |rho| < 1, got {rho}")
    if sigma1 < 0.0 or sigma2 < 0.0:
        raise ValidationError(f"rates must be >= 0: ({sigma1}, {sigma2})")
    one_minus = 1.0 - rho * rho
    sigma_sq = (sigma1 * sigma1 + sigma2 * sigma2 - 2.0 * rho * sigma1 * sigma2) / one_minus
    sigma = math.sqrt(max(sigma_sq, 0.0))
    if sigma == 0.0:
        return EffectiveChannel(sigma=0.0, noise_weights=np.zeros(2))
    w = np.array([sigma1 - rho * sigma2, sigma2 - rho * sigma1]) / (one_minus * sigma)
    return EffectiveChannel(sigma=sigma, noise_weights=w)


def aggregate_n(sources: SourceSet) -> EffectiveChannel:
    """Aggregate any number of correlated sources.

    sigma_eff = sqrt(rates^T corr^{-1} rates), weights = corr^{-1} rates /
    sigma_eff. Reduces exactly to ``aggregate_two`` for two sources and to
    addition in quadrature for uncorrelated ones.
    """
    rates = sources.rates
    corr = sources.correlation
    precision_rates = np.linalg.solve(corr, rates)
    with np.errstate(over="ignore"):  # an overflow reads inf, which the report gate names
        sigma_sq = float(rates @ precision_rates)
    sigma = math.sqrt(max(sigma_sq, 0.0))
    if sigma == 0.0:
        return EffectiveChannel(sigma=0.0, noise_weights=np.zeros(sources.n_sources))
    return EffectiveChannel(sigma=sigma, noise_weights=precision_rates / sigma)
