"""Independent reference computations for checking voteflow's outputs.

Nothing here imports voteflow. Every quantity is derived from the model's
own structure: with log-weights a_j = log p_j - x_j^2 V / 2, candidate j
leads candidate k (x_j < x_k) exactly when the terminal accumulated signal
y is below w_jk = (a_j - a_k) / (x_k - x_j). So candidate k ranks first on
the single interval (max_{j<k} w_jk, min_{j>k} w_kj), and the mass of an
interval under the prior mixture of Normal(x_j V, V) laws is a sum of
Gaussian CDF differences, formed from right-tail complements when the
interval lies right of the mean.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr


def terminal_variance(breakpoints, rates, t0, t1) -> float:
    """Accumulated squared rate of a piecewise-constant schedule over [t0, t1]."""
    edges = [0.0, *breakpoints, math.inf]
    total = 0.0
    for rate, lo, hi in zip(rates, edges, edges[1:]):
        overlap = min(t1, hi) - max(t0, lo)
        if overlap > 0.0:
            total += rate * rate * overlap
    return total


def log_weights(positions, priors, v) -> np.ndarray:
    """a_j = log p_j - x_j^2 V / 2, with -inf for a zero prior (broadcasts)."""
    x = np.asarray(positions, dtype=np.float64)
    p = np.asarray(priors, dtype=np.float64)
    with np.errstate(divide="ignore"):
        return np.log(p) - 0.5 * x * x * np.asarray(v, dtype=np.float64)


def _mass(x, p, v, lo, hi) -> np.ndarray:
    """Rows of P(lo < Y_T < hi) under the prior mixture of Normal(x_j V, V)."""
    sd = np.sqrt(v)[:, None]
    mean = x[None, :] * v[:, None]
    z_lo = (lo[:, None] - mean) / sd
    z_hi = (hi[:, None] - mean) / sd
    per = np.where(z_lo >= 0.0, ndtr(-z_lo) - ndtr(-z_hi), ndtr(z_hi) - ndtr(z_lo))
    return np.where(lo < hi, np.sum(p * per, axis=1), 0.0)


def _lead_bounds(x, a, k):
    """Rows of (L_k, U_k) from log-weights ``a`` of shape (R, N)."""
    rows = a.shape[0]
    lo, hi = np.full(rows, -np.inf), np.full(rows, np.inf)
    with np.errstate(invalid="ignore"):
        for j in range(len(x)):
            if j < k:
                lo = np.fmax(lo, (a[:, j] - a[:, k]) / (x[k] - x[j]))
            elif j > k:
                hi = np.fmin(hi, (a[:, k] - a[:, j]) / (x[j] - x[k]))
    empty = a[:, k] == -np.inf
    return np.where(empty, np.inf, lo), np.where(empty, -np.inf, hi)


def win_rows(positions, priors, v) -> np.ndarray:
    """Per-candidate probability of ranking first, for rows of priors.

    ``priors`` has shape (R, N) and ``v`` one terminal variance per row;
    candidate k's probability is the mass of its lead interval.
    """
    x = np.asarray(positions, dtype=np.float64)
    p = np.atleast_2d(np.asarray(priors, dtype=np.float64))
    v = np.broadcast_to(np.asarray(v, dtype=np.float64), p.shape[:1])
    a = log_weights(x, p, v[:, None])
    out = np.empty_like(p)
    for k in range(len(x)):
        out[:, k] = _mass(x, p, v, *_lead_bounds(x, a, k))
    return out


def win_probabilities(positions, priors, v) -> np.ndarray:
    return win_rows(positions, priors, v)[0]


def locked_rows(positions, priors, v) -> np.ndarray:
    """Rows x candidates: True where the lead interval is empty."""
    x = np.asarray(positions, dtype=np.float64)
    p = np.atleast_2d(np.asarray(priors, dtype=np.float64))
    v = np.broadcast_to(np.asarray(v, dtype=np.float64), p.shape[:1])
    a = log_weights(x, p, v[:, None])
    out = np.empty(p.shape, dtype=bool)
    for k in range(len(x)):
        lo, hi = _lead_bounds(x, a, k)
        out[:, k] = ~(lo < hi)
    return out


def is_locked_out(positions, priors, v, k: int) -> bool:
    """Candidate k ranks first for no terminal signal (empty lead interval)."""
    return bool(locked_rows(positions, priors, v)[0, k])


def interval_mass(positions, priors, v, lo: float, hi: float) -> float:
    x = np.asarray(positions, dtype=np.float64)
    p = np.asarray(priors, dtype=np.float64)
    return float(_mass(x, p, np.array([v]), np.array([lo]), np.array([hi]))[0])


def ranking_distribution(positions, priors, v) -> dict[tuple[int, ...], float]:
    """Probability of every strict election-day ranking with positive mass.

    The signal line is cut at every pairwise crossing; on each gap the
    ranking is read off the log-weights a_j + x_j y at an interior point
    (zero priors last, ties to the lower index).
    """
    x = np.asarray(positions, dtype=np.float64)
    a = log_weights(positions, priors, v)
    live = [j for j in range(len(x)) if a[j] > -math.inf]
    cuts = sorted(
        {(a[j] - a[k]) / (x[k] - x[j]) for i, j in enumerate(live) for k in live[i + 1 :]}
    )
    edges = [-math.inf, *cuts, math.inf]
    out: dict[tuple[int, ...], float] = {}
    for lo, hi in zip(edges, edges[1:]):
        if math.isinf(lo) and math.isinf(hi):
            y = 0.0
        elif math.isinf(lo):
            y = hi - 1.0
        elif math.isinf(hi):
            y = lo + 1.0
        else:
            y = 0.5 * (lo + hi)
        score = np.where(a > -math.inf, a + x * y, -math.inf)
        ranking = tuple(int(i) for i in np.argsort(-score, kind="stable"))
        out[ranking] = out.get(ranking, 0.0) + interval_mass(positions, priors, v, lo, hi)
    return out


def two_candidate_win_probability(p: float, sigma: float, horizon: float) -> float:
    """The paper's two-candidate formula: p N(d+) + (1 - p) N(d-)."""
    log_odds = math.log(p / (1.0 - p))
    scale = sigma * math.sqrt(horizon)
    half = 0.5 * sigma * sigma * horizon
    return p * float(ndtr((log_odds + half) / scale)) + (1.0 - p) * float(
        ndtr((log_odds - half) / scale)
    )


def centre_dead(positions, priors, horizon, sigma) -> bool:
    """Threshold-order predicate: the centre of three has an empty lead interval."""
    return is_locked_out(positions, priors, sigma * sigma * horizon, 1)


def centre_bound(positions, priors, horizon):
    """Largest constant rate at which the centre of three is locked out.

    The centre's lead interval (w01, w12) is empty when
    sigma^2 <= 2 m / (T (x2 - x0)), m = log(p0/p1)/(x1-x0) - log(p1/p2)/(x2-x1);
    None when m <= 0 (no rate locks the centre out).
    """
    x0, x1, x2 = positions
    p0, p1, p2 = priors
    m = math.log(p0 / p1) / (x1 - x0) - math.log(p1 / p2) / (x2 - x1)
    if m <= 0.0:
        return None
    return math.sqrt(2.0 * m / (horizon * (x2 - x0)))


def log_support(positions, priors, v, y: float, k: int) -> float:
    """log pi_k(y), concave in y (a linear term minus a log-sum-exp)."""
    s = np.asarray(log_weights(positions, priors, v)) + np.asarray(positions) * y
    top = np.max(s)
    return float(s[k] - top - math.log(np.sum(np.exp(s - top))))


def peak_support(positions, priors, v, k: int, tol: float = 1e-10) -> float:
    """Golden-section maximum of candidate k's election-day support over y."""
    p_min = min(p for p in priors if p > 0.0)
    radius = 10.0 * (abs(math.log(p_min)) + max(x * x for x in positions) * v + 1.0)
    lo, hi = -radius, radius
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    fc, fd = log_support(positions, priors, v, c, k), log_support(positions, priors, v, d, k)
    while hi - lo > tol * max(1.0, abs(lo)):
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = log_support(positions, priors, v, c, k)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = log_support(positions, priors, v, d, k)
    return math.exp(max(fc, fd))


def qv_sigma(times, supports, positions) -> float:
    """Quadratic-variation rate estimate of a poll series.

    Under the filter, d pi_i = sigma pi_i (x_i - xbar) dW, so
    sigma^2 = sum (d pi)^2 / sum pi^2 (x - xbar)^2 dt over the steps.
    """
    t = np.asarray(times, dtype=np.float64)
    pi = np.asarray(supports, dtype=np.float64)
    x = np.asarray(positions, dtype=np.float64)
    left = pi[:-1]
    xbar = left @ x
    load = np.sum(left * left * (x[None, :] - xbar[:, None]) ** 2, axis=1)
    return math.sqrt(np.sum(np.diff(pi, axis=0) ** 2) / np.sum(load * np.diff(t)))


def effective_sigma(rates, correlation) -> float:
    """sqrt(r^T C^-1 r): the rate of the single equivalent source."""
    r = np.asarray(rates, dtype=np.float64)
    return math.sqrt(float(r @ np.linalg.solve(np.asarray(correlation, dtype=np.float64), r)))
