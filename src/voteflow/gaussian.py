"""Standard normal probabilities from tail values, stable in both tails.

Every interval mass is formed from tail values t(z) = P(Z > |z|) =
erfc(|z|/sqrt 2)/2, which the complementary error function gives to full
relative precision however small they are. The mass of (lo, hi] follows by
the sign of its ends:

    t(lo) - t(hi)          when lo >= 0 (right tail),
    t(hi) - t(lo)          when hi <= 0 (left tail),
    (1 - t(lo)) - t(hi)    when the interval straddles 0,

so no term subtracts two numbers each within rounding of 1, and a mass deep
in either tail stays positive and monotone in its ends.
"""

import math

import numpy as np

_SQRT2 = math.sqrt(2.0)


def normal_mass(lo: float, hi: float) -> float:
    """P(lo < Z <= hi) for lo <= hi, from tail values; ends may be infinite."""
    t_lo = 0.5 * math.erfc(abs(lo) / _SQRT2)
    t_hi = 0.5 * math.erfc(abs(hi) / _SQRT2)
    if hi <= 0.0:
        return t_hi - t_lo
    return (t_lo if lo >= 0.0 else 1.0 - t_lo) - t_hi


def tail_values(z: np.ndarray) -> np.ndarray:
    """The tail values t(z) of an array z, elementwise, as ``normal_mass``
    forms them."""
    # mapping the builtin over a list beats np.frompyfunc and its object array
    scaled = (np.abs(z) / _SQRT2).ravel().tolist()
    return 0.5 * np.fromiter(map(math.erfc, scaled), np.float64, len(scaled)).reshape(z.shape)


def normal_masses(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``normal_mass`` of stacked ends z [2, ...], lower ends z[0] and upper
    ends z[1], from their tail values t [2, ...], elementwise, with the same
    arithmetic. Intervals that share an end can share its tail value."""
    t_lo, t_hi = t
    return np.where(z[1] <= 0.0, t_hi - t_lo, np.where(z[0] >= 0.0, t_lo, 1.0 - t_lo) - t_hi)
