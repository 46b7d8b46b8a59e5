"""Property tests for win probabilities over generated races.

Races are kept where no lead interval's mass underflows: adjacent positions
at least 0.3 apart, nonzero priors within a factor of 10 of each other, and
at least 0.125 units of accumulated variance. There every candidate that can
lead has a win probability that is a positive double, so "exactly zero" and
"locked out" can be compared directly.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voteflow import (
    ElectionModel,
    InfoSchedule,
    condition_on_history,
    interval_probability,
    is_dead_zone,
    max_support_curve,
    max_support_point,
    ordering_partition,
    simulate_paths,
    win_probabilities,
    winprob_paths,
)
from voteflow.errors import NoBracket
from voteflow.outcomes import _win_kernel

from conftest import golden_section_max

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def races(draw):
    n = draw(st.integers(2, 6))
    start = draw(st.floats(-3.0, 3.0))
    gaps = draw(st.lists(st.floats(0.3, 1.5), min_size=n - 1, max_size=n - 1))
    positions = start + np.concatenate([[0.0], np.cumsum(gaps)])
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
    zeroed = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    if not zeroed.all():
        weights[zeroed] = 0.0
    horizon = draw(st.floats(0.5, 2.0))
    rates = draw(st.lists(st.floats(0.5, 2.0), min_size=1, max_size=3))
    fractions = sorted(draw(st.sets(st.floats(0.05, 0.95), min_size=len(rates) - 1,
                                    max_size=len(rates) - 1)))
    schedule = InfoSchedule.piecewise([f * horizon for f in fractions], rates)
    return ElectionModel(tuple(positions), tuple(weights / weights.sum()), horizon, schedule)


def partition_leader_sum(model):
    """Test-local win probabilities: every partition cell's mass, summed by
    the cell's leader."""
    win = np.zeros(model.n_candidates)
    for cell in ordering_partition(model).cells:
        win[cell.ordering[0]] += interval_probability(model, cell.lower, cell.upper)
    return win


@PROPERTY_SETTINGS
@given(races())
def test_win_probabilities_sum_to_one(model):
    assert math.fsum(win_probabilities(model).win_probs) == pytest.approx(1.0, abs=1e-13)


@PROPERTY_SETTINGS
@given(races())
def test_kernel_matches_partition_cells_by_leader(model):
    win = win_probabilities(model).win_probs
    reference = partition_leader_sum(model)
    np.testing.assert_allclose(win, reference, rtol=0.0, atol=1e-15)
    np.testing.assert_array_equal(win == 0.0, reference == 0.0)


@PROPERTY_SETTINGS
@given(races(), st.floats(-5.0, 5.0))
def test_common_position_shift_leaves_win_probabilities_unchanged(model, shift):
    shifted = ElectionModel(
        tuple(x + shift for x in model.positions), model.priors, model.horizon, model.schedule
    )
    np.testing.assert_allclose(
        win_probabilities(shifted).win_probs, win_probabilities(model).win_probs, atol=1e-12
    )


@PROPERTY_SETTINGS
@given(races(), st.floats(0.25, 4.0))
def test_joint_scale_of_positions_and_rates_leaves_win_probabilities_unchanged(model, scale):
    # thresholds scale by 1/scale in Y-space and every interval's standard
    # score is unchanged, piecewise schedules included
    np.testing.assert_allclose(
        win_probabilities(scaled_race(model, scale)).win_probs,
        win_probabilities(model).win_probs,
        atol=1e-12,
    )


def scaled_race(model, scale):
    """The race with every position times scale and every rate divided by it."""
    schedule = InfoSchedule.piecewise(
        model.schedule.breakpoints, [r / scale for r in model.schedule.rates]
    )
    return ElectionModel(
        tuple(x * scale for x in model.positions), model.priors, model.horizon, schedule
    )


def golden_peak(model, k, v):
    """Test-local peak of k's support at accumulated variance v as (signal,
    support): golden section on a bracket of +-50 around x_k v, where the
    posterior centres on x_k; these races put every peak well inside it."""
    def support(y):
        logs = [
            math.log(p) + y * x - 0.5 * x * x * v if p > 0.0 else -math.inf
            for x, p in zip(model.positions, model.priors)
        ]
        top = max(logs)
        return math.exp(logs[k] - top) / math.fsum(math.exp(w - top) for w in logs)

    centre = model.positions[k] * v
    y = golden_section_max(support, centre - 50.0, centre + 50.0)
    return y, support(y)


@PROPERTY_SETTINGS
@given(races(), st.integers(-150, 150))
def test_joint_scale_of_positions_and_rates_leaves_support_peaks_unchanged(model, power):
    # the signal scales by 1/scale and every posterior weight is unchanged,
    # so each interior peak's support is the same and its signal times the
    # scale is the unscaled one; a candidate with no supported rival on one
    # side has no peak at any scale
    scale = 10.0 ** power
    scaled = scaled_race(model, scale)
    grid = (0.5, 2.0)
    curve = max_support_curve(scaled, [sigma / scale for sigma in grid]).values
    for k in range(1, model.n_candidates - 1):
        if not (any(model.priors[:k]) and any(model.priors[k + 1:])):
            with pytest.raises(NoBracket):
                max_support_point(scaled, k)
            np.testing.assert_array_equal(curve[:, k], float(model.priors[k] > 0.0))
            continue
        report, reference = max_support_point(scaled, k), max_support_point(model, k)
        y_gold, pi_gold = golden_peak(model, k, model.terminal_variance)
        assert report.pi_max == pytest.approx(pi_gold, rel=0.0, abs=1e-14)
        assert report.pi_max == pytest.approx(reference.pi_max, rel=0.0, abs=1e-14)
        assert report.y_star * scale == pytest.approx(reference.y_star, rel=1e-12, abs=1e-12)
        if model.priors[k] > 0.0:  # a zero prior's support is flat at 0
            # golden section finds a flat maximum's signal only to about the
            # square root of the support's rounding error
            assert reference.y_star == pytest.approx(y_gold, rel=0.0, abs=1e-5)
        for sigma, peak in zip(grid, curve[:, k]):
            _, pi_gold = golden_peak(model, k, sigma * sigma * model.horizon)
            assert peak == pytest.approx(pi_gold, rel=0.0, abs=1e-14)


def crossing(model, a, b):
    """Test-local crossing of candidates a < b in the textbook form
    [log(p_b/p_a) + (x_a^2 - x_b^2) V / 2] / (x_a - x_b): +inf when only p_b
    is zero, -inf when only p_a is, NaN when both are."""
    xa, xb = model.positions[a], model.positions[b]
    pa, pb = model.priors[a], model.priors[b]
    if pb == 0.0:
        return math.nan if pa == 0.0 else math.inf
    if pa == 0.0:
        return -math.inf
    v = model.terminal_variance
    return (math.log(pb / pa) + 0.5 * (xa * xa - xb * xb) * v) / (xa - xb)


def locked_out(model, k):
    """k leads for no signal: its prior is zero, or its largest crossing with
    a rival on the left is not below its smallest with one on the right."""
    n = model.n_candidates
    lower = max((crossing(model, j, k) for j in range(k)), default=-math.inf)
    upper = min((crossing(model, k, j) for j in range(k + 1, n)), default=math.inf)
    return model.priors[k] == 0.0 or not (lower < upper)


@PROPERTY_SETTINGS
@given(races())
def test_zero_exactly_where_locked_out(model):
    # lockout rebuilt here from the test's own scalar crossings, independently
    # of the crossing table that the kernel, is_dead_zone and
    # crossing_threshold share
    locked = [locked_out(model, k) for k in range(model.n_candidates)]
    assert list(win_probabilities(model).win_probs == 0.0) == locked
    assert [is_dead_zone(model, k).is_dead for k in range(model.n_candidates)] == locked


@PROPERTY_SETTINGS
@given(races(), st.integers(1, 3), st.integers(1, 12), st.integers(0, 2**31 - 1))
def test_path_win_probabilities_match_direct_conditioning(model, n_paths, n_steps, seed):
    ensemble = simulate_paths(model, n_paths, n_steps, seed)
    bundle = winprob_paths(ensemble)
    for i in range(n_paths):
        for m in range(n_steps):
            conditioned = condition_on_history(
                model, float(ensemble.signal_paths[i, m]), float(ensemble.times[m])
            )
            np.testing.assert_allclose(
                bundle.win_probs[i, m], win_probabilities(conditioned).win_probs, atol=1e-13
            )


@PROPERTY_SETTINGS
@given(races(), st.floats(-5.0, 5.0), st.floats(0.0, 0.95))
def test_conditioning_only_shifts_the_thresholds(model, y, fraction):
    # the race seen from time t after signal y crosses at table[a, b] - y,
    # so who can win is the model's own dead set
    conditioned = condition_on_history(model, y, fraction * model.horizon)
    shifted = model.crossing_table - y
    finite = np.isfinite(shifted)
    np.testing.assert_array_equal(conditioned.crossing_table[~finite], shifted[~finite])
    gap = np.abs(conditioned.crossing_table[finite] - shifted[finite])
    assert np.all(gap <= 1e-12 * np.maximum(1.0, np.abs(shifted[finite])))
    dead = [not lo < hi for lo, hi in zip(*model.lead_intervals)]
    assert [not lo < hi for lo, hi in zip(*conditioned.lead_intervals)] == dead


@st.composite
def wide_races(draw):
    """Races beyond ``races``' no-underflow domain: gaps from 0.01 to 3,
    priors down to 1e-3 of each other, zero priors, and terminal variances
    from 1e-4 to 1e3, so standardised interval ends reach |z| of about 40."""
    n = draw(st.integers(2, 6))
    gaps = draw(st.lists(st.floats(0.01, 3.0), min_size=n - 1, max_size=n - 1))
    positions = draw(st.floats(-3.0, 3.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    weights = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    zeroed = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    if not zeroed.all():
        weights[zeroed] = 0.0
    rate = 10.0 ** (0.5 * draw(st.floats(-4.0, 3.0)))
    return ElectionModel(tuple(positions), tuple(weights / weights.sum()), 1.0, rate)


@PROPERTY_SETTINGS
@given(wide_races())
@example(ElectionModel((0.0, 2.5, 5.0), (0.3, 0.4, 0.3), 1.0, 1e3**0.5))  # ends at |z| = 39.5
def test_kernel_matches_scalar_interval_masses(model):
    # the batched tail-value kernel against the scalar interval probability
    # of each candidate's lead interval, and 0 where the interval is empty;
    # one race's win probabilities are those scalar masses, bit for bit
    lower, upper = model.lead_intervals
    want = [
        interval_probability(model, lo, hi) if p > 0.0 and lo < hi else 0.0
        for p, lo, hi in zip(model.priors, lower.tolist(), upper.tolist())
    ]
    got = _win_kernel(model.positions_arr, model.priors_arr, model.terminal_variance)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
    assert list(got == 0.0) == [w == 0.0 for w in want]
    np.testing.assert_array_equal(got, win_probabilities(model).win_probs)


@st.composite
def lattice_races(draw):
    """Races whose crossings are exact in any form: integer positions, equal
    nonzero priors (some zero) and a terminal variance that is a power of 4,
    so each crossing is (x_a + x_b) V / 2, and two pairs with one position
    sum cross at exactly one point."""
    n = draw(st.integers(2, 7))
    positions = sorted(draw(st.sets(st.integers(-6, 6), min_size=n, max_size=n)))
    zeroed = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if all(zeroed):
        zeroed = [False] * n
    live = n - sum(zeroed)
    priors = tuple(0.0 if z else 1.0 / live for z in zeroed)
    rate = 2.0 ** draw(st.integers(-2, 2))
    return ElectionModel(tuple(map(float, positions)), priors, 1.0, rate)


@PROPERTY_SETTINGS
@given(st.one_of(wide_races(), lattice_races()))
@example(ElectionModel((-3.0, -1.0, 1.0, 3.0), (0.25, 0.25, 0.25, 0.25), 1.0, 1.0))
def test_partition_cells_follow_the_crossings(model):
    # checked against the test's own scalar crossings, which may differ from
    # the table's in the last bits: a cell narrower than the tolerance around
    # a crossing is not asked which side of it lies. No three support lines
    # of these races pass within rounding of one point (their floats are
    # drawn at random, or their priors are equal and their lines tangents of
    # one parabola), so no cell has cycling pairs
    part = ordering_partition(model)
    n = model.n_candidates
    pairs = [(a, b, crossing(model, a, b)) for a in range(n) for b in range(a + 1, n)]
    finite = [c for _, _, c in pairs if math.isfinite(c)]

    def near(u, c):
        return abs(u - c) <= 1e-8 * (1.0 + abs(c))

    assert list(part.boundaries) == sorted(set(part.boundaries))
    assert all(any(near(b, c) for c in finite) for b in part.boundaries)
    assert all(any(near(b, c) for b in part.boundaries) for c in finite)
    assert part.tie_count == len(finite) - len(part.boundaries)
    orderings = [cell.ordering for cell in part.cells]
    assert len(set(orderings)) == len(orderings)

    dead = [k for k in range(n) if model.priors[k] == 0.0]
    for cell in part.cells:
        assert list(cell.ordering[n - len(dead):]) == dead
        rank = {k: i for i, k in enumerate(cell.ordering)}
        for a, b, c in pairs:
            if not math.isfinite(c):
                # one zero prior: the live one leads everywhere; two: index order
                assert (rank[a] < rank[b]) == (c == math.inf or math.isnan(c))
            elif not (near(cell.lower, c) and near(cell.upper, c)):
                left = cell.upper <= c or near(cell.upper, c)
                assert left or cell.lower >= c or near(cell.lower, c)
                assert (rank[a] < rank[b]) == left
