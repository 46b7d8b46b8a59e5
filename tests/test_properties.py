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
from hypothesis import given, settings
from hypothesis import strategies as st

from voteflow import (
    ElectionModel,
    InfoSchedule,
    condition_on_history,
    interval_probability,
    is_dead_zone,
    ordering_partition,
    simulate_paths,
    win_probabilities,
    winprob_paths,
)

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
    schedule = InfoSchedule.piecewise(
        model.schedule.breakpoints, [r / scale for r in model.schedule.rates]
    )
    scaled = ElectionModel(
        tuple(x * scale for x in model.positions), model.priors, model.horizon, schedule
    )
    np.testing.assert_allclose(
        win_probabilities(scaled).win_probs, win_probabilities(model).win_probs, atol=1e-12
    )


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
    bundle = winprob_paths(ensemble, model)
    for i in range(n_paths):
        for m in range(n_steps):
            conditioned = condition_on_history(
                model, float(ensemble.signal_paths[i, m]), float(ensemble.times[m])
            )
            np.testing.assert_allclose(
                bundle.win_probs[i, m], win_probabilities(conditioned).win_probs, atol=1e-13
            )
