"""Model construction, schedules, the posterior filter, and conditioning."""

import math

import numpy as np
import pytest

from voteflow import (
    ElectionModel,
    InfoSchedule,
    condition_on_history,
    effective_variance,
    posterior_support,
    win_probabilities,
)
from voteflow.errors import (
    NonIncreasingPositions,
    NonPositiveHorizon,
    NonPositiveRate,
    OutOfRangeInterval,
    OutOfRangeTime,
    PriorsNotNormalized,
)

from voteflow.model import _rate_variances, _schedule_variances, _terminal_variance
from voteflow.strategy import default_sigma_grid

from conftest import POLARISED_P, POLARISED_X, random_model

# Direct scalar evaluation of the posterior weights p_i * exp(-x_i^2 / 2)
# for the polarised race at y=0, t=1, rate 1 (frozen oracle value).
ORACLE_POSTERIOR_Y0 = (
    0.8546864914338154,
    0.13048328095969733,
    0.014830227606487225,
)


class TestConstruction:
    def test_polarised_model_is_valid(self, polarised_model):
        assert polarised_model.n_candidates == 3
        assert math.isclose(sum(polarised_model.priors), 1.0, abs_tol=1e-15)

    def test_duplicate_positions_rejected(self):
        with pytest.raises(NonIncreasingPositions):
            ElectionModel((1.0, 1.0, 3.0), (0.4, 0.3, 0.3), 1.0, 1.0)

    def test_decreasing_positions_rejected(self):
        with pytest.raises(NonIncreasingPositions):
            ElectionModel((2.0, 1.0), (0.5, 0.5), 1.0, 1.0)

    def test_unnormalized_priors_rejected(self):
        with pytest.raises(PriorsNotNormalized, match="sum to 1.1,"):
            ElectionModel((0.0, 1.0), (0.5, 0.6), 1.0, 1.0)

    def test_negative_prior_rejected(self):
        with pytest.raises(PriorsNotNormalized):
            ElectionModel((0.0, 1.0), (-0.1, 1.1), 1.0, 1.0)

    def test_priors_within_tolerance_renormalized(self):
        m = ElectionModel((0.0, 1.0), (0.5 + 4e-10, 0.5), 1.0, 1.0)
        assert math.fsum(m.priors) == pytest.approx(1.0, abs=1e-15)

    def test_zero_prior_accepted(self):
        m = ElectionModel((0.0, 1.0, 2.0), (0.5, 0.5, 0.0), 1.0, 1.0)
        assert m.priors[2] == 0.0

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(NonPositiveHorizon):
            ElectionModel((0.0, 1.0), (0.5, 0.5), 0.0, 1.0)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(NonPositiveRate):
            ElectionModel((0.0, 1.0), (0.5, 0.5), 1.0, 0.0)
        with pytest.raises(NonPositiveRate):
            InfoSchedule.piecewise([0.5], [1.0, -2.0])

    def test_single_candidate_rejected(self):
        with pytest.raises(NonIncreasingPositions):
            ElectionModel((1.0,), (1.0,), 1.0, 1.0)

    def test_schedule_breakpoints_must_increase(self):
        with pytest.raises(OutOfRangeInterval):
            InfoSchedule.piecewise([0.5, 0.5], [1.0, 2.0, 3.0])


class TestEffectiveVariance:
    def test_constant_unit(self):
        assert effective_variance(InfoSchedule.constant(1.0), 0.0, 1.0) == 1.0

    def test_constant_quarter(self):
        assert effective_variance(InfoSchedule.constant(0.25), 0.0, 1.0) == pytest.approx(
            0.0625, abs=1e-16
        )

    def test_piecewise_segment_sum(self):
        sched = InfoSchedule.piecewise([0.5], [1.0, 2.0])
        assert effective_variance(sched, 0.0, 1.0) == pytest.approx(2.5, abs=1e-15)

    def test_reversed_interval_rejected(self):
        with pytest.raises(OutOfRangeInterval):
            effective_variance(InfoSchedule.constant(1.0), 0.5, 0.2)

    def test_negative_start_rejected(self):
        with pytest.raises(OutOfRangeInterval):
            effective_variance(InfoSchedule.constant(1.0), -0.1, 0.2)

    def test_additive_over_adjacent_intervals(self):
        rng = np.random.default_rng(5)
        sched = InfoSchedule.piecewise([0.3, 0.9], [0.5, 2.0, 1.2])
        for _ in range(50):
            t0, t1, t2 = np.sort(rng.uniform(0.0, 1.5, size=3))
            whole = effective_variance(sched, t0, t2)
            parts = effective_variance(sched, t0, t1) + effective_variance(sched, t1, t2)
            assert whole == pytest.approx(parts, rel=1e-12, abs=1e-15)
            assert whole >= 0.0


class TestRateVariances:
    """``_rate_variances`` forms a grid's terminal variances in one array
    operation; each must equal the constant schedule's, and a bad entry must
    be rejected as the schedule and the model reject it."""

    def test_equal_to_the_constant_schedule_bit_for_bit(self):
        rng = np.random.default_rng(17)
        grids = [
            (10.0 ** rng.uniform(-150.0, 150.0, 5_000), float(10.0 ** rng.uniform(-3.0, 3.0)))
            for _ in range(20)
        ]
        grids.append((np.geomspace(1e-4, 1e3, 200), 1.0 / 52.0))  # implied_sigma's scan
        grids.append((np.asarray(default_sigma_grid()), 0.75))
        for rates, horizon in grids:
            want = [InfoSchedule.constant(float(r)).variance(0.0, horizon) for r in rates]
            assert _rate_variances(rates, horizon).tolist() == want

    @pytest.mark.parametrize(
        "rates",
        [[1.0, -2.0, 0.0], [0.5, 0.0], [1.0, math.nan], [2.0, math.inf], [1.0, 1e200, -1.0],
         [1.0, 1e-200]],
        ids=["negative", "zero", "nan", "inf", "variance-inf", "variance-zero"],
    )
    def test_first_bad_entry_keeps_the_schedule_message(self, rates):
        with pytest.raises(NonPositiveRate) as want:
            for r in rates:
                _terminal_variance(InfoSchedule.constant(r), 1.0)
        with pytest.raises(NonPositiveRate) as got:
            _rate_variances(rates, 1.0)
        assert str(got.value) == str(want.value)


class TestScheduleVariances:
    def test_equal_to_the_schedule_bit_for_bit(self):
        # random piecewise schedules, times on and between their breakpoints;
        # the last schedule's squared final rate overflows, past every time
        rng = np.random.default_rng(23)
        schedules = []
        for _ in range(40):
            breaks = np.unique(rng.uniform(1e-3, 3.0, int(rng.integers(0, 5))))
            rates = 10.0 ** rng.uniform(-3.0, 3.0, len(breaks) + 1)
            schedules.append(InfoSchedule.piecewise(breaks, rates))
        schedules.append(InfoSchedule.piecewise([1.0, 4.0], [0.5, 2.0, 1e200]))
        for sched in schedules:
            ends = [*sched.breakpoints, 0.0, 4.0]
            times = np.sort(np.concatenate([rng.uniform(0.0, 4.0, 200), ends]))
            from_zero = [sched.variance(0.0, float(t)) for t in times]
            to_end = [sched.variance(float(t), 4.0) for t in times]
            assert _schedule_variances(sched, 0.0, times).tolist() == from_zero
            assert _schedule_variances(sched, times, 4.0).tolist() == to_end


class TestPosterior:
    def test_no_information_returns_priors(self, polarised_model):
        support = posterior_support(polarised_model, 0.0, 0.0)
        np.testing.assert_allclose(support, polarised_model.priors_arr, atol=1e-15)

    def test_polarised_value_at_unit_time(self, polarised_model):
        support = posterior_support(polarised_model, 0.0, 1.0)
        np.testing.assert_allclose(support, ORACLE_POSTERIOR_Y0, atol=1e-12)
        # loose display-rounded values
        np.testing.assert_allclose(support, (0.8548, 0.1305, 0.0148), atol=2e-4)

    def test_huge_signal_concentrates_on_rightmost(self, polarised_model):
        support = posterior_support(polarised_model, 1e6, 1.0)
        assert support[2] > 1.0 - 1e-12
        assert np.all(np.isfinite(support))

    def test_huge_negative_signal_concentrates_on_leftmost(self, polarised_model):
        support = posterior_support(polarised_model, -1e6, 1.0)
        assert support[0] > 1.0 - 1e-12

    def test_out_of_range_time(self, polarised_model):
        with pytest.raises(OutOfRangeTime):
            posterior_support(polarised_model, 0.0, 1.5)
        with pytest.raises(OutOfRangeTime):
            posterior_support(polarised_model, 0.0, -0.1)

    def test_normalization_over_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            model = random_model(rng, piecewise=bool(rng.integers(2)))
            y = float(rng.normal(scale=10.0 ** rng.integers(0, 6)))
            t = float(rng.uniform(0.0, model.horizon))
            support = posterior_support(model, y, t)
            assert abs(float(support.sum()) - 1.0) <= 1e-12
            assert np.all(support >= 0.0) and np.all(support <= 1.0)

    def test_shift_invariance_of_the_filter(self):
        # Adding a constant c to every position multiplies each posterior
        # weight by exp(c*y - (2*c*x_i + c^2) * V / 2); after re-centring the
        # exponent by that amount the normalized vectors must coincide.
        rng = np.random.default_rng(12)
        for _ in range(50):
            model = random_model(rng)
            c = float(rng.uniform(-5.0, 5.0))
            shifted = ElectionModel(
                tuple(x + c for x in model.positions),
                model.priors,
                model.horizon,
                model.schedule,
            )
            y = float(rng.normal(scale=3.0))
            t = float(rng.uniform(0.0, model.horizon))
            v = effective_variance(model.schedule, 0.0, t)
            x = model.positions_arr
            logw = np.log(model.priors_arr) + x * y - 0.5 * x * x * v
            logw += c * y - 0.5 * (2.0 * c * x + c * c) * v
            logw -= logw.max()
            recentred = np.exp(logw)
            recentred /= recentred.sum()
            np.testing.assert_allclose(
                posterior_support(shifted, y, t), recentred, atol=1e-13
            )

    def test_likelihood_ratio_strictly_increasing_in_signal(self, polarised_model):
        y_grid = np.linspace(-8.0, 8.0, 401)
        support = posterior_support(polarised_model, y_grid, 1.0)
        ratio = support[:, 2] / support[:, 0]
        assert np.all(np.diff(ratio) > 0.0)

    def test_zero_prior_stays_zero(self):
        model = ElectionModel((0.0, 1.0, 2.0), (0.6, 0.0, 0.4), 1.0, 1.0)
        for y in (-5.0, 0.0, 3.0, 1e5):
            support = posterior_support(model, y, 1.0)
            assert support[1] == 0.0

    def test_vectorized_matches_scalar(self, polarised_model):
        y = np.array([-2.0, 0.0, 1.5])
        batch = posterior_support(polarised_model, y, 0.7)
        for i, yi in enumerate(y):
            np.testing.assert_array_equal(
                batch[i], posterior_support(polarised_model, float(yi), 0.7)
            )


class TestConditionOnHistory:
    def test_conditioning_on_nothing_is_identity(self, polarised_model):
        cond = condition_on_history(polarised_model, 0.0, 0.0)
        assert cond.positions == polarised_model.positions
        assert cond.horizon == polarised_model.horizon
        np.testing.assert_allclose(cond.priors_arr, polarised_model.priors_arr, atol=1e-15)

    def test_time_at_or_past_horizon_rejected(self, polarised_model):
        with pytest.raises(OutOfRangeTime):
            condition_on_history(polarised_model, 0.0, 1.0)

    def test_schedule_rebased(self):
        sched = InfoSchedule.piecewise([0.25, 0.75], [1.0, 2.0, 0.5])
        model = ElectionModel(POLARISED_X, POLARISED_P, 1.0, sched)
        cond = condition_on_history(model, 0.3, 0.4)
        assert cond.horizon == pytest.approx(0.6)
        # remaining variance is preserved under re-basing
        assert cond.schedule.variance(0.0, 0.6) == pytest.approx(
            sched.variance(0.4, 1.0), rel=1e-14
        )
        assert cond.schedule.breakpoints == pytest.approx((0.35,))

    def test_terminal_posterior_consistency(self):
        # running the filter through the conditioned model from a fresh start
        # must land on the same terminal support as the original model
        rng = np.random.default_rng(21)
        for _ in range(25):
            model = random_model(rng, piecewise=bool(rng.integers(2)))
            t = float(rng.uniform(0.05, 0.9) * model.horizon)
            y_t = float(rng.normal(scale=2.0))
            y_T = y_t + float(rng.normal(scale=1.0))
            cond = condition_on_history(model, y_t, t)
            direct = posterior_support(model, y_T, model.horizon)
            via_cond = posterior_support(cond, y_T - y_t, cond.horizon)
            np.testing.assert_allclose(via_cond, direct, atol=1e-12)

    def test_overwhelming_leader_wins_almost_surely(self):
        # posterior mass (1-2e, e, e) with e = 1e-6 at mid-campaign
        eps = 1e-6
        model = ElectionModel(
            POLARISED_X, (1.0 - 2.0 * eps, eps, eps), 0.5, 1.0
        )
        probs = win_probabilities(model).win_probs
        assert probs[0] > 0.999

    def test_conditional_win_matches_continuation_monte_carlo(self, polarised_model):
        # continuation oracle built from first principles: draw the label
        # from the time-t posterior, draw the remaining signal from its
        # Gaussian law, rank the terminal posterior of the ORIGINAL model
        rng = np.random.default_rng(33)
        model = polarised_model
        n = 200_000
        for t, y_t in ((0.3, 0.7), (0.6, -0.4)):
            cond = condition_on_history(model, y_t, t)
            claimed = win_probabilities(cond).win_probs

            post_t = posterior_support(model, y_t, t)
            v_rem = effective_variance(model.schedule, t, model.horizon)
            labels = rng.choice(3, size=n, p=post_t)
            y_T = (
                y_t
                + model.positions_arr[labels] * v_rem
                + math.sqrt(v_rem) * rng.standard_normal(n)
            )
            support_T = posterior_support(model, y_T, model.horizon)
            winners = np.argmax(support_T, axis=1)
            freq = np.bincount(winners, minlength=3) / n
            for k in range(3):
                se = math.sqrt(max(claimed[k] * (1 - claimed[k]), 0.0) / n)
                assert abs(freq[k] - claimed[k]) <= 3.0 * se + 2.0 / n
