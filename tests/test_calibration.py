"""Historic rate estimation and implied-rate inversion."""

import math
import warnings

import numpy as np
import pytest

from voteflow import (
    ElectionModel,
    PollSeries,
    dead_zone_sigma_bound,
    estimate_sigma_historic,
    implied_sigma,
    posterior_paths,
    simulate_paths,
    two_candidate_win_probability,
    win_probabilities,
)
from voteflow.errors import (
    DegenerateSeriesWarning,
    NonIncreasingPositions,
    TooFewObservations,
    Unattainable,
    ValidationError,
)
from voteflow.outcomes import _win_kernel

from conftest import POLARISED_P, POLARISED_X

# the paper's two-candidate race a week out; the implied-rate scan does not
# read its rate
WEEK_OUT = ElectionModel((0.0, 1.0), (0.55, 0.45), 1.0 / 52.0, 1.0)


def simulated_series(sigma, seed, n_steps=10_000, horizon=1.0):
    """One poll trajectory generated at a known rate."""
    model = ElectionModel(POLARISED_X, POLARISED_P, horizon, sigma)
    ensemble = simulate_paths(model, 1, n_steps, seed=seed)
    bundle = posterior_paths(ensemble)
    return PollSeries(
        times=np.asarray(bundle.times),
        supports=bundle.support[0],
        positions=np.asarray(POLARISED_X),
    )


class TestPollSeries:
    def test_too_few_observations(self):
        with pytest.raises(TooFewObservations):
            PollSeries(
                times=np.array([0.0, 1.0]),
                supports=np.array([[0.5, 0.5], [0.4, 0.6]]),
                positions=np.array([0.0, 1.0]),
            )

    def test_non_increasing_times_rejected(self):
        with pytest.raises(ValidationError):
            PollSeries(
                times=np.array([0.0, 0.5, 0.5]),
                supports=np.full((3, 2), 0.5),
                positions=np.array([0.0, 1.0]),
            )

    def test_bad_row_sum_rejected(self):
        supports = np.array([[0.5, 0.5], [0.6, 0.6], [0.5, 0.5]])
        with pytest.raises(ValidationError):
            PollSeries(
                times=np.array([0.0, 0.5, 1.0]),
                supports=supports,
                positions=np.array([0.0, 1.0]),
            )

    @pytest.mark.parametrize("field", ["times", "supports"])
    def test_non_finite_entries_rejected(self, field):
        data = {
            "times": np.array([0.0, 0.5, 1.0]),
            "supports": np.full((3, 2), 0.5),
            "positions": np.array([0.0, 1.0]),
        }
        data[field][-1] = np.nan
        with pytest.raises(ValidationError):
            PollSeries(**data)

    @pytest.mark.parametrize("positions, message", [
        ((1.0, 3.0, 2.0), "positions must be strictly increasing: (1.0, 3.0, 2.0)"),
        ((1.0,), "need at least two candidates"),
    ], ids=["out-of-order", "one-candidate"])
    def test_positions_are_checked_by_the_models_rule(self, positions, message):
        n = len(positions)
        with pytest.raises(NonIncreasingPositions) as caught:
            PollSeries(times=np.array([0.0, 0.5, 1.0]), supports=np.full((3, n), 1.0 / n),
                       positions=np.array(positions))
        assert str(caught.value) == message

    def test_row_sum_tolerance_allows_rounded_polls(self):
        supports = np.array([[0.5, 0.4999996], [0.6, 0.4000004], [0.5, 0.5]])
        series = PollSeries(
            times=np.array([0.0, 0.5, 1.0]),
            supports=supports,
            positions=np.array([0.0, 1.0]),
        )
        assert series.n_observations == 3


class TestHistoricEstimate:
    def test_constant_series_estimates_zero_with_warning(self):
        series = PollSeries(
            times=np.linspace(0.0, 1.0, 11),
            supports=np.tile([0.4, 0.6], (11, 1)),
            positions=np.array([0.0, 1.0]),
        )
        with pytest.warns(DegenerateSeriesWarning):
            est = estimate_sigma_historic(series)
        assert est.sigma == 0.0

    @pytest.mark.parametrize(
        "scale", [1e-300, 1e-200, 1e-170, 1e-150, 1e-3, 3.7, 1e150, 1e160, 1e170, 1e200, 1e300]
    )
    @pytest.mark.parametrize("field", ["positions", "times"])
    def test_estimate_is_free_of_position_and_time_scale(self, field, scale):
        # sigma scales as 1 / (position scale) and 1 / sqrt(time scale), and
        # the count of increments not at all; no sum may under- or overflow
        series = simulated_series(0.5, seed=82, n_steps=200)
        base = estimate_sigma_historic(series)
        data = {"times": series.times, "supports": series.supports, "positions": series.positions}
        data[field] = data[field] * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_sigma_historic(PollSeries(**data))
        factor = scale if field == "positions" else math.sqrt(scale)
        assert est.sigma * factor == pytest.approx(base.sigma, rel=1e-12)
        assert est.standard_error * factor == pytest.approx(base.standard_error, rel=1e-12)
        assert est.effective_increments == pytest.approx(base.effective_increments, rel=1e-12)

    def test_recovers_unit_rate(self):
        est = estimate_sigma_historic(simulated_series(1.0, seed=80))
        assert 0.95 <= est.sigma <= 1.05
        assert est.standard_error > 0.0

    def test_recovers_quarter_rate(self):
        est = estimate_sigma_historic(simulated_series(0.25, seed=81))
        assert 0.2375 <= est.sigma <= 0.2625

    def test_estimator_never_negative(self):
        rng = np.random.default_rng(44)
        for seed in rng.integers(0, 1 << 30, size=5):
            for sigma in (0.25, 2.0):
                est = estimate_sigma_historic(
                    simulated_series(sigma, seed=int(seed), n_steps=500)
                )
                assert est.sigma >= 0.0

    def test_standard_error_brackets_truth_most_of_the_time(self):
        hits = 0
        for seed in range(20):
            est = estimate_sigma_historic(simulated_series(0.5, seed=900 + seed, n_steps=2000))
            if abs(est.sigma - 0.5) <= 3.0 * est.standard_error:
                hits += 1
        assert hits >= 18


class TestImpliedSigma:
    def test_inverts_the_two_candidate_paper_value(self):
        solutions = implied_sigma(WEEK_OUT, 0, 0.8868693070858683)
        assert len(solutions) == 1
        assert solutions[0] == pytest.approx(1.2, abs=1e-6)

    def test_round_trip_through_the_forward_map(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            sigma_true = float(rng.uniform(0.1, 2.5))
            p = float(rng.uniform(0.2, 0.8))
            horizon = float(rng.uniform(0.1, 1.5))
            target = two_candidate_win_probability(p, sigma_true, horizon)
            race = ElectionModel((0.0, 1.0), (p, 1.0 - p), horizon, 1.0)
            solutions = implied_sigma(race, 0, target)
            assert any(abs(s - sigma_true) < 1e-6 for s in solutions)

    def test_leader_floor_on_a_bounded_scan_is_unattainable(self, monkeypatch):
        # the leader's win probability decreases toward p as the rate grows
        # but stays strictly above it for every finite rate on this scan
        monkeypatch.setattr("voteflow.calibration.SCAN_SIGMA_MAX", 50.0)
        with pytest.raises(Unattainable, match=r"\[0.0001, 50.0\]"):
            implied_sigma(WEEK_OUT, 0, 0.55)

    def test_leader_floor_on_the_full_scan_finds_the_float_plateau(self):
        # past sigma ~ 600 the probability rounds to exactly p in floating
        # point; the scan then reports the plateau edge as a large solution
        solutions = implied_sigma(WEEK_OUT, 0, 0.55)
        assert all(s > 50.0 for s in solutions)
        for s in solutions:
            assert two_candidate_win_probability(0.55, s, 1.0 / 52.0) == 0.55

    def test_dead_zone_target_returns_the_bound_as_supremum(self, polarised_model):
        solutions = implied_sigma(polarised_model, 1, 0.0)
        bound = dead_zone_sigma_bound(polarised_model)
        assert any(abs(s - bound) < 1e-6 for s in solutions)

    def test_multiple_solutions_when_win_probability_is_humped(self, polarised_model):
        # the right candidate's win probability climbs from 0, peaks near
        # rate 0.5, then falls back toward its prior: interior targets
        # between the asymptote and the peak are hit at least twice
        target = 0.45
        solutions = implied_sigma(polarised_model, 2, target)
        assert len(solutions) >= 2
        for s in solutions:
            m = ElectionModel(POLARISED_X, POLARISED_P, 1.0, s)
            assert win_probabilities(m).win_probs[2] == pytest.approx(target, abs=1e-6)

    def test_target_met_on_the_whole_scan_returns_its_ends(self):
        # a lone candidate wins with probability 1 at every rate
        lone = ElectionModel((0.0, 1.0), (1.0, 0.0), 1.0, 1.0)
        assert implied_sigma(lone, 0, 1.0) == (1e-4, 1e3)

    def test_all_brackets_share_one_bisection(self, polarised_model, monkeypatch):
        # the humped target has two brackets; each halving evaluates both
        # midpoints in one kernel call, so the call count is one scan plus
        # at most 64 halvings to neighbouring floats, where bracket after
        # bracket would take at least 1 + 2 x 48
        calls = []

        def counted(*args):
            calls.append(1)
            return _win_kernel(*args)

        monkeypatch.setattr("voteflow.calibration._win_kernel", counted)
        assert len(implied_sigma(polarised_model, 2, 0.45)) == 2
        assert len(calls) <= 1 + 64

    def test_tiny_target_is_bracketed_by_the_sides_of_the_scan(self):
        # the trailing candidate's win probability climbs from 0 through
        # 1e-200; the product of two such gaps underflows to 0, so a bracket
        # must come from the sides of the gaps, not the sign of their product
        (sigma,) = implied_sigma(ElectionModel((0.0, 1.0), (0.55, 0.45), 1.0, 1.0), 1, 1e-200)
        model = ElectionModel((0.0, 1.0), (0.55, 0.45), 1.0, sigma)
        assert win_probabilities(model).win_probs[1] == pytest.approx(1e-200, rel=1e-3)

    def test_invalid_target_rejected(self, polarised_model):
        with pytest.raises(ValidationError):
            implied_sigma(polarised_model, 1, 1.5)
        with pytest.raises(ValidationError):
            implied_sigma(polarised_model, 5, 0.5)
