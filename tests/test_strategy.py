"""Dead zones, the rate bound, peak support, and parameter sweeps."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import voteflow.model
from voteflow import (
    ElectionModel,
    InfoSchedule,
    crossing_threshold,
    dead_zone_sigma_bound,
    implied_sigma,
    is_dead_zone,
    max_support_curve,
    max_support_point,
    ordering_partition,
    posterior_support,
    sweep_positions,
    sweep_priors,
    sweep_sigma,
    two_candidate_win_probability,
    win_probabilities,
)
from voteflow.errors import (
    NoBracket,
    NonIncreasingPositions,
    NonPositiveHorizon,
    NonPositiveRate,
    NotInteriorCandidate,
    NumericalError,
    PriorsNotNormalized,
    RequiresThreeCandidates,
    ValidationError,
    ZeroPrior,
)
from voteflow.cli import load_config
from voteflow.strategy import simplex_grid

from conftest import POLARISED_P, POLARISED_X, golden_section_max, random_model

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# frozen from direct evaluation of the sign-corrected closed form
ORACLE_BOUND_POLARISED = 0.8395903894992673


def centre_dead_by_thresholds(model):
    """Direct three-candidate check: the (0,1) crossing above the (2,0)
    crossing above the (1,2) crossing."""
    w01 = crossing_threshold(model, 0, 1)
    w20 = crossing_threshold(model, 2, 0)
    w12 = crossing_threshold(model, 1, 2)
    return w01 > w20 > w12


class TestDeadZone:
    def test_polarised_low_info_centre_is_dead(self, polarised_low_info):
        assert is_dead_zone(polarised_low_info, 1).is_dead

    def test_polarised_high_info_centre_is_alive(self, polarised_model):
        assert not is_dead_zone(polarised_model, 1).is_dead

    def test_rightmost_supported_candidate_never_dead(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            model = random_model(rng)
            n = model.n_candidates
            if model.priors[n - 1] == 0.0:
                continue
            assert not is_dead_zone(model, n - 1).is_dead

    def test_lead_intervals_carry_the_dead_rule(self):
        # the model's lead intervals are (0, 0) exactly at the candidates who
        # cannot win (the locked-out centre, a zero-prior end), the raw
        # fmax/fmin of the crossing table elsewhere, and is_dead_zone reads
        # its flag from them
        races = [
            (load_config(str(CONFIG_DIR / "polarised_low_info.json")).model, [1]),
            (ElectionModel(POLARISED_X, (0.55, 0.45, 0.0), 1.0, 1.0), [2]),
        ]
        for model, dead in races:
            raw_lower = np.fmax.reduce(model.crossing_table, axis=0, initial=-np.inf)
            raw_upper = np.fmin.reduce(model.crossing_table, axis=1, initial=np.inf)
            lower, upper = model.lead_intervals
            for k in range(3):
                if k in dead:
                    assert (lower[k], upper[k]) == (0.0, 0.0)
                else:
                    assert (lower[k], upper[k]) == (raw_lower[k], raw_upper[k])
                    assert (lower[k], upper[k]) != (0.0, 0.0)
                assert is_dead_zone(model, k).is_dead == (k in dead)

    def test_one_crossing_table_per_model(self, monkeypatch):
        # every candidate's dead-zone check, the win probabilities and the
        # partition of one model read one crossing table
        calls = []

        def counted(*args):
            calls.append(args)
            return crossings(*args)

        crossings = voteflow.model._crossings
        monkeypatch.setattr(voteflow.model, "_crossings", counted)
        model = ElectionModel((0.0, 0.7, 1.1, 2.0, 3.5), (0.3, 0.1, 0.2, 0.15, 0.25), 1.0, 0.6)
        reports = [is_dead_zone(model, k) for k in range(model.n_candidates)]
        assert len(calls) == 1
        win_probabilities(model)
        ordering_partition(model)
        assert len(calls) == 1
        assert [r.is_dead for r in reports] == list(win_probabilities(model).win_probs == 0.0)

    def test_lead_interval_matches_partition_leader_scan(self):
        # every candidate of random N = 2..6 races, some priors zeroed and
        # some schedules piecewise: dead exactly when no partition cell
        # ranks the candidate first
        rng = np.random.default_rng(11)
        dead_seen = alive_seen = 0
        for _ in range(400):
            base = random_model(
                rng, n=int(rng.integers(2, 7)), piecewise=bool(rng.random() < 0.5)
            )
            priors = np.array(base.priors)
            priors[rng.random(base.n_candidates) < 0.2] = 0.0
            if priors.sum() == 0.0:
                continue
            model = ElectionModel(
                base.positions, tuple(priors / priors.sum()), base.horizon, base.schedule
            )
            cells = ordering_partition(model).cells
            for k in range(model.n_candidates):
                expected = all(c.ordering[0] != k for c in cells)
                assert is_dead_zone(model, k).is_dead == expected, (model, k)
                dead_seen += expected
                alive_seen += not expected
        assert dead_seen > 100 and alive_seen > 100

    def test_partition_check_equals_direct_threshold_check(self):
        # 1,000 random three-candidate races: the constructive partition
        # answer and the closed threshold-ordering condition must agree
        rng = np.random.default_rng(8)
        dead_seen = alive_seen = 0
        for _ in range(1000):
            model = random_model(rng, n=3)
            if any(p == 0.0 for p in model.priors):
                continue
            by_partition = is_dead_zone(model, 1).is_dead
            by_thresholds = centre_dead_by_thresholds(model)
            assert by_partition == by_thresholds
            dead_seen += by_partition
            alive_seen += not by_partition
        assert dead_seen > 20 and alive_seen > 20


    def test_reports_hold_the_index_as_an_int(self, polarised_model):
        # a numpy index is stored as the int it stands for, so reports serialise
        for report in (is_dead_zone(polarised_model, np.int64(1)),
                       max_support_point(polarised_model, np.int64(1))):
            assert type(report.candidate) is int
            json.dumps(dataclasses.asdict(report))

    def test_centre_bound_is_read_from_the_callers_model(self, polarised_model, built_models):
        report = is_dead_zone(polarised_model, 1)
        assert report.sigma_bound == pytest.approx(ORACLE_BOUND_POLARISED, abs=1e-8)
        assert built_models == []


class TestDeadZoneSigmaBound:
    def test_polarised_bound_value(self):
        bound = dead_zone_sigma_bound(polarised())
        assert bound == pytest.approx(ORACLE_BOUND_POLARISED, abs=1e-8)
        assert bound > 0.25  # the locked-out reference rate sits below the bound

    def test_direct_condition_at_quarter_rate(self, polarised_low_info):
        assert centre_dead_by_thresholds(polarised_low_info)

    def test_bound_grows_as_centre_support_vanishes(self):
        wide = dead_zone_sigma_bound(ElectionModel(POLARISED_X, (0.495, 0.01, 0.495), 1.0, 1.0))
        narrow = dead_zone_sigma_bound(ElectionModel(POLARISED_X, (0.37, 0.26, 0.37), 1.0, 1.0))
        assert wide is not None and narrow is not None
        assert wide > narrow

    def test_dominant_centre_has_no_dead_zone(self):
        model = ElectionModel((1.0, 2.0, 3.0), (0.01, 0.98, 0.01), 1.0, 1.0)
        assert dead_zone_sigma_bound(model) is None

    def test_bound_brackets_the_flip(self):
        rng = np.random.default_rng(9)
        tested = 0
        while tested < 200:
            p2 = float(rng.uniform(0.02, 0.3))
            split = float(rng.uniform(0.35, 0.65))
            p1 = (1.0 - p2) * split
            p3 = 1.0 - p2 - p1
            if p2 >= min(p1, p3):
                continue
            gaps = rng.uniform(0.3, 2.0, size=2)
            x = (0.0, float(gaps[0]), float(gaps[0] + gaps[1]))
            horizon = float(rng.uniform(0.3, 2.0))
            race = ElectionModel(x, (p1, p2, p3), horizon, 1.0)
            bound = dead_zone_sigma_bound(race)
            if bound is None:
                continue
            below = race.with_schedule(0.99 * bound)
            above = race.with_schedule(1.01 * bound)
            assert is_dead_zone(below, 1).is_dead
            assert not is_dead_zone(above, 1).is_dead
            tested += 1

    def test_bound_scales_inversely_with_the_positions(self, polarised_low_info):
        # the bound of s * x is the bound of x over s, with no intermediate
        # over- or underflow from s = 1e-160 to 1e150 (the product of the
        # three gaps leaves the float range beyond about 1e+-103)
        reference = dead_zone_sigma_bound(polarised_low_info)
        for exponent in range(-160, 151, 5):
            scale = 10.0**exponent
            race = ElectionModel(tuple(scale * x for x in POLARISED_X), POLARISED_P, 1.0, 0.25)
            assert dead_zone_sigma_bound(race) * scale == pytest.approx(reference, rel=1e-12)

    def test_requires_three_candidates(self):
        with pytest.raises(RequiresThreeCandidates):
            dead_zone_sigma_bound(ElectionModel((0.0, 1.0), (0.5, 0.5), 1.0, 1.0))

    def test_zero_prior_rejected(self):
        with pytest.raises(ZeroPrior):
            dead_zone_sigma_bound(ElectionModel((0.0, 1.0, 2.0), (0.5, 0.0, 0.5), 1.0, 1.0))

    @pytest.mark.parametrize(
        "positions, priors, horizon, error",
        [
            ((0.0, 2.0, 1.0), (0.4, 0.2, 0.4), 1.0, NonIncreasingPositions),
            ((0.0, 1.0, 2.0), (0.5, 0.3, 0.3), 1.0, PriorsNotNormalized),
            ((0.0, 1.0, 2.0), (0.4, 0.2, 0.4), 0.0, NonPositiveHorizon),
        ],
    )
    def test_invalid_inputs_rejected(self, positions, priors, horizon, error):
        # a bad race is rejected where it is built, before the bound reads it
        with pytest.raises(error):
            dead_zone_sigma_bound(ElectionModel(positions, priors, horizon, 1.0))

    def test_report_carries_the_bound(self, polarised_low_info):
        report = is_dead_zone(polarised_low_info, 1)
        assert report.sigma_bound == pytest.approx(ORACLE_BOUND_POLARISED, abs=1e-8)


class TestMaxSupport:
    def test_symmetric_race_peaks_at_zero_signal(self):
        for q in (0.2, 0.35, 0.45):
            model = ElectionModel((-1.0, 0.0, 1.0), (q, 1.0 - 2.0 * q, q), 1.0, 1.0)
            report = max_support_point(model, 1)
            assert report.y_star == pytest.approx(0.0, abs=1e-9)
            assert report.residual < 1e-10

    def test_polarised_centre_peak(self, polarised_model):
        report = max_support_point(polarised_model, 1)
        assert report.residual < 1e-10
        assert POLARISED_P[1] < report.pi_max < 1.0
        # golden-section maximization of the support curve as the oracle
        y_gold = golden_section_max(
            lambda y: float(posterior_support(polarised_model, y, 1.0)[1]),
            report.y_star - 5.0,
            report.y_star + 5.0,
        )
        pi_gold = float(posterior_support(polarised_model, y_gold, 1.0)[1])
        assert report.pi_max == pytest.approx(pi_gold, abs=1e-8)

    def test_local_maximality(self, polarised_model):
        report = max_support_point(polarised_model, 1)
        for delta in (-1e-4, 1e-4):
            nearby = float(posterior_support(polarised_model, report.y_star + delta, 1.0)[1])
            assert nearby <= report.pi_max

    def test_sign_change_across_the_root(self, polarised_model):
        report = max_support_point(polarised_model, 1)
        x = polarised_model.positions_arr

        def g(y):
            return float((x - x[1]) @ posterior_support(polarised_model, y, 1.0))

        assert g(report.y_star - 1e-6) < 0.0 < g(report.y_star + 1e-6)

    def test_extreme_candidates_rejected(self, polarised_model):
        with pytest.raises(NotInteriorCandidate):
            max_support_point(polarised_model, 0)
        with pytest.raises(NotInteriorCandidate):
            max_support_point(polarised_model, 2)

    def test_one_sided_mass_has_no_bracket(self):
        model = ElectionModel((0.0, 1.0, 2.0), (0.6, 0.4, 0.0), 1.0, 1.0)
        with pytest.raises(NoBracket):
            max_support_point(model, 1)

    def test_curve_peak_past_the_float_range_raises(self):
        # the centre's y* grows as 1 / scale and passes the float maximum
        # between positions x 1e-308 and x 1e-310, with both rivals
        # supported; past it the curve must raise as the point search does,
        # not read 1.0, a support the centre never reaches
        grid = (0.5, 1.0, 2.0)
        near, far = (
            ElectionModel(tuple(scale * x for x in (1.0, 2.0, 3.0)), (0.38, 0.26, 0.36), 1.0, 1.0)
            for scale in (1e-308, 1e-310)
        )
        curve = max_support_curve(near, grid).values[:, 1]
        assert curve == pytest.approx([0.2600703] * 3, abs=1e-7)
        points = [max_support_point(near.with_schedule(s), 1).pi_max for s in grid]
        np.testing.assert_array_equal(curve, points)
        with pytest.raises(NumericalError) as point:
            max_support_point(far, 1)
        with pytest.raises(NumericalError, match=re.escape(str(point.value))):
            max_support_curve(far, grid)
        # a zero-prior centre's support is 0 wherever its peak would lie
        dead = ElectionModel(far.positions, (0.6, 0.0, 0.4), 1.0, 1.0)
        np.testing.assert_array_equal(max_support_curve(dead, grid).values[:, 1], 0.0)

    @pytest.mark.parametrize("priors", [(0.38, 0.26, 0.36), (0.6, 0.0, 0.4)],
                             ids=["supported", "zero-prior"])
    @pytest.mark.parametrize("scale", [1.0, 1e-308, 1e-310])
    def test_point_and_curve_give_one_verdict(self, priors, scale):
        # the same peak, or the same error, from the point and the curve;
        # a zero-prior centre peaks at 0 wherever its root lies
        model = ElectionModel(tuple(scale * x for x in (1.0, 2.0, 3.0)), priors, 1.0, 1.0)
        try:
            point = max_support_point(model, 1).pi_max
        except NumericalError as error:
            with pytest.raises(NumericalError, match=re.escape(str(error))):
                max_support_curve(model, [1.0])
            assert priors[1] > 0.0
        else:
            assert point == max_support_curve(model, [1.0]).values[0, 1]
            assert point > 0.0 or priors[1] == 0.0

    def test_zero_prior_root_past_the_float_range(self):
        model = ElectionModel((1e-310, 2e-310, 3e-310), (0.6, 0.0, 0.4), 1.0, 1.0)
        report = max_support_point(model, 1)
        assert report.pi_max == 0.0
        assert math.isnan(report.y_star) and math.isnan(report.residual)

    def test_five_candidate_equal_prior_curve(self):
        # interior peaks below 1, rising with the information rate
        grid = tuple(0.2 * i for i in range(1, 11))
        table = max_support_curve(
            ElectionModel((1.0, 2.0, 3.0, 4.0, 5.0), (0.2, 0.2, 0.2, 0.2, 0.2), 1.0, 1.0), grid
        )
        for k in (1, 2, 3):
            column = table.values[:, k]
            assert np.all(column < 1.0)
            assert np.all(np.diff(column) > 0.0)
        np.testing.assert_array_equal(table.values[:, 0], 1.0)
        np.testing.assert_array_equal(table.values[:, 4], 1.0)

    def test_curve_matches_golden_section_at_every_rate(self):
        # one batched search over rates and interior candidates, against a
        # golden-section maximization of each support curve; the zero-prior
        # candidate 3 peaks at exactly 0, candidate 1 has no supported rival
        # on its left at any rate and so reads 1
        positions, priors, horizon = (0.0, 0.7, 1.5, 2.6, 3.1), (0.0, 0.3, 0.35, 0.0, 0.35), 0.8
        grid = (0.1, 0.4, 1.0, 2.0, 3.0)
        table = max_support_curve(ElectionModel(positions, priors, horizon, 1.0), grid)
        np.testing.assert_array_equal(table.values[:, [0, 1, 3, 4]], [[0.0, 1.0, 0.0, 1.0]] * 5)
        for sigma, peak in zip(grid, table.values[:, 2]):
            model = ElectionModel(positions, priors, horizon, sigma)

            def support(y, model=model):
                return float(posterior_support(model, y, horizon)[2])

            y_gold = golden_section_max(support, -50.0, 50.0)
            assert peak == pytest.approx(support(y_gold), abs=1e-9)
            assert peak == max_support_point(model, 2).pi_max

    def test_extremal_support_approaches_one(self):
        # the spectrum-end candidates' support is monotone with supremum 1;
        # at y = -+(10 sqrt(V) + max|x| V) the residual mass of the adjacent
        # candidate is ~ exp(-10 g sqrt(V) - g^2 V / 2), so unit-order gaps
        # and V >= 3 put it firmly below 1e-6 for priors above 0.05
        rng = np.random.default_rng(10)
        for _ in range(20):
            model = random_model(rng, min_gap=1.0)
            if min(model.priors) < 0.05:
                continue
            model = model.with_schedule(math.sqrt(3.0 / model.horizon))
            v = model.terminal_variance
            reach = 10.0 * math.sqrt(v) + max(abs(x) for x in model.positions) * v
            left = posterior_support(model, -reach, model.horizon)
            right = posterior_support(model, reach, model.horizon)
            assert left[0] > 1.0 - 1e-6
            assert right[-1] > 1.0 - 1e-6


class TestSweepSigma:
    def test_rows_sum_to_one(self, polarised_model):
        table = sweep_sigma(polarised_model, [0.1, 0.5, 1.0, 2.0])
        np.testing.assert_allclose(table.values.sum(axis=1), 1.0, atol=1e-10)

    def test_centre_column_zero_below_bound_positive_above(self, polarised_model):
        bound = ORACLE_BOUND_POLARISED
        grid = [0.1, 0.25, 0.5, 0.8, 0.9, 1.0, 2.0, 3.0]
        table = sweep_sigma(polarised_model, grid)
        centre = table.values[:, 1]
        for sigma, value in zip(grid, centre):
            if sigma < bound:
                assert value == 0.0
            else:
                assert value > 0.0

    def test_two_candidate_sweep_matches_closed_form(self):
        model = ElectionModel((0.0, 1.0), (0.55, 0.45), 1.0 / 52.0, 1.0)
        grid = [0.1, 0.5, 1.2, 2.0]
        table = sweep_sigma(model, grid)
        for sigma, row in zip(grid, table.values):
            assert row[0] == pytest.approx(
                two_candidate_win_probability(0.55, sigma, 1.0 / 52.0), abs=1e-12
            )

    def test_batched_rows_equal_single_model_evaluations(self):
        # each sweep and the peak curve evaluate their whole grid in one
        # batched call; every row must be exactly the one-model answer
        rng = np.random.default_rng(12)
        for _ in range(30):
            model = random_model(rng, n=int(rng.integers(2, 7)))
            grid = tuple(rng.uniform(0.05, 3.0, size=5))
            exact = [win_probabilities(model.with_schedule(s)).win_probs for s in grid]
            np.testing.assert_array_equal(sweep_sigma(model, grid).values, exact)
            variant = tuple(x + rng.uniform(0.0, 0.2) for x in model.positions)
            moved = [
                win_probabilities(ElectionModel(variant, model.priors, model.horizon, s)).win_probs
                for s in grid
            ]
            np.testing.assert_array_equal(
                sweep_positions(model, [variant], grid).values, np.subtract(moved, exact)
            )
            points = [tuple(rng.dirichlet(np.ones(model.n_candidates))) for _ in range(5)]
            table = sweep_priors(model, points)
            np.testing.assert_array_equal(
                table.values,
                [
                    win_probabilities(
                        ElectionModel(model.positions, p, model.horizon, model.schedule)
                    ).win_probs
                    for p in points
                ],
            )
            curve = max_support_curve(model, grid)
            for s, row in zip(grid, curve.values):
                for k in range(1, model.n_candidates - 1):
                    assert row[k] == max_support_point(model.with_schedule(s), k).pi_max

    def test_row_at_the_models_own_rate_is_its_win_probabilities(self):
        # the sweep reads the model's priors as they are; renormalising them
        # again (as a model rebuilt at each rate would) moves this race's
        # win probabilities by 1.1e-16
        model = ElectionModel(
            (0.37, 1.074, 1.554, 2.394), (0.2603, 0.1491, 0.0347, 0.5559), 1.0, 1.0
        )
        np.testing.assert_array_equal(
            sweep_sigma(model, [1.0]).values[0], win_probabilities(model).win_probs
        )

    def test_default_grid_resolution(self, polarised_model):
        table = sweep_sigma(polarised_model)
        assert table.axis_values[0] == pytest.approx(0.05)
        assert table.axis_values[-1] == pytest.approx(3.0)
        assert len(table.axis_values) == 60


class TestSweepPositions:
    def test_identity_variant_is_flat_zero(self, polarised_model):
        table = sweep_positions(polarised_model, [POLARISED_X], [0.3, 1.0, 2.0])
        np.testing.assert_array_equal(table.values, 0.0)

    def test_shifted_variant_is_flat_zero(self, polarised_model):
        shifted = tuple(x + 2.5 for x in POLARISED_X)
        table = sweep_positions(polarised_model, [shifted], [0.3, 1.0, 2.0])
        np.testing.assert_allclose(table.values, 0.0, atol=1e-12)

    def test_right_lean_gain_changes_sign(self, polarised_model):
        # leaning the right candidate further right helps in noisy races and
        # hurts once the information rate is high
        grid = tuple(0.05 * i for i in range(1, 61))
        table = sweep_positions(polarised_model, [(1.0, 2.0, 3.9)], grid)
        gain_right = table.values[:, 2]
        assert gain_right[0] > 0.0
        assert gain_right[-1] < 0.0

    def test_decreasing_variant_rejected(self, polarised_model):
        with pytest.raises(NonIncreasingPositions):
            sweep_positions(polarised_model, [(3.0, 2.0, 1.0)], [1.0])

    def test_wrong_length_variant_rejected(self, polarised_model):
        with pytest.raises(NonIncreasingPositions):
            sweep_positions(polarised_model, [(1.0, 2.0)], [1.0])

    def test_multi_variant_columns(self, polarised_model):
        table = sweep_positions(
            polarised_model, [(0.1, 2.0, 3.9), (1.0, 2.0, 3.9)], [0.5, 1.0]
        )
        assert table.values.shape == (2, 6)
        assert table.columns[0] == "delta_0_v1"
        assert table.columns[-1] == "delta_2_v2"
        assert table.kind == "difference"


class TestSweepPriors:
    def test_certain_candidate_wins_certainly(self):
        table = sweep_priors(polarised(), [(1.0, 0.0, 0.0)])
        np.testing.assert_allclose(table.values[0], (1.0, 0.0, 0.0), atol=1e-12)

    def test_rows_sum_to_one(self):
        table = sweep_priors(polarised(), step=0.2)
        np.testing.assert_allclose(table.values.sum(axis=1), 1.0, atol=1e-10)

    def test_centre_zero_region_nonempty(self):
        table = sweep_priors(polarised(), step=0.05)
        assert (table.values[:, 1] == 0.0).any()

    def test_two_candidate_grid(self):
        table = sweep_priors(ElectionModel((0.0, 1.0), (0.55, 0.45), 1.0 / 52.0, 1.2), step=0.25)
        assert len(table.axis_values) == 5
        assert table.axis_values[0] == (0.0, 1.0)
        assert table.values[2, 0] == pytest.approx(0.5, abs=1e-12)

    def test_no_default_grid_above_three(self):
        with pytest.raises(ValidationError):
            simplex_grid(4, 0.5)

    @pytest.mark.parametrize("step", [0.0, -0.25, math.nan, 0.3])
    def test_step_must_divide_one(self, step):
        with pytest.raises(ValidationError, match="must divide 1"):
            sweep_priors(polarised(), step=step)

    def test_prior_points_and_step_are_not_both_taken(self):
        with pytest.raises(ValidationError, match="not both"):
            sweep_priors(polarised(), [(0.2, 0.3, 0.5)], step=0.3)


def polarised():
    return ElectionModel(POLARISED_X, POLARISED_P, 1.0, 1.0)


# one bad entry on each batch path's varying axis: (evaluation, error, the
# part of the message that shows the entry)
BAD_AXIS_ENTRIES = {
    "sigma-grid-zero": (
        lambda: sweep_sigma(polarised(), [1.0, 0.0]), NonPositiveRate, "got 0.0"
    ),
    "sigma-grid-nan": (
        lambda: sweep_sigma(polarised(), [1.0, math.nan]), NonPositiveRate, "got nan"
    ),
    "prior-row-sum": (
        lambda: sweep_priors(polarised(), [POLARISED_P, (0.5, 0.3, 0.3)]),
        PriorsNotNormalized,
        "sum to 1.1,",
    ),
    "prior-row-negative": (
        lambda: sweep_priors(polarised(), [POLARISED_P, (0.5, -0.1, 0.6)]),
        PriorsNotNormalized,
        "(0.5, -0.1, 0.6)",
    ),
    "prior-row-short": (
        lambda: sweep_priors(polarised(), [POLARISED_P, (0.5, 0.5)]),
        PriorsNotNormalized,
        "2 priors for 3",
    ),
    "variant-inf": (
        lambda: sweep_positions(polarised(), [POLARISED_X, (1.0, 2.0, math.inf)], [1.0]),
        NonIncreasingPositions,
        "(1.0, 2.0, inf)",
    ),
    "variant-decreasing": (
        lambda: sweep_positions(polarised(), [POLARISED_X, (3.0, 2.0, 1.0)], [1.0]),
        NonIncreasingPositions,
        "(3.0, 2.0, 1.0)",
    ),
    "curve-rate-negative": (
        lambda: max_support_curve(polarised(), [1.0, -1.0]),
        NonPositiveRate,
        "got -1.0",
    ),
    "implied-priors": (
        lambda: implied_sigma(ElectionModel(POLARISED_X, (0.4, 0.4, 0.4), 1.0, 1.0), 1, 0.2),
        PriorsNotNormalized,
        "sum to 1.2000000000000002,",
    ),
}


@pytest.mark.parametrize(
    "evaluate, error, shown", BAD_AXIS_ENTRIES.values(), ids=BAD_AXIS_ENTRIES.keys()
)
def test_batch_paths_reject_a_bad_axis_entry(evaluate, error, shown):
    # the varying axis is checked entry by entry by the rule a model applies
    # to it: the same error class, with the rejected entry in the message
    with pytest.raises(error) as caught:
        evaluate()
    assert shown in str(caught.value)


# each race analysis holds the caller's model fixed but for one part, the
# axis it varies: the schedule for the rate analyses, the priors for
# sweep_priors. It reads that part nowhere and builds no model of its own
RACE_ANALYSES = {
    "dead-zone-bound": (dead_zone_sigma_bound, "schedule"),
    "max-support-curve": (lambda m: max_support_curve(m, (0.5, 1.0, 2.0)).values, "schedule"),
    "sweep-priors": (lambda m: sweep_priors(m, step=0.25).values, "priors"),
    "implied-sigma": (lambda m: implied_sigma(m, 2, 0.45), "schedule"),
}


@pytest.mark.parametrize(
    "analyse, varied", RACE_ANALYSES.values(), ids=RACE_ANALYSES.keys()
)
def test_race_analysis_ignores_the_part_it_varies(analyse, varied):
    race = polarised()
    if varied == "schedule":
        other = race.with_schedule(InfoSchedule.piecewise((0.5,), (0.3, 2.0)))
    else:
        other = ElectionModel(POLARISED_X, (0.2, 0.5, 0.3), 1.0, 1.0)
    np.testing.assert_array_equal(analyse(other), analyse(race))


@pytest.mark.parametrize(
    "analyse, varied", RACE_ANALYSES.values(), ids=RACE_ANALYSES.keys()
)
def test_race_analysis_builds_no_model(polarised_model, built_models, analyse, varied):
    analyse(polarised_model)
    assert built_models == []
