"""Crossing thresholds, the ordering partition, and outcome probabilities."""

import itertools
import logging
import math

import numpy as np
import pytest

import voteflow.outcomes
from voteflow import (
    ElectionModel,
    crossing_threshold,
    implied_sigma,
    interval_probability,
    is_dead_zone,
    max_support_point,
    ordering_partition,
    ordering_probability,
    posterior_support,
    sweep_sigma,
    two_candidate_win_probability,
    win_probabilities,
)
from voteflow.errors import (
    DegeneratePrior,
    InvalidInterval,
    InvalidPermutation,
    NonPositiveHorizon,
    NonPositiveRate,
    NotInteriorCandidate,
    ValidationError,
)

from conftest import (
    POLARISED_P,
    POLARISED_X,
    assert_within_mc_error,
    random_model,
    terminal_ordering_frequencies,
)

# [log(0.26/0.38) - 1.5] / (-1), frozen from direct evaluation
ORACLE_Z12 = 1.8794896217049037


class TestCrossingThreshold:
    def test_polarised_first_pair(self, polarised_model):
        got = crossing_threshold(polarised_model, 0, 1)
        assert type(got) is float
        assert got == pytest.approx(ORACLE_Z12, abs=1e-12)

    def test_equal_priors_reduce_to_midpoint_rule(self):
        # the log-odds term vanishes, leaving (x_k + x_j) V / 2
        model = ElectionModel((0.5, 1.5, 4.0), (1 / 3, 1 / 3, 1 / 3), 1.0, 1.0)
        for k, j in ((0, 1), (0, 2), (1, 2)):
            expected = 0.5 * (model.positions[k] + model.positions[j])
            assert crossing_threshold(model, k, j) == pytest.approx(expected, abs=1e-12)

    def test_symmetry_in_the_pair(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            model = random_model(rng)
            n = model.n_candidates
            k, j = rng.choice(n, size=2, replace=False)
            a = crossing_threshold(model, int(k), int(j))
            b = crossing_threshold(model, int(j), int(k))
            assert a == b

    def test_zero_prior_gives_infinite_threshold(self):
        # a zero-prior candidate on the right can never overtake: crossing at
        # +inf; on the left the supported candidate leads everywhere: -inf
        right_zero = ElectionModel((0.0, 1.0, 2.0), (0.6, 0.4, 0.0), 1.0, 1.0)
        assert crossing_threshold(right_zero, 2, 1) == math.inf
        assert crossing_threshold(right_zero, 1, 2) == math.inf
        left_zero = ElectionModel((0.0, 1.0, 2.0), (0.0, 0.6, 0.4), 1.0, 1.0)
        assert crossing_threshold(left_zero, 1, 0) == -math.inf
        assert crossing_threshold(left_zero, 0, 1) == -math.inf
        both_zero = ElectionModel((0.0, 1.0, 2.0), (0.0, 1.0, 0.0), 1.0, 1.0)
        assert math.isnan(crossing_threshold(both_zero, 0, 2))

    def test_same_candidate_rejected(self, polarised_model):
        with pytest.raises(InvalidPermutation):
            crossing_threshold(polarised_model, 1, 1)


class TestOrderingPartition:
    def test_two_candidates_single_boundary(self):
        model = ElectionModel((0.0, 1.0), (0.55, 0.45), 1.0, 1.0)
        part = ordering_partition(model)
        assert len(part.boundaries) == 1
        assert len(part.cells) == 2
        assert part.cells[0].ordering == (0, 1)
        assert part.cells[1].ordering == (1, 0)

    def test_low_info_locks_out_the_centre(self, polarised_low_info):
        part = ordering_partition(polarised_low_info)
        assert all(cell.ordering[0] != 1 for cell in part.cells)

    def test_equal_priors_give_four_cells(self):
        model = ElectionModel(POLARISED_X, (1 / 3, 1 / 3, 1 / 3), 1.0, 1.0)
        part = ordering_partition(model)
        assert len(part.cells) == 4
        assert part.boundaries == pytest.approx((1.5, 2.0, 2.5), abs=1e-12)

    def test_against_grid_brute_force_scan(self):
        # orderings met left to right on a dense grid must equal the cells
        models = [
            ElectionModel(POLARISED_X, (1 / 3, 1 / 3, 1 / 3), 1.0, 1.0),
            ElectionModel(POLARISED_X, POLARISED_P, 1.0, 1.0),
            ElectionModel(POLARISED_X, POLARISED_P, 1.0, 0.25),
            ElectionModel((-1.0, -0.2, 0.7, 2.0), (0.3, 0.2, 0.4, 0.1), 0.8, 1.3),
        ]
        grid = np.linspace(-20.0, 20.0, 10_001)
        for model in models:
            part = ordering_partition(model)
            assert all(abs(b) < 20.0 for b in part.boundaries)
            support = posterior_support(model, grid, model.horizon)
            orders = np.argsort(-support, axis=1, kind="stable")
            scanned = [tuple(int(v) for v in orders[0])]
            for row in orders[1:]:
                t = tuple(int(v) for v in row)
                if t != scanned[-1]:
                    scanned.append(t)
            assert scanned == [c.ordering for c in part.cells]

    def test_end_cells_ordered_by_position(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            model = random_model(rng)
            if any(p == 0.0 for p in model.priors):
                continue
            part = ordering_partition(model)
            n = model.n_candidates
            assert part.cells[0].ordering == tuple(range(n))
            assert part.cells[-1].ordering == tuple(reversed(range(n)))

    def test_adjacent_cells_differ_by_one_adjacent_transposition(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            model = random_model(rng)
            part = ordering_partition(model)
            if part.tie_count:
                continue
            for a, b in zip(part.cells, part.cells[1:]):
                diffs = [i for i, (u, v) in enumerate(zip(a.ordering, b.ordering)) if u != v]
                assert len(diffs) == 2 and diffs[1] == diffs[0] + 1
                i = diffs[0]
                assert a.ordering[i] == b.ordering[i + 1]
                assert a.ordering[i + 1] == b.ordering[i]

    def test_cells_tile_the_line(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            model = random_model(rng)
            part = ordering_partition(model)
            assert part.cells[0].lower == -math.inf
            assert part.cells[-1].upper == math.inf
            for a, b in zip(part.cells, part.cells[1:]):
                assert a.upper == b.lower

    def test_exactly_coincident_thresholds_merge_silently(self, caplog):
        # symmetric spectrum with equal priors: the (0,3) and (1,2) crossings
        # both sit at exactly 0; the tie is a DEBUG record, not a warning
        model = ElectionModel((-3.0, -1.0, 1.0, 3.0), (0.25, 0.25, 0.25, 0.25), 1.0, 1.0)
        with caplog.at_level(logging.DEBUG, logger="voteflow.outcomes"):
            part = ordering_partition(model)
        assert part.tie_count == 1
        assert [r.levelno for r in caplog.records] == [logging.DEBUG]
        assert sum(1 for b in part.boundaries if b == 0.0) == 1
        total = math.fsum(
            interval_probability(model, c.lower, c.upper) for c in part.cells
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_trailing_candidates_ranked_where_their_supports_underflow(self):
        # past the (2, 3) crossing candidates 0 and 1 both have supports that
        # underflow to 0; (1, 0) is still the true order
        model = ElectionModel(
            (0.1414, 1.9087, 3.492, 3.4968), (0.2536, 0.1382, 0.6015, 0.0067), 1.635, 1.0767
        )
        probs = win_probabilities(model).ordering_probs
        assert (2, 3, 0, 1) not in probs
        assert probs[(2, 3, 1, 0)] == pytest.approx(0.2339, abs=1e-4)

    def test_cell_with_cycling_pairs_adds_to_its_ranking(self):
        # all three crossings of this race meet at y = 0.5, but rounding puts
        # one an ulp below; on the ulp-wide cell between, the pairs cycle and
        # the stable sort repeats (0, 1, 2). Its mass adds to that ranking's
        priors = (0.8437947344813396, 0.04201006613406606, 0.1141951993845945)
        model = ElectionModel((-2.0, 0.0, 2.0), priors, 1.0, 1.0)
        cells = ordering_partition(model).cells
        assert [c.ordering for c in cells] == [(0, 1, 2), (0, 1, 2), (2, 1, 0)]
        probs = win_probabilities(model).ordering_probs
        whole = interval_probability(model, -math.inf, cells[1].upper)
        assert probs[(0, 1, 2)] == pytest.approx(whole, rel=1e-15)
        assert ordering_probability(model, (0, 1, 2)) == probs[(0, 1, 2)]
        assert math.fsum(probs.values()) == pytest.approx(1.0, abs=1e-15)

    def test_zero_prior_candidate_ranks_last(self):
        model = ElectionModel((0.0, 1.0, 2.0), (0.6, 0.0, 0.4), 1.0, 1.0)
        part = ordering_partition(model)
        for cell in part.cells:
            assert cell.ordering[-1] == 1

    @pytest.mark.parametrize("scale", [1e200, 0.5e308])
    def test_far_positions_ranked_from_the_crossing_table(self, scale):
        # at positions near 1e200 the log weights' x^2 V / 2 terms overflow,
        # and near 1e308 so does the sum of two boundaries. The crossing
        # table still ranks every cell, with no warning
        model = ElectionModel(tuple(scale * x for x in POLARISED_X), POLARISED_P, 1.0, 1.0)
        cells = ordering_partition(model).cells
        assert [c.ordering for c in cells] == [(0, 1, 2), (1, 0, 2), (1, 2, 0), (2, 1, 0)]
        assert win_probabilities(model).ordering_probs == pytest.approx(
            {(0, 1, 2): 0.38, (1, 0, 2): 0.13, (1, 2, 0): 0.13, (2, 1, 0): 0.36}, abs=1e-12
        )


class TestIntervalProbability:
    def test_whole_line_is_certain(self, polarised_model):
        assert interval_probability(polarised_model, -math.inf, math.inf) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_single_candidate_median(self):
        model = ElectionModel((0.0, 2.0), (0.0, 1.0), 1.0, 1.0)
        v = model.terminal_variance
        got = interval_probability(model, -math.inf, model.positions[1] * v)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_reversed_interval_rejected(self, polarised_model):
        with pytest.raises(InvalidInterval):
            interval_probability(polarised_model, 1.0, 0.0)

    @pytest.mark.parametrize("sigma", [0.25, 1.0])
    def test_matches_monte_carlo_between_centre_thresholds(self, polarised_model, sigma):
        # probability of the terminal signal landing between the (1,2) and
        # (2,0) crossings; at sigma=1 these two swap order, so take them
        # ascending (the reversed interval is the impossible-ordering case)
        model = polarised_model.with_schedule(sigma)
        pair = sorted(
            (
                crossing_threshold(model, 1, 2),
                crossing_threshold(model, 2, 0),
            )
        )
        a, b = pair
        closed = interval_probability(model, a, b)
        rng = np.random.default_rng(17)
        n = 1_000_000
        x = model.positions_arr
        v = model.terminal_variance
        labels = rng.choice(3, size=n, p=model.priors_arr)
        y = x[labels] * v + math.sqrt(v) * rng.standard_normal(n)
        observed = float(np.mean((y > a) & (y < b)))
        assert_within_mc_error(closed, observed, n, label=f"centre interval sigma={sigma}")

    def test_far_right_tail_stable(self, polarised_model):
        v = polarised_model.terminal_variance
        base = 10.0 * math.sqrt(v) + polarised_model.positions[-1] * v
        probs = [
            interval_probability(polarised_model, base + shift, math.inf)
            for shift in np.linspace(0.0, 2.0, 21)
        ]
        assert all(p > 0.0 for p in probs)
        assert all(a > b for a, b in zip(probs, probs[1:]))
        # the right candidate's lead interval moves out beyond 30 standard
        # deviations as its prior falls, where every CDF rounds to 1: its win
        # probability stays positive and falls strictly, and none is negative
        x, p = polarised_model.positions, polarised_model.priors
        priors = [(p[0], p[1], p[1] * 10.0**-k) for k in np.linspace(1.0, 15.0, 29)]
        priors = np.array(priors) / np.sum(priors, axis=1, keepdims=True)
        win = voteflow.outcomes._win_kernel(x, priors, v)
        assert np.all(win >= 0.0)
        assert np.all(win[:, 2] > 0.0) and np.all(np.diff(win[:, 2]) < 0.0)

    def test_additivity(self, polarised_model):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a, b, c = np.sort(rng.normal(scale=3.0, size=3))
            whole = interval_probability(polarised_model, a, c)
            split = interval_probability(polarised_model, a, b) + interval_probability(
                polarised_model, b, c
            )
            assert whole == pytest.approx(split, abs=1e-14)


class TestOrderingProbability:
    def test_centre_first_is_impossible_at_low_info(self, polarised_low_info):
        assert ordering_probability(polarised_low_info, (1, 0, 2)) == 0.0
        assert ordering_probability(polarised_low_info, (1, 2, 0)) == 0.0

    def test_all_orderings_sum_to_one(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            model = random_model(rng, n=int(rng.integers(2, 5)))
            total = math.fsum(
                ordering_probability(model, perm)
                for perm in itertools.permutations(range(model.n_candidates))
            )
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_invalid_permutation_rejected(self, polarised_model):
        with pytest.raises(InvalidPermutation):
            ordering_probability(polarised_model, (0, 1))
        with pytest.raises(InvalidPermutation):
            ordering_probability(polarised_model, (0, 1, 1))

    def test_each_ordering_matches_monte_carlo(self, polarised_model):
        n = 1_000_000
        rng = np.random.default_rng(23)
        observed = terminal_ordering_frequencies(polarised_model, n, rng)
        for perm in itertools.permutations(range(3)):
            closed = ordering_probability(polarised_model, perm)
            assert_within_mc_error(
                closed, observed.get(perm, 0.0), n, label=f"ordering {perm}"
            )


class TestWinProbabilities:
    def test_two_candidate_high_info_week_out(self):
        model = ElectionModel((0.0, 1.0), (0.55, 0.45), 1.0 / 52.0, 1.2)
        probs = win_probabilities(model).win_probs
        assert probs[0] == pytest.approx(0.8868, abs=5e-4)

    def test_two_candidate_low_info_week_out(self):
        model = ElectionModel((0.0, 1.0), (0.55, 0.45), 1.0 / 52.0, 0.5)
        probs = win_probabilities(model).win_probs
        assert probs[0] == pytest.approx(0.9981, abs=2e-4)

    @pytest.mark.parametrize(
        "positions, crossings",
        [
            ((0.0, 40.0, 80.0), (20.0, 60.0)),
            ((1e200, 2e200, 3e200), (1.5e200, 2.5e200)),
            ((1e308, 1.5e308, 1.7e308), (1.25e308, 1.6e308)),
        ],
        ids=["gaps-40", "gaps-1e200", "gaps-1e308"],
    )
    def test_gaps_far_beyond_the_noise_give_the_priors(self, positions, crossings):
        # each candidate's signal law sits deep inside its own lead interval,
        # bounded near the midpoints, whatever the scale of the positions
        # (x^2 V would overflow at 1e200, and x_a + x_b near 1e308)
        model = ElectionModel(positions, POLARISED_P, 1.0, 1.0)
        np.testing.assert_allclose(
            win_probabilities(model).win_probs, model.priors_arr, rtol=0.0, atol=1e-15
        )
        assert not any(is_dead_zone(model, k).is_dead for k in range(3))
        got = (crossing_threshold(model, 0, 1), crossing_threshold(model, 1, 2))
        assert got == pytest.approx(crossings, rel=1e-3)

    def test_reflection_symmetry(self):
        model = ElectionModel((-1.0, 0.0, 1.0), (1 / 3, 1 / 3, 1 / 3), 1.0, 1.0)
        probs = win_probabilities(model).win_probs
        assert probs[0] == pytest.approx(probs[2], abs=1e-12)

    def test_win_probs_aggregate_orderings(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            model = random_model(rng)
            out = win_probabilities(model)
            n = model.n_candidates
            for k in range(n):
                direct = math.fsum(
                    p for perm, p in out.ordering_probs.items() if perm[0] == k
                )
                assert out.win_probs[k] == pytest.approx(direct, abs=1e-12)
            assert math.fsum(out.win_probs) == pytest.approx(1.0, abs=1e-10)

    def test_one_race_takes_the_scalar_form_and_batches_the_kernel(self, monkeypatch):
        # one race's win probabilities are scalar lead-interval masses; only
        # batches (here a rate sweep) reach the batched tail-value kernel
        def batched(*args):
            raise RuntimeError("normal_masses called")

        monkeypatch.setattr(voteflow.outcomes, "normal_masses", batched)
        model = ElectionModel(POLARISED_X, POLARISED_P, 1.0, 0.7)
        assert math.fsum(win_probabilities(model).win_probs) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(RuntimeError, match="normal_masses called"):
            sweep_sigma(model)

    def test_win_probabilities_build_no_partition(self, monkeypatch, polarised_model):
        # the lead intervals alone give the win probabilities; the
        # partition is built on first read of partition or ordering_probs
        real = voteflow.outcomes.ordering_partition
        built = []
        monkeypatch.setattr(
            voteflow.outcomes, "ordering_partition", lambda m: built.append(m) or real(m)
        )
        outcome = win_probabilities(polarised_model)
        assert outcome.win_probs.shape == (3,) and built == []
        assert outcome.partition is outcome.partition and len(built) == 1
        assert math.fsum(outcome.ordering_probs.values()) == pytest.approx(1.0, abs=1e-12)
        assert len(built) == 1

    def test_vanishing_rate_crowns_the_poll_leader(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            model = random_model(rng)
            leader = int(np.argmax(model.priors_arr))
            if sorted(model.priors, reverse=True)[0] - sorted(model.priors, reverse=True)[1] < 0.05:
                continue  # needs a unique, clear leader
            slow = model.with_schedule(1e-4)
            assert win_probabilities(slow).win_probs[leader] > 1.0 - 1e-6

    def test_label_shift_invariance(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            model = random_model(rng)
            c = float(rng.uniform(-5.0, 5.0))
            shifted = ElectionModel(
                tuple(x + c for x in model.positions),
                model.priors,
                model.horizon,
                model.schedule,
            )
            np.testing.assert_allclose(
                win_probabilities(shifted).win_probs,
                win_probabilities(model).win_probs,
                atol=1e-12,
            )

    def test_joint_scaling_invariance(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            model = random_model(rng)
            lam = float(rng.uniform(0.2, 5.0))
            sigma = model.schedule.rates[0]
            scaled = ElectionModel(
                tuple(lam * x for x in model.positions),
                model.priors,
                model.horizon,
                sigma / lam,
            )
            np.testing.assert_allclose(
                win_probabilities(scaled).win_probs,
                win_probabilities(model).win_probs,
                atol=1e-12,
            )


class TestTwoCandidateFormula:
    def test_paper_week_out_values(self):
        assert two_candidate_win_probability(0.55, 1.2, 1 / 52) == pytest.approx(
            0.8868693070858683, abs=1e-12
        )
        assert two_candidate_win_probability(0.55, 0.5, 1 / 52) == pytest.approx(
            0.9981093350870403, abs=1e-12
        )

    def test_even_race_is_a_coin_flip(self):
        for sigma, horizon in ((0.1, 1.0), (1.2, 1 / 52), (3.0, 2.0)):
            assert two_candidate_win_probability(0.5, sigma, horizon) == pytest.approx(
                0.5, abs=1e-15
            )

    def test_degenerate_support_rejected(self):
        for p in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DegeneratePrior):
                two_candidate_win_probability(p, 1.0, 1.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rate_or_horizon_that_is_not_finite_rejected(self, value):
        # an infinite rate or horizon would read nan
        with pytest.raises(NonPositiveRate, match="finite and > 0"):
            two_candidate_win_probability(0.6, value, 1.0)
        with pytest.raises(NonPositiveHorizon, match="finite and > 0"):
            two_candidate_win_probability(0.6, 1.0, value)

    def test_agrees_with_general_engine(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            p = float(rng.uniform(0.02, 0.98))
            sigma = float(rng.uniform(0.05, 3.0))
            horizon = float(rng.uniform(0.02, 2.0))
            direct = two_candidate_win_probability(p, sigma, horizon)
            engine = win_probabilities(
                ElectionModel((0.0, 1.0), (p, 1.0 - p), horizon, sigma)
            ).win_probs[0]
            assert engine == pytest.approx(direct, abs=1e-12)


# each library entry point that takes a candidate index, with the index k in
# place, and the error it raises for an index out of range
INDEXED_CALLS = {
    "crossing_threshold": (lambda m, k: crossing_threshold(m, k, 2), InvalidPermutation),
    "ordering_probability": (lambda m, k: ordering_probability(m, (0, k, 2)), InvalidPermutation),
    "is_dead_zone": (is_dead_zone, ValidationError),
    "max_support_point": (max_support_point, NotInteriorCandidate),
    "implied_sigma": (lambda m, k: implied_sigma(m, k, 0.2), ValidationError),
}


@pytest.mark.parametrize("index", [1.0, 1.5])
@pytest.mark.parametrize("name", INDEXED_CALLS)
def test_candidate_index_must_be_an_integer(polarised_model, name, index):
    # a float is rejected before it is used: numpy would raise its own
    # IndexError for it, and int() would truncate a permutation entry of 2.5
    call, error = INDEXED_CALLS[name]
    call(polarised_model, np.int64(1))  # a numpy integer is an index
    with pytest.raises(error):
        call(polarised_model, index)
