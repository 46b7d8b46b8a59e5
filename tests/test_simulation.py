"""Path simulation, trajectory bundles, and the Monte Carlo tally."""

import math

import mpmath
import numpy as np
import pytest
from scipy import stats

from voteflow import (
    ElectionModel,
    InfoSchedule,
    condition_on_history,
    monte_carlo_win_probabilities,
    posterior_paths,
    simulate_paths,
    win_probabilities,
    winprob_paths,
)
from voteflow.errors import ValidationError

from conftest import POLARISED_P, POLARISED_X, random_model


class TestSimulatePaths:
    def test_fixed_seed_is_bit_identical(self, polarised_model):
        a = simulate_paths(polarised_model, 16, 32, seed=99)
        b = simulate_paths(polarised_model, 16, 32, seed=99)
        np.testing.assert_array_equal(a.signal_paths, b.signal_paths)
        np.testing.assert_array_equal(a.latent, b.latent)

    def test_paths_are_pure_functions_of_seed_and_index(self, polarised_model):
        # simulating fewer paths yields a prefix of the larger ensemble
        small = simulate_paths(polarised_model, 3, 32, seed=7)
        large = simulate_paths(polarised_model, 8, 32, seed=7)
        np.testing.assert_array_equal(small.signal_paths, large.signal_paths[:3])
        np.testing.assert_array_equal(small.latent, large.latent[:3])

    def test_different_seeds_differ(self, polarised_model):
        a = simulate_paths(polarised_model, 4, 16, seed=1)
        b = simulate_paths(polarised_model, 4, 16, seed=2)
        assert not np.array_equal(a.signal_paths, b.signal_paths)

    def test_latent_distribution_matches_priors(self, polarised_model):
        n = 100_000
        ensemble = simulate_paths(polarised_model, n, 1, seed=123)
        counts = np.bincount(ensemble.latent, minlength=3)
        expected = np.asarray(POLARISED_P) * n
        result = stats.chisquare(counts, expected)
        assert result.pvalue > 0.01

    def test_near_silent_channel_stays_near_zero(self):
        model = ElectionModel(POLARISED_X, POLARISED_P, 1.0, 1e-8)
        n = 4000
        ensemble = simulate_paths(model, n, 4, seed=5)
        v = model.terminal_variance
        terminal = ensemble.signal_paths[:, -1]
        assert abs(float(terminal.mean())) < 4.0 * math.sqrt(v / n) + 1e-12

    def test_certain_label_drifts_at_its_position(self):
        model = ElectionModel(POLARISED_X, (1.0, 0.0, 0.0), 1.0, 1.0)
        n = 20_000
        ensemble = simulate_paths(model, n, 8, seed=21)
        v = model.terminal_variance
        terminal = ensemble.signal_paths[:, -1]
        # law of the terminal signal under label x_1 is Normal(x_1 V, V)
        assert abs(float(terminal.mean()) - POLARISED_X[0] * v) <= 3.0 * math.sqrt(v / n)
        assert np.all(ensemble.latent == 0)

    def test_noise_quadratic_variation(self):
        sched = InfoSchedule.piecewise([0.4], [0.8, 1.6])
        model = ElectionModel(POLARISED_X, POLARISED_P, 1.0, sched)
        n_paths, n_steps = 200, 64
        ensemble = simulate_paths(model, n_paths, n_steps, seed=31)
        dt = ensemble.dt
        rates = sched.rates_at(ensemble.times[:-1])
        drift = rates**2 * dt
        x = model.positions_arr[ensemble.latent][:, None]
        noise = np.diff(ensemble.signal_paths, axis=1) - drift[None, :] * x
        total = float(np.sum(noise**2))
        expected = n_paths * float(np.sum(rates**2 * dt))
        se = math.sqrt(2.0 * n_paths * float(np.sum(rates**4 * dt**2)))
        assert abs(total - expected) <= 3.0 * se

    def test_input_validation(self, polarised_model):
        with pytest.raises(ValidationError):
            simulate_paths(polarised_model, 0, 10, seed=1)
        with pytest.raises(ValidationError):
            simulate_paths(polarised_model, 10, 0, seed=1)

    def test_signal_to_variance_ratio_converges_to_label(self):
        # |Y_T / V - X| shrinks in mean square as the accumulated variance grows
        errors = []
        for sigma in (1.0, 3.0, 7.0):
            model = ElectionModel(POLARISED_X, POLARISED_P, 1.0, sigma)
            ensemble = simulate_paths(model, 2000, 16, seed=41)
            v = model.terminal_variance
            x = model.positions_arr[ensemble.latent]
            err = float(np.mean((ensemble.signal_paths[:, -1] / v - x) ** 2))
            errors.append(err)
            assert err < 4.0 / v  # E[(Y/V - X)^2] = 1/V
        assert errors[0] > errors[1] > errors[2]


# a seed or count numpy itself would refuse with TypeError or a bare ValueError
BAD_COUNTS = {
    "paths-seed-negative": (lambda m: simulate_paths(m, 2, 3, -1), "seed"),
    "paths-seed-fraction": (lambda m: simulate_paths(m, 2, 3, 1.5), "seed"),
    "paths-n-paths-fraction": (lambda m: simulate_paths(m, 2.5, 3, 1), "n_paths"),
    "paths-n-steps-float": (lambda m: simulate_paths(m, 2, 3.0, 1), "n_steps"),
    "tally-seed-negative": (lambda m: monte_carlo_win_probabilities(m, 10, -1), "seed"),
    "tally-seed-fraction": (lambda m: monte_carlo_win_probabilities(m, 10, 1.5), "seed"),
    "tally-n-paths-float": (lambda m: monte_carlo_win_probabilities(m, 10.0, 1), "n_paths"),
}


@pytest.mark.parametrize("call, name", BAD_COUNTS.values(), ids=BAD_COUNTS.keys())
def test_bad_seed_or_count_is_a_validation_error(polarised_model, call, name):
    with pytest.raises(ValidationError, match=f"^{name} must be an integer >= "):
        call(polarised_model)


class TestPosteriorPaths:
    def test_initial_step_is_the_prior(self, polarised_model):
        ensemble = simulate_paths(polarised_model, 6, 20, seed=3)
        bundle = posterior_paths(ensemble)
        for i in range(6):
            np.testing.assert_allclose(
                bundle.support[i, 0], polarised_model.priors_arr, atol=1e-15
            )

    def test_supports_sum_to_one_everywhere(self):
        rng = np.random.default_rng(51)
        for _ in range(5):
            model = random_model(rng, piecewise=bool(rng.integers(2)))
            ensemble = simulate_paths(model, 10, 50, seed=int(rng.integers(1 << 31)))
            bundle = posterior_paths(ensemble)
            sums = bundle.support.sum(axis=2)
            np.testing.assert_allclose(sums, 1.0, atol=1e-10)

    def test_filter_martingale_at_terminal_time(self, polarised_model):
        n = 50_000
        ensemble = simulate_paths(polarised_model, n, 16, seed=62)
        bundle = posterior_paths(ensemble)
        terminal = bundle.support[:, -1, :]
        for i in range(3):
            se = float(terminal[:, i].std(ddof=1)) / math.sqrt(n)
            assert abs(float(terminal[:, i].mean()) - POLARISED_P[i]) <= 3.0 * se

    def test_long_horizon_reveals_the_label(self):
        # with 50 units of accumulated variance the posterior has settled on
        # the true label along almost every path
        sigma = 1.0
        model = ElectionModel(POLARISED_X, POLARISED_P, 50.0 / sigma**2, sigma)
        n = 400
        ensemble = simulate_paths(model, n, 250, seed=71)
        bundle = posterior_paths(ensemble)
        mass_on_label = bundle.support[np.arange(n), -1, ensemble.latent]
        assert float(mass_on_label.mean()) > 0.99


class TestWinprobPaths:
    def test_initial_step_is_the_unconditional_forecast(self, polarised_model):
        ensemble = simulate_paths(polarised_model, 4, 10, seed=13)
        bundle = winprob_paths(ensemble)
        unconditional = win_probabilities(polarised_model).win_probs
        for i in range(4):
            np.testing.assert_allclose(bundle.win_probs[i, 0], unconditional, atol=1e-12)

    def test_terminal_step_is_one_hot_on_the_leader(self, polarised_model):
        ensemble = simulate_paths(polarised_model, 6, 10, seed=14)
        bundle = winprob_paths(ensemble)
        for i in range(6):
            leader = int(np.argmax(bundle.support[i, -1]))
            expected = np.zeros(3)
            expected[leader] = 1.0
            np.testing.assert_array_equal(bundle.win_probs[i, -1], expected)

    def test_win_rows_sum_to_one(self, polarised_model):
        ensemble = simulate_paths(polarised_model, 3, 12, seed=15)
        bundle = winprob_paths(ensemble)
        np.testing.assert_allclose(bundle.win_probs.sum(axis=2), 1.0, atol=1e-10)

    def test_interior_step_matches_direct_conditioning(self, polarised_model):
        ensemble = simulate_paths(polarised_model, 2, 8, seed=16)
        bundle = winprob_paths(ensemble)
        i, m = 1, 5
        conditioned = condition_on_history(
            polarised_model,
            float(ensemble.signal_paths[i, m]),
            float(ensemble.times[m]),
        )
        np.testing.assert_allclose(
            bundle.win_probs[i, m], win_probabilities(conditioned).win_probs, atol=1e-14
        )


def mp_variance(schedule, t0, t1):
    """Test-local V(t0, t1) of a schedule, in mpmath."""
    edges = [0, *schedule.breakpoints, mpmath.inf]
    return sum(
        mpmath.mpf(rate) ** 2 * max(min(mpmath.mpf(t1), hi) - max(mpmath.mpf(t0), lo), 0)
        for rate, lo, hi in zip(schedule.rates, edges, edges[1:])
    )


def mp_conditional_win(model, y, t):
    """Test-local conditional win probabilities given signal y at time t, in
    50-digit arithmetic: the time-t posterior from the filter formula, and
    each live candidate's terminal lead interval from its own crossings,
    whose mass is taken under the remaining signal's Gaussian laws."""
    with mpmath.workdps(50):
        x = [mpmath.mpf(v) for v in model.positions]
        p = [mpmath.mpf(v) for v in model.priors]
        y = mpmath.mpf(y)
        v_t = mp_variance(model.schedule, 0, t)
        v_rem = mp_variance(model.schedule, t, model.horizon)
        weights = [pj * mpmath.exp(y * xj - xj * xj * v_t / 2) for xj, pj in zip(x, p)]
        total = sum(weights)
        post = [w / total for w in weights]

        def crossing(a, b):
            return mpmath.log(p[b] / p[a]) / (x[a] - x[b]) + (x[a] + x[b]) * (v_t + v_rem) / 2

        def cdf(end, j):
            return mpmath.ncdf((end - y - x[j] * v_rem) / mpmath.sqrt(v_rem))

        n = len(x)
        win = []
        for k in range(n):
            lo = max((crossing(a, k) for a in range(k)), default=-mpmath.inf)
            hi = min((crossing(k, b) for b in range(k + 1, n)), default=mpmath.inf)
            live = lo < hi
            win.append(float(sum(post[j] * (cdf(hi, j) - cdf(lo, j)) for j in range(n)) * live))
        return np.array(win)


@pytest.mark.parametrize(
    "model",
    [
        ElectionModel((1.0, 2.0, 3.0, 4.0, 5.0), (0.2,) * 5, 1.0, 1.0),
        ElectionModel(POLARISED_X, POLARISED_P, 1.0, 1.0),
    ],
    ids=["five_candidate_peak_support", "polarised_three_way"],
)
def test_path_win_probabilities_match_high_precision_oracle(model):
    ensemble = simulate_paths(model, 50, 250, seed=2024)
    bundle = winprob_paths(ensemble)
    rng = np.random.default_rng(0)
    for i, m in zip(rng.integers(0, 50, 60), rng.integers(0, 250, 60)):
        exact = mp_conditional_win(model, ensemble.signal_paths[i, m], ensemble.times[m])
        np.testing.assert_allclose(bundle.win_probs[i, m], exact, rtol=0.0, atol=1e-15)


def test_candidate_dead_in_the_model_never_wins_on_a_path():
    # the centre is dead in the model; on many path-steps the left support
    # has underflowed to 0 while the centre's has not, which a race rebuilt
    # from the time-t supports would read as a live centre
    model = ElectionModel((0.0, 1.0, 2.0), (1e-200, 1e-250, 1.0 - 1e-200 - 1e-250), 1.0, 20.0)
    lower, upper = model.lead_intervals
    assert lower[1] == upper[1] == 0.0
    bundle = winprob_paths(simulate_paths(model, 20, 250, seed=3))
    support = bundle.support
    assert np.count_nonzero((support[..., 0] == 0.0) & (support[..., 1] > 0.0)) > 0
    assert np.all(bundle.win_probs[..., 1] == 0.0)


class TestMonteCarloTally:
    def test_counts_partition_the_paths(self, polarised_model):
        mc = monte_carlo_win_probabilities(polarised_model, 10_000, seed=17)
        assert sum(mc.ordering_counts.values()) == 10_000
        assert math.fsum(mc.ordering_freqs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_for_fixed_seed(self, polarised_model):
        a = monte_carlo_win_probabilities(polarised_model, 5_000, seed=18)
        b = monte_carlo_win_probabilities(polarised_model, 5_000, seed=18)
        assert a.ordering_counts == b.ordering_counts
        np.testing.assert_array_equal(a.win_freqs, b.win_freqs)

    def test_locked_out_centre_never_sampled_first(self, polarised_low_info):
        mc = monte_carlo_win_probabilities(polarised_low_info, 200_000, seed=19)
        assert mc.win_freqs[1] == 0.0

    @pytest.mark.parametrize("race", ["polarised_model", "polarised_low_info", "zero_prior"])
    def test_keys_sorted_and_leaders_match_win_counts(self, request, race):
        if race == "zero_prior":
            model = ElectionModel((0.0, 1.0, 2.0, 3.0), (0.3, 0.2, 0.0, 0.5), 1.0, 1.0)
        else:
            model = request.getfixturevalue(race)
        n = 20_000
        mc = monte_carlo_win_probabilities(model, n, seed=23)
        # ascending lexicographic key order, pinned for callers that iterate it
        keys = list(mc.ordering_counts)
        assert keys == sorted(keys)
        # the ordering tally and the separate leader count agree exactly
        leaders = np.zeros(model.n_candidates, dtype=np.int64)
        for key, c in mc.ordering_counts.items():
            leaders[key[0]] += c
        np.testing.assert_array_equal(leaders / n, mc.win_freqs)

    @pytest.mark.parametrize("n_candidates", [21, 257])
    def test_wide_races_tally_full_permutations(self, n_candidates):
        # 21: a Lehmer rank would overflow int64; 257: past uint8 rank columns
        zero = n_candidates // 2
        priors = [0.0 if j == zero else 1.0 / (n_candidates - 1) for j in range(n_candidates)]
        model = ElectionModel(tuple(float(j) for j in range(n_candidates)), tuple(priors), 1.0, 0.5)
        n = 3_000
        mc = monte_carlo_win_probabilities(model, n, seed=24)
        assert sum(mc.ordering_counts.values()) == n
        for key in mc.ordering_counts:
            assert sorted(key) == list(range(n_candidates))
            assert key[0] != zero
        assert mc.win_freqs[zero] == 0.0

    def test_two_candidate_frequency_near_paper_value(self):
        model = ElectionModel((0.0, 1.0), (0.55, 0.45), 1.0 / 52.0, 1.2)
        n = 1_000_000
        mc = monte_carlo_win_probabilities(model, n, seed=20)
        closed = 0.8868693070858683
        se = math.sqrt(closed * (1.0 - closed) / n)
        assert abs(mc.win_freqs[0] - closed) <= 3.0 * se

    def test_standard_errors_are_binomial(self, polarised_model):
        n = 40_000
        mc = monte_carlo_win_probabilities(polarised_model, n, seed=22)
        for k in range(3):
            f = mc.win_freqs[k]
            assert mc.win_std_errors[k] == pytest.approx(
                math.sqrt(f * (1.0 - f) / n), abs=1e-15
            )

    def test_underflowed_supports_are_ranked_by_log_weight(self):
        # supports of all but the leader underflow to 0 on nearly every draw;
        # ranking them by index put (3,0,1,2) where the closed form has 0
        model = ElectionModel((0.0, 10.0, 20.0, 30.0), (0.25,) * 4, 1.0, 10.0)
        n = 100_000
        mc = monte_carlo_win_probabilities(model, n, seed=7)
        outcome = win_probabilities(model)
        exact = outcome.ordering_probs
        assert outcome.partition.tie_count > 0
        assert mc.tie_count == 0
        for ordering in set(exact) | set(mc.ordering_counts):
            p = exact.get(ordering, 0.0)
            freq = mc.ordering_counts.get(ordering, 0) / n
            assert abs(freq - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n), ordering
