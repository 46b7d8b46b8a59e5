"""Path simulation, trajectory bundles, and the Monte Carlo tally."""

import collections
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import voteflow
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
from voteflow import model as model_module
from voteflow import outcomes as outcomes_module
from voteflow import simulation as simulation_module
from voteflow.errors import ValidationError
from voteflow.model import _log_weight

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
        # the labels come from a stream of their own, whatever the path length
        short = simulate_paths(polarised_model, 8, 5, seed=7)
        np.testing.assert_array_equal(short.latent, large.latent)

    @pytest.mark.parametrize("n_paths", [1, 10_000])
    def test_two_streams_whatever_the_path_count(self, polarised_model, monkeypatch, n_paths):
        indices = []
        path_rng = simulation_module._path_rng
        monkeypatch.setattr(
            simulation_module, "_path_rng", lambda seed, i: indices.append(i) or path_rng(seed, i)
        )
        simulate_paths(polarised_model, n_paths, 2, seed=3)
        assert indices == [0, 1]

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
        times = ensemble.times
        # each step's exact variance, which is also its drift per unit position
        dv = np.array([float(mp_variance(sched, a, b)) for a, b in zip(times, times[1:])])
        x = model.positions_arr[ensemble.latent][:, None]
        noise = np.diff(ensemble.signal_paths, axis=1) - dv[None, :] * x
        total = float(np.sum(noise**2))
        expected = n_paths * float(np.sum(dv))
        se = math.sqrt(2.0 * n_paths * float(np.sum(dv**2)))
        assert abs(total - expected) <= 3.0 * se

    def test_a_step_across_a_breakpoint_has_its_exact_law(self):
        # one step over both segments: the terminal signal is Normal(V, V)
        # with V = 0.1^2 / 2 + 10^2 / 2, not the first segment's rate alone
        sched = InfoSchedule.piecewise([0.5], [0.1, 10.0])
        model = ElectionModel((1.0, 2.0, 3.0), (1.0, 0.0, 0.0), 1.0, sched)
        n = 20_000
        terminal = simulate_paths(model, n, 1, seed=5).signal_paths[:, -1]
        v = 50.005
        assert abs(float(terminal.mean()) - v) <= 3.0 * math.sqrt(v / n)
        assert abs(float(terminal.var(ddof=1)) - v) <= 0.05 * v

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

    def test_tail_values_once_per_shared_end(self, monkeypatch):
        # the m live lead intervals tile the line, so each path-step needs a
        # tail value at each of their m - 1 finite ends under each of the J
        # laws with a positive weight: here m = 2 (the centre is dead) and
        # J = 3 (one zero prior), 3 per path-step, not 2 N^2 = 32
        model = ElectionModel((0.0, 1.0, 2.0, 3.0), (0.45, 0.05, 0.0, 0.5), 1.0, 0.5)
        lower, upper = model.lead_intervals
        m, j = np.count_nonzero(lower < upper), np.count_nonzero(model.priors_arr)
        ensemble = simulate_paths(model, 4, 50, seed=5)
        ends = []
        erfc = math.erfc
        monkeypatch.setattr(math, "erfc", lambda z: ends.append(z) or erfc(z))
        winprob_paths(ensemble)
        assert (m, j) == (2, 3)
        assert 0 < len(ends) <= (m - 1) * j * 4 * 50


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


def reference_tally(model, n_paths, seed):
    """Test-local exact tally: the package's seeded draws replayed, block by
    block from each block's own stream, each draw ranked on its own by a
    stable argsort of its negated log weights. Returns the ordering counts
    (keys ascending), the leader frequencies and the number of draws on
    which two finite weights are equal."""
    block = simulation_module.TALLY_BLOCK
    v = model.terminal_variance
    ys = []
    for i, lo in enumerate(range(0, n_paths, block)):
        size = min(block, n_paths - lo)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        held = rng.multinomial(size, model.priors_arr)
        ys.append(np.repeat(model.positions_arr * v, held) + math.sqrt(v) * rng.standard_normal(size))
    weight = _log_weight(model, np.concatenate(ys), v)
    order = np.argsort(-weight, axis=1, kind="stable")
    counts = collections.Counter(map(tuple, order.tolist()))
    ascending = np.sort(weight, axis=1)
    tied = (ascending[:, 1:] == ascending[:, :-1]) & np.isfinite(ascending[:, 1:])
    leaders = np.bincount(order[:, 0], minlength=model.n_candidates)
    return dict(sorted(counts.items())), leaders / n_paths, int(np.count_nonzero(tied.any(axis=1)))


def reference_races():
    """(model, draws, whether some draws must tie): random N = 2-8 races with
    zero priors, piecewise schedules and position scales from 1e-2 to 1e2;
    the N = 21 race; one whose weights near 1e16 carry rounding noise as
    large as the pairs' gaps, so that on 200,000 draws most draws tie and
    about a third of them start a run, block boundaries included; one whose
    x^2 V / 2 overflows, so that the left candidate's weight is NaN on its
    own draws and -inf on the others; and, past N = 32, where each draw is
    ranked instead, an N = 40 race with zero priors, an N = 257 race over
    several blocks, and an N = 40 race at rate 1e-100 that ties every draw."""
    rng = np.random.default_rng(2024)
    for i in range(30):
        base = random_model(rng, n=2 + i % 7, piecewise=i % 3 == 0)
        priors = base.priors_arr.copy()
        if i % 2:
            priors[rng.choice(base.n_candidates, size=base.n_candidates // 2, replace=False)] = 0.0
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        model = ElectionModel(
            tuple(scale * base.positions_arr), tuple(priors / priors.sum()), base.horizon, base.schedule
        )
        yield pytest.param(model, 10_000, False, id=f"random{i}")
    n = 21
    wide = ElectionModel(tuple(float(j) for j in range(n)), (1.0 / n,) * n, 1.0, 0.5)
    yield pytest.param(wide, 10_000, False, id="n21")
    noisy = ElectionModel((1e8, 1e8 + 1.0, 1e8 + 2.0), (1 / 3, 1 / 3, 1 / 3), 1.0, 1.0)
    yield pytest.param(noisy, 200_000, True, id="rounding-noise")
    overflow = ElectionModel((-1e190, 1e160), (0.5, 0.5), 1.0, 1e-34)
    yield pytest.param(overflow, 2_000, False, id="nan-weights")
    n = 40
    priors = np.where(np.arange(n) % 3 == 1, 0.0, 1.0)
    wide = ElectionModel(tuple(0.5 * j for j in range(n)), tuple(priors / priors.sum()), 1.0, 1.0)
    yield pytest.param(wide, 10_000, False, id="n40-zero-priors")
    n = 257
    wide = ElectionModel(tuple(float(j) for j in range(n)), (1.0 / n,) * n, 1.0, 0.5)
    yield pytest.param(wide, 3_000, False, id="n257")
    n = 40
    flat = ElectionModel(tuple(float(j) for j in range(n)), (1.0 / n,) * n, 1.0, 1e-100)
    yield pytest.param(flat, 1_000, True, id="n40-rate-1e-100")


class TestMonteCarloTally:
    @pytest.mark.parametrize("model, n, ties", reference_races())
    def test_matches_the_exact_reference_tally(self, model, n, ties):
        # equal, not within Monte Carlo error: a run boundary the tally
        # missed would move draws between orderings
        with np.errstate(over="ignore", invalid="ignore"):  # the overflowing race
            mc = monte_carlo_win_probabilities(model, n, seed=900)
            counts, win_freqs, tie_count = reference_tally(model, n, seed=900)
        assert list(mc.ordering_counts.items()) == list(counts.items())
        np.testing.assert_array_equal(mc.win_freqs, win_freqs)
        assert mc.tie_count == tie_count
        assert tie_count > 0 or not ties

    @pytest.mark.parametrize("extra", [-1, 0, 1, simulation_module.TALLY_BLOCK + 3],
                             ids=["block-1", "block", "block+1", "2-blocks+3"])
    def test_blocks_match_the_reference_whatever_the_worker_count(
        self, polarised_model, monkeypatch, extra
    ):
        # one block short of, at, and past the block size, and three blocks;
        # the blocks' tallies are added in block order, so neither a pool
        # of one worker nor one of more workers than CPUs moves a count
        n = simulation_module.TALLY_BLOCK + extra
        counts, win_freqs, tie_count = reference_tally(polarised_model, n, seed=901)
        for cpus in (None, 1, 8):
            if cpus is not None:
                monkeypatch.setattr(simulation_module.os, "cpu_count", lambda cpus=cpus: cpus)
            mc = monte_carlo_win_probabilities(polarised_model, n, seed=901)
            assert list(mc.ordering_counts.items()) == list(counts.items())
            np.testing.assert_array_equal(mc.win_freqs, win_freqs)
            assert mc.tie_count == tie_count

    @pytest.mark.parametrize("model, ignored", [
        # x^2 V / 2 overflows, as in reference_races
        pytest.param(ElectionModel((-1e190, 1e160), (0.5, 0.5), 1.0, 1e-34),
                     {"over": "ignore", "invalid": "ignore"}, id="nan-weights"),
        pytest.param(ElectionModel((0.0, 1.0, 2.0, 3.0), (0.5, 0.0, 0.0, 0.5), 1.0, 1.0),
                     {}, id="two-zero-priors"),
    ])
    def test_every_block_runs_under_the_callers_error_state(self, model, ignored):
        # numpy's error state is per thread: a block on a worker thread that
        # ran under numpy's defaults would warn where the caller ignores
        n = 2 * simulation_module.TALLY_BLOCK + 5
        with warnings.catch_warnings(), np.errstate(**ignored):
            warnings.simplefilter("error")
            mc = monte_carlo_win_probabilities(model, n, seed=902)
            counts, win_freqs, tie_count = reference_tally(model, n, seed=902)
        assert list(mc.ordering_counts.items()) == list(counts.items())
        np.testing.assert_array_equal(mc.win_freqs, win_freqs)
        assert mc.tie_count == tie_count

    def test_memory_does_not_grow_with_the_draws(self, polarised_model, monkeypatch):
        # one pass over 2^23 draws would hold about 128 MB of numpy
        # buffers; blocks of TALLY_BLOCK draws on two workers peak near 5 MB
        monkeypatch.setattr(simulation_module.os, "cpu_count", lambda: 2)
        tracemalloc.start()
        try:
            mc = monte_carlo_win_probabilities(polarised_model, 1 << 23, seed=903)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(mc.ordering_counts.values()) == 1 << 23
        assert peak < 10 << 20

    @pytest.mark.parametrize("model", [
        pytest.param(ElectionModel((0.0, 1.0, 2.0, 3.0), (0.3, 0.2, 0.0, 0.5), 1.0, 1.0), id="zero-prior"),
        pytest.param(ElectionModel((1e8, 1e8 + 1.0, 1e8 + 2.0), (1 / 3, 1 / 3, 1 / 3), 1.0, 1.0),
                     id="rounding-noise"),
    ])
    @pytest.mark.parametrize("extra", [-1, 0, 1], ids=["leaf-1", "leaf", "leaf+1"])
    def test_blocks_near_one_leaf_match_the_reference(self, model, extra):
        # one draw, and a block one short of, at and past a leaf: a block
        # that is a single stretch, or splits into two unequal ones
        for n in (1, simulation_module.TALLY_LEAF + extra):
            mc = monte_carlo_win_probabilities(model, n, seed=904)
            counts, win_freqs, tie_count = reference_tally(model, n, seed=904)
            assert list(mc.ordering_counts.items()) == list(counts.items())
            np.testing.assert_array_equal(mc.win_freqs, win_freqs)
            assert mc.tie_count == tie_count

    @pytest.mark.parametrize("priors, ordering", [
        ((1 / 3, 1 / 3, 1 / 3), (0, 1, 2)),
        ((0.25, 0.25, 0.0, 0.5), (3, 0, 1, 2)),
    ])
    def test_weights_that_collapse_to_the_priors_tie_every_draw(self, priors, ordering):
        # at rate 1e-100 every signal term is lost beside log p, so equal
        # priors tie on every draw and rank by index; a zero prior ranks last
        model = ElectionModel(tuple(float(j) for j in range(len(priors))), priors, 1.0, 1e-100)
        n = 5_000
        mc = monte_carlo_win_probabilities(model, n, seed=26)
        assert mc.tie_count == n
        assert mc.ordering_counts == {ordering: n}

    @pytest.mark.parametrize("n", [4, 40])
    def test_two_zero_priors_tally_without_warning(self, n):
        # both zero-prior weights are -inf, and -inf - -inf is NaN; the two
        # live candidates are the outer ones, and the dead rank last by index
        priors = (0.5,) + (0.0,) * (n - 2) + (0.5,)
        model = ElectionModel(tuple(float(j) for j in range(n)), priors, 1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mc = monte_carlo_win_probabilities(model, 10_000, seed=25)
        dead = tuple(range(1, n - 1))
        assert set(mc.ordering_counts) == {(0, n - 1, *dead), (n - 1, 0, *dead)}
        assert mc.tie_count == 0

    def test_never_reads_the_partition(self, monkeypatch):
        # the tally's runs look like the partition's cells; it checks that
        # partition, so it must reach the orderings without it
        def forbidden(*args, **kwargs):
            raise AssertionError("the tally read the partition")

        monkeypatch.setattr(ElectionModel, "crossing_table", property(forbidden))
        monkeypatch.setattr(ElectionModel, "lead_intervals", property(forbidden))
        for module, name in [
            (model_module, "_crossings"), (outcomes_module, "_crossings"),
            (model_module, "_lead_intervals"), (outcomes_module, "_lead_intervals"),
            (outcomes_module, "ordering_partition"), (voteflow, "ordering_partition"),
            (simulation_module, "_lead_masses"),
        ]:
            monkeypatch.setattr(module, name, forbidden)
        model = ElectionModel((0.0, 1.0, 2.0, 3.0), (0.3, 0.2, 0.0, 0.5), 1.0, 1.0)
        mc = monte_carlo_win_probabilities(model, 10_000, seed=27)
        assert sum(mc.ordering_counts.values()) == 10_000

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


@st.composite
def scaled_races(draw):
    """Races with one position scale from 1e-3 to 1e3 and some zero priors."""
    n = draw(st.integers(2, 8))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    gaps = draw(st.lists(st.floats(0.05, 2.0), min_size=n - 1, max_size=n - 1))
    positions = scale * (draw(st.floats(-3.0, 3.0)) + np.concatenate([[0.0], np.cumsum(gaps)]))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    zeroed = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    if not zeroed.all():
        weights[zeroed] = 0.0
    rate = draw(st.floats(0.05, 5.0))
    return ElectionModel(tuple(positions), tuple(weights / weights.sum()), 1.0, rate)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scaled_races(), st.integers(0, 2**31 - 1))
def test_tally_equals_ranking_every_draw(model, seed):
    # the tally ranks only the draws it cannot certify; each draw ranked
    # alone must give the same counts, leaders and ties
    mc = monte_carlo_win_probabilities(model, 2_000, seed)
    counts, win_freqs, tie_count = reference_tally(model, 2_000, seed)
    assert list(mc.ordering_counts.items()) == list(counts.items())
    np.testing.assert_array_equal(mc.win_freqs, win_freqs)
    assert mc.tie_count == tie_count
