"""Effective-channel aggregation of correlated information sources."""

import math

import numpy as np
import pytest

from voteflow import SourceSet, aggregate_n, aggregate_two, posterior_support
from voteflow import ElectionModel
from voteflow.errors import NotPositiveDefinite, PerfectCorrelation, ValidationError


def random_spd_correlation(rng, n):
    """Random correlation matrix via normalized Gram matrix."""
    a = rng.normal(size=(n, n + 2))
    g = a @ a.T
    d = np.sqrt(np.diag(g))
    return g / np.outer(d, d)


class TestAggregateTwo:
    def test_independent_sources_add_in_quadrature(self):
        assert aggregate_two(1.0, 1.0, 0.0).sigma == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_strongly_correlated_pair(self):
        channel = aggregate_two(1.0, 1.0, 0.99)
        assert channel.sigma**2 == pytest.approx(2.0 / 1.99, rel=1e-12)

    def test_redundant_second_source_adds_nothing(self):
        # sigma2 = rho * sigma1 makes the residual source rate zero
        rng = np.random.default_rng(1)
        for _ in range(20):
            s1 = float(rng.uniform(0.1, 3.0))
            rho = float(rng.uniform(0.0, 0.9))
            channel = aggregate_two(s1, rho * s1, rho)
            assert channel.sigma == pytest.approx(s1, rel=1e-12)

    def test_perfect_correlation_rejected(self):
        for rho in (1.0, -1.0, 1.2):
            with pytest.raises(PerfectCorrelation):
                aggregate_two(1.0, 1.0, rho)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_two(-1.0, 1.0, 0.0)

    @pytest.mark.parametrize("rate", [math.inf, math.nan])
    def test_rate_that_is_not_finite_rejected(self, rate):
        # an infinite or NaN rate would read sigma nan with nan weights
        for pair in ((rate, 1.0), (1.0, rate)):
            with pytest.raises(ValidationError, match="finite and >= 0"):
                aggregate_two(*pair, 0.2)

    def test_all_zero_rates_give_silent_channel(self):
        channel = aggregate_two(0.0, 0.0, 0.3)
        assert channel.sigma == 0.0
        np.testing.assert_array_equal(channel.noise_weights, np.zeros(2))


class TestAggregateN:
    def test_identity_correlation_pythagoras(self):
        channel = aggregate_n(SourceSet(np.array([3.0, 4.0]), np.eye(2)))
        assert channel.sigma == 5.0

    def test_diagonal_correlation_sums_squares_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            rates = rng.uniform(0.0, 3.0, size=n)
            channel = aggregate_n(SourceSet(rates, np.eye(n)))
            assert channel.sigma**2 == pytest.approx(float(np.sum(rates**2)), rel=1e-15)

    def test_matches_pairwise_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            s1, s2 = rng.uniform(0.0, 3.0, size=2)
            rho = float(rng.uniform(-0.95, 0.95))
            corr = np.array([[1.0, rho], [rho, 1.0]])
            general = aggregate_n(SourceSet(np.array([s1, s2]), corr))
            pairwise = aggregate_two(float(s1), float(s2), rho)
            assert general.sigma == pytest.approx(pairwise.sigma, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(
                general.noise_weights, pairwise.noise_weights, rtol=1e-10, atol=1e-12
            )

    def test_noise_weights_are_standard(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            corr = random_spd_correlation(rng, n)
            rates = rng.uniform(0.05, 3.0, size=n)
            sources = SourceSet(rates, corr)
            channel = aggregate_n(sources)
            w = channel.noise_weights
            assert float(w @ sources.correlation @ w) == pytest.approx(1.0, abs=1e-10)
            # reconstructed signal coefficient equals the effective rate
            assert float(sources.rates @ w) == pytest.approx(channel.sigma, rel=1e-10)

    def test_gradient_matches_finite_differences(self):
        # monotonicity in a single source rate holds wherever the
        # corresponding precision-weighted rate is positive
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(100):
            n = int(rng.integers(2, 5))
            corr = random_spd_correlation(rng, n)
            rates = rng.uniform(0.05, 3.0, size=n)
            channel = aggregate_n(SourceSet(rates, corr))
            k = int(rng.integers(n))
            h = 1e-6
            bumped = rates.copy()
            bumped[k] += h
            sigma_up = aggregate_n(SourceSet(bumped, corr)).sigma
            fd = (sigma_up - channel.sigma) / h
            assert fd == pytest.approx(channel.rate_gradient[k], abs=5e-6)
            if channel.rate_gradient[k] > 1e-6:
                assert sigma_up > channel.sigma
                checked += 1
        assert checked > 50

    @pytest.mark.parametrize("k", [-1000, -7, 1, 600, 900])
    def test_power_of_two_rates_scale_sigma_alone(self, k):
        # sigma is homogeneous of degree 1 in the rates and the weights of
        # degree 0; a power of two scales every step exactly
        rng = np.random.default_rng(k + 2000)
        sources = SourceSet(rng.uniform(0.1, 3.0, size=4), random_spd_correlation(rng, 4))
        scaled = SourceSet(sources.rates * 2.0**k, sources.correlation)
        channel, moved = aggregate_n(sources), aggregate_n(scaled)
        assert moved.sigma == math.ldexp(channel.sigma, k)
        np.testing.assert_array_equal(moved.noise_weights, channel.noise_weights)

    def test_not_positive_definite_rejected(self):
        corr = np.array(
            [[1.0, 0.9, 0.9], [0.9, 1.0, -0.5], [0.9, -0.5, 1.0]]
        )
        with pytest.raises(NotPositiveDefinite):
            SourceSet(np.ones(3), corr)

    def test_perfect_pairwise_correlation_rejected(self):
        corr = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(PerfectCorrelation):
            SourceSet(np.ones(2), corr)

    def test_asymmetric_matrix_rejected(self):
        corr = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(ValidationError):
            SourceSet(np.ones(2), corr)

    def test_offdiagonal_unit_diagonal_enforced(self):
        corr = np.array([[1.1, 0.0], [0.0, 1.0]])
        with pytest.raises(ValidationError):
            SourceSet(np.ones(2), corr)


class TestFiltrationEquivalence:
    def test_pairwise_posterior_equals_effective_posterior(self):
        # two correlated sources observed jointly vs the single effective
        # process built from the same noise: the posterior over a binary
        # label must coincide (the effective signal is the sufficient
        # statistic of the pair)
        rng = np.random.default_rng(6)
        s1, s2, rho = 0.8, 1.3, 0.45
        channel = aggregate_two(s1, s2, rho)
        positions = (0.0, 1.0)
        prior = 0.62
        model = ElectionModel(positions, (prior, 1.0 - prior), 1.0, channel.sigma)

        n_steps = 64
        dt = 1.0 / n_steps
        for _ in range(20):
            label = positions[int(rng.random() > prior)]
            b1 = np.concatenate([[0.0], np.cumsum(rng.normal(scale=math.sqrt(dt), size=n_steps))])
            b_ind = np.concatenate([[0.0], np.cumsum(rng.normal(scale=math.sqrt(dt), size=n_steps))])
            b2 = rho * b1 + math.sqrt(1.0 - rho * rho) * b_ind
            t = 1.0
            xi1 = s1 * label * t + b1[-1]
            xi2 = s2 * label * t + b2[-1]

            # two-channel Bayes update with the joint Gaussian likelihood
            corr = np.array([[1.0, rho], [rho, 1.0]])
            prec = np.linalg.inv(corr * t)
            logl = []
            for x in positions:
                resid = np.array([xi1 - s1 * x * t, xi2 - s2 * x * t])
                logl.append(-0.5 * float(resid @ prec @ resid))
            w = np.array([prior, 1.0 - prior]) * np.exp(logl - np.max(logl))
            pair_posterior = w / w.sum()

            # effective single process built from the same noises
            noise = channel.noise_weights @ np.array([b1[-1], b2[-1]])
            xi_eff = channel.sigma * label * t + noise
            y_eff = channel.sigma * xi_eff
            eff_posterior = posterior_support(model, y_eff, t)
            np.testing.assert_allclose(eff_posterior, pair_posterior, atol=1e-9)
