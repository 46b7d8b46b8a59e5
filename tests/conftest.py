"""Shared fixtures and independent oracles for the test suite."""

import numpy as np
import pytest

from voteflow import ElectionModel, InfoSchedule

# Reference race used throughout: slightly polarised electorate, centre
# candidate trailing, one year to the election.
POLARISED_X = (1.0, 2.0, 3.0)
POLARISED_P = (0.38, 0.26, 0.36)


@pytest.fixture
def polarised_model():
    return ElectionModel(POLARISED_X, POLARISED_P, 1.0, 1.0)


@pytest.fixture
def polarised_low_info():
    return ElectionModel(POLARISED_X, POLARISED_P, 1.0, 0.25)


@pytest.fixture
def built_models(monkeypatch):
    """Every ElectionModel constructed from here to the end of the test."""
    built = []
    post_init = ElectionModel.__post_init__
    monkeypatch.setattr(
        ElectionModel, "__post_init__", lambda self: built.append(self) or post_init(self)
    )
    return built


def random_model(rng, n=None, piecewise=False, min_gap=0.2):
    """A random valid model: sorted distinct positions, Dirichlet priors."""
    if n is None:
        n = int(rng.integers(2, 6))
    gaps = min_gap + rng.uniform(0.0, 1.5, size=n - 1)
    start = rng.uniform(-2.0, 2.0)
    positions = start + np.concatenate([[0.0], np.cumsum(gaps)])
    priors = rng.dirichlet(np.full(n, 2.0))
    horizon = rng.uniform(0.2, 2.0)
    if piecewise:
        k = int(rng.integers(1, 4))
        breaks = np.sort(rng.uniform(0.05, 0.95, size=k)) * horizon
        rates = rng.uniform(0.2, 2.0, size=k + 1)
        schedule = InfoSchedule.piecewise(breaks.tolist(), rates.tolist())
    else:
        schedule = InfoSchedule.constant(float(rng.uniform(0.15, 2.0)))
    return ElectionModel(tuple(positions), tuple(priors), horizon, schedule)


def golden_section_max(f, lo, hi, tol=1e-12):
    """Maximize a unimodal scalar function on [lo, hi] by golden section."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def terminal_ordering_frequencies(model, n_draws, rng):
    """Independent Monte Carlo tally of terminal rankings.

    Draws the label from the priors and the terminal accumulated signal from
    its exact Gaussian law, then ranks the terminal posterior; kept separate
    from the package's own tally so the two can check each other.
    """
    from voteflow import posterior_support

    x = model.positions_arr
    v = model.terminal_variance
    labels = rng.choice(model.n_candidates, size=n_draws, p=model.priors_arr)
    y = x[labels] * v + np.sqrt(v) * rng.standard_normal(n_draws)
    support = posterior_support(model, y, model.horizon)
    orders = np.argsort(-support, axis=1, kind="stable")
    freqs = {}
    rows, counts = np.unique(orders, axis=0, return_counts=True)
    for row, c in zip(rows, counts):
        freqs[tuple(int(i) for i in row)] = c / n_draws
    return freqs


def assert_within_mc_error(closed, observed, n_draws, z=3.0, label=""):
    """|observed - closed| <= z * binomial SE under the closed-form value."""
    se = np.sqrt(max(closed * (1.0 - closed), 0.0) / n_draws)
    slack = z * se + 2.0 / n_draws  # +2/n guards zero-SE corners (p in {0,1})
    assert abs(observed - closed) <= slack, (
        f"{label}: closed={closed:.6g} observed={observed:.6g} "
        f"tolerance={slack:.3g} (n={n_draws})"
    )
