"""Tests of the benchmark itself: the oracle against the paper's numbers,
and every workload check against deliberately corrupted outputs.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import voteflow  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402

WEEK = 1.0 / 52.0


def race(n: int, seed: int = 3, **kw) -> inputs.Race:
    return inputs.make_race(random.Random(seed), n, **kw)


def swap_top(ranking: dict) -> dict:
    """Swap the first two places of the most likely ranking."""
    key = max(ranking, key=ranking.get)
    sep = ">" if isinstance(key, str) else None
    parts = key.split(sep) if sep else list(key)
    parts[0], parts[1] = parts[1], parts[0]
    new = sep.join(parts) if sep else tuple(parts)
    out = dict(ranking)
    p = out.pop(key)
    out[new] = out.get(new, 0.0) + p
    return out


# --------------------------------------------------------------------------
# the oracle
# --------------------------------------------------------------------------

def test_paper_two_candidate_numbers():
    # the paper quotes four digits: 0.8868 (0.886869...) and 0.9981 (0.998109...)
    assert 0.8868 <= oracle.two_candidate_win_probability(0.55, 1.2, WEEK) < 0.8869
    assert 0.9981 <= oracle.two_candidate_win_probability(0.55, 0.5, WEEK) < 0.9982


@pytest.mark.parametrize("p, sigma, horizon", [(0.55, 1.2, WEEK), (0.55, 0.5, WEEK), (0.3, 0.7, 2.0)])
def test_lead_interval_reduces_to_two_candidate_formula(p, sigma, horizon):
    win = oracle.win_probabilities((0.0, 1.0), (p, 1.0 - p), sigma * sigma * horizon)
    assert abs(win[0] - oracle.two_candidate_win_probability(p, sigma, horizon)) < 1e-14
    assert abs(win.sum() - 1.0) < 1e-14


def test_centre_bound_brackets_threshold_predicate():
    positions, priors = (1.0, 2.0, 3.0), (0.38, 0.26, 0.36)
    bound = oracle.centre_bound(positions, priors, 1.0)
    assert round(bound, 4) == 0.8396
    assert oracle.centre_dead(positions, priors, 1.0, 0.999 * bound)
    assert not oracle.centre_dead(positions, priors, 1.0, 1.001 * bound)
    assert oracle.centre_bound(positions, (0.2, 0.6, 0.2), 1.0) is None


@pytest.mark.parametrize("n", [2, 3, 5, 6])
def test_ranking_distribution_marginals_are_win_probabilities(n):
    r = race(n, seed=n, zero_prior=n > 2)
    v = workloads.variance(r)
    ranking = oracle.ranking_distribution(r.positions, r.priors, v)
    first = np.zeros(n)
    for ordering, p in ranking.items():
        first[ordering[0]] += p
    assert abs(sum(ranking.values()) - 1.0) < 1e-12
    assert np.max(np.abs(first - oracle.win_probabilities(r.positions, r.priors, v))) < 1e-12


def test_peak_support_is_the_maximum_of_the_support_curve():
    positions, priors, v = (1.0, 2.0, 3.0, 4.0), (0.3, 0.2, 0.25, 0.25), 0.8
    peak = oracle.peak_support(positions, priors, v, 1)
    ys = np.linspace(-20.0, 20.0, 40001)
    curve = [np.exp(oracle.log_support(positions, priors, v, y, 1)) for y in ys]
    assert peak >= max(curve) - 1e-12
    assert peak - max(curve) < 1e-6


def test_quadratic_variation_recovers_the_rate():
    r = inputs.Race((0.0, 1.0, 2.0), (0.3, 0.4, 0.3), 1.0, (), (1.5,))
    rows = inputs.poll_series(random.Random(0), r, 4000)
    est = oracle.qv_sigma([t for t, _ in rows], [s for _, s in rows], r.positions)
    assert abs(est - 1.5) < 0.15


# --------------------------------------------------------------------------
# every workload check rejects corrupted outputs
# --------------------------------------------------------------------------

def test_queries_check_rejects_corruption():
    r = race(4)
    win, ranking, dead = workloads.ask(r)
    workloads.check_answer(r, (win, ranking, dead))
    off = win.copy()
    off[1] += 1e-9
    with pytest.raises(CheckFailed):
        workloads.check_answer(r, (off, ranking, dead))
    with pytest.raises(CheckFailed):
        workloads.check_answer(r, (win, swap_top(ranking), dead))


def test_queries_check_rejects_wrong_dead_zone_bound():
    r = inputs.Race((1.0, 2.0, 3.0), (0.38, 0.26, 0.36), 1.0, (), (0.25,))
    win, ranking, dead = workloads.ask(r)
    workloads.check_answer(r, (win, ranking, dead))
    (is_dead, bound), = dead
    with pytest.raises(CheckFailed):
        workloads.check_answer(r, (win, ranking, [(not is_dead, bound)]))
    with pytest.raises(CheckFailed):
        workloads.check_answer(r, (win, ranking, [(is_dead, bound * (1.0 + 1e-5))]))


def cli_doc(tmp_path, command, cfg, fmt, *extra):
    config = inputs.write_json(tmp_path / "config.json", cfg)
    out = tmp_path / f"out.{fmt}"
    code, _ = workloads.call_cli(workloads.args(command, config, out, fmt, *extra))
    assert code == 0
    text = out.read_text()
    return workloads.strict_json(text) if fmt == "json" else workloads.strict_csv(text)


def test_forecast_check_rejects_corruption(tmp_path):
    r = race(4, piecewise=True)
    names = inputs.names_for(r.n)
    doc = cli_doc(tmp_path, "forecast", inputs.race_config(r), "json")
    workloads.check_forecast(r, names, "json", doc)
    off = json.loads(json.dumps(doc))
    off["win_probabilities"][names[0]] += 1e-9
    with pytest.raises(CheckFailed):
        workloads.check_forecast(r, names, "json", off)
    swapped = dict(doc, ordering_probabilities=swap_top(doc["ordering_probabilities"]))
    with pytest.raises(CheckFailed):
        workloads.check_forecast(r, names, "json", swapped)


def test_sweep_checks_reject_corruption(tmp_path):
    r = inputs.Race((1.0, 2.0, 3.0), (0.38, 0.26, 0.36), 1.0, (), (1.0,))
    doc = cli_doc(tmp_path, "sweep", inputs.race_config(r), "csv", "--axis", "sigma")
    workloads.check_sigma_sweep(r, doc)
    doc.rows[30][2] = repr(float(doc.rows[30][2]) + 1e-9)
    with pytest.raises(CheckFailed):
        workloads.check_sigma_sweep(r, doc)
    doc = cli_doc(tmp_path, "sweep", inputs.race_config(r, sweep={"prior_grid_step": 0.05}), "csv",
                  "--axis", "priors")
    workloads.check_prior_sweep(r, doc)
    doc.rows[40][3], doc.rows[40][4] = doc.rows[40][4], doc.rows[40][3]
    with pytest.raises(CheckFailed):
        workloads.check_prior_sweep(r, doc)


def test_deadzone_check_rejects_corruption(tmp_path):
    r = race(3)
    names = inputs.names_for(3)
    doc = cli_doc(tmp_path, "deadzone", inputs.race_config(r), "json")
    workloads.check_deadzone(r, names, "json", doc)
    doc["dead_zones"][names[1]]["is_dead"] = not doc["dead_zones"][names[1]]["is_dead"]
    with pytest.raises(CheckFailed):
        workloads.check_deadzone(r, names, "json", doc)


def test_paths_check_rejects_corruption(tmp_path):
    r = race(4, piecewise=True)
    cfg = inputs.race_config(r, simulation={"n_paths": 2, "n_steps": 20, "seed": 5})
    doc = cli_doc(tmp_path, "simulate", cfg, "json")
    workloads.check_paths(r, "json", doc)
    off = json.loads(json.dumps(doc))
    off["win_probs"][1][7][2] += 1e-9
    with pytest.raises(CheckFailed):
        workloads.check_paths(r, "json", off)
    swapped = json.loads(json.dumps(doc))
    row = swapped["win_probs"][0][3]
    top = int(np.argmax(row))
    row[top], row[top - 1] = row[top - 1], row[top]
    with pytest.raises(CheckFailed):
        workloads.check_paths(r, "json", swapped)


def test_tally_check_rejects_corruption():
    r = race(3)
    n = 20_000
    outcome = voteflow.monte_carlo_win_probabilities(workloads.model(r), n, 1)
    workloads.check_tally(r, outcome, n)
    counts = outcome.ordering_counts
    top, low = max(counts, key=counts.get), min(counts, key=counts.get)
    swapped = dict(counts)
    swapped[top], swapped[low] = counts[low], counts[top]
    with pytest.raises(CheckFailed):
        workloads.check_tally(r, type("Outcome", (), {"ordering_counts": swapped,
                                                      "win_freqs": outcome.win_freqs}), n)
    with pytest.raises(CheckFailed):
        workloads.check_tally(r, outcome, n + 1)


# --------------------------------------------------------------------------
# the tracer
# --------------------------------------------------------------------------

def test_tracer_counts_spans_and_restores_names(monkeypatch):
    original = voteflow.win_probabilities
    monkeypatch.setitem(spans.TRACED, "outcomes", [*spans.TRACED["outcomes"], "removed_in_a_refactor"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        r = race(3)
        workloads.ask(r)
        figures = tracer.metrics(1.0)
    finally:
        tracer.uninstall()
    assert voteflow.win_probabilities is original
    assert figures["outcomes.win_probabilities.calls"] == 1
    assert figures["outcomes.ordering_partition.calls"] == 3  # direct, via win_probabilities, via is_dead_zone
    assert figures["model.ElectionModel.calls"] >= 1
    assert figures["strategy.dead_zone_sigma_bound.thresholds_per_call"] > 0
    assert tracer.calls["outcomes.removed_in_a_refactor"] == 0
    assert all(figures[f"{s}.self_ms"] >= 0.0 for s in spans.SPANS)
