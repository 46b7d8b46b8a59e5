"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line
and runtime of every criterion even when all of them pass.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from voteflow import (
    ElectionModel,
    SourceSet,
    aggregate_n,
    aggregate_two,
    dead_zone_sigma_bound,
    estimate_sigma_historic,
    is_dead_zone,
    max_support_point,
    monte_carlo_win_probabilities,
    posterior_paths,
    posterior_support,
    simulate_paths,
    two_candidate_win_probability,
    win_probabilities,
)
from voteflow.calibration import PollSeries
from voteflow.cli import main

from conftest import POLARISED_P, POLARISED_X, golden_section_max, random_model


def report(criterion: str, failures: list, started: float) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance] {criterion}: {status} ({time.perf_counter() - started:.1f}s)")
    assert not failures, f"{criterion}: " + "; ".join(str(f) for f in failures[:5])


def test_criterion_01_two_candidate_paper_numbers():
    started = time.perf_counter()
    failures = []
    high_info = two_candidate_win_probability(0.55, 1.2, 1.0 / 52.0)
    low_info = two_candidate_win_probability(0.55, 0.5, 1.0 / 52.0)
    if abs(high_info - 0.8868) > 0.005:
        failures.append(f"sigma=1.2 gave {high_info}, want 0.8868 +- 0.005")
    if abs(low_info - 0.9981) > 0.001:
        failures.append(f"sigma=0.5 gave {low_info}, want 0.9981 +- 0.001")
    report("criterion 1 (two-candidate paper numbers)", failures, started)


def test_criterion_02_dead_zone_exact_zero():
    started = time.perf_counter()
    failures = []
    locked = ElectionModel(POLARISED_X, POLARISED_P, 1.0, 0.25)
    open_race = ElectionModel(POLARISED_X, POLARISED_P, 1.0, 1.0)
    locked_prob = float(win_probabilities(locked).win_probs[1])
    open_prob = float(win_probabilities(open_race).win_probs[1])
    if locked_prob != 0.0:
        failures.append(f"sigma=0.25 centre win probability {locked_prob}, want exactly 0")
    if not open_prob > 0.0:
        failures.append(f"sigma=1 centre win probability {open_prob}, want > 0")
    report("criterion 2 (dead zone exactly zero, then positive)", failures, started)


def test_criterion_03_normalization_suite():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(301)
    for trial in range(1000):
        model = random_model(rng, n=2 + trial % 4)
        total = math.fsum(win_probabilities(model).ordering_probs.values())
        if abs(total - 1.0) > 1e-10:
            failures.append(f"trial {trial}: ordering probabilities sum to {total!r}")
    report("criterion 3 (1000-model normalization suite)", failures, started)


def test_criterion_04_monte_carlo_oracle():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(401)
    n_draws = 1_000_000
    for trial in range(50):
        model = random_model(rng, n=2 + trial % 3)
        closed = win_probabilities(model).ordering_probs
        mc = monte_carlo_win_probabilities(model, n_draws, seed=4000 + trial)
        observed = mc.ordering_freqs
        for perm in itertools.permutations(range(model.n_candidates)):
            p = closed.get(perm, 0.0)
            f = observed.get(perm, 0.0)
            tolerance = 3.0 * math.sqrt(p * (1.0 - p) / n_draws) + 2.0 / n_draws
            if abs(f - p) > tolerance:
                failures.append(
                    f"trial {trial} perm {perm}: closed {p:.6g} vs mc {f:.6g}"
                )
    report("criterion 4 (Monte Carlo oracle, 50 models x 1e6 draws)", failures, started)


def test_criterion_05_invariance_suite():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(501)
    for trial in range(100):
        model = random_model(rng)
        base = win_probabilities(model).win_probs
        c = float(rng.uniform(-5.0, 5.0))
        lam = float(rng.uniform(0.2, 5.0))
        shifted = ElectionModel(
            tuple(x + c for x in model.positions), model.priors, model.horizon, model.schedule
        )
        scaled = ElectionModel(
            tuple(lam * x for x in model.positions),
            model.priors,
            model.horizon,
            model.schedule.rates[0] / lam,
        )
        shift_err = float(np.max(np.abs(win_probabilities(shifted).win_probs - base)))
        scale_err = float(np.max(np.abs(win_probabilities(scaled).win_probs - base)))
        if shift_err > 1e-12:
            failures.append(f"trial {trial}: shift error {shift_err:.3g}")
        if scale_err > 1e-12:
            failures.append(f"trial {trial}: scaling error {scale_err:.3g}")
    report("criterion 5 (label-shift and joint-scaling invariance)", failures, started)


def test_criterion_06_special_case_consistency():
    started = time.perf_counter()
    failures = []
    p_grid = np.linspace(0.02, 0.98, 30)
    sigma_grid = np.linspace(0.05, 3.0, 30)
    horizon_grid = (1.0 / 52.0, 0.25, 0.5, 1.0, 2.0)
    worst = 0.0
    for p in p_grid:
        for sigma in sigma_grid:
            for horizon in horizon_grid:
                direct = two_candidate_win_probability(float(p), float(sigma), horizon)
                engine = float(
                    win_probabilities(
                        ElectionModel((0.0, 1.0), (float(p), 1.0 - float(p)), horizon, float(sigma))
                    ).win_probs[0]
                )
                err = abs(direct - engine)
                worst = max(worst, err)
                if err > 1e-12:
                    failures.append(f"(p={p:.3f}, sigma={sigma:.3f}, T={horizon}): err {err:.3g}")
    report(f"criterion 6 (two-candidate consistency, worst error {worst:.2e})", failures, started)


def test_criterion_07_max_support_five_candidates():
    started = time.perf_counter()
    failures = []
    positions = (1.0, 2.0, 3.0, 4.0, 5.0)
    priors = (0.2, 0.2, 0.2, 0.2, 0.2)
    sigma_grid = tuple(0.2 * i for i in range(1, 11))
    for k in (1, 2, 3):
        previous = -1.0
        for sigma in sigma_grid:
            model = ElectionModel(positions, priors, 1.0, sigma)
            rep = max_support_point(model, k)
            if not rep.pi_max < 1.0:
                failures.append(f"k={k} sigma={sigma}: pi_max {rep.pi_max} not < 1")
            if rep.residual >= 1e-10:
                failures.append(f"k={k} sigma={sigma}: residual {rep.residual:.3g}")
            if not rep.pi_max > previous:
                failures.append(f"k={k} sigma={sigma}: pi_max not increasing")
            previous = rep.pi_max
            y_gold = golden_section_max(
                lambda y: float(posterior_support(model, y, 1.0)[k]),
                rep.y_star - 5.0,
                rep.y_star + 5.0,
            )
            pi_gold = float(posterior_support(model, y_gold, 1.0)[k])
            if abs(rep.pi_max - pi_gold) > 1e-8:
                failures.append(
                    f"k={k} sigma={sigma}: root solve {rep.pi_max!r} vs golden {pi_gold!r}"
                )
    report("criterion 7 (five-candidate max support)", failures, started)


def test_criterion_08_dead_zone_bound_bracketing():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(801)
    tested = 0
    while tested < 200:
        p2 = float(rng.uniform(0.02, 0.3))
        split = float(rng.uniform(0.3, 0.7))
        p1 = (1.0 - p2) * split
        p3 = 1.0 - p2 - p1
        if p2 >= min(p1, p3):
            continue
        gaps = rng.uniform(0.3, 2.0, size=2)
        positions = (0.0, float(gaps[0]), float(gaps[0] + gaps[1]))
        priors = (p1, p2, p3)
        horizon = float(rng.uniform(0.3, 2.0))
        race = ElectionModel(positions, priors, horizon, 1.0)
        bound = dead_zone_sigma_bound(race)
        if bound is None:
            continue
        tested += 1
        below = is_dead_zone(race.with_schedule(0.99 * bound), 1)
        above = is_dead_zone(race.with_schedule(1.01 * bound), 1)
        if not below.is_dead:
            failures.append(f"config {tested}: alive at 0.99 * bound ({bound:.6g})")
        if above.is_dead:
            failures.append(f"config {tested}: dead at 1.01 * bound ({bound:.6g})")
    report("criterion 8 (dead-zone bound bracketing, 200 configs)", failures, started)


def test_criterion_09_aggregation():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(901)
    for trial in range(1000):
        s1, s2 = rng.uniform(0.0, 3.0, size=2)
        rho = float(rng.uniform(-0.95, 0.95))
        pairwise = aggregate_two(float(s1), float(s2), rho)
        general = aggregate_n(
            SourceSet(np.array([s1, s2]), np.array([[1.0, rho], [rho, 1.0]]))
        )
        err = abs(pairwise.sigma - general.sigma)
        if err > 1e-12 * max(1.0, pairwise.sigma):
            failures.append(f"trial {trial}: |{pairwise.sigma!r} - {general.sigma!r}| = {err:.3g}")
    exact = aggregate_n(SourceSet(np.array([3.0, 4.0]), np.eye(2))).sigma
    if exact != 5.0:
        failures.append(f"identity-correlation rates (3,4) gave {exact!r}, want exactly 5.0")
    report("criterion 9 (aggregation consistency, 1000 triples)", failures, started)


def test_criterion_10_calibration_recovery():
    started = time.perf_counter()
    failures = []
    for sigma_true in (0.25, 0.5, 1.0, 2.0):
        estimates = []
        for series_idx in range(20):
            model = ElectionModel(POLARISED_X, POLARISED_P, 1.0, sigma_true)
            ensemble = simulate_paths(model, 1, 10_000, seed=10_000 + series_idx)
            bundle = posterior_paths(ensemble)
            series = PollSeries(
                times=np.asarray(bundle.times),
                supports=bundle.support[0],
                positions=np.asarray(POLARISED_X),
            )
            estimates.append(estimate_sigma_historic(series).sigma)
        median = float(np.median(estimates))
        if abs(median - sigma_true) > 0.05 * sigma_true:
            failures.append(f"sigma={sigma_true}: median estimate {median:.4f}")
    report("criterion 10 (calibration recovery, 20 series x 4 rates)", failures, started)


def test_criterion_11_filter_martingale():
    started = time.perf_counter()
    failures = []
    model = ElectionModel(POLARISED_X, POLARISED_P, 1.0, 1.0)
    n = 1_000_000
    rng = np.random.default_rng(1101)
    labels = rng.choice(3, size=n, p=model.priors_arr)
    v = model.terminal_variance
    y = model.positions_arr[labels] * v + math.sqrt(v) * rng.standard_normal(n)
    support = posterior_support(model, y, model.horizon)
    for i in range(3):
        se = float(support[:, i].std(ddof=1)) / math.sqrt(n)
        dev = abs(float(support[:, i].mean()) - model.priors[i])
        if dev > 3.0 * se:
            failures.append(f"candidate {i}: |mean - prior| = {dev:.3g} > 3 se = {3 * se:.3g}")
    report("criterion 11 (filter martingale over 1e6 paths)", failures, started)


def _read_csv(path):
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(c) for c in ln.split(",")] for ln in lines[1:]]
    return header, np.asarray(rows)


def test_criterion_12_plot_data_emission(tmp_path):
    started = time.perf_counter()
    failures = []

    def cfg(payload, name):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    two_cands = [
        {"name": "zero", "position": 0.0, "prior": 0.5},
        {"name": "one", "position": 1.0, "prior": 0.5},
    ]
    three_cands = [
        {"name": "left", "position": 1.0, "prior": 0.38},
        {"name": "centre", "position": 2.0, "prior": 0.26},
        {"name": "right", "position": 3.0, "prior": 0.36},
    ]
    prior_grid = [[round(0.01 * i, 2), round(1.0 - 0.01 * i, 2)] for i in range(1, 100)]

    # winning likelihood vs current support, sparse and heavy information flow
    for sigma in (0.2, 1.2):
        out = tmp_path / f"win_vs_support_{sigma}.csv"
        rc = main([
            "sweep", "--axis", "priors", "--out", str(out),
            "--config", cfg({
                "candidates": two_cands, "horizon_years": 1.5, "sigma": sigma,
                "sweep": {"prior_grid": prior_grid},
            }, f"win_vs_support_{sigma}.json"),
        ])
        if rc != 0:
            failures.append(f"win_vs_support sigma={sigma}: exit {rc}")
            continue
        header, rows = _read_csv(out)
        p = rows[:, 0]
        w = rows[:, header.index("p_win_zero")]
        unsaturated = w < 1.0 - 1e-15  # at low rates the curve rounds to 1.0 early
        if not np.all(np.diff(w) >= 0.0) or not np.all(np.diff(w[unsaturated]) > 0.0):
            failures.append(f"win_vs_support sigma={sigma}: winning curve not monotone in p")
        at_half = w[np.isclose(p, 0.5)]
        if not np.allclose(at_half, 0.5, atol=1e-12):
            failures.append(f"win_vs_support sigma={sigma}: curve misses 0.5 at p=0.5 ({at_half})")
        if not (np.all(w[p > 0.5] > p[p > 0.5]) and np.all(w[p < 0.5] < p[p < 0.5])):
            failures.append(f"win_vs_support sigma={sigma}: curve does not amplify the leader")

    # win probability surface over the prior simplex: centre lockout region
    out = tmp_path / "prior_surface.csv"
    rc = main([
        "sweep", "--axis", "priors", "--out", str(out),
        "--config", cfg({
            "candidates": three_cands, "horizon_years": 1.0, "sigma": 1.0,
            "sweep": {"prior_grid_step": 0.05},
        }, "prior_surface.json"),
    ])
    if rc != 0:
        failures.append(f"prior_surface: exit {rc}")
    else:
        header, rows = _read_csv(out)
        centre = rows[:, header.index("p_win_centre")]
        if not np.any(centre == 0.0):
            failures.append("prior_surface: centre-candidate zero region is empty")
        if not np.any(centre > 0.0):
            failures.append("prior_surface: centre candidate never wins anywhere")

    # win probabilities vs information flow rate: zero plateau then positive
    out = tmp_path / "rate_sweep.csv"
    rc = main([
        "sweep", "--axis", "sigma", "--out", str(out),
        "--config", cfg({
            "candidates": three_cands, "horizon_years": 1.0, "sigma": 1.0,
            "sweep": {"sigma_grid": [round(0.05 * i, 2) for i in range(1, 61)]},
        }, "rate_sweep.json"),
    ])
    if rc != 0:
        failures.append(f"rate_sweep: exit {rc}")
    else:
        header, rows = _read_csv(out)
        sigma_col = rows[:, 0]
        centre = rows[:, header.index("p_win_centre")]
        bound = dead_zone_sigma_bound(ElectionModel((1.0, 2.0, 3.0), (0.38, 0.26, 0.36), 1.0, 1.0))
        below = centre[sigma_col < bound]
        above = centre[sigma_col > bound]
        if not np.all(below == 0.0):
            failures.append("rate_sweep: centre column not identically zero below the bound")
        if not np.all(above > 0.0):
            failures.append("rate_sweep: centre column not positive above the bound")

    # gains from repositioning: right candidate's gain changes sign
    out = tmp_path / "reposition.csv"
    rc = main([
        "sweep", "--axis", "positions", "--out", str(out),
        "--config", cfg({
            "candidates": three_cands, "horizon_years": 1.0, "sigma": 1.0,
            "sweep": {
                "sigma_grid": [round(0.05 * i, 2) for i in range(1, 61)],
                "position_variants": [[0.1, 2.0, 3.9], [1.0, 2.0, 3.9], [1.5, 2.0, 3.9]],
            },
        }, "reposition.json"),
    ])
    if rc != 0:
        failures.append(f"reposition: exit {rc}")
    else:
        header, rows = _read_csv(out)
        gain = rows[:, header.index("delta_right_v2")]
        if not (gain[0] > 0.0 and gain[-1] < 0.0):
            failures.append(
                f"reposition: right candidate's gain has no sign change ({gain[0]:.4g} .. {gain[-1]:.4g})"
            )

    # peak attainable support for five equally supported candidates
    out = tmp_path / "peak_support.csv"
    rc = main([
        "maxsupport", "--format", "csv", "--out", str(out),
        "--config", cfg({
            "candidates": [
                {"name": f"c{i}", "position": float(i), "prior": 0.2} for i in range(1, 6)
            ],
            "horizon_years": 1.0, "sigma": 1.0,
            "sweep": {"sigma_grid": [round(0.2 * i, 1) for i in range(1, 11)]},
        }, "peak_support.json"),
    ])
    if rc != 0:
        failures.append(f"peak_support: exit {rc}")
    else:
        header, rows = _read_csv(out)
        for name in ("c2", "c3", "c4"):
            col = rows[:, header.index(f"max_support_{name}")]
            if not (np.all(col < 1.0) and np.all(np.diff(col) > 0.0)):
                failures.append(f"peak_support: {name} peak support not below 1 and rising")

    report("criterion 12 (plot-ready data emission via CLI)", failures, started)
