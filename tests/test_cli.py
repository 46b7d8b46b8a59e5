"""CLI subcommands: exit codes, formats, determinism, round trips."""

import argparse
import dataclasses
import io
import json
import logging
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voteflow
from voteflow import (
    ElectionModel,
    ordering_partition,
    posterior_paths,
    simulate_paths,
    win_probabilities,
)
from voteflow.cli import Report, _emit, build_parser, load_config, main
from voteflow.errors import NumericalError

from conftest import POLARISED_P, POLARISED_X, golden_section_max

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

POLARISED_CONFIG = {
    "candidates": [
        {"name": "left", "position": 1.0, "prior": 0.38},
        {"name": "centre", "position": 2.0, "prior": 0.26},
        {"name": "right", "position": 3.0, "prior": 0.36},
    ],
    "horizon_years": 1.0,
    "sigma": 1.0,
}


def write_config(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def write_config_with_token(tmp_path, payload, token):
    """Write payload with the string "@" replaced by a raw JSON token."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload).replace('"@"', token), encoding="utf-8")
    return str(path)


def polarised_payload():
    return json.loads(json.dumps(POLARISED_CONFIG))


def run(tmp_path, *argv):
    return main(list(argv))


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        cfg = write_config(tmp_path, POLARISED_CONFIG)
        assert main(["forecast", "--config", cfg]) == 0

    def test_bad_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["forecast", "--config", str(path)]) == 2

    def test_invalid_model_is_config_error(self, tmp_path, capsys):
        payload = dict(POLARISED_CONFIG)
        payload["candidates"] = [
            {"name": "a", "position": 1.0, "prior": 0.7},
            {"name": "b", "position": 1.0, "prior": 0.3},
        ]
        cfg = write_config(tmp_path, payload)
        assert main(["forecast", "--config", cfg]) == 2
        assert "invalid model" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert main(["forecast", "--config", str(tmp_path / "absent.json")]) == 3

    def test_missing_sweep_block_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, POLARISED_CONFIG)
        assert main(["sweep", "--config", cfg, "--axis", "positions"]) == 2

    def test_prior_sweep_above_three_candidates_needs_a_prior_grid(self, capsys):
        # no default simplex grid for five candidates, and the config gives none
        cfg = str(CONFIG_DIR / "five_candidate_peak_support.json")
        assert main(["sweep", "--config", cfg, "--axis", "priors"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: prior sweep for 5 candidates needs an explicit sweep.prior_grid")

    def test_unattainable_target_is_numerical_error(self, tmp_path, capsys):
        payload = dict(POLARISED_CONFIG)
        payload["target"] = {"candidate": "centre", "win_probability": 0.9}
        cfg = write_config(tmp_path, payload)
        assert main(["calibrate", "--config", cfg]) == 4

    def test_calibrate_without_inputs_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, POLARISED_CONFIG)
        assert main(["calibrate", "--config", cfg]) == 2

    @pytest.mark.parametrize("name", ["a\nb", "tab\there", "\x1b[31mred"])
    def test_unprintable_name_is_config_error(self, tmp_path, capsys, name):
        payload = polarised_payload()
        payload["candidates"][1]["name"] = name
        cfg = write_config(tmp_path, payload)
        assert main(["forecast", "--config", cfg, "--format", "csv"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{cfg}.candidates[1].name: must be nonempty, printable and comma-free" in err

    def test_duplicate_names_rejected(self, tmp_path, capsys):
        payload = dict(POLARISED_CONFIG)
        payload["candidates"] = [
            {"name": "x", "position": 1.0, "prior": 0.5},
            {"name": "x", "position": 2.0, "prior": 0.5},
        ]
        cfg = write_config(tmp_path, payload)
        assert main(["forecast", "--config", cfg]) == 2


class TestForecast:
    def test_json_round_trip_full_precision(self, tmp_path, capsys):
        cfg = write_config(tmp_path, POLARISED_CONFIG)
        out = tmp_path / "forecast.json"
        assert main(["forecast", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))

        model = ElectionModel(POLARISED_X, POLARISED_P, 1.0, 1.0)
        outcome = win_probabilities(model)
        partition = ordering_partition(model)
        names = ("left", "centre", "right")
        for i, name in enumerate(names):
            assert report["win_probabilities"][name] == float(outcome.win_probs[i])
        for cell in partition.cells:
            label = ">".join(names[i] for i in cell.ordering)
            assert report["ordering_probabilities"][label] == outcome.ordering_probs[cell.ordering]
        assert report["partition"]["boundaries_y"] == list(partition.boundaries)
        assert report["partition"]["boundaries_xi"] == list(partition.boundaries)

    def test_ordering_sum_check_is_an_info_record(self, tmp_path, capsys, caplog):
        cfg = write_config(tmp_path, POLARISED_CONFIG)
        with caplog.at_level(logging.INFO, logger="voteflow.cli"):
            main(["forecast", "--config", cfg])
        assert capsys.readouterr().err == ""
        messages = [(r.name, r.levelno, r.getMessage()) for r in caplog.records]
        assert messages == [("voteflow.cli", logging.INFO, "ordering probabilities sum to 1")]

    def test_out_path_notice_is_an_info_record(self, tmp_path, capsys, caplog):
        cfg = write_config(tmp_path, POLARISED_CONFIG)
        out = tmp_path / "report.json"
        with caplog.at_level(logging.INFO, logger="voteflow.cli"):
            main(["forecast", "--config", cfg, "--out", str(out)])
        assert capsys.readouterr() == ("", "")
        assert ("voteflow.cli", logging.INFO, f"wrote {out}") in [
            (r.name, r.levelno, r.getMessage()) for r in caplog.records
        ]

    def test_dead_zone_flag_in_output(self, tmp_path, capsys):
        payload = dict(POLARISED_CONFIG)
        payload["sigma"] = 0.25
        cfg = write_config(tmp_path, payload)
        main(["forecast", "--config", cfg])
        report = json.loads(capsys.readouterr().out)
        assert report["dead_zones"]["centre"] is True
        assert report["win_probabilities"]["centre"] == 0.0

    def test_two_candidate_paper_value(self, tmp_path, capsys):
        payload = {
            "candidates": [
                {"name": "incumbent", "position": 0.0, "prior": 0.55},
                {"name": "challenger", "position": 1.0, "prior": 0.45},
            ],
            "horizon_years": 1.0 / 52.0,
            "sigma": 1.2,
        }
        cfg = write_config(tmp_path, payload)
        main(["forecast", "--config", cfg])
        report = json.loads(capsys.readouterr().out)
        assert report["win_probabilities"]["incumbent"] == pytest.approx(0.8868, abs=5e-4)

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, POLARISED_CONFIG)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        main(["forecast", "--config", cfg, "--out", str(out_a)])
        main(["forecast", "--config", cfg, "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("command", ["forecast", "deadzone"])
    def test_piecewise_sigma_is_reported_as_its_schedule(self, tmp_path, capsys, command):
        payload = polarised_payload()
        payload["sigma"] = {"breakpoints": [0.5], "rates": [1.0, 2.0]}
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["sigma"] == payload["sigma"]
        assert main([command, "--config", cfg, "--format", "csv"]) == 0
        meta = capsys.readouterr().out.splitlines()
        assert "# sigma=piecewise breakpoints=0.5 rates=1;2" in meta

    def test_csv_format(self, tmp_path, capsys):
        cfg = write_config(tmp_path, POLARISED_CONFIG)
        out = tmp_path / "forecast.csv"
        main(["forecast", "--config", cfg, "--format", "csv", "--out", str(out)])
        lines = out.read_text(encoding="utf-8").splitlines()
        header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        assert lines[header_idx] == "candidate,position,prior,p_win,dead_zone"
        assert len(lines) == header_idx + 4


class TestSweep:
    def test_sigma_axis_csv_header_and_rows(self, tmp_path, capsys):
        payload = dict(POLARISED_CONFIG)
        payload["sweep"] = {"sigma_grid": [0.25, 1.0, 2.0]}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--axis", "sigma", "--out", str(out)]) == 0
        lines = [ln for ln in out.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
        assert lines[0] == "sigma,p_win_left,p_win_centre,p_win_right"
        assert len(lines) == 4
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["p_win_centre"]) == 0.0  # sigma 0.25 sits in the dead zone

    def test_priors_axis_header(self, tmp_path, capsys):
        payload = dict(POLARISED_CONFIG)
        payload["sweep"] = {"prior_grid_step": 0.25}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "priors.csv"
        assert main(["sweep", "--config", cfg, "--axis", "priors", "--out", str(out)]) == 0
        lines = [ln for ln in out.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
        assert lines[0] == "p1,p2,p3,p_win_left,p_win_centre,p_win_right"
        assert len(lines) == 1 + 15  # simplex with step 1/4 has C(6,2)=15 points

    @pytest.mark.parametrize(
        "sweep, argv, field",
        [
            ({"sigma_grid": []}, ["sweep", "--axis", "sigma"], ".sweep.sigma_grid: "),
            ({"sigma_grid": []}, ["maxsupport"], ".sweep.sigma_grid: "),
            ({"prior_grid": []}, ["sweep", "--axis", "priors"], ".sweep.prior_grid: "),
            (
                {"prior_grid": [[0.2, 0.3, 0.5]], "prior_grid_step": 0.5},
                ["sweep", "--axis", "priors"],
                ".sweep: give prior_grid or prior_grid_step, not both",
            ),
        ],
        ids=[
            "empty-sigma-grid", "empty-sigma-grid-maxsupport", "empty-prior-grid", "grid-and-step"
        ],
    )
    def test_unused_or_empty_grid_is_rejected_at_its_field(
        self, tmp_path, capsys, sweep, argv, field
    ):
        cfg = write_config(tmp_path, dict(POLARISED_CONFIG, sweep=sweep))
        assert main([*argv, "--config", cfg]) == 2
        assert field in capsys.readouterr().err

    def test_positions_axis_single_variant_header(self, tmp_path, capsys):
        payload = dict(POLARISED_CONFIG)
        payload["sweep"] = {"sigma_grid": [0.5, 1.0], "position_variants": [[1.0, 2.0, 3.9]]}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "pos.csv"
        assert main(["sweep", "--config", cfg, "--axis", "positions", "--out", str(out)]) == 0
        lines = [ln for ln in out.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
        assert lines[0] == "sigma,delta_left,delta_centre,delta_right"

    def test_json_format(self, tmp_path, capsys):
        payload = dict(POLARISED_CONFIG)
        payload["sweep"] = {"sigma_grid": [1.0]}
        cfg = write_config(tmp_path, payload)
        assert main(["sweep", "--config", cfg, "--axis", "sigma", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["columns"][0] == "sigma"
        assert len(obj["rows"]) == 1


class TestSimulate:
    def base_payload(self):
        payload = dict(POLARISED_CONFIG)
        payload["simulation"] = {"n_paths": 3, "n_steps": 8, "seed": 77}
        return payload

    def test_csv_support_rows_sum_to_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.base_payload())
        out = tmp_path / "paths.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert "# seed=77" in lines
        data = [ln for ln in lines if not ln.startswith("#")]
        header = data[0].split(",")
        assert header[:2] == ["path", "t"]
        for ln in data[1:]:
            cells = ln.split(",")
            support = [float(v) for v in cells[2:5]]
            assert math.fsum(support) == pytest.approx(1.0, abs=1e-10)
        assert len(data) == 1 + 3 * 9

    def test_byte_identical_for_fixed_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.base_payload())
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", cfg, "--out", str(out_a)])
        main(["simulate", "--config", cfg, "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_override_changes_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.base_payload())
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", cfg, "--out", str(out_a)])
        main(["simulate", "--config", cfg, "--out", str(out_b), "--seed", "78"])
        assert out_a.read_bytes() != out_b.read_bytes()
        assert "# seed=78" in out_b.read_text(encoding="utf-8")

    def test_missing_simulation_block(self, tmp_path, capsys):
        cfg = write_config(tmp_path, POLARISED_CONFIG)
        assert main(["simulate", "--config", cfg]) == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_paths_exit_4_before_writing(self, tmp_path, capsys, fmt):
        # positions near 1e200 overflow the log weights, so every support is
        # NaN; the report's one check names the first, in either format
        payload = self.base_payload()
        payload["candidates"] = [
            dict(cand, position=x) for cand, x in zip(payload["candidates"], (1e200, 2e200, 3e200))
        ]
        out = tmp_path / f"paths.{fmt}"
        argv = ["simulate", "--config", write_config(tmp_path, payload), "--format", fmt]
        assert main([*argv, "--out", str(out)]) == 4
        assert not out.exists()
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err == "error: simulate report: support[0][0, 0] is nan\n"


class TestDeadzoneAndMaxSupport:
    def test_deadzone_report(self, tmp_path, capsys):
        payload = dict(POLARISED_CONFIG)
        payload["sigma"] = 0.25
        cfg = write_config(tmp_path, payload)
        assert main(["deadzone", "--config", cfg]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["dead_zones"]["centre"]["is_dead"] is True
        assert obj["dead_zones"]["centre"]["sigma_bound"] == pytest.approx(0.8396, abs=1e-4)
        assert obj["dead_zones"]["left"]["is_dead"] is False

    def test_maxsupport_five_candidates(self, tmp_path, capsys):
        payload = {
            "candidates": [
                {"name": f"c{i}", "position": float(i), "prior": 0.2} for i in range(1, 6)
            ],
            "horizon_years": 1.0,
            "sigma": 1.0,
            "sweep": {"sigma_grid": [0.5, 1.0, 2.0]},
        }
        cfg = write_config(tmp_path, payload)
        assert main(["maxsupport", "--config", cfg]) == 0
        obj = json.loads(capsys.readouterr().out)
        for name in ("c2", "c3", "c4"):
            curve = obj["max_support"][name]
            assert all(v < 1.0 for v in curve)
            assert curve == sorted(curve)
        assert obj["max_support"]["c1"] == [1.0, 1.0, 1.0]
        assert obj["at_config_sigma"]["c3"]["residual"] < 1e-10

    def test_maxsupport_at_near_zero_positions(self, tmp_path, capsys):
        # positions x 1e-160 at rate 1 leave x_j^2 V / 2 below rounding, so
        # k's support is 1 / sum_j e^((x_j - x_k) t) at every rate, with t the
        # signal in units of 1e160; its peak is 0.26079446214781116 for the
        # second candidate (a 30-digit root solve of its first-order condition)
        config = CONFIG_DIR / "five_candidate_peak_support.json"
        payload = json.loads(config.read_text(encoding="utf-8"))
        x = [cand["position"] for cand in payload["candidates"]]
        for cand in payload["candidates"]:
            cand["position"] *= 1e-160
        assert main(["maxsupport", "--config", write_config(tmp_path, payload)]) == 0
        obj = json.loads(capsys.readouterr().out)
        for k, name in enumerate(["centre_left", "centre", "centre_right"], start=1):

            def support(t, k=k):
                return 1.0 / math.fsum(math.exp((xj - x[k]) * t) for xj in x)

            peak = support(golden_section_max(support, -10.0, 10.0))
            assert obj["at_config_sigma"][name]["pi_max"] == pytest.approx(peak, abs=1e-14)
            assert obj["max_support"][name] == pytest.approx([peak] * 10, abs=1e-14)
        assert obj["at_config_sigma"]["centre_left"]["pi_max"] == pytest.approx(
            0.26079446214781116, abs=1e-15
        )

    def test_maxsupport_with_non_finite_weights_is_numerical_error(self, tmp_path, capsys):
        # positions x 1e200 overflow x_j^2 V / 2, so every log weight is -inf
        # and g is NaN at both search ends: a numerical failure, not the
        # one-sided support that NoBracket reports
        payload = json.loads((CONFIG_DIR / "polarised_three_way.json").read_text(encoding="utf-8"))
        for cand in payload["candidates"]:
            cand["position"] *= 1e200
        assert main(["maxsupport", "--config", write_config(tmp_path, payload)]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: peak support of candidate 1: posterior weights [nan, nan, nan]")
        assert "not finite (log weights [-inf, -inf, -inf])" in err

    @pytest.mark.parametrize("scale", [1e-160, 1e150])
    @pytest.mark.parametrize("command", ["forecast", "deadzone"])
    def test_extreme_position_scales_give_the_scaled_bound(self, tmp_path, capsys, command, scale):
        # the product of the three gaps underflows at 1e-160 and overflows at
        # 1e150; the bound of s * x is the bound of x over s, a finite float
        payload = polarised_payload()
        payload["sigma"] = 0.25
        for cand in payload["candidates"]:
            cand["position"] *= scale
        assert main([command, "--config", write_config(tmp_path, payload)]) == 0
        if command == "deadzone":
            bound = json.loads(capsys.readouterr().out)["dead_zones"]["centre"]["sigma_bound"]
            assert bound * scale == pytest.approx(0.8395903894992673, rel=1e-12)

    # subnormal gaps overflow the crossing table too, with numpy's warning;
    # that fault is not this test's subject
    @pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_infinite_bound_exits_before_writing(self, tmp_path, capsys, fmt):
        # at positions x 1e-310 the gaps are subnormal and (log p0 - log p1)
        # over a gap overflows, so the centre's bound is inf: no report
        config = CONFIG_DIR / "polarised_low_info.json"
        payload = json.loads(config.read_text(encoding="utf-8"))
        for cand in payload["candidates"]:
            cand["position"] *= 1e-310
        out = tmp_path / f"deadzone.{fmt}"
        argv = ["deadzone", "--config", write_config(tmp_path, payload), "--format", fmt]
        assert main(argv) == 4
        assert main([*argv, "--out", str(out)]) == 4
        assert not out.exists()
        want = "error: deadzone report: dead_zones.centre.sigma_bound is inf\n"
        assert capsys.readouterr() == ("", want * 2)

    def test_subnormal_gaps_give_infinite_crossings_without_a_warning(self, tmp_path, capsys):
        # the exact crossings lie past the float maximum, so +-inf is their
        # correctly rounded value, not an overflow to report (RuntimeWarnings
        # are errors in this suite)
        payload = json.loads((CONFIG_DIR / "polarised_low_info.json").read_text(encoding="utf-8"))
        for cand in payload["candidates"]:
            cand["position"] *= 1e-310
        cfg = write_config(tmp_path, payload)
        assert main(["forecast", "--config", cfg]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["win_probabilities"]["left"] == 1.0
        assert main(["deadzone", "--config", cfg]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: deadzone report: dead_zones.centre.sigma_bound is inf\n"

    @pytest.mark.parametrize("priors, scale, want", [
        ((0.6, 0.4, 0.0), 1.0, "error: no supported candidate on one side of x_1=2.0\n"),
        # the peak's y* grows as 1 / scale and passes the float maximum
        # between 1e-308 and 1e-310, while both rivals keep their priors
        ((0.38, 0.26, 0.36), 1e-310, "error: peak support of candidate 1: both sides of "
         "x_1=2e-310 hold supported candidates, but the peak's signal y* lies beyond "
         "the float range\n"),
    ], ids=["one-sided", "past-float-range"])
    def test_maxsupport_without_a_peak_says_why(self, tmp_path, capsys, priors, scale, want):
        payload = polarised_payload()
        for cand, prior in zip(payload["candidates"], priors):
            cand["position"] *= scale
            cand["prior"] = prior
        assert main(["maxsupport", "--config", write_config(tmp_path, payload)]) == 4
        assert capsys.readouterr() == ("", want)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_maxsupport_zero_prior_centre_past_the_float_range_names_y_star(
        self, tmp_path, capsys, fmt
    ):
        # the centre's support is 0 at every signal: its peak support is 0,
        # but the signal of its root lies beyond the float range
        payload = polarised_payload()
        for cand, prior in zip(payload["candidates"], (0.6, 0.0, 0.4)):
            cand["position"] *= 1e-310
            cand["prior"] = prior
        argv = ["maxsupport", "--config", write_config(tmp_path, payload), "--format", fmt]
        assert main(argv) == 4
        assert capsys.readouterr() == (
            "", "error: maxsupport report: at_config_sigma.centre.y_star is nan\n"
        )

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_subnormal_centre_prior_gives_a_finite_bound(self, tmp_path, capsys, fmt):
        # p0/p1 = 0.5/5e-324 overflows; the bound comes from log differences
        payload = polarised_payload()
        for cand, prior in zip(payload["candidates"], (0.5, 5e-324, 0.5)):
            cand["prior"] = prior
        out = tmp_path / f"deadzone.{fmt}"
        argv = ["deadzone", "--config", write_config(tmp_path, payload), "--format", fmt]
        assert main([*argv, "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        if fmt == "json":
            bound = json.loads(text)["dead_zones"]["centre"]["sigma_bound"]
        else:
            row = next(r for r in text.splitlines() if r.startswith("centre,"))
            bound = float(row.split(",")[2])
        # unit gaps and T = 1: sigma^2 = m = 2 (log 0.5 - log 5e-324)
        expected = math.sqrt(2.0 * (math.log(0.5) - math.log(5e-324)))
        assert bound == pytest.approx(expected, rel=1e-12)


class TestAggregate:
    def test_identity_pythagoras(self, tmp_path, capsys):
        payload = dict(POLARISED_CONFIG)
        payload["sources"] = {
            "rates": [3.0, 4.0],
            "correlation": [[1.0, 0.0], [0.0, 1.0]],
        }
        cfg = write_config(tmp_path, payload)
        assert main(["aggregate", "--config", cfg]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["effective_sigma"] == 5.0
        assert obj["noise_variance_check"] == pytest.approx(1.0, abs=1e-12)

    def test_missing_sources_block(self, tmp_path, capsys):
        cfg = write_config(tmp_path, POLARISED_CONFIG)
        assert main(["aggregate", "--config", cfg]) == 2

    def test_a_rate_past_the_square_root_of_the_float_range_is_finite(self, tmp_path, capsys):
        # 1e200 squared overflows; the effective rate does not
        payload = json.loads((CONFIG_DIR / "correlated_sources.json").read_text(encoding="utf-8"))
        payload["sources"]["rates"][0] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["aggregate", "--config", write_config(tmp_path, payload)]) == 0
        assert json.loads(capsys.readouterr().out)["effective_sigma"] == 1.0910894511799619e200

    def test_overflowing_sigma_exits_4_quietly(self, tmp_path, capsys):
        payload = json.loads((CONFIG_DIR / "correlated_sources.json").read_text(encoding="utf-8"))
        payload["sources"]["rates"] = [1.5e308] * 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["aggregate", "--config", write_config(tmp_path, payload)]) == 4
        assert capsys.readouterr() == ("", "error: aggregate report: effective_sigma is inf\n")


class TestCalibrate:
    def write_series_csv(self, tmp_path, sigma=1.0, n_steps=10_000):
        model = ElectionModel(POLARISED_X, POLARISED_P, 1.0, sigma)
        ensemble = simulate_paths(model, 1, n_steps, seed=88)
        bundle = posterior_paths(ensemble)
        lines = ["t,left,centre,right"]
        for t, row in zip(bundle.times, bundle.support[0]):
            lines.append(",".join(f"{v:.17g}" for v in (t, *row)))
        path = tmp_path / "polls.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_historic_recovery_through_cli(self, tmp_path, capsys):
        cfg = write_config(tmp_path, POLARISED_CONFIG)
        data = self.write_series_csv(tmp_path, sigma=1.0)
        assert main(["calibrate", "--config", cfg, "--data", data]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert 0.95 <= obj["historic"]["sigma"] <= 1.05

    def test_far_positions_give_one_estimate_in_both_formats(self, tmp_path, capsys):
        # at positions x 1e160 the squared loadings overflowed: CSV wrote
        # sigma 0 and JSON exited 4 on a NaN count of increments
        data = self.write_series_csv(tmp_path, n_steps=200)
        assert main(["calibrate", "--config", write_config(tmp_path, POLARISED_CONFIG),
                     "--data", data]) == 0
        unscaled = json.loads(capsys.readouterr().out)["historic"]["sigma"]
        payload = polarised_payload()
        for cand in payload["candidates"]:
            cand["position"] *= 1e160
        argv = ["calibrate", "--config", write_config(tmp_path, payload), "--data", data]
        outputs = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fmt in ("json", "csv"):
                assert main([*argv, "--format", fmt]) == 0
                outputs[fmt] = capsys.readouterr()
        sigma = json.loads(outputs["json"].out)["historic"]["sigma"]
        assert outputs["csv"].out.splitlines()[-1] == f"historic,{sigma:.17g}"
        assert outputs["json"].err == outputs["csv"].err == ""
        assert sigma * 1e160 == pytest.approx(unscaled, rel=1e-12)

    def test_implied_from_target_block(self, tmp_path, capsys):
        payload = {
            "candidates": [
                {"name": "incumbent", "position": 0.0, "prior": 0.55},
                {"name": "challenger", "position": 1.0, "prior": 0.45},
            ],
            "horizon_years": 1.0 / 52.0,
            "sigma": 1.0,
            "target": {"candidate": "incumbent", "win_probability": 0.8868693070858683},
        }
        cfg = write_config(tmp_path, payload)
        assert main(["calibrate", "--config", cfg]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["implied"]["solutions"][0] == pytest.approx(1.2, abs=1e-6)

    def test_malformed_csv_reports_row_number(self, tmp_path, capsys):
        cfg = write_config(tmp_path, POLARISED_CONFIG)
        path = tmp_path / "bad.csv"
        path.write_text("t,left,centre,right\n0.0,0.38,0.26,0.36\n0.1,oops,0.3,0.3\n", encoding="utf-8")
        assert main(["calibrate", "--config", cfg, "--data", str(path)]) == 3
        assert "row 3" in capsys.readouterr().err

    def test_non_finite_cell_reports_row_number(self, tmp_path, capsys):
        cfg = write_config(tmp_path, POLARISED_CONFIG)
        path = tmp_path / "nan.csv"
        path.write_text(
            "t,left,centre,right\n0.0,0.38,0.26,0.36\n0.1,0.4,0.3,0.3\n0.2,nan,0.3,0.3\n",
            encoding="utf-8",
        )
        assert main(["calibrate", "--config", cfg, "--data", str(path)]) == 3
        assert "row 4" in capsys.readouterr().err

    def test_wrong_columns_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, POLARISED_CONFIG)
        path = tmp_path / "bad.csv"
        path.write_text("t,a,b,c\n0.0,0.38,0.26,0.36\n", encoding="utf-8")
        assert main(["calibrate", "--config", cfg, "--data", str(path)]) == 3

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["0.0,0.38,0.26,0.36", "0.1,0.5,0.3,0.3", "0.2,0.4,0.3,0.3"],
             "support row at t=0.1 sums to 1.1, not 1 within 1e-06"),
            (["0.0,0.38,0.26,0.36", "0.2,0.4,0.3,0.3", "0.2,0.4,0.3,0.3"],
             "observation times must be strictly increasing"),
            (["0.0,0.38,0.26,0.36", "0.1,0.4,0.3,0.3"], "need at least 3 observations, got (2,)"),
            (["0.0,0.38,0.26,0.36", "0.1,1.2,-0.1,-0.1", "0.2,0.4,0.3,0.3"],
             "support entries must lie in [0, 1]"),
        ],
        ids=["row-sum", "times", "too-few-rows", "out-of-range"],
    )
    def test_poll_series_rejection_is_a_data_error_at_its_path(
        self, tmp_path, capsys, rows, message
    ):
        cfg = write_config(tmp_path, POLARISED_CONFIG)
        path = tmp_path / "polls.csv"
        path.write_text("\n".join(["t,left,centre,right", *rows]) + "\n", encoding="utf-8")
        assert main(["calibrate", "--config", cfg, "--data", str(path)]) == 3
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_constant_series_is_an_info_record(self, tmp_path, capsys, caplog):
        # the library warns; the CLI logs it and reports sigma 0
        cfg = write_config(tmp_path, POLARISED_CONFIG)
        path = tmp_path / "flat.csv"
        path.write_text("t,left,centre,right\n" + "".join(
            f"{t},0.38,0.26,0.36\n" for t in (0.0, 0.1, 0.2, 0.3)), encoding="utf-8")
        with caplog.at_level(logging.INFO, logger="voteflow.cli"), warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["calibrate", "--config", cfg, "--data", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["historic"]["sigma"] == 0.0
        assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
            ("voteflow.cli", "INFO",
             "poll series carries no usable movement (constant supports); estimate is 0")
        ]


class TestConfigRejections:
    @pytest.mark.parametrize(
        "key, token, argv, field",
        [
            pytest.param(key, token, [], field, id=f"{key}={token}")
            for key, token, field in [
                ("n_paths", "2.7", "simulation.n_paths"),
                ("n_paths", "1e300", "simulation: n_paths * (n_steps + 1)"),
                ("n_paths", "1e400", "simulation.n_paths"),
                ("n_paths", "1000", "simulation: n_paths * (n_steps + 1)"),
                ("n_steps", "0", "simulation.n_steps"),
                ("n_steps", "1.5", "simulation.n_steps"),
                ("seed", "-1", "simulation.seed"),
                ("seed", "0.5", "simulation.seed"),
                ("seed", "NaN", "simulation.seed"),
            ]
        ]
        + [pytest.param(None, None, ["--seed", "-5"], "--seed", id="--seed=-5")],
    )
    def test_simulation_fields_are_integral_bounded_and_named(
        self, tmp_path, capsys, key, token, argv, field
    ):
        payload = polarised_payload()
        payload["simulation"] = {"n_paths": 3, "n_steps": 1000, "seed": 77}
        if key is not None:
            payload["simulation"][key] = "@"
        cfg = write_config_with_token(tmp_path, payload, token or "null")
        assert main(["simulate", "--config", cfg, *argv]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "step, message",
        [
            pytest.param(0.3, "0.3 must divide 1", id="not-a-divisor"),
            pytest.param(0.0001, "50015001 grid points exceed", id="too-many-points"),
        ],
    )
    def test_prior_grid_step_is_checked_at_its_field(
        self, tmp_path, capsys, monkeypatch, step, message
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the prior grid was built")

        monkeypatch.setattr(voteflow.strategy, "simplex_grid", refuse)
        payload = polarised_payload()
        payload["sweep"] = {"prior_grid_step": step}
        cfg = write_config(tmp_path, payload)
        assert main(["sweep", "--config", cfg, "--axis", "priors"]) == 2
        err = capsys.readouterr().err
        assert ".sweep.prior_grid_step: " in err and message in err

    @pytest.mark.parametrize(
        "stem, change, argv, field",
        [
            pytest.param("five_candidate_peak_support",
                         lambda p: p.update(sweep={"prior_grid_step": 0.5}), ["forecast"],
                         ".sweep.prior_grid_step: ", id="step-five-candidates-forecast"),
            pytest.param("five_candidate_peak_support",
                         lambda p: p.update(sweep={"prior_grid_step": 0.5}),
                         ["sweep", "--axis", "priors"],
                         ".sweep.prior_grid_step: ", id="step-five-candidates-sweep"),
            pytest.param("polarised_three_way",
                         lambda p: p.update(sweep={"prior_grid": [[0.2, 0.3, 0.5], [0.5, 0.6, 0.1]]}),
                         ["forecast"], ".sweep.prior_grid[1]: priors sum to ", id="second-row"),
            pytest.param("polarised_three_way",
                         lambda p: [c.update(prior=1e308) for c in p["candidates"]], ["forecast"],
                         "invalid model parameters: priors sum to inf, not 1", id="priors-1e308"),
        ],
    )
    def test_prior_inputs_are_checked_when_the_config_is_read(
        self, tmp_path, capsys, stem, change, argv, field
    ):
        # a prior grid, from its step or its rows, and the race's priors are
        # checked as the config is read: exit 2 under every subcommand, with
        # one line that names the field
        payload = json.loads((CONFIG_DIR / f"{stem}.json").read_text(encoding="utf-8"))
        change(payload)
        cfg = write_config(tmp_path, payload)
        assert main([argv[0], "--config", cfg, *argv[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and field in err, err

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
    @pytest.mark.parametrize(
        "field, place",
        [
            pytest.param(field, place, id=field)
            for field, place in [
                ("sweep.sigma_grid", lambda p: p.update(sweep={"sigma_grid": [0.5, "@"]})),
                ("candidates[1].position", lambda p: p["candidates"][1].update(position="@")),
                ("horizon_years", lambda p: p.update(horizon_years="@")),
                (
                    "target.win_probability",
                    lambda p: p.update(target={"candidate": "left", "win_probability": "@"}),
                ),
            ]
        ],
    )
    def test_non_finite_number_is_rejected_at_its_field(
        self, tmp_path, capsys, token, field, place
    ):
        payload = polarised_payload()
        place(payload)
        cfg = write_config_with_token(tmp_path, payload, token)
        assert main(["forecast", "--config", cfg]) == 2
        assert f".{field}: expected" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, argv, named",
        [
            pytest.param(lambda p: p.update(sigma=1e-200), ["forecast"], "horizon_years",
                         id="forecast-underflow"),
            pytest.param(lambda p: p.update(sigma=1e200), ["forecast"], "horizon_years",
                         id="forecast-overflow"),
            pytest.param(lambda p: p.update(sigma=1e200), ["forecast", "--format", "csv"],
                         "horizon_years", id="forecast-csv-overflow"),
            pytest.param(lambda p: p.update(sigma=1e200), ["simulate", "--format", "json"],
                         "horizon_years", id="simulate-json-overflow"),
            pytest.param(
                lambda p: p.update(sigma={"breakpoints": [1e-300], "rates": [1.0, 1e200]}),
                ["forecast"], "horizon_years", id="forecast-piecewise-overflow",
            ),
            pytest.param(lambda p: p["sweep"].update(sigma_grid=[1.0, 1e200]),
                         ["sweep", "--axis", "sigma"], "sweep.sigma_grid", id="sweep-sigma-csv"),
            pytest.param(lambda p: p["sweep"].update(sigma_grid=[1.0, 1e200]),
                         ["sweep", "--axis", "sigma", "--format", "json"], "sweep.sigma_grid",
                         id="sweep-sigma-json"),
            pytest.param(lambda p: p["sweep"].update(sigma_grid=[1.0, 1e200]),
                         ["sweep", "--axis", "positions"], "sweep.sigma_grid",
                         id="sweep-positions"),
            pytest.param(lambda p: p["sweep"].update(sigma_grid=[1e-200, 1.0]),
                         ["maxsupport"], "sweep.sigma_grid", id="maxsupport"),
        ],
    )
    def test_terminal_variance_of_zero_or_inf_is_named(self, tmp_path, capsys, change, argv, named):
        # sigma^2 * horizon under- or overflowing leaves no crossing or
        # interval mass defined: a config error at the field that set it
        payload = polarised_payload()
        payload["simulation"] = {"n_paths": 2, "n_steps": 10, "seed": 1}
        payload["sweep"] = {"position_variants": [[1.0, 2.0, 3.5]]}
        change(payload)
        cfg = write_config(tmp_path, payload)
        assert main([argv[0], "--config", cfg, *argv[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        if named == "sweep.sigma_grid":
            assert f"error: {cfg}.sweep.sigma_grid: " in err
            assert "position_variants" not in err
        else:
            assert "error: invalid model parameters: sigma " in err and named in err

    @pytest.mark.parametrize(
        "block, argv",
        [
            ({}, ["sweep", "--axis", "sigma"]),
            ({}, ["maxsupport"]),
            ({"sweep": {"position_variants": [[1.0, 2.0, 3.5]]}}, ["sweep", "--axis", "positions"]),
            ({"target": {"candidate": "left", "win_probability": 0.5}}, ["calibrate"]),
        ],
        ids=["sweep-sigma", "maxsupport", "sweep-positions", "calibrate-implied"],
    )
    def test_default_rate_grid_rejection_names_horizon(self, tmp_path, capsys, block, argv):
        # the model's own variance 5e-324 is valid, but the default grid's (or
        # the implied-rate scan's) rates underflow it to 0: the config holds no
        # sweep.sigma_grid to blame, and the target is not at fault
        payload = polarised_payload()
        payload["horizon_years"] = 5e-324
        payload.update(block)
        cfg = write_config(tmp_path, payload)
        assert main(["forecast", "--config", cfg]) == 0
        capsys.readouterr()
        assert main([argv[0], "--config", cfg, *argv[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: {cfg}.horizon_years: " in err
        assert "sigma_grid" not in err and "win_probability" not in err

    @pytest.mark.parametrize(
        "block, argv, field",
        [
            ({"sweep": {"prior_grid": [[0.5, 0.5]]}}, ["sweep", "--axis", "priors"],
             "sweep.prior_grid[0]"),
            ({"sweep": {"position_variants": [[3.0, 2.0, 1.0]]}}, ["sweep", "--axis", "positions"],
             "sweep.position_variants[0]"),
            ({"target": {"candidate": "left", "win_probability": 1.5}}, ["calibrate"],
             "target.win_probability"),
            ({"sources": {"rates": [1.0, 1.0], "correlation": [[1.0, 2.0], [2.0, 1.0]]}},
             ["aggregate"], "sources"),
            ({"sources": {"rates": [1.0, 1.0], "correlation": [[1.0], [0.5, 1.0]]}},
             ["aggregate"], "sources"),
            # every block is checked as the config is read, also where no subcommand reads it
            ({"sweep": {"position_variants": [[1.0, 2.0, 3.5], [1.0, 0.5, 3.9]]}}, ["forecast"],
             "sweep.position_variants[1]"),
            ({"sweep": {"position_variants": [[1.0, 0.5, 3.9]]}}, ["deadzone"],
             "sweep.position_variants[0]"),
            ({"sweep": {"position_variants": [[1.0, 2.0]]}}, ["forecast"],
             "sweep.position_variants[0]"),
            ({"sources": {"rates": [1.0, 1.0], "correlation": [[1.0, 1.5], [1.5, 1.0]]}},
             ["forecast"], "sources"),
            ({"sources": {"rates": [1.0, 1.0], "correlation": [[1.0, 1.5], [1.5, 1.0]]}},
             ["deadzone"], "sources"),
            ({"target": {"candidate": "left", "win_probability": 1.5}}, ["forecast"],
             "target.win_probability"),
            ({"target": {"candidate": "left", "win_probability": 1.5}}, ["deadzone"],
             "target.win_probability"),
        ],
        ids=["prior-grid", "position-variants", "target", "sources", "sources-ragged",
             "variant-forecast", "variant-deadzone", "short-variant-forecast",
             "correlation-1.5-forecast", "correlation-1.5-deadzone", "target-1.5-forecast",
             "target-1.5-deadzone"],
    )
    def test_library_rejection_names_its_field(self, tmp_path, capsys, block, argv, field):
        # the library decides what is invalid; the CLI says where it came from
        cfg = write_config(tmp_path, {**POLARISED_CONFIG, **block})
        assert main([argv[0], "--config", cfg, *argv[1:]]) == 2
        assert f"error: {cfg}.{field}: " in capsys.readouterr().err


    @pytest.mark.parametrize(
        "change, argv, want",
        [
            pytest.param(lambda p: p.update(candidates=p["candidates"][:1]), ["forecast"],
                         "invalid model parameters: need at least two candidates",
                         id="one-candidate"),
            pytest.param(lambda p: p.update(sweep={"sigma_grid": [-1.0]}), ["forecast"],
                         "{cfg}.sweep.sigma_grid: rates must be finite and > 0, got -1.0",
                         id="sigma-grid-negative"),
            pytest.param(lambda p: p.update(sweep={"sigma_grid": [1.0, 1e200]}), ["forecast"],
                         "{cfg}.sweep.sigma_grid: sigma rates (1e+200,) over horizon_years 1.0 "
                         "give terminal variance inf", id="sigma-grid-overflow"),
            pytest.param(lambda p: p.update(sweep={"prior_grid_step": 2}), ["forecast"],
                         "{cfg}.sweep.prior_grid_step: step 2.0 must divide 1", id="step-2"),
            pytest.param(lambda p: p.update(sweep={"prior_grid_step": 0}), ["forecast"],
                         "{cfg}.sweep.prior_grid_step: step 0.0 must divide 1", id="step-0"),
            pytest.param(lambda p: None, ["simulate", "--seed", "-1"],
                         "--seed: seed must be an integer >= 0, got -1", id="seed"),
        ],
    )
    def test_rule_the_library_owns_is_reported_at_its_field(
        self, tmp_path, capsys, change, argv, want
    ):
        # one copy of each rule, the library's; the CLI says where the value came from
        payload = polarised_payload()
        payload["simulation"] = {"n_paths": 2, "n_steps": 10, "seed": 1}
        change(payload)
        cfg = write_config(tmp_path, payload)
        assert main([argv[0], "--config", cfg, *argv[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: " + want.format(cfg=cfg))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_streams_a_large_report(tmp_path, fmt):
    # 50,000 rows of four floats: several MB of text, written as it is
    # generated, so memory never holds the text (nor, for JSON, the arrays
    # as Python lists)
    data = np.linspace(0.0, 1.0, 200_000).reshape(50, 1000, 4)
    report = Report(
        json={"rows": list(data)},
        meta={"rows": 50_000},
        header=["a", "b", "c", "d"],
        kinds=[float] * 4,
        rows=(tuple(map(float, row)) for block in data for row in block),
    )
    out = tmp_path / f"report.{fmt}"
    tracemalloc.start()
    try:
        _emit(report, argparse.Namespace(format=fmt, out=str(out)), sys.stdout)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 3_000_000
    assert peak < out.stat().st_size / 10


def old_csv_row(row):
    """A CSV row as the emitter wrote it before column kinds: 17 significant
    digits for a float, ``str`` for anything else."""
    return ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n"


@pytest.mark.parametrize(
    "argv",
    [["forecast", "polarised_low_info"], ["deadzone", "polarised_low_info"],
     ["sweep", "--axis", "sigma", "five_candidate_peak_support"],
     ["sweep", "--axis", "priors", "win_vs_support"],
     ["sweep", "--axis", "positions", "polarised_three_way"],
     ["simulate", "polarised_three_way"], ["maxsupport", "five_candidate_peak_support"],
     ["aggregate", "correlated_sources"], ["calibrate", "two_candidate_week_out"]],
    ids=lambda argv: "-".join(a.strip("-") for a in argv[:-1]),
)
def test_csv_template_writes_the_bytes_of_per_value_formatting(argv):
    # each report's rows, then rows of edge values in its column kinds,
    # through the kinds' one template and through per-value formatting
    args = build_parser().parse_args(
        [*argv[:-1], "--config", str(CONFIG_DIR / f"{argv[-1]}.json"), "--format", "csv"]
    )
    report = getattr(voteflow.cli, f"cmd_{args.command}")(args, load_config(args.config))
    assert len(report.kinds) == len(report.header)
    edge = {
        float: [-0.0, 5e-324, 1e308, -2.5e-300, 0.1, 1.0],
        int: [2**70, -(2**64) - 1, 0, 7],
        str: ["", "centre", "1e308", "a b"],
    }
    rows = list(report.rows)
    rows += [
        tuple(edge[kind][(i + c) % len(edge[kind])] for c, kind in enumerate(report.kinds))
        for i in range(6)
    ]
    out = io.StringIO()
    _emit(dataclasses.replace(report, rows=rows), args, out)
    text = out.getvalue()
    table = text[text.index(",".join(report.header) + "\n"):].split("\n", 1)[1]
    assert table == "".join(map(old_csv_row, rows))


@pytest.mark.parametrize(
    "fmt, error, code",
    [("json", None, 4), ("csv", NumericalError, 4), ("csv", RuntimeError, None)],
    ids=["json-nan", "csv-numerical", "csv-unexpected"],
)
def test_failed_report_leaves_no_out_file(tmp_path, capsys, monkeypatch, fmt, error, code):
    # a CSV report fails after about 200 kB of it is written: the partial
    # --out file goes, and the error keeps its exit code; a non-finite
    # number in the JSON value is a numerical error naming the subcommand,
    # raised before --out is opened
    def rows():
        yield from ((float(i), 0.5) for i in range(20_000))
        raise error("row 20000 failed")

    def failing(args, cfg):
        return Report(
            json={"head": list(range(20_000)), "tail": math.nan if fmt == "json" else 0.5},
            meta={},
            header=["a", "b"],
            kinds=[float, float],
            rows=rows(),
        )

    out = tmp_path / f"report.{fmt}"
    argv = ["forecast", "--config", write_config(tmp_path, POLARISED_CONFIG), "--format", fmt,
            "--out", str(out)]
    # the parser is built by this first call and kept; main still finds the
    # handler by name, so the patch below takes effect
    assert main(argv) == 0
    out.unlink()
    capsys.readouterr()
    monkeypatch.setattr(voteflow.cli, "cmd_forecast", failing)
    if code is None:
        with pytest.raises(error):
            main(argv)
    else:
        assert main(argv) == code
    assert not out.exists()
    stdout, err = capsys.readouterr()
    assert stdout == "" and "wrote" not in err
    if fmt == "json":
        assert err == "error: forecast report: tail is nan\n"


EDGE_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e16, 1e-5]
)


def numeric_arrays():
    shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
    return hnp.arrays(np.float64, shapes, elements=EDGE_FLOATS) | hnp.arrays(
        np.int64, shapes, elements=st.integers(-(2**63), 2**63 - 1)
    )


# report-shaped objects: arrays and lists of them at the top, where the
# writer lists them itself, and anything JSON holds beneath
JSON_REPORTS = st.dictionaries(
    st.text(max_size=4),
    st.lists(numeric_arrays(), min_size=1, max_size=3) | st.recursive(
        numeric_arrays() | EDGE_FLOATS | st.integers() | st.booleans() | st.none() | st.text(),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=8,
    ),
    max_size=5,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(JSON_REPORTS)
def test_json_writer_writes_the_text_of_json_dumps(report):
    out = io.StringIO()
    args = argparse.Namespace(format="json", out=None, command="forecast")
    _emit(Report(json=report, meta={}, header=[], kinds=[], rows=[]), args, out)
    want = json.dumps(report, indent=2, allow_nan=False, default=np.ndarray.tolist)
    assert out.getvalue() == want + "\n"


def place_non_finite(report, where, bad):
    """Put ``bad`` in the report at ``where``; the place as an error names it."""
    if where == "array":
        report["times"][3] = bad
        return "times[3]"
    if where == "deep array":
        report["rows"][1, 2, 3] = bad
        return "rows[1, 2, 3]"
    if where == "listed array":
        report["paths"][1][0, 1] = bad
        return "paths[1][0, 1]"
    if where == "nested":
        report["meta"]["b"][1] = bad
        return "meta.b[1]"
    report[where] = bad
    return where


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["array", "deep array", "listed array", "nested", "sum"])
def test_non_finite_json_value_exits_4_and_leaves_no_out_file(
    tmp_path, capsys, monkeypatch, where, bad, fmt
):
    # the JSON value is checked in either format, before anything is
    # written; the CSV rows would be writable
    rows = np.linspace(0.0, 1.0, 24).reshape(2, 3, 4)
    report = {"times": np.arange(5.0), "rows": rows.copy(), "paths": [rows[0].copy(), rows[1].copy()],
              "meta": {"a": 1.0, "b": [0.5, 2.0]}, "sum": 1.0}
    place = place_non_finite(report, where, bad)
    monkeypatch.setattr(voteflow.cli, "cmd_forecast", lambda args, cfg: Report(
        json=report, meta={"a": 1}, header=["a"], kinds=[float], rows=[(0.5,)]))
    out = tmp_path / f"report.{fmt}"
    argv = ["forecast", "--config", write_config(tmp_path, POLARISED_CONFIG), "--format", fmt]
    assert main([*argv, "--out", str(out)]) == 4
    assert not out.exists()
    assert main(argv) == 4
    assert capsys.readouterr() == ("", f"error: forecast report: {place} is {bad!r}\n" * 2)


def run_fresh_process(argv):
    """Exit code of ``python -m voteflow.cli argv`` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(voteflow.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "voteflow.cli", *argv], capture_output=True, env=env, check=False
    )
    return proc.returncode


def test_repeated_in_process_calls_match_fresh_processes(tmp_path):
    # one process, one parser: every subcommand in both formats, a usage
    # error and a config error partway through, then every call again; each
    # --out file and exit code equals a fresh process's for the same argv
    assert build_parser() is build_parser()
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    calls = [
        ("forecast", "polarised_three_way"),
        ("sweep", "--axis", "sigma", "five_candidate_peak_support"),
        ("simulate", "polarised_low_info"),
        ("deadzone", "polarised_three_way"),
        ("maxsupport", "five_candidate_peak_support"),
        ("aggregate", "correlated_sources"),
        ("calibrate", "two_candidate_week_out"),
    ]
    good = [
        [*call[:-1], "--config", str(CONFIG_DIR / f"{call[-1]}.json"), "--format", fmt,
         "--out", str(tmp_path / f"{call[0]}.{fmt}")]
        for call in calls for fmt in ("json", "csv")
    ]
    usage_error = ["sweep", "--config", str(CONFIG_DIR / "polarised_three_way.json"),
                   "--out", str(tmp_path / "usage.csv")]
    config_error = ["forecast", "--config", str(broken), "--out", str(tmp_path / "config.json")]
    sequence = [*good[:5], usage_error, *good[5:10], config_error, *good[10:], *good]

    def result(argv, code):
        out = Path(argv[argv.index("--out") + 1])
        written = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        return code, written

    def in_process(argv):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code

    distinct = list(dict.fromkeys(map(tuple, sequence)))
    with ThreadPoolExecutor(max_workers=2) as pool:
        codes = list(pool.map(run_fresh_process, distinct))
    fresh = {argv: result(argv, code) for argv, code in zip(distinct, codes)}
    assert fresh[tuple(usage_error)] == (2, None) and fresh[tuple(config_error)] == (2, None)
    for argv in sequence:
        assert result(argv, in_process(argv)) == fresh[tuple(argv)], argv


@pytest.mark.parametrize(
    "argv", [["forecast"], ["sweep", "--axis", "sigma"]], ids=["forecast", "sweep-sigma"]
)
def test_coincident_thresholds_are_silent_by_default(argv):
    # equal spacing and equal priors make crossings coincide exactly; the
    # tie is logged at DEBUG level, which is silent unless configured
    env = dict(os.environ, PYTHONPATH=str(Path(voteflow.__file__).resolve().parents[1]))
    config = CONFIG_DIR / "five_candidate_peak_support.json"
    proc = subprocess.run(
        [sys.executable, "-m", "voteflow.cli", argv[0], "--config", str(config), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert proc.returncode == 0
    assert "coincident" not in proc.stderr and "Warning" not in proc.stderr, proc.stderr


@pytest.mark.parametrize(
    "config, argv",
    [
        ("five_candidate_peak_support.json", ["maxsupport"]),
        ("two_candidate_week_out.json", ["calibrate"]),
        ("win_vs_support.json", ["sweep", "--axis", "priors"]),
        ("correlated_sources.json", ["aggregate"]),
    ],
    ids=["maxsupport", "calibrate", "sweep-priors", "aggregate"],
)
def test_subcommand_builds_one_model_per_race(built_models, capsys, config, argv):
    # the config's race is validated once, and every analysis of the
    # subcommand reads that one model
    assert main([argv[0], "--config", str(CONFIG_DIR / config), *argv[1:]]) == 0
    assert len(built_models) == 1


@pytest.mark.parametrize("argv", [["aggregate"], ["calibrate", "--data"]],
                         ids=["aggregate", "calibrate-data"])
@pytest.mark.parametrize(
    "change",
    [
        lambda cfg: cfg["candidates"][1].update(position=5.0),
        lambda cfg: cfg["candidates"][0].update(prior=0.9),
        lambda cfg: cfg.update(horizon_years=-1.0),
    ],
    ids=["positions-1-5-3", "priors-sum-1.52", "horizon-minus-1"],
)
def test_invalid_race_is_a_config_error_where_no_analysis_reads_it(tmp_path, capsys, change, argv):
    # aggregate reads only the sources block and calibrate --data only the
    # positions, yet the race is checked as the config is read, before either
    payload = json.loads((CONFIG_DIR / "correlated_sources.json").read_text(encoding="utf-8"))
    if argv[-1] == "--data":
        argv = [*argv, write_polls(tmp_path, payload)]
    change(payload)
    assert main([*argv, "--config", write_config(tmp_path, payload)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: invalid model parameters: "), err


# --------------------------------------------------------------------------
# contract over the bundled configs: strict output, and one report in two formats
# --------------------------------------------------------------------------

def contract_cases():
    for path in sorted(CONFIG_DIR.glob("*.json")):
        cfg = json.loads(path.read_text(encoding="utf-8"))
        sweep = cfg.get("sweep", {})
        argvs = [["forecast"], ["deadzone"], ["maxsupport"], ["sweep", "--axis", "sigma"],
                 ["calibrate", "--data"]]
        if len(cfg["candidates"]) <= 3 or "prior_grid" in sweep:
            argvs.append(["sweep", "--axis", "priors"])
        if "position_variants" in sweep:
            argvs.append(["sweep", "--axis", "positions"])
        if "simulation" in cfg:
            argvs.append(["simulate"])
        if "sources" in cfg:
            argvs.append(["aggregate"])
        if "target" in cfg:
            argvs.append(["calibrate"])
        for argv in argvs:
            yield pytest.param(path, argv, id=f"{path.stem}-{'-'.join(a.strip('-') for a in argv)}")


def reject_constant(token):
    raise AssertionError(f"non-standard JSON token {token}")


def parse_csv(text):
    assert text.endswith("\n") and "\r" not in text
    lines = text[:-1].split("\n")
    meta = {}
    while lines and lines[0].startswith("#"):
        key, sep, value = lines.pop(0)[2:].partition("=")
        assert sep, "metadata line without '='"
        meta[key] = value
    header, *rows = (line.split(",") for line in lines)
    assert all(len(row) == len(header) for row in rows), "ragged CSV rows"
    return meta, header, rows


def csv_view(command, doc, cfg):
    """The CSV metadata, header and rows that a JSON report implies."""
    names = [c["name"] for c in cfg["candidates"]]
    if command == "sweep":
        return doc["metadata"], doc["columns"], doc["rows"]
    if command == "simulate":
        header = ["path", "t", *(f"pi_{n}" for n in names), *(f"win_{n}" for n in names)]
        rows = [
            [i, t, *s, *w]
            for i, (support, win) in enumerate(zip(doc["support"], doc["win_probs"]))
            for t, s, w in zip(doc["times"], support, win)
        ]
        return doc["metadata"], header, rows
    if command == "forecast":
        meta = {
            "horizon_years": doc["horizon_years"],
            "sigma": doc["sigma"],
            "ordering_probability_sum": doc["ordering_probability_sum"],
            **{f"ordering {k}": v for k, v in doc["ordering_probabilities"].items()},
        }
        rows = [
            [c["name"], c["position"], c["prior"], doc["win_probabilities"][c["name"]],
             doc["dead_zones"][c["name"]]]
            for c in doc["candidates"]
        ]
        return meta, ["candidate", "position", "prior", "p_win", "dead_zone"], rows
    if command == "deadzone":
        rows = [
            [n, r["is_dead"], "" if r["sigma_bound"] is None else r["sigma_bound"]]
            for n, r in doc["dead_zones"].items()
        ]
        return {"sigma": doc["sigma"]}, ["candidate", "is_dead", "sigma_bound"], rows
    if command == "maxsupport":
        header = ["sigma", *(f"max_support_{n}" for n in doc["max_support"])]
        rows = [[s, *col] for s, *col in zip(doc["sigma_grid"], *doc["max_support"].values())]
        return {"horizon_years": doc["horizon_years"]}, header, rows
    if command == "aggregate":
        rates = cfg["sources"]["rates"]
        rows = [[i, r, w] for i, (r, w) in enumerate(zip(rates, doc["noise_weights"]))]
        return {"effective_sigma": doc["effective_sigma"]}, ["source", "rate", "noise_weight"], rows
    assert command == "calibrate"
    rows = [["historic", doc["historic"]["sigma"]]] if "historic" in doc else []
    rows += [["implied", s] for s in doc.get("implied", {}).get("solutions", [])]
    return {}, ["method", "sigma"], rows


def same_cell(cell, value):
    if isinstance(value, str):
        return cell == value
    return float(cell) == float(value)  # bools read as 0/1


def write_polls(tmp_path, cfg):
    model = ElectionModel(
        [c["position"] for c in cfg["candidates"]],
        [c["prior"] for c in cfg["candidates"]],
        cfg["horizon_years"],
        cfg["sigma"],
    )
    bundle = posterior_paths(simulate_paths(model, 1, 200, seed=88))
    lines = [",".join(["t", *(c["name"] for c in cfg["candidates"])])]
    lines += [",".join(f"{v:.17g}" for v in (t, *row)) for t, row in zip(bundle.times, bundle.support[0])]
    path = tmp_path / "polls.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("config, argv", contract_cases())
def test_bundled_config_reports_agree_across_formats(tmp_path, capsys, config, argv):
    cfg = json.loads(config.read_text(encoding="utf-8"))
    if argv[-1] == "--data":
        argv = [*argv, write_polls(tmp_path, cfg)]
    outputs = {}
    for fmt in ("json", "csv"):
        assert main([*argv, "--config", str(config), "--format", fmt]) == 0
        outputs[fmt] = capsys.readouterr().out
    doc = json.loads(outputs["json"], parse_constant=reject_constant)
    assert outputs["json"] == json.dumps(doc, indent=2) + "\n"  # json's own layout
    meta, header, rows = parse_csv(outputs["csv"])
    want_meta, want_header, want_rows = csv_view(argv[0], doc, cfg)
    assert header == want_header
    assert meta.keys() == want_meta.keys()
    assert all(same_cell(meta[k], v) for k, v in want_meta.items()), meta
    assert len(rows) == len(want_rows)
    for row, want in zip(rows, want_rows):
        assert len(row) == len(want) and all(map(same_cell, row, want)), (row, want)
