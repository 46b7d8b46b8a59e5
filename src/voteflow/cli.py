"""Command-line front end: scenario configs in, JSON/CSV reports out.

One JSON config format drives every subcommand (see README for the schema);
outputs are deterministic byte-for-byte given the same inputs and seeds.
CSV files carry '#'-prefixed metadata lines, a header row, 17-significant-
digit floats, and LF line endings. Exit codes: 0 success, 2 config or
validation error, 3 I/O or input-data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence, TextIO

import numpy as np

from .aggregation import SourceSet, aggregate_n
from .calibration import PollSeries, estimate_sigma_historic, implied_sigma
from .errors import (
    ConfigError,
    CsvDataError,
    MissingSweepBlock,
    NumericalError,
    ValidationError,
)
from .model import ElectionModel, InfoSchedule
from .outcomes import ordering_partition, win_probabilities
from .simulation import simulate_paths, winprob_paths
from .strategy import (
    default_sigma_grid,
    is_dead_zone,
    max_support_curve,
    max_support_point,
    simplex_grid,
    sweep_positions,
    sweep_priors,
    sweep_sigma,
)

SPECTRUM_NOTE = (
    "candidates with a smaller position are placed politically to the left "
    "of candidates with a larger position"
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioConfig:
    names: tuple[str, ...]
    positions: tuple[float, ...]
    priors: tuple[float, ...]
    horizon_years: float
    schedule: InfoSchedule
    sigma_grid: Optional[tuple[float, ...]] = None
    prior_grid: Optional[tuple[tuple[float, ...], ...]] = None
    prior_grid_step: Optional[float] = None
    position_variants: Optional[tuple[tuple[float, ...], ...]] = None
    simulation: Optional[dict] = None
    sources: Optional[dict] = None
    target: Optional[dict] = None
    raw: dict = field(default_factory=dict, repr=False)

    def model(self) -> ElectionModel:
        try:
            return ElectionModel(self.positions, self.priors, self.horizon_years, self.schedule)
        except ValidationError as exc:
            raise ConfigError(f"invalid model parameters: {exc}") from exc


def _require(mapping: dict, key: str, kind, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required field '{key}'")
    value = mapping[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{context}.{key}: expected a number, got {value!r}")
        return float(value)
    if not isinstance(value, kind):
        raise ConfigError(f"{context}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _float_list(value, context: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    ):
        raise ConfigError(f"{context}: expected a list of numbers")
    return tuple(float(v) for v in value)


def _parse_schedule(value, context: str) -> InfoSchedule:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if value <= 0:
            raise ConfigError(f"{context}: sigma must be > 0, got {value}")
        return InfoSchedule.constant(float(value))
    if isinstance(value, dict):
        breaks = _float_list(_require(value, "breakpoints", list, context), f"{context}.breakpoints")
        rates = _float_list(_require(value, "rates", list, context), f"{context}.rates")
        try:
            return InfoSchedule.piecewise(breaks, rates)
        except ValidationError as exc:
            raise ConfigError(f"{context}: {exc}") from exc
    raise ConfigError(f"{context}: sigma must be a number or {{breakpoints, rates}}")


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")

    candidates = _require(raw, "candidates", list, path)
    if len(candidates) < 2:
        raise ConfigError(f"{path}.candidates: need at least two candidates")
    names, positions, priors = [], [], []
    for i, entry in enumerate(candidates):
        ctx = f"{path}.candidates[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{ctx}: expected an object")
        name = _require(entry, "name", str, ctx)
        if "," in name or not name:
            raise ConfigError(f"{ctx}.name: must be nonempty and comma-free, got {name!r}")
        names.append(name)
        positions.append(_require(entry, "position", float, ctx))
        priors.append(_require(entry, "prior", float, ctx))
    if len(set(names)) != len(names):
        raise ConfigError(f"{path}.candidates: names must be unique, got {names}")

    horizon = _require(raw, "horizon_years", float, path)
    schedule = _parse_schedule(_require(raw, "sigma", object, path), f"{path}.sigma")

    sigma_grid = prior_grid = position_variants = None
    prior_grid_step = None
    sweep = raw.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, dict):
            raise ConfigError(f"{path}.sweep: expected an object")
        if "sigma_grid" in sweep:
            sigma_grid = _float_list(sweep["sigma_grid"], f"{path}.sweep.sigma_grid")
            if any(s <= 0 for s in sigma_grid):
                raise ConfigError(f"{path}.sweep.sigma_grid: entries must be > 0")
        if "prior_grid" in sweep:
            pg = sweep["prior_grid"]
            if not isinstance(pg, list):
                raise ConfigError(f"{path}.sweep.prior_grid: expected a list of prior vectors")
            prior_grid = tuple(
                _float_list(pt, f"{path}.sweep.prior_grid[{i}]") for i, pt in enumerate(pg)
            )
        if "prior_grid_step" in sweep:
            step = sweep["prior_grid_step"]
            if not isinstance(step, (int, float)) or isinstance(step, bool) or not (0 < step <= 1):
                raise ConfigError(f"{path}.sweep.prior_grid_step: expected a number in (0, 1]")
            prior_grid_step = float(step)
        if "position_variants" in sweep:
            pv = sweep["position_variants"]
            if not isinstance(pv, list):
                raise ConfigError(f"{path}.sweep.position_variants: expected a list of vectors")
            position_variants = tuple(
                _float_list(v, f"{path}.sweep.position_variants[{i}]") for i, v in enumerate(pv)
            )

    simulation = raw.get("simulation")
    if simulation is not None:
        ctx = f"{path}.simulation"
        if not isinstance(simulation, dict):
            raise ConfigError(f"{ctx}: expected an object")
        simulation = {
            "n_paths": int(_require(simulation, "n_paths", float, ctx)),
            "n_steps": int(_require(simulation, "n_steps", float, ctx)),
            "seed": int(_require(simulation, "seed", float, ctx)),
        }
        if simulation["n_paths"] < 1 or simulation["n_steps"] < 1:
            raise ConfigError(f"{ctx}: n_paths and n_steps must be >= 1")

    sources = raw.get("sources")
    if sources is not None:
        ctx = f"{path}.sources"
        if not isinstance(sources, dict):
            raise ConfigError(f"{ctx}: expected an object")
        rates = _float_list(_require(sources, "rates", list, ctx), f"{ctx}.rates")
        corr = _require(sources, "correlation", list, ctx)
        if not isinstance(corr, list):
            raise ConfigError(f"{ctx}.correlation: expected a matrix")
        matrix = tuple(_float_list(row, f"{ctx}.correlation[{i}]") for i, row in enumerate(corr))
        sources = {"rates": rates, "correlation": matrix}

    target = raw.get("target")
    if target is not None:
        ctx = f"{path}.target"
        if not isinstance(target, dict):
            raise ConfigError(f"{ctx}: expected an object")
        cand = _require(target, "candidate", str, ctx)
        if cand not in names:
            raise ConfigError(f"{ctx}.candidate: unknown candidate {cand!r}")
        target = {
            "candidate": cand,
            "win_probability": _require(target, "win_probability", float, ctx),
        }

    return ScenarioConfig(
        names=tuple(names),
        positions=tuple(positions),
        priors=tuple(priors),
        horizon_years=horizon,
        schedule=schedule,
        sigma_grid=sigma_grid,
        prior_grid=prior_grid,
        prior_grid_step=prior_grid_step,
        position_variants=position_variants,
        simulation=simulation,
        sources=sources,
        target=target,
        raw=raw,
    )


# --------------------------------------------------------------------------
# output helpers
# --------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _finite_or_none(x: float):
    return x if math.isfinite(x) else None


def _write_text(out_path: Optional[str], text: str, stdout: TextIO) -> None:
    if out_path is None:
        stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {out_path}", file=sys.stderr)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _csv_text(metadata: dict, header: Sequence[str], rows) -> str:
    lines = [f"# {key}={value}" for key, value in metadata.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _schedule_json(schedule: InfoSchedule):
    if schedule.is_constant:
        return schedule.rates[0]
    return {"breakpoints": list(schedule.breakpoints), "rates": list(schedule.rates)}


def _schedule_meta(schedule: InfoSchedule) -> str:
    if schedule.is_constant:
        return _fmt(schedule.rates[0])
    breaks = ";".join(_fmt(b) for b in schedule.breakpoints)
    rates = ";".join(_fmt(r) for r in schedule.rates)
    return f"piecewise breakpoints={breaks} rates={rates}"


def _ordering_label(ordering: Sequence[int], names: Sequence[str]) -> str:
    return ">".join(names[i] for i in ordering)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_forecast(args, stdout: TextIO) -> int:
    cfg = load_config(args.config)
    model = cfg.model()
    outcome = win_probabilities(model)
    partition = ordering_partition(model)
    ordering_sum = math.fsum(outcome.ordering_probs.values())
    constant = model.schedule.is_constant
    rate = model.schedule.rates[0] if constant else None

    cells = []
    for cell in partition.cells:
        entry = {
            "lower_y": _finite_or_none(cell.lower),
            "upper_y": _finite_or_none(cell.upper),
            "ordering": _ordering_label(cell.ordering, cfg.names),
        }
        if constant:
            entry["lower_xi"] = _finite_or_none(cell.lower / rate)
            entry["upper_xi"] = _finite_or_none(cell.upper / rate)
        cells.append(entry)

    report = {
        "spectrum_convention": SPECTRUM_NOTE,
        "candidates": [
            {"name": n, "position": x, "prior": p}
            for n, x, p in zip(cfg.names, model.positions, model.priors)
        ],
        "horizon_years": model.horizon,
        "sigma": _schedule_json(model.schedule),
        "win_probabilities": {
            name: float(outcome.win_probs[i]) for i, name in enumerate(cfg.names)
        },
        "ordering_probabilities": {
            _ordering_label(cell.ordering, cfg.names): outcome.ordering_probs[cell.ordering]
            for cell in partition.cells
        },
        "ordering_probability_sum": ordering_sum,
        "partition": {
            "boundaries_y": list(partition.boundaries),
            **({"boundaries_xi": [b / rate for b in partition.boundaries]} if constant else {}),
            "cells": cells,
        },
        "dead_zones": {
            name: is_dead_zone(model, i).is_dead for i, name in enumerate(cfg.names)
        },
    }

    print(f"ordering probabilities sum to {_fmt(ordering_sum)}", file=sys.stderr)
    if args.format == "csv":
        rows = [
            (name, float(x), float(p), float(outcome.win_probs[i]),
             int(report["dead_zones"][name]))
            for i, (name, x, p) in enumerate(zip(cfg.names, model.positions, model.priors))
        ]
        metadata = {
            "horizon_years": _fmt(model.horizon),
            "sigma": _schedule_meta(model.schedule),
            "ordering_probability_sum": _fmt(ordering_sum),
        }
        for cell in partition.cells:
            label = _ordering_label(cell.ordering, cfg.names)
            metadata[f"ordering {label}"] = _fmt(outcome.ordering_probs[cell.ordering])
        text = _csv_text(metadata, ["candidate", "position", "prior", "p_win", "dead_zone"], rows)
    else:
        text = _json_text(report)
    _write_text(args.out, text, stdout)
    return EXIT_OK


def _sweep_table(args, cfg: ScenarioConfig):
    model = cfg.model()
    names = cfg.names
    if args.axis == "sigma":
        table = sweep_sigma(model, cfg.sigma_grid)
        header = ["sigma"] + [f"p_win_{n}" for n in names]
        rows = [
            (float(s), *map(float, row)) for s, row in zip(table.axis_values, table.values)
        ]
        meta = {"axis": "sigma"}
    elif args.axis == "priors":
        if cfg.prior_grid is not None:
            points = cfg.prior_grid
        else:
            step = cfg.prior_grid_step if cfg.prior_grid_step is not None else 0.01
            try:
                points = simplex_grid(len(names), step)
            except ValidationError as exc:
                raise MissingSweepBlock(
                    f"prior sweep for {len(names)} candidates needs an explicit "
                    f"sweep.prior_grid ({exc})"
                ) from exc
        table = sweep_priors(cfg.positions, cfg.schedule, cfg.horizon_years, points)
        header = [f"p{i + 1}" for i in range(len(names))] + [f"p_win_{n}" for n in names]
        rows = [
            (*map(float, pt), *map(float, row))
            for pt, row in zip(table.axis_values, table.values)
        ]
        meta = {"axis": "priors"}
    else:  # positions
        if not cfg.position_variants:
            raise MissingSweepBlock("position sweep needs sweep.position_variants in the config")
        table = sweep_positions(model, cfg.position_variants, cfg.sigma_grid)
        n_var = len(cfg.position_variants)
        if n_var == 1:
            delta_cols = [f"delta_{n}" for n in names]
        else:
            delta_cols = [
                f"delta_{n}_v{vi + 1}" for vi in range(n_var) for n in names
            ]
        header = ["sigma"] + delta_cols
        rows = [
            (float(s), *map(float, row)) for s, row in zip(table.axis_values, table.values)
        ]
        meta = {"axis": "positions"}
        for vi, variant in enumerate(cfg.position_variants):
            meta[f"variant_{vi + 1}"] = ";".join(_fmt(x) for x in variant)
    meta["horizon_years"] = _fmt(cfg.horizon_years)
    meta["sigma"] = _schedule_meta(cfg.schedule)
    return table, header, rows, meta


def cmd_sweep(args, stdout: TextIO) -> int:
    cfg = load_config(args.config)
    table, header, rows, meta = _sweep_table(args, cfg)
    if args.format == "json":
        obj = {
            "axis": table.axis_name,
            "columns": header,
            "rows": [list(r) for r in rows],
            "metadata": {k: v for k, v in meta.items()},
        }
        text = _json_text(obj)
    else:
        text = _csv_text(meta, header, rows)
    _write_text(args.out, text, stdout)
    return EXIT_OK


def cmd_simulate(args, stdout: TextIO) -> int:
    cfg = load_config(args.config)
    if cfg.simulation is None:
        raise ConfigError(f"{args.config}: simulate needs a simulation block")
    model = cfg.model()
    seed = args.seed if args.seed is not None else cfg.simulation["seed"]
    n_paths = cfg.simulation["n_paths"]
    n_steps = cfg.simulation["n_steps"]
    ensemble = simulate_paths(model, n_paths, n_steps, seed)
    bundle = winprob_paths(ensemble, model)

    names = cfg.names
    header = (
        ["path", "t"]
        + [f"pi_{n}" for n in names]
        + [f"win_{n}" for n in names]
    )
    rows = []
    for i in range(n_paths):
        for m, t in enumerate(bundle.times):
            rows.append(
                (
                    i,
                    float(t),
                    *map(float, bundle.support[i, m]),
                    *map(float, bundle.win_probs[i, m]),
                )
            )
    meta = {
        "seed": seed,
        "n_paths": n_paths,
        "n_steps": n_steps,
        "horizon_years": _fmt(model.horizon),
        "sigma": _schedule_meta(model.schedule),
    }
    if args.format == "json":
        obj = {
            "metadata": meta,
            "times": [float(t) for t in bundle.times],
            "latent": [int(v) for v in ensemble.latent],
            "support": bundle.support.tolist(),
            "win_probs": bundle.win_probs.tolist(),
        }
        text = _json_text(obj)
    else:
        text = _csv_text(meta, header, rows)
    _write_text(args.out, text, stdout)
    return EXIT_OK


def cmd_deadzone(args, stdout: TextIO) -> int:
    cfg = load_config(args.config)
    model = cfg.model()
    reports = {}
    for i, name in enumerate(cfg.names):
        rep = is_dead_zone(model, i)
        reports[name] = {"is_dead": rep.is_dead, "sigma_bound": rep.sigma_bound}
    obj = {
        "spectrum_convention": SPECTRUM_NOTE,
        "sigma": _schedule_json(model.schedule),
        "horizon_years": model.horizon,
        "dead_zones": reports,
    }
    if args.format == "csv":
        rows = [
            (
                name,
                int(rep["is_dead"]),
                "" if rep["sigma_bound"] is None else _fmt(rep["sigma_bound"]),
            )
            for name, rep in reports.items()
        ]
        text = _csv_text(
            {"sigma": _schedule_meta(model.schedule)},
            ["candidate", "is_dead", "sigma_bound"],
            rows,
        )
    else:
        text = _json_text(obj)
    _write_text(args.out, text, stdout)
    return EXIT_OK


def cmd_maxsupport(args, stdout: TextIO) -> int:
    cfg = load_config(args.config)
    model = cfg.model()
    grid = cfg.sigma_grid if cfg.sigma_grid is not None else default_sigma_grid()
    table = max_support_curve(cfg.positions, cfg.priors, cfg.horizon_years, grid)

    points = {}
    for k in range(1, len(cfg.names) - 1):
        rep = max_support_point(model, k)
        points[cfg.names[k]] = {
            "y_star": rep.y_star,
            "pi_max": rep.pi_max,
            "residual": rep.residual,
        }
    if args.format == "csv":
        header = ["sigma"] + [f"max_support_{n}" for n in cfg.names]
        rows = [
            (float(s), *map(float, row)) for s, row in zip(table.axis_values, table.values)
        ]
        text = _csv_text(
            {"horizon_years": _fmt(cfg.horizon_years)},
            header,
            rows,
        )
    else:
        obj = {
            "sigma_grid": [float(s) for s in table.axis_values],
            "max_support": {
                name: [float(v) for v in table.values[:, i]]
                for i, name in enumerate(cfg.names)
            },
            "at_config_sigma": points,
            "horizon_years": cfg.horizon_years,
        }
        text = _json_text(obj)
    _write_text(args.out, text, stdout)
    return EXIT_OK


def cmd_aggregate(args, stdout: TextIO) -> int:
    cfg = load_config(args.config)
    if cfg.sources is None:
        raise ConfigError(f"{args.config}: aggregate needs a sources block")
    sources = SourceSet(
        rates=np.asarray(cfg.sources["rates"]),
        correlation=np.asarray(cfg.sources["correlation"]),
    )
    channel = aggregate_n(sources)
    w = channel.noise_weights
    obj = {
        "effective_sigma": channel.sigma,
        "noise_weights": [float(v) for v in w],
        "noise_variance_check": float(w @ sources.correlation @ w),
        "rate_gradient": [float(v) for v in channel.rate_gradient],
    }
    if args.format == "csv":
        rows = [
            (i, float(r), float(wi))
            for i, (r, wi) in enumerate(zip(sources.rates, w))
        ]
        text = _csv_text(
            {"effective_sigma": _fmt(channel.sigma)},
            ["source", "rate", "noise_weight"],
            rows,
        )
    else:
        text = _json_text(obj)
    _write_text(args.out, text, stdout)
    return EXIT_OK


def read_poll_csv(path: str, names: Sequence[str], positions: Sequence[float]) -> PollSeries:
    """Parse a poll CSV with header t,<name1>,...,<nameN>; rows of floats."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [s for s in (ln.strip() for ln in fh) if s and not s.startswith("#")]
    if not lines:
        raise CsvDataError(f"{path}: empty poll CSV")
    header = [cell.strip() for cell in lines[0].split(",")]
    if header[0] != "t":
        raise CsvDataError(f"{path} row 1: first column must be 't', got {header[0]!r}")
    if set(header[1:]) != set(names) or len(header) != len(names) + 1:
        raise CsvDataError(
            f"{path} row 1: support columns {header[1:]} do not match candidates {list(names)}"
        )
    order = [header[1:].index(n) for n in names]
    times, supports = [], []
    for row_no, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise CsvDataError(
                f"{path} row {row_no}: expected {len(header)} cells, got {len(cells)}"
            )
        try:
            values = [float(c) for c in cells]
        except ValueError as exc:
            raise CsvDataError(f"{path} row {row_no}: {exc}") from exc
        if not all(math.isfinite(v) for v in values):
            raise CsvDataError(f"{path} row {row_no}: non-finite value in {line!r}")
        times.append(values[0])
        supports.append([values[1:][i] for i in order])
    return PollSeries(
        times=np.asarray(times),
        supports=np.asarray(supports),
        positions=np.asarray(positions, dtype=float),
    )


def cmd_calibrate(args, stdout: TextIO) -> int:
    cfg = load_config(args.config)
    if args.data is None and cfg.target is None:
        raise ConfigError(
            f"{args.config}: calibrate needs --data (historic) and/or a target block (implied)"
        )
    obj: dict = {}
    if args.data is not None:
        series = read_poll_csv(args.data, cfg.names, cfg.positions)
        est = estimate_sigma_historic(series)
        obj["historic"] = {
            "sigma": est.sigma,
            "standard_error": est.standard_error,
            "effective_increments": est.effective_increments,
            "n_observations": series.n_observations,
        }
    if cfg.target is not None:
        k = cfg.names.index(cfg.target["candidate"])
        solutions = implied_sigma(
            cfg.positions,
            cfg.priors,
            cfg.horizon_years,
            k,
            cfg.target["win_probability"],
        )
        obj["implied"] = {
            "candidate": cfg.target["candidate"],
            "win_probability": cfg.target["win_probability"],
            "solutions": [float(s) for s in solutions],
        }
    if args.format == "csv":
        rows = []
        if "historic" in obj:
            rows.append(("historic", float(obj["historic"]["sigma"])))
        for s in obj.get("implied", {}).get("solutions", []):
            rows.append(("implied", float(s)))
        text = _csv_text({}, ["method", "sigma"], rows)
    else:
        text = _json_text(obj)
    _write_text(args.out, text, stdout)
    return EXIT_OK


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voteflow",
        description="Election outcome probabilities under a noisy-information model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, default_format="json"):
        p.add_argument("--config", required=True, help="scenario config JSON")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default=default_format)

    p = sub.add_parser("forecast", help="ordering and win probabilities")
    add_common(p)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("sweep", help="win probabilities over a parameter grid")
    add_common(p, default_format="csv")
    p.add_argument("--axis", choices=("sigma", "priors", "positions"), required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="seeded sample paths of supports and win probabilities")
    add_common(p, default_format="csv")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("deadzone", help="dead-zone flags and the centre-candidate rate bound")
    add_common(p)
    p.set_defaults(func=cmd_deadzone)

    p = sub.add_parser("maxsupport", help="peak attainable support over a rate grid")
    add_common(p)
    p.set_defaults(func=cmd_maxsupport)

    p = sub.add_parser("aggregate", help="effective rate and noise weights of correlated sources")
    add_common(p)
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("calibrate", help="historic and implied information flow rate")
    add_common(p)
    p.add_argument("--data", default=None, help="poll CSV (t,<name1>,...,<nameN>)")
    p.set_defaults(func=cmd_calibrate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CsvDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
