"""Command-line front end: scenario configs in, JSON/CSV reports out.

One JSON config format drives every subcommand (see README for the schema);
``load_config`` validates its race once, as the ``ElectionModel`` that every
subcommand reads. Outputs are deterministic byte-for-byte given the same
inputs and seeds. CSV files carry '#'-prefixed metadata lines, a header row,
17-significant-digit floats, and LF line endings. Exit codes: 0 success, 2
config or validation error (an invalid race under every subcommand), 3 I/O
or input-data error, 4 numerical failure.

Each subcommand returns one ``Report``; ``main`` hands it to ``_emit``,
which checks that its numbers are finite and writes it in the chosen
format, and maps exceptions to exit codes.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import re
import sys
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, TextIO

import numpy as np

from .aggregation import SourceSet, aggregate_n
from .calibration import PollSeries, estimate_sigma_historic, implied_sigma
from .errors import (
    ConfigError,
    CsvDataError,
    DegenerateSeriesWarning,
    MissingSweepBlock,
    NonIncreasingPositions,
    NonPositiveRate,
    NumericalError,
    ValidationError,
)
from .model import ElectionModel, InfoSchedule, _rate_variances
from .outcomes import win_probabilities
from .simulation import simulate_paths, winprob_paths
from .strategy import (
    _max_support_points,
    _simplex_cells,
    is_dead_zone,
    max_support_curve,
    sweep_positions,
    sweep_priors,
    sweep_sigma,
)

SPECTRUM_NOTE = (
    "candidates with a smaller position are placed politically to the left "
    "of candidates with a larger position"
)

_log = logging.getLogger("voteflow.cli")  # not __name__: "__main__" under python -m

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

#: Largest n_paths * (n_steps + 1) a simulation block may ask for: each path
#: point becomes a report row and several floats per candidate in memory.
MAX_PATH_POINTS = 10**6

#: Largest prior simplex a sweep.prior_grid_step may ask for: each grid point
#: becomes a validated prior row and a report row.
MAX_PRIOR_GRID_POINTS = 10**5


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioConfig:
    names: tuple[str, ...]
    model: ElectionModel
    sigma_grid: Optional[tuple[float, ...]] = None
    prior_grid: Optional[tuple[tuple[float, ...], ...]] = None
    prior_grid_step: Optional[float] = None
    position_variants: Optional[tuple[tuple[float, ...], ...]] = None
    simulation: Optional[dict] = None
    sources: Optional[dict] = None
    target: Optional[dict] = None


@contextmanager
def _field(context: str, kind=ValidationError):
    """Re-raise a library rejection of class ``kind`` as a ConfigError led
    by ``context``, usually the config field the rejected value came from."""
    try:
        yield
    except kind as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _is_number(value) -> bool:
    """Whether a parsed JSON value is a number (not a bool) that is finite
    as a float. NaN and Infinity tokens are parsed as strings, and 1e400 as
    inf, so all three fail here."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _require(mapping: dict, key: str, kind, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required field '{key}'")
    value = mapping[key]
    if kind is float:
        if not _is_number(value):
            raise ConfigError(f"{context}.{key}: expected a finite number, got {value!r}")
        return float(value)
    if not isinstance(value, kind):
        raise ConfigError(f"{context}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _integer(mapping: dict, key: str, context: str, minimum: int) -> int:
    value = _require(mapping, key, float, context)
    if not (value.is_integer() and value >= minimum):
        raise ConfigError(
            f"{context}.{key}: expected an integer >= {minimum}, got {mapping[key]!r}"
        )
    return int(mapping[key])


def _float_list(value, context: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not all(_is_number(v) for v in value):
        raise ConfigError(f"{context}: expected a list of finite numbers")
    return tuple(float(v) for v in value)


def _vectors(value, context: str) -> tuple[tuple[float, ...], ...]:
    if not isinstance(value, list):
        raise ConfigError(f"{context}: expected a list of vectors")
    return tuple(_float_list(v, f"{context}[{i}]") for i, v in enumerate(value))


def _parse_schedule(value, context: str) -> InfoSchedule:
    if _is_number(value):
        with _field(context):
            return InfoSchedule.constant(float(value))
    if isinstance(value, dict):
        breaks = _float_list(_require(value, "breakpoints", list, context), f"{context}.breakpoints")
        rates = _float_list(_require(value, "rates", list, context), f"{context}.rates")
        with _field(context):
            return InfoSchedule.piecewise(breaks, rates)
    raise ConfigError(f"{context}: sigma must be a number or {{breakpoints, rates}}")


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text, parse_constant=str)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")

    candidates = _require(raw, "candidates", list, path)
    names, positions, priors = [], [], []
    for i, entry in enumerate(candidates):
        ctx = f"{path}.candidates[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{ctx}: expected an object")
        name = _require(entry, "name", str, ctx)
        if "," in name or not name or not name.isprintable():
            raise ConfigError(
                f"{ctx}.name: must be nonempty, printable and comma-free, got {name!r}"
            )
        names.append(name)
        positions.append(_require(entry, "position", float, ctx))
        priors.append(_require(entry, "prior", float, ctx))
    if len(set(names)) != len(names):
        raise ConfigError(f"{path}.candidates: names must be unique, got {names}")

    horizon = _require(raw, "horizon_years", float, path)
    schedule = _parse_schedule(_require(raw, "sigma", object, path), f"{path}.sigma")
    with _field("invalid model parameters"):
        model = ElectionModel(positions, priors, horizon, schedule)

    sigma_grid = prior_grid = position_variants = None
    prior_grid_step = None
    sweep = raw.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, dict):
            raise ConfigError(f"{path}.sweep: expected an object")
        if "sigma_grid" in sweep:
            sigma_grid = _float_list(sweep["sigma_grid"], f"{path}.sweep.sigma_grid")
            if not sigma_grid:
                raise ConfigError(f"{path}.sweep.sigma_grid: expected at least one rate")
            # checked here, so only the default rate grid can fail a command (at horizon_years)
            with _field(f"{path}.sweep.sigma_grid"):
                _rate_variances(sigma_grid, model.horizon)
        if "prior_grid" in sweep:
            prior_grid = _vectors(sweep["prior_grid"], f"{path}.sweep.prior_grid")
            if not prior_grid:
                raise ConfigError(f"{path}.sweep.prior_grid: expected at least one vector")
            if "prior_grid_step" in sweep:
                raise ConfigError(f"{path}.sweep: give prior_grid or prior_grid_step, not both")
        if "prior_grid_step" in sweep:
            ctx = f"{path}.sweep.prior_grid_step"
            step = prior_grid_step = _require(sweep, "prior_grid_step", float, f"{path}.sweep")
            with _field(ctx):
                points = math.comb(_simplex_cells(step) + len(names) - 1, len(names) - 1)
            if points > MAX_PRIOR_GRID_POINTS:
                raise ConfigError(f"{ctx}: {points} grid points exceed {MAX_PRIOR_GRID_POINTS}")
        if "position_variants" in sweep:
            position_variants = _vectors(
                sweep["position_variants"], f"{path}.sweep.position_variants"
            )

    simulation = raw.get("simulation")
    if simulation is not None:
        ctx = f"{path}.simulation"
        if not isinstance(simulation, dict):
            raise ConfigError(f"{ctx}: expected an object")
        simulation = {
            "n_paths": _integer(simulation, "n_paths", ctx, 1),
            "n_steps": _integer(simulation, "n_steps", ctx, 1),
            "seed": _integer(simulation, "seed", ctx, 0),
        }
        points = simulation["n_paths"] * (simulation["n_steps"] + 1)
        if points > MAX_PATH_POINTS:
            raise ConfigError(
                f"{ctx}: n_paths * (n_steps + 1) = {points} exceeds {MAX_PATH_POINTS}"
            )

    sources = raw.get("sources")
    if sources is not None:
        ctx = f"{path}.sources"
        if not isinstance(sources, dict):
            raise ConfigError(f"{ctx}: expected an object")
        rates = _float_list(_require(sources, "rates", list, ctx), f"{ctx}.rates")
        matrix = _vectors(_require(sources, "correlation", list, ctx), f"{ctx}.correlation")
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
        model=model,
        sigma_grid=sigma_grid,
        prior_grid=prior_grid,
        prior_grid_step=prior_grid_step,
        position_variants=position_variants,
        simulation=simulation,
        sources=sources,
        target=target,
    )


# --------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Report:
    """One subcommand's output: ``json`` is the JSON value (numpy arrays
    allowed), and it holds every computed number the CSV form shows; ``meta``,
    ``header``, ``kinds`` (one ``CSV_FORMATS`` key per column) and ``rows``
    are the CSV form. ``_emit`` checks ``json`` in either format and
    iterates ``rows`` (lazy where it is large) only for CSV output."""

    json: object
    meta: dict
    header: Sequence[str]
    kinds: Sequence[type]
    rows: Iterable[tuple]


#: CSV cell format per column kind, fixed by the subcommand, not by row data
CSV_FORMATS = {float: "%.17g", int: "%d", str: "%s"}


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _finite_or_none(x: float):
    return x if math.isfinite(x) else None


def _listed(items, pad: str) -> str:
    """``json.dumps(items, indent=2)`` of nested lists of numbers, lines led by ``pad``."""
    if not (isinstance(items, list) and items):
        return repr(items)  # a number, or []
    inner = pad + "  "
    texts = (_listed(i, inner) for i in items) if isinstance(items[0], list) else map(repr, items)
    return "[" + inner + ("," + inner).join(texts) + pad + "]"


def _non_finite(value) -> Optional[tuple[str, float]]:
    """The place (as ``.support[0][0, 0]``) and value of the first non-finite
    number in a report's JSON value, or None: a float array is checked with
    one ``np.isfinite``, a float with ``math.isfinite``, dicts and lists by item."""
    if isinstance(value, float):
        return None if math.isfinite(value) else ("", value)
    if isinstance(value, np.ndarray) and value.dtype.kind == "f":
        bad = np.argwhere(~np.isfinite(value))
        return (str(bad[0].tolist()), float(value[tuple(bad[0])])) if len(bad) else None
    is_dict = isinstance(value, dict)
    if not (is_dict or isinstance(value, (list, tuple))):
        return None
    for key, item in value.items() if is_dict else enumerate(value):
        bad = _non_finite(item)
        if bad is not None:
            return (f".{key}" if is_dict else f"[{key}]") + bad[0], bad[1]
    return None


def _json_pieces(report: dict) -> Iterator[str]:
    """``json.dumps(report, indent=2, allow_nan=False, default=np.ndarray.tolist)``
    in pieces. Each numeric array, alone or in a list of them, is one piece
    of its ``tolist()`` joined with ``repr`` (``_emit`` has checked it finite);
    any other value, or a report with no such array, is ``json``'s own text."""
    arrays = {k: v if isinstance(v, list) else [v] for k, v in report.items()}
    arrays = {k: a for k, a in arrays.items() if a and all(
        isinstance(x, np.ndarray) and x.dtype.kind in "fiu" for x in a)}
    for i, (key, value) in enumerate(report.items() if arrays else ()):
        yield ("," if i else "{") + "\n  " + json.dumps(key) + ": "
        if key not in arrays:
            yield json.dumps(value, indent=2, allow_nan=False, default=np.ndarray.tolist).replace("\n", "\n  ")
            continue
        inside = arrays[key] is value  # a list of arrays
        pad = "\n    " if inside else "\n  "
        for j, a in enumerate(arrays[key]):
            yield ("," if j else "[") + pad + _listed(a.tolist(), pad) if inside else _listed(a.tolist(), pad)
        yield "\n  ]" if inside else ""
    yield "\n}" if arrays else json.dumps(report, indent=2, allow_nan=False, default=np.ndarray.tolist)


def _emit(report: Report, args, stdout: TextIO) -> None:
    """Write the report in ``args.format`` to ``args.out``, or to stdout,
    as it is generated: no more than one JSON array's text is held. First,
    in either format, a non-finite number in the JSON value is a
    ``NumericalError`` naming its place. If writing fails part-way, the
    ``--out`` file is removed before the error goes on."""
    bad = _non_finite(report.json)
    if bad is not None:
        raise NumericalError(f"{args.command} report: {bad[0].removeprefix('.')} is {bad[1]}")
    to_file = args.out is not None
    sink = open(args.out, "w", encoding="utf-8", newline="\n") if to_file else nullcontext(stdout)
    try:
        with sink as fh:
            if args.format == "csv":
                fh.writelines(f"# {key}={value}\n" for key, value in report.meta.items())
                fh.write(",".join(report.header) + "\n")
                template = ",".join(CSV_FORMATS[kind] for kind in report.kinds) + "\n"
                fh.writelines(template % row for row in report.rows)
            else:
                fh.writelines(_json_pieces(report.json))
                fh.write("\n")
    except BaseException:
        if to_file:
            os.remove(args.out)
        raise
    if to_file:
        _log.info("wrote %s", args.out)


def _named(columns: Sequence[str], names: Sequence[str]) -> list[str]:
    """A table's column labels with each candidate index replaced by that
    candidate's name. The index is the first '_<digits>' part of a label,
    as in p_win_0 or delta_0_v1."""
    return [re.sub(r"(?<=_)\d+", lambda m: names[int(m.group())], c, count=1) for c in columns]


def _array_rows(array: np.ndarray) -> Iterator[tuple]:
    """A 2-D array's rows as tuples of Python numbers, listed when CSV output asks."""
    yield from map(tuple, array.tolist())


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

def cmd_forecast(args, cfg: ScenarioConfig) -> Report:
    model = cfg.model
    outcome = win_probabilities(model)
    partition = outcome.partition
    ordering_probs = {
        _ordering_label(cell.ordering, cfg.names): outcome.ordering_probs[cell.ordering]
        for cell in partition.cells
    }
    ordering_sum = math.fsum(outcome.ordering_probs.values())
    dead_zones = {name: is_dead_zone(model, i).is_dead for i, name in enumerate(cfg.names)}
    _log.info("ordering probabilities sum to %.17g", ordering_sum)
    constant = model.schedule.is_constant
    rate = model.schedule.rates[0] if constant else None
    cells = [
        {
            "lower_y": _finite_or_none(cell.lower),
            "upper_y": _finite_or_none(cell.upper),
            "ordering": _ordering_label(cell.ordering, cfg.names),
            **({"lower_xi": _finite_or_none(cell.lower / rate),
                "upper_xi": _finite_or_none(cell.upper / rate)} if constant else {}),
        }
        for cell in partition.cells
    ]
    return Report(
        json={
            "spectrum_convention": SPECTRUM_NOTE,
            "candidates": [
                {"name": n, "position": x, "prior": p}
                for n, x, p in zip(cfg.names, model.positions, model.priors)
            ],
            "horizon_years": model.horizon,
            "sigma": _schedule_json(model.schedule),
            "win_probabilities": dict(zip(cfg.names, outcome.win_probs)),
            "ordering_probabilities": ordering_probs,
            "ordering_probability_sum": ordering_sum,
            "partition": {
                "boundaries_y": list(partition.boundaries),
                **({"boundaries_xi": [b / rate for b in partition.boundaries]} if constant else {}),
                "cells": cells,
            },
            "dead_zones": dead_zones,
        },
        meta={
            "horizon_years": _fmt(model.horizon),
            "sigma": _schedule_meta(model.schedule),
            "ordering_probability_sum": _fmt(ordering_sum),
            **{f"ordering {label}": _fmt(p) for label, p in ordering_probs.items()},
        },
        header=["candidate", "position", "prior", "p_win", "dead_zone"],
        kinds=[str, float, float, float, int],
        rows=list(zip(cfg.names, model.positions, model.priors, outcome.win_probs.tolist(),
                      map(int, dead_zones.values()))),
    )


def cmd_sweep(args, cfg: ScenarioConfig) -> Report:
    model = cfg.model
    meta = {"axis": args.axis}
    if args.axis == "sigma":
        with _field(f"{args.config}.horizon_years", NonPositiveRate):
            table = sweep_sigma(model, cfg.sigma_grid)
        axis_columns = ["sigma"]
    elif args.axis == "priors":
        try:
            table = sweep_priors(model, cfg.prior_grid, cfg.prior_grid_step)
        except ValidationError as exc:
            if cfg.prior_grid is None:
                raise MissingSweepBlock(
                    f"prior sweep for {len(cfg.names)} candidates needs an explicit "
                    f"sweep.prior_grid ({exc})"
                ) from exc
            with _field(f"{args.config}.sweep.prior_grid"):
                raise
        axis_columns = [f"p{i + 1}" for i in range(len(cfg.names))]
    else:  # positions
        if not cfg.position_variants:
            raise MissingSweepBlock("position sweep needs sweep.position_variants in the config")
        with (
            _field(f"{args.config}.sweep.position_variants", NonIncreasingPositions),
            _field(f"{args.config}.horizon_years", NonPositiveRate),
        ):
            table = sweep_positions(model, cfg.position_variants, cfg.sigma_grid)
        axis_columns = ["sigma"]
        for vi, variant in enumerate(cfg.position_variants):
            meta[f"variant_{vi + 1}"] = ";".join(_fmt(x) for x in variant)
    meta["horizon_years"] = _fmt(model.horizon)
    meta["sigma"] = _schedule_meta(model.schedule)
    header = axis_columns + _named(table.columns, cfg.names)
    rows = np.column_stack((table.axis_values, table.values))  # a prior point spans columns
    return Report(
        json={"axis": table.axis_name, "columns": header, "rows": rows, "metadata": meta},
        meta=meta,
        header=header,
        kinds=[float] * len(header),
        rows=_array_rows(rows),
    )


def cmd_simulate(args, cfg: ScenarioConfig) -> Report:
    if cfg.simulation is None:
        raise ConfigError(f"{args.config}: simulate needs a simulation block")
    model = cfg.model
    seed = args.seed if args.seed is not None else cfg.simulation["seed"]
    n_paths = cfg.simulation["n_paths"]
    n_steps = cfg.simulation["n_steps"]
    with _field("--seed"):  # the config's counts and seed were checked as it was read
        ensemble = simulate_paths(model, n_paths, n_steps, seed)
    # far positions overflow the log weights; the report's finiteness check
    # names the first NaN they leave
    with np.errstate(over="ignore", invalid="ignore"):
        bundle = winprob_paths(ensemble)

    def rows():
        times = bundle.times.tolist()
        for i, (support, win) in enumerate(zip(bundle.support, bundle.win_probs)):
            yield from ((i, t, *s, *w) for t, s, w in zip(times, support.tolist(), win.tolist()))

    meta = {
        "seed": seed,
        "n_paths": n_paths,
        "n_steps": n_steps,
        "horizon_years": _fmt(model.horizon),
        "sigma": _schedule_meta(model.schedule),
    }
    return Report(
        json={
            "metadata": meta,
            "times": bundle.times,
            "latent": ensemble.latent,
            "support": list(bundle.support),
            "win_probs": list(bundle.win_probs),
        },
        meta=meta,
        header=["path", "t", *(f"pi_{n}" for n in cfg.names), *(f"win_{n}" for n in cfg.names)],
        kinds=[int, float, *[float] * (2 * len(cfg.names))],
        rows=rows(),
    )


def cmd_deadzone(args, cfg: ScenarioConfig) -> Report:
    model = cfg.model
    reports = {name: is_dead_zone(model, i) for i, name in enumerate(cfg.names)}
    return Report(
        json={
            "spectrum_convention": SPECTRUM_NOTE,
            "sigma": _schedule_json(model.schedule),
            "horizon_years": model.horizon,
            "dead_zones": {
                name: {"is_dead": rep.is_dead, "sigma_bound": rep.sigma_bound}
                for name, rep in reports.items()
            },
        },
        meta={"sigma": _schedule_meta(model.schedule)},
        header=["candidate", "is_dead", "sigma_bound"],
        kinds=[str, int, str],
        rows=[
            (name, int(rep.is_dead), "" if rep.sigma_bound is None else _fmt(rep.sigma_bound))
            for name, rep in reports.items()
        ],
    )


def cmd_maxsupport(args, cfg: ScenarioConfig) -> Report:
    model = cfg.model
    with _field(f"{args.config}.horizon_years", NonPositiveRate):
        table = max_support_curve(model, cfg.sigma_grid)
    points = {
        cfg.names[r.candidate]: {"y_star": r.y_star, "pi_max": r.pi_max, "residual": r.residual}
        for r in _max_support_points(model, range(1, len(cfg.names) - 1))
    }
    return Report(
        json={
            "sigma_grid": table.axis_values,
            "max_support": dict(zip(cfg.names, table.values.T)),
            "at_config_sigma": points,
            "horizon_years": model.horizon,
        },
        meta={"horizon_years": _fmt(model.horizon)},
        header=["sigma", *_named(table.columns, cfg.names)],
        kinds=[float] * (1 + len(table.columns)),
        rows=_array_rows(np.column_stack((table.axis_values, table.values))),
    )


def cmd_aggregate(args, cfg: ScenarioConfig) -> Report:
    if cfg.sources is None:
        raise ConfigError(f"{args.config}: aggregate needs a sources block")
    with _field(f"{args.config}.sources"):
        sources = SourceSet(rates=cfg.sources["rates"], correlation=cfg.sources["correlation"])
    channel = aggregate_n(sources)
    w = channel.noise_weights
    return Report(
        json={
            "effective_sigma": channel.sigma,
            "noise_weights": w,
            "noise_variance_check": float(w @ sources.correlation @ w),
            "rate_gradient": channel.rate_gradient,
        },
        meta={"effective_sigma": _fmt(channel.sigma)},
        header=["source", "rate", "noise_weight"],
        kinds=[int, float, float],
        rows=list(zip(range(len(w)), sources.rates.tolist(), w.tolist())),
    )


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
    try:
        return PollSeries(times=times, supports=supports, positions=positions)
    except ValidationError as exc:
        raise CsvDataError(f"{path}: {exc}") from exc


def cmd_calibrate(args, cfg: ScenarioConfig) -> Report:
    if args.data is None and cfg.target is None:
        raise ConfigError(
            f"{args.config}: calibrate needs --data (historic) and/or a target block (implied)"
        )
    obj: dict = {}
    rows = []
    if args.data is not None:
        series = read_poll_csv(args.data, cfg.names, cfg.model.positions)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DegenerateSeriesWarning)
            est = estimate_sigma_historic(series)
        for w in caught:  # the report's sigma of 0 says it; stderr stays silent
            if issubclass(w.category, DegenerateSeriesWarning):
                _log.info("%s", w.message)
            else:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        obj["historic"] = {
            "sigma": est.sigma,
            "standard_error": est.standard_error,
            "effective_increments": est.effective_increments,
            "n_observations": series.n_observations,
        }
        rows.append(("historic", est.sigma))
    if cfg.target is not None:
        k = cfg.names.index(cfg.target["candidate"])
        with _field(f"{args.config}.target.win_probability"):
            solutions = implied_sigma(cfg.model, k, cfg.target["win_probability"])
        obj["implied"] = {
            "candidate": cfg.target["candidate"],
            "win_probability": cfg.target["win_probability"],
            "solutions": [float(s) for s in solutions],
        }
        rows += [("implied", s) for s in solutions]
    return Report(json=obj, meta={}, header=["method", "sigma"], kinds=[str, float],
                  rows=rows)


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

#: Exit code per exception class; the first class that matches wins.
EXIT_CODES = {
    ValidationError: EXIT_CONFIG,  # ConfigError included
    CsvDataError: EXIT_IO,
    OSError: EXIT_IO,
    NumericalError: EXIT_NUMERICAL,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voteflow",
        description="Election outcome probabilities under a noisy-information model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # name, default format, help, extra arguments. Built once per process; ``main``
    # looks up each handler by name as it runs, so a rebound cmd_* takes effect.
    commands = (
        ("forecast", "json", "ordering and win probabilities", {}),
        ("sweep", "csv", "win probabilities over a parameter grid",
         {"--axis": {"choices": ("sigma", "priors", "positions"), "required": True}}),
        ("simulate", "csv", "seeded sample paths of supports and win probabilities",
         {"--seed": {"type": int, "default": None, "help": "override the config seed"}}),
        ("deadzone", "json", "dead-zone flags and the centre-candidate rate bound", {}),
        ("maxsupport", "json", "peak attainable support over a rate grid", {}),
        ("aggregate", "json", "effective rate and noise weights of correlated sources", {}),
        ("calibrate", "json", "historic and implied information flow rate",
         {"--data": {"default": None, "help": "poll CSV (t,<name1>,...,<nameN>)"}}),
    )
    for name, default_format, help_text, extra in commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario config JSON")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default=default_format)
        for flag, options in extra.items():
            p.add_argument(flag, **options)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = globals()["cmd_" + args.command]
    try:
        _emit(handler(args, load_config(args.config)), args, sys.stdout)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
