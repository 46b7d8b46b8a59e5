"""The workloads' operations and the checks on their outputs.

Each operation calls voteflow through a public name looked up at call time
(so the traced run sees every call), and each check compares the output
with ``oracle`` or with a stated property, never with stored output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracle
import voteflow
import voteflow.cli
from inputs import MC_DRAWS, Race, names_for, race_from_config

WIN_TOL = 1e-12  # win, ranking and conditioned probabilities vs the oracle
SUM_TOL = 1e-10  # ranking probabilities summing to 1
BOUND_REL_TOL = 1e-6  # dead-zone rate bound vs the closed form ...
BOUND_ABS_TOL = 2e-9  # ... plus the bisection's 1e-9 width tolerance
PEAK_TOL = 1e-8  # peak support vs golden section
IMPLIED_STEP = 1e-8  # implied_sigma's bisection tolerance
UNDERFLOW = 1e-300  # below this, the two implementations' tail masses may round to 0 differently


class CheckFailed(Exception):
    pass


def need(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    known_fault: bool = False


def variance(race: Race, t0: float = 0.0) -> float:
    return oracle.terminal_variance(race.breakpoints, race.rates, t0, race.horizon)


def schedule(race: Race):
    if race.constant:
        return race.rates[0]
    return voteflow.InfoSchedule.piecewise(race.breakpoints, race.rates)


def model(race: Race):
    return voteflow.ElectionModel(race.positions, race.priors, race.horizon, schedule(race))


def close(got, ref, tol: float, what: str) -> None:
    err = float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(ref, dtype=float))))
    need(err <= tol, f"{what} off by {err:.3g} (tolerance {tol:g})")


def close_dicts(got: dict, ref: dict, tol: float, what: str) -> None:
    keys = set(got) | set(ref)
    err = max(abs(got.get(k, 0.0) - ref.get(k, 0.0)) for k in keys)
    need(err <= tol, f"{what} off by {err:.3g} (tolerance {tol:g})")


def check_bound(race: Race, k: int, bound) -> None:
    """The rate bound exists only for the centre of three with positive
    priors and a constant rate; it matches the closed form and brackets the
    threshold-order predicate."""
    applicable = race.n == 3 and k == 1 and race.constant and min(race.priors) > 0.0
    ref = oracle.centre_bound(race.positions, race.priors, race.horizon) if applicable else None
    if ref is None:
        need(bound is None, f"sigma_bound {bound} where none exists")
        return
    need(bound is not None, f"sigma_bound missing (closed form {ref})")
    need(abs(bound - ref) <= BOUND_REL_TOL * ref + BOUND_ABS_TOL, f"sigma_bound {bound} vs {ref}")
    dead = lambda s: oracle.centre_dead(race.positions, race.priors, race.horizon, s)  # noqa: E731
    need(dead(0.99 * bound) and not dead(1.01 * bound), f"sigma_bound {bound} does not bracket the lockout")


# --------------------------------------------------------------------------
# queries: one-model questions through the library
# --------------------------------------------------------------------------

def ask(race: Race):
    m = model(race)
    win = voteflow.win_probabilities(m).win_probs
    ranking: dict = {}
    for cell in voteflow.ordering_partition(m).cells:
        p = voteflow.interval_probability(m, cell.lower, cell.upper)
        ranking[cell.ordering] = ranking.get(cell.ordering, 0.0) + p
    dead = [voteflow.is_dead_zone(m, k) for k in range(1, race.n - 1)]
    return win, ranking, [(d.is_dead, d.sigma_bound) for d in dead]


def check_answer(race: Race, answer) -> None:
    win, ranking, dead = answer
    v = variance(race)
    need(abs(math.fsum(ranking.values()) - 1.0) <= SUM_TOL, "ranking probabilities do not sum to 1")
    close(win, oracle.win_probabilities(race.positions, race.priors, v), WIN_TOL, "win probabilities")
    close_dicts(ranking, oracle.ranking_distribution(race.positions, race.priors, v), WIN_TOL, "rankings")
    for k, (is_dead, bound) in enumerate(dead, start=1):
        need(is_dead == oracle.is_locked_out(race.positions, race.priors, v, k), f"is_dead wrong for {k}")
        check_bound(race, k, bound)


def queries(spec: dict, work: Path) -> list[Op]:
    return [
        Op(f"query{i}", lambda r=race: ask(r), lambda out, r=race: check_answer(r, out))
        for i, race in enumerate(spec["races"])
    ]


# --------------------------------------------------------------------------
# CLI invocations and strict parsing of what they write
# --------------------------------------------------------------------------

def call_cli(argv: list[str], capture: bool = False):
    """Exit code of ``voteflow.cli.main(argv)`` (and stdout if captured).

    An uncaught exception counts as exit code 1, as for the console script.
    """
    out = io.StringIO()
    with open(os.devnull, "w") as sink:
        with contextlib.redirect_stdout(out if capture else sink), contextlib.redirect_stderr(sink):
            try:
                code = voteflow.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = 1
    return code, out.getvalue()


def _reject_constant(token: str):
    raise CheckFailed(f"non-standard JSON token {token}")


def strict_json(text: str):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


@dataclass
class Csv:
    meta: dict
    header: list
    rows: list

    def floats(self, start: int = 0) -> np.ndarray:
        try:
            arr = np.array([[float(c) for c in row[start:]] for row in self.rows])
        except ValueError as exc:
            raise CheckFailed(f"non-numeric CSV cell: {exc}") from None
        need(np.all(np.isfinite(arr)), "non-finite CSV cell")
        return arr


def strict_csv(text: str) -> Csv:
    need(text.endswith("\n") and "\r" not in text, "CSV must use LF line endings")
    lines = text[:-1].split("\n")
    meta = {}
    while lines and lines[0].startswith("#"):
        key, _, value = lines.pop(0)[1:].strip().partition("=")
        meta[key] = value
    need(lines, "CSV has no header")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    need(all(len(r) == len(header) for r in rows), "ragged CSV rows")
    return Csv(meta, header, rows)


def cli_op(name: str, argv: list[str], fmt: str, check: Callable[[Any], None]) -> Op:
    """An invocation that must exit 0 and write strict JSON or CSV to --out."""
    out = argv[argv.index("--out") + 1]

    def verify(code) -> None:
        need(code == 0, f"exit code {code}")
        text = Path(out).read_text(encoding="utf-8")
        check(strict_json(text) if fmt == "json" else strict_csv(text))

    return Op(name, lambda: call_cli(argv)[0], verify)


def args(command: str, config: str, out: Path, fmt: str, *extra: str) -> list[str]:
    return [command, "--config", config, "--out", str(out), "--format", fmt, *extra]


def check_forecast(race: Race, names, fmt: str, doc) -> None:
    v = variance(race)
    ref_win = oracle.win_probabilities(race.positions, race.priors, v)
    ref_rank = {
        ">".join(names[i] for i in ordering): p
        for ordering, p in oracle.ranking_distribution(race.positions, race.priors, v).items()
    }
    locked = [oracle.is_locked_out(race.positions, race.priors, v, k) for k in range(race.n)]
    if fmt == "json":
        win = [doc["win_probabilities"][n] for n in names]
        ranking = doc["ordering_probabilities"]
        total = doc["ordering_probability_sum"]
        dead = [doc["dead_zones"][n] for n in names]
    else:
        table = doc.floats(1)
        need([r[0] for r in doc.rows] == list(names), "forecast CSV candidates out of order")
        win, dead = table[:, 2], [bool(d) for d in table[:, 3]]
        prefix = "ordering "
        ranking = {k[len(prefix):]: float(v) for k, v in doc.meta.items() if k.startswith(prefix)}
        total = float(doc.meta["ordering_probability_sum"])
    close(win, ref_win, WIN_TOL, "forecast win probabilities")
    close_dicts(ranking, ref_rank, WIN_TOL, "forecast ordering probabilities")
    need(abs(total - 1.0) <= SUM_TOL, f"ordering_probability_sum {total}")
    need(abs(math.fsum(ranking.values()) - 1.0) <= SUM_TOL, "ordering probabilities do not sum to 1")
    need(list(dead) == locked, "forecast dead_zones disagree with the lead intervals")


def check_deadzone(race: Race, names, fmt: str, doc) -> None:
    v = variance(race)
    if fmt == "json":
        reports = [(doc["dead_zones"][n]["is_dead"], doc["dead_zones"][n]["sigma_bound"]) for n in names]
    else:
        need([r[0] for r in doc.rows] == list(names), "deadzone CSV candidates out of order")
        reports = [(r[1] == "1", float(r[2]) if r[2] else None) for r in doc.rows]
    for k, (is_dead, bound) in enumerate(reports):
        need(is_dead == oracle.is_locked_out(race.positions, race.priors, v, k), f"is_dead wrong for {names[k]}")
        check_bound(race, k, bound)


def check_sigma_sweep(race: Race, doc: Csv) -> None:
    table = doc.floats()
    sigmas, win = table[:, 0], table[:, 1:]
    close(win.sum(axis=1), 1.0, WIN_TOL, "sigma sweep row sums")
    ref = oracle.win_rows(race.positions, np.tile(race.priors, (len(sigmas), 1)), sigmas**2 * race.horizon)
    close(win, ref, WIN_TOL, "sigma sweep")
    bound = oracle.centre_bound(race.positions, race.priors, race.horizon)
    below = sigmas < bound if bound is not None else np.zeros(len(sigmas), dtype=bool)
    need(np.all(win[below, 1] == 0.0), "centre column not exactly 0 below the bound")
    need(np.all(win[sigmas > (bound or 0.0), 1] > 0.0), "centre column not positive above the bound")


def check_prior_sweep(race: Race, doc: Csv) -> None:
    table = doc.floats()
    n = race.n
    priors, win = table[:, :n], table[:, n:]
    v = variance(race)
    ref = oracle.win_rows(race.positions, priors, v)
    close(win.sum(axis=1), 1.0, WIN_TOL, "prior sweep row sums")
    close(win, ref, WIN_TOL, "prior sweep")
    need(np.all(win[oracle.locked_rows(race.positions, priors, v)] == 0.0), "nonzero entry on an empty lead interval")
    # a lead interval far in the tail can hold a mass that underflows to 0
    need(np.all(win[ref > UNDERFLOW] > 0.0), "zero entry where the lead interval has mass")


def check_position_sweep(race: Race, variants, doc: Csv) -> None:
    table = doc.floats()
    sigmas, deltas = table[:, 0], table[:, 1:]
    n = race.n
    v = sigmas**2 * race.horizon
    priors = np.tile(race.priors, (len(sigmas), 1))
    base = oracle.win_rows(race.positions, priors, v)
    for i, positions in enumerate(variants):
        block = deltas[:, i * n : (i + 1) * n]
        close(block.sum(axis=1), 0.0, WIN_TOL, f"variant {i + 1} delta sums")
        close(block, oracle.win_rows(positions, priors, v) - base, WIN_TOL, f"variant {i + 1} deltas")


def check_peaks(race: Race, sigmas, curves: np.ndarray) -> None:
    """``curves`` is sigma x candidate peak support."""
    for row, sigma in enumerate(sigmas):
        v = sigma * sigma * race.horizon
        for k in range(race.n):
            got = curves[row, k]
            if k in (0, race.n - 1):
                need(got == 1.0, f"end candidate {k} peak {got}, expected 1")
            else:
                ref = oracle.peak_support(race.positions, race.priors, v, k)
                need(abs(got - ref) <= PEAK_TOL, f"peak support {got} vs golden section {ref}")


def check_historic(race: Race, rows, doc) -> None:
    est = doc["historic"]
    times = [t for t, _ in rows]
    ref = oracle.qv_sigma(times, [s for _, s in rows], race.positions)
    need(abs(est["sigma"] - ref) <= 1e-10 * ref, f"historic sigma {est['sigma']} vs {ref}")
    need(est["n_observations"] == len(rows), "historic n_observations")


def check_implied(race: Race, target: float, solutions) -> None:
    """Each rate reproduces the target through the two-candidate formula:
    the target lies between the formula's values one bisection step either side."""
    p, horizon = race.priors[0], race.horizon
    need(solutions, "no implied rate")
    for s in solutions:
        lo = oracle.two_candidate_win_probability(p, s - IMPLIED_STEP, horizon) - target
        hi = oracle.two_candidate_win_probability(p, s + IMPLIED_STEP, horizon) - target
        need(lo * hi <= 0.0, f"implied rate {s} misses target {target}")


def check_aggregate(sources: dict, doc) -> None:
    ref = oracle.effective_sigma(sources["rates"], sources["correlation"])
    need(abs(doc["effective_sigma"] - ref) <= 1e-12 * ref, f"effective_sigma {doc['effective_sigma']} vs {ref}")
    need(abs(doc["noise_variance_check"] - 1.0) <= 1e-12, "noise weights not normalised")


def cli_reports(spec: dict, work: Path) -> list[Op]:
    cfg = {stem: json.loads(Path(p).read_text()) for stem, p in spec["bundled"].items()}
    work = work / "out"
    work.mkdir(exist_ok=True)
    path = spec["bundled"]
    race = {stem: race_from_config(c) for stem, c in cfg.items()}
    names = {stem: [c["name"] for c in cfg[stem]["candidates"]] for stem in cfg}
    ops = []

    def add(name, argv, fmt, check):
        ops.append(cli_op(name, argv, fmt, check))

    # the README invocations on the bundled configs, simulate aside
    s = "polarised_low_info"
    add("forecast.bundled", args("forecast", path[s], work / "forecast.json", "json"), "json",
        lambda d, s=s: check_forecast(race[s], names[s], "json", d))
    s = "polarised_three_way"
    add("sweep.sigma.bundled", args("sweep", path[s], work / "rates.csv", "csv", "--axis", "sigma"), "csv",
        lambda d, s=s: check_sigma_sweep(race[s], d))
    add("sweep.positions.bundled", args("sweep", path[s], work / "gains.csv", "csv", "--axis", "positions"),
        "csv", lambda d, s=s: check_position_sweep(race[s], cfg[s]["sweep"]["position_variants"], d))
    s = "win_vs_support"
    add("sweep.priors.bundled", args("sweep", path[s], work / "support.csv", "csv", "--axis", "priors"), "csv",
        lambda d, s=s: check_prior_sweep(race[s], d))
    s = "polarised_low_info"
    add("deadzone.bundled", args("deadzone", path[s], work / "deadzone.json", "json"), "json",
        lambda d, s=s: check_deadzone(race[s], names[s], "json", d))
    s = "five_candidate_peak_support"
    add("maxsupport.bundled", args("maxsupport", path[s], work / "peaks.csv", "csv"), "csv",
        lambda d, s=s: check_peaks(race[s], d.floats()[:, 0], d.floats()[:, 1:]))
    s = "correlated_sources"
    add("aggregate.bundled", args("aggregate", path[s], work / "aggregate.json", "json"), "json",
        lambda d, s=s: check_aggregate(cfg[s]["sources"], d))
    s = "polarised_three_way"
    polls, rows = spec["bundled_polls"]
    add("calibrate.historic.bundled", args("calibrate", path[s], work / "historic.json", "json", "--data", polls),
        "json", lambda d, s=s, rows=rows: check_historic(race[s], rows, d))
    s = "two_candidate_week_out"
    add("calibrate.implied.bundled", args("calibrate", path[s], work / "implied.json", "json"), "json",
        lambda d, s=s: check_implied(race[s], cfg[s]["target"]["win_probability"], d["implied"]["solutions"]))

    # known faults: each fails on every run until the program is fixed
    def stdout_is_json(result) -> None:
        code, text = result
        need(code == 0, f"exit code {code}")
        strict_json(text)

    argv = ["forecast", "--config", path["polarised_three_way"]]
    ops.append(Op("forecast.stdout_json", lambda: call_cli(argv, capture=True), stdout_is_json, known_fault=True))
    argv_nan = ["calibrate", "--config", path["polarised_three_way"], "--data", spec["nan_polls"],
                "--out", str(work / "nan.json")]
    ops.append(Op("calibrate.nan_csv", lambda: call_cli(argv_nan)[0],
                  lambda code: need(code == 3, f"exit code {code}, expected 3"), known_fault=True))

    # generated configs
    for i, (config, r) in enumerate(spec["forecasts"]):
        fmt = ("json", "csv")[i % 2]
        add(f"forecast{i}", args("forecast", config, work / f"forecast_{i}.{fmt}", fmt), fmt,
            lambda d, r=r, fmt=fmt: check_forecast(r, names_for(r.n), fmt, d))
    for i, (config, r) in enumerate(spec["deadzones"]):
        fmt = ("json", "csv")[i % 2]
        add(f"deadzone{i}", args("deadzone", config, work / f"deadzone_{i}.{fmt}", fmt), fmt,
            lambda d, r=r, fmt=fmt: check_deadzone(r, names_for(r.n), fmt, d))
    config, r = spec["simplex"]
    add("sweep.priors.simplex", args("sweep", config, work / "simplex.csv", "csv", "--axis", "priors"), "csv",
        lambda d, r=r: check_prior_sweep(r, d))
    for i, (config, polls, r, rows) in enumerate(spec["historic"]):
        add(f"calibrate.historic{i}", args("calibrate", config, work / f"historic_{i}.json", "json",
                                           "--data", polls), "json",
            lambda d, r=r, rows=rows: check_historic(r, rows, d))
    for i, (config, r) in enumerate(spec["implied"]):
        target = json.loads(Path(config).read_text())["target"]["win_probability"]
        add(f"calibrate.implied{i}", args("calibrate", config, work / f"implied_{i}.json", "json"), "json",
            lambda d, r=r, target=target: check_implied(r, target, d["implied"]["solutions"]))
    for i, (config, r, grid) in enumerate(spec["peaks"]):
        def check(d, r=r, grid=grid):
            names = names_for(r.n)
            close(d["sigma_grid"], grid, 0.0, "maxsupport sigma grid")
            check_peaks(r, grid, np.array([d["max_support"][n] for n in names]).T)
            for name, point in d["at_config_sigma"].items():
                ref = oracle.peak_support(r.positions, r.priors, variance(r), names.index(name))
                need(abs(point["pi_max"] - ref) <= PEAK_TOL, f"pi_max {point['pi_max']} vs {ref}")
        add(f"maxsupport{i}", args("maxsupport", config, work / f"peaks_{i}.json", "json"), "json", check)
    return ops


# --------------------------------------------------------------------------
# paths: simulate, with conditioned win probabilities along every path
# --------------------------------------------------------------------------

def check_paths(race: Race, fmt: str, doc) -> None:
    n = race.n
    if fmt == "json":
        times = np.array(doc["times"])
        support = np.array(doc["support"])
        win = np.array(doc["win_probs"])
    else:
        table = doc.floats()
        n_paths = int(table[-1, 0]) + 1
        times = table[table[:, 0] == 0, 1]
        support = table[:, 2 : 2 + n].reshape(n_paths, len(times), n)
        win = table[:, 2 + n :].reshape(n_paths, len(times), n)
    close(support.sum(axis=2), 1.0, WIN_TOL, "support row sums")
    close(win.sum(axis=2), 1.0, WIN_TOL, "win row sums")
    remaining = np.array([variance(race, t) for t in times[:-1]])
    rows = support[:, :-1].reshape(-1, n)
    ref = oracle.win_rows(race.positions, rows, np.tile(remaining, support.shape[0]))
    close(win[:, :-1].reshape(-1, n), ref, WIN_TOL, "conditioned win probabilities")
    onehot = np.eye(n)[np.argmax(support[:, -1], axis=1)]
    need(np.array_equal(win[:, -1], onehot), "final win row is not one-hot on the leader")


def paths(spec: dict, work: Path) -> list[Op]:
    ops = []
    for i, (config, race, fmt) in enumerate(spec["runs"]):
        out = work / f"paths_{i}.{fmt}"
        op = cli_op(f"simulate{i}", args("simulate", config, out, fmt), fmt,
                    lambda d, r=race, f=fmt: check_paths(r, f, d))
        first: dict = {}

        def same_bytes(code, verify=op.check, out=out, first=first) -> None:
            verify(code)
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            need(digest == first.setdefault("digest", digest), "output differs from an earlier run with the same seed")

        ops.append(Op(op.name, op.run, same_bytes))
    return ops


# --------------------------------------------------------------------------
# mc_tally: the exact terminal-draw tally
# --------------------------------------------------------------------------

def check_tally(race: Race, outcome, n: int = MC_DRAWS) -> None:
    counts = outcome.ordering_counts
    need(sum(counts.values()) == n, "ordering counts do not sum to the draw count")
    v = variance(race)
    ref = oracle.ranking_distribution(race.positions, race.priors, v)
    for ordering in set(counts) | set(ref):
        p, c = ref.get(ordering, 0.0), counts.get(ordering, 0)
        if p == 0.0:
            need(c == 0, f"ordering {ordering} of probability 0 drawn {c} times")
        else:
            need(abs(c / n - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n) + 2.0 / n,
                 f"ordering {ordering}: frequency {c / n} vs {p}")
    win = oracle.win_probabilities(race.positions, race.priors, v)
    bound = 5.0 * np.sqrt(win * (1.0 - win) / n) + 2.0 / n
    need(np.all(np.abs(outcome.win_freqs - win) <= bound), "win frequencies off the closed form")


def mc_tally(spec: dict, work: Path) -> list[Op]:
    return [
        Op(f"tally{i}",
           lambda r=race, s=seed: voteflow.monte_carlo_win_probabilities(model(r), MC_DRAWS, s),
           lambda out, r=race: check_tally(r, out))
        for i, (race, seed) in enumerate(spec["models"])
    ]


def build(workload: str, spec: dict, work: Path) -> list[Op]:
    return {"queries": queries, "cli_reports": cli_reports, "paths": paths, "mc_tally": mc_tally}[workload](spec, work)
