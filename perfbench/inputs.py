"""Seeded inputs for the workloads.

Only the standard library is used here, so that generating inputs before
the timed set-up does not import numpy on voteflow's behalf.

Races stay in the domain where every operation's check is sound: adjacent
positions are at least 0.3 apart and priors (when nonzero) at least 0.05
before normalisation, so crossing thresholds stay within a few hundred
standard deviations and no trailing candidate's support underflows to 0 at
the points where rankings are read.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"voteflow-bench:{workload}:{seed}")


@dataclass(frozen=True)
class Race:
    positions: tuple[float, ...]
    priors: tuple[float, ...]
    horizon: float
    breakpoints: tuple[float, ...]
    rates: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.positions)

    @property
    def constant(self) -> bool:
        return not self.breakpoints

    def sigma_json(self):
        if self.constant:
            return self.rates[0]
        return {"breakpoints": list(self.breakpoints), "rates": list(self.rates)}


def make_race(rng: random.Random, n: int, piecewise: bool = False, zero_prior: bool = False) -> Race:
    """A random race; ``zero_prior`` zeroes one interior candidate's prior."""
    x = rng.uniform(-1.0, 1.0)
    positions = [x]
    for _ in range(n - 1):
        x += rng.uniform(0.3, 1.2)
        positions.append(x)
    weights = [rng.uniform(0.05, 1.0) for _ in range(n)]
    if zero_prior:
        weights[rng.randrange(1, n - 1) if n > 2 else 0] = 0.0
    total = math.fsum(weights)
    priors = tuple(w / total for w in weights)
    horizon = rng.uniform(0.25, 1.5)
    if piecewise:
        breakpoints = tuple(sorted(rng.uniform(0.05, 0.95) * horizon for _ in range(2)))
        rates = tuple(rng.uniform(0.2, 2.0) for _ in range(3))
    else:
        breakpoints, rates = (), (rng.uniform(0.2, 2.0),)
    return Race(tuple(positions), priors, horizon, breakpoints, rates)


def names_for(n: int) -> list[str]:
    return [f"c{i}" for i in range(n)]


def race_config(race: Race, **extra) -> dict:
    names = names_for(race.n)
    cfg = {
        "candidates": [
            {"name": name, "position": x, "prior": p}
            for name, x, p in zip(names, race.positions, race.priors)
        ],
        "horizon_years": race.horizon,
        "sigma": race.sigma_json(),
    }
    cfg.update(extra)
    return cfg


def race_from_config(cfg: dict) -> Race:
    """The race a scenario config describes, read by the benchmark itself."""
    sigma = cfg["sigma"]
    if isinstance(sigma, dict):
        breaks, rates = tuple(sigma["breakpoints"]), tuple(sigma["rates"])
    else:
        breaks, rates = (), (float(sigma),)
    cands = cfg["candidates"]
    total = math.fsum(c["prior"] for c in cands)
    return Race(
        tuple(float(c["position"]) for c in cands),
        tuple(c["prior"] / total for c in cands),
        float(cfg["horizon_years"]),
        breaks,
        rates,
    )


def write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def poll_series(rng: random.Random, race: Race, n_obs: int):
    """Support rates observed along one simulated information path.

    The latent label is drawn from the priors and the accumulated signal
    advanced with exact Gaussian increments for a constant rate; supports
    follow from the filter formula in the log domain.
    """
    sigma = race.rates[0]
    label = rng.choices(range(race.n), weights=race.priors)[0]
    dt = race.horizon / n_obs
    logp = [math.log(p) if p > 0.0 else -math.inf for p in race.priors]
    y, rows = 0.0, []
    for i in range(n_obs):
        t = i * dt
        v = sigma * sigma * t
        s = [lp + x * y - 0.5 * x * x * v for lp, x in zip(logp, race.positions)]
        top = max(s)
        w = [math.exp(e - top) for e in s]
        total = math.fsum(w)
        rows.append((t, [wi / total for wi in w]))
        y += sigma * sigma * race.positions[label] * dt + sigma * math.sqrt(dt) * rng.gauss(0.0, 1.0)
    return rows


def write_poll_csv(path: Path, names, rows, nan_at=None) -> str:
    """Poll CSV ``t,<names>``; ``nan_at=(row, column)`` writes ``nan`` there."""
    lines = ["t," + ",".join(names)]
    for r, (t, supports) in enumerate(rows):
        cells = [repr(t)] + [repr(s) for s in supports]
        if nan_at is not None and nan_at[0] == r:
            cells[nan_at[1]] = "nan"
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


# --------------------------------------------------------------------------
# per-workload inputs
# --------------------------------------------------------------------------

QUESTIONS_PER_N = 200
MC_DRAWS = 1_000_000


def prepare_queries(seed: int, root: Path, work: Path) -> dict:
    """200 races for each N = 2..6: every third piecewise, every fifth with
    a zero prior (N >= 3)."""
    rng = rng_for("queries", seed)
    races = [
        make_race(rng, n, piecewise=i % 3 == 0, zero_prior=n >= 3 and i % 5 == 1)
        for n in range(2, 7)
        for i in range(QUESTIONS_PER_N)
    ]
    rng.shuffle(races)
    return {"races": races}


def prepare_cli_reports(seed: int, root: Path, work: Path) -> dict:
    rng = rng_for("cli_reports", seed)
    bundled = root / "configs"
    spec: dict = {"bundled": {p.stem: str(p) for p in sorted(bundled.glob("*.json"))}}

    three_way = race_from_config(json.loads((bundled / "polarised_three_way.json").read_text()))
    polls = poll_series(rng, three_way, 200)
    spec["bundled_polls"] = (write_poll_csv(work / "polls_bundled.csv", ["left", "centre", "right"], polls), polls)
    # the NaN fixture is the same for every seed: it exercises a fixed fault
    fixed = poll_series(random.Random("voteflow-bench:nan-fixture"), three_way, 20)
    spec["nan_polls"] = write_poll_csv(work / "polls_nan.csv", ["left", "centre", "right"], fixed, nan_at=(7, 2))

    forecasts = []
    for i in range(120):
        n = 2 + i % 5
        race = make_race(rng, n, piecewise=i % 3 == 0, zero_prior=n >= 3 and i % 7 == 1)
        forecasts.append((write_json(work / f"forecast_{i}.json", race_config(race)), race))
    spec["forecasts"] = forecasts

    deadzones = []
    for i in range(120):
        n = 3 if i % 3 else 4 + i % 2
        race = make_race(rng, n, piecewise=i % 7 == 0, zero_prior=i % 11 == 0)
        deadzones.append((write_json(work / f"deadzone_{i}.json", race_config(race)), race))
    spec["deadzones"] = deadzones

    simplex = make_race(rng, 3)
    spec["simplex"] = (
        write_json(work / "simplex.json", race_config(simplex, sweep={"prior_grid_step": 0.01})),
        simplex,
    )

    historic = []
    for i, n in enumerate((3, 4, 5, 3)):
        race = make_race(rng, n)
        rows = poll_series(rng, race, 200)
        cfg = write_json(work / f"historic_{i}.json", race_config(race))
        historic.append((cfg, write_poll_csv(work / f"historic_{i}.csv", names_for(n), rows), race, rows))
    spec["historic"] = historic

    implied = []
    for i in range(4):
        # c0 leads with prior p, so its win probability falls from 1 towards p
        # as the rate grows: every target in (p, 1) is reached
        p = rng.uniform(0.52, 0.8)
        race = Race((0.0, 1.0), (p, 1.0 - p), rng.uniform(0.02, 1.0), (), (1.0,))
        target = {"candidate": "c0", "win_probability": rng.uniform(p + 0.02, 0.98)}
        implied.append((write_json(work / f"implied_{i}.json", race_config(race, target=target)), race))
    spec["implied"] = implied

    peaks = []
    for i, n in enumerate((4, 5)):
        race = make_race(rng, n)
        grid = sorted({round(rng.uniform(0.2, 2.5), 6) for _ in range(20)})
        cfg = race_config(race, sweep={"sigma_grid": grid})
        peaks.append((write_json(work / f"peaks_{i}.json", cfg), race, grid))
    spec["peaks"] = peaks
    return spec


def prepare_paths(seed: int, root: Path, work: Path) -> dict:
    """The two bundled simulation configs and three generated ones
    (N = 3, 4 piecewise, 5; 10 paths of 250 steps each)."""
    rng = rng_for("paths", seed)
    bundled = root / "configs"
    runs = []
    for stem, fmt in (("polarised_three_way", "csv"), ("polarised_low_info", "json")):
        path = bundled / f"{stem}.json"
        runs.append((str(path), race_from_config(json.loads(path.read_text())), fmt))
    for i, (n, piecewise, fmt) in enumerate(((3, False, "csv"), (4, True, "json"), (5, False, "csv"))):
        race = make_race(rng, n, piecewise=piecewise)
        sim = {"n_paths": 10, "n_steps": 250, "seed": rng.randrange(2**31)}
        runs.append((write_json(work / f"sim_{i}.json", race_config(race, simulation=sim)), race, fmt))
    return {"runs": runs}


def prepare_mc_tally(seed: int, root: Path, work: Path) -> dict:
    """Three models (N = 2 piecewise, N = 4 with a zero prior, N = 5), each
    tallied over MC_DRAWS terminal draws with a seeded stream."""
    rng = rng_for("mc_tally", seed)
    models = [
        make_race(rng, 2, piecewise=True),
        make_race(rng, 4, zero_prior=True),
        make_race(rng, 5),
    ]
    return {"models": [(race, rng.randrange(2**31)) for race in models]}


PREPARE = {
    "queries": prepare_queries,
    "cli_reports": prepare_cli_reports,
    "paths": prepare_paths,
    "mc_tally": prepare_mc_tally,
}
