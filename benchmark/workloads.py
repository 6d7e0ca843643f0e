"""The three benchmark workloads.

Each workload is built in three stages:

* ``__init__`` makes the inputs from the seed (not timed);
* ``setup`` builds the scenarios, grids with their weight tables, and
  initial states (timed as part of ``setup_s``);
* ``run`` performs one timed round as a user would, and ``check`` returns,
  for every operation of that round, the list of its failed checks.

Only the public functions of the ``inflaton`` modules are called, always
through the module attribute, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np
from inflaton import cli, dynamics, experiments, potentials
from inflaton.grid import RadialGrid

import checks

OUT_DIR = ".benchmark-out"


def _prepared_state(scn) -> dynamics.FieldState:
    grid = scn.grid()
    grid.weights          # builds the cached weight tables
    return scn.initial(grid)


class DecaySuites:
    """The 11 committed H = 0 theorem runs; the seed sets their order."""

    name = "decay-suites"

    def __init__(self, root: Path, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        committed = experiments.thm1_suite() + experiments.thm2_suite()
        self.states = [_prepared_state(scn) for scn in committed]
        self.probe = (self.states[0], committed[0].hubble, committed[0].spec)
        self.scenarios = list(committed)
        random.Random(self.seed).shuffle(self.scenarios)

    def run(self) -> float:
        start = perf_counter()
        self.results = [experiments.run_scenario(scn) for scn in self.scenarios]
        return perf_counter() - start

    def check(self) -> list[list[str]]:
        ops = []
        for res in self.results:
            s = res.samples
            ops.append(checks.check_decay_run(
                res.scenario.name, res.verdict.passed,
                res.scenario.effective_thresholds(),
                np.array([x.W for x in s]),
                np.array([x.I_rate for x in s]),
                np.array([x.h1w_sq for x in s])))
        return ops


class ExpandingSweep:
    """``inflaton sweep configs/thm3_h1.json`` in-process, one worker.

    The seed becomes the config's ``seed``, which draws the amplitude
    jitter of the six H > 0 runs.
    """

    name = "expanding-sweep"
    jitter_pct = 10.0

    def __init__(self, root: Path, seed: int) -> None:
        work = root / OUT_DIR / self.name
        work.mkdir(parents=True, exist_ok=True)
        cfg = json.loads((root / "configs" / "thm3_h1.json").read_text())
        cfg["seed"] = seed
        cfg["sweep"]["jitter_pct"] = self.jitter_pct
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(cfg, indent=2) + "\n")
        self.out = work / "sweep"
        self.digests: list[str] = []

    def setup(self) -> None:
        cfg = cli.load_config(self.config_path)
        spec = potentials.parse_family(cfg["potential"])
        init, sweep = cfg["initial"], cfg["sweep"]
        self.jobs = [f"a{amp:g}_H{hub:g}"
                     for amp in sweep["amplitudes"] for hub in sweep["hubbles"]]
        self.t_end = float(cfg["time"]["t_end"])
        states = []
        for amp in sweep["amplitudes"]:
            for _ in sweep["hubbles"]:
                grid = RadialGrid(cfg["grid"]["r_max"], cfg["grid"]["n_cells"])
                grid.weights
                states.append(dynamics.initial_state(
                    grid, amp, init["center"], init["width"], kind=init["kind"],
                    velocity=init["velocity"], steepness=init["steepness"],
                    space_order=cfg["time"]["space_order"]))
        self.probe = (states[0], sweep["hubbles"][0], spec)

    def run(self) -> float:
        shutil.rmtree(self.out, ignore_errors=True)
        argv = ["sweep", str(self.config_path), "--out", str(self.out)]
        start = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            self.exit_code = cli.main(argv)
        return perf_counter() - start

    def check(self) -> list[list[str]]:
        summary = self.out / "summary.csv"
        text = summary.read_text() if summary.is_file() else ""
        first = checks.check_summary(self.exit_code, text, len(self.jobs))
        digest = hashlib.sha256(text.encode())
        ops = [first]
        for job in self.jobs:
            series, verdict = self.out / job / "series.csv", self.out / job / "verdict.json"
            if not (series.is_file() and verdict.is_file()):
                ops.append([f"{job}: series.csv or verdict.json missing"])
                continue
            series_text = series.read_text()
            digest.update(series_text.encode())
            ops.append(checks.check_expanding_run(job, series_text, verdict.read_text(),
                                                  self.t_end))
        self.digests.append(digest.hexdigest())
        if self.digests[-1] != self.digests[0]:
            first.append("CSV bytes differ from the first round of this run")
        return ops


class Conservation:
    """Pinned-RK4 accuracy runs: the committed H = 0 energy-conservation
    scenario, and free outgoing-bump translations at three resolutions.

    The seed moves the translated bump's centre and width.
    """

    name = "conservation"
    levels = (1024, 2048, 4096)
    r_max, t_end, order, cfl = 40.0, 5.0, 6, 0.25

    def __init__(self, root: Path, seed: int) -> None:
        rng = random.Random(seed)
        self.center = 12.0 + rng.uniform(-1.0, 1.0)
        self.width = 3.0 * (1.0 + rng.uniform(-0.1, 0.1))

    def setup(self) -> None:
        self.scenario = experiments.energy_conservation_scenario()
        state = _prepared_state(self.scenario)
        self.probe = (state, self.scenario.hubble, self.scenario.spec)
        cfg = dynamics.SolverConfig(t_end=self.t_end, cfl=self.cfl,
                                    output_every=10**9, space_order=self.order)
        self.translations = []
        for n in self.levels:
            grid = RadialGrid(self.r_max, n)
            grid.weights
            state0 = dynamics.initial_state(grid, 1.0, self.center, self.width,
                                            velocity="outgoing", space_order=self.order)
            self.translations.append((grid, state0, cfg))

    def run(self) -> float:
        start = perf_counter()
        self.result = experiments.run_scenario(self.scenario)
        self.finals = [dynamics.evolve(state0, cfg, None, grid)
                       for grid, state0, cfg in self.translations]
        return perf_counter() - start

    def check(self) -> list[list[str]]:
        samples = self.result.samples
        ops = [checks.check_drift(samples[0].E, samples[-1].E)]
        drs, errors = [], []
        for (grid, _, _), final in zip(self.translations, self.finals):
            exact = checks.exact_translate(grid.r, final.t, self.center, self.width)
            drs.append(grid.dr)
            errors.append(checks.relative_l2(final.u, exact))
            ops.append(checks.check_translation(errors[-1], grid.n_cells))
        ops.append(checks.check_order(drs, errors))
        return ops


WORKLOADS = {cls.name: cls for cls in (DecaySuites, ExpandingSweep, Conservation)}
