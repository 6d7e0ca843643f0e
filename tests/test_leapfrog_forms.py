"""The leapfrog's two-level recurrence, as ``dynamics.evolve`` steps it,
against its kick-drift-kick form (``full_grid_oracle.kdk_evolve``) on every
committed leapfrog run: the 11 H = 0 suite runs, thm3-T1 and the six jobs of
configs/thm3_h1.json.  The two are one scheme in two forms, so the verdicts
agree exactly, the samples to rounding, and both make N + 1 force
evaluations for N steps."""

import csv
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from inflaton import cli, dynamics, experiments
from inflaton.dynamics import resolve_dt
from inflaton.experiments import DecayVerdict
from inflaton.virials import VirialSample

from full_grid_oracle import kdk_evolve

# the verdict's booleans (``passed`` among them), its diagnosis and its abort
VERDICT_KEYS = [f.name for f in fields(DecayVerdict) if f.type == "bool"] + ["diagnosis",
                                                                             "aborted"]
CONFIG = Path(__file__).resolve().parent.parent / "configs" / "thm3_h1.json"
# every sample field but origin_flux, relative to its run maximum (measured
# at most 7.2e-13, J_bound of the a0.05_H1 job)
SAMPLE_RTOL = 1e-12
# origin_flux = phi(0)^2 extrapolates phi(0) = 3 phi_1 - 3 phi_2 + phi_3,
# which cancels where phi(0) is small (measured 1.5e-8, thm2-E3)
FLUX_RTOL = 2e-8


def _n_steps(scn) -> int:
    grid = scn.grid()
    dt_max = resolve_dt(grid, scn.solver_config(), scn.spec, scn.initial(grid))
    return max(1, math.ceil(scn.t_end / dt_max - 1e-12))


def _runs(evolver, group, monkeypatch, out):
    """{run name: (result, force evaluations)} of the group's runs stepped by
    ``evolver``, and the sweep's summary.csv ``passed`` column (sweep only)."""
    monkeypatch.undo()      # each form starts from the unpatched modules
    runs, calls = {}, []
    real_eval_f, real_run = dynamics.eval_f, experiments.run_scenario

    def counting(spec, s):
        calls.append(1)
        return real_eval_f(spec, s)

    def recording(scn):
        calls.clear()
        result = real_run(scn)
        runs[scn.name] = (result, len(calls))
        return result

    monkeypatch.setattr(dynamics, "eval_f", counting)
    monkeypatch.setattr(experiments, "evolve", evolver)
    if group == "suites":
        for scn in (experiments.thm1_suite() + experiments.thm2_suite()
                    + experiments.thm3_suite()):
            recording(scn)
        return runs, None
    monkeypatch.setattr(cli, "run_scenario", recording)
    monkeypatch.setenv("INFLATON_THREADS", "1")     # the patches hold in-process only
    assert cli.main(["sweep", str(CONFIG), "--out", str(out)]) == 0
    with open(out / "summary.csv", newline="") as fh:
        return runs, [row["passed"] for row in csv.DictReader(fh)]


@pytest.mark.parametrize("group", ["suites", "sweep"])
def test_the_recurrence_grades_as_kick_drift_kick(group, monkeypatch, tmp_path):
    got, got_passed = _runs(dynamics.evolve, group, monkeypatch, tmp_path / "two-level")
    want, want_passed = _runs(kdk_evolve, group, monkeypatch, tmp_path / "kdk")
    assert got_passed == want_passed
    assert sorted(got) == sorted(want) and len(got) == (12 if group == "suites" else 6)
    for name, (result, force_evals) in got.items():
        reference, reference_evals = want[name]
        assert force_evals == reference_evals == _n_steps(result.scenario) + 1, name
        for key in VERDICT_KEYS:
            assert getattr(result.verdict, key) == getattr(reference.verdict, key), (name, key)
        assert len(result.samples) == len(reference.samples) > 1
        for field in fields(VirialSample):
            x = np.array([getattr(s, field.name) for s in result.samples])
            y = np.array([getattr(s, field.name) for s in reference.samples])
            rtol = FLUX_RTOL if field.name == "origin_flux" else SAMPLE_RTOL
            assert np.max(np.abs(x - y)) <= rtol * np.max(np.abs(y)), (name, field.name)
