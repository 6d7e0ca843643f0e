import math
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from inflaton import dynamics, experiments
from inflaton.cli import load_config, sweep_scenarios
from inflaton.experiments import (Scenario, ScenarioClassError,
                                  run_potential_audit_suite, run_scenario,
                                  thm1_suite, thm2_suite,
                                  thm3_suite, _enforce_mode_preconditions,
                                  _grade, _suite_scenario, _uniform_prefix)
from inflaton.potentials import DomainViolation, PotentialSpec
from inflaton.virials import VirialSample

from refinement_runs import ConvergenceReport, run_convergence_study


def test_audit_suite_matches_expected_table():
    suite = run_potential_audit_suite()
    assert suite["mismatches"] == []
    assert len(suite["reports"]) == 15


def test_scenario_support_rule_enforced():
    with pytest.raises(ValueError, match="grid too small"):
        Scenario(name="bad", spec=PotentialSpec("T", n=1), amplitude=1.0, center=3.0,
                 width=2.0, t_end=50.0, r_max=40.0, n_cells=512, mode="exploratory")


def test_scenario_unknown_mode_rejected():
    with pytest.raises(ValueError, match="mode"):
        Scenario(name="bad", spec=None, amplitude=1.0, center=3.0, width=2.0, t_end=1.0,
                 r_max=40.0, n_cells=512, mode="thm9")


def test_thm1_runner_refuses_wrong_class():
    with pytest.raises(ScenarioClassError,
                       match="^T2 audits as Thm2-flatness, cannot run as thm1$"):
        run_scenario(_suite_scenario("thm1-T2", PotentialSpec("T", n=2), 1.0, 5.0, "thm1"))
    with pytest.raises(ScenarioClassError, match="^axion audits as None, cannot run as thm1$"):
        run_scenario(_suite_scenario("thm1-axion", PotentialSpec("axion"), 1.0, 5.0, "thm1"))


def test_thm2_runner_refuses_wrong_class():
    with pytest.raises(ScenarioClassError, match="^T1 audits as Thm1, cannot run as thm2$"):
        run_scenario(_suite_scenario("thm2-T1", PotentialSpec("T", n=1), 0.05, 5.0, "thm2"))


def test_thm3_runner_guards():
    with pytest.raises(ScenarioClassError, match=r"^hubble: thm3 needs hubble > 0, got 0\.0$"):
        _suite_scenario("thm3-T1", PotentialSpec("T", n=1), 0.1, 5.0, "thm3", hubble=0.0)
    with pytest.raises(ScenarioClassError, match="^hilltop2 has F < 0 on the visited window; "
                                                 "thm3 needs F >= 0$"):
        run_scenario(_suite_scenario("thm3-hilltop2", PotentialSpec("hilltop", n=2), 0.1,
                                     5.0, "thm3"))


def test_zero_data_passes_trivially():
    scn = _suite_scenario("zero", PotentialSpec("T", n=1), 0.0, 10.0, "thm1")
    result = run_scenario(scn)
    v = result.verdict
    assert v.passed
    assert v.w_ratio == 0.0
    assert v.local_energy_ratio == 0.0
    assert v.monotone_I


def test_short_thm1_run_mechanics():
    result = run_scenario(_suite_scenario("thm1-T1", PotentialSpec("T", n=1), 1.0, 30.0,
                                          "thm1", width=1.0))
    v = result.verdict
    assert v.passed, v.diagnosis
    assert v.monotone_I
    assert v.theorem_class == "Thm1"
    assert v.scope == "theorem"
    assert 0.0 < v.w_ratio <= 1e-2
    assert v.integrability_saturation <= 0.25
    assert v.dissipation_residual_max is None  # H = 0: nothing to check


def test_short_thm2_run_records_sup_norms():
    result = run_scenario(_suite_scenario("thm2-natural", PotentialSpec("natural"), 0.05,
                                          100.0, "thm2"))
    v = result.verdict
    assert v.passed, v.diagnosis
    assert v.sup_phi_initial == pytest.approx(0.05, rel=0.05)
    assert v.supnorm_growth <= 1.1


def test_thm3_run_verdict(thm3_run):
    v = thm3_run.verdict
    assert v.passed, v.diagnosis
    assert v.energy_nonincreasing
    assert v.j_monotone
    assert v.cone_energy_ratio <= 1e-3
    assert v.local_energy_ratio <= 1e-2
    assert v.dissipation_residual_max is not None
    assert v.dissipation_residual_max <= 1e-3
    assert v.fprime_quadratic_bound == math.inf  # tanh model has f'(0) != 0


# the exploratory runs below step RK4 on the order-4 stencil, not the
# suites' leapfrog
_RK4 = dict(scheme="rk4", cfl=0.5, space_order=4, output_every=16)


def test_exploratory_runs_execute_without_asserting():
    for spec in (PotentialSpec("axion"), PotentialSpec("E", n=1)):
        result = run_scenario(_suite_scenario(f"exploratory-{spec.label}", spec, 0.05,
                                              10.0, "exploratory", **_RK4))
        v = result.verdict
        assert v.scope == "outside-theorems"
        assert v.passed  # no thresholds configured in exploratory mode
        assert v.w_ratio >= 0.0


def test_free_field_exploratory_run_is_graded_free():
    result = run_scenario(Scenario(name="free", spec=None, amplitude=0.5, center=4.0,
                                   width=1.5, r_max=20.0, n_cells=256, t_end=5.0,
                                   space_order=2, mode="exploratory"))
    v = result.verdict
    assert v.theorem_class == "free" and v.potential == "free"
    assert v.scope == "outside-theorems"
    assert v.passed and not v.aborted
    assert v.fprime_quadratic_bound is None
    assert len(result.samples) > 1


def test_theorem_modes_need_a_potential():
    for mode in ("thm1", "thm2", "thm3"):
        with pytest.raises(ScenarioClassError, match=f"^spec: mode {mode} needs a potential$"):
            Scenario(name="free", spec=None, hubble=1.0, amplitude=1.0, center=3.0,
                     width=2.0, t_end=1.0, r_max=40.0, n_cells=512, mode=mode)


def test_exploratory_large_tanh_blob_persists():
    # wide large-amplitude tanh-model data trap a long-lived origin blob:
    # no decay on this horizon, recorded honestly by exploratory mode
    result = run_scenario(_suite_scenario("exploratory-T1", PotentialSpec("T", n=1), 2.0,
                                          60.0, "exploratory", width=2.0, **_RK4))
    assert result.verdict.w_ratio > 1e-2
    assert result.verdict.passed  # exploratory mode records, never gates


# --- verdict grading on synthetic samples -----------------------------------


def _mk_sample(t, **overrides):
    base = dict(t=t, E=1.0, W=1.0, P=0.0, R=0.0, I=0.1 * t, I_rate=1.0,
                R_tilde=0.0, Rt_rate=0.0, J=1.0, J_bound=0.0, ballE=1.0,
                coneE=1.0, sup_phi=1.0, support=5.0, h1_norm=1.0, h1w_sq=0.5,
                l2w_sq=0.5, origin_flux=0.0, I_rate_corrected=1.0, E_rate=0.0)
    base.update(overrides)
    return VirialSample(**base)


def _grade_with(samples, mode="thm2", **scn_overrides):
    scn = _suite_scenario("synthetic", PotentialSpec("T", n=2), 0.05, 10.0,
                          mode, **scn_overrides)
    return _grade(scn, samples, None, _enforce_mode_preconditions(scn))


def test_grade_flags_supnorm_growth():
    samples = [_mk_sample(0.0, W=1.0, sup_phi=0.05),
               _mk_sample(5.0, W=0.5, sup_phi=0.15),
               _mk_sample(10.0, W=0.001, sup_phi=0.05)]
    verdict = _grade_with(samples)
    assert not verdict.passed
    assert "smallness" in verdict.diagnosis


def test_grade_flags_w_ratio():
    samples = [_mk_sample(0.0, W=1.0), _mk_sample(5.0, W=1.0),
               _mk_sample(10.0, W=0.9)]
    verdict = _grade_with(samples)
    assert not verdict.passed
    assert "w_ratio" in verdict.diagnosis


def test_grade_flags_nonmonotone_I():
    samples = [_mk_sample(0.0, I=0.0, W=1.0), _mk_sample(5.0, I=1.0, W=0.5),
               _mk_sample(10.0, I=0.5, W=0.0001)]
    verdict = _grade_with(samples)
    assert not verdict.passed
    assert "monotone" in verdict.diagnosis


def test_grade_passes_clean_decay():
    samples = [_mk_sample(float(t), W=math.exp(-t), I=1 - math.exp(-t))
               for t in range(11)]
    verdict = _grade_with(samples)
    assert verdict.passed, verdict.diagnosis
    assert verdict.monotone_I
    assert verdict.integrability_saturation <= 0.05


def _thm3_samples(**last):
    # ballE and coneE decay inside the thm3 thresholds unless overridden
    end = dict(W=0.001, ballE=1e-4, coneE=1e-5)
    end.update(last)
    return [_mk_sample(0.0), _mk_sample(10.0, **end)]


@pytest.mark.parametrize("last,diagnosis", [
    ({"ballE": 0.5}, "local ratio 5.000e-01"),
    ({"coneE": 0.25}, "cone ratio 2.500e-01"),
    ({"E": 1.5}, "energy increased along an H>0 run"),
])
def test_grade_flags_thm3_failures(last, diagnosis):
    verdict = _grade_with(_thm3_samples(**last), mode="thm3")
    assert not verdict.passed
    assert verdict.diagnosis == diagnosis


def test_grade_thm3_reports_both_energy_ratios():
    # the order of the two messages is not part of the contract
    verdict = _grade_with(_thm3_samples(ballE=0.5, coneE=0.25), mode="thm3")
    assert not verdict.passed
    assert set(verdict.diagnosis.split("; ")) == {"local ratio 5.000e-01",
                                                  "cone ratio 2.500e-01"}
    assert _grade_with(_thm3_samples(), mode="thm3").passed


def test_every_default_threshold_is_a_graded_ratio():
    for defaults in experiments.DEFAULT_THRESHOLDS.values():
        assert set(defaults) <= set(experiments._GRADED_RATIOS)
    verdict_fields = {f.name for f in fields(experiments.DecayVerdict)}
    for verdict_field, _ in experiments._GRADED_RATIOS.values():
        assert verdict_field in verdict_fields


def test_saturation_sums_the_last_quarter_directly():
    # W = e^{-t} on [0, 40]: the last quarter holds about 9.4e-14 of int W dt,
    # far below the rounding of the total
    ts = np.linspace(0.0, 40.0, 4001)
    w = np.exp(-ts)
    assert ts[3000] == 30.0
    share = np.trapezoid(w[3000:], ts[3000:]) / np.trapezoid(w, ts)
    # the trapezoid sums of an exponential share one factor: the closed form
    assert share == pytest.approx((np.exp(-30.0) - np.exp(-40.0)) / (1.0 - np.exp(-40.0)),
                                  rel=1e-12, abs=0.0)
    assert experiments._saturation(ts, w) == pytest.approx(share, rel=1e-12, abs=0.0)


def test_verdict_serializes_infinities():
    samples = [_mk_sample(0.0), _mk_sample(1.0, W=0.001)]
    verdict = _grade_with(samples)
    verdict.fprime_quadratic_bound = math.inf
    payload = verdict.to_dict()
    assert payload["fprime_quadratic_bound"] == "unbounded"
    import json
    json.dumps(payload)


# --- convergence study -------------------------------------------------------


def test_convergence_study_validation():
    with pytest.raises(ValueError):
        run_convergence_study([512])
    with pytest.raises(ValueError):
        run_convergence_study([512, 512])


def test_convergence_study_small():
    # cheap smoke levels; the energy drift is still leaving its coarse-grid
    # transient here, so only the translation order is held to its
    # asymptotic value (the acceptance suite fits both at the pinned levels)
    report = run_convergence_study([512, 1024, 2048])
    assert isinstance(report, ConvergenceReport)
    assert report.dalembert_order >= 1.8
    assert report.energy_order >= 1.5
    assert report.dalembert_errors[0] > report.dalembert_errors[-1]
    assert report.energy_drifts[0] > report.energy_drifts[-1]


# --- suites and exploration --------------------------------------------------


def _settings(scn: Scenario) -> dict:
    return {name: getattr(scn, name) for name in ("scheme", "cfl", "space_order", "n_cells",
                                                  "output_every", "r_max", "hubble")}


def test_committed_suites_are_well_formed():
    for scn in thm1_suite() + thm2_suite() + thm3_suite():
        assert isinstance(scn, Scenario)
        grid = scn.grid()
        assert scn.r_max >= scn.center + scn.width + scn.t_end + 5 * grid.dr
    assert len(thm1_suite()) == 6
    assert len(thm2_suite()) == 5
    # leapfrog at the magic step dt = dr; the H = 0 runs sampled every 8
    # steps on r_max = max(40, T + 10), thm3 every step on twice the cells
    leapfrog = dict(scheme="leapfrog", cfl=1.0, space_order=2)
    for scn in thm1_suite() + thm2_suite():
        assert _settings(scn) == dict(leapfrog, n_cells=2048, output_every=8, r_max=110.0,
                                      hubble=0.0), scn.name
    for scn in thm1_suite(t_end=20.0):
        assert scn.r_max == 40.0
    assert [_settings(scn) for scn in thm3_suite()] == [
        dict(leapfrog, n_cells=4096, output_every=1, r_max=30.0, hubble=1.0)]


def test_output_digest_tool_builds_its_runs():
    # the byte-identity tool is not collected; building its runs steps
    # nothing and fails on any change to Scenario that would break the tool
    import output_digest
    assert len(output_digest.dbrane_runs()) == 12
    assert len(output_digest.stiffness_runs()) == 3


# exploratory probes on a sampled series; only these tests run them


def w_rate_ratio(samples) -> np.ndarray:
    """Diagnostic |dW/dt| / W at interior output times, for inspection.

    The weighted norm obeys a Gronwall-type bound |dW/dt| <= C W with an
    implicit constant; this exposes the sampled ratio and asserts nothing.
    """
    ts = np.array([s.t for s in samples])
    w = np.array([s.W for s in samples])
    if len(w) < 3:
        return np.empty(0)
    m = _uniform_prefix(ts)
    dt = ts[1] - ts[0]
    fd = np.abs(w[2:m] - w[:m - 2]) / (2.0 * dt)
    return fd / np.maximum(w[1:m - 1], 1e-300)


def breather_scan(samples) -> dict:
    """Exploratory periodicity probe on W(t): autocorrelation of the
    mean-removed tail.  Evidence only; never asserted by the suite."""
    ts = np.array([s.t for s in samples])
    w = np.array([s.W for s in samples])
    if len(w) < 8:
        return {"period": None, "peak": 0.0}
    tail = w[len(w) // 4:] - np.mean(w[len(w) // 4:])
    if np.allclose(tail, 0.0):
        return {"period": None, "peak": 0.0}
    ac = np.correlate(tail, tail, mode="full")[len(tail) - 1:]
    ac /= ac[0]
    # first local max after the zero-lag peak
    for k in range(1, len(ac) - 1):
        if ac[k] >= ac[k - 1] and ac[k] >= ac[k + 1] and ac[k] > 0.2:
            dt = ts[1] - ts[0] if len(ts) > 1 else 1.0
            return {"period": float(k * dt), "peak": float(ac[k])}
    return {"period": None, "peak": float(np.max(ac[1:])) if len(ac) > 1 else 0.0}


def test_breather_scan_smoke(thm3_run):
    out = breather_scan(thm3_run.samples)
    assert set(out) == {"period", "peak"}
    flat = breather_scan(thm3_run.samples[:4])
    assert flat["period"] is None


def test_w_rate_ratio_diagnostic(virial_run):
    ratios = w_rate_ratio(virial_run.samples)
    assert len(ratios) == len(virial_run.samples) - 2
    assert np.all(np.isfinite(ratios)) and np.all(ratios >= 0.0)


# --- diagnostics blocks ------------------------------------------------------

_BLOCK_RUNS = {
    # sampled every step at H > 0: many full blocks and a partial last one
    "expanding": dict(hubble=0.5, amplitude=0.5, center=4.0, t_end=5.0),
    # the outgoing pulse starts near r_max and aborts with SupportOverflow
    "overflow": dict(amplitude=1.0, center=14.0, t_end=3.5),
}


def _block_scenario(run: str) -> Scenario:
    return Scenario(name=f"block-{run}", spec=PotentialSpec("T", n=1), width=2.0,
                    velocity="outgoing", r_max=20.0, n_cells=256, cfl=0.5,
                    space_order=4, output_every=1, mode="exploratory", **_BLOCK_RUNS[run])


def _assert_same_run(got, want):
    assert len(got.samples) == len(want.samples)
    for name in VirialSample.__dataclass_fields__:
        a = np.array([getattr(s, name) for s in got.samples])
        b = np.array([getattr(s, name) for s in want.samples])
        assert np.all(np.abs(a - b) <= 1e-14 * np.max(np.abs(b), initial=0.0)), name
    for name, value in vars(want.verdict).items():
        if isinstance(value, (bool, str)) or value is None:
            assert getattr(got.verdict, name) == value, name


@pytest.mark.parametrize("run", list(_BLOCK_RUNS))
def test_blocks_of_one_snapshot_give_the_same_samples(monkeypatch, run):
    scn = _block_scenario(run)
    blocked = run_scenario(scn)
    monkeypatch.setattr(experiments, "BLOCK_NODES", 1)
    single = run_scenario(scn)
    _assert_same_run(blocked, single)
    assert blocked.verdict.support_excess == single.verdict.support_excess
    if run == "overflow":
        # every snapshot observed before the abort keeps its record
        assert blocked.verdict.aborted.startswith("SupportOverflow")
        t_abort = float(blocked.verdict.aborted.rsplit("t=", 1)[1].split(";")[0])
        assert blocked.samples[-1].t < t_abort
        assert len(blocked.samples) == round(blocked.samples[-1].t / (
            blocked.samples[1].t - blocked.samples[0].t)) + 1
    else:
        assert blocked.verdict.aborted is None


@pytest.mark.parametrize("run", ["thm1-T1", "sweep-job"])
def test_blocks_are_sized_by_their_live_nodes(monkeypatch, run):
    # a block closes before its rows times its widest live prefix would pass
    # BLOCK_NODES: a spreading H = 0 run starts with many narrow snapshots per
    # block and ends with few wide ones; the sweep's blocks hold 1,040-1,240
    # live nodes per snapshot of 4,097, so more than the 4 snapshots that
    # BLOCK_NODES // n_nodes gave
    if run == "thm1-T1":
        scn = thm1_suite()[0]
    else:
        cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "thm3_h1.json")
        scn = dict(sweep_scenarios(cfg))["a0.1_H0.5"]
    blocks = []         # the prefix width of each snapshot, per block
    original = experiments.sample_diagnostics

    def record(states, *args, **kwargs):
        blocks.append([s.u.size for s in states])
        return original(states, *args, **kwargs)

    monkeypatch.setattr(experiments, "sample_diagnostics", record)
    result = run_scenario(scn)
    budget, n = experiments.BLOCK_NODES, scn.grid().n_nodes
    assert sum(map(len, blocks)) == len(result.samples)
    assert all(len(b) == 1 or len(b) * max(b) <= budget for b in blocks)
    # a block closes only when the next snapshot would pass the budget
    assert all((len(b) + 1) * max(*b, after[0]) > budget
               for b, after in zip(blocks, blocks[1:]))
    if run == "thm1-T1":
        assert len(blocks[0]) > 20 and max(blocks[0]) < n // 4
        assert max(blocks[-1]) > 0.9 * n and len(blocks[-1]) <= budget // (0.9 * n)
    else:
        assert min(map(len, blocks[:-1])) > 4
        assert max(map(max, blocks)) < 1300


def test_a_run_the_domain_check_stops_gives_the_same_samples_in_blocks(monkeypatch):
    # data at rest focus through the origin and drive v to -1: evolve's
    # snapshot check stops the run there, before the force reads the value
    original = dynamics.check_domain
    refusals = []

    def check_domain(spec, v):
        try:
            original(spec, v)
        except DomainViolation:
            refusals.append(spec.label)
            raise

    monkeypatch.setattr(dynamics, "check_domain", check_domain)
    scn = Scenario(name="block-domain", spec=PotentialSpec("dbrane", n=2), amplitude=-0.6,
                   center=4.0, width=1.5, velocity="rest", r_max=20.0, n_cells=256,
                   t_end=8.0, cfl=0.5, space_order=4, output_every=1, mode="exploratory")
    blocked = run_scenario(scn)
    monkeypatch.setattr(experiments, "BLOCK_NODES", 1)
    single = run_scenario(scn)
    _assert_same_run(blocked, single)
    assert refusals == ["dbrane2", "dbrane2"]
    assert blocked.verdict.aborted == "DomainViolation: dbrane potential requires v > -1"
    assert 0 < len(blocked.samples) and blocked.samples[-1].t < scn.t_end
    assert blocked.verdict.support_excess == single.verdict.support_excess


def test_scenarios_on_one_grid_share_it():
    scn = _block_scenario("expanding")
    assert scn.grid() is replace(scn, name="other", t_end=1.0).grid()


def test_later_blocks_allocate_no_block_array(monkeypatch):
    # run_scenario evaluates every block in one workspace, so after the first
    # block, which makes its buffers, a block allocates no (B, k) array: its
    # transient peak under tracemalloc stays below one 128 KiB block array
    # (8 bytes x BLOCK_NODES); each (B, k) temporary of a block used to be a
    # new array, about 1.1 MiB of them at once on thm1-T1
    peaks = []
    original = experiments.sample_diagnostics

    def traced(states, *args, **kwargs):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        samples = original(states, *args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return samples

    monkeypatch.setattr(experiments, "sample_diagnostics", traced)
    tracemalloc.start()
    try:
        run_scenario(thm1_suite()[0])
    finally:
        tracemalloc.stop()
    block_array = 8 * experiments.BLOCK_NODES
    assert len(peaks) > 10
    assert peaks[0] > 6 * block_array           # the first block makes the workspace
    assert max(peaks[1:]) < block_array
