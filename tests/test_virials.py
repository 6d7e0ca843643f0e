import numpy as np
import pytest
from collections import Counter
from dataclasses import fields, replace
from types import SimpleNamespace

from inflaton import grid as grid_module, virials
from inflaton.dynamics import FieldState, Workspace, evolve, initial_state
from inflaton.experiments import thm3_suite
from inflaton.grid import FOUR_PI, RadialGrid, integrate_range
from inflaton.potentials import PotentialSpec, eval_F, parse_family
from inflaton.virials import CSV_COLUMNS, VirialSample, field_records, sample_diagnostics

from conftest import gaussian_state
from full_grid_oracle import field_values, scan_prefix, whole_grid
from refinement_runs import virial_consistency_scenario
from virial_oracles import (p_rate_discrepancy, reference_record, virial_P_rate,
                            virial_P_rate_display, virial_R_rate,
                            virial_R_rate_corrected)

T1 = PotentialSpec("T", n=1)


def record(state, hubble, spec, grid, **kw):
    """The record of one analytic snapshot (phi, phi_t and phi_r given)."""
    rows = [np.asarray(getattr(state, name))[None] for name in ("phi", "phi_t", "phi_r")]
    return field_records([state.t], *rows, hubble, spec, grid, **kw)[0]


def zero_state(grid):
    z = np.zeros(grid.n_nodes)
    return SimpleNamespace(t=0.0, phi=z, phi_t=z.copy(), phi_r=z.copy())


def test_zero_state_functionals_vanish(small_grid):
    sample = record(zero_state(small_grid), 1.0, T1, small_grid)
    for name in ("P", "R", "I", "R_tilde", "W", "I_rate", "Rt_rate", "J"):
        assert getattr(sample, name) == 0.0, name


def test_identity_I_equals_P_plus_half_R(small_grid):
    state = gaussian_state(small_grid, amplitude=1.3, width=1.7)
    s = record(state, 0.0, T1, small_grid)
    assert s.I == pytest.approx(s.P + 0.5 * s.R, abs=1e-14 * (1 + abs(s.I)))


def test_P_flips_sign_with_velocity(small_grid):
    state = gaussian_state(small_grid)
    flipped = SimpleNamespace(t=0.0, phi=state.phi, phi_t=-state.phi_t,
                              phi_r=state.phi_r)
    s = record(state, 0.0, T1, small_grid)
    s_flipped = record(flipped, 0.0, T1, small_grid)
    assert s_flipped.P == -s.P
    assert s_flipped.R == -s.R


def _oracle(fn, grid_fine, state_fine):
    vals = fn(grid_fine.r, state_fine)
    return np.trapezoid(vals, grid_fine.r)


def test_gaussian_quadratures_against_refined_oracle():
    # tolerances sized to the trapezoid oracle error, ~(dr_fine^2/12) f''
    g = RadialGrid(16.0, 512)
    fine = RadialGrid(16.0, 8192)
    s, sf = gaussian_state(g), gaussian_state(fine)
    # the selector 1 + tanh(r - 2t) at t = -0.2 is 1 + tanh(r + 0.4)
    s.t = -0.2
    sample = record(s, 0.5, T1, g)

    got_P = sample.P
    want_P = np.trapezoid(fine.r**2 / (1 + fine.r) * sf.phi_r * sf.phi_t, fine.r)
    assert got_P == pytest.approx(want_P, abs=5e-7)

    got_I = sample.I
    want_I = want_P + 0.5 * np.trapezoid(
        fine.r * (fine.r + 2) / (1 + fine.r) ** 2 * sf.phi * sf.phi_t, fine.r)
    assert got_I == pytest.approx(want_I, abs=5e-7)

    got_Rt = sample.R_tilde
    want_Rt = np.trapezoid(fine.r**2 / (1 + fine.r) ** 4 * sf.phi * sf.phi_t, fine.r)
    assert got_Rt == pytest.approx(want_Rt, abs=5e-7)

    got_J = sample.J
    dens = fine.r**2 * (1 + np.tanh(fine.r + 0.4)) * (
        0.5 * sf.phi_t**2 + 0.5 * np.exp(-2 * 0.5 * -0.2) * sf.phi_r**2
        + eval_F(T1, sf.phi))
    assert got_J == pytest.approx(np.trapezoid(dens, fine.r), abs=1e-6)


def test_static_rate_against_refined_oracle():
    # phi_t = 0, no potential: the origin-damped rate reduces to
    # int -w_sob phi_r^2 + 2r(3r-2)/(1+r)^6 phi^2
    g = RadialGrid(16.0, 512)
    fine = RadialGrid(16.0, 8192)
    s, sf = gaussian_state(g), gaussian_state(fine)
    s.phi_t = np.zeros_like(s.phi)
    sf.phi_t = np.zeros_like(sf.phi)
    got = record(s, 0.0, None, g).Rt_rate
    want = np.trapezoid(
        -fine.r**2 / (1 + fine.r) ** 4 * sf.phi_r**2
        + 2 * fine.r * (3 * fine.r - 2) / (1 + fine.r) ** 6 * sf.phi**2, fine.r)
    # the phi^2 coefficient has strong curvature at the origin, which
    # dominates the trapezoid oracle's error budget
    assert got == pytest.approx(want, abs=5e-6)


def test_weighted_energy_decomposition(small_grid):
    state = gaussian_state(small_grid)
    sample = record(state, 0.0, T1, small_grid)
    assert sample.W == pytest.approx(sample.h1w_sq + sample.l2w_sq, rel=1e-14)


def test_weighted_energy_controls_local_norms():
    # || (phi, phi_t) ||^2_{H1 x L2(B(0,R))} <= 4 pi (1+R)^4 W
    g = RadialGrid(16.0, 1024)
    state = gaussian_state(g, amplitude=2.0, width=1.3)
    W = record(state, 0.0, T1, g).W
    dens = g.r**2 * (state.phi**2 + state.phi_r**2 + state.phi_t**2)
    for R in (1.0, 5.0, 12.0):
        j = int(R / g.dr)
        local = FOUR_PI * integrate_range(dens, g, 0, j)
        assert local <= FOUR_PI * (1 + R) ** 4 * W * (1 + 1e-12)


def test_origin_flux_and_corrected_rates(small_grid):
    state = gaussian_state(small_grid)
    sample = record(state, 0.0, T1, small_grid)
    flux = sample.origin_flux
    assert flux == pytest.approx(state.phi[0] ** 2)
    assert sample.I_rate_corrected == pytest.approx(
        sample.I_rate - 0.5 * flux, rel=1e-14)
    assert virial_R_rate_corrected(state, T1, small_grid) == pytest.approx(
        virial_R_rate(state, T1, small_grid) - flux, rel=1e-14)


def test_p_rate_forms_agree(small_grid):
    state = gaussian_state(small_grid, amplitude=0.7)
    rep = p_rate_discrepancy(state, T1, small_grid)
    scale = max(abs(rep["generic"]), 1.0)
    assert rep["abs_diff"] <= 1e-12 * scale


def test_rate_consistency_along_run(virial_run):
    samples = virial_run.samples
    t = np.array([s.t for s in samples])
    dt = t[1] - t[0]
    I = np.array([s.I for s in samples])
    Ic = np.array([s.I_rate_corrected for s in samples])
    Rt = np.array([s.R_tilde for s in samples])
    Rr = np.array([s.Rt_rate for s in samples])
    fd_I = (I[2:] - I[:-2]) / (2 * dt)
    fd_Rt = (Rt[2:] - Rt[:-2]) / (2 * dt)
    assert np.linalg.norm(fd_I - Ic[1:-1]) / np.linalg.norm(fd_I) <= 5e-3
    assert np.linalg.norm(fd_Rt - Rr[1:-1]) / np.linalg.norm(fd_Rt) <= 2e-2
    # without the origin flux the displayed form misses the derivative
    Id = np.array([s.I_rate for s in samples])
    resid_display = np.linalg.norm(fd_I - Id[1:-1]) / np.linalg.norm(fd_I)
    resid_corrected = np.linalg.norm(fd_I - Ic[1:-1]) / np.linalg.norm(fd_I)
    assert resid_corrected < resid_display


def test_p_rate_matches_run(virial_run):
    # spot re-evaluation: dP/dt from the generic form tracks FD(P), and
    # dR/dt tracks FD(R) only once the origin flux is added (measured
    # residuals 6.8e-3 with the flux, 4.5e-2 without)
    samples = virial_run.samples
    t = np.array([s.t for s in samples])
    dt = t[1] - t[0]
    P = np.array([s.P for s in samples])
    R = np.array([s.R for s in samples])
    fd = (P[2:] - P[:-2]) / (2 * dt)
    fd_R = (R[2:] - R[:-2]) / (2 * dt)
    scn = virial_run.scenario
    grid = scn.grid()
    from inflaton.dynamics import SolverConfig, evolve, initial_state
    state = initial_state(grid, scn.amplitude, scn.center, scn.width,
                          velocity=scn.velocity, space_order=scn.space_order)
    rates, rates_disp, r_rates, r_bulk = [], [], [], []
    cfg = SolverConfig(t_end=scn.t_end, cfl=scn.cfl, space_order=scn.space_order,
                       output_every=scn.output_every)

    def observe(head):
        s = field_values(whole_grid(head))
        rates.append(virial_P_rate(s, scn.spec, grid))
        rates_disp.append(virial_P_rate_display(s, scn.spec, grid))
        r_rates.append(virial_R_rate_corrected(s, scn.spec, grid))
        r_bulk.append(virial_R_rate(s, scn.spec, grid))

    evolve(state, cfg, scn.spec, grid, observer=observe)
    rates = np.array(rates)
    assert np.linalg.norm(fd - rates[1:-1]) / np.linalg.norm(fd) <= 5e-3
    assert np.allclose(rates, np.array(rates_disp), atol=1e-12 * np.max(np.abs(rates)))
    resid_R = np.linalg.norm(fd_R - np.array(r_rates)[1:-1]) / np.linalg.norm(fd_R)
    resid_bulk = np.linalg.norm(fd_R - np.array(r_bulk)[1:-1]) / np.linalg.norm(fd_R)
    assert resid_R <= 1e-2 and resid_R < 0.5 * resid_bulk


def test_rate_lower_bound_on_thm1_run(virial_run):
    samples = virial_run.samples
    I_rate = np.array([s.I_rate for s in samples])
    h1w = np.array([s.h1w_sq for s in samples])
    assert np.all(I_rate >= h1w - 1e-14)


def test_monotone_I_on_radiating_run(virial_run):
    I = np.array([s.I for s in virial_run.samples])
    steps = np.diff(I)
    assert steps.min() >= -1e-6 * np.max(np.abs(I))


def test_I_bounded_by_early_range(virial_run):
    # operational form of "I is bounded uniformly in time by the energy":
    # for decaying runs the whole-run sup stays within 10x the swing seen
    # in the first time unit (measured ratio ~7.5 on this scenario)
    t = np.array([s.t for s in virial_run.samples])
    I = np.array([s.I for s in virial_run.samples])
    early = I[t <= 1.0]
    early_range = early.max() - early.min()
    assert early_range > 0
    assert np.max(np.abs(I)) <= 10.0 * early_range


def test_J_saturation_limit():
    # with the transition far to the left of the support the weight is
    # exactly 2 in double precision, so J = 2 * E / (4 pi): at t = -15 and
    # H = 0 the selector is 1 + tanh(r + 30)
    g = RadialGrid(16.0, 512)
    state = gaussian_state(g, amplitude=0.8, width=1.2)
    state.t = -15.0
    sample = record(state, 0.0, T1, g)
    assert sample.J == pytest.approx(2.0 * sample.E / FOUR_PI, rel=1e-12)


def test_J_bound_signs():
    g = RadialGrid(16.0, 512)
    state = gaussian_state(g)
    state.t = 0.5
    assert record(state, 1.0, T1, g).J_bound <= 0.0


def test_J_monotone_and_bounded_along_expanding_run(thm3_run):
    samples = thm3_run.samples
    t = np.array([s.t for s in samples])
    J = np.array([s.J for s in samples])
    B = np.array([s.J_bound for s in samples])
    assert np.all(np.diff(J) <= 1e-9 * np.max(np.abs(J)))
    dt = t[1] - t[0]
    fd = (J[2:] - J[:-2]) / (2 * dt)
    slack = fd - B[1:-1]
    assert slack.max() <= 1e-6 * np.max(np.abs(J))


def test_sample_diagnostics_csv_contract(small_grid):
    state = gaussian_state(small_grid)
    sample = record(state, 0.5, T1, small_grid, ball_radius=5.0)
    row = sample.csv_row()
    assert len(row) == len(CSV_COLUMNS) == 15
    assert CSV_COLUMNS[0] == "t" and CSV_COLUMNS[-1] == "h1_norm"
    assert all(np.isfinite(row))
    assert sample.sup_phi == pytest.approx(np.max(np.abs(state.phi)))


# (scenario, hubble the record is evaluated at); each snapshot is the final
# state of the scenario's run
_SNAPSHOTS = {
    "H0-T1": (virial_consistency_scenario(n_cells=1024, t_end=4.0), 0.0),
    "thm3-T1": (thm3_suite(t_end=0.5)[0], 1.0),
    # a free field, recorded at H = 0.5 so that E_rate is not 0
    "no-potential": (replace(virial_consistency_scenario(n_cells=1024, t_end=4.0),
                             spec=None), 0.5),
    # J ~ 1e-5 against E ~ 1e-2: 1 + tanh cancels in the reference
    "thm3-T1-late": (thm3_suite(t_end=3.4)[0], 1.0),
}


@pytest.mark.parametrize("snapshot", list(_SNAPSHOTS))
def test_record_matches_per_functional_reference(snapshot):
    scn, hubble = _SNAPSHOTS[snapshot]
    grid = scn.grid()
    state = evolve(scn.initial(grid), scn.solver_config(), scn.spec, grid)
    got = sample_diagnostics([scan_prefix(state)], hubble, scn.spec,
                             ball_radius=scn.decay_radius)[0]
    ref = reference_record(field_values(state), hubble, scn.spec, grid,
                           ball_radius=scn.decay_radius)
    assert list(ref) == [f.name for f in fields(VirialSample)]
    for name, (want, magnitude) in ref.items():
        assert getattr(got, name) == pytest.approx(
            want, rel=1e-10, abs=1e-12 * magnitude), name
    if snapshot == "thm3-T1-late":
        assert 1e-6 < got.J < 1e-4 and got.J < 1e-2 * got.E


def _block(grid, order, size):
    """``size`` snapshots with different live extents: a field cut off at
    node 60 (of O(1) right up to the cut), then outgoing bumps and bumps at
    rest of growing centre and width, at growing times; a block of more than
    one also holds a gaussian whose u is nonzero at node n - 1."""
    cut = np.zeros(grid.n_nodes)
    cut[1:61] = 0.3 * grid.r[1:61] * np.cos(grid.r[1:61])
    states = [FieldState(0.0, cut, -0.5 * cut, grid, order)]
    for i in range(1, size):
        s = initial_state(grid, 0.4 - 0.03 * i, 2.5 + 1.6 * i, 1.0 + 0.2 * i,
                          velocity="outgoing" if i % 2 == 0 else "rest", space_order=order)
        states.append(FieldState(0.3 * i, s.u, s.u_t, grid, order))
    if size > 1:
        edge = 0.2 * np.exp(-((grid.r - grid.r_max) / 2.0) ** 2)
        states[size // 2] = FieldState(0.7, grid.r * edge, 0.5 * grid.r * edge, grid, order)
        assert states[size // 2].u[-1] != 0.0
    return states


@pytest.mark.parametrize("size", [1, 3, 8])
@pytest.mark.parametrize("spec", [None, T1], ids=["free", "T1"])
@pytest.mark.parametrize("hubble", [0.0, 0.5])
@pytest.mark.parametrize("order", [2, 4, 6])
def test_block_records_match_per_functional_reference(order, hubble, spec, size):
    g = RadialGrid(20.0, 256)
    states = _block(g, order, size)
    got = sample_diagnostics([scan_prefix(s) for s in states], hubble, spec)
    assert len(got) == size
    for state, sample in zip(states, got):
        ref = reference_record(field_values(state), hubble, spec, g)
        for name, (want, magnitude) in ref.items():
            assert abs(getattr(sample, name) - want) <= 1e-13 * magnitude, name


def _late_cuts(grid, times):
    """The field cut off at node 60 of ``_block`` at each of ``times``: its
    prefix is the nodes [0, 67), r < 5.2 on 256 cells of r_max 20."""
    cut = _block(grid, 4, 1)[0]
    return [FieldState(t, cut.u, cut.u_t, grid, 4) for t in times]


# (block, rows whose cone exterior r > 3t starts inside the block's prefix)
_CONE_BLOCKS = {
    # _block's snapshots reach node n - 1 from size 3 on, so every exterior
    # starts inside
    "1": (lambda g: _block(g, 4, 1), 1),
    "3": (lambda g: _block(g, 4, 3), 3),
    "8": (lambda g: _block(g, 4, 8), 8),
    # the exterior of t = 1.7 starts at node 66, of t >= 1.75 at or past 68
    "late-mixed": (lambda g: _late_cuts(g, [0.0, 1.7, 1.75, 3.0]), 2),
    "late-all-past": (lambda g: _late_cuts(g, [1.75, 2.0, 3.0]), 0),
}


@pytest.mark.parametrize("block", list(_CONE_BLOCKS))
def test_one_block_makes_one_force_and_one_potential_evaluation(monkeypatch, block):
    # the block is one weighted reduction: only E, J, J_bound and ballE
    # integrate the (B, k) block, F and f come from one shared evaluation,
    # and coneE integrates each row whose exterior starts inside the prefix
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for module, name in ((virials, "eval_F_and_f"), (virials, "eval_F"),
                         (grid_module, "eval_F"), (virials, "integrate"),
                         (grid_module, "integrate"), (grid_module, "integrate_range")):
        count(module, name)
    g = RadialGrid(20.0, 256)
    make, inside = _CONE_BLOCKS[block]
    states = make(g)
    samples = sample_diagnostics([scan_prefix(s) for s in states], 1.0, T1)
    assert calls["eval_F_and_f"] == 1
    assert calls["eval_F"] == 0
    assert calls["integrate"] == 3
    assert calls["integrate_range"] == 1 + inside
    if not block.startswith("late"):
        return
    # the rows past the prefix hold the 0 the whole grid's quadrature gives
    past = [(state, sample) for state, sample in zip(states, samples) if 3.0 * state.t > 5.2]
    assert len(past) == len(states) - inside
    for state, sample in past:
        assert sample.coneE == reference_record(field_values(state), 1.0, T1,
                                                g)["coneE"][0] == 0.0


@pytest.mark.parametrize("family", [None, "T1", "E2", "natural", "dbrane1", "hilltop2",
                                    "monodromy:q=0.5", "log"])
@pytest.mark.parametrize("hubble", [0.0, 0.5])
@pytest.mark.parametrize("order", [2, 4, 6])
def test_a_reused_workspace_leaves_nothing_stale(order, hubble, family):
    # one workspace evaluates a wide block, a narrow one and a wide one again,
    # each of snapshots with unequal live prefixes: every buffer a block
    # takes is written in full, so each record equals a fresh evaluation
    g = RadialGrid(20.0, 256)
    spec = None if family is None else parse_family(family)
    narrow = [_late_cuts(g, [0.4])[0],
              initial_state(g, 0.3, 1.5, 1.0, velocity="outgoing", space_order=order)]
    narrow = [FieldState(0.2 * i, s.u, s.u_t, g, order) for i, s in enumerate(narrow)]
    blocks = [[scan_prefix(s) for s in states]
              for states in (_block(g, order, 8), narrow, _block(g, order, 3)[::-1])]
    for block in blocks:
        assert len({head.u.size for head in block}) > 1
    workspace = Workspace(max(len(b) * max(h.u.size for h in b) for b in blocks))
    for block in blocks:
        got = sample_diagnostics(block, hubble, spec, workspace)
        assert got == sample_diagnostics(block, hubble, spec)
    with pytest.raises(ValueError):
        workspace.take((2, workspace.size))
