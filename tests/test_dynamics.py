from dataclasses import replace

import numpy as np
import pytest

import inflaton.dynamics as dynamics
from inflaton.dynamics import (CflViolation, FieldState, NonFiniteField,
                               SolverConfig, StiffnessViolation, SupportOverflow,
                               block_fields, bump_profile, evolve, gaussian_profile,
                               initial_state, resolve_dt, rhs, linear_mass,
                               stiffness_cfl, support_radius)
from inflaton.experiments import _support_excess, energy_conservation_scenario
from inflaton.grid import RadialGrid, energy
from inflaton.potentials import DomainViolation, PotentialSpec, eval_f, eval_fprime
from inflaton.virials import sample_diagnostics

from full_grid_oracle import full_grid_evolve, scan_prefix, whole_grid
from stencil_oracle import second_derivative
from virial_oracles import energy_density


def _sampled(state, cfg, spec, grid):
    """The diagnostics records of a run's snapshots, taken by an observer."""
    snaps = []
    evolve(state, cfg, spec, grid, observer=snaps.append)
    return sample_diagnostics(snaps, cfg.hubble, spec, grid)


def _fronts(samples):
    """The sample times and support fronts of a run, as _support_excess reads them."""
    return np.array([s.t for s in samples]), np.array([s.support for s in samples])


def _free_dt(grid, cfg):
    # the step rule for the free wave, where only cfl * dr can bind RK4
    return resolve_dt(grid, cfg, None, initial_state(grid, 1.0, 3.0, 1.0))


def test_cfl_dt_examples():
    cfg = SolverConfig(t_end=1.0, cfl=0.5)
    assert _free_dt(RadialGrid(10.24, 1024), cfg) == pytest.approx(0.005)
    cfg1 = SolverConfig(t_end=1.0, cfl=1.0)
    assert _free_dt(RadialGrid(20.48, 1024), cfg1) == pytest.approx(0.02)
    coarse = _free_dt(RadialGrid(10.0, 64), cfg)
    fine = _free_dt(RadialGrid(10.0, 256), cfg)
    assert coarse > fine


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(t_end=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(t_end=1.0, cfl=0.0)
    with pytest.raises(ValueError):
        SolverConfig(t_end=1.0, space_order=3)
    with pytest.raises(ValueError):
        SolverConfig(t_end=1.0, output_every=0)
    with pytest.raises(ValueError):
        SolverConfig(t_end=1.0, hubble=-0.5)
    with pytest.raises(ValueError, match="scheme"):
        SolverConfig(t_end=1.0, scheme="euler")
    # the leapfrog centres the Hubble friction, so H > 0 is accepted
    assert SolverConfig(t_end=1.0, hubble=0.5, scheme="leapfrog").hubble == 0.5
    with pytest.raises(ValueError, match="space_order"):
        SolverConfig(t_end=1.0, space_order=4, scheme="leapfrog")


def test_zero_state_has_zero_rhs(small_grid):
    z = np.zeros(small_grid.n_nodes)
    state = FieldState(0.0, z.copy(), z.copy(), small_grid)
    for spec in (None, PotentialSpec("T", n=1), PotentialSpec("log")):
        du, du_t = rhs(state, 0.0, spec, small_grid)
        assert np.all(du == 0.0) and np.all(du_t == 0.0)


def test_sine_mode_is_exact_eigenvector_of_second_difference():
    # u = sin(k r) with k r_max a multiple of pi satisfies the Dirichlet rows
    # and diagonalizes the 3-point stencil with eigenvalue -(4/dr^2) sin^2(k dr/2)
    g = RadialGrid(10.0, 256)
    k = 3 * np.pi / g.r_max
    u = np.sin(k * g.r)
    state = FieldState(0.0, u, np.zeros_like(u), g, space_order=2)
    _, du_t = rhs(state, 0.0, None, g)
    lam = -(4.0 / g.dr**2) * np.sin(k * g.dr / 2.0) ** 2
    assert np.max(np.abs(du_t[1:-1] - lam * u[1:-1])) <= 1e-11
    assert abs(lam + k * k) <= k**4 * g.dr**2  # consistent with -k^2 to O(dr^2)


# from the smallest grid (n_cells 16) through the correlate's small inputs to
# the committed grids
_STENCIL_LENGTHS = (17, 18, 19, 33, 66, 67, 1025, 2049, 4097)


@pytest.mark.parametrize("order", (2, 4, 6))
@pytest.mark.parametrize("n", _STENCIL_LENGTHS)
def test_second_derivative_equals_the_written_sums(order, n):
    # exact equality pins the summation order of the correlate pass, so that
    # every output stays bit-identical to the slice sums
    rng = np.random.default_rng(n * 10 + order)
    dr = 40.0 / (n - 1)
    for _ in range(4):      # magnitudes from 1e-20 to 1e5, both signs
        u = rng.standard_normal(n) * 10.0 ** rng.uniform(-20.0, 5.0, n)
        assert np.array_equal(dynamics._second_derivative(u, dr, order),
                              second_derivative(u, dr, order))
    # r * bump, cut off mid-array: its tail at the edge of its support (down
    # to 1e-190 at 4,097 nodes), its smooth rise and the exact zeros past the cut
    r = np.arange(n) * dr
    u = r * bump_profile(r, 1.7, 0.4 * r[-1], 0.3 * r[-1])
    u[n // 2:] = 0.0
    assert np.array_equal(dynamics._second_derivative(u, dr, order),
                          second_derivative(u, dr, order))


def test_rhs_damping_term():
    g = RadialGrid(10.0, 256)
    state = initial_state(g, 0.5, 4.0, 1.5, velocity="outgoing")
    _, dut0 = rhs(state, 0.0, None, g)
    _, dut1 = rhs(state, 2.0, None, g)  # same t=0 state, hubble=2
    # at t=0 the expansion factor is 1, so the difference is pure damping
    expected = dut0 - 3.0 * 2.0 * state.u_t
    expected[0] = expected[-1] = 0.0
    assert np.allclose(dut1, expected, atol=1e-12)


def test_field_state_refuses_arrays_off_the_grid(small_grid):
    n = small_grid.n_nodes
    for u, u_t in ((np.zeros(n - 1), np.zeros(n)), (np.zeros(n), np.zeros((1, n)))):
        with pytest.raises(ValueError, match="field arrays must match the grid"):
            FieldState(0.0, u, u_t, small_grid)


def test_block_fields_refuses_mixed_grids_and_orders(small_grid):
    state = initial_state(small_grid, 1.0, 5.0, 2.0)
    other_grid = initial_state(RadialGrid(20.0, 128), 1.0, 5.0, 2.0)
    other_order = initial_state(small_grid, 1.0, 5.0, 2.0, space_order=4)
    for other in (other_grid, other_order):
        with pytest.raises(ValueError, match="one grid and stencil order"):
            block_fields([scan_prefix(state), scan_prefix(other)])


@pytest.mark.parametrize("scheme,order", [("rk4", 4), ("leapfrog", 2), ("leapfrog4", 6)])
def test_snapshots_carry_their_live_extent(scheme, order, monkeypatch):
    # each observed prefix ends order + 2 nodes past the window [0, m) of the
    # step it is observed at (at most at n_nodes), the first one order + 3
    # past the last nonzero node of a scan of the initial state; on its nodes
    # it is the whole-grid loop's snapshot bit for bit, that snapshot is 0
    # beyond them, and its fields are those a scan of the snapshot gives.  The
    # leapfrog observes snapshot k at step k + 1, once u^{k+1} exists, and
    # the last one at the last step
    g = RadialGrid(30.0, 512)
    spec = PotentialSpec("T", n=1)
    state = initial_state(g, 0.5, 4.0, 1.5, velocity="outgoing", space_order=order)
    cfg = SolverConfig(t_end=20.0, cfl=0.5, output_every=dynamics.RECHECK,
                       space_order=order, scheme=scheme)
    scans = []      # the initial scan, then one per placement of the window
    last_nonzero = dynamics._last_nonzero
    monkeypatch.setattr(dynamics, "_last_nonzero",
                        lambda arrays: scans.append(last_nonzero(arrays)) or scans[-1])
    heads, snaps = [], []
    evolve(state, cfg, spec, g, observer=heads.append)
    full_grid_evolve(state, cfg, spec, g, observer=snaps.append)
    n = g.n_nodes
    pad = dynamics.RECHECK * dynamics._reach(scheme, order) + order // 2
    dt = heads[1].t / dynamics.RECHECK
    assert heads[0].u.size == min(n, scans[0] + order + 3)
    n_steps = round(heads[-1].t / dt)
    for head in heads[1:]:
        # the window of step j was placed at the step after the last multiple
        # of RECHECK before j, until it filled the grid
        k = round(head.t / dt)
        j = min(k + 1, n_steps) if scheme == "leapfrog" else k
        m = min(n, scans[min(1 + (j - 1) // dynamics.RECHECK, len(scans) - 1)] + 1 + pad)
        assert head.u.size == min(n, m + order + 2)
        assert not head.u[m:].any() and not head.u_t[m:].any()
    assert any(head.u.size < n for head in heads)
    assert len(heads) == len(snaps)
    for head, snap in zip(heads, snaps):
        k = head.u.size
        assert head.t == snap.t
        assert np.array_equal(head.u, snap.u[:k]) and np.array_equal(head.u_t, snap.u_t[:k])
        assert not snap.u[k:].any() and not snap.u_t[k:].any()
        scanned = scan_prefix(snap)
        assert scanned.u.size <= k
        for got, whole in zip(block_fields([head]), block_fields([scanned])):
            j = whole.shape[-1]
            assert np.array_equal(got[:, :j], whole) and not got[:, j:].any()
        for got, name in zip(block_fields([head]), ("phi", "phi_t", "phi_r")):
            assert np.array_equal(got[0], getattr(snap, name)[:k])


@pytest.mark.parametrize("scheme", ("rk4", "leapfrog"))
def test_resolve_dt_refuses_a_window_where_f_prime_overflows(small_grid, scheme):
    # E1's f' grows like e^{-2s}: on +-2 sup|phi| = +-1000 it overflows, so
    # the stability bound is 0 and no step exists
    state = initial_state(small_grid, 500.0, 5.0, 2.0)
    cfg = SolverConfig(t_end=1.0, space_order=2, scheme=scheme)
    with np.errstate(over="ignore"), pytest.raises(
            CflViolation, match=f"^cfl: .* admits no positive {scheme} step$"):
        resolve_dt(small_grid, cfg, PotentialSpec("E", n=1), state)


def test_evolve_zero_horizon_returns_initial(small_grid):
    state = initial_state(small_grid, 1.0, 5.0, 2.0)
    cfg = SolverConfig(t_end=0.0)
    out = evolve(state, cfg, None, small_grid)
    assert out is state
    # the initial state is checked as at any horizon
    state.u[10] = np.nan
    with pytest.raises(NonFiniteField, match="at t=0"):
        evolve(state, cfg, None, small_grid)


def test_evolve_refuses_a_state_whose_origin_value_leaves_the_domain():
    # every node value lies inside the dbrane domain v > -1, but the value
    # extrapolated to the origin, 3 (-0.9) - 3 (-0.5) - 0.4 = -1.6, does not
    g = RadialGrid(20.0, 256)
    phi = np.zeros(g.n_nodes)
    phi[1:4] = (-0.9, -0.5, -0.4)
    state = FieldState(0.0, g.r * phi, np.zeros(g.n_nodes), g)
    assert state.phi[0] == pytest.approx(-1.6) and state.phi[1:].min() > -1.0
    observed = []
    with pytest.raises(DomainViolation, match="^dbrane potential requires v > -1$"):
        evolve(state, SolverConfig(t_end=0.0), PotentialSpec("dbrane", n=1), g,
               observer=observed.append)
    assert observed == []


def test_step_preserves_boundaries_and_advances_time(small_grid):
    state = initial_state(small_grid, 1.0, 5.0, 2.0)
    cfg = SolverConfig(t_end=0.5 * small_grid.dr, cfl=0.5)   # one step
    new = evolve(state, cfg, PotentialSpec("T", n=1), small_grid)
    assert new.t == pytest.approx(0.5 * small_grid.dr)
    assert not np.array_equal(new.u, state.u)
    assert new.u[0] == 0.0 and new.u[-1] == 0.0
    assert new.u_t[0] == 0.0 and new.u_t[-1] == 0.0


def test_dalembert_translation_and_refinement_factor():
    errors = []
    for n in (1024, 2048):
        g = RadialGrid(40.0, n)
        state = initial_state(g, 1.0, 12.0, 3.0, velocity="outgoing", space_order=2)
        cfg = SolverConfig(t_end=5.0, cfl=0.5, space_order=2, output_every=10**9)
        final = evolve(state, cfg, None, g)
        shifted = g.r - 5.0
        exact = shifted * bump_profile(shifted, 1.0, 12.0, 3.0)
        errors.append(np.sqrt(g.dr * np.sum((final.u - exact) ** 2)))
    assert errors[0] / errors[1] >= 3.5


@pytest.mark.parametrize("order", [2, 4, 6])
def test_short_energy_conservation_all_orders(order):
    # cfl 0.25 keeps RK4 time error below the spatial bias, so the drift
    # reflects the stencil order (tolerances: measured drift x2 headroom)
    g = RadialGrid(20.0, 512)
    spec = PotentialSpec("T", n=1)
    state = initial_state(g, 1.0, 4.0, 2.0, space_order=order)
    cfg = SolverConfig(t_end=5.0, cfl=0.25, space_order=order, output_every=10**9)
    e0 = energy(energy_density(state, 0.0, 0.0, g, spec), g)
    final = evolve(state, cfg, spec, g)
    eT = energy(energy_density(final, 0.0, final.t, g, spec), g)
    tol = {2: 2e-3, 4: 3e-5, 6: 6e-6}[order]
    assert abs(eT - e0) / e0 <= tol


def test_energy_monotone_under_expansion():
    g = RadialGrid(20.0, 512)
    spec = PotentialSpec("T", n=1)
    state = initial_state(g, 0.2, 4.0, 2.0)
    cfg = SolverConfig(t_end=8.0, hubble=1.0, cfl=0.5, output_every=8)
    energies = []
    evolve(state, cfg, spec, g, observer=lambda head: energies.append(
        energy(energy_density(whole_grid(head), 1.0, head.t, g, spec), g)))
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-12 * energies[0])


def test_support_radius_and_sampled_support(small_grid):
    state = initial_state(small_grid, 1.0, 5.0, 2.0)
    rad = support_radius(state.phi, state.phi_t, small_grid)
    assert 6.0 < rad <= 7.0 + 2 * small_grid.dr
    assert rad == small_grid.r[np.flatnonzero(np.abs(state.phi) > 1e-13)[-1]]
    zero = np.zeros(small_grid.n_nodes)
    assert support_radius(zero, zero, small_grid) == 0.0
    # a (B, k) block gives the front of each row
    block = np.stack([state.phi, zero])
    assert support_radius(block, block, small_grid).tolist() == [rad, 0.0]
    # the observer of a zero horizon sees the initial record
    sampled = _sampled(state, SolverConfig(t_end=0.0), None, small_grid)
    assert [(s.t, s.support) for s in sampled] == [(0.0, rad)]


def test_support_growth_bounded_by_wave_speed_plus_precursor():
    # the analytic front moves at speed <= 1; at the 1e-13 threshold RK4
    # adds a dispersive precursor measured at ~35 dr across resolutions, so
    # 40 dr is the engineering bound (the idealized +2dr grace is checked
    # in the acceptance suite)
    g = RadialGrid(40.0, 1024)
    state = initial_state(g, 1.0, 5.0, 2.0, velocity="outgoing")
    cfg = SolverConfig(t_end=15.0, cfl=0.5, output_every=32)
    samples = _sampled(state, cfg, PotentialSpec("T", n=1), g)
    t0, r0 = samples[0].t, samples[0].support
    for s in samples:
        assert s.support <= r0 + (s.t - t0) + 40.0 * g.dr
    # the idealized 2dr grace is indeed exceeded
    assert _support_excess(*_fronts(samples), g.dr) > 0.0


def test_support_overflow_aborts():
    g = RadialGrid(20.0, 256)
    state = initial_state(g, 1.0, 14.0, 2.0, velocity="outgoing")
    cfg = SolverConfig(t_end=10.0, cfl=0.5, output_every=4)
    with pytest.raises(SupportOverflow):
        evolve(state, cfg, None, g)


def test_focusing_blowup_aborts_with_nonfinite():
    # hilltop forcing is focusing at large amplitude: finite-time blowup
    g = RadialGrid(20.0, 256)
    state = initial_state(g, 10.0, 4.0, 2.0)
    cfg = SolverConfig(t_end=3.0, cfl=0.5, output_every=4)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteField):
        evolve(state, cfg, PotentialSpec("hilltop", n=2), g)


def test_initial_state_profiles(small_grid):
    r = small_grid.r
    phi = bump_profile(r, 2.0, 5.0, 2.0)
    assert np.all(phi[np.abs(r - 5.0) >= 2.0] == 0.0)
    assert 1.9 <= phi.max() <= 2.0
    gauss = gaussian_profile(r, 1.0, 5.0, 1.0)
    assert gauss.max() <= 1.0
    assert gauss[-1] == pytest.approx(np.exp(-((r[-1] - 5.0)) ** 2), abs=1e-300)

    rest = initial_state(small_grid, 1.0, 5.0, 2.0, velocity="rest")
    assert np.all(rest.u_t == 0.0)
    out = initial_state(small_grid, 1.0, 5.0, 2.0, velocity="outgoing")
    assert np.any(out.u_t != 0.0)
    assert out.u_t[0] == 0.0 and out.u_t[-1] == 0.0
    with pytest.raises(ValueError):
        initial_state(small_grid, 1.0, 5.0, 2.0, kind="box")
    with pytest.raises(ValueError):
        initial_state(small_grid, 1.0, 5.0, 2.0, velocity="sideways")


def test_field_state_origin_extrapolation(small_grid):
    # for phi = cos(r) (smooth and even) the reconstructed phi(0) is accurate
    phi = np.cos(small_grid.r)
    u = small_grid.r * phi
    state = FieldState(0.0, u, np.zeros_like(u), small_grid)
    assert state.phi[0] == pytest.approx(1.0, abs=1e-3)
    assert state.phi_r[0] == 0.0


def test_evolution_is_deterministic(small_grid):
    spec = PotentialSpec("T", n=1)

    def run():
        state = initial_state(small_grid, 1.0, 5.0, 2.0, velocity="outgoing")
        cfg = SolverConfig(t_end=4.0, cfl=0.5, output_every=16)
        return evolve(state, cfg, spec, small_grid)

    a, b = run(), run()
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.u_t, b.u_t)


def test_observer_called_on_schedule(small_grid):
    state = initial_state(small_grid, 1.0, 5.0, 2.0)
    cfg = SolverConfig(t_end=1.0, cfl=0.5, output_every=7)
    seen = []
    evolve(state, cfg, None, small_grid, observer=lambda s: seen.append(s.t))
    assert seen[0] == 0.0
    n_steps = int(np.ceil(1.0 / (cfg.cfl * small_grid.dr)))
    dt = 1.0 / n_steps
    expected = [0.0] + [k * dt for k in range(7, n_steps, 7)] + [1.0]
    assert np.allclose(seen, expected, atol=1e-12)


def test_dissipation_identity_smoke():
    g = RadialGrid(20.0, 1024)
    spec = PotentialSpec("T", n=1)
    state = initial_state(g, 0.1, 4.0, 1.5, velocity="outgoing", space_order=4)
    cfg = SolverConfig(t_end=6.0, hubble=1.0, cfl=0.5, space_order=4, output_every=1)
    samples = []
    evolve(state, cfg, spec, g,
           observer=lambda s: samples.extend(sample_diagnostics([s], 1.0, spec, g)))
    t = np.array([s.t for s in samples])
    E = np.array([s.E for s in samples])
    rate = np.array([s.E_rate for s in samples])
    dt = t[1] - t[0]
    fd = (E[2:] - E[:-2]) / (2 * dt)
    resid = np.abs(fd - rate[1:-1]) / np.abs(rate[1:-1])
    assert resid.max() <= 2e-3


def _leapfrog(t_end, output_every=10**9, cfl=1.0, **kw):
    return SolverConfig(t_end=t_end, cfl=cfl, space_order=2,
                        output_every=output_every, scheme="leapfrog", **kw)


def test_leapfrog_free_bump_stays_inside_light_cone():
    # at the magic step dt ~ dr the three-point leapfrog translates the
    # outgoing bump almost exactly: no precursor at the 1e-13 threshold
    # (measured -1.0 cells at every n; RK4 order 2 at cfl 0.5: +22 to +29)
    for n in (1024, 2048, 4096):
        g = RadialGrid(40.0, n)
        state = initial_state(g, 1.0, 12.0, 3.0, velocity="outgoing", space_order=2)
        samples = _sampled(state, _leapfrog(5.0, output_every=16), None, g)
        excess = _support_excess(*_fronts(samples), g.dr)
        assert excess <= 0.0, (n, excess / g.dr)
        if n == 1024:
            final = evolve(state, _leapfrog(5.0), None, g)
            shifted = g.r - 5.0
            exact = shifted * bump_profile(shifted, 1.0, 12.0, 3.0)
            err = np.linalg.norm(final.u - exact) / np.linalg.norm(exact)
            assert err <= 1e-4   # measured 3.0e-5


def test_leapfrog_stiffness_bound(small_grid):
    dr = small_grid.dr
    # T1: sup f' = f'(0) = 2 is all linear mass, which the leapfrog weights
    # over three time levels, so no stiffness is left: the bound is dr
    assert linear_mass(PotentialSpec("T", n=1)) == 2.0
    assert stiffness_cfl(PotentialSpec("T", n=1), 2.0, dr) == 1.0
    # E1: f'(0) = 2 as well, but f'(-2) ~ 204 on the window +-2
    spec = PotentialSpec("E", n=1)
    stiff = float(np.max(eval_fprime(spec, np.linspace(-2.0, 2.0, 2001)))) - 2.0
    assert stiff > 200.0
    bound = stiffness_cfl(spec, 2.0, dr) * dr
    assert bound == pytest.approx(dr / np.sqrt(1.0 + 0.25 * stiff * dr * dr))
    state = initial_state(small_grid, 1.0, 5.0, 2.0)   # sup|phi| = 1
    # at cfl 1 the step stays just below the bound
    dt = resolve_dt(small_grid, _leapfrog(1.0), spec, state)
    assert dt == dynamics.LEAPFROG_SAFETY * bound
    new = evolve(state, _leapfrog(bound), spec, small_grid)    # two steps
    assert new.t == bound and new.u[0] == new.u[-1] == 0.0
    # without a potential the bound is the magic step itself
    assert stiffness_cfl(None, 2.0, dr) == 1.0


@pytest.mark.parametrize("scheme, per_step", [("leapfrog", 1), ("leapfrog4", 3),
                                              ("rk4", 4)])
def test_force_evaluations_per_step(small_grid, monkeypatch, scheme, per_step):
    calls = []
    real_eval_f = dynamics.eval_f

    def counting(spec, s):
        calls.append(1)
        return real_eval_f(spec, s)

    monkeypatch.setattr(dynamics, "eval_f", counting)
    state = initial_state(small_grid, 1.0, 5.0, 2.0, space_order=2)
    cfg = SolverConfig(t_end=2.0, cfl=0.5 if scheme == "rk4" else 1.0,
                       space_order=2, output_every=5, scheme=scheme)
    seen = []
    evolve(state, cfg, PotentialSpec("T", n=1), small_grid,
           observer=lambda s: seen.append(s.t))
    n_steps = round(2.0 / ((seen[1] - seen[0]) / 5))
    # leapfrogs: per step plus the acceleration of the initial data
    assert len(calls) == per_step * n_steps + (scheme != "rk4")
    assert len(seen) == n_steps // 5 + 1 + (n_steps % 5 != 0)


def test_leapfrog_window_recheck():
    # data at rest focus through the origin and amplify sup|phi| ~11x; for
    # T1 sup f' stays f'(0) = 2 on any window, so the step stays stable
    g = RadialGrid(40.0, 512)
    spec = PotentialSpec("T", n=1)
    state = initial_state(g, 0.3, 12.0, 2.0, velocity="rest", space_order=2)
    sups, energies = [], []

    def observe(head):
        s = whole_grid(head)
        sups.append(np.max(np.abs(s.phi)))
        energies.append(energy(energy_density(s, 0.0, s.t, g, spec), g))

    final = evolve(state, _leapfrog(20.0, output_every=4), spec, g, observer=observe)
    assert final.t == pytest.approx(20.0)
    assert 10.0 <= max(sups) / sups[0] <= 14.0
    assert abs(energies[-1] / energies[0] - 1.0) <= 1e-2   # measured 2.6e-3
    # E1's f' grows like 4 e^{-2s} for s < 0: the widened window breaks the
    # fixed step, and the run stops instead of stepping past its bound
    state = initial_state(g, -0.2, 10.0, 2.0, velocity="rest", space_order=2)
    with pytest.raises(StiffnessViolation, match="stiffness bound"):
        evolve(state, _leapfrog(20.0, output_every=4), PotentialSpec("E", n=1), g)


def test_leapfrog_solves_the_centred_recurrence():
    # at H > 0 with a linear mass (T1: m^2 = 2) consecutive levels obey
    # v+ (1 + m^2 dt^2/4 + 3H dt/2) = v- (1 + m^2 dt^2/4 - 3H dt/2) + dt A_n,
    # A_n = e^{-2H t_n} D2 u^n - r f(u^n/r), and the velocity of a snapshot
    # is the centred (v+ + v-)/2
    g = RadialGrid(20.0, 256)
    spec, hubble = PotentialSpec("T", n=1), 0.7
    state = initial_state(g, 1.0, 5.0, 2.0, space_order=2)
    snaps = []
    evolve(state, _leapfrog(0.5, output_every=1, hubble=hubble), spec, g,
           observer=lambda head: snaps.append(whole_grid(head)))
    dt = snaps[1].t - snaps[0].t
    a = 1.0 + 0.25 * 2.0 * dt * dt
    b = 1.5 * hubble * dt
    r = g.r[1:-1]
    for prev, cur, nxt in zip(snaps, snaps[1:], snaps[2:]):
        u = cur.u
        d2 = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / g.dr**2
        acc = np.exp(-2.0 * hubble * cur.t) * d2 - r * eval_f(spec, u[1:-1] / r)
        v_plus = (nxt.u - u)[1:-1] / dt
        v_minus = (u - prev.u)[1:-1] / dt
        resid = v_plus * (a + b) - v_minus * (a - b) - dt * acc
        assert np.max(np.abs(resid)) <= 1e-12 * np.max(np.abs(dt * acc))
        assert np.allclose(cur.u_t[1:-1], 0.5 * (v_plus + v_minus),
                           rtol=0.0, atol=1e-12 * np.max(np.abs(cur.u_t)))


def test_leapfrog_second_order_in_time_at_hubble():
    # same grid and stencil, so the difference to a fine-step RK4 run is the
    # time error alone: halving dt cuts it about fourfold
    g = RadialGrid(20.0, 256)
    spec, hubble = PotentialSpec("T", n=1), 0.5
    state = initial_state(g, 0.5, 5.0, 2.0, space_order=2)
    ref = evolve(state, SolverConfig(t_end=2.0, hubble=hubble, cfl=1 / 32,
                                     space_order=2, output_every=10**9), spec, g)
    errs = []
    for cfl in (0.5, 0.25):
        final = evolve(state, _leapfrog(2.0, hubble=hubble, cfl=cfl), spec, g)
        errs.append(np.linalg.norm(final.u - ref.u) / np.linalg.norm(ref.u))
    assert errs[0] <= 1e-2                      # measured 2.8e-3
    assert 3.5 <= errs[0] / errs[1] <= 4.5      # measured 3.93


def _composed_trace(x: float) -> float:
    # velocity Verlet for u'' = -u with step h, composed as the triple jump
    def verlet(h):
        return np.array([[1 - h * h / 2, h], [-h * (1 - h * h / 4), 1 - h * h / 2]])
    w1, w0 = dynamics.W1, dynamics.W0
    return float(np.trace(verlet(w1 * x) @ verlet(w0 * x) @ verlet(w1 * x)))


def test_leapfrog4_stability_interval():
    beta = dynamics.STABILITY["leapfrog4"]
    assert dynamics.W1 == pytest.approx(1.3512071919596578, rel=1e-15)
    assert 2 * dynamics.W1 + dynamics.W0 == pytest.approx(1.0, rel=1e-15)
    # each outer substep alone exceeds the leapfrog interval 2, the composed
    # map stays stable up to k dt = beta and no further
    assert dynamics.W1 * beta > 2.0
    assert all(abs(_composed_trace(x)) <= 2.0 for x in np.linspace(0.0, beta, 20001))
    assert abs(_composed_trace(beta + 1e-4)) > 2.0
    # the one bound: beta / sqrt(rho_p + L dr^2) for every scheme and order
    assert stiffness_cfl(None, 1.0, 0.1, "leapfrog4", 6) == pytest.approx(
        beta / np.sqrt(272 / 45))
    assert stiffness_cfl(None, 1.0, 0.1, "rk4", 4) == pytest.approx(
        2 * np.sqrt(2) / np.sqrt(16 / 3))


def test_leapfrog4_fourth_order_in_time():
    # same grid and stencil, so the difference to a fine-step RK4 run is the
    # time error alone: halving dt cuts it about sixteenfold
    g = RadialGrid(20.0, 256)
    spec = PotentialSpec("T", n=1)
    state = initial_state(g, 1.0, 5.0, 2.0, space_order=2)

    def run(scheme, cfl):
        cfg = SolverConfig(t_end=2.0, cfl=cfl, space_order=2, output_every=10**9,
                           scheme=scheme)
        return evolve(state, cfg, spec, g).u

    ref = run("rk4", 1 / 64)
    errs = [np.linalg.norm(run("leapfrog4", cfl) - ref) / np.linalg.norm(ref)
            for cfl in (0.25, 0.125)]
    assert errs[0] <= 1e-3                      # measured 6.3e-5
    assert 14.0 <= errs[0] / errs[1] <= 18.0    # measured 15.96


def test_leapfrog4_default_step_rule(small_grid):
    # cfl dr below the stability bound, 0.99995 of the bound above it
    dr = small_grid.dr
    state = initial_state(small_grid, 1.0, 5.0, 2.0, space_order=6)
    bound = stiffness_cfl(None, 2.0, dr, "leapfrog4", 6) * dr
    assert bound == pytest.approx(1.5734 / np.sqrt(272 / 45) * dr)   # 0.64 dr
    for cfl, expected in ((0.5, 0.5 * dr), (1.0, dynamics.LEAPFROG_SAFETY * bound)):
        cfg = SolverConfig(t_end=1.0, cfl=cfl, space_order=6, scheme="leapfrog4")
        assert resolve_dt(small_grid, cfg, None, state) == expected
    with pytest.raises(ValueError, match="hubble: leapfrog4 needs hubble 0"):
        SolverConfig(t_end=1.0, hubble=0.5, scheme="leapfrog4")


def test_leapfrog4_snapshots_hold_no_subnormals():
    # the composition fills the quiet tail ahead of the front with
    # subnormals (731 in the t = 10 snapshot without the flush); each
    # composed step flushes them to 0
    scn = replace(energy_conservation_scenario(), t_end=10.0)
    grid = scn.grid()
    tiny = np.finfo(float).tiny
    counts = []

    def observe(s):
        values = np.concatenate([s.u, s.u_t])
        counts.append(int(np.count_nonzero((values != 0.0) & (np.abs(values) < tiny))))

    evolve(scn.initial(grid), scn.solver_config(), scn.spec, grid, observer=observe)
    assert len(counts) == 5 and counts == [0] * 5
