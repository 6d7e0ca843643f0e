import numpy as np
import pytest
from hypothesis import given, strategies as st
from types import SimpleNamespace

from inflaton.dynamics import FieldState, initial_state
from inflaton.grid import (WEIGHT_COLUMNS, RadialGrid, ball_energy, energy,
                           exterior_cone_energy, integrate, integrate_range)
from inflaton.potentials import PotentialSpec
from inflaton.virials import sample_diagnostics

from conftest import gaussian_state
from full_grid_oracle import scan_prefix
from virial_oracles import energy_density, weighted_h1_sq, weighted_l2_sq

# sup_r |r phi| / ||phi||_{H^1(R^3)} for phi = exp(-r): 1/(e sqrt(2 pi)),
# frozen from quadrature of the closed forms
EXP_PROFILE_SUP_RATIO = 0.14676266317373993
# 4 pi int r^2 phi_r^2 / 2 dr for phi = exp(-r^2): (3 pi / 4) sqrt(pi / 2)
GAUSSIAN_STATIC_ENERGY = 2.953051864822953


def test_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(0.0, 64)
    with pytest.raises(ValueError):
        RadialGrid(10.0, 15)
    with pytest.raises(ValueError):
        RadialGrid(10.0, 33)
    g = RadialGrid(10.0, 64)
    assert g.dr == pytest.approx(10.0 / 64)
    assert g.r[0] == 0.0 and g.r[-1] == 10.0


def test_integrate_constant(small_grid):
    assert integrate(np.ones(small_grid.n_nodes), small_grid) == pytest.approx(
        small_grid.r_max, rel=1e-14)


def test_integrate_exact_for_cubics():
    g = RadialGrid(1.0, 64)
    assert integrate(g.r**2, g) == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert integrate(g.r**3, g) == pytest.approx(0.25, abs=1e-10)


def test_integrate_exponential_oracle():
    g = RadialGrid(40.0, 4096)
    assert integrate(np.exp(-g.r), g) == pytest.approx(1.0, abs=1e-8)


def test_integrate_length_mismatch(small_grid):
    with pytest.raises(ValueError):
        integrate(np.ones(small_grid.n_nodes + 1), small_grid)


@given(st.floats(-3, 3), st.floats(-3, 3), st.integers(0, 6), st.integers(0, 6))
def test_integrate_linear(a, b, i, j):
    g = RadialGrid(2.0, 32)
    x = np.sin(i * g.r)
    y = np.cos(j * g.r)
    lhs = integrate(a * x + b * y, g)
    rhs = a * integrate(x, g) + b * integrate(y, g)
    assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(a) + abs(b)))


def test_integrate_monotone(small_grid):
    rng = np.random.default_rng(0)
    samples = rng.uniform(0.0, 1.0, small_grid.n_nodes)
    assert integrate(samples, small_grid) >= 0.0


def test_integrate_range_against_refined_oracle():
    g = RadialGrid(10.0, 64)
    f = np.exp(-0.3 * g.r) * np.sin(g.r)
    fine = RadialGrid(10.0, 512)
    ffine = np.exp(-0.3 * fine.r) * np.sin(fine.r)
    for j_lo, j_hi in ((0, 64), (3, 64), (0, 37), (11, 52)):
        got = integrate_range(f, g, j_lo, j_hi)
        sel = slice(j_lo * 8, j_hi * 8 + 1)
        want = np.trapezoid(ffine[sel], fine.r[sel])
        assert got == pytest.approx(want, abs=5e-4)
    assert integrate_range(f, g, 20, 20) == 0.0
    assert integrate_range(f, g, 30, 10) == 0.0


@pytest.mark.parametrize("k", [4, 37, 128, 257])
def test_quadratures_read_a_prefix_as_zero_extended(small_grid, k):
    # node values on [0, k), zero beyond: the prefix, and each row of a block
    # of prefixes, integrates as the zero-extended whole-grid array
    g = small_grid
    rows = np.random.default_rng(k).normal(size=(3, g.n_nodes))
    rows[:, k:] = 0.0
    prefix = rows[:, :k]
    assert integrate(prefix, g) == pytest.approx([integrate(f, g) for f in rows],
                                                 rel=1e-13, abs=1e-13)
    for j_lo, j_hi in ((0, 256), (0, 7), (3, 200), (36, 37), (36, 38), (127, 256),
                       (200, 256), (20, 20), (30, 10)):
        want = [integrate_range(f, g, j_lo, j_hi) for f in rows]
        assert integrate_range(prefix, g, j_lo, j_hi) == pytest.approx(
            want, rel=1e-13, abs=1e-13), (j_lo, j_hi)
        assert integrate_range(prefix[1], g, j_lo, j_hi) == pytest.approx(
            want[1], rel=1e-13, abs=1e-13), (j_lo, j_hi)
    with pytest.raises(ValueError):
        integrate_range(np.ones(g.n_nodes + 1), g, 0, 4)


def _unweighted(g):
    """The weight table without its Simpson node weights."""
    return {name: g.weights[:, k] / g.simpson for k, name in enumerate(WEIGHT_COLUMNS)}


def test_weight_tables_consistent_with_finite_differences():
    g = RadialGrid(30.0, 2048)
    w = _unweighted(g)
    # the tabulated psi' against a centered difference of psi
    fd_psi = (w["psi"][2:] - w["psi"][:-2]) / (2 * g.dr)
    assert np.max(np.abs(fd_psi - w["psi_p"][1:-1])) <= 2.0 * g.dr**2


def test_weight_tables_closed_forms():
    g = RadialGrid(12.0, 256)
    r = g.r
    w = _unweighted(g)
    assert np.allclose(w["psi_p"], r * (r + 2) / (1 + r) ** 2, atol=1e-12)
    # weights are bounded: psi <= r and w_sob <= min(r^2, 1)
    assert np.all(w["psi"] <= r + 1e-15)
    assert np.all(w["w_sob"] <= np.minimum(r * r, 1.0) + 1e-15)
    assert g.weights.shape == (g.n_nodes, len(WEIGHT_COLUMNS))


def test_weighted_norms_basics(small_grid):
    zeros = np.zeros(small_grid.n_nodes)
    assert weighted_l2_sq(zeros, small_grid) == 0.0
    assert weighted_h1_sq(zeros, zeros, small_grid) == 0.0
    rng = np.random.default_rng(3)
    phi = rng.normal(size=small_grid.n_nodes)
    phi_r = rng.normal(size=small_grid.n_nodes)
    assert weighted_l2_sq(phi, small_grid) <= weighted_h1_sq(phi, phi_r, small_grid)


def test_weighted_l2_of_unit_field_tends_to_third():
    g = RadialGrid(2000.0, 8192)
    val = weighted_l2_sq(np.ones(g.n_nodes), g)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-3)


def test_weighted_norm_quadratic_scaling(small_grid):
    rng = np.random.default_rng(5)
    phi = rng.normal(size=small_grid.n_nodes)
    # doubling is exact in binary floating point
    assert weighted_l2_sq(2.0 * phi, small_grid) == 4.0 * weighted_l2_sq(phi, small_grid)


# --- energies ---------------------------------------------------------------


def test_energy_zero_state(small_grid):
    z = np.zeros(small_grid.n_nodes)
    state = SimpleNamespace(phi=z, phi_t=z, phi_r=z)
    dens = energy_density(state, 1.0, 2.0, small_grid, PotentialSpec("T", n=1))
    assert energy(dens, small_grid) == 0.0


def test_energy_static_gaussian_oracle():
    g = RadialGrid(12.0, 1024)
    state = gaussian_state(g)
    state.phi_t = np.zeros_like(state.phi)
    got = energy(energy_density(state, 0.0, 0.0, g, None), g)
    assert got == pytest.approx(GAUSSIAN_STATIC_ENERGY, rel=1e-6)


def test_energy_time_independent_without_expansion():
    g = RadialGrid(12.0, 512)
    state = gaussian_state(g)
    vals = {energy(energy_density(state, 0.0, t, g, None), g) for t in (0.0, 1.0, 17.5)}
    assert len(vals) == 1


def test_energy_expansion_damps_gradient_term():
    g = RadialGrid(12.0, 512)
    state = gaussian_state(g)
    state.phi_t = np.zeros_like(state.phi)
    e0 = energy(energy_density(state, 1.0, 0.0, g, None), g)
    e1 = energy(energy_density(state, 1.0, 1.0, g, None), g)
    assert e1 == pytest.approx(np.exp(-2.0) * e0, rel=1e-12)


def test_ball_energy_limits():
    g = RadialGrid(12.0, 512)
    state = gaussian_state(g)
    z = np.zeros(g.n_nodes)
    zero_state = SimpleNamespace(phi=z, phi_t=z, phi_r=z)
    spec = PotentialSpec("T", n=1)
    zero_dens = energy_density(zero_state, 0.0, 0.0, g, spec)
    dens = energy_density(state, 0.0, 0.0, g, spec)
    assert ball_energy(zero_dens, 5.0, g) == 0.0
    assert ball_energy(dens, 12.0, g) == pytest.approx(energy(dens, g), rel=1e-14)


def test_ball_energy_partial_against_oracle():
    g = RadialGrid(12.0, 512)
    fine = RadialGrid(12.0, 4096)
    spec = PotentialSpec("T", n=1)
    state = gaussian_state(g)
    fstate = gaussian_state(fine)
    R = 1.7
    got = ball_energy(energy_density(state, 0.0, 0.0, g, spec), R, g)
    from inflaton.potentials import eval_F
    dens = 4 * np.pi * fine.r**2 * (0.5 * fstate.phi_t**2 + 0.5 * fstate.phi_r**2
                                    + eval_F(spec, fstate.phi))
    # align the oracle to the coarse grid's cut node (8x refinement)
    j_coarse = int(np.floor(R / g.dr + 1e-9))
    want = np.trapezoid(dens[:8 * j_coarse + 1], fine.r[:8 * j_coarse + 1])
    assert got == pytest.approx(want, rel=5e-4)


def test_cone_energy_limits():
    g = RadialGrid(12.0, 512)
    state = gaussian_state(g)
    spec = PotentialSpec("T", n=1)
    dens = energy_density(state, 0.5, 0.0, g, spec)
    assert exterior_cone_energy(dens, 0.0, 2.0, g) == energy(dens, g)
    late = energy_density(state, 0.5, 10.0, g, spec)
    assert exterior_cone_energy(late, 10.0, 2.0, g) == 0.0


def test_cone_energy_partial_against_oracle():
    g = RadialGrid(12.0, 512)
    fine = RadialGrid(12.0, 4096)
    state = gaussian_state(g)
    fstate = gaussian_state(fine)
    t, b = 1.0, 1.5
    got = exterior_cone_energy(energy_density(state, 0.0, t, g, None), t, b, g)
    dens = 4 * np.pi * fine.r**2 * (0.5 * fstate.phi_t**2 + 0.5 * fstate.phi_r**2)
    edge = (1 + b) * t
    j_coarse = int(np.floor(edge / g.dr)) + 1
    want = np.trapezoid(dens[8 * j_coarse:], fine.r[8 * j_coarse:])
    # the cut generically leaves an odd cell count (one trapezoid cell), so
    # the two quadratures agree only to second order locally
    assert got == pytest.approx(want, rel=2e-3)


# --- radial sup bound --------------------------------------------------------


def _radial_sup_check(state):
    # both sides of the radial sup bound: sup_j |r_j phi_j| and ||phi||_{H^1(R^3)}
    h1 = sample_diagnostics([scan_prefix(state)], 0.0, None, state.grid)[0].h1_norm
    return float(np.max(np.abs(state.u))), h1


def test_radial_sup_check_exponential_profile():
    g = RadialGrid(40.0, 2048)
    u = g.r * np.exp(-g.r)
    u[-1] = 0.0
    sup, h1 = _radial_sup_check(FieldState(0.0, u, np.zeros_like(u), g))
    assert sup / h1 == pytest.approx(EXP_PROFILE_SUP_RATIO, rel=1e-2)


def test_radial_sup_check_zero(small_grid):
    sup, h1 = _radial_sup_check(initial_state(small_grid, 0.0, 5.0, 2.0))
    assert sup == 0.0 and h1 == 0.0


def test_radial_sup_ratio_stable_under_refinement():
    ratios = []
    for n in (512, 1024, 2048):
        g = RadialGrid(40.0, n)
        sup, h1 = _radial_sup_check(initial_state(g, 1.0, 5.0, 1.0, kind="gaussian",
                                                  velocity="rest", space_order=2))
        ratios.append(sup / h1)
    spread = (max(ratios) - min(ratios)) / max(ratios)
    assert spread <= 0.01
