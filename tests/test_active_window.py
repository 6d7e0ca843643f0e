"""The active window of ``dynamics.evolve``: the reach each scheme's window
assumes, bit-for-bit agreement with the whole-grid loop it replaces, and a
timing-free check that the window is in use."""

import numpy as np
import pytest

import inflaton.dynamics as dynamics
from inflaton.dynamics import (NonFiniteField, SolverConfig, StiffnessViolation,
                               SupportOverflow, evolve, initial_state)
from inflaton.grid import RadialGrid
from inflaton.potentials import DomainViolation, PotentialSpec

from full_grid_oracle import full_grid_evolve

T1 = PotentialSpec("T", n=1)
CASES = [("rk4", 2, 0.0), ("rk4", 4, 0.0), ("rk4", 6, 0.0),
         ("rk4", 2, 0.5), ("rk4", 4, 0.5), ("rk4", 6, 0.5),
         ("leapfrog", 2, 0.0), ("leapfrog", 2, 0.5),
         ("leapfrog4", 2, 0.0), ("leapfrog4", 4, 0.0), ("leapfrog4", 6, 0.0)]


def _cfl(scheme: str) -> float:
    return 1.0 if scheme == "leapfrog" else 0.5


@pytest.fixture
def force_sizes(monkeypatch):
    """np.size of the argument of every force evaluation the stepping makes."""
    sizes = []
    real_eval_f = dynamics.eval_f

    def recording(spec, s):
        sizes.append(np.size(s))
        return real_eval_f(spec, s)

    monkeypatch.setattr(dynamics, "eval_f", recording)
    return sizes


@pytest.mark.parametrize("scheme, order, hubble", CASES)
@pytest.mark.parametrize("seeded", ["u", "u_t"])
def test_one_step_moves_the_last_nonzero_node_by_at_most_the_reach(scheme, order,
                                                                   hubble, seeded):
    g = RadialGrid(20.0, 256)
    fields = {"u": np.zeros(g.n_nodes), "u_t": np.zeros(g.n_nodes)}
    fields[seeded][100] = 0.3
    u, u_t = fields["u"], fields["u_t"]
    dt = _cfl(scheme) * g.dr
    if scheme == "rk4":
        before = (u, u_t)
        after = dynamics._rk4(u, u_t, 1.0, dt, hubble, T1, g, order)
    else:
        cfg = SolverConfig(t_end=dt, hubble=hubble, cfl=_cfl(scheme),
                           space_order=order, scheme=scheme)
        before = (u, u_t, dynamics._accel(u, None, 1.0, hubble, T1, g, order))
        subs = dynamics._substeps(dt, cfg, dynamics.linear_mass(T1))
        after = dynamics._kdk(*before, 1.0 + dt, subs, cfg, T1, g)
    growth = dynamics._last_nonzero(after) - dynamics._last_nonzero(before)
    assert growth <= dynamics._reach(scheme, order)
    # and the reach is not overstated: one step from one node attains it
    assert growth == dynamics._reach(scheme, order)


def _run(evolver, state, cfg, spec, grid, sizes):
    """(snapshots, abort, force evaluations) of one run."""
    snaps = []
    sizes.clear()
    abort = None
    try:
        snaps.append(evolver(state, cfg, spec, grid, observer=snaps.append))
    except (SupportOverflow, NonFiniteField, StiffnessViolation,
            DomainViolation) as exc:
        abort = (type(exc), str(exc))
    return snaps, abort, len(sizes)


def _assert_matches_full_grid(state, cfg, spec, grid, sizes):
    got = _run(evolve, state, cfg, spec, grid, sizes)
    want = _run(full_grid_evolve, state, cfg, spec, grid, sizes)
    assert got[1:] == want[1:]          # same abort, same force-evaluation count
    assert len(got[0]) == len(want[0]) > 1
    for a, b in zip(*(run[0] for run in (got, want))):
        # == compares values, so only the sign of a zero may differ
        assert a.t == b.t
        assert np.array_equal(a.u, b.u) and np.array_equal(a.u_t, b.u_t)


@pytest.mark.parametrize("scheme, order, hubble", CASES)
def test_window_matches_the_full_grid_loop(scheme, order, hubble, force_sizes):
    g = RadialGrid(20.0, 256)
    state = initial_state(g, 1.0, 4.0, 1.5, velocity="rest", space_order=order)
    cfg = SolverConfig(t_end=6.0, hubble=hubble, cfl=_cfl(scheme), output_every=3,
                       space_order=order, scheme=scheme)
    _assert_matches_full_grid(state, cfg, T1, g, force_sizes)


@pytest.mark.parametrize("scheme", ["rk4", "leapfrog"])
def test_window_matches_the_full_grid_loop_at_the_dbrane_domain_edge(scheme,
                                                                      force_sizes):
    # data at rest focus through the origin and drive v to -1 within a few steps
    g = RadialGrid(20.0, 256)
    state = initial_state(g, -0.2, 4.0, 1.5, velocity="rest")
    cfg = SolverConfig(t_end=8.0, cfl=_cfl(scheme), output_every=3, scheme=scheme)
    _assert_matches_full_grid(state, cfg, PotentialSpec("dbrane", n=1), g, force_sizes)
    with pytest.raises(DomainViolation):
        evolve(state, cfg, PotentialSpec("dbrane", n=1), g)


@pytest.mark.parametrize("scheme", ["rk4", "leapfrog", "leapfrog4"])
def test_window_matches_the_full_grid_loop_when_it_fills_the_grid(scheme, force_sizes):
    # the front reaches r_max: the window saturates at n_nodes and the run
    # stops with SupportOverflow at the same t
    g = RadialGrid(20.0, 256)
    state = initial_state(g, 1.0, 14.0, 2.0, velocity="outgoing")
    cfg = SolverConfig(t_end=10.0, cfl=_cfl(scheme), output_every=4, scheme=scheme)
    _assert_matches_full_grid(state, cfg, T1, g, force_sizes)
    assert force_sizes[-1] == g.n_nodes
    with pytest.raises(SupportOverflow):
        evolve(state, cfg, T1, g)


def test_window_matches_the_full_grid_loop_on_a_blowup(force_sizes):
    g = RadialGrid(20.0, 256)
    state = initial_state(g, 10.0, 4.0, 2.0)
    cfg = SolverConfig(t_end=3.0, cfl=0.5, output_every=4)
    with np.errstate(all="ignore"):
        _assert_matches_full_grid(state, cfg, PotentialSpec("hilltop", n=2), g,
                                  force_sizes)
        with pytest.raises(NonFiniteField):
            evolve(state, cfg, PotentialSpec("hilltop", n=2), g)


@pytest.mark.parametrize("scheme, r_max", [("leapfrog", 40.0), ("rk4", 60.0)])
def test_window_evaluates_the_force_on_fewer_nodes(scheme, r_max, force_sizes):
    # compact data moving out from r = 7 for t = 10; RK4's precursor runs
    # ahead of the front, so its grid is wider
    g = RadialGrid(r_max, 512)
    state = initial_state(g, 0.5, 5.0, 2.0, velocity="outgoing")
    cfg = SolverConfig(t_end=10.0, cfl=_cfl(scheme), output_every=10**9, scheme=scheme)
    full_grid_evolve(state, cfg, T1, g)
    evaluations = len(force_sizes)
    force_sizes.clear()
    evolve(state, cfg, T1, g)
    assert len(force_sizes) == evaluations
    assert np.mean(force_sizes) <= 0.7 * g.n_nodes
