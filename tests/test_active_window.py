"""The active window of ``dynamics.evolve``: the reach each scheme's window
assumes, bit-for-bit agreement with the whole-grid loop it replaces (the
snapshots, their sampled support fronts and the abort), and timing-free
checks that the window is in use and that the support front is computed
only to word a SupportOverflow."""

import numpy as np
import pytest

import inflaton.dynamics as dynamics
from inflaton.dynamics import (FieldState, NonFiniteField, SolverConfig,
                               StiffnessViolation, SupportOverflow, evolve, initial_state)
from inflaton.grid import RadialGrid
from inflaton.potentials import DomainViolation, PotentialSpec
from inflaton.virials import sample_diagnostics

from full_grid_oracle import full_grid_evolve, full_grid_radius

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
    # the sampled front, from the block's live nodes, is the whole-grid one
    with np.errstate(all="ignore"):
        samples = sample_diagnostics(got[0], 0.0, None, grid)
    assert [s.support for s in samples] == [full_grid_radius(b) for b in want[0]]


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


@pytest.fixture
def support_calls(monkeypatch):
    """The arguments of every call of ``dynamics.support_radius``."""
    calls = []
    real_support_radius = dynamics.support_radius

    def counting(*args):
        calls.append(args)
        return real_support_radius(*args)

    monkeypatch.setattr(dynamics, "support_radius", counting)
    return calls


@pytest.mark.parametrize("scheme", ["rk4", "leapfrog"])
def test_evolve_computes_the_front_only_to_word_an_overflow(scheme, support_calls):
    g = RadialGrid(20.0, 256)
    compact = initial_state(g, 0.5, 5.0, 2.0, velocity="outgoing")
    cfg = SolverConfig(t_end=6.0, cfl=_cfl(scheme), output_every=1, scheme=scheme)
    snaps = []
    evolve(compact, cfg, T1, g, observer=snaps.append)
    assert len(snaps) > 70 and support_calls == []
    # the front reaches r_max: one call, for the message
    near_edge = initial_state(g, 1.0, 14.0, 2.0, velocity="outgoing")
    with pytest.raises(SupportOverflow):
        evolve(near_edge, cfg, T1, g)
    assert len(support_calls) == 1


@pytest.mark.parametrize("t_end", [0.0, 1.0])
def test_an_overflow_at_the_first_snapshot_matches_the_full_grid_loop(t_end,
                                                                       support_calls):
    # a wide gaussian lies above the threshold at r_max from the start, also
    # when there is no step to take
    g = RadialGrid(10.0, 256)
    state = initial_state(g, 1.0, 5.0, 4.0, kind="gaussian")
    cfg = SolverConfig(t_end=t_end, cfl=0.5)
    with pytest.raises(SupportOverflow) as want:
        full_grid_evolve(state, cfg, T1, g)
    support_calls.clear()
    with pytest.raises(SupportOverflow) as got:
        evolve(state, cfg, T1, g, observer=pytest.fail)
    assert str(got.value) == str(want.value)
    assert "at t=0;" in str(got.value) and len(support_calls) == 1


@pytest.mark.parametrize("seeded", ["u", "u_t"])
@pytest.mark.parametrize("offset", [-1, 0, 3])
@pytest.mark.parametrize("value", [0.5e-13, 2e-13])
def test_the_edge_check_agrees_with_the_whole_grid_front(seeded, offset, value):
    # one node below or above the threshold, just outside or within 4 dr of
    # r_max (node n_cells - 4): only the latter overflows
    g = RadialGrid(20.0, 256)
    j = g.n_cells - 4 + offset
    fields = {"u": np.zeros(g.n_nodes), "u_t": np.zeros(g.n_nodes)}
    fields[seeded][j] = value * g.r[j]
    state = FieldState(0.0, fields["u"], fields["u_t"], g)
    outcomes = []
    for evolver in (evolve, full_grid_evolve):
        try:
            outcomes.append(evolver(state, SolverConfig(t_end=0.0), None, g) is state)
        except SupportOverflow as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    assert (outcomes[0] is True) == (offset < 0 or value < 1e-13)
