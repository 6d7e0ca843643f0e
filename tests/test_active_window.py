"""The active window of ``dynamics.evolve``: the reach each scheme's window
assumes, bit-for-bit agreement with the whole-grid loop it replaces (the
snapshots, their sampled support fronts and the abort), and timing-free
checks that the window is in use and that the support front is computed
only to word a SupportOverflow."""

import re

import numpy as np
import pytest

import inflaton.dynamics as dynamics
from inflaton.dynamics import (FieldState, NonFiniteField, SolverConfig,
                               StiffnessViolation, SupportOverflow, evolve, initial_state)
from inflaton.grid import RadialGrid
from inflaton.potentials import DomainViolation, PotentialSpec
from inflaton.virials import sample_diagnostics

from full_grid_oracle import full_grid_evolve, full_grid_radius, scan_prefix, whole_grid

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
    # the leapfrog's state is u^n (seeded "u") and u^{n-1} (seeded "u_t"),
    # which its recurrence reads at its own node only
    g = RadialGrid(20.0, 256)
    fields = {"u": np.zeros(g.n_nodes), "u_t": np.zeros(g.n_nodes)}
    fields[seeded][100] = 0.3
    u, u_t = fields["u"], fields["u_t"]
    dt = _cfl(scheme) * g.dr
    if scheme == "rk4":
        after = (u, u_t)
        before = dynamics._last_nonzero(after)
        dynamics._rk4(u, u_t, np.empty((8, g.n_nodes)), 1.0, dt, hubble, T1, g, order)
    elif scheme == "leapfrog":
        after = (u, u_t)
        before = dynamics._last_nonzero(after)
        dynamics._Leapfrog(dt, hubble, T1, g).step(u_t, u, 1.0)     # u^{n+1} over u_t
    else:
        after = (u, u_t, dynamics._accel(u, None, 1.0, hubble, T1, g, order))
        before = dynamics._last_nonzero(after)
        subs = dynamics._substeps(dt, dynamics.linear_mass(T1))
        dynamics._kdk(*after, np.empty(g.n_nodes), subs, T1, g, order)
    growth = dynamics._last_nonzero(after) - before
    assert growth <= dynamics._reach(scheme, order)
    # and the reach is not overstated: one step from one node attains it
    if scheme == "leapfrog" and seeded == "u_t":
        assert growth == 0
    else:
        assert growth == dynamics._reach(scheme, order)


def _run(evolver, state, cfg, spec, grid, sizes):
    """(the observed snapshots, then the returned one, abort, force
    evaluations) of one run; ``evolve`` observes its snapshots on their
    nonzero nodes."""
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
        a = whole_grid(a)
        assert a.t == b.t
        assert np.array_equal(a.u, b.u) and np.array_equal(a.u_t, b.u_t)
    # the sampled front, from the block's live nodes, is the whole-grid one
    with np.errstate(all="ignore"):
        samples = sample_diagnostics(got[0], 0.0, None)
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


@pytest.mark.parametrize("scheme", ["rk4", "leapfrog"])
def test_window_matches_the_full_grid_loop_at_a_stiffness_abort(scheme, force_sizes):
    # E1 data at rest focus into the stiff side of the potential: under
    # either scheme the run stops once the visited window outgrows the step
    g = RadialGrid(50.0, 256)
    state = initial_state(g, -0.2, 10.0, 2.0, velocity="rest")
    cfg = SolverConfig(t_end=30.0, cfl=1.0, output_every=8, scheme=scheme)
    _assert_matches_full_grid(state, cfg, PotentialSpec("E", n=1), g, force_sizes)
    with pytest.raises(StiffnessViolation, match=f"the {scheme} step"):
        evolve(state, cfg, PotentialSpec("E", n=1), g)


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


@pytest.mark.parametrize("scheme, order, hubble", [("rk4", 4, 0.0), ("leapfrog", 2, 0.5),
                                                   ("leapfrog4", 6, 0.0)])
def test_observed_prefixes_own_their_arrays(scheme, order, hubble):
    # the window is stepped in place: the initial state stays as it is, every
    # observed snapshot kept to the end of the run still holds the whole-grid
    # loop's snapshot on its nodes (and that one is 0 beyond them), and no two
    # of the observed snapshots, the initial state and the returned state may
    # share memory (np.may_share_memory: stricter than np.shares_memory), as
    # evolve's docstring promises
    g = RadialGrid(30.0, 512)
    state = initial_state(g, 0.5, 4.0, 1.5, velocity="outgoing", space_order=order)
    before = state.u.tobytes(), state.u_t.tobytes()
    cfg = SolverConfig(t_end=12.0, hubble=hubble, cfl=_cfl(scheme), output_every=16,
                       space_order=order, scheme=scheme)
    heads, snaps = [], []
    final = evolve(state, cfg, T1, g, observer=heads.append)
    full_grid_evolve(state, cfg, T1, g, observer=snaps.append)
    assert (state.u.tobytes(), state.u_t.tobytes()) == before
    assert len(heads) == len(snaps) > 10
    for head, snap in zip(heads, snaps):
        k = head.u.size
        assert head.t == snap.t
        assert np.array_equal(head.u, snap.u[:k]) and np.array_equal(head.u_t, snap.u_t[:k])
        assert not snap.u[k:].any() and not snap.u_t[k:].any()
    arrays = [a for s in (state, final, *heads) for a in (s.u, s.u_t)]
    assert not any(np.may_share_memory(a, b)
                   for i, a in enumerate(arrays) for b in arrays[i + 1:])


@pytest.mark.parametrize("scheme", ["rk4", "leapfrog", "leapfrog4"])
def test_a_snapshot_on_its_nonzero_nodes_evolves_as_on_the_whole_grid(scheme):
    # evolve places the nodes [0, k) of its initial state on the whole grid,
    # so a snapshot as evolve observes it can start a run
    g = RadialGrid(20.0, 256)
    state = initial_state(g, 0.5, 4.0, 1.5, velocity="outgoing")
    short = scan_prefix(state)
    assert short.u.size < g.n_nodes
    cfg = SolverConfig(t_end=3.0, cfl=_cfl(scheme), output_every=4, scheme=scheme)
    runs = []
    for start in (state, short):
        snaps = []
        snaps.append(evolve(start, cfg, T1, g, observer=snaps.append))
        runs.append(snaps)
    assert len(runs[0]) == len(runs[1]) > 2
    for a, b in zip(*runs):
        assert a.t == b.t
        assert np.array_equal(a.u, b.u) and np.array_equal(a.u_t, b.u_t)


def _abort_case(name):
    """(initial state, config, potential, grid) of a run that stops."""
    g = RadialGrid(20.0, 256)
    if name == "nan-in-u":
        state = initial_state(g, 1.0, 5.0, 2.0)
        state.u[10] = np.nan
        return state, SolverConfig(t_end=1.0), None, g
    if name == "nan-at-the-origin":
        state = initial_state(g, 1.0, 5.0, 2.0)
        state.u[0] = np.nan
        return state, SolverConfig(t_end=1.0), None, g
    if name == "inf-in-u_t":
        state = initial_state(g, 1.0, 5.0, 2.0)
        state.u_t[10] = np.inf
        return state, SolverConfig(t_end=1.0), None, g
    if name == "support-edge":
        state = initial_state(g, 1.0, 14.0, 2.0, velocity="outgoing")
        return state, SolverConfig(t_end=10.0, output_every=4), T1, g
    if name == "dbrane-later-snapshot":
        # rk4 stages stay inside the domain, the snapshot after the first step not
        state = initial_state(g, -0.6, 4.0, 1.5, velocity="rest", space_order=4)
        cfg = SolverConfig(t_end=8.0, output_every=1, space_order=4)
        return state, cfg, PotentialSpec("dbrane", n=2), g
    # E1 data at rest focus into the stiff side of the potential
    g = RadialGrid(50.0, 256)
    state = initial_state(g, -0.2, 10.0, 2.0, velocity="rest")
    return state, SolverConfig(t_end=30.0, cfl=1.0, output_every=8), PotentialSpec("E", n=1), g


_NUMBER = r"[-+.e\d]+"
_ABORTS = {
    "nan-in-u": (NonFiniteField, r"non-finite field at t=0", False),
    "nan-at-the-origin": (NonFiniteField, r"non-finite field at t=0", False),
    "inf-in-u_t": (NonFiniteField, r"non-finite field at t=0", False),
    "support-edge": (SupportOverflow, rf"support {_NUMBER} within 4 dr of r_max=20 "
                     rf"at t={_NUMBER}; enlarge the domain", False),
    "dbrane-later-snapshot": (DomainViolation, r"dbrane potential requires v > -1", False),
    "stiffness": (StiffnessViolation, rf"sup\|phi\|={_NUMBER} at t={_NUMBER} widens the "
                  rf"visited window to \+-{_NUMBER}; there the rk4 step dt={_NUMBER} "
                  rf"exceeds its stiffness bound cfl\* dr = {_NUMBER}", True),
}


@pytest.mark.parametrize("name", list(_ABORTS))
def test_aborts_keep_their_order_messages_and_observation(name, monkeypatch):
    # each check stops the run with its exception and message, at the
    # snapshot and with the snapshots observed that the whole-grid loop gives:
    # every check but the stiffness one comes before the observer
    kind, message, observed = _ABORTS[name]
    state, cfg, spec, g = _abort_case(name)
    snapshot_checks = []
    check_domain = dynamics.check_domain

    def recording(potential, phi):
        snapshot_checks.append(phi.size)
        check_domain(potential, phi)

    monkeypatch.setattr(dynamics, "check_domain", recording)
    outcomes = []
    for evolver in (evolve, full_grid_evolve):
        seen = []
        with pytest.raises(kind) as abort:
            evolver(state, cfg, spec, g, observer=lambda s: seen.append(s.t))
        outcomes.append((str(abort.value), seen))
    assert outcomes[0] == outcomes[1]
    text, seen = outcomes[0]
    assert re.fullmatch(message, text)
    if name.startswith("dbrane"):
        # stopped by the snapshot check, not by the force in the next step
        assert seen == [0.0] and len(snapshot_checks) == 2
    t = float(re.search(r"at t=([-+.e\d]+)", text).group(1)) if "at t=" in text else None
    if observed:
        assert seen[-1] == pytest.approx(t, rel=1e-5)
    elif t is not None:
        assert not seen or seen[-1] < t
