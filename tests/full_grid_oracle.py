"""The whole-grid stepping loop, as ``dynamics.evolve`` ran before it kept
an active window: every stencil, force and update spans all n_nodes.

It is the oracle for the active window: ``evolve`` must give the same
snapshots, up to the sign of zeros, and the same abort, and observe the same
snapshots: the stiffness check follows the observer.  It steps the leapfrog
as ``evolve`` does, by its two-level recurrence, observing snapshot k once
u^{k+1} exists; with ``kdk=True`` it steps it in its kick-drift-kick form
instead (velocity Verlet, one force evaluation per step and one for the
initial data), the reference the recurrence is compared with: the two are
one scheme, equal up to rounding.  Its support check
takes the 1e-13 front of every snapshot over the whole grid, the reference
for the edge check of ``evolve`` and for the sampled ``support``; its domain
check reads phi on every node.

``scan_prefix`` cuts a whole-grid snapshot to the ``Prefix`` the size rule
of ``evolve`` gives from a scan of its nonzero nodes, the input the
diagnostics take, and ``whole_grid`` extends a prefix by zeros to the
whole-grid snapshot it was cut from.  ``kdk_evolve`` is the kick-drift-kick
form with ``evolve``'s signature: its observer gets the scanned prefixes.
"""

import numpy as np

from inflaton.dynamics import (FieldState, NonFiniteField, Prefix, StiffnessViolation,
                               SupportOverflow, _accel, _kdk, _last_nonzero, _Leapfrog,
                               _rk4, _substeps, _sup_phi, linear_mass, resolve_dt,
                               stiffness_cfl, support_radius)
from inflaton.potentials import check_domain


def full_grid_radius(state):
    """The support front of a snapshot, from every node of the grid."""
    return support_radius(state.phi, state.phi_t, state.grid)


def scan_prefix(state):
    """The prefix [0, k) of a whole-grid snapshot, k = L + order + 3 (at most
    n_nodes) with L its last nonzero node of u or u_t."""
    k = min(state.grid.n_nodes, _last_nonzero((state.u, state.u_t)) + state.space_order + 3)
    return Prefix(state.t, state.u[:k].copy(), state.u_t[:k].copy(), state.grid,
                  state.space_order)


def whole_grid(head):
    """The whole-grid snapshot of a prefix: its u and u_t, then zeros."""
    u, u_t = np.zeros(head.grid.n_nodes), np.zeros(head.grid.n_nodes)
    u[:head.u.size], u_t[:head.u.size] = head.u, head.u_t
    return FieldState(head.t, u, u_t, head.grid, head.space_order)


def kdk_step(u, u_t, acc, scratch, t_new, dt, hubble, mass2, spec, grid):
    """One kick-drift-kick leapfrog step in place: with a = 1 + m^2 dt^2/4 and
    b = 3H dt/2, v+ = ((a - b) v^n + dt/2 A_n) / a, u^{n+1} = u^n + dt v+ and
    v^{n+1} = (a v+ + dt/2 A_{n+1}) / (a + b); ``acc`` holds A_n at the start
    and A_{n+1} at the end."""
    a = 1.0 + 0.25 * mass2 * dt * dt
    b = 1.5 * hubble * dt
    u_t *= (a - b) / a
    u_t += np.multiply(acc, 0.5 * dt / a, out=scratch)
    u += np.multiply(u_t, dt, out=scratch)
    u[0] = u[-1] = 0.0
    _accel(u, None, t_new, hubble, spec, grid, 2, out=acc)
    u_t *= a / (a + b)
    u_t += np.multiply(acc, 0.5 * dt / (a + b), out=scratch)
    u_t[0] = u_t[-1] = 0.0


def full_grid_evolve(state0, cfg, spec, grid, observer=None, kdk=False):
    dt_max = resolve_dt(grid, cfg, spec, state0)
    n_steps = max(1, int(np.ceil(cfg.t_end / dt_max - 1e-12)))
    dt = cfg.t_end / n_steps
    t0 = state0.t
    order = cfg.space_order
    u = state0.u.copy()
    u_t = state0.u_t.copy()

    def snapshot(k):
        return FieldState(t0 + k * dt, u.copy(), u_t.copy(), grid, order)

    window = 2.0 * _sup_phi(state0)

    def check_window(state):
        nonlocal window
        sup = _sup_phi(state)
        if sup <= 0.5 * window:
            return
        window = 2.0 * sup
        bound = stiffness_cfl(spec, window, grid.dr, cfg.scheme, order) * grid.dr
        if dt > bound:
            raise StiffnessViolation(
                f"sup|phi|={sup:.4g} at t={state.t:.6g} widens the visited "
                f"window to +-{window:.4g}; there the {cfg.scheme} step dt={dt:.6g} "
                f"exceeds its stiffness bound cfl* dr = {bound:.6g}")

    def inspect(state):
        if not (np.all(np.isfinite(state.u)) and np.all(np.isfinite(state.u_t))):
            raise NonFiniteField(f"non-finite field at t={state.t:.6g}")
        radius = full_grid_radius(state)
        if radius >= grid.r_max - 4.0 * grid.dr:
            raise SupportOverflow(
                f"support {radius:.4g} within 4 dr of r_max={grid.r_max:.4g} "
                f"at t={state.t:.6g}; enlarge the domain")
        if spec is not None:
            check_domain(spec, state.phi)
        if observer is not None:
            observer(state)
        check_window(state)

    if cfg.t_end == 0.0:
        inspect(state0)
        return state0
    inspect(snapshot(0))
    if cfg.scheme == "leapfrog" and not kdk:
        # u^{k-1} in u, u^{k-2} in prev; snapshot k - 1 is observed once u^k exists
        leapfrog = _Leapfrog(dt, cfg.hubble, spec, grid)
        prev, u = u, u_t
        leapfrog.first(prev, u, t0)
        for k in range(2, n_steps + 1):
            vel = np.empty_like(u)
            leapfrog.step(prev, u, t0 + (k - 1) * dt, vel)
            prev, u = u, prev
            if (k - 1) % cfg.output_every == 0:
                inspect(FieldState(t0 + (k - 1) * dt, prev.copy(), vel, grid, order))
        u_t = np.empty_like(u)
        leapfrog.land(u, prev, u_t, t0 + n_steps * dt)
        inspect(snapshot(n_steps))
        return snapshot(n_steps)
    if cfg.scheme == "leapfrog":
        mass2 = linear_mass(spec)
        acc = _accel(u, None, t0, cfg.hubble, spec, grid, 2)
    elif cfg.scheme == "leapfrog4":
        subs = _substeps(dt, linear_mass(spec))
        acc = _accel(u, None, t0, 0.0, spec, grid, order)
    scratch = np.empty((8, u.size))
    for k in range(1, n_steps + 1):
        if cfg.scheme == "leapfrog":
            kdk_step(u, u_t, acc, scratch[0], t0 + k * dt, dt, cfg.hubble, mass2, spec, grid)
        elif cfg.scheme == "leapfrog4":
            _kdk(u, u_t, acc, scratch[0], subs, spec, grid, order)
        else:
            _rk4(u, u_t, scratch, t0 + (k - 1) * dt, dt, cfg.hubble, spec, grid, order)
        if k % cfg.output_every == 0 or k == n_steps:
            inspect(snapshot(k))
    return snapshot(n_steps)


def kdk_evolve(state0, cfg, spec, grid, observer=None):
    """``full_grid_evolve`` with ``kdk=True``, handing ``observer`` the
    scanned prefixes (``scan_prefix``) of its snapshots."""
    heads = None if observer is None else (lambda state: observer(scan_prefix(state)))
    return full_grid_evolve(state0, cfg, spec, grid, heads, kdk=True)
