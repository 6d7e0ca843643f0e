"""The whole-grid stepping loop, as ``dynamics.evolve`` ran before it kept
an active window: every stencil, force and update spans all n_nodes.

It is the oracle for the active window: ``evolve`` must give the same
snapshots, up to the sign of zeros, and the same abort, and observe the same
snapshots: the stiffness check follows the observer.  Its support check
takes the 1e-13 front of every snapshot over the whole grid, the reference
for the edge check of ``evolve`` and for the sampled ``support``; its domain
check reads phi on every node.
"""

import numpy as np

from inflaton.dynamics import (FieldState, NonFiniteField, StiffnessViolation,
                               SupportOverflow, _accel, _kdk, _rk4, _substeps,
                               _sup_phi, linear_mass, resolve_dt, stiffness_cfl,
                               support_radius)
from inflaton.potentials import check_domain


def full_grid_radius(state):
    """The support front of a snapshot, from every node of the grid."""
    return support_radius(state.phi, state.phi_t, state.grid)


def full_grid_evolve(state0, cfg, spec, grid, observer=None):
    dt_max = resolve_dt(grid, cfg, spec, state0)
    n_steps = max(1, int(np.ceil(cfg.t_end / dt_max - 1e-12)))
    dt = cfg.t_end / n_steps
    t0 = state0.t
    u = state0.u.copy()
    u_t = state0.u_t.copy()

    def snapshot(k):
        return FieldState(t0 + k * dt, u.copy(), u_t.copy(), grid, cfg.space_order)

    kdk = cfg.scheme != "rk4"
    window = 2.0 * _sup_phi(state0)

    def check_window(state):
        nonlocal window
        sup = _sup_phi(state)
        if sup <= 0.5 * window:
            return
        window = 2.0 * sup
        bound = stiffness_cfl(spec, window, grid.dr, cfg.scheme,
                              cfg.space_order) * grid.dr
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
    if kdk:
        subs = _substeps(dt, cfg, linear_mass(spec))
        acc = _accel(u, None, t0, cfg.hubble, spec, grid, cfg.space_order)
    for k in range(1, n_steps + 1):
        if kdk:
            u, u_t, acc = _kdk(u, u_t, acc, t0 + k * dt, subs, cfg, spec, grid)
        else:
            u, u_t = _rk4(u, u_t, t0 + (k - 1) * dt, dt, cfg.hubble, spec, grid,
                          cfg.space_order)
        if k % cfg.output_every == 0 or k == n_steps:
            inspect(snapshot(k))
    return snapshot(n_steps)
