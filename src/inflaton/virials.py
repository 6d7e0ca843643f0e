"""The diagnostics record of a field snapshot: virial functionals, their
analytic rates and the energies.  ``sample_diagnostics`` evaluates it for a
block of snapshots of one run at once, on the block's live nodes
(``dynamics.block_fields``): every family has F(0) = f(0) = 0, so the nodes
past the last nonzero one add nothing.  The block is sized by those nodes:
``run_scenario`` buffers each snapshot as ``evolve`` hands it out, on its
live nodes (``dynamics.FieldState``), and closes a block before its rows
times its longest snapshot would pass ``experiments.BLOCK_NODES``.  Every
(B, k) array of a block is a view of the run's ``dynamics.Workspace``,
written in place, so after the run's first block no block-sized array is
allocated or freed; a call without a workspace makes one for its block.  F
and f come from one evaluation of the family's transcendental
(``eval_F_and_f``), into the workspace too.  Each field product is formed
once as a (B, k) array and reduced by one matrix product with the grid's
Simpson-weighted weight table (``RadialGrid.weights``).  E, J and J_bound
integrate the energy density, formed from the same squares, against the
Simpson weights; the ball and cone energies keep the odd-cell rule of
``grid.integrate_range``, and a row whose cone exterior starts past the
block's nodes has coneE exactly 0 without a quadrature.  One snapshot is a
block of one.  The record also holds the snapshot's support front
``support``, the 1e-13 radius of ``dynamics.support_radius``, which the
verdict compares with the light cone; it is not a CSV column.

With psi = r^2/(1+r), psi' = r(r+2)/(1+r)^2 and the energy density
e = r^2 (phi_t^2/2 + phi_r^2/(2 e^{2Ht}) + F):

    P  = int psi phi_r phi_t dr
    R  = int psi' phi phi_t dr
    I  = P + R/2
    Rt = int r^2/(1+r)^4 phi phi_t dr          (heavily origin-damped variant)
    W  = int r^2/(1+r)^4 (phi^2 + phi_r^2 + phi_t^2) dr
    J  = int (1 + tanh(r - 2t)) e dr
    E  = 4 pi int e dr; ballE and coneE restrict it to r <= R and r > (1+b) t

Rates, in the displayed forms (H = 0 for I and Rt):

    I_rate  = int r^2/(1+r)^2 phi_r^2 + r(r+4)/(2(1+r)^4) phi^2 + psi'/2 (2F - phi f)
    Rt_rate = int r^2/(1+r)^4 (phi_t^2 - phi_r^2 - phi f) + 2r(3r-2)/(1+r)^6 phi^2
    J_bound = -int sech^2(r - 2t) e dr
    E_rate  = -H 4 pi int r^2 (3 phi_t^2 + phi_r^2 / e^{2Ht}) dr

I_rate is bounded below by the weighted H^1 norm when 2F - s f >= 0.
Integration by parts in dI/dt leaves a boundary flux -phi(0,t)^2/2 at the
origin whenever the field does not vanish there (radial waves focus
through r = 0, so this is the generic case); ``I_rate_corrected`` adds it
and matches centered differences of I.  Rt has no origin flux: its weight
kills every boundary term at r = 0.  J_bound bounds dJ/dt when F >= 0: the
selector moves out at speed 2, faster than the field's speed 1, so J is a
decreasing light-cone selector.  The selector 1 + tanh(r - 2t) and the
cone r > 3t (b = 2) are the same in every run.  Near-origin integrands are
written in cancelled polynomial form, never as 1/r quotients.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .dynamics import Workspace, block_fields, support_radius
from .grid import (WEIGHT_COLUMNS, RadialGrid, ball_energy, energy, exterior_cone_energy,
                   integrate, FOUR_PI)
from .potentials import PotentialSpec, eval_F_and_f
# no caller here; benchmark/tracer.py counts potential evaluations through
# this name
from .potentials import eval_F  # noqa: F401

__all__ = ["VirialSample", "CSV_COLUMNS", "sample_diagnostics", "field_records"]

PSI, PSI_P, W_SOB, R_SQ, I_GRAD, I_MASS, RT_MASS = map(WEIGHT_COLUMNS.index, (
    "psi", "psi_p", "w_sob", "r_sq", "i_grad", "i_mass", "rt_mass"))

CSV_COLUMNS = ("t", "E", "W", "P", "R", "I", "I_rate", "R_tilde", "Rt_rate",
               "J", "J_bound", "ballE", "coneE", "sup_phi", "h1_norm")


@dataclass(frozen=True)
class VirialSample:
    """Every scalar functional evaluated on one snapshot.

    ``I_rate`` / ``Rt_rate`` are the displayed bulk rates; the origin flux
    needed to turn I_rate into the true derivative is carried separately.
    """

    t: float
    E: float
    W: float
    P: float
    R: float
    I: float
    I_rate: float
    R_tilde: float
    Rt_rate: float
    J: float
    J_bound: float
    ballE: float
    coneE: float
    sup_phi: float
    support: float
    h1_norm: float
    h1w_sq: float
    l2w_sq: float
    origin_flux: float
    I_rate_corrected: float
    E_rate: float

    def csv_row(self) -> tuple[float, ...]:
        return _CSV_ROW(self)


_CSV_ROW = attrgetter(*CSV_COLUMNS)


def sample_diagnostics(states, hubble: float, spec: PotentialSpec | None,
                       workspace: Workspace | None = None, *,
                       ball_radius: float = 10.0) -> list[VirialSample]:
    """The diagnostics record of each snapshot (``dynamics.FieldState``) of a
    block on one grid and stencil order, evaluated together on the block's
    live nodes in ``workspace`` (one of the block's size if None); ballE is
    the energy within ``ball_radius``."""
    if not states:
        return []
    if workspace is None:
        workspace = Workspace(len(states) * max(s.u.size for s in states))
    with workspace:
        return field_records([s.t for s in states], *block_fields(states, workspace), hubble,
                             spec, states[0].grid, ball_radius=ball_radius,
                             workspace=workspace)


def field_records(t, phi: np.ndarray, phi_t: np.ndarray, phi_r: np.ndarray,
                  hubble: float, spec: PotentialSpec | None, grid: RadialGrid, *,
                  ball_radius: float = 10.0,
                  workspace: Workspace | None = None) -> list[VirialSample]:
    """The record of each row of (B, k) node values of phi, phi_t and phi_r on
    the first k nodes (0 beyond them) at the B times ``t``; nothing beyond
    them lies above the support threshold, so ``support`` is the front of
    the whole grid.  Every (B, k) array it forms is taken from ``workspace``
    (one of phi's size if None)."""
    t = np.asarray(t, dtype=float)
    shape = phi.shape
    ws = Workspace(phi.size) if workspace is None else workspace
    damp = np.exp(-2.0 * hubble * t)
    with ws:
        sums, dens = _reduce(phi, phi_t, phi_r, spec, 0.5 * damp, grid, ws)
        PP, RR, TT, RT, PT = sums[:5]
        h1w = PP[:, W_SOB] + RR[:, W_SOB]
        l2w = TT[:, W_SOB]
        i_rate = RR[:, I_GRAD] + PP[:, I_MASS]
        rt_rate = l2w - RR[:, W_SOB] + PP[:, RT_MASS]
        if spec is not None:
            F, PF = sums[5:]
            i_rate += F[:, PSI_P] - 0.5 * PF[:, PSI_P]
            rt_rate -= PF[:, W_SOB]
        e_rate = np.zeros_like(t)
        if hubble:
            e_rate = -hubble * FOUR_PI * (3.0 * TT[:, R_SQ] + damp * RR[:, R_SQ])

        with ws:
            # 1 + tanh x = 2/(1+q) (x >= 0) or 2q/(1+q) (x < 0) and sech^2 x =
            # 4q/(1+q)^2 from one q = exp(-2|x|), x = r - 2t: no cancellation
            # in either tail
            q, inv, selector = ws.take(shape), ws.take(shape), ws.take(shape)
            q[:] = grid.r[:shape[-1]]
            q -= (2.0 * t)[:, None]
            ahead = np.greater_equal(q, 0.0, out=ws.take(shape, bool))
            np.abs(q, out=q)
            q *= -2.0
            np.exp(q, out=q)
            np.add(1.0, q, out=inv)
            np.divide(1.0, inv, out=inv)
            np.multiply(q, inv, out=selector)
            np.copyto(selector, inv, where=ahead)
            selector *= dens
            inv *= inv
            inv *= q
            inv *= dens
            j, j_bound = 2.0 * integrate(selector, grid), -4.0 * integrate(inv, grid)
            sup_phi = np.max(np.abs(phi, out=q), axis=1)
        flux = phi[:, 0] ** 2
        P, R = RT[:, PSI], PT[:, PSI_P]
        columns = (
            t, energy(dens, grid), h1w + l2w, P, R, P + 0.5 * R, i_rate, PT[:, W_SOB],
            rt_rate, j, j_bound, ball_energy(dens, ball_radius, grid),
            exterior_cone_energy(dens, t, 2.0, grid),      # b = 2
            sup_phi, support_radius(phi, phi_t, grid, ws),
            np.sqrt(FOUR_PI * (PP[:, R_SQ] + RR[:, R_SQ])), h1w, l2w, flux,
            i_rate - 0.5 * flux, e_rate)
    return [VirialSample(*row) for row in np.column_stack(columns).tolist()]


def _reduce(phi, phi_t, phi_r, spec, half_damp, grid, ws):
    """Each field product of a block (phi^2, phi_r^2, phi_t^2, phi_r phi_t,
    phi phi_t, then F and phi f) reduced by one small matrix product with the
    (k, 7) Simpson-weighted table, sums[p][:, c] = int c * product_p dr, and
    the energy density r^2 (phi_t^2/2 + e^{-2Ht} phi_r^2/2 + F) from the same
    squares, taken from the workspace ``ws``; the products share one of its
    buffers, which then receives F."""
    shape = phi.shape
    table = grid.weights[:shape[-1]]
    dens = ws.take(shape)
    with ws:
        work = [ws.take(shape) for _ in range(4)]
        buf = work[0]
        sums = [np.multiply(phi, phi, out=buf) @ table]
        rr = np.multiply(phi_r, phi_r, out=buf)
        sums.append(rr @ table)
        np.multiply(half_damp[:, None], rr, out=dens)
        tt = np.multiply(phi_t, phi_t, out=buf)
        sums.append(tt @ table)
        tt *= 0.5
        dens += tt
        sums += [np.multiply(phi_r, phi_t, out=buf) @ table,
                 np.multiply(phi, phi_t, out=buf) @ table]
        if spec is not None:
            potential, force = eval_F_and_f(spec, phi, work)
            dens += potential
            sums += [potential @ table, np.multiply(phi, force, out=force) @ table]
    dens *= grid.r_sq[:shape[-1]]
    return sums, dens
