"""The diagnostics record of one field snapshot: virial functionals, their
analytic rates and the energies, all evaluated in one pass by
``sample_diagnostics``: each field product is formed once, carrying the
Simpson node weights, and every functional below except J, J_bound and the
ball and cone energies is a sum of its dot products with the grid's tables.

With psi = r^2/(1+r), psi' = r(r+2)/(1+r)^2 and the energy density
e = r^2 (phi_t^2/2 + phi_r^2/(2 e^{2Ht}) + F) of ``grid.energy_density``:

    P  = int psi phi_r phi_t dr
    R  = int psi' phi phi_t dr
    I  = P + R/2
    Rt = int r^2/(1+r)^4 phi phi_t dr          (heavily origin-damped variant)
    W  = int r^2/(1+r)^4 (phi^2 + phi_r^2 + phi_t^2) dr
    J  = int (1 + tanh(r + sigma t + b)) e dr
    E  = 4 pi int e dr; ballE and coneE restrict it to r <= R and r > (1+b) t

Rates, in the displayed forms (H = 0 for I and Rt):

    I_rate  = int r^2/(1+r)^2 phi_r^2 + r(r+4)/(2(1+r)^4) phi^2 + psi'/2 (2F - phi f)
    Rt_rate = int r^2/(1+r)^4 (phi_t^2 - phi_r^2 - phi f) + 2r(3r-2)/(1+r)^6 phi^2
    J_bound = (1 + sigma) int sech^2(r + sigma t + b) e dr
    E_rate  = -H 4 pi int r^2 (3 phi_t^2 + phi_r^2 / e^{2Ht}) dr

I_rate is bounded below by the weighted H^1 norm when 2F - s f >= 0.
Integration by parts in dI/dt leaves a boundary flux -phi(0,t)^2/2 at the
origin whenever the field does not vanish there (radial waves focus
through r = 0, so this is the generic case); ``I_rate_corrected`` adds it
and matches centered differences of I.  Rt has no origin flux: its weight
kills every boundary term at r = 0.  J_bound bounds dJ/dt when F >= 0 and
is nonpositive for sigma <= -1, which makes J a decreasing light-cone
selector.  Near-origin integrands are written in cancelled polynomial
form, never as 1/r quotients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (RadialGrid, ball_energy, energy, energy_density,
                   exterior_cone_energy, integrate, FOUR_PI)
from .potentials import PotentialSpec, eval_F, eval_f

__all__ = ["VirialSample", "CSV_COLUMNS", "sample_diagnostics"]

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
    h1_norm: float
    h1w_sq: float
    l2w_sq: float
    origin_flux: float
    I_rate_corrected: float
    E_rate: float

    def csv_row(self) -> tuple[float, ...]:
        return tuple(getattr(self, name) for name in CSV_COLUMNS)


def sample_diagnostics(state, hubble: float, spec: PotentialSpec | None,
                       grid: RadialGrid, *, sigma: float = -2.0, offset: float = 0.0,
                       ball_radius: float = 10.0, cone_b: float = 2.0) -> VirialSample:
    """Evaluate the full diagnostics record on one snapshot."""
    t, phi, phi_r, phi_t = state.t, state.phi, state.phi_r, state.phi_t
    w = grid.weights
    potential = eval_F(spec, phi) if spec is not None else None
    dens = energy_density(state, hubble, t, grid, spec, potential=potential)
    # each product carries the Simpson node weights s, so that for a weight
    # table c the integral of c g h is the dot product c @ (s g h)
    phi_s, phi_r_s = grid.simpson * phi, grid.simpson * phi_r
    pp, rr, tt = phi_s * phi, phi_r_s * phi_r, grid.simpson * phi_t**2
    rt, pt = phi_r_s * phi_t, phi_s * phi_t

    h1w = w.w_sob @ pp + w.w_sob @ rr
    l2w = w.w_sob @ tt
    P, R = w.psi @ rt, w.psi_p @ pt
    i_rate = w.i_grad @ rr + w.i_mass @ pp
    rt_rate = l2w - w.w_sob @ rr + w.rt_mass @ pp
    if spec is not None:
        pf = phi_s * eval_f(spec, phi)
        i_rate += w.psi_p @ (grid.simpson * potential) - 0.5 * (w.psi_p @ pf)
        rt_rate -= w.w_sob @ pf
    r_rr = w.r_sq @ rr
    e_rate = 0.0
    if hubble:
        e_rate = -hubble * FOUR_PI * (3.0 * (w.r_sq @ tt) + np.exp(-2.0 * hubble * t) * r_rr)

    # 1 + tanh x = 2/(1+q) (x >= 0) or 2q/(1+q) (x < 0) and sech^2 x =
    # 4q/(1+q)^2 from one q = exp(-2|x|): no cancellation in either tail
    cone = grid.r + (sigma * t + offset)
    q = np.exp(-2.0 * np.abs(cone))
    inv = 1.0 / (1.0 + q)
    flux = float(phi[0] ** 2)
    return VirialSample(
        t=t, E=energy(dens, grid), W=h1w + l2w, P=P, R=R, I=P + 0.5 * R,
        I_rate=i_rate, R_tilde=w.w_sob @ pt, Rt_rate=rt_rate,
        J=2.0 * integrate(np.where(cone >= 0.0, inv, q * inv) * dens, grid),
        J_bound=4.0 * (1.0 + sigma) * integrate(q * inv**2 * dens, grid),
        ballE=ball_energy(dens, ball_radius, grid),
        coneE=exterior_cone_energy(dens, t, cone_b, grid),
        sup_phi=float(np.max(np.abs(phi))),
        h1_norm=float(np.sqrt(FOUR_PI * (w.r_sq @ pp + r_rr))),
        h1w_sq=h1w, l2w_sq=l2w, origin_flux=flux,
        I_rate_corrected=i_rate - 0.5 * flux, E_rate=e_rate)
