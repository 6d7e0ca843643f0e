"""The diagnostics record of one field snapshot: virial functionals, their
analytic rates and the energies, all evaluated in one pass by
``sample_diagnostics``.

With psi = r^2/(1+r), psi' = r(r+2)/(1+r)^2 and the energy density
e = r^2 (phi_t^2/2 + phi_r^2/(2 e^{2Ht}) + F) of ``grid.energy_density``:

    P  = int psi phi_r phi_t dr
    R  = int psi' phi phi_t dr
    I  = P + R/2                   (one quadrature of the combined integrand)
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
                   exterior_cone_energy, integrate, weighted_h1_sq,
                   weighted_l2_sq, FOUR_PI)
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


def _sech_sq(x: np.ndarray) -> np.ndarray:
    # sech^2 with underflow-safe evaluation for large |x|
    ax = np.abs(x)
    c = np.cosh(np.minimum(ax, 350.0))
    return np.where(ax >= 350.0, 0.0, 1.0 / (c * c))


def sample_diagnostics(state, hubble: float, spec: PotentialSpec | None,
                       grid: RadialGrid, *, sigma: float = -2.0, offset: float = 0.0,
                       ball_radius: float = 10.0, cone_b: float = 2.0) -> VirialSample:
    """Evaluate the full diagnostics record on one snapshot."""
    t, phi, phi_r, phi_t = state.t, state.phi, state.phi_r, state.phi_t
    r, w = grid.r, grid.weights
    phi_sq, phi_r_sq, phi_t_sq = phi**2, phi_r**2, phi_t**2
    dens = energy_density(state, hubble, t, grid, spec)

    i_rate_dens = (r / (1.0 + r)) ** 2 * phi_r_sq \
        + r * (r + 4.0) / (2.0 * (1.0 + r) ** 4) * phi_sq
    rt_rate_dens = w.w_sob * (phi_t_sq - phi_r_sq) \
        + 2.0 * r * (3.0 * r - 2.0) / (1.0 + r) ** 6 * phi_sq
    if spec is not None:
        force = eval_f(spec, phi)
        i_rate_dens = i_rate_dens + 0.5 * w.psi_p * (2.0 * eval_F(spec, phi) - phi * force)
        rt_rate_dens = rt_rate_dens - w.w_sob * phi * force
    e_rate = 0.0
    if hubble:
        e_rate = -hubble * FOUR_PI * integrate(
            w.r_sq * (3.0 * phi_t_sq + np.exp(-2.0 * hubble * t) * phi_r_sq), grid)

    h1w = weighted_h1_sq(phi, phi_r, grid)
    l2w = weighted_l2_sq(phi_t, grid)
    flux = float(phi[0] ** 2)
    i_rate = integrate(i_rate_dens, grid)
    cone = r + sigma * t + offset
    return VirialSample(
        t=t,
        E=energy(dens, grid),
        W=h1w + l2w,
        P=integrate(w.psi * phi_r * phi_t, grid),
        R=integrate(w.psi_p * phi * phi_t, grid),
        I=integrate((w.psi * phi_r + 0.5 * w.psi_p * phi) * phi_t, grid),
        I_rate=i_rate,
        R_tilde=integrate(w.w_sob * phi * phi_t, grid),
        Rt_rate=integrate(rt_rate_dens, grid),
        J=integrate((1.0 + np.tanh(cone)) * dens, grid),
        J_bound=(1.0 + sigma) * integrate(_sech_sq(cone) * dens, grid),
        ballE=ball_energy(dens, ball_radius, grid),
        coneE=exterior_cone_energy(dens, t, cone_b, grid),
        sup_phi=float(np.max(np.abs(phi))),
        h1_norm=float(np.sqrt(FOUR_PI * integrate(w.r_sq * (phi_sq + phi_r_sq), grid))),
        h1w_sq=h1w,
        l2w_sq=l2w,
        origin_flux=flux,
        I_rate_corrected=i_rate - 0.5 * flux,
        E_rate=e_rate,
    )
