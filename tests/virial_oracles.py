"""Formulas that only the tests evaluate, each written straight from its
displayed form with one ``integrate`` per functional.

``reference_record`` is the diagnostics record of the ``virials`` module
docstring, functional by functional, with the support front taken over the
whole grid; it is the oracle for the single weighted reduction of
``sample_diagnostics``.  The energy density, the dP/dt and dR/dt identities
at H = 0 and the weighted norms serve as oracles next to it.
"""

from types import SimpleNamespace

import numpy as np

from inflaton.dynamics import support_radius
from inflaton.grid import (FOUR_PI, ball_energy, density_from_squares,
                           exterior_cone_energy, integrate)
from inflaton.potentials import eval_F, eval_f


def energy_density(state, hubble, t, grid, spec) -> np.ndarray:
    """Node values of r^2 (phi_t^2/2 + phi_r^2/(2 e^{2Ht}) + F): the energy
    integrand of one snapshot."""
    potential = eval_F(spec, state.phi) if spec is not None else None
    return density_from_squares(state.phi_t**2, state.phi_r**2, potential,
                                0.5 * np.exp(-2.0 * hubble * t), grid.r_sq)


def plain_weights(grid) -> SimpleNamespace:
    """The virial weights at the nodes, from their closed forms."""
    r = grid.r
    return SimpleNamespace(psi=r**2 / (1.0 + r), psi_p=r * (r + 2.0) / (1.0 + r) ** 2,
                           w_sob=r**2 / (1.0 + r) ** 4, r_sq=r**2)


def weighted_l2_sq(phi, grid) -> float:
    """Integral of r^2/(1+r)^4 * phi^2 over the grid."""
    return integrate(plain_weights(grid).w_sob * np.asarray(phi) ** 2, grid)


def weighted_h1_sq(phi, phi_r, grid) -> float:
    """Integral of r^2/(1+r)^4 * (phi^2 + phi_r^2) over the grid."""
    w = plain_weights(grid).w_sob
    return integrate(w * (np.asarray(phi) ** 2 + np.asarray(phi_r) ** 2), grid)


def _sech_sq(x):
    # sech^2 with underflow-safe evaluation for large |x|
    ax = np.abs(x)
    c = np.cosh(np.minimum(ax, 350.0))
    return np.where(ax >= 350.0, 0.0, 1.0 / (c * c))


def _exact(value):
    return value, abs(value)


def reference_record(state, hubble, spec, grid, *, sigma=-2.0, offset=0.0,
                     ball_radius=10.0, cone_b=2.0) -> dict[str, tuple[float, float]]:
    """Every ``VirialSample`` field as (value, magnitude).

    An integral's magnitude is the same quadrature of the integrand's
    absolute value: it bounds the rounding of any summation order, so a
    value that cancels is compared against it, not against itself.
    """
    t, phi, phi_r, phi_t = state.t, state.phi, state.phi_r, state.phi_t
    r, w = grid.r, plain_weights(grid)
    dens = energy_density(state, hubble, t, grid, spec)
    fpot = eval_F(spec, phi) if spec is not None else 0.0
    phi_f = phi * eval_f(spec, phi) if spec is not None else 0.0
    damp = np.exp(-2.0 * hubble * t)
    cone = r + sigma * t + offset

    def quad(integrand, factor=1.0):
        return factor * integrate(integrand, grid), abs(factor) * integrate(
            np.abs(integrand), grid)

    i_rate = quad((r / (1.0 + r)) ** 2 * phi_r**2
                  + r * (r + 4.0) / (2.0 * (1.0 + r) ** 4) * phi**2
                  + 0.5 * w.psi_p * (2.0 * fpot - phi_f))
    h1 = quad(w.r_sq * (phi**2 + phi_r**2), FOUR_PI)
    flux = float(phi[0] ** 2)
    return {
        "t": _exact(t),
        "E": quad(dens, FOUR_PI),
        "W": quad(w.w_sob * (phi**2 + phi_r**2 + phi_t**2)),
        "P": quad(w.psi * phi_r * phi_t),
        "R": quad(w.psi_p * phi * phi_t),
        "I": quad((w.psi * phi_r + 0.5 * w.psi_p * phi) * phi_t),
        "I_rate": i_rate,
        "R_tilde": quad(w.w_sob * phi * phi_t),
        "Rt_rate": quad(w.w_sob * (phi_t**2 - phi_r**2 - phi_f)
                        + 2.0 * r * (3.0 * r - 2.0) / (1.0 + r) ** 6 * phi**2),
        "J": quad((1.0 + np.tanh(cone)) * dens),
        "J_bound": quad(_sech_sq(cone) * dens, 1.0 + sigma),
        "ballE": _exact(ball_energy(dens, ball_radius, grid)),
        "coneE": _exact(exterior_cone_energy(dens, t, cone_b, grid)),
        "sup_phi": _exact(float(np.max(np.abs(phi)))),
        "support": _exact(support_radius(phi, phi_t, grid)),
        "h1_norm": (np.sqrt(h1[0]), np.sqrt(h1[1])),
        "h1w_sq": quad(w.w_sob * (phi**2 + phi_r**2)),
        "l2w_sq": quad(w.w_sob * phi_t**2),
        "origin_flux": _exact(flux),
        "I_rate_corrected": (i_rate[0] - 0.5 * flux, i_rate[1] + 0.5 * flux),
        "E_rate": quad(w.r_sq * (3.0 * phi_t**2 + damp * phi_r**2), -hubble * FOUR_PI),
    }


def virial_P_rate(state, spec, grid) -> float:

    """dP/dt at H=0 from the generic weight identity.

    int (2 psi / r) phi_r^2 - psi' (phi_t^2/2 + phi_r^2/2 - F), with the
    coordinate quotient evaluated in cancelled form 2r/(1+r).
    """
    r = grid.r
    w = plain_weights(grid)
    fpot = eval_F(spec, state.phi) if spec is not None else 0.0
    integrand = (2.0 * r / (1.0 + r)) * state.phi_r**2 \
        - w.psi_p * (0.5 * state.phi_t**2 + 0.5 * state.phi_r**2 - fpot)
    return integrate(integrand, grid)


def virial_P_rate_display(state, spec, grid) -> float:
    """dP/dt at H=0 in the specialized displayed form

    int r(2+3r)/(2(1+r)^2) phi_r^2 - r(r+2)/(1+r)^2 (phi_t^2/2 - F).
    """
    r = grid.r
    w = plain_weights(grid)
    fpot = eval_F(spec, state.phi) if spec is not None else 0.0
    integrand = r * (2.0 + 3.0 * r) / (2.0 * (1.0 + r) ** 2) * state.phi_r**2 \
        - w.psi_p * (0.5 * state.phi_t**2 - fpot)
    return integrate(integrand, grid)


def p_rate_discrepancy(state, spec, grid) -> dict[str, float]:
    """Both dP/dt forms side by side, so a disagreement shows as data."""
    generic = virial_P_rate(state, spec, grid)
    displayed = virial_P_rate_display(state, spec, grid)
    return {"generic": generic, "displayed": displayed,
            "abs_diff": abs(generic - displayed)}


def virial_R_rate(state, spec, grid) -> float:
    """Bulk part of dR/dt at H=0:

    int psi' (phi_t^2 - phi_r^2 - phi f) + r(r+4)/(1+r)^4 phi^2.
    """
    r = grid.r
    w = plain_weights(grid)
    phi = state.phi
    integrand = w.psi_p * (state.phi_t**2 - state.phi_r**2) \
        + r * (r + 4.0) / (1.0 + r) ** 4 * phi**2
    if spec is not None:
        integrand = integrand - w.psi_p * phi * eval_f(spec, phi)
    return integrate(integrand, grid)


def virial_R_rate_corrected(state, spec, grid) -> float:
    """dR/dt including the origin flux -phi(0,t)^2; matches centered
    differences of R."""
    return virial_R_rate(state, spec, grid) - float(state.phi[0] ** 2)
