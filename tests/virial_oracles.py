"""Rate formulas that only the tests evaluate: the dP/dt and dR/dt
identities at H = 0, each written straight from its displayed form.

They serve as oracles next to ``sample_diagnostics``, which carries the
I and Rt rates of every snapshot.
"""

from inflaton.grid import integrate
from inflaton.potentials import eval_F, eval_f


def virial_P_rate(state, spec, grid) -> float:
    """dP/dt at H=0 from the generic weight identity.

    int (2 psi / r) phi_r^2 - psi' (phi_t^2/2 + phi_r^2/2 - F), with the
    coordinate quotient evaluated in cancelled form 2r/(1+r).
    """
    r = grid.r
    w = grid.weights
    fpot = eval_F(spec, state.phi) if spec is not None else 0.0
    integrand = (2.0 * r / (1.0 + r)) * state.phi_r**2 \
        - w.psi_p * (0.5 * state.phi_t**2 + 0.5 * state.phi_r**2 - fpot)
    return integrate(integrand, grid)


def virial_P_rate_display(state, spec, grid) -> float:
    """dP/dt at H=0 in the specialized displayed form

    int r(2+3r)/(2(1+r)^2) phi_r^2 - r(r+2)/(1+r)^2 (phi_t^2/2 - F).
    """
    r = grid.r
    w = grid.weights
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
    w = grid.weights
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
