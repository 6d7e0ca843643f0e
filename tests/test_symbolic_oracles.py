"""Symbolic cross-checks of every hand-derived closed form.

The finite-difference property tests certify consistency to 1e-6; these
pin the same formulas against symbolic differentiation to near machine
precision, and verify the virial-rate coefficient algebra independently
of any time integration.
"""

import numpy as np
import pytest
import sympy as sp

from inflaton.grid import WEIGHT_COLUMNS, RadialGrid
from inflaton.potentials import PotentialSpec, eval_F, eval_f, eval_fprime

S = sp.symbols("s")

SYMBOLIC_F = {
    "E1": (1 - sp.exp(-S)) ** 2,
    "E2": (1 - sp.exp(-S)) ** 4,
    "E3": (1 - sp.exp(-S)) ** 6,
    "T1": sp.tanh(S) ** 2,
    "T2": sp.tanh(S) ** 4,
    "T3": sp.tanh(S) ** 6,
    "natural": 1 - sp.cos(S),
    "axion": sp.cos(S) - 1,
    "dbrane1": 1 - (1 + S) ** -2 - 2 * S,
    "dbrane2": 1 - (1 + S) ** -4 - 4 * S,
    "hilltop1": -S**2,
    "hilltop2": -S**4,
    "monodromy:q=-1": ((1 + S**2) ** sp.Rational(-1, 2) - 1) / -1,
    "monodromy:q=-0.5": ((1 + S**2) ** sp.Rational(-1, 4) - 1) / sp.Rational(-1, 2),
    "monodromy:q=0.5": ((1 + S**2) ** sp.Rational(1, 4) - 1) / sp.Rational(1, 2),
    "monodromy:q=1": ((1 + S**2) ** sp.Rational(1, 2) - 1) / 1,
    "log": sp.log(1 + S**2) / 2,
}

SPECS = {
    "E1": PotentialSpec("E", n=1), "E2": PotentialSpec("E", n=2),
    "E3": PotentialSpec("E", n=3),
    "T1": PotentialSpec("T", n=1), "T2": PotentialSpec("T", n=2),
    "T3": PotentialSpec("T", n=3),
    "natural": PotentialSpec("natural"), "axion": PotentialSpec("axion"),
    "dbrane1": PotentialSpec("dbrane", n=1), "dbrane2": PotentialSpec("dbrane", n=2),
    "hilltop1": PotentialSpec("hilltop", n=1), "hilltop2": PotentialSpec("hilltop", n=2),
    "monodromy:q=-1": PotentialSpec("monodromy", q=-1.0),
    "monodromy:q=-0.5": PotentialSpec("monodromy", q=-0.5),
    "monodromy:q=0.5": PotentialSpec("monodromy", q=0.5),
    "monodromy:q=1": PotentialSpec("monodromy", q=1.0),
    "log": PotentialSpec("log"),
}


@pytest.mark.parametrize("label", sorted(SYMBOLIC_F))
def test_closed_forms_match_symbolic_derivatives(label):
    spec = SPECS[label]
    expr = SYMBOLIC_F[label]
    lo = -0.8 if spec.family == "dbrane" else -4.0
    pts = np.linspace(lo, 4.0, 37)
    F_num = sp.lambdify(S, expr, "numpy")
    f_num = sp.lambdify(S, sp.diff(expr, S), "numpy")
    fp_num = sp.lambdify(S, sp.diff(expr, S, 2), "numpy")
    for s in pts:
        scale = 1.0 + abs(F_num(s))
        assert eval_F(spec, s) == pytest.approx(float(F_num(s)), abs=1e-12 * scale)
        scale = 1.0 + abs(f_num(s))
        assert eval_f(spec, s) == pytest.approx(float(f_num(s)), abs=1e-12 * scale)
        scale = 1.0 + abs(fp_num(s))
        assert eval_fprime(spec, s) == pytest.approx(float(fp_num(s)), abs=1e-11 * scale)


def test_weight_tables_match_symbolic_derivatives():
    r = sp.symbols("r", nonnegative=True)
    psi = r**2 / (1 + r)
    grid = RadialGrid(25.0, 128)
    w = {name: grid.weights[:, k] / grid.simpson for k, name in enumerate(WEIGHT_COLUMNS)}
    checks = [
        (psi, w["psi"]), (sp.diff(psi, r), w["psi_p"]), (r**2 / (1 + r) ** 4, w["w_sob"]),
    ]
    for expr, table in checks:
        fn = sp.lambdify(r, expr, "numpy")
        want = np.array([fn(x) for x in grid.r])
        assert np.max(np.abs(table - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))


def test_rate_coefficients_follow_from_weight_algebra():
    """The bulk-rate integrand coefficients equal the combinations the
    generic weight identity produces:

        d/dt terms in phi^2 carry (psi'/r^2 - psi''/r + psi'''/2),
        in phi_r^2 carry (2 psi / r - psi') for the combined functional.
    """
    r = sp.symbols("r", positive=True)
    psi = r**2 / (1 + r)
    p1, p2, p3 = sp.diff(psi, r), sp.diff(psi, r, 2), sp.diff(psi, r, 3)

    phi2_R = sp.simplify(p1 / r**2 - p2 / r + p3 / 2)
    assert sp.simplify(phi2_R - r * (r + 4) / (1 + r) ** 4) == 0

    phi2_I = sp.simplify(phi2_R / 2)
    assert sp.simplify(phi2_I - r * (r + 4) / (2 * (1 + r) ** 4)) == 0

    phir2_I = sp.simplify(2 * psi / r - p1)
    assert sp.simplify(phir2_I - r**2 / (1 + r) ** 2) == 0

    # the two dP/dt forms are one and the same expression
    phir2_P = sp.simplify(2 * psi / r - p1 / 2)
    assert sp.simplify(phir2_P - r * (2 + 3 * r) / (2 * (1 + r) ** 2)) == 0

    # origin-damped companion: weight w = r^2/(1+r)^4 in place of psi'
    w = r**2 / (1 + r) ** 4
    phi2_Rt = sp.simplify(w / r**2 - sp.diff(w, r) / r + sp.diff(w, r, 2) / 2)
    assert sp.simplify(phi2_Rt - 2 * r * (3 * r - 2) / (1 + r) ** 6) == 0


def test_simpson_matches_scipy_reference():
    from scipy.integrate import simpson

    from inflaton.grid import integrate

    g = RadialGrid(7.0, 64)
    rng = np.random.default_rng(11)
    samples = rng.normal(size=g.n_nodes)
    assert integrate(samples, g) == pytest.approx(
        simpson(samples, dx=g.dr), rel=1e-14)
