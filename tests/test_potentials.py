import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from inflaton import potentials
from inflaton.potentials import (DomainViolation, PotentialSpec, audit_potential,
                                 classify_theorem, coarse_class, eval_F, eval_f,
                                 eval_fprime, parse_family, quartic_flatness_constant,
                                 EXPECTED_CLASS)
from virial_oracles import dbrane_virial_closed_form

ALL_SPECS = [
    PotentialSpec("E", n=1), PotentialSpec("E", n=2), PotentialSpec("E", n=3),
    PotentialSpec("T", n=1), PotentialSpec("T", n=2), PotentialSpec("T", n=3),
    PotentialSpec("natural"), PotentialSpec("axion"),
    PotentialSpec("dbrane", n=1), PotentialSpec("dbrane", n=2),
    PotentialSpec("hilltop", n=1), PotentialSpec("hilltop", n=2),
    PotentialSpec("monodromy", q=-1.0), PotentialSpec("monodromy", q=-0.5),
    PotentialSpec("monodromy", q=0.5), PotentialSpec("monodromy", q=1.0),
    PotentialSpec("log"),
]

IDS = [s.label for s in ALL_SPECS]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_origin_values_exact(spec):
    assert eval_F(spec, 0.0) == 0.0
    assert eval_f(spec, 0.0) == 0.0


def test_closed_form_spot_checks():
    assert eval_F(PotentialSpec("E", n=1), 0.0) == 0.0
    s = 0.73
    assert eval_F(PotentialSpec("hilltop", n=2), s) == pytest.approx(-s**4, rel=1e-14)
    assert eval_F(PotentialSpec("log"), 1.0) == pytest.approx(0.5 * math.log(2.0), rel=1e-14)
    assert eval_F(PotentialSpec("T", n=1), s) == pytest.approx(np.tanh(s) ** 2, rel=1e-14)
    assert eval_F(PotentialSpec("natural"), np.pi) == pytest.approx(2.0, rel=1e-14)
    assert eval_F(PotentialSpec("axion"), np.pi) == pytest.approx(-2.0, rel=1e-14)
    # monodromy behaves like s^2/2 near zero for every q
    for q in (-1.0, -0.5, 0.5, 1.0):
        val = eval_F(PotentialSpec("monodromy", q=q), 1e-4)
        assert val == pytest.approx(0.5e-8, rel=1e-3)


def test_mass_at_origin_of_starobinsky_model():
    assert eval_fprime(PotentialSpec("E", n=1), 0.0) == pytest.approx(2.0, abs=1e-14)


def test_log_force_closed_form():
    s = np.linspace(-5, 5, 101)
    assert np.allclose(eval_f(PotentialSpec("log"), s), s / (1 + s * s), rtol=1e-14)


def _fd_check(spec, lo, hi, n=1000, tol=1e-6):
    s = np.linspace(lo, hi, n)
    h = 6e-6 * (1.0 + np.abs(s))
    fd_f = (eval_F(spec, s + h) - eval_F(spec, s - h)) / (2 * h)
    err_f = np.abs(eval_f(spec, s) - fd_f) / (1.0 + np.abs(eval_f(spec, s)))
    fd_fp = (eval_f(spec, s + h) - eval_f(spec, s - h)) / (2 * h)
    err_fp = np.abs(eval_fprime(spec, s) - fd_fp) / (1.0 + np.abs(eval_fprime(spec, s)))
    assert err_f.max() <= tol, f"{spec.label}: f vs FD(F) error {err_f.max():.2e}"
    assert err_fp.max() <= tol, f"{spec.label}: f' vs FD(f) error {err_fp.max():.2e}"


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_derivative_consistency(spec):
    lo = -0.85 if spec.family == "dbrane" else -3.0
    _fd_check(spec, lo, 3.0)


# --- sign margins ---------------------------------------------------------


def test_sign_margin_tanh_model():
    report = audit_potential(PotentialSpec("T", n=1), (-10, 10), n_samples=10_000)
    assert report.virial_sign_min >= -1e-12


@pytest.mark.parametrize("q", [-1.0, -0.5, 0.5, 1.0])
def test_sign_margin_monodromy(q):
    report = audit_potential(PotentialSpec("monodromy", q=q), (-10, 10), n_samples=10_000)
    assert report.virial_sign_min >= -1e-12


def test_sign_margin_hilltop_is_min_of_2s4():
    spec = PotentialSpec("hilltop", n=2)
    s = np.linspace(-2.0, 2.0, 1000)
    expected = float(np.min(2.0 * s**4))
    margin = audit_potential(spec, (-2.0, 2.0), n_samples=1000).virial_sign_min
    assert margin == pytest.approx(expected, abs=1e-13)


def test_sign_margin_axion_negative_with_quartic_ratio():
    spec = PotentialSpec("axion")
    assert audit_potential(spec, (-0.5, 0.5), n_samples=10_000).virial_sign_min < 0.0
    s = 0.1
    ratio = (2 * eval_F(spec, s) - s * eval_f(spec, s)) / (-(s**4) / 12.0)
    assert abs(ratio - 1.0) <= 0.05


def test_hilltop_virial_identity_machine_precision():
    spec = PotentialSpec("hilltop", n=2)
    s = np.linspace(-3, 3, 2001)
    lhs = 2 * eval_F(spec, s) - s * eval_f(spec, s)
    assert np.allclose(lhs, 2 * s**4, rtol=0, atol=1e-12 * (1 + np.abs(lhs)).max())


def test_log_margin_nonnegative_everywhere_sampled():
    s = np.linspace(-50, 50, 20_001)
    margin = np.log1p(s * s) - s * s / (1 + s * s)
    assert margin.min() >= 0.0
    spec_margin = 2 * eval_F(PotentialSpec("log"), s) - s * eval_f(PotentialSpec("log"), s)
    assert np.allclose(spec_margin, margin, atol=1e-14)


def test_natural_inflation_quartic_limit():
    spec = PotentialSpec("natural")
    for s, tol in ((1e-1, 0.05), (1e-2, 0.005), (1e-3, 0.0005)):
        ratio = (2 * eval_F(spec, s) - s * eval_f(spec, s)) / s**4
        assert abs(ratio - 1.0 / 12.0) <= tol / 12.0


# --- flatness and Lipschitz ------------------------------------------------


def test_quartic_constant_tanh_models():
    assert quartic_flatness_constant(PotentialSpec("T", n=2), 1.0, 10_000) <= 4.0 + 1e-9
    assert quartic_flatness_constant(PotentialSpec("T", n=3), 1.0, 10_000) <= 6.0 + 1e-9


def test_quartic_constant_e_models_finite():
    for n in (2, 3):
        c = quartic_flatness_constant(PotentialSpec("E", n=n), 1.0, 10_000)
        assert math.isfinite(c) and c > 0


def test_quartic_constant_e1_unbounded():
    # near the origin s*f ~ 2 s^2, so the quartic ratio blows up like 2/s^2;
    # the log-spaced probe must flag it
    spec = PotentialSpec("E", n=1)
    assert math.isinf(quartic_flatness_constant(spec, 1.0, 10_000))
    s = 1e-3
    assert s * eval_f(spec, s) / s**4 > 1e5


def test_quartic_constant_flags_negative_sf():
    assert math.isinf(quartic_flatness_constant(PotentialSpec("axion"), 1.0, 1000))
    assert math.isinf(quartic_flatness_constant(PotentialSpec("hilltop", n=2), 1.0, 1000))


def _lipschitz_bound(spec, interval, n_samples):
    return audit_potential(spec, interval=interval, n_samples=n_samples).lipschitz_bound


def test_lipschitz_bounds():
    assert _lipschitz_bound(PotentialSpec("T", n=1), (-20, 20), 10_000) <= 2.0 + 1e-9
    assert _lipschitz_bound(PotentialSpec("log"), (-1e3, 1e3), 10_000) <= 1.0 + 1e-9
    assert _lipschitz_bound(PotentialSpec("hilltop", n=2), (-1, 1), 1000) == pytest.approx(12.0)


def test_defocusing_min_signs():
    assert audit_potential(PotentialSpec("T", n=2),
                           n_samples=10_000).defocusing_min >= -1e-12
    assert audit_potential(PotentialSpec("axion"),
                           n_samples=10_000).defocusing_min < 0


def test_audit_evaluates_each_window_once(monkeypatch):
    # F, f and f' once on the wide window, F and f once on the local one,
    # and f once more for the flatness probe
    calls = {"eval_F": 0, "eval_f": 0, "eval_fprime": 0}
    for name in calls:
        real = getattr(potentials, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(potentials, name, counting)
    audit_potential(PotentialSpec("T", n=1))
    assert calls == {"eval_F": 2, "eval_f": 3, "eval_fprime": 1}


# --- dbrane ----------------------------------------------------------------


def test_dbrane_closed_form_values():
    assert dbrane_virial_closed_form(1, 0.0) == 0.0
    assert dbrane_virial_closed_form(1, 1.0) == pytest.approx(-0.75, rel=1e-14)


@pytest.mark.parametrize("n", [1, 2])
def test_dbrane_closed_form_matches_definition(n):
    spec = PotentialSpec("dbrane", n=n)
    # pure relative agreement away from the triple zero at v=0
    v = np.concatenate([np.linspace(-0.5, -0.1, 500), np.linspace(0.1, 3.0, 1500)])
    direct = 2 * eval_F(spec, v) - v * eval_f(spec, v)
    closed = dbrane_virial_closed_form(n, v)
    assert np.max(np.abs(direct - closed) / np.abs(closed)) <= 1e-10
    # across the zero the identity holds to absolute double precision
    v = np.linspace(-0.1, 0.1, 501)
    direct = 2 * eval_F(spec, v) - v * eval_f(spec, v)
    closed = dbrane_virial_closed_form(n, v)
    assert np.max(np.abs(direct - closed)) <= 1e-13


def test_dbrane_domain_violation():
    spec = PotentialSpec("dbrane", n=1)
    with pytest.raises(DomainViolation):
        eval_F(spec, -1.0)
    with pytest.raises(DomainViolation):
        eval_f(spec, np.array([0.5, -1.5]))
    with pytest.raises(DomainViolation):
        dbrane_virial_closed_form(2, -2.0)


# --- spec validation and parsing -------------------------------------------


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        PotentialSpec("monodromy", q=0.0)
    with pytest.raises(ValueError):
        PotentialSpec("monodromy", q=1.5)
    with pytest.raises(ValueError):
        PotentialSpec("E", n=0)
    with pytest.raises(ValueError):
        PotentialSpec("dbrane", n=3)
    with pytest.raises(ValueError):
        PotentialSpec("nonsense")
    with pytest.raises(ValueError):
        PotentialSpec("log", n=2)


@pytest.mark.parametrize("family,params", [
    ("monodromy", dict(n=3, q=0.5)), ("E", dict(n=2, q=0.5)), ("T", dict(n=1, q=1.0)),
    ("dbrane", dict(n=1, q=0.5)), ("hilltop", dict(n=2, q=-1.0)), ("natural", dict(n=1)),
    ("axion", dict(q=0.5)), ("log", dict(n=2))])
def test_potential_spec_refuses_a_parameter_its_family_does_not_take(family, params):
    # a parameter the family ignored made a spec unequal to the same potential
    extra = "n" if family in ("monodromy", "natural", "log") else "q"
    with pytest.raises(ValueError, match=f"^{family} takes no parameter {extra}$"):
        PotentialSpec(family, **params)


def test_parse_family_round_trip():
    for spec in ALL_SPECS:
        assert parse_family(spec.label) == spec
    with pytest.raises(ValueError):
        parse_family("monodromy:q=zero")
    with pytest.raises(ValueError):
        parse_family("monodromy:q=0")
    with pytest.raises(ValueError):
        parse_family("E")
    with pytest.raises(ValueError):
        parse_family("frobnicate")


def test_audit_refuses_a_window_where_the_potential_overflows():
    # e^{-s} overflows below s = -709.8: F, f and f' are not finite there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^E1: F, f, f' not finite at s = -1000 "
                                             r"on the audit interval \[-1000, 10\]$"):
            audit_potential(PotentialSpec("E", n=1), interval=(-1000.0, 10.0))
        # -s^4 overflows from the second sample on; s^3 and s^2 stay finite
        with pytest.raises(ValueError, match=r"^hilltop2: F not finite at s = 1e\+79 "):
            audit_potential(PotentialSpec("hilltop", n=2), interval=(0.0, 1e80),
                            n_samples=11)


def test_audit_empty_interval_rejected():
    with pytest.raises(ValueError):
        audit_potential(PotentialSpec("T", n=1), (2.0, -2.0), n_samples=100)
    with pytest.raises(ValueError):
        audit_potential(PotentialSpec("T", n=1), (0.0, 1.0), n_samples=1)
    with pytest.raises(ValueError):
        quartic_flatness_constant(PotentialSpec("T", n=1), -1.0, 100)


# --- classification ---------------------------------------------------------


CLASS_TABLE = {
    "T1": "Thm1",
    "monodromy:q=-1": "Thm1", "monodromy:q=-0.5": "Thm1",
    "monodromy:q=0.5": "Thm1", "monodromy:q=1": "Thm1",
    "log": "Thm1",
    "E2": "Thm2-flatness", "E3": "Thm2-flatness", "T2": "Thm2-flatness",
    "natural": "Thm2-sign", "hilltop2": "Thm2-sign",
    "E1": "None", "axion": "None", "dbrane1": "None", "dbrane2": "None",
}


@pytest.mark.parametrize("label,expected", sorted(CLASS_TABLE.items()))
def test_classification_table(label, expected):
    with warnings.catch_warnings():     # the default window is finite for every family
        warnings.simplefilter("error")
        report = audit_potential(parse_family(label))
    assert report.theorem_class == expected
    assert all(math.isfinite(v) for k, v in report.to_dict().items()
               if isinstance(v, float) and k != "quartic_constant")
    assert coarse_class(report.theorem_class) == EXPECTED_CLASS[label]


def test_classify_is_pure_function_of_report():
    spec = PotentialSpec("T", n=1)
    report = audit_potential(spec)
    assert classify_theorem(report) == report.theorem_class


def test_report_serializable_with_unbounded_marker():
    report = audit_potential(PotentialSpec("E", n=1))
    payload = json.dumps(report.to_dict())
    assert '"unbounded"' in payload
    round_tripped = json.loads(payload)
    assert round_tripped["theorem_class"] == "None"
    assert round_tripped["sample_spacing"] > 0


# --- property tests ---------------------------------------------------------


@given(st.floats(-30.0, 30.0))
def test_tanh_model_margin_pointwise(s):
    spec = PotentialSpec("T", n=1)
    assert 2 * eval_F(spec, s) - s * eval_f(spec, s) >= -1e-12


@given(st.floats(-1.0, 1.0).filter(lambda q: abs(q) > 1e-3), st.floats(-30.0, 30.0))
def test_monodromy_margin_pointwise(q, s):
    spec = PotentialSpec("monodromy", q=q)
    assert 2 * eval_F(spec, s) - s * eval_f(spec, s) >= -1e-12


@given(st.integers(2, 4), st.floats(-20.0, 20.0))
def test_tanh_family_quartic_growth_bound(n, s):
    # n >= 2 only: the n=1 force is quadratic near zero, which is exactly
    # why that model is classified through the sign condition instead
    spec = PotentialSpec("T", n=n)
    assert s * eval_f(spec, s) <= 2 * n * s**4 + 1e-12


@pytest.mark.parametrize("label", list(potentials.EXPECTED_CLASS))
def test_shared_evaluation_is_eval_F_and_eval_f_bit_for_bit(label):
    spec = potentials.parse_family(label)
    lo = -0.9 if spec.family == "dbrane" else -6.0
    s = np.concatenate([np.linspace(lo, 6.0, 4001), [0.0, 1e-300, -1e-12, 3e-8]])
    block = s[:4000].reshape(8, 500)
    for values in (s, block):
        F, f = potentials.eval_F_and_f(spec, values)
        assert np.array_equal(F, potentials.eval_F(spec, values))
        assert np.array_equal(f, potentials.eval_f(spec, values))
    if spec.family == "dbrane":
        with pytest.raises(DomainViolation):
            potentials.eval_F_and_f(spec, np.array([0.5, -1.0]))
