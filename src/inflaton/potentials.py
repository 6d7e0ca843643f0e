"""Closed-form potential families for inflationary / cold-dark-matter scalar
fields, with audit operations that certify the algebraic hypotheses used by
the decay diagnostics.

Families (all vanish at the origin together with their force f = F'):

    E(n)          (1 - e^{-s})^{2n},  n >= 1
    T(n)          tanh^{2n}(s),       n >= 1
    natural       1 - cos(s)
    axion         cos(s) - 1          (value at infinity removed; F <= 0)
    dbrane(n)     1 - (1+v)^{-2n} - 2nv,  n in {1,2}, domain v > -1
    hilltop(n)    -s^{2n},            n in {1,2}
    monodromy(q)  ((1+s^2)^{q/2} - 1)/q,  q in [-1,1], q != 0
    log           log(1+s^2)/2

The audits sample densely (default 1e4 points) and report the observed
extrema; the sampling resolution is recorded so results are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

__all__ = [
    "DomainViolation",
    "PotentialSpec",
    "PotentialAuditReport",
    "parse_family",
    "check_domain",
    "eval_F",
    "eval_f",
    "eval_fprime",
    "virial_sign_margin",
    "quartic_flatness_constant",
    "dbrane_virial_closed_form",
    "audit_potential",
    "classify_theorem",
    "EXPECTED_CLASS",
]

_FAMILIES = ("E", "T", "natural", "axion", "dbrane", "hilltop", "monodromy", "log")

# Sign tolerance used throughout classification: inequalities audited by
# sampling are accepted down to -1e-12 to absorb roundoff in cancellations.
SIGN_TOL = 1e-12

# A flatness ratio exceeding this near s=0 is reported as unbounded.
_DIVERGENCE_CAP = 1e6


class DomainViolation(ValueError):
    """Potential evaluated outside its domain (dbrane with v <= -1)."""


@dataclass(frozen=True)
class PotentialSpec:
    """One potential family with its parameters.

    ``n`` is required for E/T/dbrane/hilltop, ``q`` for monodromy.
    """

    family: str
    n: int | None = None
    q: float | None = None

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown potential family {self.family!r}")
        if self.family in ("E", "T"):
            if self.n is None or self.n < 1:
                raise ValueError(f"{self.family} model requires integer n >= 1")
        elif self.family in ("dbrane", "hilltop"):
            if self.n not in (1, 2):
                raise ValueError(f"{self.family} model requires n in {{1, 2}}")
        elif self.family == "monodromy":
            if self.q is None or self.q == 0 or not (-1.0 <= self.q <= 1.0):
                raise ValueError("monodromy requires q in [-1, 1], q != 0")
        elif self.n is not None or (self.q is not None and self.family != "monodromy"):
            raise ValueError(f"{self.family} takes no parameters")

    @property
    def domain_lo(self) -> float:
        """Lower end of the admissible argument range (-1 for dbrane)."""
        return -1.0 if self.family == "dbrane" else -math.inf

    @property
    def label(self) -> str:
        if self.family in ("E", "T"):
            return f"{self.family}{self.n}"
        if self.family in ("dbrane", "hilltop"):
            return f"{self.family}{self.n}"
        if self.family == "monodromy":
            return f"monodromy:q={self.q:g}"
        return self.family


def parse_family(name: str) -> PotentialSpec:
    """Build a spec from its config-file string form.

    Accepted: ``E1``, ``E2``, ..., ``T1``, ..., ``natural``, ``axion``,
    ``dbrane1``, ``dbrane2``, ``hilltop2``, ``monodromy:q=<val>``, ``log``.
    """
    name = name.strip()
    if name in ("natural", "axion", "log"):
        return PotentialSpec(name)
    for fam in ("E", "T", "dbrane", "hilltop"):
        if name.startswith(fam) and name[len(fam):].isdigit():
            return PotentialSpec(fam, n=int(name[len(fam):]))
    if name.startswith("monodromy:q="):
        try:
            q = float(name[len("monodromy:q="):])
        except ValueError:
            raise ValueError(f"bad monodromy parameter in {name!r}") from None
        return PotentialSpec("monodromy", q=q)
    raise ValueError(f"unrecognized potential name {name!r}")


def check_domain(spec: PotentialSpec, v) -> None:
    """Refuse arguments at or below the family's domain edge ``domain_lo``."""
    if np.any(v <= spec.domain_lo):
        raise DomainViolation(f"{spec.family} potential requires v > {spec.domain_lo:g}")


def _omexp(s: np.ndarray) -> np.ndarray:
    # 1 - e^{-s}, accurate near 0
    return -np.expm1(-s)


def _ipow(x: np.ndarray, k: int):
    # small integer powers by squaring; avoids libm pow() in solver hot loops
    if k == 0:
        return np.ones_like(x)
    out = None
    base = x
    while k:
        if k & 1:
            out = base if out is None else out * base
        k >>= 1
        if k:
            base = base * base
    return out


def eval_F(spec: PotentialSpec, s) -> float | np.ndarray:
    """Potential value F(s); exact closed form per family."""
    s = np.asarray(s, dtype=float)
    fam = spec.family
    if fam == "E":
        out = _ipow(_omexp(s), 2 * spec.n)
    elif fam == "T":
        out = _ipow(np.tanh(s), 2 * spec.n)
    elif fam == "natural":
        # 2 sin^2(s/2) = 1 - cos(s) without cancellation near 0
        half = np.sin(0.5 * s)
        out = 2.0 * half * half
    elif fam == "axion":
        half = np.sin(0.5 * s)
        out = -2.0 * half * half
    elif fam == "dbrane":
        check_domain(spec, s)
        out = 1.0 - 1.0 / _ipow(1.0 + s, 2 * spec.n) - 2.0 * spec.n * s
    elif fam == "hilltop":
        out = -_ipow(s, 2 * spec.n)
    elif fam == "monodromy":
        # ((1+s^2)^{q/2} - 1)/q via expm1 for accuracy near 0
        out = np.expm1(0.5 * spec.q * np.log1p(s * s)) / spec.q
    else:  # log
        out = 0.5 * np.log1p(s * s)
    return float(out) if out.ndim == 0 else out


def eval_f(spec: PotentialSpec, s) -> float | np.ndarray:
    """Force f = F'(s), hand-derived closed form."""
    s = np.asarray(s, dtype=float)
    fam = spec.family
    n = spec.n
    if fam == "E":
        out = 2.0 * n * _ipow(_omexp(s), 2 * n - 1) * np.exp(-s)
    elif fam == "T":
        th = np.tanh(s)
        out = 2.0 * n * _ipow(th, 2 * n - 1) * (1.0 - th * th)
    elif fam == "natural":
        out = np.sin(s)
    elif fam == "axion":
        out = -np.sin(s)
    elif fam == "dbrane":
        check_domain(spec, s)
        out = 2.0 * n * (1.0 / _ipow(1.0 + s, 2 * n + 1) - 1.0)
    elif fam == "hilltop":
        out = -2.0 * n * _ipow(s, 2 * n - 1)
    elif fam == "monodromy":
        out = s * (1.0 + s * s) ** (0.5 * spec.q - 1.0)
    else:  # log
        out = s / (1.0 + s * s)
    return float(out) if out.ndim == 0 else out


def eval_fprime(spec: PotentialSpec, s) -> float | np.ndarray:
    """Second derivative F''(s), hand-derived closed form."""
    s = np.asarray(s, dtype=float)
    fam = spec.family
    n = spec.n
    if fam == "E":
        e = np.exp(-s)
        g = _omexp(s)
        out = 2.0 * n * e * _ipow(g, 2 * n - 2) * ((2 * n - 1) * e - g)
    elif fam == "T":
        th = np.tanh(s)
        sech2 = 1.0 - th * th
        out = 2.0 * n * _ipow(th, 2 * n - 2) * sech2 * ((2 * n - 1) * sech2 - 2.0 * th * th)
    elif fam == "natural":
        out = np.cos(s)
    elif fam == "axion":
        out = -np.cos(s)
    elif fam == "dbrane":
        check_domain(spec, s)
        out = -2.0 * n * (2 * n + 1) / _ipow(1.0 + s, 2 * n + 2)
    elif fam == "hilltop":
        out = -2.0 * n * (2 * n - 1) * _ipow(s, 2 * n - 2)
    elif fam == "monodromy":
        out = (1.0 + s * s) ** (0.5 * spec.q - 2.0) * (1.0 + (spec.q - 1.0) * s * s)
    else:  # log
        s2 = s * s
        out = (1.0 - s2) / (1.0 + s2) ** 2
    return float(out) if out.ndim == 0 else out


def dbrane_virial_closed_form(n: int, v) -> float | np.ndarray:
    """Closed form of 2F - v f for the renormalized dbrane family."""
    if n not in (1, 2):
        raise ValueError("dbrane closed form requires n in {1, 2}")
    v = np.asarray(v, dtype=float)
    check_domain(PotentialSpec("dbrane", n=n), v)
    if n == 1:
        out = -2.0 * v**3 * (v + 2.0) / (1.0 + v) ** 3
    else:
        out = -2.0 * v**3 * (10.0 + 15.0 * v + 9.0 * v * v + 2.0 * v**3) / (1.0 + v) ** 5
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# audits


def _clip_interval(spec: PotentialSpec, lo: float, hi: float) -> tuple[float, float]:
    # stay away from the dbrane pole at v = -1
    lo_eff = max(lo, spec.domain_lo + 0.1)
    if not -math.inf < lo_eff < hi < math.inf:
        raise ValueError(f"empty or unbounded audit interval [{lo}, {hi}] for {spec.label}")
    return lo_eff, hi


def virial_sign_margin(spec: PotentialSpec, interval: tuple[float, float],
                       n_samples: int = 10_000) -> float:
    """min over samples of 2 F(s) - s f(s); >= 0 is the defocusing virial sign.

    It is the audit's ``virial_sign_min``, so a window on which the potential
    overflows is refused (ValueError) as the audit refuses it."""
    return audit_potential(spec, interval, n_samples=n_samples).virial_sign_min


def quartic_flatness_constant(spec: PotentialSpec, delta: float,
                              n_samples: int = 10_000) -> float:
    """sup over (-delta, delta) \\ {0} of s f(s) / s^4.

    Returns ``math.inf`` when the sampled condition 0 <= s f(s) <= C s^4 is
    violated: either s f(s) < 0 somewhere, or the ratio grows without bound
    as s -> 0 (probed on a log-spaced mesh down to 1e-8 * delta).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    lo, hi = _clip_interval(spec, -delta, delta)
    lin = np.linspace(lo, hi, n_samples)
    # log-spaced probes of the s -> 0 limit, mirrored about the origin
    mag = np.geomspace(1e-8 * delta, delta, 200)
    pts = np.concatenate([lin, mag, np.maximum(-mag, lo + 0.0)])
    pts = pts[pts != 0.0]
    sf = pts * eval_f(spec, pts)
    if np.min(sf) < -SIGN_TOL:
        return math.inf
    ratio = sf / pts**4
    near = np.abs(pts) <= 1e-4 * delta
    if np.any(near) and np.max(ratio[near]) > _DIVERGENCE_CAP:
        return math.inf
    return float(np.max(ratio))


@dataclass(frozen=True)
class PotentialAuditReport:
    """Sampled certificates for one potential family.

    ``interval`` is the wide window used for the global (any data size)
    hypotheses; ``delta`` bounds the local window used for the small-data
    hypotheses. ``quartic_constant`` is ``inf`` when flatness is violated;
    ``to_dict`` writes it as strict JSON (``json_dict``).  A wide window on
    which the potential overflows is refused, so every other field is finite.
    """

    label: str
    interval: tuple[float, float]
    delta: float
    n_samples: int
    sample_spacing: float
    local_spacing: float
    virial_sign_min: float
    local_sign_min: float
    potential_min: float
    quartic_constant: float
    lipschitz_bound: float
    defocusing_min: float
    theorem_class: str = field(default="None")

    @property
    def quartic_bounded(self) -> bool:
        return math.isfinite(self.quartic_constant)

    def to_dict(self) -> dict:
        return json_dict(self)


def json_dict(record) -> dict:
    """``asdict(record)`` with the floats strict JSON has no literal for
    spelled out: an infinity as ``"unbounded"``, NaN as ``None``."""
    out = asdict(record)
    for key, val in out.items():
        if isinstance(val, float) and math.isinf(val):
            out[key] = "unbounded"
        elif isinstance(val, float) and math.isnan(val):
            out[key] = None
    return out


def audit_potential(spec: PotentialSpec, interval: tuple[float, float] = (-10.0, 10.0),
                    n_samples: int = 10_000) -> PotentialAuditReport:
    """Run every audit and classify which decay theorem the family satisfies.

    F, f and f' are evaluated once on the wide window and F and f once on the
    local one (-1, 1); every extremum is read from those samples.  Refuses
    (ValueError) a wide window on which F, f or f' overflows: one non-finite
    sample would decide every sampled extremum."""
    delta = 1.0     # the local window (-delta, delta) of the small-data hypotheses
    lo, hi = _clip_interval(spec, interval[0], interval[1])
    llo, lhi = _clip_interval(spec, -delta, delta)
    if n_samples < 2:
        raise ValueError("need n_samples >= 2")
    s_glob = np.linspace(lo, hi, n_samples)
    with np.errstate(all="ignore"):
        values = {"F": eval_F(spec, s_glob), "f": eval_f(spec, s_glob),
                  "f'": eval_fprime(spec, s_glob)}
    bad = ~np.logical_and.reduce([np.isfinite(v) for v in values.values()])
    if bad.any():
        i = int(np.argmax(bad))
        names = ", ".join(name for name, v in values.items() if not np.isfinite(v[i]))
        raise ValueError(f"{spec.label}: {names} not finite at s = {s_glob[i]:g} "
                         f"on the audit interval [{lo:g}, {hi:g}]")
    s_loc = np.linspace(llo, lhi, n_samples)
    sf_loc = s_loc * eval_f(spec, s_loc)
    report = PotentialAuditReport(
        label=spec.label,
        interval=(lo, hi),
        delta=delta,
        n_samples=n_samples,
        sample_spacing=(hi - lo) / (n_samples - 1),
        local_spacing=(lhi - llo) / (n_samples - 1),
        virial_sign_min=float(np.min(2.0 * values["F"] - s_glob * values["f"])),
        local_sign_min=float(np.min(2.0 * eval_F(spec, s_loc) - sf_loc)),
        potential_min=float(np.min(values["F"])),
        quartic_constant=quartic_flatness_constant(spec, delta, n_samples),
        lipschitz_bound=float(np.max(np.abs(values["f'"]))),
        defocusing_min=float(np.min(sf_loc)),
    )
    return replace(report, theorem_class=classify_theorem(report))


def classify_theorem(report: PotentialAuditReport) -> str:
    """Map audit results to the decay-theorem hypothesis table.

    Thm1 (any data size): F >= 0, 2F - sf >= 0 on the wide window, f' bounded.
    Thm2-flatness (small data): 0 <= s f(s) <= C s^4 near the origin.
    Thm2-sign (small data): 2F - sf >= 0 near the origin.
    """
    if (report.virial_sign_min >= -SIGN_TOL
            and report.potential_min >= -SIGN_TOL
            and math.isfinite(report.lipschitz_bound)):
        return "Thm1"
    if report.quartic_bounded and report.defocusing_min >= -SIGN_TOL:
        return "Thm2-flatness"
    if report.local_sign_min >= -SIGN_TOL:
        return "Thm2-sign"
    return "None"


# expected coarse theorem class of every catalogued family (the audit gates)
EXPECTED_CLASS = {
    "T1": "Thm1", "monodromy:q=-1": "Thm1", "monodromy:q=-0.5": "Thm1",
    "monodromy:q=0.5": "Thm1", "monodromy:q=1": "Thm1", "log": "Thm1",
    "E2": "Thm2", "E3": "Thm2", "T2": "Thm2", "natural": "Thm2", "hilltop2": "Thm2",
    "E1": "None", "axion": "None", "dbrane1": "None", "dbrane2": "None",
}


def coarse_class(theorem_class: str) -> str:
    """Collapse Thm2-flatness / Thm2-sign to Thm2 for table comparison."""
    return "Thm2" if theorem_class.startswith("Thm2") else theorem_class
