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
    "eval_F_and_f",
    "eval_fprime",
    "quartic_flatness_constant",
    "audit_potential",
    "classify_theorem",
    "EXPECTED_CLASS",
]

_FAMILIES = ("E", "T", "natural", "axion", "dbrane", "hilltop", "monodromy", "log")
# the one parameter a family takes; the others take none
_PARAMETER = {"E": "n", "T": "n", "dbrane": "n", "hilltop": "n", "monodromy": "q"}

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

    ``n`` is required for E/T/dbrane/hilltop, ``q`` for monodromy; a family
    refuses the parameter it does not take.
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
        for name in ("n", "q"):
            if name != _PARAMETER.get(self.family) and getattr(self, name) is not None:
                raise ValueError(f"{self.family} takes no parameter {name}")

    @property
    def domain_lo(self) -> float:
        """Lower end of the admissible argument range (-1 for dbrane)."""
        return -1.0 if self.family == "dbrane" else -math.inf

    @property
    def label(self) -> str:
        if self.n is not None:
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


def _ipow(x: np.ndarray, k: int, out: np.ndarray | None = None,
          sq: np.ndarray | None = None):
    """x^k by squaring (avoids libm pow() in solver hot loops), the products
    in one order whatever the buffers: x itself for k = 1, else written into
    ``out``, with ``sq`` holding the squares once a product has begun (new
    arrays where they are None; neither may be x)."""
    if k < 2:
        return x if k else np.ones_like(x)
    res = None
    base = x
    while True:
        if k & 1:
            res = base if res is None else np.multiply(res, base, out=out)
        k >>= 1
        if not k:
            return res
        base = np.multiply(base, base, out=out if res is None else sq)


# Each family's F and f is written once below, as ufunc calls into the
# arrays ``out``, ``a`` and ``sq`` of s's shape; where they are None every
# call makes a new array, which is what eval_F and eval_f do, and
# eval_F_and_f hands in a diagnostics block's buffers.  The results are the
# same bit for bit either way.


def _shared(spec: PotentialSpec, s, out=None):
    """The transcendental F and f of E and T share: 1 - e^{-s} (as -expm1(-s),
    accurate near 0) or tanh s."""
    if spec.family == "E":
        return np.negative(np.expm1(np.negative(s, out=out), out=out), out=out)
    return np.tanh(s, out=out)


def _F(spec: PotentialSpec, s, out=None, a=None, sq=None):
    fam, n = spec.family, spec.n
    if fam in ("E", "T"):
        return _ipow(_shared(spec, s, a), 2 * n, out, sq)
    if fam in ("natural", "axion"):
        # +-2 sin^2(s/2) = +-(1 - cos(s)) without cancellation near 0
        half = np.sin(np.multiply(0.5, s, out=a), out=a)
        return np.multiply(np.multiply(2.0 if fam == "natural" else -2.0, half, out=out),
                           half, out=out)
    if fam == "dbrane":
        check_domain(spec, s)
        inv = np.divide(1.0, _ipow(np.add(1.0, s, out=a), 2 * n, out, sq), out=out)
        return np.subtract(np.subtract(1.0, inv, out=out),
                           np.multiply(2.0 * n, s, out=a), out=out)
    if fam == "hilltop":
        return np.negative(_ipow(s, 2 * n, out, a), out=out)
    square = np.multiply(s, s, out=out)
    if fam == "monodromy":
        # ((1+s^2)^{q/2} - 1)/q via expm1 for accuracy near 0
        lg = np.log1p(square, out=out)
        return np.divide(np.expm1(np.multiply(0.5 * spec.q, lg, out=out), out=out),
                         spec.q, out=out)
    return np.multiply(0.5, np.log1p(square, out=out), out=out)    # log


def _f_of_shared(spec: PotentialSpec, s, g, out=None, a=None, sq=None):
    """f of E or T from their shared transcendental g, formed in ``a``."""
    n = spec.n
    head = np.multiply(2.0 * n, _ipow(g, 2 * n - 1, out, sq), out=out)
    if spec.family == "E":
        tail = np.exp(np.negative(s, out=a), out=a)                   # e^{-s}
    else:
        tail = np.subtract(1.0, np.multiply(g, g, out=a), out=a)      # 1 - tanh^2
    return np.multiply(head, tail, out=out)


def _f(spec: PotentialSpec, s, out=None, a=None, sq=None):
    fam, n = spec.family, spec.n
    if fam in ("E", "T"):
        return _f_of_shared(spec, s, _shared(spec, s, a), out, a, sq)
    if fam == "natural":
        return np.sin(s, out=out)
    if fam == "axion":
        return np.negative(np.sin(s, out=out), out=out)
    if fam == "dbrane":
        check_domain(spec, s)
        inv = np.divide(1.0, _ipow(np.add(1.0, s, out=a), 2 * n + 1, out, sq), out=out)
        return np.multiply(2.0 * n, np.subtract(inv, 1.0, out=out), out=out)
    if fam == "hilltop":
        return np.multiply(-2.0 * n, _ipow(s, 2 * n - 1, out, a), out=out)
    # 1 + s^2, then s (1+s^2)^{q/2 - 1} (monodromy) or s / (1+s^2) (log)
    base = np.add(1.0, np.multiply(s, s, out=out), out=out)
    if fam == "monodromy":
        base **= 0.5 * spec.q - 1.0
        return np.multiply(s, base, out=out)
    return np.divide(s, base, out=out)


def eval_F(spec: PotentialSpec, s) -> float | np.ndarray:
    """Potential value F(s); exact closed form per family."""
    out = _F(spec, np.asarray(s, dtype=float))
    return float(out) if out.ndim == 0 else out


def eval_f(spec: PotentialSpec, s) -> float | np.ndarray:
    """Force f = F'(s), hand-derived closed form."""
    out = _f(spec, np.asarray(s, dtype=float))
    return float(out) if out.ndim == 0 else out


def eval_F_and_f(spec: PotentialSpec, s: np.ndarray,
                 work: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """F and f of an array, bit for bit ``eval_F`` and ``eval_f``; E and T
    evaluate the transcendental the two share once.  ``work``, four arrays
    of s's shape (new arrays if None), receives F, f and the intermediates:
    F and f are its first two."""
    s = np.asarray(s, dtype=float)
    F, f, a, sq = (None,) * 4 if work is None else work
    if spec.family in ("E", "T"):
        g = _shared(spec, s, a)
        return _ipow(g, 2 * spec.n, F, sq), _f_of_shared(spec, s, g, f, a, sq)
    return _F(spec, s, F, a, sq), _f(spec, s, f, a, sq)


def eval_fprime(spec: PotentialSpec, s) -> float | np.ndarray:
    """Second derivative F''(s), hand-derived closed form."""
    s = np.asarray(s, dtype=float)
    fam = spec.family
    n = spec.n
    if fam == "E":
        e = np.exp(-s)
        g = _shared(spec, s)
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


# ---------------------------------------------------------------------------
# audits


def _clip_interval(spec: PotentialSpec, lo: float, hi: float) -> tuple[float, float]:
    # stay away from the dbrane pole at v = -1
    lo_eff = max(lo, spec.domain_lo + 0.1)
    if not -math.inf < lo_eff < hi < math.inf:
        raise ValueError(f"empty or unbounded audit interval [{lo}, {hi}] for {spec.label}")
    return lo_eff, hi


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
    local one (-1, 1); ``quartic_flatness_constant`` evaluates f again on the
    same local points and on 400 probes toward 0, so an audit makes three
    ``eval_f`` calls, two on the local window.  Every extremum is read from
    those samples.  Refuses (ValueError) a wide window on which F, f or f'
    overflows: one non-finite sample would decide every sampled extremum."""
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
