"""Canned decay scenarios: reproducible runs that turn the qualitative
decay statements into pass/fail verdicts at desk scale.

Verdict thresholds are regression baselines committed per mode, not
claims with proven rates: the underlying statements are limits as
t -> infinity, so each finite-horizon threshold was fixed once from a
baseline run and is kept as a guard against regressions.  Verdicts never
extrapolate beyond the horizon; the integrability-saturation statistic is
the proxy for time-integrability of the weighted norms.

Committed suites use bumps with outgoing initial velocity (a radiating
pulse).  Data at rest split into an ingoing half that focuses through the
origin; the focusing spike phi(0,t)^2 is physical, but it excites the
origin flux in dI/dt and breaks pointwise monotonicity of I, so the
monotonicity regressions are stated for the radiating family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .dynamics import (SCHEMES, SPACE_ORDERS, FieldState, NonFiniteField,
                       SolverConfig, StiffnessViolation, SupportOverflow, Workspace,
                       evolve, initial_state, resolve_dt)
from .grid import RadialGrid
from .potentials import (DomainViolation, PotentialSpec, audit_potential,
                         coarse_class, eval_fprime, json_dict, parse_family,
                         EXPECTED_CLASS, SIGN_TOL)
from .virials import VirialSample, sample_diagnostics

__all__ = [
    "Scenario",
    "DecayVerdict",
    "ScenarioResult",
    "ScenarioClassError",
    "run_scenario",
    "run_potential_audit_suite",
    "thm1_suite",
    "thm2_suite",
    "thm3_suite",
    "energy_conservation_scenario",
]

I_MONOTONE_TOL = 1e-6          # relative to max |I|
SATURATION_LIMIT = 0.05        # last-quarter share of int W dt
SUPNORM_GROWTH_LIMIT = 2.0     # small-data guard for the thm2 protocol
# live nodes per diagnostics block: run_scenario closes a block before its
# rows times its longest snapshot would pass this (a single longer snapshot
# is a block of its own), so the buffers and the views a block takes from the
# run's workspace stay this size whatever n_nodes is (BENCH_live_blocks.json)
BLOCK_NODES = 16_400

DEFAULT_THRESHOLDS = {
    "thm1": {"w_ratio": 1e-2},
    "thm2": {"w_ratio": 1e-2},
    "thm3": {"cone_ratio": 1e-3, "local_ratio": 1e-2},
    "exploratory": {},
}
# the audited theorem classes a mode admits; thm3 checks F >= 0 on the
# visited window instead, and exploratory admits any potential
_ADMITTED = {"thm1": ("Thm1",), "thm2": ("Thm2-flatness", "Thm2-sign")}
# threshold name -> (the DecayVerdict field it bounds, its failure message),
# in the order of the sweep summary's ratio columns
_GRADED_RATIOS = {"w_ratio": ("w_ratio", "w_ratio {:.3e} > {:.1e}"),
                  "local_ratio": ("local_energy_ratio", "local ratio {:.3e}"),
                  "cone_ratio": ("cone_energy_ratio", "cone ratio {:.3e}")}
# allowed values of the choice fields (SolverConfig checks the last two)
CHOICES = {"mode": tuple(DEFAULT_THRESHOLDS), "kind": ("bump", "gaussian"),
           "velocity": ("rest", "outgoing"), "space_order": SPACE_ORDERS, "scheme": SCHEMES}


class ScenarioClassError(ValueError):
    """Scenario under a theorem label its fields or its potential audit do not
    support."""


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """One reproducible run: potential + background + data + grid + horizon.

    Keyword-only.  The fields without a default (name, spec, amplitude,
    center, width, r_max, n_cells, t_end, mode) are what every run must set,
    and the required keys of a config (``cli``).  The constructor, with
    ``RadialGrid`` and ``SolverConfig``, checks every rule on the fields, the
    mode's field rules (ScenarioClassError) and the step the solver would
    take from the initial data (``resolve_dt``, CflViolation); each message
    starts with the field's name.  The mode's audit-based class checks run in
    ``run_scenario``.  A scenario is frozen: ``dataclasses.replace`` makes a
    changed copy, checked anew.  Of the diagnostics only the ball radius is a
    field: J's selector 1 + tanh(r - 2t) and the exterior cone r > 3t are
    fixed (``virials.field_records``).
    """

    name: str
    spec: PotentialSpec | None
    hubble: float = 0.0
    amplitude: float
    center: float
    width: float
    steepness: float = 1.0
    kind: str = "bump"
    velocity: str = "outgoing"
    r_max: float
    n_cells: int
    t_end: float
    cfl: float = 0.5
    space_order: int = 4
    output_every: int = 16
    scheme: str = "rk4"
    decay_radius: float = 10.0
    mode: str

    def __post_init__(self) -> None:
        grid = self.grid()
        cfg = self.solver_config()      # rejects e.g. leapfrog with space_order 4
        for name in ("mode", "kind", "velocity"):
            if getattr(self, name) not in CHOICES[name]:
                raise ValueError(f"{name}: must be one of {CHOICES[name]}")
        if not self.center >= 0:
            raise ValueError(f"center: must be >= 0, got {self.center}")
        for name in ("width", "steepness", "decay_radius"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name}: must be > 0, got {getattr(self, name)}")
        if self.spec is None and self.mode != "exploratory":
            raise ScenarioClassError(f"spec: mode {self.mode} needs a potential")
        if self.mode == "thm3" and not self.hubble > 0:
            raise ScenarioClassError(f"hubble: thm3 needs hubble > 0, got {self.hubble}")
        needed = self.center + self.width + self.t_end + 5.0 * grid.dr
        if self.r_max < needed:
            raise ValueError(
                f"r_max: grid too small for the data support plus horizon: "
                f"{self.r_max} < {needed:.3f}")
        resolve_dt(grid, cfg, self.spec, self.initial(grid))

    def grid(self) -> RadialGrid:
        """The grid every scenario with this (r_max, n_cells) shares."""
        return _shared_grid(self.r_max, self.n_cells)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(t_end=self.t_end, hubble=self.hubble, cfl=self.cfl,
                            output_every=self.output_every,
                            space_order=self.space_order, scheme=self.scheme)

    def initial(self, grid: RadialGrid) -> FieldState:
        return initial_state(grid, self.amplitude, self.center, self.width,
                             kind=self.kind, velocity=self.velocity,
                             steepness=self.steepness, space_order=self.space_order)

    def effective_thresholds(self) -> dict:
        return dict(DEFAULT_THRESHOLDS[self.mode])


@lru_cache(maxsize=8)
def _shared_grid(r_max: float, n_cells: int) -> RadialGrid:
    return RadialGrid(r_max, n_cells)


@dataclass
class DecayVerdict:
    """Scalar verdict of one run; ``passed`` means every threshold was met."""

    name: str
    mode: str
    potential: str
    theorem_class: str
    hubble: float
    w_ratio: float
    local_energy_ratio: float
    cone_energy_ratio: float
    energy_ratio: float
    monotone_I: bool
    min_I_step: float
    integrability_saturation: float
    sup_phi_initial: float
    sup_phi_max: float
    h1_initial: float
    h1_max: float
    supnorm_growth: float
    support_excess: float
    energy_nonincreasing: bool
    j_monotone: bool
    dissipation_residual_max: float | None
    fprime_quadratic_bound: float | None
    scope: str
    thresholds: dict
    passed: bool
    diagnosis: str = ""
    aborted: str | None = None

    def to_dict(self) -> dict:
        """The fields as strict JSON values (``json_dict``); a null quantity
        was not sampled."""
        return json_dict(self)


@dataclass
class ScenarioResult:
    scenario: Scenario
    verdict: DecayVerdict
    samples: list[VirialSample]


def _ratio(num: float, den: float) -> float:
    # 0/0 convention: a trivial (zero) start passes
    return 0.0 if den == 0.0 else num / den


def _uniform_prefix(ts: np.ndarray) -> int:
    """Length of the leading uniformly spaced block of sample times."""
    if len(ts) < 3:
        return len(ts)
    d0 = ts[1] - ts[0]
    diffs = np.diff(ts)
    bad = np.nonzero(np.abs(diffs - d0) > 1e-9 * max(d0, 1.0))[0]
    return len(ts) if bad.size == 0 else int(bad[0]) + 1


def dissipation_residual(ts: np.ndarray, E: np.ndarray, rate: np.ndarray,
                         hubble: float) -> float | None:
    """max over interior output times of |FD(E) - dE/dt formula| / |formula|,
    from the sampled times, energies and formula rates ``E_rate``.

    The H > 0 balance is dE/dt = -H * 4 pi int r^2 (3 phi_t^2 +
    phi_r^2 / e^{2Ht}); for H = 0 there is nothing to check.
    """
    m = _uniform_prefix(ts)
    if hubble == 0.0 or m < 3:
        return None
    E, rate = E[:m], rate[:m]
    dt = ts[1] - ts[0]
    fd = (E[2:] - E[:-2]) / (2.0 * dt)
    denom = np.abs(rate[1:-1])
    floor = 1e-12 * denom.max() if denom.max() > 0 else 1.0
    return float(np.max(np.abs(fd - rate[1:-1]) / np.maximum(denom, floor)))


def _saturation(ts: np.ndarray, w: np.ndarray) -> float:
    """Share of int W dt on the last quarter of the horizon, from the last
    sample at or before the cut on; summed directly, because the total less
    the head cancels to rounding noise once W has decayed."""
    if len(ts) < 4:
        return 0.0
    total = np.trapezoid(w, ts)
    if total <= 0.0:
        return 0.0
    cut = ts[0] + 0.75 * (ts[-1] - ts[0])
    i0 = int(np.searchsorted(ts, cut, side="right")) - 1
    return float(np.trapezoid(w[i0:], ts[i0:]) / total)


def _enforce_mode_preconditions(scn: Scenario) -> str:
    """Check the mode's audited hypotheses (the field rules are Scenario's);
    return the audited theorem class or "free".  An audit that refuses its
    window (the potential overflows on it) refuses the run with its message."""
    if scn.spec is None:        # exploratory: Scenario refuses the other modes
        return "free"
    label = scn.spec.label
    try:
        if scn.mode == "thm3":
            window = max(1.0, 2.0 * abs(scn.amplitude))
            visited = audit_potential(scn.spec, interval=(-window, window))
            if visited.potential_min < -SIGN_TOL:
                raise ScenarioClassError(
                    f"{label} has F < 0 on the visited window; thm3 needs F >= 0")
        theorem_class = audit_potential(scn.spec).theorem_class
    except ScenarioClassError:
        raise
    except ValueError as exc:
        raise ScenarioClassError(str(exc)) from None
    if scn.mode in _ADMITTED and theorem_class not in _ADMITTED[scn.mode]:
        raise ScenarioClassError(f"{label} audits as {theorem_class}, cannot run as {scn.mode}")
    return theorem_class


def run_scenario(scn: Scenario) -> ScenarioResult:
    """Evolve one scenario, collect diagnostics, and grade the verdict.

    The snapshots ``evolve`` hands out, each on its live nodes
    (``FieldState``), are buffered as they come and their diagnostics
    evaluated a block at a time (``BLOCK_NODES``), with the ball of
    ``decay_radius``, the last block once ``evolve`` returns or aborts, every
    block in the run's one ``Workspace``.
    Every abort is ``evolve``'s: it checks each snapshot, the potential's
    domain included, before it is observed, so every buffered snapshot has a
    record; a stiffness abort comes after its snapshot is observed, so the
    verdict sees the field that stopped the run."""
    theorem_class = _enforce_mode_preconditions(scn)
    grid = scn.grid()
    samples: list[VirialSample] = []
    pending: list[FieldState] = []
    width = 0       # the longest snapshot in pending
    # every block fits: B k <= BLOCK_NODES, or one snapshot of at most n_nodes
    workspace = Workspace(max(BLOCK_NODES, grid.n_nodes))

    def flush() -> None:
        nonlocal width
        samples.extend(sample_diagnostics(pending, scn.hubble, scn.spec, workspace,
                                          ball_radius=scn.decay_radius))
        pending.clear()
        width = 0

    def observer(state: FieldState) -> None:
        nonlocal width
        if pending and (len(pending) + 1) * max(width, state.u.size) > BLOCK_NODES:
            flush()
        pending.append(state)
        width = max(width, state.u.size)

    aborted: str | None = None
    try:
        evolve(scn.initial(grid), scn.solver_config(), scn.spec, grid, observer=observer)
    except (SupportOverflow, NonFiniteField, StiffnessViolation,
            DomainViolation) as exc:
        aborted = f"{type(exc).__name__}: {exc}"
    flush()

    verdict = _grade(scn, samples, aborted, theorem_class)
    return ScenarioResult(scn, verdict, samples)


def _support_excess(ts: np.ndarray, radius: np.ndarray, dr: float) -> float:
    """max over the sampled support fronts of radius - (radius0 + (t - t0) + 2 dr).

    The semigroup propagates at speed <= 1, so up to mesh effects
    support(t) <= support(t0) + (t - t0); this is how far the sampled 1e-13
    front ran beyond that bound plus the 2 dr grace.  Under RK4 the lattice
    dispersive precursor makes it positive in practice; leapfrog near
    dt = dr keeps it at or below zero (see the acceptance notes).  It is
    recorded rather than assumed.
    """
    return float(np.max(radius - (radius[0] + (ts - ts[0]) + 2.0 * dr)))


def _grade(scn: Scenario, samples: list[VirialSample], aborted: str | None,
           theorem_class: str) -> DecayVerdict:
    thresholds = scn.effective_thresholds()
    # an abort at the first snapshot leaves nothing sampled: grade one
    # all-NaN record, so every sampled quantity reads as undefined
    graded = samples or [VirialSample(*[math.nan] * len(fields(VirialSample)))]
    first, last = graded[0], graded[-1]
    ts, I, W, E, J, sup_phi, h1, support, e_rate = (
        np.array([getattr(s, name) for s in graded])
        for name in ("t", "I", "W", "E", "J", "sup_phi", "h1_norm", "support", "E_rate"))
    min_i_step = float(np.diff(I).min()) if len(I) > 1 else 0.0
    growth = max(_ratio(sup_phi.max(), sup_phi[0]), _ratio(h1.max(), h1[0]))

    verdict = DecayVerdict(
        name=scn.name,
        mode=scn.mode,
        potential=scn.spec.label if scn.spec is not None else "free",
        theorem_class=theorem_class,
        hubble=scn.hubble,
        w_ratio=_ratio(last.W, first.W),
        local_energy_ratio=_ratio(last.ballE, first.ballE),
        cone_energy_ratio=_ratio(last.coneE, first.coneE),
        energy_ratio=_ratio(last.E, first.E),
        monotone_I=_never_rises(-I, I_MONOTONE_TOL),
        min_I_step=min_i_step,
        integrability_saturation=_saturation(ts, W),
        sup_phi_initial=float(sup_phi[0]),
        sup_phi_max=float(sup_phi.max()),
        h1_initial=float(h1[0]),
        h1_max=float(h1.max()),
        supnorm_growth=float(growth),
        support_excess=_support_excess(ts, support, scn.grid().dr),
        energy_nonincreasing=_never_rises(E, 1e-9),
        j_monotone=_never_rises(J, 1e-9),
        dissipation_residual_max=dissipation_residual(ts, E, e_rate, scn.hubble),
        fprime_quadratic_bound=(_fprime_quadratic_bound(scn.spec)
                                if scn.mode == "thm3" else None),
        scope="outside-theorems" if scn.mode == "exploratory" else "theorem",
        thresholds=thresholds,
        passed=False,
        aborted=aborted,
    )

    failures = [aborted] if aborted else []
    for name, (verdict_field, message) in _GRADED_RATIOS.items():
        value = getattr(verdict, verdict_field)
        if name in thresholds and value > thresholds[name]:
            failures.append(message.format(value, thresholds[name]))
    if scn.mode in ("thm1", "thm2") and not verdict.monotone_I:
        failures.append(f"I not monotone (min step {min_i_step:.3e})")
    if scn.mode in ("thm1", "thm2") and verdict.integrability_saturation > SATURATION_LIMIT:
        failures.append(f"int W dt not saturated ({verdict.integrability_saturation:.3f})")
    if scn.mode == "thm2" and growth > SUPNORM_GROWTH_LIMIT:
        failures.append(f"smallness hypothesis violated: sup norms grew {growth:.2f}x")
    if scn.mode == "thm3" and not verdict.energy_nonincreasing:
        failures.append("energy increased along an H>0 run")

    verdict.passed = not failures
    verdict.diagnosis = "; ".join(failures)
    return verdict


def _never_rises(x: np.ndarray, rtol: float) -> bool:
    """No step of x rises by more than rtol times max |x|."""
    steps = np.diff(x)
    return bool(steps.size == 0 or steps.max() <= rtol * max(np.max(np.abs(x)), 1e-300))


def _fprime_quadratic_bound(spec: PotentialSpec) -> float:
    """sup over small s of |f'(s)| / s^2 (inf when f'(0) != 0)."""
    s = np.geomspace(1e-4, 0.5, 200)
    s = np.concatenate([-s[::-1], s])
    ratio = np.abs(eval_fprime(spec, s)) / s**2
    sup = float(np.max(ratio))
    return math.inf if sup > 1e6 else sup


# ---------------------------------------------------------------------------
# committed suites


def _suite_scenario(name: str, spec: PotentialSpec | None, amplitude: float,
                    t_end: float, mode: str, **overrides) -> Scenario:
    """One committed leapfrog run: an outgoing bump at centre 3, width 2,
    stepped near the magic step dt = dr (cfl 1, order-2 stencil)."""
    params = dict(name=name, spec=spec, amplitude=amplitude, center=3.0, width=2.0,
                  t_end=t_end, mode=mode, scheme="leapfrog", space_order=2, cfl=1.0)
    if mode == "thm3":
        # dense outputs: the dissipation-balance check differentiates E(t)
        # across output samples, and its truncation error scales with the
        # sampling interval squared
        params.update(hubble=1.0, r_max=30.0, n_cells=4096, output_every=1)
    else:
        params.update(r_max=max(40.0, math.ceil(t_end + 10.0)), n_cells=2048, output_every=8)
    params.update(overrides)
    return Scenario(**params)


def thm1_suite(t_end: float = 100.0) -> list[Scenario]:
    """Committed large-data suite: T1, monodromy q in {+-1, +-1/2}, log.

    The T1 member uses a width-1 pulse: its spectral content sits above the
    mass gap, so nothing lingers at the origin and I stays monotone.  Wide
    large-amplitude T1 data instead trap a long-lived origin oscillon (the
    tanh^2 plateau self-traps); that regime is reachable through the
    exploratory config and documented in the README, but it does not decay
    on a T=100 horizon and is not a regression baseline.
    """
    specs = [PotentialSpec("T", n=1),
             PotentialSpec("monodromy", q=-1.0),
             PotentialSpec("monodromy", q=-0.5),
             PotentialSpec("monodromy", q=0.5),
             PotentialSpec("monodromy", q=1.0),
             PotentialSpec("log")]
    amps = {"log": 5.0, "T1": 1.0}
    widths = {"T1": 1.0}
    return [_suite_scenario(f"thm1-{s.label}", s, amps.get(s.label, 1.0),
                            t_end, "thm1", width=widths.get(s.label, 2.0))
            for s in specs]


def thm2_suite(t_end: float = 100.0) -> list[Scenario]:
    """Committed small-data suite: E2, E3, T2, natural, hilltop2 at amplitude 0.05."""
    specs = [PotentialSpec("E", n=2), PotentialSpec("E", n=3),
             PotentialSpec("T", n=2), PotentialSpec("natural"),
             PotentialSpec("hilltop", n=2)]
    return [_suite_scenario(f"thm2-{s.label}", s, 0.05, t_end, "thm2")
            for s in specs]


def thm3_suite(t_end: float = 20.0) -> list[Scenario]:
    """Committed expanding-background suite: T1 at H = 1, b = 2."""
    return [_suite_scenario("thm3-T1", PotentialSpec("T", n=1), 0.1, t_end, "thm3")]


def energy_conservation_scenario() -> Scenario:
    """The committed H=0 conservation run: drift <= 1e-6 over T=50.

    Sixth-order stencils and leapfrog4 at cfl=0.5 (below its bound 0.64 dr,
    where the support front outruns the light cone); the measured drift is
    1.4e-7, set by the stencil: orders 2 and 4 give 2.3e-4 and 1.4e-6.
    """
    return Scenario(name="energy-conservation", spec=PotentialSpec("T", n=1),
                    amplitude=2.0, center=3.0, width=2.0, velocity="rest",
                    r_max=80.0, n_cells=4096, t_end=50.0, cfl=0.5,
                    space_order=6, output_every=256, scheme="leapfrog4",
                    mode="exploratory")


# ---------------------------------------------------------------------------
# audit suite


def run_potential_audit_suite(n_samples: int = 10_000) -> dict:
    """Audit every catalogued family and compare with the expected table.

    Returns {"reports": {label: report}, "mismatches": [...]}.
    """
    reports = {}
    mismatches = []
    for label, expected in EXPECTED_CLASS.items():
        report = audit_potential(parse_family(label), n_samples=n_samples)
        reports[label] = report
        if coarse_class(report.theorem_class) != expected:
            mismatches.append((label, expected, report.theorem_class))
    return {"reports": reports, "mismatches": mismatches}
