"""Method-of-lines evolution of the damped radial wave equation

    phi_tt + 3 H phi_t - e^{-2Ht} (phi_rr + (2/r) phi_r) + f(phi) = 0

integrated as u = r * phi, which turns the radial Laplacian into a plain
second derivative ((r phi)_rr / r) and removes the origin singularity:

    u_tt = e^{-2Ht} u_rr - 3 H u_t - r f(u / r),  u(0) = u(r_max) = 0.

Spatial derivatives are centered differences of selectable order (2, 4, 6);
the substitution u(-r) = -u(r) supplies exact ghost values at the origin.
The interior rows of the order-4 and order-6 second derivative are one
``np.convolve`` pass, which adds the taps from the first input node to the
last: on u at order 6 and on u reversed at order 4, each the direction of its
written sum, so the rows are those sums bit for bit (``tests/stencil_oracle.py``).
It would swap its arguments on fewer nodes than taps; no input has under 17.
The outer Dirichlet row is only valid while the support stays away from
r_max, which ``evolve`` enforces (abort, not absorbing layers -- absorbing
boundaries would contaminate the virial diagnostics).

Three time schemes are offered.  ``"rk4"`` (the default) is classical RK4
on any stencil order and any H >= 0, with four force evaluations per step.
``"leapfrog"`` is kick-drift-kick leapfrog (velocity Verlet) on the
three-point stencil, for any H >= 0, with one force evaluation per step.
With v+ = (u^{n+1} - u^n) / dt and v- = (u^n - u^{n-1}) / dt it is

    v+ (1 + m^2 dt^2/4 + 3H dt/2) = v- (1 + m^2 dt^2/4 - 3H dt/2) + dt A_n,
    A_n = e^{-2H t_n} D2 u^n - r f(u^n / r),

with the Hubble friction centred on (v+ + v-)/2 and the linear mass
m^2 = max(0, f'(0)) weighted as (u^{n+1} + 2u^n + u^{n-1})/4; the velocity
at the integer time level is (v+ + v-)/2.  For u_tt = u_rr it is exact on
the lattice at dt = dr (the CFL "magic" time step): its numerical domain
of dependence is the physical light cone, so the 1e-13 support front shows
no dispersive precursor.  ``"leapfrog4"`` composes that step as the
symmetric "triple jump" w1 dt, w0 dt, w1 dt, w1 = 1/(2 - 2^{1/3}),
w0 = -2^{1/3} w1 (Yoshida, Phys. Lett. A 150 (1990) 262): fourth order in
time, any stencil order, three force evaluations per step, H = 0 only (the
negative substep would run the friction backwards).  It fills the quiet
tail ahead of the front with slow subnormals, so each composed step
flushes entries of u, u_t and the carried acceleration below the smallest
normal double to 0, as a hardware flush-to-zero mode would.

One stability bound covers every scheme.  The leapfrogs' weighted mass
adds no stiffness, the rest of the potential does: with
L = max(0, sup f' - m^2) over the visited field range (max(0, sup f') for
RK4, which has no implicit mass), von Neumann stability needs

    dt <= cfl* dr,   cfl* = beta / sqrt(rho_p + L dr^2),

with rho_p = 4, 16/3, 272/45 the symbol maximum of the order-2, 4, 6
stencil and beta = 2 (leapfrog), 1.5734 (leapfrog4), 2 sqrt 2 (RK4) the
scheme's stability interval; leapfrog at order 2 has cfl* =
1 / sqrt(1 + L dr^2 / 4).  The wave speed e^{-Ht} <= 1 and the friction
keep the bound at H > 0.  L is taken over +-2 sup|phi(0)|.  The leapfrogs
step at min(cfl dr, 0.99995 cfl* dr) and refuse (CflViolation) a bound
below half of cfl dr, on stiff data orders of magnitude below; RK4 steps
at cfl dr and refuses a cfl dr above its bound.  ``resolve_dt`` is that
one step rule: ``evolve`` takes its step from it, and ``Scenario`` applies
it to its initial data when it is built, so a run with a step it cannot
take is refused before anything runs.  Every scheme aborts
(StiffnessViolation) once sup|phi| at a snapshot widens the window so far
that the step exceeds the new bound; that snapshot is observed first.

``evolve`` steps only the active window [0, m) of the grid, the nodes the
field has reached.  Its invariant: every node at or beyond m - pad is
exactly 0 in u, u_t and the carried leapfrog acceleration.  One step moves
the last nonzero node of those arrays by at most its reach, order/2 for
each stencil application the step chains: 2 * order/2 for RK4 (a1 feeds
the u-argument of a3 through v2, and a3 feeds v4), order/2 for leapfrog
and 3 * order/2 for the three substeps of leapfrog4.  Every RECHECK = 16
steps m is reset to pad nodes past the last nonzero node, with
pad = RECHECK * reach + order/2: over one recheck interval the nonzero set
stays clear of the window's last order/2 rows and of the stencil inputs
behind them, so the one-sided outer rows and the Dirichlet zeroing at the
window's end only ever see zeros, and every nonzero node is computed from
the same operands as on the whole grid.  The states match the whole-grid
loop bit for bit, up to the sign of some zeros, and the force is evaluated
as often.  Once m reaches n_nodes the same loop runs on the whole grid.
The checks at each snapshot read the window: finiteness and sup|phi| over
it, the support overflow over its nodes within 4 dr of r_max, which stay
0 until the window reaches them, and, for a potential with a domain edge,
phi over it against that edge; snapshots, which span the whole grid, are
built only for an observer, and each carries its window's extent as its
``live`` nodes.  ``FieldState.prefix`` cuts a snapshot to the nodes its
phi, phi_t and phi_r can be nonzero on, ``block_fields`` builds those
three of a block of prefixes, and ``support_radius`` their 1e-13 front,
for the diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .grid import RadialGrid
from .potentials import PotentialSpec, check_domain, eval_f, eval_fprime

__all__ = [
    "CflViolation",
    "SupportOverflow",
    "NonFiniteField",
    "StiffnessViolation",
    "SolverConfig",
    "FieldState",
    "Prefix",
    "bump_profile",
    "gaussian_profile",
    "initial_state",
    "block_fields",
    "support_radius",
    "stiffness_cfl",
    "linear_mass",
    "resolve_dt",
    "rhs",
    "evolve",
]

SUPPORT_THRESHOLD = 1e-13
SCHEMES = ("rk4", "leapfrog", "leapfrog4")
SPACE_ORDERS = (2, 4, 6)
# the default leapfrog step stays this fraction below its stability bound
LEAPFROG_SAFETY = 0.99995
# triple-jump substep weights of leapfrog4
W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
W0 = -(2.0 ** (1.0 / 3.0)) * W1
# beta: each scheme's stability interval (leapfrog4's to k dt = 1.57340)
STABILITY = {"rk4": 2.0 * math.sqrt(2.0), "leapfrog": 2.0, "leapfrog4": 1.5734}
# rho_p: symbol maximum of the order-p second-derivative stencil
SYMBOL_MAX = {2: 4.0, 4: 16.0 / 3.0, 6: 272.0 / 45.0}
# entries below the smallest normal double are flushed after a leapfrog4 step
TINY = np.finfo(float).tiny
# steps between two placements of the active window (module docstring)
RECHECK = 16


class CflViolation(ValueError):
    """The step rule admits no stable step for the initial data; the run is
    refused."""


class SupportOverflow(RuntimeError):
    """Field support reached the outer boundary; results would be corrupted."""


class NonFiniteField(RuntimeError):
    """NaN/Inf appeared in the evolved field."""


class StiffnessViolation(RuntimeError):
    """The field left the range its step was sized for, and the fixed step
    now exceeds the stability bound cfl* dr of the wider range."""


@dataclass
class SolverConfig:
    """Evolution parameters.

    ``scheme`` is ``"rk4"`` (any stencil order, any H >= 0), ``"leapfrog"``
    (the order-2 stencil only, any H >= 0) or ``"leapfrog4"`` (any stencil
    order, H = 0 only); see the module docstring.  Every step satisfies
    dt <= cfl * dr and the scheme's stability bound dt <= cfl* dr
    (``resolve_dt``).
    """

    t_end: float
    hubble: float = 0.0
    cfl: float = 0.5
    output_every: int = 1
    space_order: int = 2
    scheme: str = "rk4"

    def __post_init__(self) -> None:
        # each message starts with the field it is about
        if not self.t_end >= 0:
            raise ValueError(f"t_end: must be >= 0, got {self.t_end}")
        if not self.hubble >= 0:
            raise ValueError(f"hubble: must be nonnegative, got {self.hubble}")
        if not 0 < self.cfl <= 1:
            raise ValueError(f"cfl: must lie in (0, 1], got {self.cfl}")
        if self.output_every < 1:
            raise ValueError(f"output_every: must be >= 1, got {self.output_every}")
        if self.space_order not in SPACE_ORDERS:
            raise ValueError(f"space_order: must be one of {SPACE_ORDERS}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme: must be one of {SCHEMES}, got {self.scheme!r}")
        if self.scheme == "leapfrog" and self.space_order != 2:
            raise ValueError("space_order: leapfrog needs space_order 2")
        if self.scheme == "leapfrog4" and self.hubble != 0:
            raise ValueError(f"hubble: leapfrog4 needs hubble 0, got {self.hubble}")


def linear_mass(spec: PotentialSpec | None) -> float:
    """m^2 = max(0, f'(0)), the part of the force the leapfrogs weight over
    three time levels instead of taking it explicitly."""
    if spec is None:
        return 0.0
    return max(0.0, float(eval_fprime(spec, 0.0)))


def stiffness_cfl(spec: PotentialSpec | None, half_width: float, dr: float,
                  scheme: str = "leapfrog", order: int = 2) -> float:
    """Stability limit cfl* = beta / sqrt(rho_p + L dr^2) of ``scheme`` on the
    order-``order`` stencil; L = max(0, sup f' - m^2) with f' sampled over
    [-half_width, half_width], clipped to the family's domain, and
    m^2 = ``linear_mass(spec)`` for the leapfrogs, 0 for RK4."""
    stiffness = 0.0
    if spec is not None:
        lo = max(-half_width, spec.domain_lo + 0.1)
        fprime = eval_fprime(spec, np.linspace(lo, half_width, 2001))
        mass2 = 0.0 if scheme == "rk4" else linear_mass(spec)
        stiffness = max(0.0, float(np.max(fprime)) - mass2)
    return STABILITY[scheme] / math.sqrt(SYMBOL_MAX[order] + stiffness * dr * dr)


# ---------------------------------------------------------------------------
# stencils (u odd about r=0: ghost u[-k] = -u[k])
_D2_TAPS4 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0])
_D2_TAPS6 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0])


def _second_derivative(u: np.ndarray, dr: float, order: int) -> np.ndarray:
    out = np.zeros_like(u)
    h2 = dr * dr
    if order == 2:
        out[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h2
        return out
    if order == 4:
        out[2:-2] = np.convolve(u[::-1], _D2_TAPS4, "valid")[::-1] / (12.0 * h2)
        out[1] = (-u[3] + 16.0 * u[2] - 29.0 * u[1] + 16.0 * u[0]) / (12.0 * h2)
    else:
        out[3:-3] = np.convolve(u, _D2_TAPS6, "valid") / (180.0 * h2)
        out[1] = (-2.0 * u[2] + 27.0 * u[1] + 270.0 * u[0] - 490.0 * u[1]
                  + 270.0 * u[2] - 27.0 * u[3] + 2.0 * u[4]) / (180.0 * h2)
        out[2] = (-2.0 * u[1] - 27.0 * u[0] + 270.0 * u[1] - 490.0 * u[2]
                  + 270.0 * u[3] - 27.0 * u[4] + 2.0 * u[5]) / (180.0 * h2)
        out[-3] = (-u[-1] + 16.0 * u[-2] - 30.0 * u[-3] + 16.0 * u[-4] - u[-5]) / (12.0 * h2)
    out[-2] = (u[-1] - 2.0 * u[-2] + u[-3]) / h2
    return out


def _first_derivative(u: np.ndarray, dr: float, order: int) -> np.ndarray:
    """Radial derivative along the last axis, so a (B, k) block of rows is
    differentiated row by row; the origin row, which no caller reads, is 0."""
    out = np.empty_like(u)
    out[..., 0] = 0.0
    if order == 2:
        out[..., 1:-1] = (u[..., 2:] - u[..., :-2]) / (2.0 * dr)
    elif order == 4:
        out[..., 2:-2] = (u[..., :-4] - 8.0 * u[..., 1:-3] + 8.0 * u[..., 3:-1]
                          - u[..., 4:]) / (12.0 * dr)
        out[..., 1] = (-u[..., 1] - 8.0 * u[..., 0] + 8.0 * u[..., 2] - u[..., 3]) / (12.0 * dr)
        out[..., -2] = (u[..., -1] - u[..., -3]) / (2.0 * dr)
    else:
        out[..., 3:-3] = (-u[..., :-6] + 9.0 * u[..., 1:-5] - 45.0 * u[..., 2:-4]
                          + 45.0 * u[..., 4:-2] - 9.0 * u[..., 5:-1] + u[..., 6:]) / (60.0 * dr)
        out[..., 1] = (u[..., 2] - 9.0 * u[..., 1] - 45.0 * u[..., 0] + 45.0 * u[..., 2]
                       - 9.0 * u[..., 3] + u[..., 4]) / (60.0 * dr)
        out[..., 2] = (u[..., 1] + 9.0 * u[..., 0] - 45.0 * u[..., 1] + 45.0 * u[..., 3]
                       - 9.0 * u[..., 4] + u[..., 5]) / (60.0 * dr)
        out[..., -3] = (u[..., -5] - 8.0 * u[..., -4] + 8.0 * u[..., -2]
                        - u[..., -1]) / (12.0 * dr)
        out[..., -2] = (u[..., -1] - u[..., -3]) / (2.0 * dr)
    out[..., -1] = (3.0 * u[..., -1] - 4.0 * u[..., -2] + u[..., -3]) / (2.0 * dr)
    return out


# ---------------------------------------------------------------------------
# state


@dataclass(eq=False)
class FieldState:
    """Snapshot (t, u, u_t) on a grid; u = r * phi.

    Invariants: u and u_t vanish at r = 0 and r_max (origin regularity, outer
    Dirichlet), and at every node from ``live`` on when it is given (None:
    not known; ``evolve`` gives its active window).
    The point values phi(0), phi_t(0) are reconstructed by quadratic
    extrapolation; the dynamics itself never divides by r = 0.
    """

    t: float
    u: np.ndarray
    u_t: np.ndarray
    grid: RadialGrid
    space_order: int = 2
    live: int | None = None

    def __post_init__(self) -> None:
        if self.u.shape != (self.grid.n_nodes,) or self.u_t.shape != (self.grid.n_nodes,):
            raise ValueError("field arrays must match the grid")

    @cached_property
    def phi(self) -> np.ndarray:
        return _over_r(self.u, self.grid.r_inv)

    @cached_property
    def phi_t(self) -> np.ndarray:
        return _over_r(self.u_t, self.grid.r_inv)

    @cached_property
    def phi_r(self) -> np.ndarray:
        return _radial_derivative(self.u, self.phi, self.grid, self.space_order)

    def prefix(self) -> Prefix:
        """Copies of u and u_t on the first k nodes: with every node from L + 1
        on 0 (L from ``live``, else from a scan), k = L + order + 3, at most
        n_nodes.  The order/2 nodes the derivative reaches past L keep
        interior stencil rows, which read order/2 nodes further, and the
        one-sided rows at the end of the prefix, which read at most five nodes
        back, see only 0, so phi, phi_t and phi_r of the prefix are the
        snapshot's own on those nodes."""
        last = self.live - 1 if self.live is not None else _last_nonzero((self.u, self.u_t))
        k = min(self.grid.n_nodes, last + self.space_order + 3)
        return Prefix(self.t, self.u[:k].copy(), self.u_t[:k].copy(), self.grid,
                      self.space_order)


@dataclass(frozen=True, eq=False)
class Prefix:
    """A snapshot on the nodes [0, k) past which its phi, phi_t and phi_r are
    0 (``FieldState.prefix``): its time, u and u_t on them, grid and stencil
    order."""

    t: float
    u: np.ndarray
    u_t: np.ndarray
    grid: RadialGrid
    space_order: int


def _over_r(values: np.ndarray, r_inv: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """values / r along the last axis; the point value at r = 0 by quadratic
    extrapolation.  ``out`` (may be ``values``) receives the result."""
    out = np.multiply(values, r_inv[:values.shape[-1]], out=out)
    nodes = out.T       # the node index first, for one snapshot or a block
    nodes[0] = 3.0 * nodes[1] - 3.0 * nodes[2] + nodes[3]
    return out


def _radial_derivative(u: np.ndarray, phi: np.ndarray, grid: RadialGrid,
                       order: int) -> np.ndarray:
    """phi_r = (u_r - phi) / r along the last axis, 0 at r = 0."""
    out = _first_derivative(u, grid.dr, order)      # its origin row is 0
    out[..., 1:] -= phi[..., 1:]
    out[..., 1:] *= grid.r_inv[1:u.shape[-1]]
    return out


def block_fields(states) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi, phi_t and phi_r of a block of snapshots on one grid and stencil
    order, or of their prefixes (``FieldState.prefix``), as (B, k) arrays on
    the widest prefix [0, k): every row equals the snapshot's own ``phi``,
    ``phi_t`` and ``phi_r`` on those nodes, and both are 0 beyond them."""
    heads = [s if isinstance(s, Prefix) else s.prefix() for s in states]
    grid, order = heads[0].grid, heads[0].space_order
    if any(h.grid != grid or h.space_order != order for h in heads):
        raise ValueError("a block holds snapshots of one grid and stencil order")
    k = max(h.u.size for h in heads)
    u, u_t = np.zeros((len(heads), k)), np.zeros((len(heads), k))
    for row, row_t, head in zip(u, u_t, heads):
        row[:head.u.size] = head.u
        row_t[:head.u.size] = head.u_t
    phi = _over_r(u, grid.r_inv)
    phi_t = _over_r(u_t, grid.r_inv, out=u_t)
    return phi, phi_t, _radial_derivative(u, phi, grid, order)


def support_radius(phi: np.ndarray, phi_t: np.ndarray, grid: RadialGrid):
    """The 1e-13 front: the largest r_j where |phi| or |phi_t| exceeds the
    threshold (0 if none), of the node values of a prefix of the grid (0
    beyond it), or of each row of a (B, k) block of them."""
    mask = (np.abs(phi) > SUPPORT_THRESHOLD) | (np.abs(phi_t) > SUPPORT_THRESHOLD)
    last = mask.shape[-1] - 1 - np.argmax(mask[..., ::-1], axis=-1)
    radius = np.where(mask.any(axis=-1), grid.r[last], 0.0)
    return float(radius) if radius.ndim == 0 else radius


# ---------------------------------------------------------------------------
# initial data


def bump_profile(r: np.ndarray, amplitude: float, center: float, width: float,
                 steepness: float = 1.0) -> np.ndarray:
    """Smooth bump supported exactly on |r - center| < width, peak = amplitude."""
    x = (np.asarray(r, dtype=float) - center) / width
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    out[inside] = amplitude * np.exp(steepness * (1.0 - 1.0 / (1.0 - x[inside] ** 2)))
    return out


def gaussian_profile(r: np.ndarray, amplitude: float, center: float,
                     width: float) -> np.ndarray:
    """Gaussian pulse; compactly supported only up to machine precision."""
    x = (np.asarray(r, dtype=float) - center) / width
    return amplitude * np.exp(-x * x)


def initial_state(grid: RadialGrid, amplitude: float, center: float, width: float,
                  kind: str = "bump", velocity: str = "rest", steepness: float = 1.0,
                  space_order: int = 2) -> FieldState:
    """Build t=0 data: phi = profile, phi_t per the velocity mode.

    velocity "rest" sets phi_t = 0; "outgoing" sets u_t = -u_r, which for
    profiles supported away from the origin launches a right-moving pulse.
    """
    if kind == "bump":
        phi = bump_profile(grid.r, amplitude, center, width, steepness)
    elif kind == "gaussian":
        phi = gaussian_profile(grid.r, amplitude, center, width)
    else:
        raise ValueError(f"unknown profile kind {kind!r}")
    u = grid.r * phi
    if velocity == "rest":
        u_t = np.zeros_like(u)
    elif velocity == "outgoing":
        u_t = -_first_derivative(u, grid.dr, space_order)
    else:
        raise ValueError(f"unknown velocity mode {velocity!r}")
    u[0] = u[-1] = 0.0
    u_t[0] = u_t[-1] = 0.0
    return FieldState(0.0, u, u_t, grid, space_order)


# ---------------------------------------------------------------------------
# evolution


def rhs(state: FieldState, hubble: float, spec: PotentialSpec | None,
        grid: RadialGrid) -> tuple[np.ndarray, np.ndarray]:
    """Semi-discrete right-hand side (du, du_t) at the state's own time."""
    return state.u_t.copy(), _accel(state.u, state.u_t, state.t, hubble, spec, grid,
                                    state.space_order)


def _accel(u: np.ndarray, u_t: np.ndarray | None, t: float, hubble: float,
           spec: PotentialSpec | None, grid: RadialGrid, order: int) -> np.ndarray:
    """u_tt of the semi-discrete system on the first u.size nodes of the
    grid, with a Dirichlet row at the last; u_t is read only when hubble > 0,
    and u_t = None leaves out the friction -3H u_t (the leapfrog centres it
    itself)."""
    du_t = _second_derivative(u, grid.dr, order)
    if hubble:
        du_t *= np.exp(-2.0 * hubble * t)
        if u_t is not None:
            du_t -= 3.0 * hubble * u_t
    if spec is not None:
        m = u.size
        du_t -= grid.r[:m] * eval_f(spec, u * grid.r_inv[:m])
    du_t[0] = 0.0
    du_t[-1] = 0.0
    return du_t


def _sup_phi(state: FieldState) -> float:
    return float(np.max(np.abs(state.phi)))


def resolve_dt(grid: RadialGrid, cfg: SolverConfig, spec: PotentialSpec | None,
               state: FieldState) -> float:
    """Time-step ceiling of a run from ``state``: cfl * dr, for the leapfrogs
    at most 0.99995 of the stability bound; refuses an RK4 cfl * dr above
    the bound, and a leapfrog or leapfrog4 cfl * dr above twice it.  Each
    message starts with the field it is about."""
    limit = cfg.cfl * grid.dr
    stable = stiffness_cfl(spec, 2.0 * _sup_phi(state), grid.dr, cfg.scheme,
                           cfg.space_order) * grid.dr
    if not stable > 0.0:
        raise CflViolation("cfl: the potential's stiffness on the visited window "
                           f"admits no positive {cfg.scheme} step")
    if limit > (1.0 if cfg.scheme == "rk4" else 2.0) * stable:
        over = "its" if cfg.scheme == "rk4" else "twice its"
        raise CflViolation(
            f"cfl: the {cfg.scheme} step cfl*dr = {limit:.6g} exceeds {over} stability "
            f"bound cfl* dr = {stable:.6g}; admissible dt <= {stable:.6g}")
    return limit if cfg.scheme == "rk4" else min(limit, LEAPFROG_SAFETY * stable)


def _reach(scheme: str, order: int) -> int:
    """Nodes by which one step can move the last nonzero node of u, u_t and
    the carried acceleration: order/2 per chained stencil application."""
    return {"rk4": 2, "leapfrog": 1, "leapfrog4": 3}[scheme] * (order // 2)


def _last_nonzero(arrays) -> int:
    """Index of the last nonzero entry over ``arrays`` (-1 if all are 0)."""
    return max(int(idx[-1]) if idx.size else -1 for idx in map(np.flatnonzero, arrays))


def _fit(values: np.ndarray, size: int) -> np.ndarray:
    """A new array of ``size`` entries: ``values`` cut or extended by zeros."""
    out = np.zeros(size)
    keep = min(size, values.size)
    out[:keep] = values[:keep]
    return out


def _rk4(u: np.ndarray, u_t: np.ndarray, t: float, dt: float, hubble: float,
         spec: PotentialSpec | None, grid: RadialGrid,
         order: int) -> tuple[np.ndarray, np.ndarray]:
    """One classical RK4 step; the u-derivative of each stage is its velocity,
    whose boundary entries are 0 like those of u_t and of every _accel."""
    h = 0.5 * dt
    a1 = _accel(u, u_t, t, hubble, spec, grid, order)
    v2 = u_t + h * a1
    a2 = _accel(u + h * u_t, v2, t + h, hubble, spec, grid, order)
    v3 = u_t + h * a2
    a3 = _accel(u + h * v2, v3, t + h, hubble, spec, grid, order)
    v4 = u_t + dt * a3
    a4 = _accel(u + dt * v3, v4, t + dt, hubble, spec, grid, order)
    w = dt / 6.0
    un = u + w * (u_t + 2.0 * (v2 + v3) + v4)
    vn = u_t + w * (a1 + 2.0 * (a2 + a3) + a4)
    un[0] = un[-1] = 0.0
    vn[0] = vn[-1] = 0.0
    return un, vn


def _substeps(dt: float, cfg: SolverConfig,
              mass2: float) -> list[tuple[float, float, float, float, float]]:
    """(h, kick, kick_acc, land, land_acc) of each kick-drift-kick substep h of
    a leapfrog(4) step: with a = 1 + m^2 h^2/4 and b = 3H h/2,
    v+ = ((a - b) v^n + h/2 A_n) / a and v^{n+1} = (a v+ + h/2 A_{n+1}) / (a + b).
    At H = 0 without a linear mass the weights are (1, h/2, 1, h/2): plain
    velocity Verlet."""
    subs = []
    for h in (W1 * dt, W0 * dt, W1 * dt) if cfg.scheme == "leapfrog4" else (dt,):
        a = 1.0 + 0.25 * mass2 * h * h
        b = 1.5 * cfg.hubble * h
        subs.append((h, (a - b) / a, 0.5 * h / a, a / (a + b), 0.5 * h / (a + b)))
    return subs


def _kdk(u: np.ndarray, u_t: np.ndarray, acc: np.ndarray, t_new: float,
         subs: list, cfg: SolverConfig, spec: PotentialSpec | None,
         grid: RadialGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One leapfrog or leapfrog4 step ending at ``t_new``; ``acc`` is A_n at
    the start and the returned one is A_{n+1} at the end (A without the
    friction, see the module docstring).  The substeps of leapfrog4 (H = 0)
    all pass ``t_new``, which only the friction reads."""
    for h, kick, kick_acc, land, land_acc in subs:
        v = kick_acc * acc
        v += kick * u_t
        u = u + h * v
        u[0] = u[-1] = 0.0
        acc = _accel(u, None, t_new, cfg.hubble, spec, grid, cfg.space_order)
        v *= land
        v += land_acc * acc
        v[0] = v[-1] = 0.0
        u_t = v
    if len(subs) > 1:       # leapfrog4
        for values in (u, u_t, acc):
            values[np.abs(values) < TINY] = 0.0
    return u, u_t, acc


def evolve(state0: FieldState, cfg: SolverConfig, spec: PotentialSpec | None,
           grid: RadialGrid,
           observer: Callable[[FieldState], None] | None = None) -> FieldState:
    """Integrate to t0 + t_end at the step ``resolve_dt`` gives, calling
    ``observer`` on read-only snapshots every ``output_every`` steps (always
    at the start and the final step).

    Each snapshot is checked before the observer sees it: it aborts with
    NonFiniteField on NaN/Inf, with SupportOverflow once the support comes
    within 4 dr of r_max, and with DomainViolation once phi, the extrapolated
    origin value included, reaches the edge of the potential's domain
    (dbrane: v <= -1; the force raises it too, on the nodes it reads).  Then,
    looking ahead, it aborts with StiffnessViolation once sup|phi| widens the
    visited window so far that the fixed step exceeds its stability bound.
    At t_end = 0 the initial state is checked, observed and returned.
    """
    dt_max = resolve_dt(grid, cfg, spec, state0)
    n_steps = max(1, int(np.ceil(cfg.t_end / dt_max - 1e-12)))
    dt = cfg.t_end / n_steps
    if cfg.t_end == 0.0:
        n_steps = 0
    t0 = state0.t
    n = grid.n_nodes
    fields = (state0.u, state0.u_t)     # then the carried acceleration (kdk)
    # the first node within 4 dr of r_max: the support overflows once a node
    # from it on lies above the support threshold
    edge = int(np.searchsorted(grid.r, grid.r_max - 4.0 * grid.dr))

    def snapshot(k: int) -> FieldState:
        if k == 0:
            return state0
        # the window arrays end at m: every node from there on is 0
        return FieldState(t0 + k * dt, _fit(fields[0], n), _fit(fields[1], n), grid,
                          cfg.space_order, live=fields[0].size)

    kdk = cfg.scheme != "rk4"
    bounded = spec is not None and math.isfinite(spec.domain_lo)
    window = 2.0 * _sup_phi(state0)

    def check_window(t: float, u: np.ndarray) -> None:
        nonlocal window
        sup = float(np.max(np.abs(_over_r(u, grid.r_inv))))
        if sup <= 0.5 * window:
            return
        window = 2.0 * sup
        bound = stiffness_cfl(spec, window, grid.dr, cfg.scheme,
                              cfg.space_order) * grid.dr
        if dt > bound:
            raise StiffnessViolation(
                f"sup|phi|={sup:.4g} at t={t:.6g} widens the visited "
                f"window to +-{window:.4g}; there the {cfg.scheme} step dt={dt:.6g} "
                f"exceeds its stiffness bound cfl* dr = {bound:.6g}")

    def inspect(k: int) -> None:
        # nodes beyond the window are 0: the checks read the window only
        u, u_t = fields[:2]
        t = t0 + k * dt
        if not (np.isfinite(u).all() and np.isfinite(u_t).all()):
            raise NonFiniteField(f"non-finite field at t={t:.6g}")
        r_inv = grid.r_inv[edge:u.size]
        if ((np.abs(u[edge:] * r_inv) > SUPPORT_THRESHOLD).any()
                or (np.abs(u_t[edge:] * r_inv) > SUPPORT_THRESHOLD).any()):
            radius = support_radius(_over_r(u, grid.r_inv), _over_r(u_t, grid.r_inv), grid)
            raise SupportOverflow(
                f"support {radius:.4g} within 4 dr of r_max={grid.r_max:.4g} "
                f"at t={t:.6g}; enlarge the domain")
        if bounded:
            check_domain(spec, _over_r(u, grid.r_inv))
        if observer is not None:
            observer(snapshot(k))
        check_window(t, u)

    inspect(0)
    if kdk and n_steps:
        subs = _substeps(dt, cfg, linear_mass(spec))
        fields += (_accel(state0.u, None, t0, cfg.hubble, spec, grid, cfg.space_order),)
    # the active window [0, m), see the module docstring
    pad = RECHECK * _reach(cfg.scheme, cfg.space_order) + cfg.space_order // 2
    m = 0
    for k in range(1, n_steps + 1):
        if m < n and (k - 1) % RECHECK == 0:
            m = min(n, _last_nonzero(fields) + 1 + pad)
            fields = tuple(_fit(values, m) for values in fields)
        if kdk:
            fields = _kdk(*fields, t0 + k * dt, subs, cfg, spec, grid)
        else:
            fields = _rk4(*fields, t0 + (k - 1) * dt, dt, cfg.hubble, spec, grid,
                          cfg.space_order)
        if k % cfg.output_every == 0 or k == n_steps:
            inspect(k)
    return snapshot(n_steps)
