"""Method-of-lines evolution of the damped radial wave equation

    phi_tt + 3 H phi_t - e^{-2Ht} (phi_rr + (2/r) phi_r) + f(phi) = 0

integrated as u = r * phi, which turns the radial Laplacian into a plain
second derivative ((r phi)_rr / r) and removes the origin singularity:

    u_tt = e^{-2Ht} u_rr - 3 H u_t - r f(u / r),  u(0) = u(r_max) = 0.

Spatial derivatives are centered differences of selectable order (2, 4, 6);
the substitution u(-r) = -u(r) supplies exact ghost values at the origin.
The interior rows of the order-4 and order-6 second derivative are one
``np.correlate`` pass, which adds the taps from the first input node to the
last: on u at order 6 and on u reversed at order 4, each the direction of its
written sum; the taps are symmetric, so correlating is convolving, and the
rows are those sums bit for bit (``tests/stencil_oracle.py``).  It would swap
its arguments on fewer nodes than taps; no input has under 17.  The rows
near the ends are Python-float sums of one list of the end nodes.
The outer Dirichlet row is only valid while the support stays away from
r_max, which ``evolve`` enforces (abort, not absorbing layers -- absorbing
boundaries would contaminate the virial diagnostics).

Three time schemes are offered.  ``"rk4"`` (the default) is classical RK4
on any stencil order and any H >= 0, with four force evaluations per step.
``"leapfrog"`` is the centred leapfrog on the three-point stencil, for any
H >= 0, with one force evaluation per step.  With v+ = (u^{n+1} - u^n) / dt
and v- = (u^n - u^{n-1}) / dt it is

    v+ (1 + m^2 dt^2/4 + 3H dt/2) = v- (1 + m^2 dt^2/4 - 3H dt/2) + dt A_n,
    A_n = e^{-2H t_n} D2 u^n - r f(u^n / r),

with the Hubble friction centred on (v+ + v-)/2 and the linear mass
m^2 = max(0, f'(0)) weighted as (u^{n+1} + 2u^n + u^{n-1})/4; the velocity
at the integer time level is (v+ + v-)/2.  It is stepped in its two-step
Stormer form (Hairer, Lubich & Wanner, Acta Numerica 12 (2003) 399), the
recurrence with a = 1 + m^2 dt^2/4 and b = 3H dt/2

    (a + b) u^{n+1} = 2a u^n - (a - b) u^{n-1} + dt^2 A_n:

one 3-tap convolution of u^n, taps [c, 2a - 2c, c] / (a + b) with
c = dt^2 e^{-2H t_n} / dr^2 (fixed per run at H = 0), less
(a - b)/(a + b) u^{n-1} (u^{n-1} itself at H = 0) and dt^2/(a + b) r f(u^n/r),
written over u^{n-1}.  The first step is the kick
v+ = ((a - b) v^0 + dt/2 A_0) / a and the drift u^1 = u^0 + dt v+ from the
initial velocity v^0; the velocity of an observed level n is
(u^{n+1} - u^{n-1}) / 2dt, which is (v+ + v-)/2, and that of the last level
N, which has no successor, the landing v^N = (a v- + dt/2 A_N) / (a + b), so
a run of N steps makes N + 1 force evaluations.  For u_tt = u_rr it is
exact on the lattice at dt = dr (the CFL "magic" time step): its numerical
domain of dependence is the physical light cone, so the 1e-13 support front
shows no dispersive precursor.  ``"leapfrog4"`` composes the kick-drift-kick
form of that step (velocity Verlet, which has no two-step form once
composed) as the symmetric "triple jump" w1 dt, w0 dt, w1 dt,
w1 = 1/(2 - 2^{1/3}), w0 = -2^{1/3} w1 (Yoshida, Phys. Lett. A 150 (1990)
262): fourth order in time, any stencil order, three force evaluations per
step, H = 0 only (the negative substep would run the friction backwards).
It fills the quiet tail ahead of the front with slow subnormals, so each
composed step flushes entries of u, u_t and the carried acceleration below
the smallest normal double to 0, as a hardware flush-to-zero mode would.

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
exactly 0 in the arrays a step reads, u and u_t for RK4, with the carried
acceleration for leapfrog4, u^{n-1} and u^n for the leapfrog.  One step
moves the last nonzero node of those arrays by at most its reach, order/2
for each stencil application the step chains: 2 * order/2 for RK4 (a1
feeds the u-argument of a3 through v2, and a3 feeds v4), order/2 for
leapfrog and 3 * order/2 for the three substeps of leapfrog4.  Every
RECHECK = 16 steps m is reset to pad nodes past the last nonzero node, with
pad = RECHECK * reach + order/2: over one recheck interval the nonzero set
stays clear of the window's last order/2 rows and of the stencil inputs
behind them, so the one-sided outer rows and the Dirichlet zeroing at the
window's end only ever see zeros, and every nonzero node is computed from
the same operands as on the whole grid.  The states match the whole-grid
loop bit for bit, up to the sign of some zeros, and the force is evaluated
as often.  Once m reaches n_nodes the same loop runs on the whole grid.
Every scheme steps views [0, m) of whole-grid copies of u and u_t and of
its work arrays in place: RK4's eight stage buffers, leapfrog4's
acceleration and work array, and the leapfrog's observed velocity, where
u^{n-1} and u^n alternate in the copies of u and u_t.  The nodes of u and
u_t past the window stay 0 (past the last nonzero node when they leave the
window, and not written outside it), and the leapfrog zeroes its velocity
past each new window, so neither a step nor a placement allocates a
window-sized array beyond the force's own and the stencil's.  The
leapfrog checks and observes snapshot n at the step that forms u^{n+1},
after the force at u^n, as the other schemes check snapshot n after the
force of the step that forms it; the last snapshot after the landing.  The
checks at each snapshot read its prefix and form phi over it once: sup|phi|
from it (a NaN or inf at a node j >= 1 reaches it; the steps hold node 0 at
0), the support overflow over its nodes within 4 dr of r_max, which stay 0
until the window reaches them, for a potential with a domain edge phi
against that edge, and the stiffness check.  The observer gets a
``Prefix``: copies of u and u_t on the nodes its phi, phi_t and phi_r can
be nonzero on, one slice each of the whole-grid arrays (of the initial
state at the start, cut after a scan of it); ``block_fields`` builds those
three of a block of prefixes, and ``support_radius`` their 1e-13 front,
for the diagnostics, both in a ``Workspace``: views of flat buffers that
a run allocates once, so a block allocates no array of its size.  Only
the returned state spans the whole grid.
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
    "Workspace",
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
# the nodes the order-4 and order-6 rows near the ends read
_END_NODES = np.array([0, 1, 2, 3, 4, 5, -5, -4, -3, -2, -1])


def _second_derivative(u: np.ndarray, dr: float, order: int,
                       out: np.ndarray | None = None) -> np.ndarray:
    """D2 u on the nodes of u, every row written into ``out`` (a new array if
    None; not u itself); the Dirichlet rows 0 and -1 are 0."""
    out = np.empty_like(u) if out is None else out
    out[0] = out[-1] = 0.0
    h2 = dr * dr
    if order == 2:
        inner = np.multiply(u[1:-1], 2.0, out=out[1:-1])
        np.subtract(u[2:], inner, out=inner)
        inner += u[:-2]
        inner /= h2
        return out
    # the rows near the ends in Python floats, from one list of the end nodes
    u0, u1, u2, u3, u4, u5, e5, e4, e3, e2, e1 = u[_END_NODES].tolist()
    if order == 4:
        np.divide(np.correlate(u[::-1], _D2_TAPS4, "valid")[::-1], 12.0 * h2, out=out[2:-2])
        out[1] = (-u3 + 16.0 * u2 - 29.0 * u1 + 16.0 * u0) / (12.0 * h2)
    else:
        np.divide(np.correlate(u, _D2_TAPS6, "valid"), 180.0 * h2, out=out[3:-3])
        out[1] = (-2.0 * u2 + 27.0 * u1 + 270.0 * u0 - 490.0 * u1
                  + 270.0 * u2 - 27.0 * u3 + 2.0 * u4) / (180.0 * h2)
        out[2] = (-2.0 * u1 - 27.0 * u0 + 270.0 * u1 - 490.0 * u2
                  + 270.0 * u3 - 27.0 * u4 + 2.0 * u5) / (180.0 * h2)
        out[-3] = (-e1 + 16.0 * e2 - 30.0 * e3 + 16.0 * e4 - e5) / (12.0 * h2)
    out[-2] = (e1 - 2.0 * e2 + e3) / h2
    return out


def _first_derivative(u: np.ndarray, dr: float, order: int, out: np.ndarray | None = None,
                      work: np.ndarray | None = None) -> np.ndarray:
    """Radial derivative along the last axis, so a (B, k) block of rows is
    differentiated row by row; the origin row, which no caller reads, is 0.
    ``out`` (C-contiguous) receives it, and ``work``, of u's shape, one
    interior term at a time (new arrays where None; neither may be u).  The
    interior formula runs once over the rows laid end to end, which needs no
    strided pass; the entries it forms across a row boundary are the edge
    rows, written after it."""
    out = np.empty(u.shape) if out is None else out
    half = order // 2
    flat = u.reshape(-1)
    inner = out.reshape(-1)[half:-half]
    term = None if work is None else work.reshape(-1)[half:-half]
    if order == 2:
        np.subtract(flat[2:], flat[:-2], out=inner)
        inner /= 2.0 * dr
    elif order == 4:
        np.subtract(flat[:-4], np.multiply(8.0, flat[1:-3], out=inner), out=inner)
        inner += np.multiply(8.0, flat[3:-1], out=term)
        inner -= flat[4:]
        inner /= 12.0 * dr
        out[..., 1] = (-u[..., 1] - 8.0 * u[..., 0] + 8.0 * u[..., 2] - u[..., 3]) / (12.0 * dr)
        out[..., -2] = (u[..., -1] - u[..., -3]) / (2.0 * dr)
    else:
        np.negative(flat[:-6], out=inner)
        inner += np.multiply(9.0, flat[1:-5], out=term)
        inner -= np.multiply(45.0, flat[2:-4], out=term)
        inner += np.multiply(45.0, flat[4:-2], out=term)
        inner -= np.multiply(9.0, flat[5:-1], out=term)
        inner += flat[6:]
        inner /= 60.0 * dr
        out[..., 1] = (u[..., 2] - 9.0 * u[..., 1] - 45.0 * u[..., 0] + 45.0 * u[..., 2]
                       - 9.0 * u[..., 3] + u[..., 4]) / (60.0 * dr)
        out[..., 2] = (u[..., 1] + 9.0 * u[..., 0] - 45.0 * u[..., 1] + 45.0 * u[..., 3]
                       - 9.0 * u[..., 4] + u[..., 5]) / (60.0 * dr)
        out[..., -3] = (u[..., -5] - 8.0 * u[..., -4] + 8.0 * u[..., -2]
                        - u[..., -1]) / (12.0 * dr)
        out[..., -2] = (u[..., -1] - u[..., -3]) / (2.0 * dr)
    out[..., 0] = 0.0
    out[..., -1] = (3.0 * u[..., -1] - 4.0 * u[..., -2] + u[..., -3]) / (2.0 * dr)
    return out


# ---------------------------------------------------------------------------
# state


@dataclass(eq=False)
class FieldState:
    """Snapshot (t, u, u_t) on a grid; u = r * phi.

    Invariants: u and u_t vanish at r = 0 and r_max (origin regularity, outer
    Dirichlet).  The point values phi(0), phi_t(0) are reconstructed by
    quadratic extrapolation; the dynamics itself never divides by r = 0.
    """

    t: float
    u: np.ndarray
    u_t: np.ndarray
    grid: RadialGrid
    space_order: int = 2

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


@dataclass(frozen=True, eq=False)
class Prefix:
    """A snapshot on the nodes [0, k) past which its phi, phi_t and phi_r are
    0: its time, its own copies of u and u_t on them, grid and stencil order.
    ``evolve`` hands one to its observer: with every node from L + 1 on 0,
    k = L + order + 3, at most n_nodes.  The order/2 nodes the derivative
    reaches past L keep interior stencil rows, which read order/2 nodes
    further, and the one-sided rows at the end of the prefix, which read at
    most five nodes back, see only 0, so phi, phi_t and phi_r of the prefix
    are the snapshot's own on those nodes."""

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


def _radial_derivative(u: np.ndarray, phi: np.ndarray, grid: RadialGrid, order: int,
                       out: np.ndarray | None = None,
                       work: np.ndarray | None = None) -> np.ndarray:
    """phi_r = (u_r - phi) / r along the last axis, 0 at r = 0, into ``out``
    through ``work`` (``_first_derivative``'s)."""
    out = _first_derivative(u, grid.dr, order, out, work)
    out -= phi
    out *= grid.r_inv[:u.shape[-1]]
    out[..., 0] = 0.0
    return out


class Workspace:
    """Flat float buffers of ``size`` entries that the (B, k) arrays of a
    diagnostics block are views of.  ``take`` hands out a C-contiguous view
    at offset 0 of the next buffer, made the first time it is needed (a bool
    view serves as a mask), and a ``with`` block on the workspace hands back,
    as it ends, the buffers taken inside it.  ``run_scenario`` keeps one for
    a run, sized for its widest block, so after the first block no
    block-sized array is allocated or freed; a shape of more than ``size``
    entries is refused (ValueError).  A view is valid until its ``with``
    block ends; buffers are not cleared, so every array taken is written in
    full."""

    def __init__(self, size: int) -> None:
        self.size = size
        self._buffers: list[np.ndarray] = []
        self._taken = 0
        self._marks: list[int] = []

    def take(self, shape: tuple[int, ...], dtype=float) -> np.ndarray:
        if self._taken == len(self._buffers):
            self._buffers.append(np.empty(self.size))
        flat = self._buffers[self._taken]
        if dtype is not float:
            flat = flat.view(dtype)
        view = flat[:math.prod(shape)].reshape(shape)
        self._taken += 1
        return view

    def __enter__(self) -> Workspace:
        self._marks.append(self._taken)
        return self

    def __exit__(self, *exc) -> None:
        self._taken = self._marks.pop()


def block_fields(heads, workspace: Workspace | None = None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi, phi_t and phi_r of a block of prefixes (``Prefix``) on one grid
    and stencil order, as (B, k) arrays on the widest prefix [0, k), taken
    from ``workspace`` (one of the block's size if None): every row equals
    its snapshot's own phi, phi_t and phi_r on those nodes, and both are 0
    beyond them."""
    grid, order = heads[0].grid, heads[0].space_order
    if any(h.grid != grid or h.space_order != order for h in heads):
        raise ValueError("a block holds snapshots of one grid and stencil order")
    shape = (len(heads), max(h.u.size for h in heads))
    ws = Workspace(math.prod(shape)) if workspace is None else workspace
    phi, phi_t, phi_r = ws.take(shape), ws.take(shape), ws.take(shape)
    with ws:
        u = ws.take(shape)
        for row, row_t, head in zip(u, phi_t, heads):
            size = head.u.size
            row[:size] = head.u
            row[size:] = 0.0
            row_t[:size] = head.u_t
            row_t[size:] = 0.0
        _over_r(u, grid.r_inv, out=phi)
        _over_r(phi_t, grid.r_inv, out=phi_t)
        _radial_derivative(u, phi, grid, order, phi_r, ws.take(shape))
    return phi, phi_t, phi_r


def support_radius(phi: np.ndarray, phi_t: np.ndarray, grid: RadialGrid,
                   workspace: Workspace | None = None):
    """The 1e-13 front: the largest r_j where |phi| or |phi_t| exceeds the
    threshold (0 if none), of the node values of a prefix of the grid (0
    beyond it), or of each row of a (B, k) block of them; its |.| arrays and
    masks are taken from ``workspace`` (one of phi's size if None)."""
    ws = Workspace(phi.size) if workspace is None else workspace
    with ws:
        mag = ws.take(phi.shape)
        mask = np.greater(np.abs(phi, out=mag), SUPPORT_THRESHOLD,
                          out=ws.take(phi.shape, bool))
        mask |= np.greater(np.abs(phi_t, out=mag), SUPPORT_THRESHOLD,
                           out=ws.take(phi.shape, bool))
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
           spec: PotentialSpec | None, grid: RadialGrid, order: int,
           out: np.ndarray | None = None) -> np.ndarray:
    """u_tt of the semi-discrete system on the first u.size nodes of the
    grid, with a Dirichlet row at the last, written into ``out`` (a new array
    if None; never u); u_t is read only when hubble > 0, and u_t = None
    leaves out the friction -3H u_t (the leapfrog centres it itself)."""
    du_t = _second_derivative(u, grid.dr, order, out)
    if hubble:
        du_t *= np.exp(-2.0 * hubble * t)
        if u_t is not None:
            du_t -= 3.0 * hubble * u_t
    if spec is not None:
        m = u.size
        force = eval_f(spec, u * grid.r_inv[:m])
        force *= grid.r[:m]
        du_t -= force
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
    """Nodes by which one step can move the last nonzero node of the arrays
    it reads (module docstring): order/2 per chained stencil application."""
    return {"rk4": 2, "leapfrog": 1, "leapfrog4": 3}[scheme] * (order // 2)


def _last_nonzero(arrays) -> int:
    """Index of the last nonzero entry over ``arrays`` (-1 if all are 0)."""
    return max(int(idx[-1]) if idx.size else -1 for idx in map(np.flatnonzero, arrays))


def _rk4(u: np.ndarray, u_t: np.ndarray, stages: np.ndarray, t: float, dt: float,
         hubble: float, spec: PotentialSpec | None, grid: RadialGrid, order: int) -> None:
    """One classical RK4 step, in place on u and u_t, through the eight rows
    of ``stages`` (their size; overwritten), in the operation order of the
    written form v2 = u_t + h a1, v3 = u_t + h a2, v4 = u_t + dt a3 (h = dt/2)
    and the updates below; the u-derivative of each stage is its velocity,
    whose boundary entries are 0 like those of u_t and of every _accel."""
    a1, a2, a3, a4, v2, v3, v4, arg = stages
    h = 0.5 * dt
    _accel(u, u_t, t, hubble, spec, grid, order, out=a1)
    np.multiply(a1, h, out=v2)
    v2 += u_t
    np.multiply(u_t, h, out=arg)
    arg += u
    _accel(arg, v2, t + h, hubble, spec, grid, order, out=a2)
    np.multiply(a2, h, out=v3)
    v3 += u_t
    np.multiply(v2, h, out=arg)
    arg += u
    _accel(arg, v3, t + h, hubble, spec, grid, order, out=a3)
    np.multiply(a3, dt, out=v4)
    v4 += u_t
    np.multiply(v3, dt, out=arg)
    arg += u
    _accel(arg, v4, t + dt, hubble, spec, grid, order, out=a4)
    w = dt / 6.0
    v2 += v3                # u += w (u_t + 2 (v2 + v3) + v4)
    v2 *= 2.0
    v2 += u_t
    v2 += v4
    v2 *= w
    u += v2
    a2 += a3                # u_t += w (a1 + 2 (a2 + a3) + a4)
    a2 *= 2.0
    a2 += a1
    a2 += a4
    a2 *= w
    u_t += a2
    u[0] = u[-1] = 0.0
    u_t[0] = u_t[-1] = 0.0


def _substeps(dt: float, mass2: float) -> list[tuple[float, float]]:
    """(h, h / 2a) of each kick-drift-kick substep h of a leapfrog4 step,
    a = 1 + m^2 h^2/4: both half kicks are v += h/2a A (at H = 0 the
    leapfrog's velocity factors (a - b)/a and a/(a + b) are 1)."""
    return [(h, 0.5 * h / (1.0 + 0.25 * mass2 * h * h)) for h in (W1 * dt, W0 * dt, W1 * dt)]


def _kdk(u: np.ndarray, u_t: np.ndarray, acc: np.ndarray, scratch: np.ndarray,
         subs: list, spec: PotentialSpec | None, grid: RadialGrid, order: int) -> None:
    """One leapfrog4 step (H = 0), in place: ``acc`` holds A_n at the start and
    A_{n+1} at the end, and ``scratch``, of their size, is overwritten."""
    for h, half in subs:
        u_t += np.multiply(acc, half, out=scratch)
        u += np.multiply(u_t, h, out=scratch)
        u[0] = u[-1] = 0.0
        _accel(u, None, 0.0, 0.0, spec, grid, order, out=acc)
        u_t += np.multiply(acc, half, out=scratch)
        u_t[0] = u_t[-1] = 0.0
    for values in (u, u_t, acc):
        values[np.abs(values, out=scratch) < TINY] = 0.0


class _Leapfrog:
    """The leapfrog of one run as its two-level recurrence (module
    docstring), with a = 1 + m^2 dt^2/4 and b = 3H dt/2.  Each method works
    on the nodes of the arrays it is given, a window [0, m) or the grid."""

    def __init__(self, dt: float, hubble: float, spec: PotentialSpec | None,
                 grid: RadialGrid) -> None:
        self.dt, self.hubble, self.spec, self.grid = dt, hubble, spec, grid
        self.a = 1.0 + 0.25 * linear_mass(spec) * dt * dt
        self.b = 1.5 * hubble * dt
        # the factor of u^{n-1}, 1 at H = 0, and the force's weights per node
        self.q = (self.a - self.b) / (self.a + self.b)
        self.weight = grid.r * (dt * dt / (self.a + self.b))
        # the taps of a step, rewritten at each step at H > 0 and fixed at H = 0
        self._taps = np.empty(3)
        self.fixed = None if hubble else self.taps(0.0)

    def taps(self, t: float) -> np.ndarray:
        """[c, 2a - 2c, c] / (a + b), c = dt^2 e^{-2Ht} / dr^2, written over
        the run's one taps array."""
        c = (self.dt / self.grid.dr) ** 2 * math.exp(-2.0 * self.hubble * t)
        s = self.a + self.b
        taps = self._taps
        taps[0] = taps[2] = c / s
        taps[1] = (2.0 * self.a - 2.0 * c) / s
        return taps

    def first(self, u: np.ndarray, u_t: np.ndarray, t: float) -> None:
        """u^1 over u_t from u^0 = u and its velocity u_t at t: the kick
        v+ = ((a - b) u_t + dt/2 A_0) / a, then the drift u^0 + dt v+."""
        acc = _accel(u, None, t, self.hubble, self.spec, self.grid, 2)
        u_t *= (self.a - self.b) / self.a
        acc *= 0.5 * self.dt / self.a
        u_t += acc
        u_t *= self.dt
        u_t += u
        u_t[0] = u_t[-1] = 0.0

    def step(self, prev: np.ndarray, cur: np.ndarray, t: float,
             vel: np.ndarray | None = None) -> None:
        """u^{n+1} over prev = u^{n-1} from cur = u^n at t = t_n: one 3-tap
        convolution of u^n, less q u^{n-1} and dt^2/(a + b) r f(u^n / r), on
        the interior rows; rows 0 and -1 keep their 0.  With ``vel``, the
        velocity v^n = (u^{n+1} - u^{n-1}) / 2dt over it too.  The taps are
        symmetric, so ``np.correlate`` forms the convolution, without
        ``np.convolve``'s argument handling."""
        if vel is not None:
            np.copyto(vel, prev)
        inner = prev[1:-1]
        if self.q != 1.0:
            inner *= self.q
        taps = self.taps(t) if self.fixed is None else self.fixed
        np.subtract(np.correlate(cur, taps, "valid"), inner, out=inner)
        if self.spec is not None:
            m = cur.size
            force = eval_f(self.spec, cur * self.grid.r_inv[:m])
            force *= self.weight[:m]
            inner -= force[1:-1]
        if vel is not None:
            np.subtract(prev, vel, out=vel)
            vel /= 2.0 * self.dt

    def land(self, u: np.ndarray, prev: np.ndarray, vel: np.ndarray, t: float) -> None:
        """The velocity of the last level u = u^N at t over vel: the landing
        v^N = (a v- + dt/2 A_N) / (a + b), v- = (u^N - u^{N-1}) / dt, with
        u^{N-1} in prev, which then holds A_N's share."""
        np.subtract(u, prev, out=vel)
        vel /= self.dt
        vel *= self.a / (self.a + self.b)
        acc = _accel(u, None, t, self.hubble, self.spec, self.grid, 2, out=prev)
        acc *= 0.5 * self.dt / (self.a + self.b)
        vel += acc
        vel[0] = vel[-1] = 0.0


def evolve(state0: FieldState, cfg: SolverConfig, spec: PotentialSpec | None,
           grid: RadialGrid,
           observer: Callable[[Prefix], None] | None = None) -> FieldState:
    """Integrate to t0 + t_end at the step ``resolve_dt`` gives, handing
    ``observer`` the ``Prefix`` of the snapshot every ``output_every`` steps
    (always at the start and the final step), and return the final state.
    ``state0`` is left as it is; each prefix and the returned state own
    their arrays.

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
    order = cfg.space_order
    # the first node within 4 dr of r_max: the support overflows once a node
    # from it on lies above the support threshold
    edge = int(np.searchsorted(grid.r, grid.r_max - 4.0 * grid.dr))
    bounded = spec is not None and math.isfinite(spec.domain_lo)
    window = 2.0 * _sup_phi(state0)

    def inspect(k: int, u: np.ndarray, u_t: np.ndarray, last: int) -> None:
        # every node past ``last`` is 0: the checks read the prefix, through
        # phi and sup|phi| formed once, and the observer gets its copies
        nonlocal window
        size = min(n, last + order + 3)
        u, u_t = u[:size], u_t[:size]
        t = t0 + k * dt
        phi = _over_r(u, grid.r_inv)
        sup = float(np.abs(phi).max())
        # a NaN or inf of u at a node j >= 1 reaches sup|phi|; the steps hold
        # node 0 at 0
        if not (math.isfinite(sup) and math.isfinite(u[0]) and np.isfinite(u_t).all()):
            raise NonFiniteField(f"non-finite field at t={t:.6g}")
        if size > edge and (
                (np.abs(phi[edge:]) > SUPPORT_THRESHOLD).any()
                or (np.abs(u_t[edge:] * grid.r_inv[edge:size]) > SUPPORT_THRESHOLD).any()):
            radius = support_radius(phi, _over_r(u_t, grid.r_inv), grid)
            raise SupportOverflow(
                f"support {radius:.4g} within 4 dr of r_max={grid.r_max:.4g} "
                f"at t={t:.6g}; enlarge the domain")
        if bounded:
            check_domain(spec, phi)
        if observer is not None:
            observer(Prefix(t, u.copy(), u_t.copy(), grid, order))
        if sup <= 0.5 * window:
            return
        window = 2.0 * sup
        bound = stiffness_cfl(spec, window, grid.dr, cfg.scheme, order) * grid.dr
        if dt > bound:
            raise StiffnessViolation(
                f"sup|phi|={sup:.4g} at t={t:.6g} widens the visited "
                f"window to +-{window:.4g}; there the {cfg.scheme} step dt={dt:.6g} "
                f"exceeds its stiffness bound cfl* dr = {bound:.6g}")

    inspect(0, state0.u, state0.u_t, _last_nonzero((state0.u, state0.u_t)))
    if n_steps == 0:
        return state0
    # whole-grid copies of u and u_t and the scheme's work arrays; each step
    # works on their views [0, m), past which u and u_t stay 0
    u, u_t = state0.u.copy(), state0.u_t.copy()
    if cfg.scheme == "rk4":
        whole = (u, u_t, np.empty((8, n)))
    elif cfg.scheme == "leapfrog4":
        subs = _substeps(dt, linear_mass(spec))
        whole = (u, u_t, _accel(u, None, t0, 0.0, spec, grid, order), np.empty(n))
    else:
        # u^k lands in whole[k % 2] over u^{k-2} (u_t is the velocity of u^0
        # until u^1 replaces it); whole[2] holds the observed velocity
        leapfrog = _Leapfrog(dt, cfg.hubble, spec, grid)
        whole = (u, u_t, np.zeros(n))
    live = whole[:3] if cfg.scheme == "leapfrog4" else whole[:2]
    # the active window [0, m), see the module docstring
    pad = RECHECK * _reach(cfg.scheme, order) + order // 2
    m = 0
    for k in range(1, n_steps + 1):
        if m < n and (k - 1) % RECHECK == 0:
            m = min(n, _last_nonzero(live) + 1 + pad)
            views = [values[..., :m] for values in whole]
            if cfg.scheme == "leapfrog":
                # a window that shrinks leaves no stale velocity behind it
                whole[2][m:] = 0.0
        t = t0 + (k - 1) * dt
        if cfg.scheme != "leapfrog":
            if cfg.scheme == "rk4":
                _rk4(*views, t, dt, cfg.hubble, spec, grid, order)
            else:
                _kdk(*views, subs, spec, grid, order)
            if k % cfg.output_every == 0 or k == n_steps:
                inspect(k, u, u_t, m - 1)
        elif k == 1:
            leapfrog.first(*views[:2], t)
        else:
            # snapshot k - 1 is observed once u^k exists
            observed = (k - 1) % cfg.output_every == 0
            leapfrog.step(views[k % 2], views[(k - 1) % 2], t, views[2] if observed else None)
            if observed:
                inspect(k - 1, whole[(k - 1) % 2], whole[2], m - 1)
    t_end = t0 + n_steps * dt
    if cfg.scheme == "leapfrog":
        u, vel = whole[n_steps % 2], whole[2]
        leapfrog.land(views[n_steps % 2], views[(n_steps - 1) % 2], views[2], t_end)
        inspect(n_steps, u, vel, m - 1)
        return FieldState(t_end, u, vel, grid, order)
    return FieldState(t_end, u, u_t, grid, order)
