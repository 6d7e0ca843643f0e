"""Uniform radial mesh, composite-Simpson quadrature, virial weight tables
and the energies evaluated on field snapshots.

The Simpson node weights and the Simpson-weighted virial weight table
depend on the grid alone and are built once per grid, so every quadrature
is a dot product or a small matrix product.  Quadratures take the node
values of a prefix [0, k) of the grid and read the field as 0 beyond it.

All improper integrals over (0, inf) are truncated at ``r_max``; the solver
keeps the field supported away from the outer boundary (finite propagation
speed plus domain sizing), so the truncation error is set by the field's
support, not by the quadrature.

Convention: energies over 3-space carry the 4*pi angular factor; virial
functionals are plain dr-integrals on the half line.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# no caller here; benchmark/tracer.py counts potential evaluations through
# this name
from .potentials import eval_F  # noqa: F401

__all__ = [
    "RadialGrid",
    "integrate",
    "integrate_range",
    "density_from_squares",
    "energy",
    "ball_energy",
    "exterior_cone_energy",
]

FOUR_PI = 4.0 * np.pi


@dataclass(frozen=True)
class RadialGrid:
    """Nodes r_j = j * dr, j = 0..n_cells, dr = r_max / n_cells.

    ``n_cells`` must be even (composite Simpson) and >= 16.
    """

    r_max: float
    n_cells: int

    def __post_init__(self) -> None:
        if not self.r_max > 0:
            raise ValueError(f"r_max: must be > 0, got {self.r_max}")
        if self.n_cells < 16 or self.n_cells % 2:
            raise ValueError(f"n_cells: must be even and >= 16, got {self.n_cells}")

    @property
    def dr(self) -> float:
        return self.r_max / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    @cached_property
    def r(self) -> np.ndarray:
        return np.arange(self.n_nodes) * self.dr

    @cached_property
    def r_sq(self) -> np.ndarray:
        return self.r * self.r

    @cached_property
    def r_inv(self) -> np.ndarray:
        """1/r with the r=0 slot zeroed; callers never use index 0."""
        out = np.zeros(self.n_nodes)
        out[1:] = 1.0 / self.r[1:]
        return out

    @cached_property
    def simpson(self) -> np.ndarray:
        """Composite-Simpson node weights (dr/3) (1, 4, 2, 4, ..., 2, 4, 1)."""
        out = np.tile([2.0, 4.0], self.n_cells // 2 + 1)[:self.n_nodes] * (self.dr / 3.0)
        out[0] = out[-1] = self.dr / 3.0
        return out

    @cached_property
    def weights(self) -> np.ndarray:
        """Closed-form virial weights and rate coefficients, each times the
        Simpson node weight s_j, as the columns ``WEIGHT_COLUMNS`` of one
        (n_nodes, 7) array:

        psi      = r^2 / (1+r)              and its derivative psi'
        w_sob    = r^2 / (1+r)^4            (weighted-Sobolev density)
        r_sq     = r^2
        i_grad   = r^2 / (1+r)^2            phi_r^2 coefficient of I_rate
        i_mass   = r(r+4) / (2(1+r)^4)      phi^2 coefficient of I_rate
        rt_mass  = 2r(3r-2) / (1+r)^6       phi^2 coefficient of Rt_rate

        For node values g (or a prefix of them, zero beyond),
        ``g @ weights[:k]`` holds the seven quadratures int c g dr.
        """
        r = self.r
        op = 1.0 + r
        plain = (r * r / op, r * (r + 2.0) / op**2, r * r / op**4, self.r_sq, (r / op) ** 2,
                 r * (r + 4.0) / (2.0 * op**4), 2.0 * r * (3.0 * r - 2.0) / op**6)
        return np.stack(plain, axis=1) * self.simpson[:, None]


# the columns of RadialGrid.weights, in order
WEIGHT_COLUMNS = ("psi", "psi_p", "w_sob", "r_sq", "i_grad", "i_mass", "rt_mass")


def _prefix(samples, grid: RadialGrid) -> np.ndarray:
    """Node values of one prefix of the grid, or a (B, k) block of them."""
    samples = np.asarray(samples)
    if samples.ndim not in (1, 2) or samples.shape[-1] > grid.n_nodes:
        raise ValueError(f"expected at most {grid.n_nodes} samples per row, "
                         f"got {samples.shape}")
    return samples


def integrate(samples, grid: RadialGrid):
    """Composite Simpson over [0, r_max]; O(dr^4) for smooth integrands.

    ``samples`` holds the first k node values (zero beyond); a (B, k) array
    gives B integrals."""
    samples = _prefix(samples, grid)
    out = samples @ grid.simpson[:samples.shape[-1]]
    return float(out) if samples.ndim == 1 else out


def integrate_range(samples, grid: RadialGrid, j_lo: int, j_hi: int):
    """Quadrature of samples over nodes [j_lo, j_hi]; ``samples`` holds the
    first k node values (zero beyond), and a (B, k) array gives B results.

    Simpson when the cell count is even; otherwise one leading trapezoid
    cell plus Simpson on the remainder (local O(dr^2) in that one cell).
    """
    samples = _prefix(samples, grid)
    j_lo = max(0, j_lo)
    j_hi = min(grid.n_cells, j_hi)
    total = 0.0
    if j_hi > j_lo and (j_hi - j_lo) % 2:
        total += 0.5 * grid.dr * np.sum(samples[..., j_lo:j_lo + 2], axis=-1)
        j_lo += 1
    # Simpson restarted at j_lo, over the nodes of [j_lo, j_hi] in the prefix
    end = min(j_hi + 1, samples.shape[-1]) if j_hi > j_lo else j_lo
    weights = grid.simpson[:max(0, end - j_lo)]
    if j_hi > j_lo and end > j_hi:          # the rule's last node is in the prefix
        weights = weights.copy()
        weights[-1] = grid.simpson[0]
    out = total + samples[..., j_lo:max(j_lo, end)] @ weights
    return float(out) if samples.ndim == 1 else out


def density_from_squares(phi_t_sq, phi_r_sq, potential, half_damp, r_sq):
    """r^2 (phi_t^2/2 + e^{-2Ht} phi_r^2/2 + F) from the squares of phi_t and
    phi_r, F(phi) (None without a potential), e^{-2Ht}/2 and r^2."""
    dens = 0.5 * phi_t_sq + half_damp * phi_r_sq
    if potential is not None:
        dens = dens + potential
    return r_sq * dens


def energy(density, grid: RadialGrid):
    """Total energy 4*pi * integral of an energy-density array (or of each
    row of a (B, k) block of them)."""
    return FOUR_PI * integrate(density, grid)


def ball_energy(density, R: float, grid: RadialGrid):
    """Energy restricted to the ball r <= R (nearest node below R), of an
    energy-density array or of each row of a (B, k) block of them."""
    j_hi = int(np.floor(R / grid.dr + 1e-9))
    return FOUR_PI * integrate_range(density, grid, 0, j_hi)


def exterior_cone_energy(density: np.ndarray, t: float, b: float,
                         grid: RadialGrid) -> float:
    """Energy restricted to the light-cone exterior r > (1+b) t."""
    edge = (1.0 + b) * t
    j_lo = 0 if edge <= 0.0 else int(np.floor(edge / grid.dr)) + 1
    return FOUR_PI * integrate_range(density, grid, j_lo, grid.n_cells)
