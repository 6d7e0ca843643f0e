"""Uniform radial mesh, composite-Simpson quadrature, virial weight tables
and the energies evaluated on field snapshots.

The Simpson node weights and the virial weight tables depend on the grid
alone and are built once per grid, so every quadrature is a dot product.

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

from .potentials import PotentialSpec, eval_F

__all__ = [
    "RadialGrid",
    "WeightTables",
    "integrate",
    "integrate_range",
    "energy_density",
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
    def weights(self) -> "WeightTables":
        return WeightTables.build(self)


@dataclass(frozen=True)
class WeightTables:
    """Per-node closed-form virial weights and rate coefficients.

    psi      = r^2 / (1+r)              and its derivative psi'
    w_sob    = r^2 / (1+r)^4            (weighted-Sobolev density)
    i_grad   = r^2 / (1+r)^2            phi_r^2 coefficient of I_rate
    i_mass   = r(r+4) / (2(1+r)^4)      phi^2 coefficient of I_rate
    rt_mass  = 2r(3r-2) / (1+r)^6       phi^2 coefficient of Rt_rate
    """

    psi: np.ndarray
    psi_p: np.ndarray
    w_sob: np.ndarray
    r_sq: np.ndarray
    i_grad: np.ndarray
    i_mass: np.ndarray
    rt_mass: np.ndarray

    @classmethod
    def build(cls, grid: RadialGrid) -> "WeightTables":
        r = grid.r
        op = 1.0 + r
        return cls(
            psi=r * r / op,
            psi_p=r * (r + 2.0) / op**2,
            w_sob=r * r / op**4,
            r_sq=r * r,
            i_grad=(r / op) ** 2,
            i_mass=r * (r + 4.0) / (2.0 * op**4),
            rt_mass=2.0 * r * (3.0 * r - 2.0) / op**6,
        )


def integrate(samples: np.ndarray, grid: RadialGrid) -> float:
    """Composite Simpson over [0, r_max]; O(dr^4) for smooth integrands."""
    samples = np.asarray(samples)
    if samples.shape != (grid.n_nodes,):
        raise ValueError(f"expected {grid.n_nodes} samples, got {samples.shape}")
    return float(grid.simpson @ samples)


def integrate_range(samples: np.ndarray, grid: RadialGrid, j_lo: int, j_hi: int) -> float:
    """Quadrature of samples over nodes [j_lo, j_hi].

    Simpson when the cell count is even; otherwise one leading trapezoid
    cell plus Simpson on the remainder (local O(dr^2) in that one cell).
    """
    samples = np.asarray(samples)
    if samples.shape != (grid.n_nodes,):
        raise ValueError(f"expected {grid.n_nodes} samples, got {samples.shape}")
    j_lo = max(0, j_lo)
    j_hi = min(grid.n_cells, j_hi)
    if j_hi <= j_lo:
        return 0.0
    total = 0.0
    if (j_hi - j_lo) % 2:
        total += 0.5 * grid.dr * (samples[j_lo] + samples[j_lo + 1])
        j_lo += 1
        if j_hi == j_lo:
            return total
    weights = grid.simpson[:j_hi - j_lo + 1].copy()     # the rule restarted at j_lo
    weights[-1] = grid.simpson[0]
    return total + float(weights @ samples[j_lo:j_hi + 1])


def energy_density(state, hubble: float, t: float, grid: RadialGrid,
                   spec: PotentialSpec | None, *,
                   potential: np.ndarray | None = None) -> np.ndarray:
    """Node values of r^2 (phi_t^2/2 + phi_r^2/(2 e^{2Ht}) + F): the energy
    integrand; ``potential``, if given, is F(phi) already evaluated."""
    damp = np.exp(-2.0 * hubble * t)
    dens = 0.5 * state.phi_t**2 + 0.5 * damp * state.phi_r**2
    if spec is not None:
        dens = dens + (eval_F(spec, state.phi) if potential is None else potential)
    return grid.weights.r_sq * dens


def energy(density: np.ndarray, grid: RadialGrid) -> float:
    """Total energy 4*pi * integral of an ``energy_density`` array."""
    return FOUR_PI * float(grid.simpson @ density)


def ball_energy(density: np.ndarray, R: float, grid: RadialGrid) -> float:
    """Energy restricted to the ball r <= R (nearest node below R)."""
    j_hi = int(np.floor(R / grid.dr + 1e-9))
    return FOUR_PI * integrate_range(density, grid, 0, j_hi)


def exterior_cone_energy(density: np.ndarray, t: float, b: float,
                         grid: RadialGrid) -> float:
    """Energy restricted to the light-cone exterior r > (1+b) t."""
    edge = (1.0 + b) * t
    j_lo = 0 if edge <= 0.0 else int(np.floor(edge / grid.dr)) + 1
    return FOUR_PI * integrate_range(density, grid, j_lo, grid.n_cells)
