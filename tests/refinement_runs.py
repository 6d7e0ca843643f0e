"""Refinement runs of the acceptance criteria: the virial-consistency
scenario that C07 refines (and the shared ``virial_run`` fixture runs
short), and the convergence study of C04, which fits the observed order of
the free-translation error and of the energy drift.  Not a test module:
pytest does not collect it.
"""

from dataclasses import dataclass

import numpy as np

from inflaton.dynamics import SolverConfig, bump_profile, evolve, initial_state
from inflaton.experiments import Scenario, run_scenario
from inflaton.grid import RadialGrid
from inflaton.potentials import PotentialSpec


def virial_consistency_scenario(n_cells: int = 4096, t_end: float = 20.0) -> Scenario:
    """Committed run for rate-vs-finite-difference checks.

    output_every is fixed so the sampling interval (2 dr) scales with dr and
    the centered-difference truncation refines together with the mesh; the
    fourth-order composition keeps the time error below it.
    """
    return Scenario(name=f"virial-consistency-{n_cells}",
                    spec=PotentialSpec("T", n=1), amplitude=1.0, center=6.0,
                    width=2.0, velocity="outgoing", r_max=40.0,
                    n_cells=n_cells, t_end=t_end, cfl=0.5, space_order=4,
                    output_every=4, scheme="leapfrog4", mode="exploratory")


@dataclass
class ConvergenceReport:
    levels: list[int]
    dalembert_errors: list[float]
    energy_drifts: list[float]
    dalembert_order: float
    energy_order: float


def _fit_order(drs: np.ndarray, errs: np.ndarray) -> float:
    return float(np.polyfit(np.log(drs), np.log(np.maximum(errs, 1e-300)), 1)[0])


def _dalembert_error(n_cells: int) -> float:
    """L2 error of the free right-moving pulse (centre 12, width 3, order-2
    stencil at cfl 0.5) against its exact translate at t = 5."""
    grid = RadialGrid(40.0, n_cells)
    state0 = initial_state(grid, 1.0, 12.0, 3.0, velocity="outgoing")
    final = evolve(state0, SolverConfig(t_end=5.0, output_every=10**9), None, grid)
    shifted = grid.r - 5.0
    exact = shifted * bump_profile(shifted, 1.0, 12.0, 3.0)
    return float(np.sqrt(grid.dr * np.sum((final.u - exact) ** 2)))


def _energy_drift(n_cells: int) -> float:
    """|E(T) - E(0)| / |E(0)| of an outgoing T1 pulse over T = 10 (order-2
    stencil, RK4 at cfl 0.5)."""
    result = run_scenario(Scenario(
        name=f"convergence-base-n{n_cells}", spec=PotentialSpec("T", n=1), amplitude=1.0,
        center=6.0, width=2.0, velocity="outgoing", r_max=40.0, n_cells=n_cells,
        t_end=10.0, cfl=0.5, space_order=2, output_every=10**9, mode="exploratory"))
    e0 = result.samples[0].E
    eT = result.samples[-1].E
    return abs(eT - e0) / abs(e0)


def run_convergence_study(levels: list[int]) -> ConvergenceReport:
    """Refinement study at the given n_cells levels of r_max = 40 (dt scales
    with dr).

    Fits the observed order of both the free-translation error and the
    H=0 energy-conservation drift.
    """
    if len(levels) < 2:
        raise ValueError("need at least two refinement levels")
    if len(set(levels)) != len(levels):
        raise ValueError("refinement levels must be distinct")
    levels = sorted(levels)
    dal_errors = [_dalembert_error(n) for n in levels]
    drifts = [_energy_drift(n) for n in levels]
    drs = 40.0 / np.array(levels)
    return ConvergenceReport(
        levels=list(levels),
        dalembert_errors=dal_errors,
        energy_drifts=drifts,
        dalembert_order=_fit_order(drs, np.array(dal_errors)),
        energy_order=_fit_order(drs, np.array(drifts)),
    )
