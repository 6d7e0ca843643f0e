import numpy as np
import pytest
from hypothesis import settings

from inflaton.experiments import run_scenario, thm3_suite
from inflaton.grid import RadialGrid

from refinement_runs import virial_consistency_scenario

settings.register_profile("suite", deadline=None, max_examples=50,
                          derandomize=True)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def small_grid():
    return RadialGrid(20.0, 256)


@pytest.fixture(scope="session")
def virial_run():
    """Short tanh-model run shared by the rate-consistency tests."""
    return run_scenario(virial_consistency_scenario(n_cells=1024, t_end=10.0))


@pytest.fixture(scope="session")
def thm3_run():
    """Expanding-background run shared by dissipation/J tests."""
    return run_scenario(thm3_suite(t_end=10.0)[0])


def gaussian_state(grid: RadialGrid, amplitude: float = 1.0, width: float = 1.0):
    """Analytic snapshot: phi = phi_t = a exp(-(r/w)^2) with exact phi_r.

    Derivatives are closed-form, so quadrature tests are not polluted by
    finite differencing.
    """
    from types import SimpleNamespace

    r = grid.r
    phi = amplitude * np.exp(-((r / width) ** 2))
    phi_r = -2.0 * r / width**2 * phi
    return SimpleNamespace(t=0.0, phi=phi, phi_t=phi.copy(), phi_r=phi_r)
