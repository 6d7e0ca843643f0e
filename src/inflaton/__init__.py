"""Radial scalar-field simulator and virial diagnostics for damped wave
equations on expanding (de Sitter) backgrounds.

Layout:
    potentials   closed-form potential catalogue + hypothesis audits
    grid         radial mesh, Simpson weights, virial weight tables, energies
    dynamics     u = r*phi method-of-lines integrator (RK4 on orders 2/4/6,
                 leapfrog on order 2, its fourth-order composition at H = 0)
                 and the one time-step rule, resolve_dt
    virials      diagnostics record as one weighted reduction per snapshot
    experiments  canned decay scenarios with pass/fail verdicts
    cli          JSON-config command line front end
"""

from .potentials import (PotentialSpec, PotentialAuditReport, parse_family,
                         eval_F, eval_f, eval_fprime, audit_potential,
                         classify_theorem)
from .grid import (RadialGrid, integrate, energy, ball_energy, exterior_cone_energy)
from .dynamics import (FieldState, SolverConfig, bump_profile, gaussian_profile,
                       initial_state, rhs, evolve, resolve_dt, support_radius)
from .virials import VirialSample, sample_diagnostics
from .experiments import (Scenario, DecayVerdict, run_scenario,
                          run_potential_audit_suite)

__version__ = "0.1.0"
