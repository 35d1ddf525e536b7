"""Periodic within-host viral dynamics with Crowley-Martin incidence.

Simulation of the four-compartment (T, E, I, V) model under sinusoidal
birth, death, and infection rates; the virus-free periodic solution; the
periodic basic reproduction number via monodromy spectral analysis; and
endemic periodic orbits by Newton shooting on the Poincare map.
"""

from .model import (
    ModelParameters,
    SinusoidalCoefficient,
    State,
    Trajectory,
    incidence,
    jacobian,
    rhs,
    vector_field,
)
from .integrate import (
    IntegrationError,
    IntegratorConfig,
    NonFiniteState,
    Solution,
    StepLimitExceeded,
    integrate,
    integrate_matrix,
)
from .periodic import (
    ConvergedToBoundary,
    DegenerateDecay,
    NewtonDiverged,
    PeriodicOrbit,
    VirusFreeSolution,
    find_periodic_orbit,
    floquet_multipliers,
    poincare_map,
    virus_free_closed_form,
    virus_free_numeric,
    warm_start_guess,
)
from .reproduction import (
    BracketFailure,
    LinearizedSystem,
    R0Result,
    build_linearization,
    r0_autonomous,
    r0_periodic,
    rho_for_lambda,
)
from .analysis import (
    ClassificationReport,
    InvariantLog,
    Regime,
    SweepRow,
    TrajectoryEvidence,
    classify,
    monitor_invariants,
    simulate,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "ModelParameters", "SinusoidalCoefficient", "State", "Trajectory",
    "incidence", "rhs", "jacobian", "vector_field",
    "IntegratorConfig", "Solution", "integrate", "integrate_matrix",
    "IntegrationError", "StepLimitExceeded", "NonFiniteState",
    "VirusFreeSolution", "PeriodicOrbit", "virus_free_closed_form",
    "virus_free_numeric", "poincare_map", "find_periodic_orbit",
    "warm_start_guess", "floquet_multipliers",
    "DegenerateDecay", "NewtonDiverged", "ConvergedToBoundary",
    "LinearizedSystem", "R0Result", "build_linearization",
    "rho_for_lambda", "r0_periodic", "r0_autonomous", "BracketFailure",
    "ClassificationReport", "InvariantLog", "Regime", "SweepRow",
    "TrajectoryEvidence", "classify", "monitor_invariants", "simulate", "sweep",
]
