"""Periodic within-host viral dynamics with Crowley-Martin incidence.

Simulation of the four-compartment (T, E, I, V) model under sinusoidal
birth, death, and infection rates; the virus-free periodic solution; the
periodic basic reproduction number via monodromy spectral analysis; and
endemic periodic orbits by Newton shooting on the Poincare map.

`perivir.integrate` is the integrator function, not its module: the
import of the function below rebinds the package attribute, so
`import perivir.integrate as m` and `from perivir import integrate` both
give the function. The module is reached through
`importlib.import_module("perivir.integrate")` (or `sys.modules`), and
`from perivir.integrate import NAME` still reads the module's names. The
binding stays, since the acceptance tests import the function from the
package.
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
    NumericalFailure,
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
    "NumericalFailure", "IntegrationError", "StepLimitExceeded", "NonFiniteState",
    "VirusFreeSolution", "PeriodicOrbit", "virus_free_closed_form",
    "virus_free_numeric", "poincare_map", "find_periodic_orbit",
    "warm_start_guess", "floquet_multipliers",
    "DegenerateDecay", "NewtonDiverged", "ConvergedToBoundary",
    "LinearizedSystem", "R0Result", "build_linearization",
    "rho_for_lambda", "r0_periodic", "r0_autonomous", "BracketFailure",
    "ClassificationReport", "InvariantLog", "Regime", "SweepRow",
    "TrajectoryEvidence", "classify", "monitor_invariants", "simulate", "sweep",
]
