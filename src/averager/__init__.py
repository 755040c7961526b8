"""Averaging toolkit for the zero-Hopf bifurcation of a cubic jerk system.

The pipeline has three stages: classify the equilibrium of the third-order
system (jerk), rewrite the unfolded system in the periodic standard form
and average it numerically (normal_form, averaging), and confirm each
simple averaged root as a periodic orbit of the full system by shooting on
a Poincare section (closed_form, shooting). The cli module ties the stages
to a JSON config front end.
"""

from .averaging import (
    AveragedRoot,
    DegreeSign,
    QuadratureNotConverged,
    QuadratureSpec,
    average_first,
    average_second,
    find_roots,
)
from .closed_form import (
    DegeneratePrediction,
    HypothesisViolated,
    OrbitCount,
    OrbitPrediction,
    f_closed,
    g_closed,
    g_jacobian,
    higher_averages,
    predicted_roots,
    root_corrections,
)
from .config import ConfigError, RunConfig, from_dict, load_config, to_dict
from .jerk import (
    EquilibriumClass,
    EquilibriumKind,
    NotAnEquilibrium,
    SystemParams,
    char_poly,
    classify_equilibrium,
    equilibria,
    vector_field,
)
from .normal_form import (
    StandardFormSystem,
    UnfoldingParams,
    jerk_standard_form,
    unfold,
)
from .shooting import (
    IntegratorSpec,
    NoReturn,
    PeriodicOrbitRecord,
    SeedInvalid,
    ShootingDiverged,
    SweepEntry,
    SweepResult,
    poincare_return,
    shoot_orbit,
    sweep_epsilon,
)

__version__ = "0.1.0"

__all__ = [
    "AveragedRoot",
    "ConfigError",
    "DegeneratePrediction",
    "DegreeSign",
    "EquilibriumClass",
    "EquilibriumKind",
    "HypothesisViolated",
    "IntegratorSpec",
    "NoReturn",
    "NotAnEquilibrium",
    "OrbitCount",
    "OrbitPrediction",
    "PeriodicOrbitRecord",
    "QuadratureNotConverged",
    "QuadratureSpec",
    "RunConfig",
    "SeedInvalid",
    "ShootingDiverged",
    "StandardFormSystem",
    "SweepEntry",
    "SweepResult",
    "SystemParams",
    "UnfoldingParams",
    "average_first",
    "average_second",
    "char_poly",
    "classify_equilibrium",
    "equilibria",
    "f_closed",
    "find_roots",
    "from_dict",
    "g_closed",
    "g_jacobian",
    "higher_averages",
    "jerk_standard_form",
    "load_config",
    "poincare_return",
    "predicted_roots",
    "root_corrections",
    "shoot_orbit",
    "sweep_epsilon",
    "to_dict",
    "unfold",
    "vector_field",
]
