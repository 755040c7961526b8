"""Averaging toolkit for the zero-Hopf bifurcation of a cubic jerk system.

The pipeline has three stages: classify the equilibrium of the third-order
system (jerk) and predict its orbits from the closed-form averaged
functions (closed_form), rewrite the unfolded system in the periodic
standard form and average it numerically (normal_form, averaging), and
confirm each simple averaged root as a periodic orbit of the full system
by shooting on a Poincare section (shooting). The cli module ties the stages
to a JSON config front end.

The names of __all__ resolve at first use, each importing only its own
module (PEP 562): jerk, closed_form and config, the scalar layer, import
no numpy, so neither `import averager` nor a classify run loads it.
"""

from importlib import import_module

__version__ = "0.1.0"

#: the module that defines each exported name
_EXPORTS = {
    "averaging": ["AveragedRoot", "DegreeSign", "average_first",
                  "average_second", "find_roots"],
    "closed_form": ["DegeneratePrediction", "HypothesisViolated",
                    "OrbitCount", "OrbitPrediction", "f_closed", "g_closed",
                    "g_jacobian", "higher_averages", "predicted_roots",
                    "root_corrections"],
    "config": ["ConfigError", "IntegratorSpec", "QuadratureSpec", "RunConfig",
               "from_dict", "load_config", "to_dict"],
    "jerk": ["EquilibriumClass", "EquilibriumKind", "NotAnEquilibrium",
             "SystemParams", "UnfoldingParams", "char_poly",
             "classify_equilibrium", "equilibria", "unfold", "vector_field"],
    "normal_form": ["StandardFormSystem", "jerk_standard_form"],
    "shooting": ["PeriodicOrbitRecord", "SeedInvalid", "ShootingDiverged",
                 "SweepEntry", "SweepResult", "poincare_return", "shoot_orbit",
                 "sweep_epsilon"],
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    """The exported name, from its module, imported on first use."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
