"""Simulation and statistical verification of exponentially noise-to-state
stable stochastic systems: closed-form crossing-time bounds, seeded
Euler-Maruyama simulation, loop extraction and one-sided statistical checks.

The names below, and the modules that define them, are imported on first
access (PEP 562), so ``import nss_lab.slln`` loads numpy and ``slln`` alone.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_MODULES = {
    "bounds": (
        "BoundSet",
        "LevelPair",
        "beta_star",
        "bound_b",
        "down_cross_survival_bound",
        "expected_down_cross",
        "expected_up_cross",
        "fractile_q",
        "lambert_w_lower",
        "make_bound_set",
        "occupancy_ratio_bound",
        "optimal_v0",
        "up_cross_survival_bound",
    ),
    "model": (
        "ConditionReport",
        "LyapunovSpec",
        "SystemSpec",
        "builtin_example",
        "check_enss",
    ),
    "sim": (
        "RNG_ALGORITHM",
        "Ensemble",
        "NonFiniteStateError",
        "SimConfig",
        "Trajectory",
        "ensemble",
        "integrate",
        "trajectory_to_csv",
    ),
    "slln": (
        "ConditionalCdf",
        "CouplingViolationError",
        "DominatingLaw",
        "dominated_coupling_lower",
        "dominated_coupling_upper",
        "inverse_cdf_inf",
        "inverse_cdf_sup",
        "uniformize",
    ),
    "loops": (
        "CrossTimeReport",
        "EmpiricalDistribution",
        "LoopRecord",
        "MomentReport",
        "ProbabilityReport",
        "empirical_time_average",
        "extract_loops",
        "verify_cross_time_bounds",
        "verify_moment_bound",
        "verify_probability_bound",
    ),
}
# export name -> the module that defines it
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _MODULES:
        return _import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_MODULES))
