"""Simulation and statistical verification of exponentially noise-to-state
stable stochastic systems: closed-form crossing-time bounds, seeded
Euler-Maruyama simulation, loop extraction and one-sided statistical checks.
"""

__version__ = "0.1.0"

from .bounds import (  # noqa: F401
    BoundSet,
    LevelPair,
    beta_star,
    bound_b,
    down_cross_survival_bound,
    expected_down_cross,
    expected_up_cross,
    fractile_q,
    lambert_w_lower,
    make_bound_set,
    occupancy_ratio_bound,
    optimal_v0,
    up_cross_survival_bound,
)
from .model import (  # noqa: F401
    ConditionReport,
    LyapunovSpec,
    SystemSpec,
    builtin_example,
    check_enss,
    generator_v,
)
from .sim import (  # noqa: F401
    RNG_ALGORITHM,
    Ensemble,
    NonFiniteStateError,
    SimConfig,
    Trajectory,
    ensemble,
    integrate,
    trajectory_to_csv,
)
from .slln import (  # noqa: F401
    ConditionalCdf,
    CouplingViolationError,
    DominatingLaw,
    dominated_coupling_lower,
    dominated_coupling_upper,
    inverse_cdf_inf,
    inverse_cdf_sup,
    uniformize,
)
from .loops import (  # noqa: F401
    CrossTimeReport,
    EmpiricalDistribution,
    LoopRecord,
    MomentReport,
    ProbabilityReport,
    TailState,
    empirical_survival,
    empirical_time_average,
    extract_loops,
    verify_cross_time_bounds,
    verify_moment_bound,
    verify_probability_bound,
)
