"""Branching processes in random environment: deviation rates, simulation,
exact desk-scale oracles, and tilted importance sampling."""

from .envmodel import (
    EnvironmentLaw,
    OffspringDistribution,
    build_environment,
    build_offspring,
    environment_from_dict,
    environment_to_dict,
)
from .errors import (
    BPREError,
    BudgetExceededError,
    COutOfRangeError,
    CapTooSmallError,
    DegenerateLawError,
    DuplicateKeyError,
    InvalidArgumentError,
    MassNotOneError,
    NegativeProbError,
    NoEventMassError,
    NoHoldingPossibleError,
    NotStronglySupercriticalError,
    OutOfHullError,
    SideMismatchError,
    TOutOfRangeError,
    TooManyComponentsError,
    VersionMismatchError,
    WeightsNotOneError,
    ZeroEstimateError,
    ZeroMeanComponentError,
)
from .ratefn import (
    LowerDeviationRate,
    chernoff_bound,
    limit_profile,
    log_mgf,
    lower_deviation_rate,
    tilt_parameter,
    two_env_walk_rate,
    walk_rate,
)
from .rng import replica_stream
from .simulate import SimConfig, final_states
from .oracle import (
    ConditionalTrajectoryResult,
    ExactDistribution,
    conditional_trajectory,
    population_distribution,
    walk_tail,
)
from .rare_event import (
    EstimatorResult,
    LowerTailEstimate,
    Method,
    RatePoint,
    TakeOffResult,
    TrajectoryProfile,
    conditional_profile,
    empirical_rate,
    estimate_lower_tail,
    estimate_upper_tail,
    rate_curve,
    take_off_statistics,
    tilt,
    tilt_toward,
)
from .cells import (
    CellTreeConfig,
    CellTreeResult,
    IdentityReport,
    expected_count_identity,
    simulate_cell_tree,
)

__version__ = "0.13.0"

# the public names imported above; the submodules they bind are no exports
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, type(errors)))
