"""Scalar discrete-time control with power costs of mean-field type.

The state splits into a deterministic mean channel and a stochastic
deviation channel, each with its own backward coefficient recursion and
feedback gain. Costs penalize even powers 2p of the mean state/control and
even central moments 2o of the deviations. Four problem classes cover no
noise, additive noise, state-multiplicative noise, and mean-field
multiplicative noise with a general moment power.

Typical use::

    from hocs import build_problem, solve, simulate_ensemble, FeedbackPolicy

    spec = ...                      # build_problem(...) or a config preset
    schedule, gains = solve(spec)
    ensemble = simulate_ensemble(spec, FeedbackPolicy(gains), 100_000, 42)
"""

from .model import (
    COMPATIBLE_NOISE,
    CostSpec,
    DenominatorNotPositive,
    DeviationDynamics,
    Dirac,
    Distribution,
    Empirical,
    Gaussian,
    GaussianVariance,
    HocsError,
    Horizon,
    IndexOutOfRange,
    InitialLaw,
    InvalidPolicy,
    LengthMismatch,
    MeanDynamics,
    MissingMoment,
    NoiseKind,
    NoiseSpec,
    NonFiniteCoefficient,
    NonPositiveCoefficient,
    NotConverged,
    ProblemClass,
    ProblemSpec,
    Rademacher,
    UniformSymmetric,
    ValidationReport,
    broadcast,
    build_problem,
    signed_root,
    validate,
)
from .recursion import (
    CoefficientSchedule,
    GainSchedule,
    riccati_lqr,
    solve,
)
from .control import (
    BaselineKind,
    BaselinePolicy,
    FeedbackPolicy,
    Policy,
)
from .simulate import (
    CostReport,
    TrajectoryEnsemble,
    central_moment,
    kpi,
    predicted_cost,
    realized_cost,
    simulate_ensemble,
)
from .oracle import (
    ConvexityReport,
    OracleReport,
    ProbeReport,
    brute_force_deterministic,
    convexity_check,
    local_optimality_probe,
    mc_validate,
)
from .config import (
    ConfigError,
    RunConfig,
    RunSettings,
    example_config,
    load_config,
    parse_config,
    render_config,
)

__version__ = "0.1.0"
