"""Scalar discrete-time control with power costs of mean-field type.

The state splits into a deterministic mean channel and a stochastic
deviation channel, each with its own backward coefficient recursion and
feedback gain. Costs penalize even powers 2p of the mean state/control and
even central moments 2o of the deviations. Four problem classes cover no
noise, additive noise, state-multiplicative noise, and mean-field
multiplicative noise with a general moment power.

Typical use::

    from hocs import InitialLaw, ProblemSpec, simulate_ensemble, solve

    spec = ProblemSpec("deterministic", 6, a_bar=1.0, b_bar=2.0, q_bar=3.0,
                       q_bar_terminal=3.0, r_bar=4.0, p=2,
                       initial=InitialLaw(mean=10.0))   # or a config preset
    schedule, gains = solve(spec)    # gains: the solved FeedbackPolicy
    ensemble = simulate_ensemble(spec, gains, 100_000, 42)
"""

from .model import (
    Dirac,
    Distribution,
    Empirical,
    Gaussian,
    GaussianVariance,
    HocsError,
    IndexOutOfRange,
    InitialLaw,
    InvalidPolicy,
    InvalidProblem,
    LengthMismatch,
    MissingMoment,
    Moments,
    NonFiniteCoefficient,
    NotConverged,
    ProblemClass,
    ProblemSpec,
    Rademacher,
    UniformSymmetric,
    ValidationReport,
    signed_root,
    validate,
)
from .control import (
    BaselinePolicy,
    FeedbackPolicy,
    Policy,
)
from .recursion import (
    CoefficientSchedule,
    solve,
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
    OracleReport,
    ProbeReport,
    brute_force_deterministic,
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
