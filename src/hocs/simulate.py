"""Closed-loop simulation: mean propagation, seeded ensembles, costs, KPIs.

The mean channel is deterministic for every problem class,

    xbar[k+1] = a_bar[k] xbar[k] + b_bar[k] ubar[k],

so by default ("exact" mean mode) it is propagated once by applying the
policy at the mean and every path measures its deviation against that path.
The alternative "empirical" mean mode replaces xbar/ubar by ensemble averages
recomputed at each step; it exists to quantify finite-ensemble bias and is
never the default.

Randomness is laid out for reproducibility: a master seed feeds a seed
sequence whose first child drives the initial draws and whose second child
drives the noise matrix (one row per path, one column per step 1..N), so the
initial state is independent of the noise and a rerun with the same master
seed is bit-identical. Generation is vectorized across paths; no execution
order enters the results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .control import Policy
from .model import (
    InvalidPolicy,
    MissingMoment,
    NoiseKind,
    ProblemClass,
    ProblemSpec,
)
from .recursion import CoefficientSchedule

__all__ = [
    "TrajectoryEnsemble",
    "CostReport",
    "simulate_ensemble",
    "realized_cost",
    "predicted_cost",
    "kpi",
]


@dataclass(frozen=True, eq=False)
class TrajectoryEnsemble:
    """Seeded Monte-Carlo paths of one closed-loop system.

    ``states`` is n_paths x (N+1), ``controls`` n_paths x N. ``mean_path``
    and ``mean_controls`` hold xbar/ubar per the ensemble's mean mode.
    ``empirical_central_moments`` maps an even order to the length-(N+1)
    array of ensemble averages of (x[k] - xbar[k])**order. All arrays are
    read-only.
    """

    states: np.ndarray
    controls: np.ndarray
    mean_path: np.ndarray
    mean_controls: np.ndarray
    empirical_central_moments: dict[int, np.ndarray] = field(repr=False)
    mean_mode: str

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def n_steps(self) -> int:
        return self.controls.shape[1]


@dataclass(frozen=True)
class CostReport:
    """Monte-Carlo cost estimate next to the coefficient-based prediction.

    ``breakdown`` splits realized_mean into its four term families
    (state_power, control_power, state_moment, control_moment); the entries
    sum to realized_mean exactly.
    """

    realized_mean: float
    realized_stderr: float
    predicted: float
    breakdown: dict[str, float]
    n_paths: int
    # The stderr is closed-form, so no bootstrap resamples are ever drawn.
    n_bootstrap: ClassVar[int] = 0


def _mean_channel(spec: ProblemSpec, policy: Policy) -> tuple[np.ndarray, np.ndarray]:
    """Propagate xbar and ubar by applying the policy at the mean."""
    n = spec.n_steps
    a_bar, b_bar = spec.mean_dyn.a_bar, spec.mean_dyn.b_bar
    mean_path = np.empty(n + 1)
    mean_controls = np.empty(n)
    mean_path[0] = spec.initial.mean
    for k in range(n):
        mean_controls[k] = policy.mean_control(k, mean_path[k])
        mean_path[k + 1] = a_bar[k] * mean_path[k] + b_bar[k] * mean_controls[k]
    return mean_path, mean_controls


def simulate_ensemble(
    spec: ProblemSpec,
    policy: Policy,
    n_paths: int,
    master_seed: int,
    *,
    mean_mode: str = "exact",
    moment_orders: tuple[int, ...] | None = None,
) -> TrajectoryEnsemble:
    """Roll out the closed-loop system along seeded Monte-Carlo paths.

    Args:
        spec: The problem whose dynamics and laws drive the paths.
        policy: Any Policy (solved feedback or a reference controller).
        n_paths: Number of paths (>= 1).
        master_seed: Seed for the run; reruns are bit-identical.
        mean_mode: "exact" (default) propagates xbar deterministically;
            "empirical" recomputes xbar/ubar as ensemble averages per step.
        moment_orders: Even orders for the empirical central-moment table;
            defaults to (2, 2o).

    Returns:
        A read-only TrajectoryEnsemble.

    Raises:
        InvalidPolicy: If the policy pins a different horizon.
        MissingMoment: If the noise has no samplable distribution.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if mean_mode not in ("exact", "empirical"):
        raise ValueError(f"mean_mode must be 'exact' or 'empirical', got {mean_mode!r}")
    n = spec.n_steps
    if policy.n_steps is not None and policy.n_steps != n:
        raise InvalidPolicy(f"policy solved for horizon {policy.n_steps}, problem has {n}")
    if not spec.noise.samplable:
        raise MissingMoment("noise has no distribution to sample from")

    init_seq, noise_seq = np.random.SeedSequence(master_seed).spawn(2)
    init_rng = np.random.Generator(np.random.PCG64(init_seq))
    noise_rng = np.random.Generator(np.random.PCG64(noise_seq))

    states = np.empty((n_paths, n + 1))
    controls = np.empty((n_paths, n))
    states[:, 0] = spec.initial.sample(init_rng, n_paths)

    klass = spec.problem_class
    if spec.noise.kind is NoiseKind.NONE:
        eps = None
    else:
        # eps[:, k] realizes the step-(k+1) noise; eps[0] = 0 never enters.
        eps = spec.noise.distribution.sample(noise_rng, (n_paths, n))

    exact = mean_mode == "exact"
    if exact:
        mean_path, mean_controls = _mean_channel(spec, policy)
    else:
        mean_path = np.empty(n + 1)
        mean_controls = np.empty(n)

    a_bar, b_bar = spec.mean_dyn.a_bar, spec.mean_dyn.b_bar
    a_dev, b_dev = spec.dev_dyn.a, spec.dev_dyn.b

    for k in range(n):
        x = states[:, k]
        if exact:
            x_bar = mean_path[k]
            u = np.asarray(policy.control(k, x, x_bar))
            u_bar = mean_controls[k]
        else:
            x_bar = x.mean()
            mean_path[k] = x_bar
            u = np.asarray(policy.control(k, x, x_bar))
            u_bar = u.mean()
            mean_controls[k] = u_bar
        controls[:, k] = u

        if klass is ProblemClass.DETERMINISTIC:
            states[:, k + 1] = a_bar[k] * x + b_bar[k] * u
        elif klass is ProblemClass.ADDITIVE:
            states[:, k + 1] = a_bar[k] * x + b_bar[k] * u + eps[:, k]
        elif klass is ProblemClass.MULT_STATE:
            states[:, k + 1] = a_bar[k] * x + b_bar[k] * u + (x - x_bar) * eps[:, k]
        else:
            states[:, k + 1] = (
                a_bar[k] * x_bar
                + b_bar[k] * u_bar
                + (a_dev[k] * (x - x_bar) + b_dev[k] * (u - u_bar)) * eps[:, k]
            )

    if not exact:
        mean_path[n] = states[:, n].mean()

    if moment_orders is None:
        moment_orders = tuple(sorted({2, 2 * spec.cost.o}))
    deviations = states - mean_path[np.newaxis, :]
    moments = {
        order: np.mean(deviations ** order, axis=0) for order in moment_orders
    }

    for arr in (states, controls, mean_path, mean_controls, *moments.values()):
        arr.setflags(write=False)

    return TrajectoryEnsemble(
        states=states,
        controls=controls,
        mean_path=mean_path,
        mean_controls=mean_controls,
        empirical_central_moments=moments,
        mean_mode=mean_mode,
    )


def realized_cost(
    spec: ProblemSpec,
    ensemble: TrajectoryEnsemble,
    schedule: CoefficientSchedule,
) -> CostReport:
    """Evaluate the realized cost of an ensemble and compare to prediction.

    The mean-channel terms (xbar**2p, ubar**2p) are deterministic given the
    ensemble's mean path; the moment terms are ensemble averages of per-path
    deviation powers. The standard error covers the moment terms: the
    plug-in s/sqrt(n) of the per-path moment costs, with s the population
    standard deviation. It holds the mean path fixed, so under the empirical
    mean mode it leaves out the noise of the averaged mean path.

    Args:
        spec: The problem the ensemble was generated from.
        ensemble: Simulated trajectories.
        schedule: Coefficients for the predicted cost.

    Returns:
        A CostReport; its breakdown entries sum to realized_mean exactly.
    """
    cost = spec.cost
    two_p, two_o = 2 * cost.p, 2 * cost.o
    n = ensemble.n_steps
    x_bar, u_bar = ensemble.mean_path, ensemble.mean_controls
    q = np.asarray(cost.q)
    r = np.asarray(cost.r)

    state_power = float(
        np.dot(np.asarray(cost.q_bar), x_bar[:-1] ** two_p)
        + cost.q_bar_terminal * x_bar[n] ** two_p
    )
    control_power = float(np.dot(np.asarray(cost.r_bar), u_bar ** two_p))

    dev_x = ensemble.states - x_bar[np.newaxis, :]
    dev_u = ensemble.controls - u_bar[np.newaxis, :]
    state_moment_paths = dev_x[:, :-1] ** two_o @ q + cost.q_terminal * dev_x[:, n] ** two_o
    control_moment_paths = dev_u ** two_o @ r

    state_moment = float(state_moment_paths.mean())
    control_moment = float(control_moment_paths.mean())
    breakdown = {
        "state_power": state_power,
        "control_power": control_power,
        "state_moment": state_moment,
        "control_moment": control_moment,
    }
    realized_mean = state_power + control_power + state_moment + control_moment

    per_path = state_moment_paths + control_moment_paths
    n_paths = ensemble.n_paths
    return CostReport(
        realized_mean=realized_mean,
        realized_stderr=float(per_path.std()) / math.sqrt(n_paths),
        predicted=predicted_cost(schedule, spec.initial),
        breakdown=breakdown,
        n_paths=n_paths,
    )


def predicted_cost(schedule: CoefficientSchedule, initial) -> float:
    """Optimal expected cost from the solved coefficients and the initial law.

    The mean term alpha_bar[0] xbar0**2p plus the deviation-channel term
    (see _deviation_term).
    """
    mean_term = schedule.alpha_bar[0] * initial.mean ** (2 * schedule.p)
    return _deviation_term(schedule, initial) + mean_term


def _deviation_term(schedule: CoefficientSchedule, initial) -> float:
    """The deviation-channel part of the predicted cost, at its own scale.

    Deterministic: 0. Additive: alpha[0] var(x0) + gamma_bar[0].
    Multiplicative state: alpha[0] var(x0). Higher moment:
    alpha[0] E[(x0 - xbar0)**2o]. Never derive this by subtracting the mean
    term from the total: the mean term can be ten orders larger (a moment
    contribution of 1e-12 next to a mean cost of 1e7 is gone after one
    addition).
    """
    klass = schedule.problem_class
    if klass is ProblemClass.DETERMINISTIC:
        return 0.0
    if schedule.alpha is None:
        raise ValueError(f"schedule for class {klass.value} lacks the deviation channel")
    if klass is ProblemClass.ADDITIVE:
        return schedule.alpha[0] * initial.variance + schedule.gamma_bar[0]
    if klass is ProblemClass.MULT_STATE:
        return schedule.alpha[0] * initial.variance
    return schedule.alpha[0] * initial.central_moment(2 * schedule.o)


def kpi(ensemble: TrajectoryEnsemble, zeta: int) -> tuple[float, float]:
    """Performance indices summing 2*zeta powers of deviations and means.

    kpi_x sums E[(x[k] - xbar[k])**2z] + xbar[k]**2z over k = 0..N; kpi_u
    sums the control analogue over k = 0..N-1 (there is no control at N).
    Expectations are ensemble averages, so a single-path ensemble yields the
    per-path index itself.

    Args:
        ensemble: Simulated trajectories.
        zeta: Risk power, one of 1, 2, 3.

    Returns:
        The pair (kpi_x, kpi_u).
    """
    if zeta not in (1, 2, 3):
        raise ValueError(f"zeta must be 1, 2, or 3, got {zeta}")
    two_z = 2 * zeta
    dev_x = ensemble.states - ensemble.mean_path[np.newaxis, :]
    dev_u = ensemble.controls - ensemble.mean_controls[np.newaxis, :]
    kpi_x = float(np.sum(np.mean(dev_x ** two_z, axis=0)) + np.sum(ensemble.mean_path ** two_z))
    kpi_u = float(np.sum(np.mean(dev_u ** two_z, axis=0)) + np.sum(ensemble.mean_controls ** two_z))
    return kpi_x, kpi_u
