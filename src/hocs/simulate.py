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
order enters the results. The draw depends only on the spec, the path count
and the master seed, never on the policy, so callers that roll out several
policies or gain scalings on one seed (common random numbers) open a
``_common_draws()`` scope and every rollout inside it reuses one read-only
(x0, eps) draw; outside a scope each ensemble draws afresh. Either way the
numbers are the same.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .control import Policy
from .model import (
    InvalidPolicy,
    MissingMoment,
    NoiseKind,
    NonFiniteCoefficient,
    ProblemClass,
    ProblemSpec,
    _check_even_order,
)
from .recursion import CoefficientSchedule

__all__ = [
    "TrajectoryEnsemble",
    "CostReport",
    "simulate_ensemble",
    "central_moment",
    "realized_cost",
    "predicted_cost",
    "kpi",
]


@dataclass(frozen=True, eq=False)
class TrajectoryEnsemble:
    """Seeded Monte-Carlo paths of one closed-loop system.

    ``states`` is n_paths x (N+1), ``controls`` n_paths x N, both stored
    time-major (transposed views of step x path arrays) so that the column
    ``[:, k]`` of one step is contiguous. ``mean_path`` and ``mean_controls``
    hold xbar/ubar per the ensemble's mean mode. All arrays are read-only.
    """

    states: np.ndarray
    controls: np.ndarray
    mean_path: np.ndarray
    mean_controls: np.ndarray
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


def _even_power(x: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """x**n for even n >= 2 as (x*x)**(n/2) by repeated products, which beat
    numpy's generic power tenfold for n >= 4. ``out`` may be ``x``: only the
    first product reads x. Past n = 4 the running product gets the one extra
    buffer, since multiplying it into itself would give x**8 for n = 6, and
    the last product lands on the square in ``out``.
    """
    square = np.multiply(x, x, out=out)
    if n == 2:
        return square
    if n == 4:
        return np.multiply(square, square, out=square)
    power = np.multiply(square, square)
    for _ in range(n // 2 - 3):
        power *= square
    return np.multiply(power, square, out=square)


def _deviation_powers(values: np.ndarray, centers: np.ndarray, n: int) -> np.ndarray:
    """(values - centers)**n per path and step, powered in one fresh buffer."""
    deviations = np.subtract(values, centers)
    return _even_power(deviations, n, out=deviations)


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


#: Draws kept by the open _common_draws() scope, or None outside every scope.
_DRAWS: ContextVar[dict | None] = ContextVar("hocs_common_draws", default=None)


@contextmanager
def _common_draws():
    """Within the block, ensembles with equal (spec, n_paths, master_seed)
    share one (x0, eps) draw. A nested scope reuses the outer one; on exit,
    normal or by exception, the outermost scope drops every stored draw.
    """
    if _DRAWS.get() is not None:
        yield
        return
    token = _DRAWS.set({})
    try:
        yield
    finally:
        _DRAWS.reset(token)


def _draw(spec: ProblemSpec, n_paths: int, master_seed: int):
    """The read-only initial states and noise matrix of one seeded ensemble.

    eps[:, k] realizes the step-(k+1) noise; eps is None without noise.
    Inside a _common_draws() scope a repeated key returns the stored arrays.
    """
    store = _DRAWS.get()
    key = (spec, n_paths, master_seed)
    if store is not None and key in store:
        return store[key]
    init_seq, noise_seq = np.random.SeedSequence(master_seed).spawn(2)
    x0 = spec.initial.sample(np.random.Generator(np.random.PCG64(init_seq)), n_paths)
    x0.setflags(write=False)
    eps = None
    if spec.noise.kind is not NoiseKind.NONE:
        noise_rng = np.random.Generator(np.random.PCG64(noise_seq))
        eps = spec.noise.distribution.sample(noise_rng, (n_paths, spec.n_steps))
        eps.setflags(write=False)
    if store is not None:
        store[key] = x0, eps
    return x0, eps


def simulate_ensemble(
    spec: ProblemSpec,
    policy: Policy,
    n_paths: int,
    master_seed: int,
    *,
    mean_mode: str = "exact",
) -> TrajectoryEnsemble:
    """Roll out the closed-loop system along seeded Monte-Carlo paths.

    Args:
        spec: The problem whose dynamics and laws drive the paths.
        policy: Any Policy (solved feedback or a reference controller).
        n_paths: Number of paths (>= 1).
        master_seed: Seed for the run; reruns are bit-identical.
        mean_mode: "exact" (default) propagates xbar deterministically;
            "empirical" recomputes xbar/ubar as ensemble averages per step.

    Returns:
        A read-only TrajectoryEnsemble, stored time-major (see its class).

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

    x0, eps = _draw(spec, n_paths, master_seed)
    states = np.empty((n + 1, n_paths)).T
    controls = np.empty((n, n_paths)).T
    states[:, 0] = x0

    klass = spec.problem_class

    exact = mean_mode == "exact"
    if exact:
        mean_path, mean_controls = _mean_channel(spec, policy)
    else:
        mean_path, mean_controls = np.empty(n + 1), np.empty(n)

    a_bar, b_bar = spec.mean_dyn.a_bar, spec.mean_dyn.b_bar
    a_dev, b_dev = spec.dev_dyn.a, spec.dev_dyn.b

    for k in range(n):
        x = states[:, k]
        if not exact:
            mean_path[k] = x.mean()
        u = controls[:, k] = np.asarray(policy.control(k, x, mean_path[k]))
        if not exact:
            mean_controls[k] = u.mean()
        x_bar, u_bar = mean_path[k], mean_controls[k]

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

    for arr in (states, controls, mean_path, mean_controls):
        arr.setflags(write=False)

    return TrajectoryEnsemble(
        states=states,
        controls=controls,
        mean_path=mean_path,
        mean_controls=mean_controls,
        mean_mode=mean_mode,
    )


def central_moment(ensemble: TrajectoryEnsemble, order: int) -> np.ndarray:
    """Ensemble averages of (x[k] - xbar[k])**order, k = 0..N, for even order."""
    _check_even_order(order)
    return _deviation_powers(ensemble.states, ensemble.mean_path, order).mean(axis=0)


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

    mean_powers = _even_power(x_bar, two_p)
    state_power = float(np.dot(cost.q_bar, mean_powers[:-1]) + cost.q_bar_terminal * mean_powers[n])
    control_power = float(np.dot(cost.r_bar, _even_power(u_bar, two_p)))

    powers = _deviation_powers(ensemble.states, x_bar, two_o)
    state_moment_paths = powers[:, :-1] @ np.asarray(cost.q) + cost.q_terminal * powers[:, n]
    del powers
    control_moment_paths = _deviation_powers(ensemble.controls, u_bar, two_o) @ np.asarray(cost.r)

    breakdown = {
        "state_power": state_power,
        "control_power": control_power,
        "state_moment": float(state_moment_paths.mean()),
        "control_moment": float(control_moment_paths.mean()),
    }
    per_path = state_moment_paths + control_moment_paths
    n_paths = ensemble.n_paths
    return CostReport(
        realized_mean=sum(breakdown.values()),
        realized_stderr=float(per_path.std()) / math.sqrt(n_paths),
        predicted=predicted_cost(schedule, spec.initial),
        breakdown=breakdown,
        n_paths=n_paths,
    )


def predicted_cost(schedule: CoefficientSchedule, initial) -> float:
    """Optimal expected cost from the solved coefficients and the initial law.

    The mean term alpha_bar[0] xbar0**2p plus the deviation-channel term
    (see _deviation_term).

    Raises:
        NonFiniteCoefficient: If the price overflows (a huge initial mean).
    """
    total = _deviation_term(schedule, initial) + _mean_term(schedule, initial)
    if not math.isfinite(total):
        raise NonFiniteCoefficient(f"predicted cost = {total} at step 0 is not finite")
    return total


def _mean_term(schedule: CoefficientSchedule, initial) -> float:
    """The mean-channel part alpha_bar[0] xbar0**2p; inf where it overflows."""
    try:
        return schedule.alpha_bar[0] * initial.mean ** (2 * schedule.p)
    except OverflowError:
        return math.inf


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
    kpi_x, kpi_u = (
        float(np.sum(_deviation_powers(values, centers, two_z).mean(axis=0))
              + np.sum(_even_power(centers, two_z)))
        for values, centers in ((ensemble.states, ensemble.mean_path),
                                (ensemble.controls, ensemble.mean_controls))
    )
    return kpi_x, kpi_u
