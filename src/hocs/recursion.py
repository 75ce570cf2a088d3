"""Backward coefficient recursions and feedback gains for all problem classes.

Every channel is solved by the same convex-completion step, run backward
k = N-1..0 from alpha[N] = q_terminal. For power 2s, per-step noise moment
m, loop factor l and offset d:

    c[k]     = (alpha[k+1] b[k] m / r[k]) ** (1 / (2s - 1))
    gain[k]  = c[k] a[k] / (1 + c[k] b[k])
    alpha[k] = q[k] + r[k] gain[k]**(2s)
             + alpha[k+1] l (a[k] - b[k] gain[k])**(2s) + alpha[k+1] d

The mean channel (alpha_bar, k_mean) is this step with s = p on the mean
data and m = l = 1, d = 0, for every class. The deviation channel
(alpha, k_dev) depends on the class:

- additive: s = 1 on the mean dynamics, plus the offset sequence
  gamma_bar[k] = gamma_bar[k+1] + alpha[k+1] E[eps^2], gamma_bar[N] = 0;
- multiplicative state: s = 1 on the mean dynamics with d = E[eps^2];
- higher moment: s = o on the deviation dynamics (a, b) with
  m = l = E[eps^(2o)].

Denominator positivity (1 + c b > 0) and the sign and finiteness of the
solved coefficients depend on the pass itself, so they are checked here
rather than in validate(): violations raise DenominatorNotPositive,
NonPositiveCoefficient (mean channel only) or NonFiniteCoefficient, each
naming the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    DenominatorNotPositive,
    NonFiniteCoefficient,
    NonPositiveCoefficient,
    ProblemClass,
    ProblemSpec,
    signed_root,
)

__all__ = [
    "CoefficientSchedule",
    "GainSchedule",
    "solve",
    "riccati_lqr",
]


def _finite(values, name: str) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    for k, value in enumerate(out):
        if not math.isfinite(value):
            raise NonFiniteCoefficient(f"{name}[{k}] = {value} is not finite")
    return out


@dataclass(frozen=True)
class CoefficientSchedule:
    """Backward-solved value coefficients, indexed k = 0..N.

    ``alpha_bar[k]`` weights xbar**(2p) in the value ansatz. ``alpha[k]``
    weights the 2o-th central moment of the state (absent for the
    deterministic class). ``gamma_bar[k]`` is the additive-noise offset
    (present only for the additive class). The class tag and the powers are
    carried along so a schedule is self-contained for cost prediction.
    Every entry must be finite.
    """

    problem_class: ProblemClass
    p: int
    o: int
    alpha_bar: tuple[float, ...]
    alpha: tuple[float, ...] | None = None
    gamma_bar: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha_bar", _finite(self.alpha_bar, "alpha_bar"))
        for name in ("alpha", "gamma_bar"):
            value = getattr(self, name)
            if value is not None:
                value = _finite(value, name)
                if len(value) != len(self.alpha_bar):
                    raise ValueError(f"{name} must have the same length as alpha_bar")
                object.__setattr__(self, name, value)

    @property
    def n_steps(self) -> int:
        return len(self.alpha_bar) - 1


@dataclass(frozen=True)
class GainSchedule:
    """Per-step feedback gains: u[k] = -k_dev[k] (x - xbar) - k_mean[k] xbar.

    ``k_dev`` is None for the deterministic class (no deviation channel).
    """

    k_mean: tuple[float, ...]
    k_dev: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        k_mean = _finite(self.k_mean, "k_mean")
        object.__setattr__(self, "k_mean", k_mean)
        if self.k_dev is not None:
            k_dev = _finite(self.k_dev, "k_dev")
            if len(k_dev) != len(k_mean):
                raise ValueError("k_dev must have the same length as k_mean")
            object.__setattr__(self, "k_dev", k_dev)

    @property
    def n_steps(self) -> int:
        return len(self.k_mean)


def _power_channel(
    a, b, q, q_terminal: float, r, power: int, *,
    m: float = 1.0, loop_scale: float = 1.0, offset: float = 0.0,
    name: str = "alpha", positive: bool = False,
) -> tuple[list[float], list[float]]:
    """One convex-completion backward pass (see the module docstring).

    Args:
        a, b: Per-step dynamics of the channel.
        q, q_terminal, r: Running, terminal and control weights.
        power: Half-power s; the channel penalizes powers 2s.
        m: Noise moment inside the completion constant c[k].
        loop_scale: Factor on the propagated closed-loop term.
        offset: Per-step additive term, scaled by alpha[k+1].
        name: Coefficient name used in error messages.
        positive: Require every coefficient to be > 0 (the mean channel).

    Returns:
        The coefficients alpha[0..N] and the gains gain[0..N-1].
    """
    n = len(a)
    two_s = 2 * power
    root_order = two_s - 1
    alpha = [0.0] * (n + 1)
    gains = [0.0] * n
    alpha[n] = q_terminal
    if positive and q_terminal <= 0.0:
        raise NonPositiveCoefficient(f"{name}[{n}] = {q_terminal} (terminal weight)")

    for k in reversed(range(n)):
        c = signed_root(alpha[k + 1] * b[k] * m / r[k], root_order)
        denom = 1.0 + c * b[k]
        if denom <= 0.0:
            raise DenominatorNotPositive(f"1 + c b = {denom} in {name} at step {k}")
        gain = c * a[k] / denom
        closed_loop = a[k] - b[k] * gain
        try:
            value = (
                q[k]
                + r[k] * gain ** two_s
                + alpha[k + 1] * loop_scale * closed_loop ** two_s
                + alpha[k + 1] * offset
            )
        except OverflowError:
            value = math.inf
        if not (math.isfinite(gain) and math.isfinite(value)):
            raise NonFiniteCoefficient(f"{name}[{k}] = {value}, gain {gain} at step {k}")
        if positive and value <= 0.0:
            raise NonPositiveCoefficient(f"{name}[{k}] = {value}")
        alpha[k] = value
        gains[k] = gain

    return alpha, gains


def solve(
    spec: ProblemSpec, *, literal_recursion: bool = False
) -> tuple[CoefficientSchedule, GainSchedule]:
    """Solve the mean channel and, for stochastic classes, the deviation channel.

    ``literal_recursion`` (higher-moment class only) drops the standalone
    moment factor on the propagated term, keeping m inside c[k] only. The
    m-inclusive default is the stationary point of the one-step objective
    and the Monte-Carlo oracle confirms it; the literal variant coincides
    with it iff m = 1 and is kept for comparison.

    Args:
        spec: A spec that passed validate().

    Returns:
        The coefficient schedule and the feedback gains.

    Raises:
        MissingMoment: If a required noise moment is unavailable.
        DenominatorNotPositive: If a gain denominator is not positive.
        NonPositiveCoefficient: If some alpha_bar[k] <= 0.
        NonFiniteCoefficient: If a coefficient or gain overflows.
    """
    cost, klass = spec.cost, spec.problem_class
    a_bar, b_bar = spec.mean_dyn.a_bar, spec.mean_dyn.b_bar
    alpha_bar, k_mean = _power_channel(
        a_bar, b_bar, cost.q_bar, cost.q_bar_terminal, cost.r_bar, cost.p,
        name="alpha_bar", positive=True,
    )
    alpha = k_dev = gamma_bar = None
    if klass is ProblemClass.HIGHER_MOMENT:
        m = spec.noise.even_moment(2 * cost.o)
        alpha, k_dev = _power_channel(
            spec.dev_dyn.a, spec.dev_dyn.b, cost.q, cost.q_terminal, cost.r, cost.o,
            m=m, loop_scale=1.0 if literal_recursion else m,
        )
    elif klass is not ProblemClass.DETERMINISTIC:
        m2 = spec.noise.even_moment(2)
        alpha, k_dev = _power_channel(
            a_bar, b_bar, cost.q, cost.q_terminal, cost.r, 1,
            offset=m2 if klass is ProblemClass.MULT_STATE else 0.0,
        )
        if klass is ProblemClass.ADDITIVE:
            gamma_bar = [0.0] * len(alpha)
            for k in reversed(range(len(k_dev))):
                gamma_bar[k] = gamma_bar[k + 1] + alpha[k + 1] * m2

    schedule = CoefficientSchedule(
        problem_class=klass, p=cost.p, o=cost.o,
        alpha_bar=alpha_bar, alpha=alpha, gamma_bar=gamma_bar,
    )
    return schedule, GainSchedule(k_mean=k_mean, k_dev=k_dev)


def riccati_lqr(spec: ProblemSpec) -> CoefficientSchedule:
    """Independent p = 1 reference: the classical Riccati difference equation.

    Implements alpha_bar[k] = q_bar[k] + alpha_bar[k+1] a_bar[k]^2 r_bar[k] /
    (r_bar[k] + alpha_bar[k+1] b_bar[k]^2) directly, without reusing the
    general-power solver, to cross-check the p = 1 reduction.
    """
    if spec.cost.p != 1:
        raise ValueError(f"the Riccati reference applies to p = 1 only, got p={spec.cost.p}")
    n = spec.n_steps
    cost = spec.cost
    a_bar, b_bar = spec.mean_dyn.a_bar, spec.mean_dyn.b_bar

    alpha_bar = [0.0] * (n + 1)
    alpha_bar[n] = cost.q_bar_terminal
    for k in reversed(range(n)):
        alpha_bar[k] = cost.q_bar[k] + (
            alpha_bar[k + 1] * a_bar[k] ** 2 * cost.r_bar[k]
            / (cost.r_bar[k] + alpha_bar[k + 1] * b_bar[k] ** 2)
        )

    return CoefficientSchedule(
        problem_class=spec.problem_class,
        p=cost.p,
        o=cost.o,
        alpha_bar=tuple(alpha_bar),
    )
