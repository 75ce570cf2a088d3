"""Backward coefficient recursions for all problem classes.

solve() runs the backward pass and returns the coefficient schedule with the
solved controller, a control.FeedbackPolicy of the pass's gains.

Every channel is solved by the same convex-completion step, run backward
k = N-1..0 from alpha[N] = q_terminal. For power 2s, per-step noise moment
m and offset d:

    c[k]     = (alpha[k+1] b[k] m / r[k]) ** (1 / (2s - 1))
    gain[k]  = c[k] a[k] / (1 + c[k] b[k])
    alpha[k] = q[k] + r[k] gain[k]**(2s)
             + alpha[k+1] m (a[k] - b[k] gain[k])**(2s) + alpha[k+1] d

The moment m sits both in the completion constant and on the propagated
term, the stationary point of the one-step objective. The mean channel
(alpha_bar, k_mean) is this step with s = p on the mean data and m = 1,
d = 0, for every class. The deviation channel (alpha, k_dev) is this step
with s = o on the deviation data (a, b, q, q_terminal, r) for every
stochastic class. With M = E[eps^(2o)], the class only picks how the noise
couples:

- higher moment: m = M;
- multiplicative state: d = M;
- additive: the offset gamma_bar[k] = gamma_bar[k+1] + alpha[k+1] M, gamma_bar[N] = 0.

solve() checks the weight signs once, before either pass, by the table in
model (_WEIGHT_SIGNS): in every channel it solves, each control weight
r > 0 and each state weight q >= 0, and the mean channel's terminal weight
is > 0. The noise moments are >= 0 by construction. Then alpha[k+1] >= 0
gives c[k] b[k] >= 0 in floats, so 1 + c b >= 1 and alpha[k] >= 0, and the
pass itself only checks finiteness: an overflow raises NonFiniteCoefficient
naming the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .control import FeedbackPolicy
from .model import (
    NonFiniteCoefficient,
    NonPositiveCoefficient,
    ProblemClass,
    ProblemSpec,
    _class_rules,
    _integer,
    _power,
    _signed_weights,
    _store_finite,
    signed_root,
)

__all__ = [
    "CoefficientSchedule",
    "solve",
]


@dataclass(frozen=True)
class CoefficientSchedule:
    """Backward-solved value coefficients, indexed k = 0..N.

    ``alpha_bar[k]`` weights xbar**(2p) in the value ansatz. ``alpha[k]``
    weights the 2o-th central moment of the state, for every stochastic
    class and no other. ``gamma_bar[k]`` is the additive-noise offset, for
    the additive class and no other; a missing or extra channel raises
    ValueError naming it. The class tag (which may be given by name) and the
    powers make a schedule self-contained for cost prediction. Every entry
    must be finite, and alpha_bar holds at least one.
    """

    problem_class: ProblemClass
    p: int
    o: int
    alpha_bar: tuple[float, ...]
    alpha: tuple[float, ...] | None = None
    gamma_bar: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        klass = ProblemClass(self.problem_class)
        object.__setattr__(self, "problem_class", klass)
        for name in ("p", "o"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, 1))
        for name, held in (("alpha", klass is not ProblemClass.DETERMINISTIC),
                           ("gamma_bar", klass is ProblemClass.ADDITIVE)):
            if (getattr(self, name) is None) == held:
                rule = "is required" if held else "must be None"
                raise ValueError(f"{name} {rule} for class {klass.value}")
        _store_finite(self, "alpha_bar", "alpha", "gamma_bar")

    @property
    def n_steps(self) -> int:
        return len(self.alpha_bar) - 1


def _power_channel(
    a, b, q, q_terminal: float, r, power: int, *,
    m: float = 1.0, offset: float = 0.0, name: str = "alpha",
) -> tuple[list[float], list[float]]:
    """One convex-completion backward pass (see the module docstring).

    Args:
        a, b: Per-step dynamics of the channel.
        q, q_terminal, r: Running, terminal and control weights.
        power: Half-power s; the channel penalizes powers 2s.
        m: Noise moment in the completion constant c[k] and on the
            propagated closed-loop term.
        offset: Per-step additive term, scaled by alpha[k+1].
        name: Coefficient name used in error messages.

    Returns:
        The coefficients alpha[0..N] and the gains gain[0..N-1].
    """
    n = len(a)
    two_s = 2 * power
    root_order = two_s - 1
    alpha = [0.0] * (n + 1)
    gains = [0.0] * n
    alpha[n] = q_terminal

    for k in reversed(range(n)):
        c = signed_root(alpha[k + 1] * b[k] * m / r[k], root_order)
        gain = c * a[k] / (1.0 + c * b[k])
        closed_loop = a[k] - b[k] * gain
        value = (
            q[k]
            + r[k] * _power(gain, two_s)
            + alpha[k + 1] * m * _power(closed_loop, two_s)
            + alpha[k + 1] * offset
        )
        if not (math.isfinite(gain) and math.isfinite(value)):
            raise NonFiniteCoefficient(f"{name}[{k}] = {value}, gain {gain} at step {k}")
        alpha[k] = value
        gains[k] = gain

    return alpha, gains


def _check_signs(spec: ProblemSpec) -> None:
    """Raise NonPositiveCoefficient naming the first weight of the wrong sign."""
    for _, weights in _signed_weights(spec):
        for name, values, strict in weights:
            for k, value in enumerate(values):
                if value < 0.0 or (strict and value == 0.0):
                    where = "" if name.endswith("terminal") else f"[{k}]"
                    raise NonPositiveCoefficient(
                        f"{name}{where} = {value}; solve needs {'> 0' if strict else '>= 0'}")


def solve(spec: ProblemSpec) -> tuple[CoefficientSchedule, FeedbackPolicy]:
    """Solve the mean channel and, for stochastic classes, the deviation channel.

    Args:
        spec: A spec that passed validate().

    Returns:
        The coefficient schedule and the solved controller, whose gains are
        the minimizers of the two passes.

    Raises:
        NonPositiveCoefficient: If a weight has the wrong sign (see the
            module docstring); checked before either pass.
        ValueError: If a stochastic spec breaks a class rule (model._class_rules).
        MissingMoment: If a required noise moment is unavailable.
        NonFiniteCoefficient: If a coefficient or gain overflows.
    """
    _check_signs(spec)
    klass = spec.problem_class
    alpha_bar, k_mean = _power_channel(
        spec.a_bar, spec.b_bar, spec.q_bar, spec.q_bar_terminal, spec.r_bar, spec.p,
        name="alpha_bar",
    )
    alpha = k_dev = gamma_bar = None
    if klass is not ProblemClass.DETERMINISTIC:
        broken = _class_rules(spec).failures
        if broken:
            raise ValueError(f"{broken[0].name} fails: {broken[0].detail}")
        m = spec.noise_moment(2 * spec.o)
        alpha, k_dev = _power_channel(
            spec.a, spec.b, spec.q, spec.q_terminal, spec.r, spec.o,
            m=m if klass is ProblemClass.HIGHER_MOMENT else 1.0,
            offset=m if klass is ProblemClass.MULT_STATE else 0.0,
        )
        if klass is ProblemClass.ADDITIVE:
            gamma_bar = [0.0] * len(alpha)
            for k in reversed(range(len(k_dev))):
                gamma_bar[k] = gamma_bar[k + 1] + alpha[k + 1] * m

    schedule = CoefficientSchedule(
        problem_class=klass, p=spec.p, o=spec.o,
        alpha_bar=alpha_bar, alpha=alpha, gamma_bar=gamma_bar,
    )
    return schedule, FeedbackPolicy(k_mean=k_mean, k_dev=k_dev)

