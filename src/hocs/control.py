"""Feedback-law evaluation: solved gains and the two fixed reference policies.

The solved controller is affine in the state decomposition,

    u[k] = -k_dev[k] (x[k] - xbar[k]) - k_mean[k] xbar[k],

with the deviation term absent for the deterministic class. Two hand-picked
reference controllers are provided for performance comparisons: a bang-bang
sign controller u = -3 sgn(xbar - x) - 3 sgn(xbar) (five possible actions,
with sgn(0) = 0) and a fixed linear feedback u = -3 (xbar - x) - 3 xbar.

Everything here is a pure function of its inputs and vectorized in x, so the
simulator can evaluate whole path ensembles at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .model import IndexOutOfRange
from .recursion import GainSchedule

__all__ = [
    "BaselineKind",
    "Policy",
    "FeedbackPolicy",
    "BaselinePolicy",
]

ArrayLike = Union[float, np.ndarray]


def _check_step(k: int, n_steps: int) -> None:
    if not 0 <= k < n_steps:
        raise IndexOutOfRange(f"step {k} outside control range 0..{n_steps - 1}")


class BaselineKind(Enum):
    """Which fixed reference controller to apply."""

    SIGN_CONTROLLER = "sign_controller"
    LINEAR_FEEDBACK = "linear_feedback"


class Policy:
    """A state-feedback rule the simulator can roll out.

    ``control`` maps (k, x, xbar) to u, vectorized in x; ``mean_control`` is
    the policy applied at the mean itself, which is how the mean path is
    propagated. ``n_steps`` is the horizon the policy was built for, or None
    when it applies to any horizon.
    """

    @property
    def n_steps(self) -> int | None:
        return None

    def control(self, k: int, x: ArrayLike, x_bar: float) -> ArrayLike:
        raise NotImplementedError

    def mean_control(self, k: int, x_bar: float) -> float:
        return float(self.control(k, np.asarray(x_bar), x_bar))


@dataclass(frozen=True)
class FeedbackPolicy(Policy):
    """The solved affine controller for a specific gain schedule."""

    gains: GainSchedule

    @property
    def n_steps(self) -> int | None:
        return self.gains.n_steps

    def control(self, k: int, x: ArrayLike, x_bar: float) -> ArrayLike:
        _check_step(k, self.gains.n_steps)
        k_dev = 0.0 if self.gains.k_dev is None else self.gains.k_dev[k]
        return -k_dev * (x - x_bar) - self.gains.k_mean[k] * x_bar

    def mean_control(self, k: int, x_bar: float) -> float:
        _check_step(k, self.gains.n_steps)
        return -self.gains.k_mean[k] * x_bar


@dataclass(frozen=True)
class BaselinePolicy(Policy):
    """A fixed reference controller, applicable to any horizon.

    SIGN_CONTROLLER returns -3 sgn(xbar - x) - 3 sgn(xbar), so its output is
    always one of {-6, -3, 0, 3, 6}; LINEAR_FEEDBACK returns
    -3 (xbar - x) - 3 xbar. Both are vectorized in x.
    """

    kind: BaselineKind

    def control(self, k: int, x: ArrayLike, x_bar: float) -> ArrayLike:
        if self.kind is BaselineKind.SIGN_CONTROLLER:
            return -3.0 * np.sign(x_bar - x) - 3.0 * np.sign(x_bar)
        if self.kind is BaselineKind.LINEAR_FEEDBACK:
            return -3.0 * (x_bar - x) - 3.0 * x_bar
        raise ValueError(f"unknown baseline kind {self.kind!r}")
