"""Feedback-law evaluation: solved gains and the fixed sign controller.

The solved controller is affine in the state decomposition,

    u[k] = -k_dev[k] (x[k] - xbar[k]) - k_mean[k] xbar[k],

with the deviation term absent for the deterministic class. One hand-picked
reference controller is provided for performance comparisons: a bang-bang
sign controller u = -3 sgn(xbar - x) - 3 sgn(xbar) (five possible actions,
with sgn(0) = 0). A fixed linear feedback is a FeedbackPolicy of constant gains.

Everything here is a pure function of its inputs and vectorized in x, so the
simulator can evaluate whole path ensembles at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .model import IndexOutOfRange, _is_integer
from .recursion import GainSchedule

__all__ = [
    "Policy",
    "FeedbackPolicy",
    "BaselinePolicy",
]

ArrayLike = Union[float, np.ndarray]


def _check_step(k: int, n_steps: int) -> None:
    """Refuse a step outside 0..n_steps-1 or not an integer, by the model's integer type rule."""
    if not _is_integer(k) or not 0 <= k < n_steps:
        raise IndexOutOfRange(f"step {k} outside control range 0..{n_steps - 1}")


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
    """The sign controller, applicable to any horizon.

    It returns -3 sgn(xbar - x) - 3 sgn(xbar), vectorized in x, so its output
    is always one of {-6, -3, 0, 3, 6}.
    """

    def control(self, k: int, x: ArrayLike, x_bar: float) -> ArrayLike:
        return -3.0 * np.sign(x_bar - x) - 3.0 * np.sign(x_bar)
