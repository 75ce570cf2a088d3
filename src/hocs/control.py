"""Feedback laws: the solved linear controller and the fixed sign controller.

The solved controller, solve()'s second output, is a FeedbackPolicy of gains,

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

from .model import IndexOutOfRange, _is_integer, _store_finite

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
    """The affine controller of finite per-step gains; k_dev is None for the deterministic class."""

    k_mean: tuple[float, ...]
    k_dev: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        _store_finite(self, "k_mean", "k_dev")

    @property
    def n_steps(self) -> int:
        return len(self.k_mean)

    def control(self, k: int, x: ArrayLike, x_bar: float) -> ArrayLike:
        _check_step(k, len(self.k_mean))
        k_dev = 0.0 if self.k_dev is None else self.k_dev[k]
        return -k_dev * (x - x_bar) - self.k_mean[k] * x_bar

    def mean_control(self, k: int, x_bar: float) -> float:
        _check_step(k, len(self.k_mean))
        return -self.k_mean[k] * x_bar


@dataclass(frozen=True)
class BaselinePolicy(Policy):
    """The sign controller, applicable to any horizon.

    It returns -3 sgn(xbar - x) - 3 sgn(xbar), vectorized in x, so its output
    is always one of {-6, -3, 0, 3, 6}.
    """

    def control(self, k: int, x: ArrayLike, x_bar: float) -> ArrayLike:
        return -3.0 * np.sign(x_bar - x) - 3.0 * np.sign(x_bar)
