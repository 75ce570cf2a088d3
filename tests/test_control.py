"""Tests for feedback laws, the sign controller and the constant-gain linear baseline."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hocs import (
    BaselinePolicy,
    FeedbackPolicy,
    IndexOutOfRange,
)

POLICY = FeedbackPolicy(k_mean=(0.25, 0.5), k_dev=(0.5, 0.25))
# The KPI study's linear baseline u = -3 (x_bar - x) - 3 x_bar, as constant gains.
LINEAR = FeedbackPolicy(k_mean=(3.0,), k_dev=(-3.0,))


def test_control_action_desk_value():
    assert math.isclose(POLICY.mean_control(0, x_bar=1.0), -0.25, rel_tol=1e-15)
    assert math.isclose(POLICY.control(0, x=2.0, x_bar=1.0), -0.75, rel_tol=1e-15)


def test_control_action_zero_state_gives_zero_control():
    assert POLICY.control(1, x=0.0, x_bar=0.0) == 0.0
    assert POLICY.mean_control(1, x_bar=0.0) == 0.0


def test_control_action_without_deviation_gain():
    policy = FeedbackPolicy(k_mean=(0.25,))
    # No deviation channel: the control ignores x - x_bar entirely.
    assert policy.control(0, x=5.0, x_bar=2.0) == policy.mean_control(0, x_bar=2.0) == -0.5


def test_control_action_step_bounds():
    with pytest.raises(IndexOutOfRange):
        POLICY.control(2, x=1.0, x_bar=1.0)
    with pytest.raises(IndexOutOfRange):
        POLICY.mean_control(-1, x_bar=1.0)


@given(
    x=st.floats(min_value=-1e6, max_value=1e6),
    x_bar=st.floats(min_value=-1e6, max_value=1e6),
)
def test_control_action_is_odd(x, x_bar):
    assert POLICY.control(0, -x, -x_bar) == -POLICY.control(0, x, x_bar)
    assert POLICY.mean_control(0, -x_bar) == -POLICY.mean_control(0, x_bar)


def test_sign_baseline_desk_value():
    # -3 sign(x_bar - x) - 3 sign(x_bar): the two terms cancel here.
    assert BaselinePolicy().control(0, 5.0, 2.0) == 0.0
    assert BaselinePolicy().control(0, 0.0, 2.0) == -6.0


def test_sign_baseline_range_is_exact():
    rng = np.random.default_rng(5)
    x = rng.normal(0.0, 3.0, 500)
    x_bar = float(rng.normal())
    values = np.asarray(BaselinePolicy().control(0, x, x_bar))
    assert set(np.unique(values)) <= {-6.0, -3.0, 0.0, 3.0, 6.0}


def test_linear_baseline_desk_value():
    assert LINEAR.control(0, 1.0, 1.0) == -3.0
    # -3 (x_bar - x) - 3 x_bar = 3 x - 6 x_bar.
    assert LINEAR.control(0, 2.0, 0.5) == 3.0


@given(
    x=st.floats(min_value=-1e3, max_value=1e3),
    x_bar=st.floats(min_value=-1e3, max_value=1e3),
)
def test_baselines_are_odd(x, x_bar):
    for policy in (BaselinePolicy(), LINEAR):
        plus = float(policy.control(0, x, x_bar))
        minus = float(policy.control(0, -x, -x_bar))
        assert minus == -plus


def test_feedback_policy_matches_control_action():
    # The vectorized rule equals the control law u = u_bar - k_dev (x - x_bar),
    # u_bar = -k_mean x_bar, written out per path.
    assert POLICY.n_steps == 2
    x = np.array([1.0, -2.0, 0.5])
    out = POLICY.control(1, x, x_bar=0.5)
    u_bar = -POLICY.k_mean[1] * 0.5
    expected = [u_bar - POLICY.k_dev[1] * (float(v) - 0.5) for v in x]
    np.testing.assert_allclose(out, expected, rtol=0, atol=0)
    assert POLICY.mean_control(1, 0.5) == u_bar


def test_feedback_policy_checks_step():
    with pytest.raises(IndexOutOfRange):
        POLICY.control(7, np.zeros(2), 0.0)


@pytest.mark.parametrize("k", [1.0, True, np.float64(1.0), np.True_],
                         ids=["float", "bool", "numpy-float", "numpy-bool"])
def test_step_index_must_be_an_int(k):
    with pytest.raises(IndexOutOfRange):
        POLICY.control(k, 1.0, 1.0)
    with pytest.raises(IndexOutOfRange):
        POLICY.mean_control(k, 1.0)


def test_step_index_may_be_a_numpy_integer():
    assert POLICY.control(np.int64(1), 1.0, 1.0) == POLICY.control(1, 1.0, 1.0)
    assert POLICY.mean_control(np.int32(1), 1.0) == POLICY.mean_control(1, 1.0)


def test_baseline_policy_object_has_open_horizon():
    policy = BaselinePolicy()
    assert policy.n_steps is None
    out = policy.control(123, np.array([0.0]), 2.0)
    assert float(np.asarray(out)[0]) == -6.0
