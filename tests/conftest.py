"""Shared test fixtures."""

from dataclasses import replace

import pytest

from hocs import signed_root, solve


def _literal_solve(spec):
    """solve(spec) on a higher-moment spec, with its deviation channel mispriced.

    The deviation pass is redone with the noise moment M = E[eps^(2o)] kept
    in the completion constant c[k] but dropped from the propagated term:

        alpha[k] = q[k] + r[k] k_dev[k]**(2o) + alpha[k+1] (a[k] - b[k] k_dev[k])**(2o)

    It coincides with solve() iff M = 1; otherwise it is the variant the
    Monte-Carlo oracle exists to reject.
    """
    schedule, gains = solve(spec)
    two_o = 2 * spec.o
    m = spec.noise_moment(two_o)
    a, b, q, r = spec.a, spec.b, spec.q, spec.r
    n = spec.n_steps
    alpha, k_dev = [0.0] * (n + 1), [0.0] * n
    alpha[n] = spec.q_terminal
    for k in reversed(range(n)):
        c = signed_root(alpha[k + 1] * b[k] * m / r[k], two_o - 1)
        k_dev[k] = c * a[k] / (1.0 + c * b[k])
        closed_loop = a[k] - b[k] * k_dev[k]
        alpha[k] = q[k] + r[k] * k_dev[k] ** two_o + alpha[k + 1] * closed_loop ** two_o
    return replace(schedule, alpha=alpha), replace(gains, k_dev=k_dev)


@pytest.fixture
def literal_solve():
    """The moment-free recursion variant, as a function of the spec."""
    return _literal_solve
