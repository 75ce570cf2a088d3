"""Shared test fixtures."""

from dataclasses import replace

import pytest

from hocs import InitialLaw, ProblemSpec, signed_root, solve

pytest_plugins = ["pytester"]


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


def _random_deterministic_spec(rng):
    """A deterministic spec of criterion 2's family: N in 1..10, p in 1..3, signed
    dynamics and positive weights, all drawn from ``rng``."""
    n = int(rng.integers(1, 11))
    p = int(rng.integers(1, 4))

    def draw(size=None):
        magnitude = rng.uniform(0.1, 5.0, size)
        return magnitude * rng.choice([-1.0, 1.0], size=size)

    return ProblemSpec(
        "deterministic", n,
        a_bar=list(draw(n)), b_bar=list(draw(n)),
        q_bar=list(rng.uniform(0.1, 5.0, n)),
        q_bar_terminal=float(rng.uniform(0.1, 5.0)),
        r_bar=list(rng.uniform(0.1, 5.0, n)),
        p=p,
        initial=InitialLaw(mean=float(draw())),
    )


@pytest.fixture
def random_deterministic_spec():
    """The random deterministic spec generator, as a function of a numpy Generator."""
    return _random_deterministic_spec
