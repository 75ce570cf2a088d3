"""The classical Riccati reference behind acceptance criterion 3.

It solves the p = 1 mean channel by the Riccati difference equation, with no
code shared with the general-power solver it cross-checks. No command calls
it, so it lives with the tests.
"""

from hocs import CoefficientSchedule, ProblemSpec


def riccati_lqr(spec: ProblemSpec) -> CoefficientSchedule:
    """Independent p = 1 reference: the classical Riccati difference equation.

    Implements alpha_bar[k] = q_bar[k] + alpha_bar[k+1] a_bar[k]^2 r_bar[k] /
    (r_bar[k] + alpha_bar[k+1] b_bar[k]^2) directly, without reusing the
    general-power solver, to cross-check the p = 1 reduction.
    """
    if spec.p != 1:
        raise ValueError(f"the Riccati reference applies to p = 1 only, got p={spec.p}")
    n = spec.n_steps
    a_bar, b_bar, q_bar, r_bar = spec.a_bar, spec.b_bar, spec.q_bar, spec.r_bar

    alpha_bar = [0.0] * (n + 1)
    alpha_bar[n] = spec.q_bar_terminal
    for k in reversed(range(n)):
        alpha_bar[k] = q_bar[k] + (
            alpha_bar[k + 1] * a_bar[k] ** 2 * r_bar[k]
            / (r_bar[k] + alpha_bar[k + 1] * b_bar[k] ** 2)
        )

    return CoefficientSchedule(
        problem_class=spec.problem_class,
        p=spec.p,
        o=spec.o,
        alpha_bar=tuple(alpha_bar),
    )
