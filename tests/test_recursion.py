"""Tests for the backward coefficient recursions and gain schedules."""

import math

import numpy as np
import pytest

from hocs import (
    CoefficientSchedule,
    GainSchedule,
    Gaussian,
    InitialLaw,
    NoiseKind,
    NoiseSpec,
    NonFiniteCoefficient,
    NonPositiveCoefficient,
    ProblemClass,
    Rademacher,
    build_problem,
    example_config,
    riccati_lqr,
    solve,
)


def _det_spec(n, a_bar, b_bar, q_bar, q_bar_terminal, r_bar, p, mean=1.0):
    return build_problem(
        "deterministic", n,
        a_bar=a_bar, b_bar=b_bar, q_bar=q_bar, q_bar_terminal=q_bar_terminal,
        r_bar=r_bar, p=p, initial=InitialLaw(mean=mean),
    )


# --------------------------------------------------------------------------
# Mean channel desk checks
# --------------------------------------------------------------------------

def test_one_step_quartic_desk_values():
    # q_bar_0 = 0, q_bar_N = r_bar = a_bar = b_bar = 1, p = 2:
    # c = 1, gain = 1/2, alpha_bar_0 = 1/16 + 1/16 = 1/8.
    spec = _det_spec(1, 1.0, 1.0, [0.0], 1.0, 1.0, p=2)
    schedule, gains = solve(spec)
    assert math.isclose(gains.k_mean[0], 0.5, rel_tol=1e-14)
    assert math.isclose(schedule.alpha_bar[0], 0.125, rel_tol=1e-14)
    assert schedule.alpha_bar[1] == 1.0


def test_one_step_all_ones_lqr_desk_value():
    spec = _det_spec(1, 1.0, 1.0, 1.0, 1.0, 1.0, p=1)
    schedule, gains = solve(spec)
    assert math.isclose(schedule.alpha_bar[0], 1.5, rel_tol=1e-14)
    assert math.isclose(gains.k_mean[0], 0.5, rel_tol=1e-14)
    riccati = riccati_lqr(spec)
    assert math.isclose(riccati.alpha_bar[0], 1.5, rel_tol=1e-14)


def test_riccati_reference_handles_zero_state_weights():
    spec = build_problem(
        "deterministic", 3,
        a_bar=1.0, b_bar=1.0, q_bar=0.0, q_bar_terminal=0.0, r_bar=1.0, p=1,
        initial=InitialLaw(mean=1.0),
    )
    schedule = riccati_lqr(spec)
    assert all(v == 0.0 for v in schedule.alpha_bar)


def test_riccati_reference_rejects_higher_powers():
    spec = _det_spec(2, 1.0, 1.0, 1.0, 1.0, 1.0, p=2)
    with pytest.raises(ValueError):
        riccati_lqr(spec)


def test_zero_terminal_weight_raises():
    spec = build_problem(
        "deterministic", 2,
        a_bar=1.0, b_bar=1.0, q_bar=1.0, q_bar_terminal=0.0, r_bar=1.0, p=1,
        initial=InitialLaw(mean=1.0),
    )
    with pytest.raises(NonPositiveCoefficient):
        solve(spec)


def test_power_one_matches_riccati_on_random_problems():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        spec = _det_spec(
            n,
            a_bar=list(rng.uniform(0.2, 2.0, n)),
            b_bar=list(rng.uniform(0.2, 2.0, n)),
            q_bar=list(rng.uniform(0.1, 3.0, n)),
            q_bar_terminal=float(rng.uniform(0.1, 3.0)),
            r_bar=list(rng.uniform(0.1, 3.0, n)),
            p=1,
        )
        schedule, _ = solve(spec)
        riccati = riccati_lqr(spec)
        np.testing.assert_allclose(schedule.alpha_bar, riccati.alpha_bar, rtol=1e-12)


def test_mean_gain_stationarity_identity():
    # At the optimizing gain, r_bar k**(2p-1) = alpha_bar[k+1] b_bar
    # (a_bar - b_bar k)**(2p-1) holds exactly; it is how the gain is built.
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        p = int(rng.integers(1, 4))
        spec = _det_spec(
            n,
            a_bar=list(rng.uniform(0.2, 2.0, n) * rng.choice([-1.0, 1.0], n)),
            b_bar=list(rng.uniform(0.2, 2.0, n) * rng.choice([-1.0, 1.0], n)),
            q_bar=list(rng.uniform(0.1, 3.0, n)),
            q_bar_terminal=float(rng.uniform(0.1, 3.0)),
            r_bar=list(rng.uniform(0.1, 3.0, n)),
            p=p,
        )
        schedule, gains = solve(spec)
        for k in range(n):
            a, b = spec.mean_dyn.a_bar[k], spec.mean_dyn.b_bar[k]
            lhs = spec.cost.r_bar[k] * gains.k_mean[k] ** (2 * p - 1)
            rhs = schedule.alpha_bar[k + 1] * b * (a - b * gains.k_mean[k]) ** (2 * p - 1)
            assert math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-14)


def test_uncontrollable_step_gets_zero_gain():
    spec = build_problem(
        "deterministic", 2,
        a_bar=1.0, b_bar=[1.0, 0.0], q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0,
        p=2, initial=InitialLaw(mean=1.0), allow_uncontrollable=True,
    )
    _, gains = solve(spec)
    assert gains.k_mean[1] == 0.0


def test_one_step_gain_beats_grid_scan():
    # One-step problems have a scannable scalar objective; the closed-form
    # control must sit at (or below, within rounding) the grid minimum.
    rng = np.random.default_rng(99)
    for _ in range(200):
        p = int(rng.integers(1, 4))
        a = float(rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0]))
        b = float(rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0]))
        q0 = float(rng.uniform(0.1, 3.0))
        qn = float(rng.uniform(0.1, 3.0))
        r = float(rng.uniform(0.1, 3.0))
        x0 = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
        spec = _det_spec(1, a, b, [q0], qn, [r], p=p, mean=x0)
        _, gains = solve(spec)

        def cost(u):
            return q0 * x0 ** (2 * p) + r * u ** (2 * p) + qn * (a * x0 + b * u) ** (2 * p)

        u_closed = -gains.k_mean[0] * x0
        bound = 4.0 * (1.0 + abs(x0)) * (1.0 + abs(a))
        grid = np.linspace(-bound, bound, 4001)
        grid_min = min(cost(u) for u in grid)
        j_closed = cost(u_closed)
        assert j_closed <= grid_min + 1e-12 * max(1.0, abs(j_closed))


# --------------------------------------------------------------------------
# Additive-noise channel
# --------------------------------------------------------------------------

def _additive_spec(n, q, q_terminal, r, sigma=1.0, **mean_kwargs):
    defaults = dict(a_bar=1.0, b_bar=1.0, q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=1)
    defaults.update(mean_kwargs)
    return build_problem(
        "additive", n, q=q, q_terminal=q_terminal, r=r,
        noise=NoiseSpec(kind=NoiseKind.ADDITIVE, distribution=Gaussian(sigma=sigma)),
        initial=InitialLaw(mean=1.0), **defaults,
    )


def test_additive_one_step_desk_values():
    spec = _additive_spec(1, q=[0.0], q_terminal=1.0, r=[1.0])
    schedule, gains = solve(spec)
    assert math.isclose(gains.k_dev[0], 0.5, rel_tol=1e-14)
    # alpha_0 = 0 + 1*(1/2)^2 + 1*(1/2)^2 = 1/2; offset picks up alpha_1 m2.
    assert math.isclose(schedule.alpha[0], 0.5, rel_tol=1e-14)
    assert schedule.gamma_bar == (1.0, 0.0)


def test_additive_offset_vanishes_without_noise_power():
    spec = build_problem(
        "additive", 4,
        a_bar=1.0, b_bar=1.0, q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=1,
        q=1.0, q_terminal=1.0, r=1.0,
        noise=NoiseSpec(kind=NoiseKind.ADDITIVE, moment_override={2: 0.0}),
        initial=InitialLaw(mean=1.0),
    )
    schedule, _ = solve(spec)
    assert all(v == 0.0 for v in schedule.gamma_bar)


def test_additive_offset_is_monotone_backward():
    spec = _additive_spec(6, q=2.0, q_terminal=2.0, r=1.0, sigma=0.7)
    schedule, _ = solve(spec)
    g = schedule.gamma_bar
    assert g[6] == 0.0
    for k in range(6):
        assert g[k] >= g[k + 1]


def test_additive_channels_coincide_when_weights_match():
    # With p = 1 and identical weights the mean and deviation recursions are
    # the same map, so the schedules must agree.
    spec = _additive_spec(5, q=[2.0, 1.0, 3.0, 0.5, 1.5], q_terminal=2.5,
                          r=[1.0, 2.0, 0.5, 1.0, 3.0],
                          q_bar=[2.0, 1.0, 3.0, 0.5, 1.5], q_bar_terminal=2.5,
                          r_bar=[1.0, 2.0, 0.5, 1.0, 3.0],
                          a_bar=[1.0, 0.8, 1.2, 0.9, 1.1], b_bar=[1.0, 1.5, 0.7, 1.0, 0.6])
    schedule, gains = solve(spec)
    np.testing.assert_allclose(schedule.alpha, schedule.alpha_bar, rtol=1e-12)
    np.testing.assert_allclose(gains.k_dev, gains.k_mean, rtol=1e-12)


# --------------------------------------------------------------------------
# Multiplicative-state channel
# --------------------------------------------------------------------------

def test_mult_state_one_step_desk_value():
    spec = build_problem(
        "mult_state", 1,
        a_bar=1.0, b_bar=1.0, q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=1,
        q=[2.0], q_terminal=1.0, r=[1.0],
        noise=NoiseSpec(kind=NoiseKind.MULT_STATE, distribution=Gaussian(sigma=1.0)),
        initial=InitialLaw(mean=1.0),
    )
    schedule, gains = solve(spec)
    assert math.isclose(gains.k_dev[0], 0.5, rel_tol=1e-14)
    # alpha_0 = q_0 + r k^2 + alpha_1 ((a - b k)^2 + E[eps^2]) = 2 + 1.5.
    assert math.isclose(schedule.alpha[0], 3.5, rel_tol=1e-14)
    assert schedule.gamma_bar is None


def test_mult_state_with_zero_noise_power_matches_additive():
    kwargs = dict(
        a_bar=1.3, b_bar=0.9, q_bar=1.0, q_bar_terminal=1.0, r_bar=2.0, p=1,
        q=1.5, q_terminal=1.5, r=0.8, initial=InitialLaw(mean=1.0),
    )
    mult = build_problem(
        "mult_state", 5,
        noise=NoiseSpec(kind=NoiseKind.MULT_STATE, moment_override={2: 0.0}),
        **kwargs,
    )
    add = build_problem(
        "additive", 5,
        noise=NoiseSpec(kind=NoiseKind.ADDITIVE, moment_override={2: 0.0}),
        **kwargs,
    )
    mult_schedule, mult_gains = solve(mult)
    add_schedule, add_gains = solve(add)
    np.testing.assert_allclose(mult_schedule.alpha, add_schedule.alpha, rtol=1e-14)
    np.testing.assert_allclose(mult_gains.k_dev, add_gains.k_dev, rtol=1e-14)


def test_mult_state_zero_deviation_weights_stay_zero():
    spec = build_problem(
        "mult_state", 4,
        a_bar=1.0, b_bar=1.0, q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=1,
        q=0.0, q_terminal=0.0, r=1.0,
        noise=NoiseSpec(kind=NoiseKind.MULT_STATE, distribution=Gaussian(sigma=1.0)),
        initial=InitialLaw(mean=1.0),
    )
    schedule, gains = solve(spec)
    assert all(v == 0.0 for v in schedule.alpha)
    assert all(v == 0.0 for v in gains.k_dev)


# --------------------------------------------------------------------------
# Higher-moment channel
# --------------------------------------------------------------------------

def _higher_spec(n, o, dist, p=2, **overrides):
    kwargs = dict(
        a_bar=1.0, b_bar=1.0, q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=p,
        a=0.5, b=0.5, q=1.0, q_terminal=1.0, r=1.0, o=o,
        noise=NoiseSpec(kind=NoiseKind.MULT_MEAN_FIELD, distribution=dist),
        initial=InitialLaw(mean=1.0),
    )
    kwargs.update(overrides)
    return build_problem("higher_moment", n, **kwargs)


def test_higher_moment_one_step_desk_value():
    # o = 2, unit Gaussian: m4 = 3, c = 3**(1/3), gain = c/(1 + c) with a = b = 1.
    spec = _higher_spec(1, o=2, dist=Gaussian(sigma=1.0), a=1.0, b=1.0,
                        q=[0.0], q_terminal=1.0, r=[1.0])
    _, gains = solve(spec)
    c = 3.0 ** (1.0 / 3.0)
    assert math.isclose(gains.k_dev[0], c / (1.0 + c), rel_tol=1e-13)


def test_higher_moment_dev_gain_stationarity():
    spec = _higher_spec(6, o=3, dist=Gaussian(sigma=0.8), p=2)
    schedule, gains = solve(spec)
    m = spec.noise.even_moment(6)
    o = spec.cost.o
    for k in range(spec.n_steps):
        a, b = spec.dev_dyn.a[k], spec.dev_dyn.b[k]
        lhs = spec.cost.r[k] * gains.k_dev[k] ** (2 * o - 1)
        rhs = schedule.alpha[k + 1] * m * b * (a - b * gains.k_dev[k]) ** (2 * o - 1)
        assert math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-14)


def test_higher_moment_order_one_reduces_to_scaled_riccati():
    # With o = 1 the deviation recursion is the Riccati map on the noise-scaled
    # dynamics (a*sigma, b*sigma), which the p = 1 mean channel also computes.
    sigma = 0.9
    spec = _higher_spec(5, o=1, dist=Gaussian(sigma=sigma), p=1,
                        a=0.7, b=1.1, q=1.3, q_terminal=1.3, r=0.6)
    schedule, _ = solve(spec)
    reference = build_problem(
        "deterministic", 5,
        a_bar=0.7 * sigma, b_bar=1.1 * sigma,
        q_bar=1.3, q_bar_terminal=1.3, r_bar=0.6, p=1,
        initial=InitialLaw(mean=1.0),
    )
    np.testing.assert_allclose(schedule.alpha, riccati_lqr(reference).alpha_bar, rtol=1e-12)


def test_higher_moment_zero_deviation_weights_stay_zero():
    spec = _higher_spec(4, o=2, dist=Gaussian(sigma=1.0), q=0.0, q_terminal=0.0)
    schedule, gains = solve(spec)
    assert all(v == 0.0 for v in schedule.alpha)
    assert all(v == 0.0 for v in gains.k_dev)


def test_literal_recursion_matches_only_for_unit_moment():
    # Rademacher noise has every even moment equal to 1, so dropping the
    # moment factor changes nothing; unit Gaussian at o = 2 has m4 = 3 and
    # the two recursions must part ways.
    unit = _higher_spec(4, o=2, dist=Rademacher(scale=1.0))
    inclusive, _ = solve(unit)
    literal, _ = solve(unit, literal_recursion=True)
    np.testing.assert_allclose(inclusive.alpha, literal.alpha, rtol=1e-14)

    gaussian = _higher_spec(4, o=2, dist=Gaussian(sigma=1.0))
    inclusive, _ = solve(gaussian)
    literal, _ = solve(gaussian, literal_recursion=True)
    assert not math.isclose(inclusive.alpha[0], literal.alpha[0], rel_tol=1e-3)


@pytest.mark.parametrize("p, expected", [(1, 1.5), (2, 1.125), (3, 1.03125)])
def test_symmetric_unit_problem_penultimate_mean_coefficient(p, expected):
    # With all-ones mean data, alpha_bar[N-1] = 1 + 2**(1 - 2p) exactly.
    spec = example_config(4, p).problem
    schedule, _ = solve(spec)
    assert math.isclose(schedule.alpha_bar[spec.n_steps - 1], expected, rel_tol=1e-14)


def test_one_step_dev_gain_beats_grid_scan():
    rng = np.random.default_rng(123)
    for _ in range(40):
        o = int(rng.integers(1, 4))
        a = float(rng.uniform(0.1, 2.0))
        b = float(rng.uniform(0.1, 2.0))
        qn = float(rng.uniform(0.1, 3.0))
        r = float(rng.uniform(0.1, 3.0))
        sigma = float(rng.uniform(0.5, 1.5))
        spec = _higher_spec(1, o=o, dist=Gaussian(sigma=sigma), p=1,
                            a=a, b=b, q=[0.0], q_terminal=qn, r=[r])
        _, gains = solve(spec)
        m = spec.noise.even_moment(2 * o)

        def cost(w):
            # Deviation cost given unit deviation: the noise moment factors
            # out of the terminal term.
            return r * w ** (2 * o) + qn * m * (a + b * w) ** (2 * o)

        w_closed = -gains.k_dev[0]
        bound = 4.0 * (1.0 + a)
        grid_min = min(cost(w) for w in np.linspace(-bound, bound, 4001))
        assert cost(w_closed) <= grid_min + 1e-12 * max(1.0, cost(w_closed))


# --------------------------------------------------------------------------
# Schedule containers and dispatch
# --------------------------------------------------------------------------

def _mult_state_desk_spec():
    return build_problem(
        "mult_state", 1,
        a_bar=1.0, b_bar=1.0, q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=1,
        q=[2.0], q_terminal=1.0, r=[1.0],
        noise=NoiseSpec(kind=NoiseKind.MULT_STATE, distribution=Gaussian(sigma=1.0)),
        initial=InitialLaw(mean=1.0),
    )


_C_O2 = 3.0 ** (1.0 / 3.0)
_K_O2 = _C_O2 / (1.0 + _C_O2)

# The one-step desk checks above, one per class: (spec builder, mean channel
# (k_mean, alpha_bar[0]), deviation channel (k_dev, alpha[0]) or None,
# gamma_bar or None). Unit mean data give c = 1 and k_mean = 1/2, so
# alpha_bar[0] = q_bar + 2 (1/2)**(2p).
DESK_CASES = {
    "deterministic": (
        lambda: _det_spec(1, 1.0, 1.0, [0.0], 1.0, 1.0, p=2),
        (0.5, 0.125), None, None,
    ),
    "additive": (
        lambda: _additive_spec(1, q=[0.0], q_terminal=1.0, r=[1.0]),
        (0.5, 1.5), (0.5, 0.5), (1.0, 0.0),
    ),
    "mult_state": (_mult_state_desk_spec, (0.5, 1.5), (0.5, 3.5), None),
    "higher_moment": (
        lambda: _higher_spec(1, o=2, dist=Gaussian(sigma=1.0), a=1.0, b=1.0,
                             q=[0.0], q_terminal=1.0, r=[1.0]),
        (0.5, 1.125), (_K_O2, _K_O2 ** 4 + 3.0 * (1.0 - _K_O2) ** 4), None,
    ),
}


@pytest.mark.parametrize("klass", sorted(DESK_CASES))
def test_solve_table_reproduces_channel_closed_forms(klass):
    build, mean, dev, gamma_bar = DESK_CASES[klass]
    schedule, gains = solve(build())
    assert schedule.problem_class is ProblemClass(klass)
    assert math.isclose(gains.k_mean[0], mean[0], rel_tol=1e-14)
    assert math.isclose(schedule.alpha_bar[0], mean[1], rel_tol=1e-14)
    if dev is None:
        assert schedule.alpha is None and gains.k_dev is None
    else:
        assert math.isclose(gains.k_dev[0], dev[0], rel_tol=1e-13)
        assert math.isclose(schedule.alpha[0], dev[1], rel_tol=1e-13)
    assert schedule.gamma_bar == gamma_bar


def test_overflow_raises_non_finite_coefficient_naming_the_step():
    spec = _det_spec(8, 1e10, 1e-300, 1.0, 1.0, 1.0, p=3)
    with pytest.raises(NonFiniteCoefficient, match="at step"):
        solve(spec)


def test_schedule_rejects_nonfinite_entries():
    with pytest.raises(NonFiniteCoefficient, match=r"alpha\[1\]"):
        CoefficientSchedule(
            problem_class=ProblemClass.ADDITIVE, p=1, o=1,
            alpha_bar=(1.0, 1.0), alpha=(1.0, math.inf), gamma_bar=(0.0, 0.0),
        )


def test_solve_dispatches_by_class():
    for example_id, klass in ((1, ProblemClass.DETERMINISTIC), (2, ProblemClass.ADDITIVE),
                              (3, ProblemClass.MULT_STATE), (4, ProblemClass.HIGHER_MOMENT)):
        spec = example_config(example_id, 2).problem
        schedule, gains = solve(spec)
        assert schedule.problem_class is klass
        assert len(schedule.alpha_bar) == spec.n_steps + 1
        assert len(gains.k_mean) == spec.n_steps
        assert schedule.alpha_bar[spec.n_steps] == spec.cost.q_bar_terminal
        if klass is ProblemClass.DETERMINISTIC:
            assert schedule.alpha is None
            assert gains.k_dev is None
        else:
            assert schedule.alpha[spec.n_steps] == spec.cost.q_terminal
            assert len(gains.k_dev) == spec.n_steps


def test_schedule_rejects_inconsistent_lengths():
    with pytest.raises(ValueError):
        CoefficientSchedule(
            problem_class=ProblemClass.ADDITIVE, p=1, o=1,
            alpha_bar=(1.0, 1.0), alpha=(1.0,), gamma_bar=(0.0, 0.0),
        )
    schedule = CoefficientSchedule(
        problem_class=ProblemClass.DETERMINISTIC, p=1, o=1, alpha_bar=(1.0, 2.0, 3.0),
    )
    assert schedule.n_steps == 2


def test_gain_schedule_rejects_nonfinite_entries():
    with pytest.raises(ValueError):
        GainSchedule(k_mean=(float("nan"),))
