"""Tests for the backward coefficient recursions and gain schedules."""

import hashlib
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hocs import (
    CoefficientSchedule,
    FeedbackPolicy,
    Gaussian,
    InitialLaw,
    InvalidProblem,
    Moments,
    NonFiniteCoefficient,
    ProblemClass,
    ProblemSpec,
    Rademacher,
    UniformSymmetric,
    example_config,
    predicted_cost,
    solve,
    validate,
)
from hocs.model import _PER_STEP_FIELDS

from riccati import riccati_lqr


def _det_spec(n, a_bar, b_bar, q_bar, q_bar_terminal, r_bar, p, mean=1.0):
    return ProblemSpec(
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
    spec = ProblemSpec(
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
    spec = ProblemSpec(
        "deterministic", 2,
        a_bar=1.0, b_bar=1.0, q_bar=1.0, q_bar_terminal=0.0, r_bar=1.0, p=1,
        initial=InitialLaw(mean=1.0),
    )
    with pytest.raises(InvalidProblem, match=r"^mean weight signs \(q_bar_terminal = 0.0; needs > 0\)$"):
        solve(spec)


def _sign_gate_spec(**overrides):
    weights = dict(q_bar=2.0, q_bar_terminal=2.0, r_bar=3.0, q=4.0, q_terminal=4.0, r=5.0)
    weights.update(overrides)
    return ProblemSpec(
        "additive", 3, a_bar=2.0, b_bar=3.0, p=2,
        noise=Gaussian(sigma=1.0),
        initial=InitialLaw(mean=1.0),
        **{key: value for key, value in weights.items() if value is not None},
    )


@pytest.mark.parametrize("overrides,label", [
    ({"r": 0.0}, "r[0]"),
    ({"r": None}, "r[0]"),  # ProblemSpec's default r = 0.0
    ({"r_bar": [3.0, -1.0, 3.0]}, "r_bar[1]"),
    ({"q_bar": [2.0, 2.0, -1.0]}, "q_bar[2]"),
    ({"q": -0.01}, "q[0]"),
    ({"q_terminal": -0.5}, "q_terminal"),
])
def test_weight_of_the_wrong_sign_raises_before_the_pass(overrides, label):
    with pytest.raises(InvalidProblem, match=rf"^\w+ weight signs \({re.escape(label)} = "):
        solve(_sign_gate_spec(**overrides))


def test_zero_state_weight_over_a_zero_step_gives_a_zero_coefficient():
    # q_bar[1] = a_bar[1] = 0: nothing after step 1 costs anything, so
    # alpha_bar[1] = 0 is the true cost-to-go and step 0 applies no control.
    spec = _det_spec(2, [1.0, 0.0], 1.0, [1.0, 0.0], 1.0, 1.0, p=1)
    schedule, gains = solve(spec)
    assert schedule.alpha_bar == (1.0, 0.0, 1.0)
    assert gains.k_mean == (0.0, 0.0)


# The weight-sign rule, written out here apart from the package's table: (field, validate's row, whether it must be > 0).
_SIGN_RULE = [
    ("q_bar", "mean", False), ("q_bar_terminal", "mean", True), ("r_bar", "mean", True),
    ("q", "deviation", False), ("q_terminal", "deviation", False), ("r", "deviation", True),
]


@pytest.mark.parametrize("value", [-1.0, 0.0], ids=["negative", "zero"])
@pytest.mark.parametrize("field,row,strict", _SIGN_RULE, ids=[f for f, _, _ in _SIGN_RULE])
def test_validate_and_solve_read_one_sign_rule(field, row, strict, value):
    spec = _sign_gate_spec(**{field: value})
    report = validate(spec)
    if value < 0.0 or strict:
        where = "" if field.endswith("terminal") else "[0]"
        need = "> 0" if strict else ">= 0"
        assert [(check.name, check.detail) for check in report.failures] == [
            (f"{row} weight signs", f"{field}{where} = {value}; needs {need}")]
        with pytest.raises(InvalidProblem) as info:
            solve(spec)
        assert info.value.report == report
    else:
        assert report.ok
        solve(spec)


def test_zero_state_weights_validate_and_solve():
    spec = ProblemSpec("additive", 3, a_bar=1.0, b_bar=1.0, q_bar=0.0, q_bar_terminal=1.0,
                       r_bar=1.0, p=1, q=0.0, q_terminal=0.0, r=1.0, noise=Gaussian(sigma=1.0),
                       initial=InitialLaw(mean=1.0))
    assert validate(spec).ok
    _, gains = solve(spec)
    assert gains.k_mean == (0.25, 1.0 / 3.0, 0.5)
    assert gains.k_dev == (0.0, 0.0, 0.0)


# One deviation pass serves every stochastic class only under validate's class
# rules. Priced anyway, the additive spec with a = 0.1 came to 15.2 where 200,000
# simulated paths realize 98.2 +- 0.3, and with o = 2 to 42.3 against 50.9 +- 0.2.
@pytest.mark.parametrize("klass", ["additive", "mult_state"])
@pytest.mark.parametrize("overrides,rule", [
    ({"a": 0.1}, "deviation dynamics equal mean dynamics"),
    ({"o": 2}, "moment power o = 1"),
], ids=["a", "o"])
def test_validate_and_solve_read_one_class_rule(klass, overrides, rule):
    spec = replace(_sign_gate_spec(), problem_class=klass, p=1, **overrides)
    report = validate(spec)
    assert [check.name for check in report.failures] == [rule]
    with pytest.raises(InvalidProblem, match=rf"^{re.escape(rule)} \(") as info:
        solve(spec)
    assert info.value.report == report


def test_class_rules_do_not_bind_the_deterministic_or_higher_moment_solve():
    base = _sign_gate_spec()
    higher = replace(base, problem_class="higher_moment", a=0.1, o=2)
    assert validate(higher).ok
    assert solve(higher)[1].k_dev != solve(replace(higher, a=2.0, o=1))[1].k_dev
    # The deterministic class has no deviation pass, so distinct (a, o) are legal and unused.
    plain = replace(base, problem_class="deterministic", noise=None)
    deterministic = replace(plain, a=0.1, o=2)
    assert validate(deterministic).ok
    (schedule, gains), (plain_schedule, plain_gains) = solve(deterministic), solve(plain)
    assert (schedule.alpha_bar, gains) == (plain_schedule.alpha_bar, plain_gains)


@st.composite
def _validated_specs(draw):
    klass = draw(st.sampled_from(list(ProblemClass)))
    n = draw(st.integers(1, 6))
    weight = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
    signed = st.tuples(st.floats(-5.0, 5.0), st.sampled_from([-1.0, 1.0]))
    dynamic = signed.map(lambda t: t[1] * 10.0 ** t[0])

    def sequence(element):
        return draw(st.lists(element, min_size=n, max_size=n))

    kwargs = dict(
        a_bar=sequence(dynamic), b_bar=sequence(dynamic), q_bar=sequence(weight),
        q_bar_terminal=draw(weight), r_bar=sequence(weight), p=draw(st.integers(1, 4)),
        initial=InitialLaw(mean=1.0),
    )
    if klass is not ProblemClass.DETERMINISTIC:
        sigma = draw(st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e))
        kwargs.update(
            q=sequence(weight), q_terminal=draw(weight), r=sequence(weight),
            noise=Gaussian(sigma=sigma),
        )
    if klass is ProblemClass.HIGHER_MOMENT:
        kwargs.update(a=sequence(dynamic), b=sequence(dynamic), o=draw(st.integers(1, 4)))
    return ProblemSpec(klass, n, **kwargs)


@settings(max_examples=200, deadline=None)
@given(spec=_validated_specs())
def test_validated_spec_solves_or_overflows(spec):
    # validate()'s weight checks imply solve()'s sign rule, so the pass can
    # only stop on an overflow.
    assert validate(spec).ok
    try:
        schedule, _ = solve(spec)
    except NonFiniteCoefficient:
        return
    assert min(schedule.alpha_bar) >= 0.0
    assert schedule.alpha is None or min(schedule.alpha) >= 0.0


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
            a, b = spec.a_bar[k], spec.b_bar[k]
            lhs = spec.r_bar[k] * gains.k_mean[k] ** (2 * p - 1)
            rhs = schedule.alpha_bar[k + 1] * b * (a - b * gains.k_mean[k]) ** (2 * p - 1)
            assert math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-14)


def test_uncontrollable_step_gets_zero_gain():
    spec = ProblemSpec(
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
    return ProblemSpec(
        "additive", n, q=q, q_terminal=q_terminal, r=r,
        noise=Gaussian(sigma=sigma),
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
    spec = ProblemSpec(
        "additive", 4,
        a_bar=1.0, b_bar=1.0, q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=1,
        q=1.0, q_terminal=1.0, r=1.0,
        noise=Moments({2: 0.0}),
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
    spec = ProblemSpec(
        "mult_state", 1,
        a_bar=1.0, b_bar=1.0, q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=1,
        q=[2.0], q_terminal=1.0, r=[1.0],
        noise=Gaussian(sigma=1.0),
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
    mult = ProblemSpec(
        "mult_state", 5,
        noise=Moments({2: 0.0}),
        **kwargs,
    )
    add = ProblemSpec(
        "additive", 5,
        noise=Moments({2: 0.0}),
        **kwargs,
    )
    mult_schedule, mult_gains = solve(mult)
    add_schedule, add_gains = solve(add)
    np.testing.assert_allclose(mult_schedule.alpha, add_schedule.alpha, rtol=1e-14)
    np.testing.assert_allclose(mult_gains.k_dev, add_gains.k_dev, rtol=1e-14)


def test_mult_state_zero_deviation_weights_stay_zero():
    spec = ProblemSpec(
        "mult_state", 4,
        a_bar=1.0, b_bar=1.0, q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=1,
        q=0.0, q_terminal=0.0, r=1.0,
        noise=Gaussian(sigma=1.0),
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
        noise=dist,
        initial=InitialLaw(mean=1.0),
    )
    kwargs.update(overrides)
    return ProblemSpec("higher_moment", n, **kwargs)


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
    o = spec.o
    for k in range(spec.n_steps):
        a, b = spec.a[k], spec.b[k]
        lhs = spec.r[k] * gains.k_dev[k] ** (2 * o - 1)
        rhs = schedule.alpha[k + 1] * m * b * (a - b * gains.k_dev[k]) ** (2 * o - 1)
        assert math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-14)


def test_higher_moment_order_one_reduces_to_scaled_riccati():
    # With o = 1 the deviation recursion is the Riccati map on the noise-scaled
    # dynamics (a*sigma, b*sigma), which the p = 1 mean channel also computes.
    sigma = 0.9
    spec = _higher_spec(5, o=1, dist=Gaussian(sigma=sigma), p=1,
                        a=0.7, b=1.1, q=1.3, q_terminal=1.3, r=0.6)
    schedule, _ = solve(spec)
    reference = ProblemSpec(
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


def test_literal_recursion_matches_only_for_unit_moment(literal_solve):
    # Rademacher noise has every even moment equal to 1, so dropping the
    # moment factor changes nothing; unit Gaussian at o = 2 has m4 = 3 and
    # the two recursions must part ways.
    unit = _higher_spec(4, o=2, dist=Rademacher(scale=1.0))
    inclusive, _ = solve(unit)
    literal, _ = literal_solve(unit)
    np.testing.assert_allclose(inclusive.alpha, literal.alpha, rtol=1e-14)

    gaussian = _higher_spec(4, o=2, dist=Gaussian(sigma=1.0))
    inclusive, _ = solve(gaussian)
    literal, _ = literal_solve(gaussian)
    assert not math.isclose(inclusive.alpha[0], literal.alpha[0], rel_tol=1e-3)


def test_literal_solve_reproduces_the_removed_solver_option(literal_solve):
    # sha256 of repr((alpha, k_dev, alpha_bar)) as solve(spec,
    # literal_recursion=True) returned them before that option was removed.
    expected = {
        "ex4 p1": "7e98b99ac7485048efc94cae94898e41053e98e871b4c8aa81b156274d746d65",
        "ex4 p2": "d3105dfde09635cb974bb6eeece4c82ff44aec03833337363037be5a1b36e156",
        "ex4 p3": "7cde2007b79b3a131fc870292a29135ed76c6f25202856e1db2bf56bc09e48eb",
        "gaussian o2": "c69135013d1e8b366e360674f69afe04d0054e96eba107c87e4faf5c19778a84",
        "rademacher o2": "c0d42b8ab020dd68d8214c68dc3b0e2053a5fa1533bada00b32179bb57762551",
    }
    specs = {f"ex4 p{p}": example_config(4, p).problem for p in (1, 2, 3)}
    specs["gaussian o2"] = _higher_spec(4, o=2, dist=Gaussian(sigma=1.0))
    specs["rademacher o2"] = _higher_spec(4, o=2, dist=Rademacher(scale=1.0))
    digests = {}
    for name, spec in specs.items():
        schedule, gains = literal_solve(spec)
        values = repr((schedule.alpha, gains.k_dev, schedule.alpha_bar))
        digests[name] = hashlib.sha256(values.encode()).hexdigest()
    assert digests == expected


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
    return ProblemSpec(
        "mult_state", 1,
        a_bar=1.0, b_bar=1.0, q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=1,
        q=[2.0], q_terminal=1.0, r=[1.0],
        noise=Gaussian(sigma=1.0),
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
        assert schedule.alpha_bar[spec.n_steps] == spec.q_bar_terminal
        if klass is ProblemClass.DETERMINISTIC:
            assert schedule.alpha is None
            assert gains.k_dev is None
        else:
            assert schedule.alpha[spec.n_steps] == spec.q_terminal
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
        FeedbackPolicy(k_mean=(float("nan"),))


_RECORD_FIELDS = {
    "k_mean": lambda v: FeedbackPolicy(k_mean=v),
    "k_dev": lambda v: FeedbackPolicy(k_mean=(0.5, 0.5), k_dev=v),
    "alpha_bar": lambda v: CoefficientSchedule("deterministic", 1, 1, alpha_bar=v),
    "alpha": lambda v: CoefficientSchedule("higher_moment", 1, 1, alpha_bar=(1.0, 1.0), alpha=v),
    "gamma_bar": lambda v: CoefficientSchedule(
        "additive", 1, 1, alpha_bar=(1.0, 1.0), alpha=(1.0, 1.0), gamma_bar=v),
}


@pytest.mark.parametrize("field", _RECORD_FIELDS)
def test_solved_records_refuse_an_empty_field(field):
    # An empty alpha_bar built a schedule with n_steps == -1, and an empty k_mean
    # a policy with no step; a set optional field is refused as empty too.
    with pytest.raises(ValueError, match=rf"^{field} must hold at least one entry, got \(\)$"):
        _RECORD_FIELDS[field](())


#: The channels each class's schedule holds besides alpha_bar.
_CLASS_CHANNELS = {
    "deterministic": (), "additive": ("alpha", "gamma_bar"),
    "mult_state": ("alpha",), "higher_moment": ("alpha",),
}


@pytest.mark.parametrize("klass", _CLASS_CHANNELS)
@pytest.mark.parametrize("field", ["alpha", "gamma_bar"])
def test_schedule_holds_exactly_its_class_channels(klass, field):
    # A higher-moment schedule given a gamma_bar added it to the price, and a
    # deterministic schedule's alpha was ignored: a missing or extra channel is
    # refused when the schedule is built, naming it.
    held = _CLASS_CHANNELS[klass]
    channels = dict.fromkeys(held, (5.0, 0.0))
    schedule = CoefficientSchedule(klass, 1, 1, alpha_bar=(1.0, 0.0), **channels)
    # Mean term 1, and 5 from each held channel: alpha[0] E[(x0 - xbar0)**2] or gamma_bar[0].
    initial = InitialLaw(mean=1.0, law=Gaussian(sigma=1.0))
    assert predicted_cost(schedule, initial) == 1.0 + 5.0 * len(held)
    if field in held:
        del channels[field]
        rule = "is required"
    else:
        channels[field] = (5.0, 0.0)
        rule = "must be None"
    with pytest.raises(ValueError, match=rf"^{field} {rule} for class {klass}$"):
        CoefficientSchedule(klass, 1, 1, alpha_bar=(1.0, 0.0), **channels)


@pytest.mark.parametrize("field", _RECORD_FIELDS)
@pytest.mark.parametrize("value, where", [
    pytest.param("12", "", id="text"), pytest.param(b"12", "", id="bytes"),
    pytest.param(("1.5", True), "[0]", id="text-element"),
    pytest.param((b"2", 1), "[0]", id="bytes-element"),
    pytest.param((1.0, True), "[1]", id="bool-element"),
    pytest.param((1.0, np.True_), "[1]", id="numpy-bool-element"),
])
def test_solved_records_refuse_text_and_bools_naming_the_field(field, value, where):
    # float() reads "12" as 12.0 and True as 1.0; the sequence gate refuses both.
    with pytest.raises(TypeError, match=rf"^{field}{re.escape(where)} must be a "):
        _RECORD_FIELDS[field](value)


@pytest.mark.parametrize("field", _RECORD_FIELDS)
@pytest.mark.parametrize("value", [(1.0, math.nan), (1.0, -math.inf), (1.0, 10**400)],
                         ids=["nan", "-inf", "huge-int"])
def test_solved_records_name_a_nonfinite_entry_by_its_index(field, value):
    with pytest.raises(NonFiniteCoefficient, match=rf"^{field}\[1\] must be finite"):
        _RECORD_FIELDS[field](value)


def test_solved_records_store_numbers_as_float_tuples():
    policy = FeedbackPolicy(k_mean=[1, np.float32(0.5)], k_dev=np.array([2.0, -1.0]))
    assert policy == FeedbackPolicy(k_mean=(1.0, 0.5), k_dev=(2.0, -1.0))
    assert all(type(g) is float for g in (*policy.k_mean, *policy.k_dev))
    assert policy.n_steps == 2


def test_schedule_takes_its_class_by_name():
    schedule = CoefficientSchedule("deterministic", 1, 1, alpha_bar=(1.0, 2.0))
    assert schedule.problem_class is ProblemClass.DETERMINISTIC
    assert predicted_cost(schedule, InitialLaw(mean=1.0)) == 1.0
    with pytest.raises(ValueError, match="'quartic' is not a valid ProblemClass"):
        CoefficientSchedule("quartic", 1, 1, alpha_bar=(1.0, 2.0))
    with pytest.raises(ValueError, match=r"^p must be an integer >= 1, got True$"):
        CoefficientSchedule("deterministic", True, 1, alpha_bar=(1.0, 2.0))


# --------------------------------------------------------------------------
# The paper's headline claim on the presets, with its scope
# --------------------------------------------------------------------------

def _preset_gains(example_id):
    return {p: solve(example_config(example_id, p).problem)[1] for p in (1, 2, 3)}


@pytest.mark.parametrize("example_id", [1, 2, 3, 4])
def test_preset_mean_gains_shrink_with_p(example_id):
    gains = _preset_gains(example_id)
    n = len(gains[1].k_mean)
    # ex4's last step ties across p (next test), so there it holds at 0..N-2.
    for k in range(n - 1 if example_id == 4 else n):
        first, second, third = (abs(gains[p].k_mean[k]) for p in (1, 2, 3))
        assert first > second > third, k


def test_mean_gain_shrinks_with_p_exactly_when_the_completion_constant_does():
    # |gain| = |a| |c| / (1 + |c| |b|) grows with |c|, so on random
    # deterministic specs (criterion 2's ranges) the mean gain shrinks from
    # p = 1 to p at step k exactly when c_p < c_1, where
    # c_p = |alpha_bar_p[k+1] b_bar / r_bar| ** (1 / (2p - 1)).
    rng = np.random.default_rng(2026)
    shrinks = steps = 0
    for _ in range(2000):
        n = int(rng.integers(1, 11))
        p = int(rng.integers(2, 4))
        a_bar, b_bar = (list(rng.uniform(0.1, 5.0, n) * rng.choice([-1.0, 1.0], n))
                        for _ in range(2))
        data = dict(q_bar=list(rng.uniform(0.1, 5.0, n)),
                    q_bar_terminal=float(rng.uniform(0.1, 5.0)),
                    r_bar=list(rng.uniform(0.1, 5.0, n)))
        schedules = {power: solve(_det_spec(n, a_bar, b_bar, p=power, **data))
                     for power in (1, p)}
        for k in range(n):
            ratio = {power: abs(schedule.alpha_bar[k + 1] * b_bar[k] / data["r_bar"][k])
                     for power, (schedule, _) in schedules.items()}
            c_1, c_p = ratio[1], ratio[p] ** (1.0 / (2 * p - 1))
            if math.isclose(c_p, c_1, rel_tol=1e-12):
                continue
            gain_1, gain_p = (abs(schedules[power][1].k_mean[k]) for power in (1, p))
            assert (gain_p < gain_1) == (c_p < c_1), (n, p, k)
            steps += 1
            shrinks += gain_p < gain_1
    # Both directions occur: the claim holds at most steps, not all.
    assert 0.5 * steps < shrinks < steps


def test_ex4_last_mean_gain_ties_across_p():
    # alpha_bar[N] b_bar / r_bar = 1, so c = 1 and the gain is 0.5 for every p.
    gains = _preset_gains(4)
    assert [gains[p].k_mean[9] for p in (1, 2, 3)] == [0.5, 0.5, 0.5]


def test_ex4_deviation_gains_grow_with_o():
    gains = _preset_gains(4)
    for k in range(10):
        first, second, third = (abs(gains[p].k_dev[k]) for p in (1, 2, 3))
        assert first < second < third, k
    assert [round(gains[p].k_dev[0], 4) for p in (1, 2, 3)] == [0.2361, 0.3678, 0.4287]


@pytest.mark.parametrize("example_id", [2, 3])
def test_unit_moment_power_deviation_gains_ignore_p(example_id):
    # o = 1 on these presets, so p never reaches the deviation channel.
    gains = _preset_gains(example_id)
    assert gains[1].k_dev == gains[2].k_dev == gains[3].k_dev


# --------------------------------------------------------------------------
# Exact structural relations on random specs
# --------------------------------------------------------------------------

def _noise(rng):
    law = (Gaussian, Rademacher, UniformSymmetric)[int(rng.integers(3))]
    return law(float(rng.uniform(0.1, 3.0)))


def _deviation_weights(rng, n):
    return dict(q=list(rng.uniform(0.1, 5.0, n)), q_terminal=float(rng.uniform(0.1, 5.0)),
                r=list(rng.uniform(0.1, 5.0, n)))


def _random_specs(count=400, seed=14):
    """(spec, rng) for count specs, the four classes in turn: N 1-20, p and o
    1-3, dynamics of either sign and magnitude 0.1-3, weights 0.1-5, and
    Gaussian, Rademacher or uniform noise. Each spec comes with its own rng
    for the test's choices, so every test sees the same specs."""
    rng = np.random.default_rng(seed)
    classes = list(ProblemClass)
    for i in range(count):
        klass = classes[i % len(classes)]
        n = int(rng.integers(1, 21))

        def dynamics():
            return list(rng.uniform(0.1, 3.0, n) * rng.choice([-1.0, 1.0], n))

        kwargs = dict(a_bar=dynamics(), b_bar=dynamics(), q_bar=list(rng.uniform(0.1, 5.0, n)),
                      q_bar_terminal=float(rng.uniform(0.1, 5.0)),
                      r_bar=list(rng.uniform(0.1, 5.0, n)), p=int(rng.integers(1, 4)),
                      initial=InitialLaw(mean=1.0))
        if klass is not ProblemClass.DETERMINISTIC:
            kwargs.update(_deviation_weights(rng, n), noise=_noise(rng))
        if klass is ProblemClass.HIGHER_MOMENT:
            kwargs.update(a=dynamics(), b=dynamics(), o=int(rng.integers(1, 4)))
        spec = ProblemSpec(klass, n, **kwargs)
        assert validate(spec).ok
        yield spec, np.random.default_rng([seed, i])


def _bits(values, scale=1.0):
    """The bytes of values times scale, or None; equal bytes are equal bits."""
    return None if values is None else np.asarray([v * scale for v in values]).tobytes()


def _solved(spec):
    """solve(spec) as {name: bits} for every coefficient and gain sequence."""
    schedule, gains = solve(spec)
    return {name: _bits(getattr(record, name)) for record, names in (
        (schedule, ("alpha_bar", "alpha", "gamma_bar")), (gains, ("k_mean", "k_dev")))
        for name in names}


def _negated_at(values, j):
    return None if values is None else tuple(-v if k == j else v for k, v in enumerate(values))


@pytest.mark.parametrize("mean,deviation", [("a_bar", "a"), ("b_bar", "b")], ids=["a", "b"])
def test_negating_one_step_s_dynamics_negates_only_its_gains(mean, deviation):
    # The pair is negated together, so the other classes keep (a, b) = (a_bar, b_bar).
    for spec, rng in _random_specs():
        j = int(rng.integers(spec.n_steps))
        _, gains = solve(spec)
        flipped = replace(spec, **{name: _negated_at(getattr(spec, name), j)
                                   for name in (mean, deviation)})
        expected = {**_solved(spec), "k_mean": _bits(_negated_at(gains.k_mean, j)),
                    "k_dev": _bits(_negated_at(gains.k_dev, j))}
        assert _solved(flipped) == expected, (spec, j)


def _scaled(value, scale):
    return value * scale if isinstance(value, float) else tuple(v * scale for v in value)


def test_power_of_two_weights_scale_the_coefficients_exactly_and_keep_the_gains():
    for spec, rng in _random_specs():
        scale = 2.0 ** int(rng.choice([-8, -3, -1, 1, 2, 9]))
        schedule, gains = solve(spec)
        scaled = replace(spec, **{name: _scaled(getattr(spec, name), scale) for name, _, _ in _SIGN_RULE})
        expected = {**{name: _bits(getattr(schedule, name), scale)
                       for name in ("alpha_bar", "alpha", "gamma_bar")},
                    "k_mean": _bits(gains.k_mean), "k_dev": _bits(gains.k_dev)}
        assert _solved(scaled) == expected, (spec, scale)


def test_a_suffix_of_the_horizon_solves_to_the_tail_of_the_schedule():
    for spec, rng in _random_specs():
        k = int(rng.integers(spec.n_steps))
        suffix = replace(spec, n_steps=spec.n_steps - k,
                         **{name: getattr(spec, name)[k:] for name in _PER_STEP_FIELDS})
        tails = {name: None if bits is None else bits[8 * k:] for name, bits in _solved(spec).items()}
        assert _solved(suffix) == tails, (spec, k)


def test_the_mean_channel_ignores_deviation_weights_and_noise():
    for spec, rng in _random_specs():
        if spec.problem_class is ProblemClass.DETERMINISTIC:
            continue
        other = replace(spec, **_deviation_weights(rng, spec.n_steps), noise=_noise(rng))
        before, after = _solved(spec), _solved(other)
        assert (after["alpha_bar"], after["k_mean"]) == (before["alpha_bar"], before["k_mean"]), spec


def _one_rule_broken(spec, rng):
    """spec with one of validate's rules broken each way: each weight negated or
    zeroed (a per-step weight at one step), distinct (a, b), o = 2, the noise
    law dropped or added, an initial spread, and a Moments law without order 2o.
    Some variants break nothing on some classes, such as a zero state weight."""
    j = int(rng.integers(spec.n_steps))
    for name, _, _ in _SIGN_RULE:
        value = getattr(spec, name)
        for scale in (-1.0, 0.0):
            yield replace(spec, **{name: value * scale if isinstance(value, float) else
                                   tuple(v * scale if k == j else v for k, v in enumerate(value))})
    yield replace(spec, a=tuple(v + 1.0 for v in spec.a))
    yield replace(spec, o=2)
    yield replace(spec, noise=None)
    yield replace(spec, noise=Gaussian(sigma=1.0))
    yield replace(spec, initial=InitialLaw(mean=1.0, law=Gaussian(sigma=1.0)))
    yield replace(spec, noise=Moments({2 * spec.o + 2: 1.0}))


def test_solve_refuses_exactly_what_validate_reports():
    outcomes = {klass: set() for klass in ProblemClass}
    for spec, rng in _random_specs():
        for variant in _one_rule_broken(spec, rng):
            report = validate(variant)
            try:
                solve(variant)
            except InvalidProblem as exc:
                assert not report.ok and exc.report == report, variant
            else:
                assert report.ok, variant
            outcomes[variant.problem_class].add(report.ok)
    assert all(seen == {True, False} for seen in outcomes.values())
