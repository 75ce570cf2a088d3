"""Tests for the problem-description layer: roots, moments, laws, validation."""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hocs import (
    Dirac,
    Distribution,
    Empirical,
    FeedbackPolicy,
    Gaussian,
    GaussianVariance,
    IndexOutOfRange,
    InitialLaw,
    InvalidProblem,
    LengthMismatch,
    MissingMoment,
    Moments,
    ProblemClass,
    ProblemSpec,
    Rademacher,
    RunConfig,
    RunSettings,
    UniformSymmetric,
    central_moment,
    example_config,
    kpi,
    signed_root,
    simulate_ensemble,
    solve,
    validate,
)
from hocs.cli import run_kpi_study
from hocs.config import EXAMPLE_IDS, EXAMPLE_POWERS, render_config
from hocs.model import _power


# --------------------------------------------------------------------------
# signed_root
# --------------------------------------------------------------------------

def test_signed_root_desk_values():
    assert signed_root(8.0, 3) == 2.0
    assert signed_root(-27.0, 3) == -3.0
    assert signed_root(0.0, 5) == 0.0
    assert math.isclose(signed_root(5.0, 5) ** 5, 5.0, rel_tol=1e-12)


def test_signed_root_rejects_even_or_nonpositive_order():
    with pytest.raises(ValueError):
        signed_root(1.0, 2)
    with pytest.raises(ValueError):
        signed_root(1.0, 0)
    with pytest.raises(ValueError):
        signed_root(1.0, -3)


@given(
    x=st.floats(min_value=1e-6, max_value=1e6),
    n=st.sampled_from([1, 3, 5, 7, 9]),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_signed_root_inverts_odd_power(x, n, sign):
    signed = sign * x
    y = signed_root(signed, n)
    assert math.isclose(y ** n, signed, rel_tol=1e-12)
    # Odd symmetry comes for free from the construction.
    assert signed_root(-signed, n) == -y


# --------------------------------------------------------------------------
# Broadcasting: ProblemSpec repeats a scalar or a length-1 list over the horizon
# --------------------------------------------------------------------------

def _unit_spec(n_steps, **changes):
    """A deterministic ProblemSpec with unit scalars, with ``changes`` applied."""
    args = dict(a_bar=1.0, b_bar=1.0, q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=1,
                initial=InitialLaw(mean=1.0))
    args.update(changes)
    return ProblemSpec("deterministic", n_steps, **args)


def test_broadcast_scalar_and_short_list():
    spec = _unit_spec(4, q_bar=2.5, r_bar=[2.5], b_bar=np.float32(0.5), q=3)
    assert spec.q_bar == (2.5, 2.5, 2.5, 2.5)
    assert spec.r_bar == (2.5, 2.5, 2.5, 2.5)
    assert spec.b_bar == (0.5, 0.5, 0.5, 0.5)
    assert spec.q == (3.0, 3.0, 3.0, 3.0) and type(spec.q[0]) is float
    # Left out, the deviation pair copies the mean pair, and r is 0.
    assert (spec.a, spec.b) == (spec.a_bar, spec.b_bar)
    assert spec.r == (0.0, 0.0, 0.0, 0.0) and spec.o == 1 and spec.noise is None


def test_broadcast_full_length_passes_through():
    spec = _unit_spec(3, a_bar=[1.0, 2.0, 3.0], r=np.array([4.0, 5.0, 6.0]))
    assert spec.a_bar == (1.0, 2.0, 3.0)
    assert spec.a == (1.0, 2.0, 3.0)
    assert spec.r == (4.0, 5.0, 6.0) and type(spec.r[0]) is float


def test_broadcast_wrong_length_raises():
    with pytest.raises(LengthMismatch, match=r"^q_bar: expected a scalar or a sequence of length 3, "
                                             r"got length 2$"):
        _unit_spec(3, q_bar=[1.0, 2.0])
    with pytest.raises(LengthMismatch) as excinfo:
        dataclasses.replace(example_config(2, 1).problem, a_bar=[2.0] * 9)
    assert str(excinfo.value) == "a_bar: expected a scalar or a sequence of length 10, got length 9"


def test_broadcast_is_idempotent():
    # A spec rebuilt from another spec's (already broadcast) fields is equal to it.
    for example_id in EXAMPLE_IDS:
        for p in EXAMPLE_POWERS:
            spec = example_config(example_id, p).problem
            rebuilt = ProblemSpec(**{f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)})
            assert rebuilt == spec


# --------------------------------------------------------------------------
# Distribution moments
# --------------------------------------------------------------------------

def _gauss_hermite_moment(sigma: float, order: int) -> float:
    # Probabilists' Hermite rule integrates against exp(-z**2/2); the weights
    # sum to sqrt(2*pi), so normalizing gives standard-normal expectations.
    nodes, weights = np.polynomial.hermite_e.hermegauss(60)
    return float(np.sum(weights * (sigma * nodes) ** order) / math.sqrt(2.0 * math.pi))


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_gaussian_moments_match_quadrature(sigma, j):
    exact = Gaussian(sigma=sigma).even_moment(2 * j)
    quad = _gauss_hermite_moment(sigma, 2 * j)
    assert math.isclose(exact, quad, rel_tol=1e-8)


def test_gaussian_variance_agrees_with_sigma_form():
    v = 2.3
    by_variance = GaussianVariance(variance=v)
    by_sigma = Gaussian(sigma=math.sqrt(v))
    for j in range(1, 5):
        assert math.isclose(
            by_variance.even_moment(2 * j), by_sigma.even_moment(2 * j), rel_tol=1e-12
        )
    # (2j-1)!! v**j directly: E[z**4] = 3 v**2.
    assert math.isclose(by_variance.even_moment(4), 3.0 * v ** 2, rel_tol=1e-15)


def test_rademacher_and_uniform_moments():
    assert Rademacher(scale=2.0).even_moment(4) == 16.0
    assert Rademacher().even_moment(6) == 1.0
    # Uniform on [-h, h]: E[z**(2j)] = h**(2j) / (2j + 1).
    h = 1.5
    u = UniformSymmetric(halfwidth=h)
    assert math.isclose(u.even_moment(2), h ** 2 / 3.0, rel_tol=1e-15)
    assert math.isclose(u.even_moment(4), h ** 4 / 5.0, rel_tol=1e-15)


def test_moments_in_float_range_keep_the_plain_formulas_bits():
    # Up to order 300, the last whose (order - 1)!! is a finite double.
    for order in range(2, 301, 2):
        double_factorial = math.prod(range(1, order, 2))
        for scale in (0.3, 1.0, 1.7):
            assert Gaussian(sigma=scale).even_moment(order) == (
                double_factorial * scale ** order)
            assert GaussianVariance(variance=scale).even_moment(order) == (
                double_factorial * scale ** (order // 2))
            assert Rademacher(scale=scale).even_moment(order) == scale ** order
            assert UniformSymmetric(halfwidth=scale).even_moment(order) == (
                scale ** order / (order + 1))


def test_moments_past_float_range_are_inf():
    assert Gaussian(sigma=1.0).even_moment(600) == math.inf
    assert GaussianVariance(variance=1.0).even_moment(2_000_000) == math.inf
    assert Gaussian(sigma=1e200).even_moment(4) == math.inf
    assert GaussianVariance(variance=1e200).even_moment(4) == math.inf
    assert Rademacher(scale=1e200).even_moment(4) == math.inf
    assert UniformSymmetric(halfwidth=1e200).even_moment(4) == math.inf
    assert Empirical(samples=(-1e200, 1e200)).even_moment(4) == math.inf


def test_even_power_of_a_negative_base_past_float_range_is_inf():
    # The recursions power signed gains and closed-loop factors through _power.
    assert _power(-1e200, 4) == math.inf
    assert _power(-3.0, 2) == 9.0


def test_gaussian_moment_with_an_overflowing_double_factorial():
    # (599)!! does not fit a float, yet the moments do (or round to 0.0).
    assert Gaussian(sigma=0.01).even_moment(600) == 0.0
    assert Gaussian(sigma=1e-3).even_moment(2_000_000) == 0.0
    assert Gaussian(sigma=0.0).even_moment(600) == 0.0
    exact = math.prod(range(1, 400, 2)) * Fraction(0.3) ** 400
    assert math.isclose(Gaussian(sigma=0.3).even_moment(400), float(exact), rel_tol=1e-12)
    exact = math.prod(range(1, 302, 2)) * Fraction(0.5) ** 302
    assert math.isclose(Gaussian(sigma=0.5).even_moment(302), float(exact), rel_tol=1e-12)
    exact = math.prod(range(1, 302, 2)) * Fraction(0.25) ** 151
    assert math.isclose(GaussianVariance(variance=0.25).even_moment(302), float(exact),
                        rel_tol=1e-12)


def test_negative_zero_spread_samples_as_zero():
    rng = np.random.default_rng(0)
    for law in (Gaussian(sigma=-0.0), GaussianVariance(variance=-0.0),
                Rademacher(scale=-0.0), UniformSymmetric(halfwidth=-0.0)):
        assert np.all(law.sample(rng, 3) == 0.0)
        assert law.even_moment(2) == 0.0


def test_dirac_moments_vanish():
    assert Dirac().even_moment(2) == 0.0
    assert Dirac().even_moment(8) == 0.0


def test_odd_moment_order_rejected():
    with pytest.raises(ValueError):
        Gaussian(sigma=1.0).even_moment(3)
    with pytest.raises(ValueError):
        Rademacher().even_moment(0)


def test_empirical_centers_and_records_shift():
    e = Empirical(samples=(1.0, 2.0, 3.0))
    assert e.shift != 0.0
    assert math.isclose(e.shift, 2.0, rel_tol=1e-15)
    assert math.fsum(e.samples) == 0.0
    assert math.isclose(e.even_moment(2), 2.0 / 3.0, rel_tol=1e-15)


def test_empirical_rebuild_from_stored_samples_is_bit_exact():
    e = Empirical(samples=(0.1, 0.9, -0.4, 1.7))
    rebuilt = Empirical(samples=e.samples, shift=e.shift)
    assert rebuilt.samples == e.samples
    assert rebuilt.shift == e.shift


def test_empirical_centers_at_its_own_scale():
    # A mean of 2e-13 is tiny in absolute terms but not next to samples of 1e-13.
    e = Empirical(samples=(1e-13, 3e-13))
    assert math.isclose(e.shift, 2e-13, rel_tol=1e-12)
    assert math.isclose(e.even_moment(2), 1e-26, rel_tol=1e-12)


@pytest.mark.parametrize("samples", [(1e-13, 3e-13), (1.0, 1.00002), (1e6, 1e6 + 1e-6)])
def test_empirical_rebuild_is_bit_exact_at_any_scale(samples):
    e = Empirical(samples=samples)
    rebuilt = Empirical(samples=e.samples, shift=e.shift)
    assert (rebuilt.samples, rebuilt.shift) == (e.samples, e.shift)
    assert abs(math.fsum(e.samples)) <= 1e-12 * max(map(abs, e.samples)) * len(samples)


def test_empirical_already_centered_is_untouched():
    e = Empirical(samples=(-0.3, 0.3))
    assert e.shift == 0.0
    assert e.samples == (-0.3, 0.3)
    assert e.even_moment(2) == 0.09


def test_empirical_needs_samples():
    with pytest.raises(ValueError):
        Empirical(samples=())


@pytest.mark.parametrize("mean", [None, -2.5], ids=["law", "initial"])
@pytest.mark.parametrize("law", [
    pytest.param(Gaussian(0.7), id="Gaussian(0.7)"),
    pytest.param(GaussianVariance(2.0), id="GaussianVariance(2)"),
    pytest.param(Rademacher(1.5), id="Rademacher(1.5)"),
    pytest.param(UniformSymmetric(0.3), id="UniformSymmetric(0.3)"),
    pytest.param(Empirical(samples=(1.0, 2.0, 4.5)), id="Empirical(1,2,4.5)"),
    pytest.param(Empirical(samples=(-1.0, 0.25, 2.0)), id="Empirical(-1,0.25,2)"),
])
def test_each_law_samples_the_moments_it_prices(law, mean):
    # solve and the price read the law's moment table, the simulator its
    # sampler. The sample mean and the sample moments of orders 2, 4 and 6
    # must lie within 5 exact standard errors, taken from the table; where
    # that error is 0 (Rademacher's even powers), the moment must equal the
    # table to rounding. With a mean, the draws are InitialLaw's, around it.
    n = 50_000
    rng = np.random.default_rng(16)
    z = law.sample(rng, n) if mean is None else InitialLaw(mean, law).sample(rng, n) - mean
    checks = [(z.mean(), 0.0, law.even_moment(2))]
    for order in (2, 4, 6):
        table = law.even_moment(order)
        checks.append((np.mean(z ** order), table, law.even_moment(2 * order) - table ** 2))
    for observed, table, variance in checks:
        assert abs(observed - table) <= 5 * math.sqrt(variance / n) + 1e-12 * table


# --------------------------------------------------------------------------
# Moments
# --------------------------------------------------------------------------

def test_noise_missing_moment_raises():
    law = Moments({2: 1.0})
    assert law.even_moment(2) == 1.0
    with pytest.raises(MissingMoment):
        law.even_moment(4)
    with pytest.raises(MissingMoment):
        law.sample(np.random.default_rng(0), 3)


# An order that is not an int is refused, though int() would read "2", 2.0 and True.
@pytest.mark.parametrize("values", [{3: 1.0}, {0: 1.0}, {2: -1.0}, {2: math.inf},
                                    {"2": 1.0}, {2.0: 1.0}, {True: 1.0}])
def test_moments_law_rejects_bad_entries(values):
    with pytest.raises(ValueError):
        Moments(values)


# Each entry passes the gates in the order given; the gated pairs are then sorted.
@pytest.mark.parametrize("values,error,match", [
    ({2: -1.0, 3: 1.0}, ValueError, r"^moment of order 2 must be finite and >= 0, got -1.0$"),
    ({3: 1.0, 2: -1.0}, ValueError, r"^moment order must be an even integer >= 2, got 3$"),
    ({"4": 1.0, 2: math.nan}, ValueError, r"^moment order must be an even integer >= 2, got '4'$"),
    ({2: "1", 4.0: 1.0}, TypeError, r"^moment of order 2 must be a number, got '1'$"),
], ids=["bad-value-first", "bad-order-first", "text-order-first", "text-value-first"])
def test_moments_law_refuses_a_bad_order_and_a_bad_value_in_the_gates_words(values, error, match):
    with pytest.raises(error, match=match):
        Moments(values)


def test_moments_law_sorts_the_gated_pairs():
    assert Moments({6: 15, 2: 1, 4: 3.0}).values == ((2, 1.0), (4, 3.0), (6, 15.0))


# --------------------------------------------------------------------------
# InitialLaw
# --------------------------------------------------------------------------

def test_initial_law_moments_and_sampling():
    law = InitialLaw(mean=3.0, law=GaussianVariance(variance=4.0))
    assert law.central_moment(2) == 4.0
    assert law.central_moment(4) == 48.0
    draws = law.sample(np.random.default_rng(0), 50_000)
    assert abs(float(np.mean(draws)) - 3.0) < 0.05


def test_initial_law_defaults_to_point_mass():
    law = InitialLaw(mean=1.0)
    assert law.central_moment(2) == 0.0
    assert np.all(law.sample(np.random.default_rng(1), 10) == 1.0)


# --------------------------------------------------------------------------
# ProblemSpec and validate
# --------------------------------------------------------------------------

def test_problem_spec_accepts_class_by_name_and_broadcasts():
    spec = ProblemSpec(
        "deterministic", 3,
        a_bar=1.0, b_bar=2.0, q_bar=3.0, q_bar_terminal=3.0, r_bar=4.0, p=2,
        initial=InitialLaw(mean=1.0),
    )
    assert spec.problem_class is ProblemClass.DETERMINISTIC
    assert spec.a_bar == (1.0, 1.0, 1.0)
    assert spec.r_bar == (4.0, 4.0, 4.0)
    assert spec.n_steps == 3


PER_STEP_FIELDS = ("a_bar", "b_bar", "a", "b", "q", "q_bar", "r", "r_bar")


def _direct_spec(**changes):
    """A ProblemSpec built field by field (N = 3), with ``changes`` applied."""
    fields = dict(
        problem_class=ProblemClass.ADDITIVE, n_steps=3,
        **{name: (1.0, 1.0, 1.0) for name in PER_STEP_FIELDS},
        q_terminal=1.0, q_bar_terminal=1.0, p=1, o=1,
        noise=Gaussian(sigma=1.0), initial=InitialLaw(mean=1.0),
    )
    fields.update(changes)
    return lambda: ProblemSpec(**fields)


@pytest.mark.parametrize("make, error, match", [
    *[pytest.param(_direct_spec(**{name: (1.0, 1.0)}), LengthMismatch,
                   f"^{name}: expected a scalar or a sequence of length 3, got length 2$",
                   id=f"{name}-length") for name in PER_STEP_FIELDS],
    *[pytest.param(_direct_spec(**{name: (1.0, math.nan, 1.0)}), ValueError,
                   rf"^{name}\[1\] must be finite, got nan$", id=f"{name}-nan")
      for name in PER_STEP_FIELDS],
    # float() parses text, and a str or bytes is a sequence: "123" would pass as
    # (1.0, 2.0, 3.0) and b"123" as (49.0, 50.0, 51.0).
    *[pytest.param(_direct_spec(**{name: text}), TypeError,
                   f"^{name} must be a number, got {text!r}$",
                   id=f"{name}-{type(text).__name__}")
      for name in PER_STEP_FIELDS for text in ("123", b"123")],
    *[pytest.param(_direct_spec(**{name: "5"}), TypeError, f"^{name} must be a number, got '5'$",
                   id=f"{name}-str") for name in ("q_terminal", "q_bar_terminal")],
    # float() reads True as 1.0.
    *[pytest.param(_direct_spec(**{name: True}), TypeError, f"^{name} must be a number, got True$",
                   id=f"{name}-bool") for name in PER_STEP_FIELDS],
    *[pytest.param(lambda text=text: InitialLaw(mean=text), TypeError,
                   f"^mean must be a number, got {text!r}$", id=f"mean-{type(text).__name__}")
      for text in ("7", b"7")],
    pytest.param(_direct_spec(q_terminal=math.inf), ValueError, "^q_terminal must be finite",
                 id="q_terminal-inf"),
    pytest.param(_direct_spec(q_bar_terminal=-math.inf), ValueError,
                 "^q_bar_terminal must be finite", id="q_bar_terminal-inf"),
    pytest.param(_direct_spec(p=1.5), ValueError, "^p must be an integer", id="p-float"),
    pytest.param(_direct_spec(o=2.0), ValueError, "^o must be an integer", id="o-float"),
    pytest.param(_direct_spec(p=0), ValueError, "^p must be an integer", id="p-zero"),
    pytest.param(_direct_spec(o=0), ValueError, "^o must be an integer", id="o-zero"),
    pytest.param(_direct_spec(p=True), ValueError, "^p must be an integer", id="p-bool"),
    pytest.param(_direct_spec(o=True), ValueError, "^o must be an integer", id="o-bool"),
    pytest.param(_direct_spec(n_steps=0), ValueError, r"^n_steps must be an integer >= 1, got 0$",
                 id="no-steps"),
    pytest.param(_direct_spec(n_steps=True), ValueError, "^n_steps must be an integer",
                 id="n_steps-bool"),
    pytest.param(_direct_spec(n_steps=3.0), ValueError, "^n_steps must be an integer",
                 id="n_steps-float"),
    pytest.param(_direct_spec(b_bar=(1.0, 0.0, 1.0)), ValueError, "allow_uncontrollable",
                 id="zero-b_bar"),
    pytest.param(_direct_spec(b_bar=(1.0, 0.0, 1.0), allow_uncontrollable=True), None, None,
                 id="zero-b_bar-allowed"),
])
def test_problem_spec_checks_every_field(make, error, match):
    if error is None:
        assert make().n_steps == 3
        return
    with pytest.raises(error, match=match):
        make()


def _ex4_p3():
    """The mean-field preset at p = 3 and its solved feedback policy."""
    spec = example_config(4, 3).problem
    return spec, solve(spec)[1]


@pytest.mark.parametrize("kind", [np.int64, np.int32])
def test_integer_gate_takes_numpy_integers_as_ints(kind):
    # A count, seed, order, zeta or step index read from a numpy array is an integer too.
    spec = _direct_spec(problem_class="higher_moment", n_steps=kind(3), p=kind(2), o=kind(2),
                        noise=Moments({kind(2): 1.0, kind(4): 3.0}))()
    stored = (spec.n_steps, spec.p, spec.o, spec.noise.values[0][0])
    assert stored == (3, 2, 2, 2) and all(type(value) is int for value in stored)
    run = RunSettings(n_paths=kind(10), master_seed=kind(5))
    assert (type(run.n_paths), type(run.master_seed)) == (int, int)
    assert '"n_paths": 10' in render_config(RunConfig(spec, run))

    spec, policy = _ex4_p3()
    ensemble = simulate_ensemble(spec, policy, kind(10), kind(5))
    expected = simulate_ensemble(spec, policy, 10, 5)
    np.testing.assert_array_equal(ensemble.states, expected.states)
    np.testing.assert_array_equal(central_moment(ensemble, kind(4)), central_moment(expected, 4))
    assert kpi(ensemble, kind(2)) == kpi(expected, 2)
    assert Gaussian(1.0).even_moment(kind(4)) == 3.0
    assert run_kpi_study(kind(2), kind(3)) == run_kpi_study(2, 3)
    assert policy.control(kind(1), 1.0, 1.0) == policy.control(1, 1.0, 1.0)


@pytest.mark.parametrize("call, error", [
    pytest.param(_direct_spec(n_steps=np.True_), ValueError, id="n_steps"),
    pytest.param(_direct_spec(p=np.True_), ValueError, id="p"),
    pytest.param(_direct_spec(o=np.True_), ValueError, id="o"),
    pytest.param(lambda: Moments({np.True_: 1.0}), ValueError, id="moment-order"),
    pytest.param(lambda: RunSettings(n_paths=np.True_), ValueError, id="n_paths"),
    pytest.param(lambda: RunSettings(master_seed=np.False_), ValueError, id="master_seed"),
    pytest.param(lambda: simulate_ensemble(*_ex4_p3(), np.True_, 5), ValueError,
                 id="simulate-n_paths"),
    pytest.param(lambda: kpi(simulate_ensemble(*_ex4_p3(), 2, 5), np.True_), ValueError,
                 id="zeta"),
    pytest.param(lambda: run_kpi_study(np.True_), ValueError, id="n_seeds"),
    pytest.param(lambda: _ex4_p3()[1].control(np.True_, 1.0, 1.0), IndexOutOfRange, id="step"),
])
def test_integer_gate_refuses_numpy_bools(call, error):
    with pytest.raises(error, match=r"must be an (even )?integer >= \d, got np\.(True|False)_$"
                                    r"|^zeta must be 1, 2, or 3, got np\.True_$|^step True outside"):
        call()


@pytest.mark.parametrize("a_bar", [1.0, [1.0]], ids=["scalar", "length-1"])
@pytest.mark.parametrize("n_steps", [10**19, 10**18], ids=["past-maxsize", "past-memory"])
def test_a_horizon_too_long_to_hold_names_n_steps(a_bar, n_steps):
    # A bare OverflowError or MemoryError once; the allocator refuses before filling anything.
    match = rf"^n_steps must fit a_bar per step in memory, got {n_steps}$"
    with pytest.raises(ValueError, match=match):
        ProblemSpec("deterministic", n_steps, a_bar=a_bar, b_bar=1.0, q_bar=1.0, q_bar_terminal=1.0,
                    r_bar=1.0, p=1, initial=InitialLaw(mean=1.0))


@pytest.mark.parametrize("make, match", [
    pytest.param(_direct_spec(noise=1.0), "^noise must be of type Distribution, got 1.0$",
                 id="noise-float"),
    pytest.param(_direct_spec(initial=1.0), "^initial must be of type InitialLaw, got 1.0$",
                 id="initial-float"),
    pytest.param(lambda: InitialLaw(mean=1.0, law=2.0),
                 "^law must be of type Distribution, got 2.0$", id="law-float"),
    pytest.param(_direct_spec(allow_uncontrollable="no"),
                 "^allow_uncontrollable must be of type bool, got 'no'$", id="flag-str"),
    pytest.param(_direct_spec(allow_uncontrollable=1),
                 "^allow_uncontrollable must be of type bool, got 1$", id="flag-int"),
])
def test_problem_spec_refuses_laws_and_flags_of_the_wrong_type(make, match):
    # A float law once failed later, in validate or solve, with a bare
    # AttributeError, and a truthy non-bool flag let a zero b_bar through.
    with pytest.raises(TypeError, match=match):
        make()


@pytest.mark.parametrize("make, match", [
    pytest.param(_direct_spec(q_bar=None), r"^q_bar must be a sequence of numbers, got None$",
                 id="q_bar-none"),
    pytest.param(_direct_spec(a_bar={1: 1.0}),
                 r"^a_bar must be a sequence of numbers, got \{1: 1.0\}$", id="a_bar-map"),
    pytest.param(_direct_spec(r=(1.0, [1.0], 1.0)), r"^r\[1\] must be a number, got \[1.0\]$",
                 id="r-nested-list"),
    pytest.param(lambda: Empirical(samples=5), r"^samples must be a sequence of numbers, got 5$",
                 id="samples-int"),
    pytest.param(lambda: Empirical(samples=None),
                 r"^samples must be a sequence of numbers, got None$", id="samples-none"),
    pytest.param(lambda: Moments(values=5),
                 r"^values must be a map or a sequence of \(order, moment\) pairs, got 5$",
                 id="values-int"),
    pytest.param(lambda: Moments(values=[2.0, 1.0]),
                 r"^values must be a map or a sequence of \(order, moment\) pairs, "
                 r"got \[2.0, 1.0\]$", id="values-not-pairs"),
])
def test_sequence_fields_refuse_a_non_sequence_naming_the_field(make, match):
    # Each once raised a bare "'NoneType' object is not iterable" or the like.
    with pytest.raises(TypeError, match=match):
        make()


# --------------------------------------------------------------------------
# Input gates: every number a law, the initial law and a spec's terminal weights take
# --------------------------------------------------------------------------

#: (build from one value, the name its messages use, is a spread) for each such
#: field. The ids are "Class.field"; a Moments entry is named by its order.
NUMERIC_FIELDS = [
    pytest.param(lambda v: Gaussian(sigma=v), "sigma", True, id="Gaussian.sigma"),
    pytest.param(lambda v: GaussianVariance(variance=v), "variance", True,
                 id="GaussianVariance.variance"),
    pytest.param(lambda v: Rademacher(scale=v), "scale", True, id="Rademacher.scale"),
    pytest.param(lambda v: UniformSymmetric(halfwidth=v), "halfwidth", True,
                 id="UniformSymmetric.halfwidth"),
    pytest.param(lambda v: Empirical(samples=(v, 1.0)), "samples", False, id="Empirical.samples"),
    pytest.param(lambda v: Empirical(samples=(1.0,), shift=v), "shift", False,
                 id="Empirical.shift"),
    pytest.param(lambda v: Moments({2: v}), "moment of order 2", True, id="Moments.values"),
    pytest.param(lambda v: InitialLaw(mean=v), "mean", False, id="InitialLaw.mean"),
    *[pytest.param(lambda v, name=name: _direct_spec(**{name: v})(), name, False,
                   id=f"ProblemSpec.{name}") for name in ("q_terminal", "q_bar_terminal")],
]


def test_numeric_field_sweep_covers_every_law_field():
    law_fields = {f"{cls.__name__}.{field.name}"
                  for cls in Distribution.__subclasses__() for field in dataclasses.fields(cls)}
    assert law_fields <= {param.id for param in NUMERIC_FIELDS}


@pytest.mark.parametrize("build, name, spread", NUMERIC_FIELDS)
@pytest.mark.parametrize("value", ["5", b"5", True], ids=["str", "bytes", "bool"])
def test_numeric_field_refuses_text_and_bools(build, name, spread, value):
    # float() would read each of these as 5.0 or 1.0. The sequence gate names the
    # element it refuses by its index.
    name = {"samples": "samples[0]"}.get(name, name)
    match = rf"^{re.escape(name)} must be a number, got {re.escape(repr(value))}$"
    with pytest.raises(TypeError, match=match):
        build(value)


@pytest.mark.parametrize("build, name, spread", NUMERIC_FIELDS)
@pytest.mark.parametrize("value", [math.nan, math.inf, 10**400, -1.0],
                         ids=["nan", "inf", "huge-int", "negative"])
def test_numeric_field_must_be_finite_and_a_spread_nonnegative(build, name, spread, value):
    # float() raises OverflowError on 10**400; the gates read it as inf.
    if value == -1.0 and not spread:
        build(value)
        return
    name = {"samples": "samples[0]"}.get(name, name)
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must "):
        build(value)


@pytest.mark.parametrize("build, name, spread", NUMERIC_FIELDS)
@pytest.mark.parametrize("value", [np.array("5"), np.array(True)], ids=["text", "bool"])
def test_numeric_field_refuses_a_0d_array_of_text_or_a_bool(build, name, spread, value):
    # float() reads each as 5.0 or 1.0, as it reads the scalars they hold.
    name = {"samples": "samples[0]"}.get(name, name)
    with pytest.raises(TypeError, match=f"^{re.escape(name)} must be a number, got array"):
        build(value)


@pytest.mark.parametrize("name", PER_STEP_FIELDS)
def test_per_step_field_takes_a_0d_array_as_its_scalar(name):
    # Iterating a 0-d array once raised a bare "iteration over a 0-d array".
    for scalar in (np.array(2.0), np.array(2)):
        assert getattr(_direct_spec(**{name: scalar})(), name) == (2.0, 2.0, 2.0)
    with pytest.raises(TypeError, match=f"^{name} must be a number, got array"):
        _direct_spec(**{name: np.array("2")})()


def test_empirical_samples_refuse_a_0d_array_naming_the_field():
    with pytest.raises(TypeError, match=r"^samples must be a sequence of numbers, got array\(1\.\)$"):
        Empirical(samples=np.array(1.0))


def test_signed_root_order_follows_the_integer_type_rule():
    for order in (True, 3.0, np.float64(3.0)):
        with pytest.raises(ValueError, match="^root order must be an odd positive integer"):
            signed_root(8.0, order)
    assert signed_root(8.0, np.int64(3)) == signed_root(8.0, 3) == 2.0


def test_an_int_spread_is_stored_as_a_float():
    for law in (Gaussian(2), GaussianVariance(2), Rademacher(2), UniformSymmetric(2)):
        (field,) = dataclasses.fields(law)
        assert type(getattr(law, field.name)) is float, law
    ((order, moment),) = Moments({2: 1}).values
    assert (order, moment, type(moment)) == (2, 1.0, float)


@pytest.mark.parametrize("noise", [lambda: Rademacher(10), lambda: UniformSymmetric(10)],
                         ids=["rademacher", "uniform"])
def test_validate_reports_an_int_spread_moment_past_the_float_range_as_inf(noise):
    # Stored as an int, the scale's 400th power would overflow float(); as a float it is inf.
    spec = ProblemSpec(
        "higher_moment", 2,
        a_bar=1.0, b_bar=1.0, q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=1,
        a=0.5, b=0.5, q=1.0, q_terminal=1.0, r=1.0, o=200,
        noise=noise(), initial=InitialLaw(mean=1.0),
    )
    assert "noise moment of order 400 available  fail  (value inf)" in validate(spec).lines()


def test_validate_passes_on_builtin_examples():
    for example_id in (1, 2, 3, 4):
        report = validate(example_config(example_id, 2).problem)
        assert report.ok, report.lines()


def test_validate_flags_nonpositive_mean_weight():
    spec = ProblemSpec(
        "deterministic", 2,
        a_bar=1.0, b_bar=1.0, q_bar=1.0, q_bar_terminal=1.0, r_bar=[1.0, 0.0], p=1,
        initial=InitialLaw(mean=1.0),
    )
    report = validate(spec)
    assert not report.ok
    assert any(c.name == "mean weight signs" for c in report.failures)


def test_validate_flags_incompatible_noise():
    # A stochastic class needs a noise law; the deterministic class admits none.
    for klass, noise in (("additive", None), ("deterministic", Gaussian(sigma=1.0))):
        spec = ProblemSpec(
            klass, 2,
            a_bar=1.0, b_bar=1.0, q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=1,
            q=1.0, q_terminal=1.0, r=1.0, noise=noise,
            initial=InitialLaw(mean=1.0),
        )
        report = validate(spec)
        assert any(c.name == "class/noise compatibility" for c in report.failures), klass


@pytest.mark.parametrize("klass", ["additive", "mult_state", "higher_moment"])
def test_missing_noise_law_raises_missing_moment(klass):
    spec = ProblemSpec(
        klass, 2,
        a_bar=1.0, b_bar=1.0, q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=1,
        q=1.0, q_terminal=1.0, r=1.0,
        initial=InitialLaw(mean=1.0),
    )
    assert spec.noise is None
    with pytest.raises(MissingMoment):
        spec.noise_moment(2)
    with pytest.raises(InvalidProblem, match=r"^class/noise compatibility \(") as info:
        solve(spec)
    assert info.value.report == validate(spec)
    policy = FeedbackPolicy(k_mean=(0.1, 0.1), k_dev=(0.1, 0.1))
    with pytest.raises(MissingMoment):
        simulate_ensemble(spec, policy, n_paths=2, master_seed=0)


def test_validate_flags_random_initial_state_for_deterministic_class():
    spec = ProblemSpec(
        "deterministic", 2,
        a_bar=1.0, b_bar=1.0, q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=1,
        initial=InitialLaw(mean=1.0, law=GaussianVariance(variance=1.0)),
    )
    report = validate(spec)
    assert any(c.name == "initial law is a point mass" for c in report.failures)


def test_validate_requires_unit_moment_power_outside_higher_moment_class():
    # The noise line names order 2o for every stochastic class, the moment
    # solve() would read, also on a spec that already fails the o = 1 rule.
    for noise, outcome in ((Gaussian(sigma=1.0), "pass  (value 3.0)"),
                           (Moments({2: 1.0}), "fail  (the moments law lacks this order)")):
        spec = ProblemSpec(
            "mult_state", 2,
            a_bar=1.0, b_bar=1.0, q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=1,
            q=1.0, q_terminal=1.0, r=1.0, o=2,
            noise=noise,
            initial=InitialLaw(mean=1.0),
        )
        report = validate(spec)
        assert any(c.name == "moment power o = 1" for c in report.failures)
        assert re.fullmatch(r"noise moment of order 4 available +" + re.escape(outcome),
                            report.lines()[-1])


def test_validate_flags_missing_noise_moment():
    spec = ProblemSpec(
        "higher_moment", 2,
        a_bar=1.0, b_bar=1.0, q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=2,
        a=0.5, b=0.5, q=1.0, q_terminal=1.0, r=1.0, o=2,
        noise=Moments({2: 1.0}),
        initial=InitialLaw(mean=1.0),
    )
    report = validate(spec)
    assert any(c.name == "noise moment of order 4 available" for c in report.failures)


def test_validate_is_pure():
    spec = example_config(3, 2).problem
    first = validate(spec)
    second = validate(spec)
    assert [(c.name, c.status) for c in first.checks] == [
        (c.name, c.status) for c in second.checks
    ]


def test_uncontrollable_mean_step_rejected_by_default():
    with pytest.raises(ValueError):
        ProblemSpec(
            "deterministic", 2,
            a_bar=1.0, b_bar=[1.0, 0.0], q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0,
            p=1, initial=InitialLaw(mean=1.0),
        )
    spec = ProblemSpec(
        "deterministic", 2,
        a_bar=1.0, b_bar=[1.0, 0.0], q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0,
        p=1, initial=InitialLaw(mean=1.0), allow_uncontrollable=True,
    )
    assert spec.b_bar == (1.0, 0.0)
