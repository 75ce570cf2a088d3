"""Tests for seeded simulation, cost evaluation, and performance indices."""

import math

import numpy as np
import pytest

from hocs import (
    Empirical,
    FeedbackPolicy,
    GainSchedule,
    Gaussian,
    InitialLaw,
    InvalidPolicy,
    MissingMoment,
    NoiseKind,
    NoiseSpec,
    TrajectoryEnsemble,
    build_problem,
    central_moment,
    example_config,
    kpi,
    predicted_cost,
    realized_cost,
    simulate_ensemble,
    solve,
)
from hocs.cli import main
from hocs.config import render_config
from hocs.simulate import _DRAWS, _common_draws, _draw, _even_power


def _solved_policy(spec):
    schedule, gains = solve(spec)
    return schedule, FeedbackPolicy(gains)


def _hand_ensemble(states, controls, mean_path, mean_controls):
    return TrajectoryEnsemble(
        states=np.asarray(states, dtype=float),
        controls=np.asarray(controls, dtype=float),
        mean_path=np.asarray(mean_path, dtype=float),
        mean_controls=np.asarray(mean_controls, dtype=float),
        mean_mode="exact",
    )


# --------------------------------------------------------------------------
# Reproducibility and the mean channel
# --------------------------------------------------------------------------

def test_same_seed_reproduces_bit_identical_paths():
    spec = example_config(3, 2).problem
    _, policy = _solved_policy(spec)
    first = simulate_ensemble(spec, policy, n_paths=64, master_seed=11)
    second = simulate_ensemble(spec, policy, n_paths=64, master_seed=11)
    assert np.array_equal(first.states, second.states)
    assert np.array_equal(first.controls, second.controls)
    third = simulate_ensemble(spec, policy, n_paths=64, master_seed=12)
    assert not np.array_equal(first.states, third.states)


def test_exact_mean_path_ignores_seed_and_ensemble_size():
    spec = example_config(2, 2).problem
    _, policy = _solved_policy(spec)
    small = simulate_ensemble(spec, policy, n_paths=3, master_seed=1)
    large = simulate_ensemble(spec, policy, n_paths=200, master_seed=999)
    assert np.array_equal(small.mean_path, large.mean_path)
    assert np.array_equal(small.mean_controls, large.mean_controls)


def test_deterministic_paths_equal_mean_path():
    spec = example_config(1, 2).problem
    schedule, policy = _solved_policy(spec)
    ensemble = simulate_ensemble(spec, policy, n_paths=3, master_seed=5)
    for row in ensemble.states:
        np.testing.assert_allclose(row, ensemble.mean_path, rtol=0, atol=0)
    report = realized_cost(spec, ensemble, schedule)
    expected = schedule.alpha_bar[0] * spec.initial.mean ** (2 * spec.cost.p)
    assert math.isclose(report.realized_mean, expected, rel_tol=1e-10)
    assert report.realized_stderr == 0.0


def test_propagate_mean_geometric_decay():
    spec = build_problem(
        "deterministic", 4,
        a_bar=1.0, b_bar=1.0, q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=1,
        initial=InitialLaw(mean=8.0),
    )
    gains = GainSchedule(k_mean=(0.5, 0.5, 0.5, 0.5))
    ensemble = simulate_ensemble(spec, FeedbackPolicy(gains), n_paths=1, master_seed=0)
    np.testing.assert_allclose(
        ensemble.mean_path, [8.0, 4.0, 2.0, 1.0, 0.5], rtol=0, atol=0
    )


def test_empirical_mean_mode_matches_column_means():
    spec = example_config(3, 1).problem
    _, policy = _solved_policy(spec)
    ensemble = simulate_ensemble(spec, policy, n_paths=500, master_seed=3,
                                 mean_mode="empirical")
    np.testing.assert_allclose(ensemble.mean_path, ensemble.states.mean(axis=0),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(ensemble.mean_controls, ensemble.controls.mean(axis=0),
                               rtol=1e-12, atol=1e-12)


def test_ensemble_arrays_are_read_only():
    spec = example_config(1, 1).problem
    _, policy = _solved_policy(spec)
    ensemble = simulate_ensemble(spec, policy, n_paths=2, master_seed=0)
    with pytest.raises(ValueError):
        ensemble.states[0, 0] = 99.0


def test_moment_table_defaults_to_variance_and_risk_order(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(render_config(example_config(4, 3)), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config_path), "--out", str(out),
                 "--paths", "10", "--seed", "0"]) == 0
    header = (out / "moments.csv").read_text().splitlines()[0]
    assert header == "k,central_2,central_6"


def test_ensemble_columns_are_contiguous_and_read_only():
    spec = example_config(4, 3).problem
    _, policy = _solved_policy(spec)
    ensemble = simulate_ensemble(spec, policy, n_paths=50, master_seed=0)
    assert ensemble.states.shape == (50, spec.n_steps + 1)
    assert ensemble.controls.shape == (50, spec.n_steps)
    for k in range(spec.n_steps):
        for column in (ensemble.states[:, k], ensemble.controls[:, k]):
            assert column.flags.c_contiguous
            assert not column.flags.writeable
    assert ensemble.states[:, spec.n_steps].flags.c_contiguous
    for array in (ensemble.states, ensemble.controls):
        with pytest.raises(ValueError):
            array[0, 0] = 99.0


# --------------------------------------------------------------------------
# Common random numbers: one draw per scope
# --------------------------------------------------------------------------

def test_common_draws_scope_reuses_one_draw_and_forgets_it():
    spec = example_config(4, 3).problem
    _, policy = _solved_policy(spec)
    assert _draw(spec, 32, 5)[1] is not _draw(spec, 32, 5)[1]
    with _common_draws():
        first = simulate_ensemble(spec, policy, n_paths=32, master_seed=5)
        second = simulate_ensemble(spec, policy, n_paths=32, master_seed=5)
        x0, eps = _draw(spec, 32, 5)
        with _common_draws():
            assert _draw(spec, 32, 5)[1] is eps
        assert len(_DRAWS.get()) == 1
        other_x0, other_eps = _draw(spec, 32, 6)
        assert len(_DRAWS.get()) == 2
    assert _DRAWS.get() is None
    fresh = simulate_ensemble(spec, policy, n_paths=32, master_seed=5)

    for ensemble in (second, fresh):
        assert np.array_equal(ensemble.states, first.states)
        assert np.array_equal(ensemble.controls, first.controls)
    assert not np.shares_memory(first.states, second.states)
    assert not np.shares_memory(first.controls, second.controls)
    assert not (x0.flags.writeable or eps.flags.writeable)
    assert not np.array_equal(other_x0, x0)
    assert not np.array_equal(other_eps, eps)


# --------------------------------------------------------------------------
# Input validation
# --------------------------------------------------------------------------

def test_simulate_rejects_bad_arguments():
    spec = example_config(1, 1).problem
    _, policy = _solved_policy(spec)
    with pytest.raises(ValueError):
        simulate_ensemble(spec, policy, n_paths=0, master_seed=0)
    with pytest.raises(ValueError):
        simulate_ensemble(spec, policy, n_paths=1, master_seed=0, mean_mode="typo")


def test_simulate_rejects_policy_with_wrong_horizon():
    spec = example_config(2, 1).problem
    short = FeedbackPolicy(GainSchedule(k_mean=(0.1,), k_dev=(0.1,)))
    with pytest.raises(InvalidPolicy):
        simulate_ensemble(spec, short, n_paths=2, master_seed=0)


def test_simulate_needs_a_samplable_noise_law():
    spec = build_problem(
        "additive", 2,
        a_bar=1.0, b_bar=1.0, q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=1,
        q=1.0, q_terminal=1.0, r=1.0,
        noise=NoiseSpec(kind=NoiseKind.ADDITIVE, moment_override={2: 1.0}),
        initial=InitialLaw(mean=1.0),
    )
    _, policy = _solved_policy(spec)
    with pytest.raises(MissingMoment):
        simulate_ensemble(spec, policy, n_paths=2, master_seed=0)


# --------------------------------------------------------------------------
# Moment tracking
# --------------------------------------------------------------------------

def test_mult_state_variance_tracks_theory():
    # Closed loop, dev[k+1] = (a_bar - b_bar k_dev) dev + dev eps, so the
    # variance multiplies by (a_bar - b_bar k_dev)^2 + E[eps^2] each step.
    # Moderate sigma keeps the kurtosis of the product bounded enough for the
    # plug-in stderr to be meaningful over the whole horizon.
    spec = build_problem(
        "mult_state", 6,
        a_bar=1.0, b_bar=1.0, q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=1,
        q=1.0, q_terminal=1.0, r=1.0,
        noise=NoiseSpec(kind=NoiseKind.MULT_STATE, distribution=Gaussian(sigma=0.3)),
        initial=InitialLaw(mean=2.0, law=Empirical(samples=(-0.3, 0.3))),
    )
    _, policy = _solved_policy(spec)
    _, gains = solve(spec)
    n_paths = 100_000
    ensemble = simulate_ensemble(spec, policy, n_paths, master_seed=2024)
    m2_hat = central_moment(ensemble, 2)
    m4_hat = central_moment(ensemble, 4)

    sigma2 = spec.noise.even_moment(2)
    var_theory = spec.initial.variance
    for k in range(spec.n_steps + 1):
        stderr = math.sqrt(max(m4_hat[k] - m2_hat[k] ** 2, 0.0) / n_paths)
        assert abs(m2_hat[k] - var_theory) <= 3.0 * stderr + 1e-12
        if k < spec.n_steps:
            closed = spec.mean_dyn.a_bar[k] - spec.mean_dyn.b_bar[k] * gains.k_dev[k]
            var_theory *= closed ** 2 + sigma2


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_even_power_matches_numpy_power(n):
    x = np.random.default_rng(n).normal(0.0, 2.0, (500, 7))
    expected = x ** n
    np.testing.assert_allclose(_even_power(x, n), expected, rtol=1e-15, atol=0)
    # Powering a buffer into itself must not square the running product.
    buffer = x.copy()
    result = _even_power(buffer, n, out=buffer)
    assert result is buffer
    np.testing.assert_allclose(buffer, expected, rtol=1e-15, atol=0)


def test_central_moment_matches_exactly_summed_mean():
    spec = example_config(3, 1).problem
    _, policy = _solved_policy(spec)
    n_paths = 100_000
    ensemble = simulate_ensemble(spec, policy, n_paths, master_seed=42)
    moments = central_moment(ensemble, 2)
    assert moments.shape == (spec.n_steps + 1,)
    for k in range(spec.n_steps + 1):
        deviations = ensemble.states[:, k] - ensemble.mean_path[k]
        exact = math.fsum(deviations * deviations) / n_paths
        assert math.isclose(moments[k], exact, rel_tol=1e-15), k
    with pytest.raises(ValueError):
        central_moment(ensemble, 3)


def test_mult_state_point_mass_initial_has_no_spread():
    spec = build_problem(
        "mult_state", 5,
        a_bar=1.2, b_bar=1.0, q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=1,
        q=1.0, q_terminal=1.0, r=1.0,
        noise=NoiseSpec(kind=NoiseKind.MULT_STATE, distribution=Gaussian(sigma=1.0)),
        initial=InitialLaw(mean=4.0),
    )
    _, policy = _solved_policy(spec)
    ensemble = simulate_ensemble(spec, policy, n_paths=50, master_seed=9)
    # Multiplicative-in-deviation noise cannot create spread from nothing.
    np.testing.assert_allclose(
        ensemble.states, np.broadcast_to(ensemble.mean_path, ensemble.states.shape),
        rtol=0, atol=0,
    )


# --------------------------------------------------------------------------
# Costs
# --------------------------------------------------------------------------

def test_realized_cost_breakdown_sums_exactly():
    spec = example_config(2, 2).problem
    schedule, policy = _solved_policy(spec)
    ensemble = simulate_ensemble(spec, policy, n_paths=300, master_seed=17)
    report = realized_cost(spec, ensemble, schedule)
    assert sum(report.breakdown.values()) == report.realized_mean
    assert set(report.breakdown) == {
        "state_power", "control_power", "state_moment", "control_moment",
    }
    assert report.n_paths == 300
    assert report.realized_stderr > 0.0


def test_realized_cost_without_bootstrap_has_no_stderr():
    # A single path has no spread to estimate, and no resamples are drawn.
    spec = example_config(2, 1).problem
    schedule, policy = _solved_policy(spec)
    ensemble = simulate_ensemble(spec, policy, n_paths=1, master_seed=17)
    report = realized_cost(spec, ensemble, schedule)
    assert report.realized_stderr == 0.0
    assert report.n_bootstrap == 0


def _per_path_moment_costs(spec, ensemble):
    """Per-path deviation-power cost, summed step by step."""
    cost, two_o, n = spec.cost, 2 * spec.cost.o, ensemble.n_steps
    total = np.zeros(ensemble.n_paths)
    for k in range(n):
        total += cost.q[k] * (ensemble.states[:, k] - ensemble.mean_path[k]) ** two_o
        total += cost.r[k] * (ensemble.controls[:, k] - ensemble.mean_controls[k]) ** two_o
    total += cost.q_terminal * (ensemble.states[:, n] - ensemble.mean_path[n]) ** two_o
    return total


def test_realized_stderr_is_plug_in_standard_error():
    spec = example_config(3, 2).problem
    schedule, policy = _solved_policy(spec)
    ensemble = simulate_ensemble(spec, policy, n_paths=300, master_seed=17)
    report = realized_cost(spec, ensemble, schedule)
    per_path = _per_path_moment_costs(spec, ensemble)
    assert math.isclose(report.realized_stderr, per_path.std() / math.sqrt(300),
                        rel_tol=1e-12)


@pytest.mark.parametrize("example_id,p", [(2, 1), (3, 1), (4, 1), (4, 2), (4, 3)])
def test_realized_stderr_agrees_with_path_bootstrap(example_id, p):
    spec = example_config(example_id, p).problem
    schedule, policy = _solved_policy(spec)
    n_paths = 20_000
    ensemble = simulate_ensemble(spec, policy, n_paths, master_seed=42)
    report = realized_cost(spec, ensemble, schedule)
    per_path = _per_path_moment_costs(spec, ensemble)
    rng = np.random.default_rng(0)
    resampled = [per_path[rng.integers(0, n_paths, n_paths)].mean() for _ in range(200)]
    bootstrap = float(np.std(resampled, ddof=1))
    assert abs(report.realized_stderr / bootstrap - 1.0) <= 0.10


def test_additive_cost_matches_prediction_within_noise():
    config = example_config(2, 1)
    spec = config.problem
    schedule, policy = _solved_policy(spec)
    ensemble = simulate_ensemble(spec, policy, n_paths=20_000, master_seed=42)
    report = realized_cost(spec, ensemble, schedule)
    assert report.realized_stderr > 0.0
    assert abs(report.realized_mean - report.predicted) <= 3.0 * report.realized_stderr


def test_predicted_cost_desk_values():
    quartic = build_problem(
        "deterministic", 1,
        a_bar=1.0, b_bar=1.0, q_bar=[0.0], q_bar_terminal=1.0, r_bar=1.0, p=2,
        initial=InitialLaw(mean=1.0),
    )
    schedule, _ = solve(quartic)
    assert math.isclose(predicted_cost(schedule, quartic.initial), 0.125, rel_tol=1e-14)

    # Zero mean and point-mass start: only the noise offset remains.
    offset_only = build_problem(
        "additive", 3,
        a_bar=1.0, b_bar=1.0, q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=1,
        q=1.0, q_terminal=1.0, r=1.0,
        noise=NoiseSpec(kind=NoiseKind.ADDITIVE, distribution=Gaussian(sigma=1.0)),
        initial=InitialLaw(mean=0.0),
    )
    schedule, _ = solve(offset_only)
    assert predicted_cost(schedule, offset_only.initial) == schedule.gamma_bar[0]


def test_predicted_cost_requires_deviation_channel_when_stochastic():
    from hocs import CoefficientSchedule, ProblemClass

    bare = CoefficientSchedule(
        problem_class=ProblemClass.ADDITIVE, p=1, o=1, alpha_bar=(1.0, 1.0),
    )
    with pytest.raises(ValueError):
        predicted_cost(bare, InitialLaw(mean=1.0))


# --------------------------------------------------------------------------
# Performance indices
# --------------------------------------------------------------------------

def test_kpi_desk_value():
    ensemble = _hand_ensemble([[1.0, 0.5]], [[-0.5]], [1.0, 0.5], [-0.5])
    assert kpi(ensemble, 1) == (1.25, 0.25)


def test_kpi_rejects_unknown_power():
    ensemble = _hand_ensemble([[1.0, 0.5]], [[-0.5]], [1.0, 0.5], [-0.5])
    with pytest.raises(ValueError):
        kpi(ensemble, 4)


def test_kpi_monotone_in_power_for_large_components():
    # Every deviation and mean entry has magnitude >= 1, so raising the
    # power can only raise each term.
    ensemble = _hand_ensemble(
        states=[[2.0, 3.0], [4.0, 5.0]],
        controls=[[-4.0], [0.0]],
        mean_path=[1.0, 1.0],
        mean_controls=[-2.0],
    )
    x_values, u_values = zip(*(kpi(ensemble, z) for z in (1, 2, 3)))
    assert x_values[0] <= x_values[1] <= x_values[2]
    assert u_values[0] <= u_values[1] <= u_values[2]


def test_kpi_is_nonnegative():
    spec = example_config(3, 2).problem
    _, policy = _solved_policy(spec)
    ensemble = simulate_ensemble(spec, policy, n_paths=40, master_seed=8)
    for z in (1, 2, 3):
        kx, ku = kpi(ensemble, z)
        assert kx >= 0.0
        assert ku >= 0.0
