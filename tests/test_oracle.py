"""Tests for the independent optimizers and agreement probes."""

import math

import numpy as np
import pytest

from hocs import (
    FeedbackPolicy,
    InitialLaw,
    NotConverged,
    build_problem,
    brute_force_deterministic,
    convexity_check,
    example_config,
    local_optimality_probe,
    mc_validate,
    oracle,
    realized_cost,
    simulate_ensemble,
    solve,
)
from hocs.oracle import _scaled_gains
from hocs.simulate import _DRAWS, _common_draws

PROBE_GRID = (0.5, 0.9, 1.0, 1.1, 2.0)


def _random_deterministic_spec(rng):
    n = int(rng.integers(1, 11))
    p = int(rng.integers(1, 4))

    def draw(size=None):
        magnitude = rng.uniform(0.1, 5.0, size)
        return magnitude * rng.choice([-1.0, 1.0], size=size)

    return build_problem(
        "deterministic", n,
        a_bar=list(draw(n)), b_bar=list(draw(n)),
        q_bar=list(rng.uniform(0.1, 5.0, n)),
        q_bar_terminal=float(rng.uniform(0.1, 5.0)),
        r_bar=list(rng.uniform(0.1, 5.0, n)),
        p=p,
        initial=InitialLaw(mean=float(draw())),
    )


def test_oracle_recovers_quartic_desk_solution():
    spec = build_problem(
        "deterministic", 1,
        a_bar=1.0, b_bar=1.0, q_bar=[0.0], q_bar_terminal=1.0, r_bar=1.0, p=2,
        initial=InitialLaw(mean=1.0),
    )
    report = brute_force_deterministic(spec)
    assert math.isclose(report.oracle_cost, 0.125, rel_tol=1e-12)
    assert report.control_max_abs_diff < 1e-12
    assert report.converged
    assert not report.discrepant


def test_oracle_zero_start_is_immediate():
    spec = build_problem(
        "deterministic", 5,
        a_bar=1.0, b_bar=1.0, q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=3,
        initial=InitialLaw(mean=0.0),
    )
    report = brute_force_deterministic(spec)
    assert report.iterations == 1
    assert report.oracle_cost == 0.0
    assert report.relative_gap == 0.0


@pytest.mark.parametrize("p", [1, 2, 3])
def test_oracle_agrees_with_closed_form_on_reference_problem(p):
    spec = example_config(1, p).problem
    report = brute_force_deterministic(spec)
    assert report.converged
    assert not report.discrepant
    assert report.relative_gap < 1e-12
    assert report.control_max_abs_diff < 1e-8


def test_oracle_agrees_on_random_problems():
    rng = np.random.default_rng(31)
    for _ in range(30):
        report = brute_force_deterministic(_random_deterministic_spec(rng))
        assert report.converged
        assert report.relative_gap < 1e-6
        assert report.control_max_abs_diff < 1e-5
        assert not report.discrepant


def test_oracle_resolves_flat_controls_on_stiff_spec():
    # A criterion-2-family spec (the benchmark's oracle_det workload, seed 204,
    # op 96, slot 1) whose late controls are too flat for the float loop:
    # only the exact-gradient Newton finish brings them within the gate.
    spec = build_problem(
        "deterministic", 9,
        a_bar=[0.5634618390061549, -0.8350976410486041, 2.936635580986845,
               0.2197262705960788, -1.7991371509250706, 3.120977374857725,
               -2.733300798228402, -1.8801972394768407, 2.5094811239951365],
        b_bar=[3.143430332243743, 2.266115566584935, -3.8763487380845163,
               -3.5230084266698136, -3.9258727106475386, -3.910901745482935,
               4.838898406501223, -2.516334558281933, 1.6128008703465033],
        q_bar=[2.796952582611387, 2.8451967455267346, 4.932612197360924,
               3.5309516932001266, 4.87445724517901, 4.239109903604223,
               0.7627786644672812, 2.301015557958514, 4.028373980333825],
        q_bar_terminal=3.718771852446362,
        r_bar=[0.9745334214630089, 3.6453537280758344, 2.3673306157721927,
               3.049074952041743, 1.4610917016631684, 0.5309271818042746,
               4.39774074031549, 1.4180816942914898, 1.3185023817316976],
        p=3,
        initial=InitialLaw(mean=0.7529702568820831),
    )
    report = brute_force_deterministic(spec)
    assert report.relative_gap < 1e-6
    assert report.control_max_abs_diff < 1e-5
    assert not report.discrepant


def test_oracle_finishes_p1_crawl_spec_in_a_few_newton_steps():
    # The 120th criterion-2-family draw from default_rng(1): N = 10, p = 1.
    # A damped float loop crawled 1,247 iterations on it.
    rng = np.random.default_rng(1)
    for _ in range(119):
        _random_deterministic_spec(rng)
    spec = _random_deterministic_spec(rng)
    assert (spec.n_steps, spec.cost.p) == (10, 1)
    report = brute_force_deterministic(spec)
    assert report.iterations <= 10
    assert report.relative_gap < 1e-6
    assert report.control_max_abs_diff < 1e-5
    assert not report.discrepant


def _wide_deterministic_spec(rng):
    # Criterion 2's generator with longer horizons, p up to 4 and
    # coefficients down to 1e-3 in magnitude; same draw order.
    n = int(rng.integers(1, 21))
    p = int(rng.integers(1, 5))

    def draw(size=None):
        lo = rng.choice([1e-3, 0.1], size=size)
        return rng.uniform(lo, 5.0, size) * rng.choice([-1.0, 1.0], size=size)

    return build_problem(
        "deterministic", n,
        a_bar=list(draw(n)), b_bar=list(draw(n)),
        q_bar=list(rng.uniform(0.1, 5.0, n)),
        q_bar_terminal=float(rng.uniform(0.1, 5.0)),
        r_bar=list(rng.uniform(0.1, 5.0, n)),
        p=p,
        initial=InitialLaw(mean=float(draw())),
    )


def test_oracle_is_never_silently_wrong_on_wide_specs():
    # Outside criterion 2's family an answer may be out of reach, but then
    # the oracle must raise: specs 6, 8, 12, 13 and 16 of this draw (16 with
    # a control gap of 7.1) once came back outside the gates.
    rng = np.random.default_rng(12)
    for index in range(20):
        spec = _wide_deterministic_spec(rng)
        try:
            report = brute_force_deterministic(spec)
        except NotConverged:
            continue
        assert report.relative_gap < 1e-6, index
        assert report.control_max_abs_diff < 1e-5, index
        assert not report.discrepant, index


def test_oracle_overflow_is_not_converged():
    # b_bar = 1e-100 leaves the control almost no leverage: the first Newton
    # update from zero lands near -3e99, and its fourth power overflows.
    spec = build_problem(
        "deterministic", 1,
        a_bar=1.0, b_bar=1e-100, q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=2,
        initial=InitialLaw(mean=1.0),
    )
    with pytest.raises(NotConverged, match="Newton update 2"):
        brute_force_deterministic(spec)


def test_oracle_rejects_wrong_class_and_bad_tolerance():
    with pytest.raises(ValueError):
        brute_force_deterministic(example_config(2, 1).problem)
    spec = example_config(1, 1).problem
    with pytest.raises(ValueError):
        brute_force_deterministic(spec, max_iter=0)


def test_oracle_raises_when_the_iteration_budget_runs_out():
    with pytest.raises(NotConverged):
        brute_force_deterministic(example_config(1, 3).problem, max_iter=1)


def test_mc_validation_accepts_solved_controller():
    spec = example_config(2, 1).problem
    schedule, gains = solve(spec)
    report = mc_validate(spec, schedule, gains, n_paths=20_000, master_seed=42)
    assert report.converged
    assert not report.discrepant
    assert report.stderr > 0.0
    gap = abs(report.closed_form_cost - report.oracle_cost)
    assert gap <= 3.0 * report.stderr + 1e-10 * abs(report.closed_form_cost)


def test_probe_finds_minimum_at_unit_scale_deterministically():
    spec = example_config(1, 2).problem
    schedule, gains = solve(spec)
    report = local_optimality_probe(spec, schedule, gains, PROBE_GRID, n_paths=1,
                                    master_seed=0)
    assert report.min_at_unit
    assert set(report.curves) == {"mean"}
    curve = dict((scale, cost) for scale, cost, _ in report.curves["mean"])
    assert curve[1.0] <= min(curve.values())


def test_probe_covers_both_channels_for_stochastic_classes():
    spec = example_config(3, 1).problem
    schedule, gains = solve(spec)
    report = local_optimality_probe(spec, schedule, gains, PROBE_GRID, n_paths=4000,
                                    master_seed=7)
    assert set(report.curves) == {"mean", "dev"}
    assert report.min_at_unit


@pytest.mark.parametrize("example_id,p,seed", [
    (2, 2, 0), (2, 2, 411), (3, 1, 7), (3, 1, 12), (4, 3, 411), (4, 3, 3),
])
def test_shared_draw_reports_equal_fresh_draw_loop(example_id, p, seed):
    spec = example_config(example_id, p).problem
    schedule, gains = solve(spec)
    n_paths = 300

    def fresh_cost(policy_gains):
        ensemble = simulate_ensemble(spec, FeedbackPolicy(policy_gains), n_paths, seed)
        return realized_cost(spec, ensemble, schedule)

    curves = {}
    for channel in ("mean", "dev"):
        points = []
        for factor in PROBE_GRID:
            report = fresh_cost(_scaled_gains(gains, channel, factor))
            points.append((factor, report.realized_mean, report.realized_stderr))
        curves[channel] = tuple(points)
    unit = fresh_cost(gains)
    unscoped = mc_validate(spec, schedule, gains, n_paths, seed)
    with _common_draws():
        first = mc_validate(spec, schedule, gains, n_paths, seed)
        probe = local_optimality_probe(spec, schedule, gains, PROBE_GRID, n_paths, seed)
        again = mc_validate(spec, schedule, gains, n_paths, seed)
    assert _DRAWS.get() is None

    assert probe.curves == curves
    assert first == again == unscoped
    assert (unscoped.closed_form_cost, unscoped.oracle_cost, unscoped.stderr) == (
        unit.predicted, unit.realized_mean, unit.realized_stderr)


def test_probe_drops_its_draw_when_it_raises(monkeypatch):
    spec = example_config(4, 3).problem
    schedule, gains = solve(spec)
    held = []

    def failing_cost(*args):
        held.append(len(_DRAWS.get()))
        raise RuntimeError("cost evaluation failed")

    monkeypatch.setattr(oracle, "realized_cost", failing_cost)
    with pytest.raises(RuntimeError):
        local_optimality_probe(spec, schedule, gains, PROBE_GRID, n_paths=50, master_seed=1)
    assert held == [1]
    assert _DRAWS.get() is None


def test_probe_requires_unit_scale_in_grid():
    spec = example_config(1, 1).problem
    schedule, gains = solve(spec)
    with pytest.raises(ValueError):
        local_optimality_probe(spec, schedule, gains, (0.5, 2.0), n_paths=1, master_seed=0)


def test_convexity_check_passes_and_counts():
    report = convexity_check(p=3, a=1.5, b=-0.7, n_samples=200, master_seed=11)
    assert report.passed
    assert report.n_checked == 200
    assert report.counterexample is None


def test_convexity_check_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        convexity_check(p=2, a=0.0, b=1.0, n_samples=10, master_seed=0)
    with pytest.raises(ValueError):
        convexity_check(p=2, a=1.0, b=0.0, n_samples=10, master_seed=0)
    with pytest.raises(ValueError):
        convexity_check(p=0, a=1.0, b=1.0, n_samples=10, master_seed=0)
