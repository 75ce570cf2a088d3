"""Tests for the independent optimizers and agreement probes."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hocs import (
    InitialLaw,
    NotConverged,
    ProblemSpec,
    Rademacher,
    UniformSymmetric,
    brute_force_deterministic,
    example_config,
    local_optimality_probe,
    mc_validate,
    oracle,
    predicted_cost,
    realized_cost,
    simulate_ensemble,
    solve,
)
from hocs.cli import main
from hocs.config import render_config
from hocs.oracle import PROBE_GRID, _scaled_gains
from hocs.simulate import _BLOCK, _DRAWS, _common_draws, _price_terms

from convexity import convexity_check


def test_oracle_recovers_quartic_desk_solution():
    spec = ProblemSpec(
        "deterministic", 1,
        a_bar=1.0, b_bar=1.0, q_bar=[0.0], q_bar_terminal=1.0, r_bar=1.0, p=2,
        initial=InitialLaw(mean=1.0),
    )
    report = brute_force_deterministic(spec)
    assert math.isclose(report.oracle_cost, 0.125, rel_tol=1e-12)
    assert report.control_max_abs_diff < 1e-12
    assert not report.discrepant


def test_oracle_zero_start_is_immediate():
    spec = ProblemSpec(
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
    assert not report.discrepant
    assert report.relative_gap < 1e-12
    assert report.control_max_abs_diff < 1e-8


def test_oracle_agrees_on_random_problems(random_deterministic_spec):
    rng = np.random.default_rng(31)
    for _ in range(30):
        report = brute_force_deterministic(random_deterministic_spec(rng))
        assert not report.discrepant
        assert report.relative_gap < 1e-6
        assert report.control_max_abs_diff < 1e-5
        assert not report.discrepant


def test_oracle_resolves_flat_controls_on_stiff_spec():
    # A criterion-2-family spec (the benchmark's oracle_det workload, seed 204,
    # op 96, slot 1) whose late controls were too flat for Newton over the
    # controls on the float gradient.
    spec = ProblemSpec(
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


def test_oracle_finishes_p1_crawl_spec_in_a_few_newton_steps(random_deterministic_spec):
    # The 120th criterion-2-family draw from default_rng(1): N = 10, p = 1.
    # A damped float loop crawled 1,247 iterations on it.
    rng = np.random.default_rng(1)
    for _ in range(119):
        random_deterministic_spec(rng)
    spec = random_deterministic_spec(rng)
    assert (spec.n_steps, spec.p) == (10, 1)
    report = brute_force_deterministic(spec)
    assert report.iterations <= 10
    assert report.relative_gap < 1e-6
    assert report.control_max_abs_diff < 1e-5
    assert not report.discrepant


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("zeros", [[0], [2, 3], list(range(6))], ids=["first", "interior", "all"])
def test_oracle_agrees_on_uncontrollable_steps(p, zeros):
    # A step with b_bar = 0 moves no state: the oracle pins its control at 0
    # and the closed form's gain there is 0 as well.
    b_bar = [0.0 if k in zeros else b for k, b in enumerate([1.3, -0.7, 2.1, 0.9, -1.6, 0.4])]
    spec = ProblemSpec(
        "deterministic", 6,
        a_bar=[1.2, -0.8, 1.5, 0.6, -1.1, 0.9], b_bar=b_bar,
        q_bar=[1.0, 0.5, 2.0, 1.5, 0.8, 1.2], q_bar_terminal=2.5,
        r_bar=[0.7, 1.4, 0.9, 2.2, 1.1, 0.6],
        p=p,
        initial=InitialLaw(mean=1.7),
        allow_uncontrollable=True,
    )
    report = brute_force_deterministic(spec)
    assert report.relative_gap < 1e-6
    assert report.control_max_abs_diff < 1e-5
    assert not report.discrepant


def test_free_state_maps_make_the_newton_hessian_tridiagonal():
    # Each row of T holds at most one nonzero and each row of C at most two,
    # on adjacent free states, zero-b_bar steps included; so the Newton
    # Hessian T' W T + C' V C is tridiagonal for every spec, and a banded
    # solve would need no dense fallback.
    rng = np.random.default_rng(6)
    zero_steps = 0
    for _ in range(300):
        n = int(rng.integers(1, 15))
        signed = rng.uniform(0.1, 5.0, n) * rng.choice([-1.0, 1.0], n)
        b_bar = np.where(rng.random(n) < 0.3, 0.0, signed)
        zero_steps += int(np.sum(b_bar == 0.0))
        spec = ProblemSpec(
            "deterministic", n,
            a_bar=list(rng.uniform(0.1, 5.0, n) * rng.choice([-1.0, 1.0], n)), b_bar=list(b_bar),
            q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=2,
            initial=InitialLaw(mean=1.0), allow_uncontrollable=True,
        )
        T, _, C, _ = oracle._free_state_maps(spec)
        assert max(np.count_nonzero(T, axis=1)) <= 1
        assert max(np.count_nonzero(C, axis=1)) <= 2
        rows, columns = np.nonzero(np.abs(T).T @ np.abs(T) + np.abs(C).T @ np.abs(C))
        assert np.all(np.abs(rows - columns) <= 1)
    assert zero_steps > 300  # about 30 % of some 2,250 steps


def _wide_deterministic_spec(rng):
    # Criterion 2's generator with longer horizons, p up to 4 and
    # coefficients down to 1e-3 in magnitude; same draw order.
    n = int(rng.integers(1, 21))
    p = int(rng.integers(1, 5))

    def draw(size=None):
        lo = rng.choice([1e-3, 0.1], size=size)
        return rng.uniform(lo, 5.0, size) * rng.choice([-1.0, 1.0], size=size)

    return ProblemSpec(
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
    # the oracle must raise: specs 6, 8, 13 and 19 of this draw (all p >= 3)
    # raised while the Newton solve carried a 1e-12 ridge, and specs 6, 8,
    # 12, 13 and 16 (16 with a control gap of 7.1) once came back outside
    # the gates. None of them raises now.
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


@pytest.mark.parametrize("seed,index,p,n_steps", [
    (12, 12, 1, 16),
    (12, 16, 1, 20),
    (11, 4, 4, 12),
    (12, 6, 4, 11),
    (20, 38, 4, 20),
    (11, 31, 4, 20),
    (12, 105, 4, 19),
])
def test_oracle_settles_on_wide_specs(seed, index, p, n_steps):
    # Specs of the wide draws that once ran out of budget although the
    # closed form is right: the two p = 1 specs under Newton over the
    # controls, the next two p = 4 specs while a 1e-12 ridge on the
    # equilibrated Hessian shrank the step along its weakest direction, and
    # the last three p = 4 specs, which need 206-216 iterations, under a
    # budget of 200.
    rng = np.random.default_rng(seed)
    for _ in range(index):
        _wide_deterministic_spec(rng)
    spec = _wide_deterministic_spec(rng)
    assert (spec.p, spec.n_steps) == (p, n_steps)
    report = brute_force_deterministic(spec)
    assert report.relative_gap < 1e-6
    assert report.control_max_abs_diff < 1e-5
    assert not report.discrepant


def test_oracle_overflow_is_not_converged():
    # b_bar = 1e-100 leaves the control almost no leverage: the first Newton
    # update from zero moves it to near -3e99, and the Hessian's control
    # term, of order u**2 / b_bar**2, overflows.
    spec = ProblemSpec(
        "deterministic", 1,
        a_bar=1.0, b_bar=1e-100, q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=2,
        initial=InitialLaw(mean=1.0),
    )
    with pytest.raises(NotConverged, match="Newton update 2"):
        brute_force_deterministic(spec)


def test_oracle_cost_overflow_is_not_converged():
    # With almost no weight on the state, the Newton loop settles with x[1]
    # near a_bar x0 = 1e200, whose square is past the float range although
    # the closed form (about 1e100) is not: pricing that iterate overflows,
    # which is a NotConverged, not a RuntimeWarning.
    spec = ProblemSpec(
        "deterministic", 1,
        a_bar=1e50, b_bar=1.0, q_bar=1e-300, q_bar_terminal=1e-300, r_bar=1.0, p=1,
        initial=InitialLaw(mean=1e150),
    )
    with pytest.raises(NotConverged, match="^Newton update 1 failed"):
        brute_force_deterministic(spec)


def test_oracle_iteration_counts_are_pinned(random_deterministic_spec):
    # Example 1 at p = 1, 2, 3 and criterion 2's 100 random specs: the Newton
    # path from u = 0 to its float fixed point, update by update.
    counts = [brute_force_deterministic(example_config(1, p).problem).iterations
              for p in (1, 2, 3)]
    assert counts == [3, 24, 40]
    rng = np.random.default_rng(20260816)
    counts += [brute_force_deterministic(random_deterministic_spec(rng)).iterations
               for _ in range(100)]
    assert (sum(counts), max(counts)) == (2554, 93)


def test_oracle_rejects_wrong_class():
    with pytest.raises(ValueError):
        brute_force_deterministic(example_config(2, 1).problem)


def test_oracle_raises_when_the_iteration_budget_runs_out():
    # Example 1's data at p = 4 and N = 60 needs 455 Newton updates.
    spec = ProblemSpec(
        "deterministic", 60,
        a_bar=1.0, b_bar=2.0, q_bar=3.0, q_bar_terminal=3.0, r_bar=4.0, p=4,
        initial=InitialLaw(mean=10.0),
    )
    with pytest.raises(NotConverged, match="Newton update 301 exceeds the budget"):
        brute_force_deterministic(spec)


def test_oracle_gap_past_its_tolerance_is_discrepant(monkeypatch, tmp_path, capsys):
    # A closed form 1e-5 too low: the oracle does not beat it, but the gap
    # alone sets the verdict bit, and verify reads only that bit.
    real_price = oracle.predicted_cost
    monkeypatch.setattr(oracle, "predicted_cost",
                        lambda *args: real_price(*args) * (1.0 - 1e-5))
    config = example_config(1, 2)
    report = brute_force_deterministic(config.problem)
    assert 9e-6 < report.relative_gap < 1.1e-5
    assert report.oracle_cost > report.closed_form_cost
    assert report.discrepant
    path = tmp_path / "config.json"
    path.write_text(render_config(config), encoding="utf-8")
    assert main(["verify", "--config", str(path)]) == 2
    assert capsys.readouterr().out.endswith("verify: FAILED\n")


def test_mc_validation_accepts_solved_controller():
    spec = example_config(2, 1).problem
    schedule, gains = solve(spec)
    report = mc_validate(spec, schedule, gains, n_paths=20_000, master_seed=42)
    assert not report.discrepant
    assert report.stderr > 0.0
    gap = abs(report.closed_form_cost - report.oracle_cost)
    assert gap <= 3.0 * report.stderr + 1e-10 * abs(report.closed_form_cost)


def test_mc_validation_reports_the_moment_gap_in_standard_errors():
    # ex3's skewed per-path costs make seed 46 a false alarm at 4,000 paths.
    spec = example_config(3, 1).problem
    schedule, gains = solve(spec)
    report = mc_validate(spec, schedule, gains, n_paths=4000, master_seed=46)
    cost = realized_cost(spec, simulate_ensemble(spec, gains, 4000, 46))
    gap = cost.channels[1] - _price_terms(schedule, spec.initial)[1]
    assert report.moment_z == gap / cost.realized_stderr
    assert round(report.moment_z, 2) == -5.34
    assert report.discrepant
    # One path has no spread: the z-score is nan, not a division by zero.
    single = mc_validate(spec, schedule, gains, n_paths=1, master_seed=46)
    assert single.stderr == 0.0
    assert math.isnan(single.moment_z)
    assert math.isnan(brute_force_deterministic(example_config(1, 1).problem).moment_z)


@pytest.mark.parametrize("scale, discrepant", [(1 + 1e-8, True), (1 + 1e-12, False)])
def test_mc_mean_gate_is_tight_both_ways(scale, discrepant):
    # Given the mean path, the mean-channel cost is exact, so mc_validate holds it
    # to 1e-10 of its scale: a price off by 1e-8 is discrepant, one off by 1e-12
    # is not. Seed 5 at 4,000 paths is the run the golden verify digest pins as ok.
    spec = example_config(4, 3).problem
    schedule, gains = solve(spec)
    moved = replace(schedule, alpha_bar=(schedule.alpha_bar[0] * scale, *schedule.alpha_bar[1:]))
    assert mc_validate(spec, moved, gains, 4000, 5).discrepant is discrepant


@pytest.mark.parametrize("law, fault", [
    (Rademacher(1.5), {"scale": 0.9 * 1.5}), (UniformSymmetric(0.3), {"halfwidth": 0.15}),
], ids=["rademacher", "uniform"])
def test_mc_price_check_holds_for_each_noise_law_and_catches_its_sampler_fault(
    monkeypatch, law, fault,
):
    # ex2 p2 with a non-Gaussian noise law: the price comes from the law's moment
    # table and the paths from its sampler. At 20,000 paths over seeds 0-39,
    # Rademacher reads discrepant once (seed 18, z = -3.10) and uniform never;
    # a sampler at 0.9 of the scale, or at half the width, reads z = -312 and
    # -1,390 at seed 0.
    spec = replace(example_config(2, 2).problem, noise=law)
    schedule, gains = solve(spec)
    assert not mc_validate(spec, schedule, gains, 20_000, 0).discrepant
    sample = type(law).sample
    monkeypatch.setattr(type(law), "sample",
                        lambda self, rng, size: sample(replace(self, **fault), rng, size))
    assert mc_validate(spec, schedule, gains, 20_000, 0).discrepant


@pytest.mark.parametrize("offset, discrepant", [
    (-1.1e-6, True), (-0.9e-6, False),  # closed form below the optimum: the gap bound
    (1.1e-8, True), (0.9e-8, False),  # closed form above it: the oracle beats it
])
def test_oracle_bounds_are_tight_both_ways(monkeypatch, offset, discrepant):
    # GAP_TOLERANCE = 1e-6 and BEAT_TOLERANCE = 1e-8, each pinned by a closed
    # form moved just past it and just inside it (ex1 p2 costs about 3e4 > 1).
    spec = example_config(1, 2).problem
    optimum = brute_force_deterministic(spec).oracle_cost
    monkeypatch.setattr(oracle, "predicted_cost", lambda schedule, initial: optimum * (1 + offset))
    report = brute_force_deterministic(spec)
    assert report.oracle_cost == optimum
    assert report.discrepant is discrepant


@pytest.mark.parametrize("shortfall, min_at_unit", [(1.1e-12, False), (0.9e-12, True)])
def test_probe_rounding_floor_is_tight_both_ways(monkeypatch, shortfall, min_at_unit):
    # The probe's slack on the exact mean scan is its rounding floor, 1e-12 of
    # the unit cost: a point 1.1e-12 below the unit cost moves the minimum off
    # scale 1, one 0.9e-12 below it does not. Seed 5 at 4,000 paths passes.
    spec = example_config(4, 3).problem
    _, gains = solve(spec)
    honest = local_optimality_probe(spec, gains, 4000, 5)
    assert honest.min_at_unit
    unit = dict((f, c) for f, c, _ in honest.curves["mean"])[1.0]
    target, calls = unit * (1 - shortfall), []

    def cost(spec, ensemble):
        report = realized_cost(spec, ensemble)
        calls.append(ensemble.n_paths)
        if len(calls) == 1 + PROBE_GRID.index(0.9):  # the mean scan runs first, in grid order
            report = replace(report, breakdown={
                **report.breakdown, "state_power": target, "control_power": 0.0})
        return report

    monkeypatch.setattr(oracle, "realized_cost", cost)
    report = local_optimality_probe(spec, gains, 4000, 5)
    assert calls[PROBE_GRID.index(0.9)] == 1
    assert dict((f, c) for f, c, _ in report.curves["mean"])[0.9] == target
    assert report.min_at_unit is min_at_unit


def test_probe_finds_minimum_at_unit_scale_deterministically():
    spec = example_config(1, 2).problem
    _, gains = solve(spec)
    report = local_optimality_probe(spec, gains, n_paths=1, master_seed=0)
    assert report.min_at_unit
    assert set(report.curves) == {"mean"}
    curve = dict((scale, cost) for scale, cost, _ in report.curves["mean"])
    assert curve[1.0] <= min(curve.values())


def test_probe_covers_both_channels_for_stochastic_classes():
    spec = example_config(3, 1).problem
    _, gains = solve(spec)
    report = local_optimality_probe(spec, gains, n_paths=4000, master_seed=7)
    assert set(report.curves) == {"mean", "dev"}
    assert report.min_at_unit


@pytest.mark.parametrize("example_id,p,seed", [
    (2, 2, 0), (2, 2, 411), (3, 1, 7), (3, 1, 12), (4, 3, 411), (4, 3, 3),
])
def test_shared_draw_reports_equal_fresh_draw_loop(example_id, p, seed):
    spec = example_config(example_id, p).problem
    schedule, gains = solve(spec)
    n_paths = 300

    def fresh_cost(policy):
        ensemble = simulate_ensemble(spec, policy, n_paths, seed)
        return realized_cost(spec, ensemble)

    curves = {}
    for channel in ("mean", "dev"):
        points = []
        for factor in PROBE_GRID:
            report = fresh_cost(_scaled_gains(gains, channel, factor))
            parts = report.breakdown
            if channel == "mean":
                points.append((factor, parts["state_power"] + parts["control_power"], 0.0))
            else:
                points.append((factor, parts["state_moment"] + parts["control_moment"],
                               report.realized_stderr))
        curves[channel] = tuple(points)
    unit = fresh_cost(gains)
    unscoped = mc_validate(spec, schedule, gains, n_paths, seed)
    direct = local_optimality_probe(spec, gains, n_paths, seed)
    with _common_draws():
        first = mc_validate(spec, schedule, gains, n_paths, seed)
        probe = local_optimality_probe(spec, gains, n_paths, seed)
        again = mc_validate(spec, schedule, gains, n_paths, seed)
    assert _DRAWS.get() is None

    assert probe.curves == direct.curves == curves
    assert probe.min_at_unit is direct.min_at_unit
    assert first == again == unscoped
    assert (unscoped.closed_form_cost, unscoped.oracle_cost, unscoped.stderr) == (
        predicted_cost(schedule, spec.initial), unit.realized_mean, unit.realized_stderr)


@pytest.mark.parametrize("example_id,p,channel", [
    (2, 1, "mean"), (2, 1, "dev"), (3, 2, "mean"), (3, 2, "dev"),
    (4, 3, "mean"), (4, 3, "dev"),
])
@pytest.mark.parametrize("factor", [2.0, 0.5])
def test_probe_rejects_scaled_gains(example_id, p, channel, factor):
    spec = example_config(example_id, p).problem
    _, gains = solve(spec)
    scaled = _scaled_gains(gains, channel, factor)
    report = local_optimality_probe(spec, scaled, n_paths=20_000, master_seed=3)
    assert report.min_at_unit is False


def test_probe_opens_no_draw_scope(monkeypatch):
    spec = example_config(4, 3).problem
    _, gains = solve(spec)
    scopes = []

    def recording_cost(*args):
        scopes.append(_DRAWS.get())
        return realized_cost(*args)

    monkeypatch.setattr(oracle, "realized_cost", recording_cost)
    local_optimality_probe(spec, gains, n_paths=50, master_seed=1)
    assert scopes == [None] * 2 * len(PROBE_GRID)


def test_probe_holds_one_ensemble_block_at_a_time():
    spec = example_config(4, 3).problem
    _, gains = solve(spec)
    n, n_paths = spec.n_steps, 20_000
    local_optimality_probe(spec, gains, n_paths=1, master_seed=3)  # numpy's lazy imports
    tracemalloc.start()
    try:
        local_optimality_probe(spec, gains, n_paths=n_paths, master_seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = 8 * (2 * n + 1) * n_paths
    # One ensemble block, realized_cost's block-sized buffer and a few path
    # vectors (measured: 2.23); the probe keeps no draw, which would add 11
    # path vectors, and a second live block would add 21.
    assert peak <= block + 8 * (2 * n + 1) * _BLOCK + 3 * 8 * n_paths


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


@pytest.mark.parametrize("overrides, match", [
    ({"n_samples": 0}, "^n_samples must be an integer >= 1, got 0$"),
    ({"a": math.nan}, "^a must be finite, got nan$"),
    ({"p": 1.5}, "^p must be an integer >= 1, got 1.5$"),
    ({"p": True}, "^p must be an integer >= 1, got True$"),
    ({"master_seed": -1}, "^master_seed must be an integer >= 0, got -1$"),
], ids=["no samples", "nan a", "fractional p", "bool p", "negative seed"])
def test_convexity_check_gates_its_inputs(overrides, match):
    # Each of these once passed vacuously, reported a bogus counterexample or
    # escaped as numpy's own error.
    kwargs = {"p": 2, "a": 1.0, "b": 1.0, "n_samples": 50, "master_seed": 0, **overrides}
    with pytest.raises(ValueError, match=match):
        convexity_check(**kwargs)
