"""Acceptance gate: ten numbered end-to-end criteria with pinned tolerances.

Each test covers one criterion and always prints a single
"criterion N: PASS|FAIL" line. The lines are emitted with capture
disabled so they survive into piped run logs.
"""

import contextlib
import csv
import math
import time

import numpy as np

from hocs import (
    GaussianVariance,
    InitialLaw,
    Moments,
    brute_force_deterministic,
    ProblemSpec,
    example_config,
    mc_validate,
    predicted_cost,
    simulate_ensemble,
    solve,
    realized_cost,
)
from hocs.cli import main, run_kpi_study
from hocs.config import render_config

from convexity import convexity_check
from riccati import riccati_lqr


@contextlib.contextmanager
def _criterion(number, capsys):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"criterion {number}: {'PASS' if ok else 'FAIL'}", flush=True)


# ---------------------------------------------------------------------------
# 1. Deterministic consistency: realized closed-loop cost equals the
#    coefficient prediction alpha_bar[0] * xbar_0**2p to relative 1e-10.
# ---------------------------------------------------------------------------


def test_criterion_01_deterministic_consistency(capsys):
    with _criterion(1, capsys):
        start = time.monotonic()
        for p in (1, 2, 3):
            spec = example_config(1, p).problem
            schedule, gains = solve(spec)
            ensemble = simulate_ensemble(spec, gains, 3, 7)
            report = realized_cost(spec, ensemble)
            predicted = schedule.alpha_bar[0] * spec.initial.mean ** (2 * p)
            assert math.isclose(report.realized_mean, predicted, rel_tol=1e-10)
            assert report.realized_stderr == 0.0
        assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# 2. Oracle agreement on the deterministic class: trajectory optimization
#    from scratch matches the closed form on the worked example and on 100
#    random specs with signed dynamics.
# ---------------------------------------------------------------------------


def test_criterion_02_oracle_agreement(capsys, random_deterministic_spec):
    with _criterion(2, capsys):
        start = time.monotonic()
        specs = [example_config(1, p).problem for p in (1, 2, 3)]
        rng = np.random.default_rng(20260816)
        specs.extend(random_deterministic_spec(rng) for _ in range(100))
        for spec in specs:
            report = brute_force_deterministic(spec)
            assert report.relative_gap < 1e-6
            assert report.control_max_abs_diff < 1e-5
            assert not report.discrepant
        assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# 3. Riccati reduction: at p=1 the power solver reproduces the textbook
#    backward recursion to relative 1e-12.
# ---------------------------------------------------------------------------


def test_criterion_03_riccati_reduction(capsys, random_deterministic_spec):
    with _criterion(3, capsys):
        start = time.monotonic()
        rng = np.random.default_rng(31415)
        for _ in range(50):
            spec = random_deterministic_spec(rng)
            if spec.p != 1:
                spec = ProblemSpec(
                    "deterministic", spec.n_steps,
                    a_bar=spec.a_bar,
                    b_bar=spec.b_bar,
                    q_bar=spec.q_bar,
                    q_bar_terminal=spec.q_bar_terminal,
                    r_bar=spec.r_bar,
                    p=1,
                    initial=spec.initial,
                )
            schedule, _ = solve(spec)
            reference = riccati_lqr(spec)
            np.testing.assert_allclose(
                schedule.alpha_bar, reference.alpha_bar, rtol=1e-12
            )
        assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# 4. Stochastic predicted vs realized: additive and state-multiplicative
#    examples at 1e5 paths land within 3 plug-in standard errors of the
#    coefficient prediction.
# ---------------------------------------------------------------------------


def test_criterion_04_stochastic_predicted_vs_realized(capsys):
    with _criterion(4, capsys):
        for example_id, p in ((2, 1), (2, 2), (3, 1), (3, 2)):
            spec = example_config(example_id, p).problem
            schedule, gains = solve(spec)
            start = time.monotonic()
            report = mc_validate(spec, schedule, gains, 100_000, 42)
            assert time.monotonic() - start < 60.0
            assert not report.discrepant
            # Deviations here are O(1), so the raw total-cost gap also fits
            # inside the 3-standard-error budget.
            gap = abs(report.closed_form_cost - report.oracle_cost)
            assert gap <= 3.0 * report.stderr


# ---------------------------------------------------------------------------
# 5. Higher-moment recursion variants: the moment-inclusive recursion prices
#    the simulated cost correctly; the literal variant (the literal_solve
#    fixture) is flagged discrepant once o >= 2. At o=1 the second noise
#    moment is 1 and the two recursions coincide.
# ---------------------------------------------------------------------------


def test_criterion_05_higher_moment_recursion_variants(capsys, literal_solve):
    with _criterion(5, capsys):
        start = time.monotonic()
        for p in (1, 2, 3):
            spec = example_config(4, p).problem
            schedule, gains = solve(spec)
            # The mean-channel cost is deterministic under the solved gains,
            # so mc_validate holds it to rounding precision and reserves the
            # 3-standard-error budget for the deviation channel; a single
            # total-cost comparison would drown the o >= 2 mispricing
            # (~2e-10 here) in rounding noise of the 1.8e5-scale mean term.
            report = mc_validate(spec, schedule, gains, 100_000, 42)
            assert not report.discrepant
            literal_schedule, literal_gains = literal_solve(spec)
            literal = mc_validate(
                spec, literal_schedule, literal_gains, 100_000, 42
            )
            if p == 1:
                assert not literal.discrepant
            else:
                assert literal.discrepant
        assert time.monotonic() - start < 120.0


# ---------------------------------------------------------------------------
# 6. Noise-vanishing limit: a state-multiplicative solve with E[eps^2] = 0
#    prices exactly as the deterministic solve plus alpha[0] var(x_0).
# ---------------------------------------------------------------------------


def test_criterion_06_noise_vanishing_limit(capsys):
    with _criterion(6, capsys):
        rng = np.random.default_rng(99)
        for _ in range(5):
            n = int(rng.integers(1, 9))
            p = int(rng.integers(1, 4))
            a, b = rng.uniform(0.5, 3.0, 2)
            q_bar, r_bar, q, r = rng.uniform(0.2, 4.0, 4)
            mean0 = float(rng.uniform(-5, 5))
            var0 = float(rng.uniform(0.1, 2.0))
            stochastic = ProblemSpec(
                "mult_state", n, a, b, q_bar, q_bar, r_bar, p,
                q=q, q_terminal=q, r=r,
                noise=Moments({2: 0.0}),
                initial=InitialLaw(mean=mean0, law=GaussianVariance(var0)),
            )
            deterministic = ProblemSpec(
                "deterministic", n, a, b, q_bar, q_bar, r_bar, p,
                initial=InitialLaw(mean=mean0),
            )
            schedule, _ = solve(stochastic)
            det_schedule, _ = solve(deterministic)
            combined = (
                predicted_cost(det_schedule, deterministic.initial)
                + schedule.alpha[0] * var0
            )
            full = predicted_cost(schedule, stochastic.initial)
            assert abs(full - combined) <= 1e-12 * max(abs(full), 1.0)


# ---------------------------------------------------------------------------
# 7. One-step cost convexity: 500 random (p, a, b) instances, no
#    counterexamples.
# ---------------------------------------------------------------------------


def test_criterion_07_one_step_convexity(capsys):
    with _criterion(7, capsys):
        rng = np.random.default_rng(771)
        for _ in range(500):
            p = int(rng.integers(1, 5))
            a = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 5.0))
            b = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 5.0))
            report = convexity_check(
                p, a, b, n_samples=40, master_seed=int(rng.integers(2**31))
            )
            assert report.passed
            assert report.counterexample is None


# ---------------------------------------------------------------------------
# 8. Example bundles decay: every built-in example drives the mean state
#    toward zero with monotone magnitude after at most two initial steps,
#    the control magnitude decays, and for the mean-field example the
#    terminal mean grows with p (slower convergence at higher powers).
# ---------------------------------------------------------------------------


def _read_mean_path(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    x_bar = np.array([float(row["x_bar"]) for row in rows])
    u_bar = np.array([float(row["u_bar"]) for row in rows if row["u_bar"]])
    return x_bar, u_bar


def test_criterion_08_example_trajectories_decay(capsys, tmp_path):
    with _criterion(8, capsys):
        terminal = {}
        for example_id in (1, 2, 3, 4):
            out = tmp_path / f"ex{example_id}"
            code = main([
                "example", "--id", str(example_id),
                "--out", str(out), "--paths", "200", "--seed", "42",
            ])
            assert code == 0
            for p in (1, 2, 3):
                bundle = out / f"example{example_id}" / f"p{p}"
                x_bar, u_bar = _read_mean_path(bundle / "mean_path.csv")
                ax, au = np.abs(x_bar), np.abs(u_bar)
                assert np.all(np.diff(ax[2:]) <= 1e-12)
                assert ax[-1] <= 0.05 * ax[0]
                assert np.all(np.diff(au[2:]) <= 1e-12)
                assert au[-1] < au[0]
                terminal[(example_id, p)] = ax[-1]
        assert terminal[(4, 1)] <= terminal[(4, 2)] <= terminal[(4, 3)]


# ---------------------------------------------------------------------------
# 9. KPI ordering: across 100 seeds the solved risk-aware controller wins
#    the combined KPI in at least 80% of seeds for every zeta, and its
#    seed-averaged totals are the lowest of the three cases.
# ---------------------------------------------------------------------------


def test_criterion_09_kpi_case_ordering(capsys):
    with _criterion(9, capsys):
        start = time.monotonic()
        _, aggregate = run_kpi_study(100)
        assert time.monotonic() - start < 120.0
        for zeta in (1, 2, 3):
            rows = {row[1]: row for row in aggregate if row[0] == zeta}
            assert set(rows) == {1, 2, 3}
            wins = rows[3][5]
            assert wins >= 80
            totals = {case: rows[case][4] for case in rows}
            assert totals[3] < totals[1]
            assert totals[3] < totals[2]


# ---------------------------------------------------------------------------
# 10. Determinism: rerunning the stochastic bundles and the KPI study with
#     the same master seed reproduces every CSV byte for byte. Path i owns
#     row i of the precomputed noise matrix, so scheduling cannot reorder
#     draws.
# ---------------------------------------------------------------------------


def _bundle_bytes(directory):
    return {
        entry.name: entry.read_bytes() for entry in sorted(directory.iterdir())
    }


def test_criterion_10_rerun_byte_identity(capsys, tmp_path):
    with _criterion(10, capsys):
        for example_id, p in ((2, 1), (4, 2)):
            config_path = tmp_path / f"config{example_id}_{p}.json"
            config_path.write_text(
                render_config(example_config(example_id, p)), encoding="utf-8"
            )
            runs = []
            for tag in ("first", "second"):
                out = tmp_path / f"sim{example_id}_{p}_{tag}"
                code = main([
                    "simulate", "--config", str(config_path),
                    "--out", str(out), "--paths", "100000", "--seed", "42",
                ])
                assert code == 0
                runs.append(_bundle_bytes(out))
            assert runs[0] == runs[1]

        runs = []
        for tag in ("first", "second"):
            out = tmp_path / f"kpi_{tag}"
            code = main(["kpi", "--seeds", "100", "--out", str(out)])
            assert code == 0
            runs.append(_bundle_bytes(out))
        assert runs[0] == runs[1]
