"""End-to-end tests for the command-line interface and its file formats."""

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from hocs import (
    BaselineKind,
    BaselinePolicy,
    FeedbackPolicy,
    cli,
    example_config,
    kpi,
    oracle,
    riccati_lqr,
    simulate_ensemble,
    solve,
)
from hocs.cli import main, read_schedule_csv, run_kpi_study
from hocs.config import parse_config, render_config
from hocs.simulate import _DRAWS

# The built-in example problems are part of the artifact's contract: any
# change to their constants or to the canonical serialization must be loud.
GOLDEN_CONFIG_SHA256 = {
    (1, 1): "e3d986bdd4658c7e5ce95a954ff27d75ed5d72090856c2c8bbeae4c06148f65c",
    (1, 2): "42ef9f28447600c907aa8063eada93709ae084cbf681ed52f04d2cfe54e0a42a",
    (1, 3): "a6ed59873978c8dc5b6ab1ad418204b81cc4d54d0d47a720af160014d6e30f71",
    (2, 1): "ae1e925dda9639c12c933a3df009fdfae9c050801d049c12a0bff41c5f7a064f",
    (2, 2): "288b360135f0778c12187e50edbfd23330be5ad31d3731396b25a3fc975065ad",
    (2, 3): "40ccaf3f7193047125de510ee467f7fa594b3af7c95382963bb2f2afc473c7ca",
    (3, 1): "852843c787e8cd71d839bdd97d5cd2e926bd93b2d6ec5f41c971037ab4b0afd2",
    (3, 2): "14f5f72e46768d1debcde706e1447c6474d4818781ee3f7eee9429bfa175283b",
    (3, 3): "dca47fdbb8bf4e5b95036fdf9261f5743005bb0e00c11bc32322c0ed563305b1",
    (4, 1): "382310a1e886fbc89fb1f5742281ecc21ca1f48ae1a194fdd38456127bb12c2a",
    (4, 2): "6b5022b8b86d33301882446c8698c5dd500cf9b8bac59a9b473fdd288671c433",
    (4, 3): "ef7d228ce8ba8b15faba48ee300d6bc80edea2185460f8d9941b1e57731d04b7",
}


def _write_example_config(tmp_path, example_id, p, mutate=None):
    config = example_config(example_id, p)
    document = json.loads(render_config(config))
    if mutate is not None:
        mutate(document)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return path


# --------------------------------------------------------------------------
# validate
# --------------------------------------------------------------------------

def test_validate_accepts_reference_config(tmp_path, capsys):
    path = _write_example_config(tmp_path, 1, 2)
    assert main(["validate", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "mean weights strictly positive" in out
    assert "fail" not in out


def test_validate_rejects_negative_control_weight(tmp_path):
    def mutate(doc):
        doc["problem"]["cost"]["r_bar"] = [-1.0]

    path = _write_example_config(tmp_path, 1, 1, mutate)
    assert main(["validate", "--config", str(path)]) == 1


def test_truncated_config_is_a_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"problem": {"class": "determini', encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 3


def test_unknown_config_key_is_rejected(tmp_path):
    def mutate(doc):
        doc["problem"]["surprise"] = 1

    path = _write_example_config(tmp_path, 1, 1, mutate)
    assert main(["validate", "--config", str(path)]) == 3


def test_missing_config_file_is_a_config_error(tmp_path):
    assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 3


def test_config_round_trips_bit_exactly():
    for (example_id, p) in GOLDEN_CONFIG_SHA256:
        text = render_config(example_config(example_id, p))
        assert render_config(parse_config(text)) == text


def test_builtin_configs_match_golden_checksums():
    for (example_id, p), expected in GOLDEN_CONFIG_SHA256.items():
        text = render_config(example_config(example_id, p))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == expected, (
            f"example {example_id} p={p} drifted; if intentional, refresh the checksum"
        )


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```json\n(.*?)```", readme, re.DOTALL)
    assert block is not None, "README.md has no json block"
    # The README presents its example as the mean-field preset at p = 2.
    assert parse_config(block.group(1)).problem == example_config(4, 2).problem


# --------------------------------------------------------------------------
# solve
# --------------------------------------------------------------------------

def test_solve_writes_schedule_and_round_trips(tmp_path, capsys):
    path = _write_example_config(tmp_path, 3, 2)
    out = tmp_path / "schedule.csv"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    assert "predicted cost:" in capsys.readouterr().out

    spec = example_config(3, 2).problem
    schedule, gains = solve(spec)
    re_schedule, re_gains = read_schedule_csv(
        out, spec.problem_class, spec.cost.p, spec.cost.o
    )
    assert re_schedule == schedule
    assert re_gains == gains


def test_solve_power_one_matches_riccati_reference(tmp_path):
    path = _write_example_config(tmp_path, 1, 1)
    out = tmp_path / "schedule.csv"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    spec = example_config(1, 1).problem
    schedule, _ = read_schedule_csv(out, spec.problem_class, 1, 1)
    np.testing.assert_allclose(
        schedule.alpha_bar, riccati_lqr(spec).alpha_bar, rtol=1e-12
    )


@pytest.mark.parametrize("p", [1, 2, 3])
def test_solve_reference_schedule_decays_toward_terminal(tmp_path, p):
    path = _write_example_config(tmp_path, 1, p)
    out = tmp_path / "schedule.csv"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    spec = example_config(1, p).problem
    schedule, _ = read_schedule_csv(out, spec.problem_class, p, 1)
    # The coefficient sequence relaxes backward from its stationary level
    # down to the terminal weight.
    assert all(a >= b for a, b in zip(schedule.alpha_bar, schedule.alpha_bar[1:]))
    assert schedule.alpha_bar[-1] == 3.0


def test_solve_rejects_invalid_problem(tmp_path):
    def mutate(doc):
        doc["problem"]["cost"]["q_bar_terminal"] = 0.0

    path = _write_example_config(tmp_path, 1, 2, mutate)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "s.csv")]) == 1


def test_unsamplable_noise_is_a_verification_failure(tmp_path):
    # Moment-only noise is fine for solving but has nothing to draw from.
    def mutate(doc):
        doc["problem"]["noise"] = {"kind": "additive", "moment_override": {"2": 1.0}}

    path = _write_example_config(tmp_path, 2, 1, mutate)
    out = tmp_path / "schedule.csv"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "run"),
                 "--paths", "10"]) == 2


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------

def test_simulate_writes_bundle(tmp_path, capsys):
    path = _write_example_config(tmp_path, 2, 1)
    out = tmp_path / "run"
    code = main(["simulate", "--config", str(path), "--out", str(out),
                 "--paths", "200", "--seed", "7"])
    assert code == 0
    for name in ("mean_path.csv", "paths.csv", "moments.csv", "kpi.csv", "cost.csv"):
        assert (out / name).is_file(), name
    assert "realized cost" in capsys.readouterr().out


def test_simulate_noise_free_paths_equal_mean_path(tmp_path):
    path = _write_example_config(tmp_path, 1, 2)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--out", str(out),
                 "--paths", "3"]) == 0
    rows = (out / "paths.csv").read_text().strip().splitlines()
    mean_rows = (out / "mean_path.csv").read_text().strip().splitlines()
    for row, mean_row in zip(rows[1:], mean_rows[1:]):
        x_bar = mean_row.split(",")[1]
        assert all(cell == x_bar for cell in row.split(",")[1:])


def test_simulate_reruns_are_byte_identical(tmp_path):
    path = _write_example_config(tmp_path, 3, 2)
    first, second = tmp_path / "a", tmp_path / "b"
    for out in (first, second):
        assert main(["simulate", "--config", str(path), "--out", str(out),
                     "--paths", "500", "--seed", "11"]) == 0
    for name in ("mean_path.csv", "paths.csv", "moments.csv", "kpi.csv", "cost.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_seed_environment_variable_wins(tmp_path, monkeypatch):
    path = _write_example_config(tmp_path, 2, 1)
    flag_out, env_out = tmp_path / "flag", tmp_path / "env"
    assert main(["simulate", "--config", str(path), "--out", str(flag_out),
                 "--paths", "100", "--seed", "123"]) == 0
    monkeypatch.setenv("HOCS_SEED", "123")
    assert main(["simulate", "--config", str(path), "--out", str(env_out),
                 "--paths", "100", "--seed", "999"]) == 0
    assert (flag_out / "paths.csv").read_bytes() == (env_out / "paths.csv").read_bytes()


def test_invalid_seed_environment_variable(tmp_path, monkeypatch):
    path = _write_example_config(tmp_path, 2, 1)
    monkeypatch.setenv("HOCS_SEED", "not-a-seed")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x"),
                 "--paths", "10"]) == 3


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def test_verify_deterministic_reference(tmp_path, capsys):
    path = _write_example_config(tmp_path, 1, 2)
    assert main(["verify", "--config", str(path)]) == 0
    assert "verify: ok" in capsys.readouterr().out


def test_verify_stochastic_reference(tmp_path, capsys):
    path = _write_example_config(tmp_path, 2, 1)
    assert main(["verify", "--config", str(path), "--paths", "4000"]) == 0
    out = capsys.readouterr().out
    assert "probe minimum at 1.0 : yes" in out
    assert "verify: ok" in out


def test_verify_notes_that_it_ignores_empirical_mean_mode(tmp_path, capsys):
    def empirical(doc):
        doc["run"]["mean_mode"] = "empirical"

    argv = ["verify", "--config", str(tmp_path / "config.json"), "--paths", "500"]
    _write_example_config(tmp_path, 2, 1)
    exact_code = main(argv)
    exact = capsys.readouterr()
    _write_example_config(tmp_path, 2, 1, empirical)
    assert main(argv) == exact_code
    noted = capsys.readouterr()
    assert exact.err == ""
    assert "exact mean mode" in noted.err
    assert len(noted.err.splitlines()) == 1
    assert noted.out == exact.out


def test_verify_zero_noise_stochastic_config(tmp_path):
    def mutate(doc):
        doc["problem"]["noise"]["distribution"]["sigma"] = 0.0

    path = _write_example_config(tmp_path, 2, 1, mutate)
    assert main(["verify", "--config", str(path), "--paths", "50"]) == 0


def test_verify_flags_moment_free_recursion_variant(tmp_path):
    # The recursion variant that drops the noise moment from the deviation
    # channel misprices the cost whenever E[eps**2o] != 1, and the
    # Monte-Carlo check must notice.
    def literal(doc):
        doc["run"]["literal_recursion"] = True
        doc["run"]["master_seed"] = 42

    path = _write_example_config(tmp_path, 4, 2, literal)
    assert main(["verify", "--config", str(path), "--paths", "20000"]) == 2

    default_path = _write_example_config(tmp_path, 4, 2)
    assert main(["verify", "--config", str(default_path), "--paths", "20000"]) == 0


def test_verify_serves_every_ensemble_from_one_draw(tmp_path, monkeypatch):
    held = []
    real_cost = oracle.realized_cost

    def recording_cost(*args):
        held.append(len(_DRAWS.get()))
        return real_cost(*args)

    monkeypatch.setattr(oracle, "realized_cost", recording_cost)
    path = _write_example_config(tmp_path, 4, 3)
    assert main(["verify", "--config", str(path), "--paths", "300", "--seed", "411"]) == 0
    assert held == [1] * 11
    assert _DRAWS.get() is None


# --------------------------------------------------------------------------
# example and kpi
# --------------------------------------------------------------------------

def test_example_bundle_layout(tmp_path):
    assert main(["example", "--id", "1", "--out", str(tmp_path),
                 "--paths", "3", "--seed", "0"]) == 0
    for p in (1, 2, 3):
        base = tmp_path / "example1" / f"p{p}"
        for name in ("config.json", "schedule.csv", "mean_path.csv", "paths.csv",
                     "moments.csv", "kpi.csv", "cost.csv"):
            assert (base / name).is_file(), (p, name)
        text = (base / "config.json").read_text(encoding="utf-8")
        assert render_config(parse_config(text)) == text


def test_example_rejects_unknown_id(tmp_path):
    assert main(["example", "--id", "9", "--out", str(tmp_path)]) == 3


def test_kpi_study_tables(tmp_path, capsys):
    assert main(["kpi", "--seeds", "5", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "case 3" in out
    seeds_rows = (tmp_path / "kpi_seeds.csv").read_text().strip().splitlines()
    agg_rows = (tmp_path / "kpi_aggregate.csv").read_text().strip().splitlines()
    # 5 seeds x 3 zetas x 3 cases, plus a header; aggregate is 3 x 3.
    assert len(seeds_rows) == 1 + 45
    assert len(agg_rows) == 1 + 9
    assert seeds_rows[0] == "seed,zeta,case,kpi_x,kpi_u,total"
    win_rates = [float(r.split(",")[-1]) for r in agg_rows[1:]]
    for zeta_block in range(3):
        block = win_rates[3 * zeta_block: 3 * zeta_block + 3]
        assert math.isclose(sum(block), 1.0) or sum(block) <= 1.0


@pytest.mark.parametrize("n_paths", [1, 6])
def test_kpi_study_rows_equal_fresh_draw_loop(n_paths):
    spec = example_config(4, 3).problem
    policies = {
        1: BaselinePolicy(BaselineKind.SIGN_CONTROLLER),
        2: BaselinePolicy(BaselineKind.LINEAR_FEEDBACK),
        3: FeedbackPolicy(solve(spec)[1]),
    }
    expected = []
    for seed in range(3, 7):
        for zeta in (1, 2, 3):
            for case, policy in policies.items():
                kpi_x, kpi_u = kpi(simulate_ensemble(spec, policy, n_paths, seed), zeta)
                expected.append((seed, zeta, case, kpi_x, kpi_u, kpi_x + kpi_u))
    rows, _ = run_kpi_study(4, base_seed=3, n_paths=n_paths)
    assert rows == expected
    assert _DRAWS.get() is None


def test_kpi_rejects_bad_seed_count(tmp_path):
    assert main(["kpi", "--seeds", "0", "--out", str(tmp_path)]) == 3


# --------------------------------------------------------------------------
# exit-code contract on bad numbers and flags
# --------------------------------------------------------------------------

def test_solve_overflow_is_a_recursion_failure(tmp_path, capsys):
    # alpha_bar grows by a_bar**6 = 1e60 per step and overflows before k = 0.
    n = 8
    document = {"problem": {
        "class": "deterministic",
        "horizon": {"n_steps": n},
        "mean_dynamics": {"a_bar": [1e10] * n, "b_bar": [1e-300] * n},
        "cost": {"p": 3, "q_bar": [1.0] * n, "q_bar_terminal": 1.0, "r_bar": [1.0] * n},
        "initial": {"mean": 1.0},
    }}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    out = tmp_path / "schedule.csv"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "recursion failure" in err and "at step" in err
    assert "Traceback" not in err
    assert not out.exists()
    assert main(["verify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "recursion failure" in err and "at step" in err
    assert "Traceback" not in err


def test_price_overflow_is_a_recursion_failure(tmp_path, capsys):
    # The coefficients stay small; only xbar0**6 = 1e360 overflows.
    document = {"problem": {
        "class": "deterministic",
        "horizon": {"n_steps": 2},
        "mean_dynamics": {"a_bar": [1.0] * 2, "b_bar": [1.0] * 2},
        "cost": {"p": 3, "q_bar": [1.0] * 2, "q_bar_terminal": 1.0, "r_bar": [1.0] * 2},
        "initial": {"mean": 1e60},
    }}
    path = tmp_path / "huge_mean.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    out = tmp_path / "schedule.csv"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "recursion failure" in err and "at step 0" in err
    assert "Traceback" not in err
    assert not out.exists()
    assert main(["verify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "recursion failure" in err and "at step 0" in err
    assert "Traceback" not in err


def test_repeated_main_calls_share_the_parser_but_not_the_namespace(tmp_path, monkeypatch):
    namespaces = []
    real_check = cli._check_flags

    def recording_check(args):
        namespaces.append(dict(vars(args)))
        real_check(args)

    monkeypatch.setattr(cli, "_check_flags", recording_check)
    monkeypatch.delenv("HOCS_SEED", raising=False)
    assert main(["kpi", "--seeds", "2", "--paths", "3", "--seed", "5",
                 "--out", str(tmp_path / "kpi")]) == 0
    path = _write_example_config(tmp_path, 1, 2)
    assert main(["verify", "--config", str(path)]) == 0
    assert cli._build_parser() is cli._build_parser()
    kpi_args, verify_args = namespaces
    assert kpi_args["seed"] == 5 and kpi_args["paths"] == 3
    assert verify_args == {
        "command": "verify", "handler": cli.cmd_verify, "config": str(path),
        "tol": None, "paths": None, "seed": None,
    }


@pytest.mark.parametrize("source", ["flag", "env", "config"])
def test_negative_seed_is_a_config_error(tmp_path, monkeypatch, source):
    def mutate(doc):
        if source == "config":
            doc["run"]["master_seed"] = -1

    path = _write_example_config(tmp_path, 2, 1, mutate)
    argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "run"), "--paths", "10"]
    if source == "flag":
        argv += ["--seed", "-1"]
    if source == "env":
        monkeypatch.setenv("HOCS_SEED", "-1")
    assert main(argv) == 3
    assert not (tmp_path / "run").exists()


def test_negative_sample_paths_is_a_config_error(tmp_path):
    path = _write_example_config(tmp_path, 2, 1)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--out", str(out),
                 "--paths", "10", "--sample-paths", "-3"]) == 3
    assert not out.exists()


def test_read_schedule_csv_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty.csv"):
        read_schedule_csv(path, example_config(1, 1).problem.problem_class, 1, 1)
