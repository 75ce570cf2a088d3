"""End-to-end tests for the command-line interface and its file formats."""

import csv
import hashlib
import json
import math
import re
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hocs import (
    BaselinePolicy,
    Dirac,
    Empirical,
    FeedbackPolicy,
    Gaussian,
    GaussianVariance,
    InitialLaw,
    Moments,
    Policy,
    ProblemClass,
    ProblemSpec,
    Rademacher,
    RunConfig,
    RunSettings,
    UniformSymmetric,
    cli,
    example_config,
    kpi,
    model,
    oracle,
    predicted_cost,
    simulate,
    simulate_ensemble,
    solve,
)
from hocs.cli import main, run_kpi_study
from hocs.config import _LAYOUT, _OPTIONAL, parse_config, render_config
from hocs.simulate import _DRAWS

from riccati import riccati_lqr

# The built-in example problems are part of the artifact's contract: any
# change to their constants or to the canonical serialization must be loud.
GOLDEN_CONFIG_SHA256 = {
    (1, 1): "f251dca6061172bc3b452867eae04218d3a2c90baf126685b6e51a0418eded13",
    (1, 2): "8efef0f29b40eb0426135ab870706d45a538387098cb47bfefafa9627ae982e2",
    (1, 3): "311a019abec0f2dd987248acfdc253422b85d4eb34df82cc328297a18b04ee6c",
    (2, 1): "94d96be72506cfba3f9b3f9619651eb156db03f3d1922eb2162a28d7cb189cc9",
    (2, 2): "3c81d8b52d087efa8cc4bf45498947420a7c318be6d1b410cad198ad4bc89d78",
    (2, 3): "9cd93288f2e404bdb1065a887d9ba3542c75dab4dc6371ba5329d69064ad5c5f",
    (3, 1): "e8af6907259a92f6642e60460e36433c8c6118f3ec895fc866c61010cd6529c0",
    (3, 2): "38cb6303259138ddb374b68dbc583db0a1b263eecd7188949b7305bad30e99d3",
    (3, 3): "806c8bd58a74564e5e6e0ac071210a3288d433cd4176ecb769dd0e8697cba139",
    (4, 1): "ee11446ea1407a0ad77bbe327647a60dbacc75f51c15a7be3bd379543a56e2ed",
    (4, 2): "be78c26a7ee19ef0ab197675b3935dac1de62f0da1f57014e319d92eb14aba02",
    (4, 3): "807f5a4bb68317dc128c84e9459d2830352553f5b5a9f96c05578c828758e931",
}

# What the backward solve makes of each preset: the sha256 of the schedule.csv
# that `hocs solve` writes, and its printed price line. A refactor of the
# recursion must leave both bit for bit. The digits assume glibc's pow (the
# libm of the Linux CI runners); another libm may round a power differently.
GOLDEN_SCHEDULE_SHA256 = {
    (1, 1): ("aa37265324391d020f0c7a068ec822da9e920b2126c45776cc0d9bebac4ba104",
             "predicted cost: 379.12878409431511"),
    (1, 2): ("17bb793f0d8d1295834e9df0d56919937cd76de40d6c31cfa238d2488e2a6d7b",
             "predicted cost: 30850.03513551689"),
    (1, 3): ("97767e3cd4d8ffc51fbe9086f2dd2322e36a99cb8904f73a3762392ef11729a4",
             "predicted cost: 3009396.7408097722"),
    (2, 1): ("076e86ca4da7dc43856a488701323b332c6e446b5120cee36674e1601390f8ab",
             "predicted cost: 1373.6366950495601"),
    (2, 2): ("adfc15ef55c7f8dfb8a5ae5b3b5e5be781242d67a9d7b24fd922843001703f37",
             "predicted cost: 387078.45381989935"),
    (2, 3): ("047e4ab52cf06b388e3802eb71c8a844d93ce4e7a935d8e2d01d4c779c2a607b",
             "predicted cost: 143026855.8262428"),
    (3, 1): ("bbe76cefeaba971312ec380a5d657cf560c9e360a0b842aced6e10481e3687cf",
             "predicted cost: 1885.6245764328633"),
    (3, 2): ("248e65a5f4be417ab47a7e0a17bc92db33c12bc4ac3431925b32c4bc5ce5c015",
             "predicted cost: 471646.77305505722"),
    (3, 3): ("c5179c877bd852d82bafbaf51cf3aae1f609d948adbeaceaaa673ba4b72d945a",
             "predicted cost: 113277371.66840099"),
    (4, 1): ("cb1dd9f736b53457d809a0725f0fcce2dabdd0cd73193a1fcfa9fa2c7b5d1ea8",
             "predicted cost: 647.86109301114629"),
    (4, 2): ("4ef6b4da99465d6879e8e396ec599a636106a138da091d4a4e03328d79d0f152",
             "predicted cost: 181637.16510511399"),
    (4, 3): ("57e2f0824a43aae886b5075b27983d690f59bdef58a94bcd8ce4e945b5cf1ea9",
             "predicted cost: 66229785.87545345"),
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
    assert "mean weight signs" in out
    assert "fail" not in out


def test_validate_rejects_negative_control_weight(tmp_path):
    def mutate(doc):
        doc["problem"]["cost"]["r_bar"] = [-1.0]

    path = _write_example_config(tmp_path, 1, 1, mutate)
    assert main(["validate", "--config", str(path)]) == 1


def _cost(**values):
    return lambda problem: problem["cost"].update(values)


# Each edit of a preset's problem breaks validate's rules; the last breaks two.
_INVALID_CONFIGS = {
    "negative-r_bar": (1, 1, _cost(r_bar=[-1.0])),
    "zero-r": (2, 1, _cost(r=0.0)),
    "negative-q_terminal": (3, 2, _cost(q_terminal=-0.5)),
    "distinct-a": (2, 2, lambda problem: problem["deviation_dynamics"].update(a=0.5)),
    "o-2": (3, 1, _cost(o=2)),
    "no-noise": (4, 3, lambda problem: problem.pop("noise")),
    "moments-without-order-2o": (
        4, 2, lambda problem: problem.update(noise={"kind": "moments", "values": {"2": 1.0}})),
    "deterministic-spread": (
        1, 2, lambda problem: problem["initial"].update(law={"kind": "gaussian", "variance": 1.0})),
    "deterministic-noise-and-zero-terminal": (
        1, 3, lambda problem: problem.update(noise={"kind": "gaussian", "sigma": 1.0})
        or _cost(q_bar_terminal=0.0)(problem)),
}


@pytest.mark.parametrize("argv", [["solve", "--out", "OUT/schedule.csv"], ["simulate", "--out", "OUT"],
                                  ["verify"], ["verify", "--paths", "1"]],
                         ids=["solve", "simulate", "verify", "verify-one-path"])
@pytest.mark.parametrize("case", _INVALID_CONFIGS)
def test_invalid_config_prints_exactly_validates_failures(tmp_path, capsys, case, argv):
    example_id, p, edit = _INVALID_CONFIGS[case]
    path = _write_example_config(tmp_path, example_id, p, lambda doc: edit(doc["problem"]))
    failures = model.validate(cli.load_config(path).problem).failures
    assert len(failures) == (2 if case.endswith("-and-zero-terminal") else 1)
    out = tmp_path / "out"
    args = [arg.replace("OUT", str(out)) for arg in argv]
    assert main([args[0], "--config", str(path), *args[1:]]) == 1
    assert capsys.readouterr() == ("", "".join(
        f"invalid: {check.name} ({check.detail})\n" for check in failures))
    assert not out.exists()


# Zero state weights pass validate, so solve takes them and verify checks them.
@pytest.mark.parametrize("example_id,p", [(i, p) for i in (1, 2, 3, 4) for p in (1, 2, 3)])
def test_verify_passes_with_zero_state_weights(tmp_path, capsys, example_id, p):
    zeroed = ("q_bar",) if example_id == 1 else ("q_bar", "q", "q_terminal")

    def mutate(doc):
        cost = doc["problem"]["cost"]
        for key in zeroed:
            cost[key] = 0.0 if key.endswith("terminal") else [0.0]

    path = _write_example_config(tmp_path, example_id, p, mutate)
    assert main(["validate", "--config", str(path)]) == 0
    assert main(["verify", "--config", str(path), "--paths", "4000", "--seed", "5"]) == 0
    assert capsys.readouterr().out.endswith("verify: ok\n")


def test_truncated_config_is_a_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"problem": {"class": "determini', encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 3


@pytest.mark.parametrize("command", ["validate", "solve", "simulate", "verify"])
def test_wrong_length_list_is_a_config_error(tmp_path, capsys, command):
    def mutate(doc):
        doc["problem"]["mean_dynamics"]["a_bar"] = [2.0] * 9  # n_steps is 10

    path = _write_example_config(tmp_path, 2, 1, mutate)
    assert main([command, "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert "config error: problem: a_bar: expected a scalar or a sequence of length 10, " \
        "got length 9" in err
    assert "Traceback" not in err


def test_unknown_config_key_is_rejected(tmp_path):
    def mutate(doc):
        doc["problem"]["surprise"] = 1

    path = _write_example_config(tmp_path, 1, 1, mutate)
    assert main(["validate", "--config", str(path)]) == 3


# The ids state each rule by the key's path in the document; they stay fixed as the messages change.
@pytest.mark.parametrize("key,value,message", [
    pytest.param("n_paths", 0, "run: n_paths must be an integer >= 1, got 0",
                 id="n_paths-0-run.n_paths must be an integer >= 1, got 0"),
    pytest.param("n_paths", -1, "run: n_paths must be an integer >= 1, got -1",
                 id="n_paths--1-run.n_paths must be an integer >= 1, got -1"),
    pytest.param("n_paths", True, "run: n_paths must be an integer >= 1, got True",
                 id="n_paths-True-run.n_paths must be an integer >= 1, got True"),
    pytest.param("n_paths", 2.5, "run: n_paths must be an integer >= 1, got 2.5",
                 id="n_paths-2.5-run.n_paths must be an integer >= 1, got 2.5"),
    pytest.param("master_seed", -1, "run: master_seed must be an integer >= 0, got -1",
                 id="master_seed--1-run.master_seed must be an integer >= 0, got -1"),
    pytest.param("master_seed", True, "run: master_seed must be an integer >= 0, got True",
                 id="master_seed-True-run.master_seed must be an integer >= 0, got True"),
    pytest.param("out_dir", 3, "run: out_dir must be of type str, got 3",
                 id="out_dir-3-run.out_dir must be a string"),
    ("mean_mode", "exact", "unknown keys ['mean_mode'] in run"),
    ("oracle_tol", 1e-06, "unknown keys ['oracle_tol'] in run"),
    ("literal_recursion", False, "unknown keys ['literal_recursion'] in run"),
])
def test_bad_run_setting_is_a_config_error(tmp_path, capsys, key, value, message):
    def mutate(doc):
        doc["run"][key] = value

    path = _write_example_config(tmp_path, 1, 1, mutate)
    assert main(["validate", "--config", str(path)]) == 3
    assert message in capsys.readouterr().err


# Every key without a default, as a path into the document: the problem's
# top-level keys and the keys of its blocks come from the layout table.
_REQUIRED_PATHS = (
    [("problem",), ("problem", "initial", "mean")]
    + [("problem", key) for key in ("class", *_LAYOUT, "initial") if key not in _OPTIONAL]
    + [("problem", block, key) for block, readers in _LAYOUT.items()
       for key in readers if key not in _OPTIONAL]
)


@pytest.mark.parametrize("path", _REQUIRED_PATHS, ids="/".join)
def test_missing_required_key_is_a_config_error(tmp_path, capsys, path):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]

    config = _write_example_config(tmp_path, 4, 2, mutate)
    assert main(["validate", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert f"is missing required key {path[-1]!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("path,value,message", [
    (("horizon", "n_steps"), 2.5, "problem: n_steps must be an integer >= 1, got 2.5"),
    (("cost", "p"), True, "problem: p must be an integer >= 1, got True"),
    (("mean_dynamics", "allow_uncontrollable"), "yes",
     "problem: allow_uncontrollable must be of type bool, got 'yes'"),
    (("initial", "mean"), math.nan, "problem.initial: mean must be finite, got nan"),
    # An int past the float range is inf to the input gates, not an OverflowError.
    (("initial", "mean"), 10**400, "problem.initial: mean must be finite, got inf"),
    (("noise", "sigma"), -10**400, "problem.noise: sigma must be finite and >= 0, got -inf"),
    # The config hands each value to the model's gate, which names a bad element by its index.
    (("cost", "q_bar"), None, "problem: q_bar must be a sequence of numbers, got None"),
    (("mean_dynamics", "a_bar"), {"2": 1.0},
     "problem: a_bar must be a sequence of numbers, got {'2': 1.0}"),
    (("cost", "q_bar"), [1.0] * 9 + [[1.0]], "problem: q_bar[9] must be a number, got [1.0]"),
    (("initial", "law"), {"kind": "empirical", "samples": 5},
     "problem.initial.law: samples must be a sequence of numbers, got 5"),
    (("initial", "law"), {"kind": "moments", "values": {"2": "1.0"}},
     "problem.initial.law: moment of order 2 must be a number, got '1.0'"),
], ids=["fractional-n_steps", "bool-p", "string-allow_uncontrollable", "nan-initial-mean",
        "huge-int-initial-mean", "huge-int-noise-sigma", "null-per-step", "map-per-step",
        "nested-list-element", "int-samples", "text-moment"])
def test_bad_problem_value_is_a_config_error(tmp_path, capsys, path, value, message):
    def mutate(doc):
        doc["problem"][path[0]][path[1]] = value

    config = _write_example_config(tmp_path, 4, 2, mutate)
    assert main(["validate", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert err == f"config error: {message}\n"


def _scalar_per_step(doc):
    """Put the first value of each per-step list in its place."""
    for block in ("mean_dynamics", "deviation_dynamics", "cost"):
        node = doc["problem"][block]
        node.update({key: value[0] for key, value in node.items() if isinstance(value, list)})


# A bad element of a long per-step list is named by its index on one short line; a
# nan at step 999 once printed a 5,067-byte line listing every value and no index.
@pytest.mark.parametrize("element,message", [
    (math.nan, "must be finite, got nan"),
    ("x", "must be a number, got 'x'"),
], ids=["nan", "text"])
def test_a_bad_element_of_a_long_list_is_named_by_its_index(tmp_path, capsys, element, message):
    def mutate(doc):
        _scalar_per_step(doc)
        doc["problem"]["horizon"]["n_steps"] = 1000
        doc["problem"]["mean_dynamics"]["a_bar"] = [1.0] * 999 + [element]

    config = _write_example_config(tmp_path, 1, 1, mutate)
    assert main(["validate", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert err == f"config error: problem: a_bar[999] {message}\n"
    assert len(err.encode()) < 200


# A horizon whose per-step values cannot be held is refused naming n_steps, with
# nothing allocated: past sys.maxsize it was an OverflowError traceback, at 10**18
# a bare "memory error: out of memory".
@pytest.mark.parametrize("n_steps", [10**19, 10**18], ids=["past-maxsize", "past-memory"])
def test_a_horizon_too_long_to_hold_is_a_config_error(tmp_path, capsys, n_steps):
    def mutate(doc):
        _scalar_per_step(doc)
        doc["problem"]["horizon"]["n_steps"] = n_steps

    config = _write_example_config(tmp_path, 1, 1, mutate)
    tracemalloc.start()
    try:
        assert main(["validate", "--config", str(config)]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err == ("config error: problem: n_steps must fit a_bar per step in memory, "
                   f"got {n_steps}\n")
    assert peak < 10**6


def test_run_settings_raise_their_gates_errors():
    # ConfigError is a ValueError, so a caller's `except ValueError` still catches these.
    with pytest.raises(ValueError, match=r"^n_paths must be an integer >= 1, got 0$"):
        RunSettings(n_paths=0)
    with pytest.raises(ValueError, match=r"^master_seed must be an integer >= 0, got -1$"):
        RunSettings(master_seed=-1)
    with pytest.raises(TypeError, match=r"^out_dir must be of type str, got 3$"):
        RunSettings(out_dir=3)


# numpy names the allocation it could not make; a bare MemoryError names nothing.
@pytest.mark.parametrize("command,layer,message,line", [
    ("simulate", "Dirac.sample", "Unable to allocate 7.28 TiB for an array",
     "memory error: Unable to allocate 7.28 TiB for an array\n"),
    ("validate", "_per_step", "", "memory error: out of memory\n"),
], ids=["numpy", "bare"])
def test_out_of_memory_is_exit_3(tmp_path, capsys, monkeypatch, command, layer, message, line):
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    config = _write_example_config(tmp_path, 2, 1)
    if layer == "Dirac.sample":
        monkeypatch.setattr(model.Dirac, "sample", exhausted)
    else:
        monkeypatch.setattr(model, "_per_step", exhausted)
    argv = [command, "--config", str(config)]
    argv += ["--out", str(tmp_path / "run"), "--paths", "10"] if command == "simulate" else []
    assert main(argv) == 3
    assert capsys.readouterr().err == line


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_run_over_physical_memory_is_refused_with_exit_3(tmp_path, capsys, monkeypatch, command):
    # 10**15 paths: numpy would refuse the block at once, but in its own words.
    monkeypatch.setattr(simulate, "_address_space_limit", lambda: None)
    monkeypatch.setattr(simulate, "_cgroup_memory_max", lambda: None)
    config = _write_example_config(tmp_path, 2, 2)
    argv = [command, "--config", str(config), "--paths", str(10**15)]
    argv += ["--out", str(tmp_path / "run")] if command == "simulate" else []
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"memory error: 1000000000000000 paths of 10 steps need \d+ bytes, "
                        r"more than the \d+ bytes of physical memory\n", err)
    assert not (tmp_path / "run").exists()


def test_missing_config_file_is_a_config_error(tmp_path):
    assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 3


# Each once ended in a traceback and exit 1, the code of an invalid problem.
@pytest.mark.parametrize("data,prefix", [
    (b"\xff\xfe{}", "config error: cannot read config "),
    (b"[" * 100_000, "config error: invalid JSON: "),
    (b'{"problem": ' + b"1" * 5000 + b"}", "config error: invalid JSON: "),
], ids=["non-utf-8", "deep-nesting", "int-past-the-digit-limit"])
def test_unreadable_config_text_is_a_config_error(tmp_path, capsys, data, prefix):
    path = tmp_path / "config.json"
    path.write_bytes(data)
    assert main(["validate", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1


def test_config_round_trips_bit_exactly():
    for (example_id, p) in GOLDEN_CONFIG_SHA256:
        text = render_config(example_config(example_id, p))
        assert render_config(parse_config(text)) == text


FINITE = st.floats(allow_nan=False, allow_infinity=False)
SPREAD = st.floats(min_value=0.0, max_value=1e3)
SAMPLES = st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=4)
NOISE_LAWS = st.one_of(
    st.just(Dirac()), st.builds(Gaussian, SPREAD), st.builds(Rademacher, SPREAD),
    st.builds(UniformSymmetric, SPREAD), st.builds(Empirical, SAMPLES))
INITIAL_LAWS = st.one_of(NOISE_LAWS.filter(lambda law: not isinstance(law, Gaussian)),
                         st.builds(GaussianVariance, SPREAD))


@st.composite
def _api_specs(draw):
    """(ProblemSpec, config document): one problem built by the API and written by hand."""
    klass = draw(st.sampled_from(ProblemClass))
    n = draw(st.integers(1, 12))
    stochastic = klass is not ProblemClass.DETERMINISTIC
    higher = klass is ProblemClass.HIGHER_MOMENT

    def per_step(values=FINITE):
        # A scalar, a length-1 list or a length-N list, as the API and the config take it.
        return draw(st.one_of(values, st.lists(values, min_size=1, max_size=1),
                              st.lists(values, min_size=n, max_size=n)))

    nonzero = FINITE.filter(lambda v: v != 0.0)
    mean = {"a_bar": per_step(), "b_bar": per_step(nonzero)}
    cost = {"p": draw(st.integers(1, 3)), "o": draw(st.integers(1, 3)) if higher else 1,
            "q_bar": per_step(), "q_bar_terminal": draw(FINITE), "r_bar": per_step(),
            "q": per_step(), "q_terminal": draw(FINITE), "r": per_step()}
    if not stochastic and draw(st.booleans()):
        for key in ("o", "q", "q_terminal", "r"):  # left to the defaults on both paths
            del cost[key]
    kwargs = {**mean, **cost}
    document = {"class": klass.value, "horizon": {"n_steps": n}, "mean_dynamics": mean,
                "cost": cost}
    if higher:
        kwargs["a"], kwargs["b"] = per_step(), per_step()
        document["deviation_dynamics"] = {"a": kwargs["a"], "b": kwargs["b"]}
    if stochastic:
        o = cost["o"]
        moments = st.builds(lambda m2, m2o: Moments({2: m2, 2 * o: m2o}), SPREAD, SPREAD)
        kwargs["noise"] = draw(st.one_of(NOISE_LAWS, moments))
    law = draw(INITIAL_LAWS) if stochastic else Dirac()
    kwargs["initial"] = InitialLaw(mean=draw(FINITE), law=law)
    spec = ProblemSpec(klass, n, **kwargs)
    # Laws are written as render_config writes them; the per-step forms as drawn.
    rendered = json.loads(render_config(RunConfig(spec, RunSettings())))["problem"]
    document |= {key: rendered[key] for key in ("noise", "initial") if key in rendered}
    return spec, json.dumps({"problem": document})


@settings(max_examples=150, deadline=None)
@given(case=_api_specs())
def test_api_and_config_build_one_spec(case):
    spec, document = case
    assert parse_config(document).problem == spec
    text = render_config(RunConfig(spec, RunSettings()))
    parsed = parse_config(text)
    assert parsed.problem == spec
    assert render_config(parsed) == text


def test_builtin_configs_match_golden_checksums():
    for (example_id, p), expected in GOLDEN_CONFIG_SHA256.items():
        text = render_config(example_config(example_id, p))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == expected, (
            f"example {example_id} p={p} drifted; if intentional, refresh the checksum"
        )


def test_builtin_schedules_match_golden_checksums(tmp_path, capsys):
    for (example_id, p), (expected, price_line) in GOLDEN_SCHEDULE_SHA256.items():
        path = _write_example_config(tmp_path, example_id, p)
        out = tmp_path / "schedule.csv"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == price_line
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == expected, f"example {example_id} p={p}: the solved schedule drifted"


# What the Monte-Carlo commands write for one seed: the sha256 of each output
# file. A refactor of the CLI, the rollout or the reductions must leave them
# bit for bit; like the schedules, they assume glibc's pow.
GOLDEN_KPI_SHA256 = {
    "kpi_seeds.csv": "b501df6dc59e55bbea797c9cb5dd14344ea11d279098554dba4c9e12bd7c315e",
    "kpi_aggregate.csv": "388aa7a441fa715fac346b221cd25cb4b2b09c19fb78ab12bc6190004dfbdc00",
}
GOLDEN_EXAMPLE3_SHA256 = {
    "p1/cost.csv": "5f47cb0061edd9ac4098501055a7f904888a656af48bb7c497e8cf5efcdc7401",
    "p1/kpi.csv": "3a22f18619705d14bfa35dd21386bd2dabcc635bbd2a7e467c7f66b735b60b7c",
    "p1/mean_path.csv": "4a1c9fb94d07b2eae3c394f02276b407517cdd630200c2b52074d83eccab5f18",
    "p1/moments.csv": "646c6a05c8bae9ba3c8002a8231ca87c8356a7a8a21744abe7e7a80f46f786c0",
    "p1/paths.csv": "3caeb9715d0034d448cd938330e0fa7efc59f2db3f69874772c4160cf5c27016",
    "p1/schedule.csv": "bbe76cefeaba971312ec380a5d657cf560c9e360a0b842aced6e10481e3687cf",
    "p2/cost.csv": "eee01c67746f71a3282b0e213be1355f81dc8b372c8a3bd0e9d30537ff574524",
    "p2/kpi.csv": "ec3abb362825424cf8a5d224876800de6be6b18a6fa0ba1e3fba2e6efd8a0aa0",
    "p2/mean_path.csv": "169e23bd2ae1e5d2a014e620e7d20adad0b2c350012bfb61ae810991093cf67d",
    "p2/moments.csv": "177b402595c21507e4c12b939a1a017e4c6931998a68115c58643edc5759f310",
    "p2/paths.csv": "c1066319a5655ae891ab525f7f9bc8c5ced6e9290b7e0dfe3fb7ae1a1c174c7b",
    "p2/schedule.csv": "248e65a5f4be417ab47a7e0a17bc92db33c12bc4ac3431925b32c4bc5ce5c015",
    "p3/cost.csv": "2f945c9ae923efe95f2ef6daeef4b150371a1020fffdf97428c79b6242082ee9",
    "p3/kpi.csv": "7907deaf4cf36d402db3d7fc8a154c864c6d91eb92abef24a51d8c7d20e0972e",
    "p3/mean_path.csv": "138ce6b5e3967e922de26623541a8558cde757bf705c5ad7fa9fa17eb503a8f4",
    "p3/moments.csv": "05156bb543a9803cc680f84439be402216a5b5e7f3fc44cd5fd0af7e2f18ff95",
    "p3/paths.csv": "61a01f66f05f1d9e9375b912e9b0c1c1faa37e6fe13788e5c629ff3a57abbd69",
    "p3/schedule.csv": "c5179c877bd852d82bafbaf51cf3aae1f609d948adbeaceaaa673ba4b72d945a",
}
GOLDEN_VERIFY_EX4_P3_SHA256 = "67a6d5f00dedf9542570dbf67a6d82f69b24a3a5dda79b0f14d53a26cf1122e3"


def _digests(root: Path, pattern: str) -> dict:
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.glob(pattern))}


def test_monte_carlo_outputs_match_golden_checksums(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("HOCS_SEED", raising=False)
    assert main(["kpi", "--seeds", "5", "--seed", "3", "--out", str(tmp_path / "kpi")]) == 0
    assert _digests(tmp_path / "kpi", "*.csv") == GOLDEN_KPI_SHA256
    assert main(["example", "--id", "3", "--paths", "3000", "--seed", "5",
                 "--out", str(tmp_path)]) == 0
    assert _digests(tmp_path / "example3", "p*/*.csv") == GOLDEN_EXAMPLE3_SHA256
    capsys.readouterr()
    path = _write_example_config(tmp_path, 4, 3)
    assert main(["verify", "--config", str(path), "--paths", "4000", "--seed", "5"]) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(stdout).hexdigest() == GOLDEN_VERIFY_EX4_P3_SHA256


# The raw streams under those digests: the sha256 of 64 float64 draws of each
# law from Generator(PCG64(0)). NEP 19 promises no stream stability for
# numpy's Generator across numpy versions, so a numpy upgrade that moves a
# stream fails here, by law, and not only as a changed Monte-Carlo digest.
GOLDEN_STREAM_SHA256 = {
    Gaussian(0.7): "59abc134aef98335b36c2f5c36e81892599f34b23a1371d72893fe41b8355d61",
    GaussianVariance(2.0): "2c95ad76935bdefee588f5fc5d1119751551a067f943357384f543012491d43b",
    Rademacher(1.5): "0de30f056deb4576b42b067bf5091592ac002faa0926ae2a038fbb022b4ec35c",
    UniformSymmetric(0.3): "0c90756233c50464ea117d492a3b07ceec01a370c903c01b2f81af742efb9b34",
    # Built from uncentred samples: it draws the centred values (-1.5, -0.5, 2).
    Empirical(samples=(1.0, 2.0, 4.5)):
        "993a6bda199ef8d93c3e345d4534498fd88597dc75a77f1faa3c74fa88964f4f",
}


@pytest.mark.parametrize("law", list(GOLDEN_STREAM_SHA256), ids=repr)
def test_noise_streams_match_golden_checksums(law):
    draws = law.sample(np.random.Generator(np.random.PCG64(0)), 64)
    assert draws.dtype == np.float64 and draws.shape == (64,)
    assert hashlib.sha256(draws.tobytes()).hexdigest() == GOLDEN_STREAM_SHA256[law]


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```json\n(.*?)```", readme, re.DOTALL)
    assert block is not None, "README.md has no json block"
    # The README presents its example as the mean-field preset at p = 2.
    assert parse_config(block.group(1)).problem == example_config(4, 2).problem


def test_readme_python_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.DOTALL)
    assert block is not None, "README.md has no python block"
    exec(compile(block.group(1), "README.md", "exec"), {})
    realized, price, stderr = map(float, capsys.readouterr().out.split())
    spec = example_config(4, 3).problem
    assert price == predicted_cost(solve(spec)[0], spec.initial)
    assert abs(realized - price) <= 3.0 * stderr + 1e-10 * price


# --------------------------------------------------------------------------
# solve
# --------------------------------------------------------------------------

def _assert_schedule_round_trips(path, spec):
    """Every cell of `path` reads back, by float(), as the double solve(spec) returns.

    An empty cell reads as None: a column the class does not have, or a gain
    past the last step. Returns the columns by header name.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    columns = {name: [float(cell) if cell else None for cell in column]
               for name, column in zip(header, zip(*rows))}
    schedule, gains = solve(spec)
    n = schedule.n_steps
    absent = [None] * (n + 1)
    assert columns == {
        "k": list(range(n + 1)),
        "alpha_bar": list(schedule.alpha_bar),
        "alpha": list(schedule.alpha) if schedule.alpha is not None else absent,
        "gamma_bar": list(schedule.gamma_bar) if schedule.gamma_bar is not None else absent,
        "k_mean": [*gains.k_mean, None],
        "k_dev": [*gains.k_dev, None] if gains.k_dev is not None else absent,
    }
    return columns


def test_solve_writes_schedule_and_round_trips(tmp_path, capsys):
    path = _write_example_config(tmp_path, 3, 2)
    out = tmp_path / "schedule.csv"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    assert "predicted cost:" in capsys.readouterr().out
    _assert_schedule_round_trips(out, example_config(3, 2).problem)


def test_solve_power_one_matches_riccati_reference(tmp_path):
    path = _write_example_config(tmp_path, 1, 1)
    out = tmp_path / "schedule.csv"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    spec = example_config(1, 1).problem
    columns = _assert_schedule_round_trips(out, spec)
    np.testing.assert_allclose(
        columns["alpha_bar"], riccati_lqr(spec).alpha_bar, rtol=1e-12
    )


@pytest.mark.parametrize("p", [1, 2, 3])
def test_solve_reference_schedule_decays_toward_terminal(tmp_path, p):
    path = _write_example_config(tmp_path, 1, p)
    out = tmp_path / "schedule.csv"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    alpha_bar = _assert_schedule_round_trips(out, example_config(1, p).problem)["alpha_bar"]
    # The coefficient sequence relaxes backward from its stationary level
    # down to the terminal weight.
    assert all(a >= b for a, b in zip(alpha_bar, alpha_bar[1:]))
    assert alpha_bar[-1] == 3.0


def test_solve_rejects_invalid_problem(tmp_path):
    def mutate(doc):
        doc["problem"]["cost"]["q_bar_terminal"] = 0.0

    path = _write_example_config(tmp_path, 1, 2, mutate)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "s.csv")]) == 1


def test_verify_rejects_invalid_problem(tmp_path, capsys):
    def mutate(doc):
        doc["problem"]["cost"]["r"] = [-1.0]

    path = _write_example_config(tmp_path, 2, 1, mutate)
    assert main(["verify", "--config", str(path), "--paths", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid: ")


def test_unsamplable_noise_is_a_verification_failure(tmp_path):
    # Moment-only noise is fine for solving but has nothing to draw from.
    def mutate(doc):
        doc["problem"]["noise"] = {"kind": "moments", "values": {"2": 1.0}}

    path = _write_example_config(tmp_path, 2, 1, mutate)
    out = tmp_path / "schedule.csv"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "run"),
                 "--paths", "10"]) == 2


@pytest.mark.parametrize("example_id,noise,command,code,message", [
    (2, {"kind": "additive", "distribution": {"kind": "gaussian", "sigma": 1.0}}, "validate", 3,
     "config error: problem.noise.kind must be one of"),
    (2, {"kind": "none"}, "validate", 3, "config error: problem.noise.kind must be one of"),
    (2, {"kind": "moments", "values": {"two": 1.0}}, "validate", 3,
     "config error: problem.noise: invalid literal for int() with base 10: 'two'"),
    (2, None, "validate", 1, "fail  (class additive needs a noise law)"),
    (2, None, "solve", 1, "invalid: class/noise compatibility (class additive needs a noise law)"),
    (1, {"kind": "gaussian", "sigma": 1.0}, "validate", 1,
     "fail  (class deterministic admits no noise law)"),
    (2, {"kind": "moments", "values": {"2": 1.0}}, "verify", 2,
     "verification failure: a moments law has nothing to sample from"),
    (2, {"kind": "moments", "values": {"1_0": 1.0, "10": 2.0}}, "validate", 3,
     "config error: problem.noise.values names one moment order twice among ['10', '1_0']"),
    (2, {"kind": "empirical"}, "validate", 3,
     "config error: problem.noise is missing required key 'samples'"),
    (2, {"kind": []}, "validate", 3, "config error: problem.noise.kind must be one of"),
    (2, {"kind": {}}, "validate", 3, "config error: problem.noise.kind must be one of"),
    (2, {"kind": "gaussian", "sigma": -1}, "validate", 3,
     "config error: problem.noise: sigma must be finite and >= 0, got -1.0"),
], ids=["old-format", "old-none", "bad-order", "stochastic-without-law",
        "solve-without-law", "deterministic-with-law", "moments-verify", "colliding-orders",
        "no-samples", "list-kind", "map-kind", "negative-sigma"])
def test_noise_node_exit_codes(tmp_path, capsys, example_id, noise, command, code, message):
    def mutate(doc):
        if noise is None:
            del doc["problem"]["noise"]
        else:
            doc["problem"]["noise"] = noise

    path = _write_example_config(tmp_path, example_id, 1, mutate)
    argv = [command, "--config", str(path)]
    argv += ["--out", str(tmp_path / "s.csv")] if command == "solve" else []
    argv += ["--paths", "10"] if command == "verify" else []
    assert main(argv) == code
    captured = capsys.readouterr()
    assert message in captured.out + captured.err
    assert "Traceback" not in captured.err


def test_moments_laws_round_trip():
    document = json.loads(render_config(example_config(3, 2)))
    document["problem"]["noise"] = {"kind": "moments", "values": {"4": 3.0, "2": 1.0}}
    document["problem"]["initial"]["law"] = {"kind": "moments", "values": {"2": 0.09}}
    config = parse_config(json.dumps(document))
    assert config.problem.noise == Moments({2: 1.0, 4: 3.0})
    assert parse_config(render_config(config)) == config
    # The moments law prices exactly as the Gaussian preset it stands in for.
    preset = example_config(3, 2).problem
    assert predicted_cost(solve(config.problem)[0], preset.initial) == predicted_cost(
        solve(preset)[0], preset.initial)


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
    out = capsys.readouterr().out
    assert "verify: ok" in out
    assert "moment gate z-score" not in out


def test_verify_stochastic_reference(tmp_path, capsys):
    path = _write_example_config(tmp_path, 2, 1)
    assert main(["verify", "--config", str(path), "--paths", "4000"]) == 0
    out = capsys.readouterr().out
    assert "probe minimum at 1.0 : yes" in out
    assert "verify: ok" in out


def _z_score(out):
    (line,) = [line for line in out.splitlines() if line.startswith("moment gate z-score")]
    return float(line.split(":", 1)[1])


def test_verify_prints_the_moment_gate_z_score(tmp_path, capsys):
    # A skew false alarm reads a few standard errors low; the verdict and the
    # exit code stay those of the 3-sigma gate.
    path = _write_example_config(tmp_path, 3, 1)
    argv = ["verify", "--config", str(path), "--paths", "4000", "--seed"]
    assert main([*argv, "46"]) == 2
    out = capsys.readouterr().out
    assert _z_score(out) == -5.34
    assert "prediction agreement : DISCREPANT" in out
    assert main([*argv, "5"]) == 0
    assert abs(_z_score(capsys.readouterr().out)) <= 3.0


def test_verify_zero_noise_stochastic_config(tmp_path):
    def mutate(doc):
        doc["problem"]["noise"]["sigma"] = 0.0

    path = _write_example_config(tmp_path, 2, 1, mutate)
    assert main(["verify", "--config", str(path), "--paths", "50"]) == 0


def test_verify_with_an_infinite_moment_budget_is_discrepant(tmp_path, capsys):
    # Per-path moment costs near 1e155 square to inf in the plug-in stderr,
    # so the 3-stderr budget is inf; that must not count as agreement.
    def mutate(doc):
        doc["problem"]["initial"]["law"] = {"kind": "gaussian", "variance": 1e155}

    path = _write_example_config(tmp_path, 2, 1, mutate)
    assert main(["verify", "--config", str(path), "--paths", "50"]) == 2
    captured = capsys.readouterr()
    assert "+/- inf (50 paths)" in captured.out
    assert "prediction agreement : DISCREPANT" in captured.out
    assert "moment gate z-score  : nan" in captured.out
    assert "Traceback" not in captured.err


def test_simulate_time_is_logarithmic_in_the_moment_power(tmp_path):
    # Rademacher noise keeps every moment at 1.0, so o = 20000 is a valid
    # spec; its 40000th powers must not cost one pass per order.
    def mutate(doc):
        doc["problem"]["noise"] = {"kind": "rademacher", "scale": 1.0}
        doc["problem"]["cost"]["o"] = 20_000

    path = _write_example_config(tmp_path, 4, 1, mutate)
    start = time.perf_counter()
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out"),
                 "--paths", "10000"]) == 0
    assert time.perf_counter() - start < 1.0


def test_verify_flags_moment_free_recursion_variant(literal_solve):
    # The recursion variant that drops the noise moment from the deviation
    # channel misprices the cost whenever E[eps**2o] != 1, and the
    # Monte-Carlo check that verify runs must notice.
    spec = example_config(4, 2).problem
    literal_schedule, literal_gains = literal_solve(spec)
    assert oracle.mc_validate(spec, literal_schedule, literal_gains, 20_000, 42).discrepant

    schedule, gains = solve(spec)
    assert not oracle.mc_validate(spec, schedule, gains, 20_000, 42).discrepant


def test_verify_serves_every_ensemble_from_one_draw(tmp_path, monkeypatch):
    held = []
    real_cost = oracle.realized_cost

    def recording_cost(*args):
        held.append(len(_DRAWS.get()))
        return real_cost(*args)

    monkeypatch.setattr(oracle, "realized_cost", recording_cost)
    path = _write_example_config(tmp_path, 4, 3)
    assert main(["verify", "--config", str(path), "--paths", "300", "--seed", "411"]) == 0
    # mc_validate's draw, then the probe's mean scan adds its one-path draw.
    assert held == [1] + [2] * 10
    assert _DRAWS.get() is None


def test_verify_scope_drops_its_draws_when_a_cost_raises(tmp_path, monkeypatch):
    held = []

    def failing_cost(*args):
        held.append(len(_DRAWS.get()))
        raise RuntimeError("cost evaluation failed")

    monkeypatch.setattr(oracle, "realized_cost", failing_cost)
    path = _write_example_config(tmp_path, 4, 3)
    with pytest.raises(RuntimeError):
        main(["verify", "--config", str(path), "--paths", "50", "--seed", "1"])
    assert held == [1]
    assert _DRAWS.get() is None


# One path has a plug-in standard error of 0, which leaves the moment gate
# only its 1e-10 floor: on correct code these presets read DISCREPANT (exit 2)
# at seeds 1-3. verify refuses such a run before simulating.
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("example_id,p", [(2, 2), (3, 1), (4, 3)])
@pytest.mark.parametrize("seed", ["1", "2", "3"])
def test_stochastic_verify_refuses_fewer_than_two_paths(tmp_path, monkeypatch, capsys,
                                                         source, example_id, p, seed):
    def one_path(doc):
        doc["run"]["n_paths"] = 1

    simulated = []
    for module in (cli, oracle):
        monkeypatch.setattr(module, "simulate_ensemble", lambda *args: simulated.append(args))
    path = _write_example_config(tmp_path, example_id, p, one_path if source == "config" else None)
    argv = ["verify", "--config", str(path), "--seed", seed]
    assert main(argv + (["--paths", "1"] if source == "flag" else [])) == 3
    assert simulated == []
    klass = example_config(example_id, p).problem.problem_class.value
    assert capsys.readouterr() == ("", (
        f"config error: verify needs at least 2 paths for class {klass}, got 1: a one-path "
        "standard error is 0, which leaves the moment gate only its 1e-10 floor\n"))


def test_deterministic_verify_and_two_path_verify_run_as_before(tmp_path, capsys):
    path = _write_example_config(tmp_path, 1, 2)
    assert main(["verify", "--config", str(path), "--paths", "1"]) == 0
    path = _write_example_config(tmp_path, 2, 1)
    assert main(["verify", "--config", str(path), "--paths", "2", "--seed", "1"]) in (0, 2)
    assert "prediction agreement : " in capsys.readouterr().out


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


@pytest.mark.parametrize("example_id", [1, 2, 3, 4])
def test_example_config_reproduces_its_bundle(tmp_path, example_id):
    # Each config.json records the paths and seed its bundle ran with, so
    # simulate on it writes the same five CSVs.
    assert main(["example", "--id", str(example_id), "--out", str(tmp_path / "ex"),
                 "--paths", "300", "--seed", "5"]) == 0
    for p in (1, 2, 3):
        bundle, rerun = tmp_path / "ex" / f"example{example_id}" / f"p{p}", tmp_path / f"p{p}"
        assert main(["simulate", "--config", str(bundle / "config.json"), "--out", str(rerun)]) == 0
        for name in ("mean_path.csv", "paths.csv", "moments.csv", "kpi.csv", "cost.csv"):
            assert (rerun / name).read_bytes() == (bundle / name).read_bytes(), (p, name)


@pytest.mark.parametrize("example_id", [1, 2, 3, 4])
def test_example_without_run_flags_writes_the_preset_config(tmp_path, monkeypatch, example_id):
    # --out picks the directory only; the config keeps the preset's out_dir.
    monkeypatch.delenv("HOCS_SEED", raising=False)
    assert main(["example", "--id", str(example_id), "--out", str(tmp_path)]) == 0
    for p in (1, 2, 3):
        text = (tmp_path / f"example{example_id}" / f"p{p}" / "config.json").read_text(
            encoding="utf-8")
        assert text == render_config(example_config(example_id, p))


def test_example_rejects_unknown_id(tmp_path, capsys):
    assert main(["example", "--id", "9", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err == "config error: example id must be one of (1, 2, 3, 4), got 9\n"
    assert list(tmp_path.iterdir()) == []


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


class _LinearFeedback(Policy):
    """The KPI study's Case 2 written out, independently of its constant gains."""

    def control(self, k, x, x_bar):
        return -3.0 * (x_bar - x) - 3.0 * x_bar


def test_kpi_study_rows_equal_fresh_draw_loop():
    spec = example_config(4, 3).problem
    policies = {
        1: BaselinePolicy(),
        2: _LinearFeedback(),
        3: solve(spec)[1],
    }
    expected = []
    for seed in range(3, 7):
        for zeta in (1, 2, 3):
            for case, policy in policies.items():
                kpi_x, kpi_u = kpi(simulate_ensemble(spec, policy, 1, seed), zeta)
                expected.append((seed, zeta, case, kpi_x, kpi_u, kpi_x + kpi_u))
    rows, _ = run_kpi_study(4, base_seed=3)
    assert rows == expected
    assert _DRAWS.get() is None


def test_kpi_study_runs_one_path_per_seed(tmp_path, capsys):
    # A seed is one realized experiment: no flag or parameter sets a path count.
    with pytest.raises(TypeError):
        run_kpi_study(5, n_paths=2)
    assert main(["kpi", "--seeds", "2", "--paths", "2", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "config error: unrecognized arguments: --paths 2\n"
    assert not tmp_path.joinpath("kpi_seeds.csv").exists()


def test_kpi_rejects_bad_seed_count(tmp_path):
    assert main(["kpi", "--seeds", "0", "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("n_seeds,base_seed,message", [
    pytest.param(0, 42, "n_seeds must be an integer >= 1, got 0", id="0"),
    pytest.param(-1, 42, "n_seeds must be an integer >= 1, got -1", id="-1"),
    pytest.param(2.5, 42, "n_seeds must be an integer >= 1, got 2.5", id="2.5"),
    pytest.param("3", 42, "n_seeds must be an integer >= 1, got '3'", id="text"),
    pytest.param(True, 42, "n_seeds must be an integer >= 1, got True", id="True"),
    pytest.param(1, True, "base_seed must be an integer >= 0, got True", id="base_seed-True"),
    pytest.param(1, -1, "base_seed must be an integer >= 0, got -1", id="base_seed--1"),
])
def test_kpi_study_rejects_no_seeds_before_solving(monkeypatch, n_seeds, base_seed, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("solved or rolled out with no seeds")

    monkeypatch.setattr(cli, "solve", unreachable)
    monkeypatch.setattr(cli, "simulate_ensemble", unreachable)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_kpi_study(n_seeds, base_seed=base_seed)


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


def test_power_overflow_is_a_recursion_failure(tmp_path, capsys):
    # gain**6 passes the float range at step 5, and Python's float power raises.
    def mutate(doc):
        del doc["problem"]["deviation_dynamics"]
        doc["problem"]["mean_dynamics"].update(a_bar=1e100, b_bar=1e-3)

    path = _write_example_config(tmp_path, 1, 3, mutate)
    out = tmp_path / "schedule.csv"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("recursion failure: alpha_bar[5] = inf, gain ")
    assert err.endswith(" at step 5\n")
    assert not out.exists()


@pytest.mark.parametrize("samples,command,code,message", [
    ([1.7976931348623157e308, 1e308], "validate", 0, ""),
    ([1.7976931348623157e308, 1e308], "solve", 2,
     "recursion failure: predicted cost = inf at step 0 is not finite\n"),
    ([1.797e308, 1.797e308], "validate", 0, ""),
    ([1.797e308, 1.797e308], "solve", 0, ""),
    # Centered at their mean 5.99e307, the samples pass the float range.
    ([1.7976931348623157e308, 1.7976931348623157e308, -1.7976931348623157e308], "validate", 3,
     "config error: problem.initial.law: centered samples[2] must be finite, got -inf\n"),
], ids=["unequal-validate", "unequal-solve", "equal-validate", "equal-solve",
        "centered-past-range"])
def test_empirical_law_past_the_float_range_keeps_the_exit_code_contract(
    tmp_path, capsys, samples, command, code, message
):
    def mutate(doc):
        doc["problem"]["initial"]["law"] = {"kind": "empirical", "samples": samples}

    path = _write_example_config(tmp_path, 3, 1, mutate)
    argv = [command, "--config", str(path)]
    argv += ["--out", str(tmp_path / "schedule.csv")] if command == "solve" else []
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(message) if message else err == ""


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

    # A stochastic spec is priced before its rollout, so the overflow stops
    # the command before numpy could warn about the paths' powers.
    def huge_mean(doc):
        doc["problem"]["initial"]["mean"] = 1e60

    path = _write_example_config(tmp_path, 2, 3, huge_mean)
    out_dir = tmp_path / "D"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", str(path), "--paths", "100",
                     "--out", str(out_dir)]) == 2
        assert main(["verify", "--config", str(path), "--paths", "100"]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err.count("recursion failure") == 2
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("o,sigma,initial_variance,command,code,expected", [
    # (599)!! overflows a float while sigma**600 = 1: the moment is inf.
    (300, 1.0, None, "validate", 1, ("noise moment of order 600", "fail  (value inf)")),
    (2, 1e200, None, "validate", 1, ("noise moment of order 4", "fail  (value inf)")),
    # The initial law's fourth moment 3e400 overflows only the price.
    (2, 1.0, 1e200, "solve", 2, ("recursion failure", "at step 0")),
    # (599)!! overflows, but the moment (599)!! * 0.01**600 rounds to 0.0.
    (300, 0.01, None, "validate", 0, ("noise moment of order 600", "pass  (value 0.0)")),
    # (1999999)!! has millions of digits; validate takes its logarithm instead.
    (1_000_000, 1.0, None, "validate", 1, ("noise moment of order 2000000", "fail  (value inf)")),
], ids=["order-600", "sigma-1e200", "initial-variance-1e200", "order-600-sigma-0.01",
        "order-2000000"])
def test_moment_overflow_keeps_the_exit_code_contract(
    tmp_path, capsys, o, sigma, initial_variance, command, code, expected
):
    def mutate(doc):
        problem = doc["problem"]
        problem["cost"]["o"] = o
        problem["noise"]["sigma"] = sigma
        if initial_variance is not None:
            problem["initial"]["law"] = {"kind": "gaussian", "variance": initial_variance}

    path = _write_example_config(tmp_path, 4, 2, mutate)
    out = tmp_path / "schedule.csv"
    argv = [command, "--config", str(path)] + (["--out", str(out)] if command == "solve" else [])
    start = time.perf_counter()
    assert main(argv) == code
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    text = captured.out + captured.err
    assert all(part in text for part in expected), text
    assert "Traceback" not in text
    assert not out.exists()


def test_repeated_main_calls_share_the_parser_but_not_the_namespace(tmp_path, monkeypatch):
    namespaces = []
    real_check = cli._check_flags

    def recording_check(args):
        namespaces.append(dict(vars(args)))
        real_check(args)

    monkeypatch.setattr(cli, "_check_flags", recording_check)
    monkeypatch.delenv("HOCS_SEED", raising=False)
    assert main(["kpi", "--seeds", "2", "--seed", "5", "--out", str(tmp_path / "kpi")]) == 0
    path = _write_example_config(tmp_path, 1, 2)
    assert main(["verify", "--config", str(path)]) == 0
    assert cli._build_parser() is cli._build_parser()
    kpi_args, verify_args = namespaces
    assert kpi_args["seed"] == 5 and "paths" not in kpi_args
    assert verify_args == {
        "command": "verify", "handler": cli.cmd_verify, "config": str(path),
        "paths": None, "seed": None,
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


@pytest.mark.parametrize("argv,env,message", [
    (["simulate", "--seed", "-1"], None, "--seed must be an integer >= 0, got -1"),
    (["simulate", "--paths", "0"], None, "--paths must be an integer >= 1, got 0"),
    (["kpi", "--seeds", "0"], None, "--seeds must be an integer >= 1, got 0"),
    (["simulate", "--seed", "5"], "-1", "HOCS_SEED must be an integer >= 0, got -1"),
    (["simulate"], "x", "HOCS_SEED must be an integer, got 'x'"),
], ids=["seed", "paths", "seeds", "HOCS_SEED", "HOCS_SEED-text"])
def test_flag_below_its_minimum_exits_3_in_the_integer_gate_s_words(
        tmp_path, monkeypatch, capsys, argv, env, message):
    monkeypatch.delenv("HOCS_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("HOCS_SEED", env)
    if argv[0] == "simulate":
        argv = [*argv, "--config", str(_write_example_config(tmp_path, 2, 1))]
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


# The verification tolerances are positive constants; verify takes no --tol, so
# a non-positive or NaN tolerance on the command line is a usage error: one
# config error line and exit 3, and nothing is verified.
@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
def test_verify_tolerance_must_be_positive(tmp_path, capsys, tol):
    assert oracle.GAP_TOLERANCE > 0 and oracle.BEAT_TOLERANCE > 0
    path = _write_example_config(tmp_path, 1, 1)
    assert main(["verify", "--config", str(path), "--tol", tol]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: unrecognized arguments: --tol {tol}")
    assert captured.err.count("\n") == 1


# A malformed flag value or an unknown command is a usage error: one config
# error line and exit 3, like an out-of-range flag.
@pytest.mark.parametrize("argv,message", [
    (["verify", "--config", "CONFIG", "--paths", "abc"],
     "argument --paths: invalid int value: 'abc'"),
    (["verify", "--config", "CONFIG", "--paths", "1.5"],
     "argument --paths: invalid int value: '1.5'"),
    (["simulate", "--config", "CONFIG", "--seed", "abc"],
     "argument --seed: invalid int value: 'abc'"),
    (["simulate", "--config"], "argument --config: expected one argument"),
    (["kpi", "--seeds", "1.5"], "argument --seeds: invalid int value: '1.5'"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    ([], "the following arguments are required: command"),
    # paths.csv always holds the first 20 paths; no flag moves that.
    (["simulate", "--config", "CONFIG", "--out", "OUT", "--sample-paths", "5"],
     "unrecognized arguments: --sample-paths 5"),
    (["example", "--id", "2", "--out", "OUT", "--sample-paths", "5"],
     "unrecognized arguments: --sample-paths 5"),
], ids=["paths-abc", "paths-fraction", "seed-abc", "config-no-value", "seeds-fraction",
        "unknown-command", "no-command", "sample-paths-simulate", "sample-paths-example"])
def test_usage_error_is_a_config_error(tmp_path, capsys, argv, message):
    path = _write_example_config(tmp_path, 1, 1)
    stand_ins = {"CONFIG": str(path), "OUT": str(tmp_path / "out")}
    assert main([stand_ins.get(arg, arg) for arg in argv]) == 3
    assert not (tmp_path / "out").exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {message}")
    assert captured.err.count("\n") == 1


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--help"])
    assert exit_info.value.code == 0
    assert "--paths" in capsys.readouterr().out


def test_write_failure_is_an_io_error(tmp_path, capsys):
    # --out under a regular file: the directory cannot be made.
    config = _write_example_config(tmp_path, 1, 1)
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    assert main(["solve", "--config", str(config), "--out", str(blocker / "schedule.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1


def test_failed_rename_leaves_no_temp_file(tmp_path, capsys):
    # --out names an existing directory: the rename onto it fails after the
    # temp file is written, and the temp file is removed again.
    config = _write_example_config(tmp_path, 1, 1)
    target = tmp_path / "out"
    target.mkdir()
    (target / "kept.txt").write_text("x", encoding="utf-8")
    assert main(["solve", "--config", str(config), "--out", str(target)]) == 3
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "out"]
    assert [p.name for p in target.iterdir()] == ["kept.txt"]
