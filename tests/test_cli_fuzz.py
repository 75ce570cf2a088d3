"""Fuzz of the command line: mutated preset configs and flags keep the exit-code contract.

Every run must end in exit code 0, 1, 2 or 3, with no traceback and no warning
on stderr, and every CSV it writes must be rectangular. The mutations are the
ones a user makes by hand: dropped keys, lists of the wrong length, non-finite
or extreme numbers, large powers, other noise and initial laws, odd seeds and
counts, flag values that are not integers and flags no command takes. Path
counts stay at 50 or below and horizons at 1,000 steps or below, so that no
example allocates much.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hocs.cli import main
from hocs.config import EXAMPLE_IDS, EXAMPLE_POWERS, example_config, render_config

NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 5e-324, 1e-300, 1e-5, 0.5, 2.0, 1e5, 1e100, 1e154,
                     1e300, 1.7976931348623157e308, -1e300, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 3),
)
# Not a number where one is due, or the wrong kind of node altogether.
JUNK = st.sampled_from([None, True, "1.0", [], {}, [1.0, "x"]]).map(copy.deepcopy)
POWERS = st.one_of(st.integers(-1, 4), st.integers(5, 300))
SEEDS = st.one_of(st.integers(-2, 1000),
                  st.sampled_from([2**32 - 1, 2**32, 2**63, 2**64 + 1, 2**128]))
# Mostly in range, so that most runs get past the flag checks.
PATHS = st.sampled_from([-1, 0, *range(1, 51)])


def _law(initial_law: bool):
    width = st.one_of(NUMBERS, JUNK)
    gaussian_key = "variance" if initial_law else "sigma"
    orders = st.sampled_from(["2", "4", "6", "0", "3", "600", "x", "-2", "+2"])
    return st.one_of(
        st.just({"kind": "dirac"}),
        st.builds(lambda v: {"kind": "gaussian", gaussian_key: v}, width),
        st.builds(lambda v: {"kind": "gaussian", "sigma" if initial_law else "variance": v}, width),
        st.builds(lambda v: {"kind": "rademacher", "scale": v}, width),
        st.builds(lambda v: {"kind": "uniform_symmetric", "halfwidth": v}, width),
        st.builds(lambda v: {"kind": "empirical", "samples": v},
                  st.one_of(st.lists(NUMBERS, max_size=4), JUNK)),
        st.builds(lambda v: {"kind": "moments", "values": v},
                  st.one_of(st.dictionaries(orders, NUMBERS, max_size=3), JUNK)),
        # The noise block of older configs, and other unknown kinds.
        st.just({"kind": "additive", "distribution": {"kind": "gaussian", "sigma": 1.0}}),
        st.just({"kind": "none"}),
        st.just({"kind": "gaussian", "sigma": 1.0, "extra": 1}),
        JUNK,
    )


def _paths(node, prefix=()):
    """Every (path, value) below node, maps and lists alike."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,), value
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


_DELETE = object()


def _set(document, path, value):
    node = document
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value


@st.composite
def mutated_configs(draw):
    example_id = draw(st.sampled_from(EXAMPLE_IDS))
    p = draw(st.sampled_from(EXAMPLE_POWERS))
    document = json.loads(render_config(example_config(example_id, p)))
    problem = document["problem"]
    if draw(st.booleans()):
        # Scalar per-step entries let a new horizon through.
        for block in ("mean_dynamics", "deviation_dynamics", "cost"):
            for key, value in problem[block].items():
                if isinstance(value, list):
                    problem[block][key] = value[0]
        problem["horizon"]["n_steps"] = draw(st.one_of(st.integers(-1, 12), st.integers(13, 1000)))
    for _ in range(draw(st.integers(0, 3))):
        # Weighted toward mutations that still parse, which reach the solver.
        action = draw(st.sampled_from(["drop", "junk", "length", "class"]
                                      + ["number", "number", "number", "power", "power",
                                         "noise", "noise", "initial", "initial"]))
        paths = [path for path, _ in _paths(document)]
        keys = [p for p in paths if not isinstance(p[-1], int)]
        if action == "drop" and keys:
            _set(document, draw(st.sampled_from(keys)), _DELETE)
        elif action == "number":
            leaves = [p for p, v in _paths(document)
                      if isinstance(v, float) or (isinstance(v, int) and not isinstance(v, bool)
                                                  and p[-1] not in ("n_steps", "n_paths"))]
            if leaves:
                _set(document, draw(st.sampled_from(leaves)), draw(NUMBERS))
        elif action == "junk" and paths:
            _set(document, draw(st.sampled_from(paths)), draw(JUNK))
        elif action == "length":
            lists = [p for p, v in _paths(document) if isinstance(v, list)]
            if lists:
                _set(document, draw(st.sampled_from(lists)),
                     [1.0] * draw(st.integers(0, 12)))
        elif action == "power" and isinstance(problem.get("cost"), dict):
            problem["cost"][draw(st.sampled_from(["p", "o"]))] = draw(POWERS)
        elif action == "noise" and isinstance(problem, dict):
            if draw(st.booleans()):
                problem.pop("noise", None)
            else:
                problem["noise"] = draw(_law(initial_law=False))
        elif action == "initial" and isinstance(problem.get("initial"), dict):
            problem["initial"]["law"] = draw(_law(initial_law=True))
        elif action == "class" and isinstance(problem, dict):
            problem["class"] = draw(st.sampled_from(
                ["deterministic", "additive", "mult_state", "higher_moment", "other"]))
    return document


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["validate", "solve", "simulate", "verify", "example", "kpi"]))
    argv = [command]
    if command == "kpi":
        argv += ["--seeds", str(draw(st.sampled_from([-1, 0, 1, 2, 3, 1, 2, 3])))]
    elif command == "example":
        argv += ["--id", str(draw(st.sampled_from([0, 5, 1, 2, 3, 4, 1, 2, 3, 4]))),
                 "--paths", str(draw(PATHS))]
    elif command in ("simulate", "verify"):
        argv += ["--paths", str(draw(PATHS))]
    if draw(st.integers(0, 3)) == 0:
        # A value the flag's type rejects, or a flag no command takes.
        argv += draw(st.sampled_from([["--paths", "abc"], ["--paths", "1.5"], ["--seed", "1.5"],
                                      ["--seeds", "abc"], ["--tol", "1e-6"]]))
    if command in ("simulate", "verify", "example", "kpi") and draw(st.booleans()):
        argv += ["--seed", str(draw(SEEDS))]
    env_seed = draw(st.sampled_from([None] * 4 + ["7", "-1", "x", str(2**70)]))
    return argv, env_seed


def _run(argv, env_seed):
    previous = os.environ.pop("HOCS_SEED", None)
    if env_seed is not None:
        os.environ["HOCS_SEED"] = env_seed
    out, err = io.StringIO(), io.StringIO()
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
    finally:
        os.environ.pop("HOCS_SEED", None)
        if previous is not None:
            os.environ["HOCS_SEED"] = previous
    return code, err.getvalue(), [str(w.message) for w in caught]


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(document=mutated_configs(), flags=argvs())
def test_cli_keeps_the_exit_code_contract(document, flags):
    argv, env_seed = flags
    problem = document.get("problem")
    horizon = problem.get("horizon") if isinstance(problem, dict) else None
    n_steps = horizon.get("n_steps") if isinstance(horizon, dict) else None
    if (argv[0] == "verify" and isinstance(n_steps, int) and n_steps > 40
            and problem.get("class") == "deterministic"):
        # The deterministic oracle solves a dense N x N Newton system per
        # update, about a second per spec at 100 steps and 25 s at 1,000;
        # long deterministic horizons are fuzzed through the other commands.
        argv = ["validate"]
    command = argv[0]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = tmp / "config.json"
        config.write_text(json.dumps(document), encoding="utf-8")
        out = tmp / "out"
        if command in ("validate", "solve", "simulate", "verify"):
            argv = [argv[0], "--config", str(config), *argv[1:]]
        if command == "solve":
            argv += ["--out", str(out / "schedule.csv")]
        elif command in ("simulate", "example", "kpi"):
            argv += ["--out", str(out)]
        code, err, caught = _run(argv, env_seed)
        assert code in (0, 1, 2, 3), (code, err)
        if {"abc", "1.5", "--tol"} & set(argv):
            assert code == 3 and err.startswith("config error: "), (code, err)
        assert "Traceback" not in err and "Warning" not in err, err
        assert caught == [], caught
        for csv in out.rglob("*.csv"):
            rows = [line.split(",") for line in csv.read_text(encoding="utf-8").splitlines()]
            assert len({len(row) for row in rows}) == 1, csv
