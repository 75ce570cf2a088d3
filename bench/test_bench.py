"""Smoke tests of the benchmark itself: ``python3 -m pytest bench/test_bench.py``.

Each workload runs for one second, untraced and traced. The tests check that
every metric BENCHMARK.json names is printed with its unit, that failed ops
are reported against ops attempted, and that the tracer's call-count
self-check passes, and fails when a binding is missed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke(workload, trace):
    done = _bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout + done.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert any(f"failed 0 of {result['attempted']} attempted" in line for line in lines)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    for metric in declared:
        assert any(line.startswith(f"{metric['name']} = ") and line.endswith(f" {metric['unit']}")
                   for line in lines), metric["name"]
    assert not any("self-check failed" in line for line in lines)
    if trace:
        assert result["metrics"]["trace.ops"]["value"] >= 1


def test_self_check_catches_a_missed_binding(tmp_path):
    import worker
    from tracer import Tracer

    cli = worker._import_hocs()
    workload = make_workload("mc_verify", tmp_path, 3)
    loop = worker.Loop(cli, workload, Tracer())
    loop.traced(workload.next_op())
    assert loop.self_check_errors == []

    # Leave hocs.oracle's own bindings unwrapped, as a tracer that patched
    # only hocs.simulate would: the ensembles mc_validate and the probe draw
    # are then missed, and the self-check must say so.
    tracer = Tracer()
    install = tracer.install

    def install_missing_oracle():
        install()
        for owner, key, original in tracer._patches:
            if owner is sys.modules["hocs.oracle"]:
                setattr(owner, key, original)

    tracer.install = install_missing_oracle
    loop = worker.Loop(cli, workload, tracer)
    loop.traced(workload.next_op())
    assert any(error.startswith("simulate.simulate_ensemble: 0 calls")
               for error in loop.self_check_errors)
    assert loop.failed == 0


def test_tail_has_ten_samples_beyond():
    value, percentile, beyond = run.tail([float(i) for i in range(100)])
    assert (value, percentile, beyond) == (89.0, 90.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    done = _bench("--workload", "mc_verify", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
