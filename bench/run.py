"""hocs benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload mc_verify --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics (``setup_s``, ``op_p50_s``, ``op_tail_s``, ``work_per_s``,
``peak_rss_mb``); with ``--trace 1`` it carries the per-layer metrics of a
traced run. Lines before it give the machine context, the tail percentile
with its sample count, the output digest and any discrepant verdicts. The
whole record also goes to ``bench/results/<workload>-seed<n>-trace<t>.json``.

Exit status 0 means the run finished and printed a result, whose
``correct`` field says whether every op's output checked out; any other
status means no result, for instance when ``src/hocs`` is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-up samples per untraced run, besides the workload process itself.
SETUP_SAMPLES = 8
#: Head room past --seconds for set-up, the last op and the report.
GRACE_S = 120.0
#: Samples beyond the tail percentile.
TAIL_BEYOND = 10
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def reference_loop() -> float:
    """Seconds for a fixed pure-Python plus numpy loop: the machine's speed now."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_200_000):
        acc += i * i % 7
    values = np.linspace(0.0, 1.0, 100_000)
    for _ in range(160):
        values = np.sqrt(values * values + 1.0) - 0.5
    if acc < 0 or not np.isfinite(values).all():
        raise ArithmeticError("reference loop went wrong")
    return time.perf_counter() - start


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hocs").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def machine_context() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
    }


def _spawn(args, work_dir: Path, setup_only: bool):
    """Start a worker and wait for its ``ready`` line; return it and its set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work_dir)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"workload process did not get ready (exit {proc.returncode})")
    return proc, setup


def _finish(proc, timeout: float) -> str:
    """Wait for a worker to exit cleanly and return the rest of its stdout."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"workload process ran past {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return out


def _setup_samples(args, work_dir: Path, count: int) -> list[float]:
    setups = []
    for _ in range(count):
        proc, setup = _spawn(args, work_dir, setup_only=True)
        _finish(proc, GRACE_S)
        setups.append(setup)
    return setups


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples beyond it: (value, percentile, beyond)."""
    ordered = sorted(latencies)
    # A run too short for that many reports its maximum, with none beyond.
    beyond = TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0
    index = len(ordered) - 1 - beyond
    return ordered[index], 100.0 * (index + 1) / len(ordered), beyond


def run(args, units: dict[str, str]) -> dict:
    work_dir = HERE / "work" / args.workload
    context = machine_context()
    ref_before = reference_loop()
    samples = 0 if args.trace else SETUP_SAMPLES
    # Half the set-up samples go before the measured run and half after it,
    # so that one slow spell of the machine does not decide their median.
    setups = _setup_samples(args, work_dir, samples // 2)
    proc, setup = _spawn(args, work_dir, setup_only=False)
    setups.append(setup)
    report = json.loads(_finish(proc, args.seconds + GRACE_S).splitlines()[-1])
    setups += _setup_samples(args, work_dir, samples - samples // 2)
    ref_after = reference_loop()
    context["machine.ref_s"] = {"before": ref_before, "after": ref_after}

    latencies = report["latencies"]
    if not latencies:
        raise RuntimeError(f"none of {report['attempted']} ops succeeded")
    errors = report["self_check_errors"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": context,
        "discrepant": report["discrepant"],
        "digest_first4": report["digest_first4"],
        "digest_all": report["digest_all"],
        "ops": len(latencies),
        "self_check_errors": errors,
        "correct": report["failed"] == 0 and not errors,
        "attempted": report["attempted"],
        "failed": report["failed"],
    }
    if args.trace:
        values = report["layers"]
        values["machine.ref_s"] = (ref_before + ref_after) / 2
    else:
        tail_s, percentile, beyond = tail(latencies)
        record["tail"] = {"percentile": percentile, "beyond": beyond, "samples": len(latencies)}
        record["work_unit"] = report["work_unit"]
        record["setup_samples_s"] = setups
        values = {
            "setup_s": statistics.median(setups),
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail_s,
            "work_per_s": report["work_per_op"] * len(latencies) / sum(latencies),
            "peak_rss_mb": report["peak_rss_mb"],
        }
    record["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in units.items()}
    return record


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this kind of run."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one hocs benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "hocs" / "cli.py").is_file():
        print(f"no hocs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = run(args, metric_units(args.trace))
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"context: {json.dumps(record['context'])}")
    print(f"ops: {record['ops']}, failed {record['failed']} of {record['attempted']} attempted, "
          f"discrepant verdicts {record['discrepant']}")
    if "tail" in record:
        t = record["tail"]
        print(f"op_tail_s is p{t['percentile']:.1f} of {t['samples']} ops ({t['beyond']} beyond); "
              f"work is counted in {record['work_unit']}")
    print(f"output digest: first 4 ops {record['digest_first4']}, all ops {record['digest_all']}")
    if record["self_check_errors"]:
        print(f"tracer self-check failed: {record['self_check_errors']}")
    if args.trace:
        values = {name: metric["value"] for name, metric in record["metrics"].items()}
        shares = sorted(((value / values["trace.op_s"], name[:-len(".self_s")])
                         for name, value in values.items() if name.endswith(".self_s")),
                        reverse=True)
        print("self time share of traced op time: "
              + ", ".join(f"{name} {share:.1%}" for share, name in shares if share >= 0.005))
    for name, metric in record["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
