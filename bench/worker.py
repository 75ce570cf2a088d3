"""One workload process: set up, print ``ready``, then run ops for a time.

Started by ``run.py``, which times it from spawn to the ``ready`` line (the
set-up time a user pays on every CLI call: interpreter start, ``import
hocs.cli`` and the workload's inputs). With ``--setup-only`` the process
exits there. Otherwise it runs ops as a closed loop with one caller until
``--seconds`` have passed and prints one JSON report as its last line.

With ``--trace 1`` every op input runs twice, untraced and traced, in
alternating order; the difference of the two sums is the tracing overhead,
and the two outputs must agree byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import LAYER_FUNCTIONS, Tracer
from workloads import CallResult, make_workload

ROOT = Path(__file__).resolve().parent.parent


def _import_hocs():
    """Import ``hocs.cli`` from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import hocs.cli

    if Path(hocs.cli.__file__).resolve().parent != ROOT / "src" / "hocs":
        raise ImportError(f"hocs imported from {hocs.cli.__file__}, not from {ROOT / 'src'}")
    return hocs.cli


def _run_op(cli, calls):
    """Run one op's commands; return its wall time and what each left behind."""
    for call in calls:
        if call.config_path is not None:
            call.config_path.write_text(call.config_text, encoding="utf-8")
    codes, stdouts = [], []
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
        for call in calls:
            mark = sink.tell()
            codes.append(cli.main(list(call.argv)))
            stdouts.append(sink.getvalue()[mark:])
    elapsed = time.perf_counter() - start
    results = []
    for call, code, stdout in zip(calls, codes, stdouts):
        files = {} if call.out_dir is None else \
            {p.name: p.read_bytes() for p in sorted(call.out_dir.iterdir())}
        results.append(CallResult(code, stdout, files))
    return elapsed, results


def _digest(results) -> bytes:
    h = hashlib.sha256()
    for result in results:
        h.update(f"{result.code}\n{result.stdout}".encode())
        for name, data in result.files.items():
            h.update(name.encode() + b"\0" + data)
    return h.digest()


class Loop:
    """Runs ops, checks them and keeps the run's tallies."""

    def __init__(self, cli, workload, tracer):
        self.cli, self.workload, self.tracer = cli, workload, tracer
        self.latencies = []
        self.traced_latencies = []
        self.attempted = self.failed = self.discrepant = 0
        self.self_check_errors = []
        self.digests = []

    def _checked(self, calls):
        """Run and check one op; None if it failed."""
        self.attempted += 1
        try:
            elapsed, results = _run_op(self.cli, calls)
            discrepant = sum(self.workload.check(result) for result in results)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        return elapsed, results, discrepant

    def untraced(self, calls):
        outcome = self._checked(calls)
        if outcome is None:
            return None
        elapsed, results, discrepant = outcome
        self.latencies.append(elapsed)
        self.discrepant += discrepant
        self.digests.append(_digest(results))
        return results

    def traced(self, calls):
        tracer = self.tracer
        before = tracer.snapshot()
        tracer.start_op()
        tracer.install()
        try:
            outcome = self._checked(calls)
        finally:
            tracer.uninstall()
        if outcome is None:
            return None
        elapsed, results, discrepant = outcome
        self.traced_latencies.append(elapsed)
        tracer.counters["oracle.mc.discrepant"] += discrepant
        tracer.counters["cli.csv_bytes"] += sum(len(data) for result in results
                                                for data in result.files.values())
        after = tracer.snapshot()
        for name, per_command in self.workload.expected_calls.items():
            got, expected = after.get(name, 0) - before.get(name, 0), per_command * len(calls)
            if got != expected:
                self.self_check_errors.append(f"{name}: {got} calls in op, expected {expected}")
        return results

    def paired(self, calls):
        """Run one op untraced and traced; the tracer must not change its output."""
        # Alternate which side runs first so warm caches favour neither.
        order = (self.untraced, self.traced) if len(self.traced_latencies) % 2 else \
            (self.traced, self.untraced)
        results = [side(calls) for side in order]
        if None not in results and _digest(results[0]) != _digest(results[1]):
            self.failed += 1
            print("traced and untraced outputs differ", file=sys.stderr)

    def run(self, calls, seconds, trace):
        """Run ``calls`` and then fresh ops until ``seconds`` have passed."""
        step = self.paired if trace else self.untraced
        deadline = time.perf_counter() + seconds
        while True:
            step(calls)
            if time.perf_counter() >= deadline:
                return
            calls = self.workload.next_op()


def _layer_metrics(loop) -> dict[str, float]:
    """Every per-layer figure of a traced run; BENCHMARK.json picks which to report."""
    tracer = loop.tracer
    metrics = {}
    for name in (*LAYER_FUNCTIONS, "control.policy"):
        metrics[f"{name}.calls"] = tracer.calls[name]
        metrics[f"{name}.self_s"] = tracer.self_s[name]
    metrics.update(tracer.counters)
    metrics.update(tracer.maxima)
    ensembles = tracer.calls["simulate.simulate_ensemble"]
    redraws = tracer.counters["simulate.redraws"]
    metrics["simulate.redraw_ratio"] = redraws / ensembles if ensembles else 0.0
    metrics["trace.ops"] = len(loop.traced_latencies)
    metrics["trace.op_s"] = sum(loop.traced_latencies)
    metrics["trace.overhead_s"] = sum(loop.traced_latencies) - sum(loop.latencies)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # The seed comes from --seed alone; HOCS_SEED would override it.
    os.environ.pop("HOCS_SEED", None)

    cli = _import_hocs()
    workload = make_workload(args.workload, Path(args.work_dir), args.seed)
    first = workload.next_op()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    loop = Loop(cli, workload, Tracer())
    loop.run(first, args.seconds, bool(args.trace))

    report = {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "latencies": loop.latencies,
        "discrepant": loop.discrepant,
        "work_per_op": workload.work_per_op,
        "work_unit": workload.work_unit,
        "digest_first4": hashlib.sha256(b"".join(loop.digests[:4])).hexdigest(),
        "digest_all": hashlib.sha256(b"".join(loop.digests)).hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "self_check_errors": loop.self_check_errors[:20],
    }
    if args.trace:
        report["layers"] = _layer_metrics(loop)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
