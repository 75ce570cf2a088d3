"""Outside-in tracer: wraps the public functions of each ``hocs`` layer.

Nothing inside ``hocs`` knows about it. ``install`` replaces each traced
function by a timing wrapper in every ``hocs`` module that holds a binding to
it, because ``hocs.cli`` and ``hocs.oracle`` import with ``from .simulate
import ...`` and patching ``hocs.simulate`` alone would miss their calls.
Policy methods are wrapped on their classes. ``uninstall`` puts the originals
back, so traced and untraced ops can alternate in one process.

Per traced name the tracer keeps the call count and the self time: each
call's duration minus the part covered by traced calls it made. Counters that
need a call's arguments or result (path-steps, bootstrap resamples, oracle
gaps, noise redraws) are taken in hooks after the call returns.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

__all__ = ["Tracer", "LAYER_FUNCTIONS"]

#: Traced name -> (module, attribute) of the function it wraps.
LAYER_FUNCTIONS = {
    "cli.main": ("hocs.cli", "main"),
    "cli.run_kpi_study": ("hocs.cli", "run_kpi_study"),
    "config.load_config": ("hocs.config", "load_config"),
    "model.validate": ("hocs.model", "validate"),
    "recursion.solve": ("hocs.recursion", "solve"),
    "simulate.simulate_ensemble": ("hocs.simulate", "simulate_ensemble"),
    "simulate.realized_cost": ("hocs.simulate", "realized_cost"),
    "simulate.kpi": ("hocs.simulate", "kpi"),
    "oracle.brute_force_deterministic": ("hocs.oracle", "brute_force_deterministic"),
    "oracle.mc_validate": ("hocs.oracle", "mc_validate"),
    "oracle.local_optimality_probe": ("hocs.oracle", "local_optimality_probe"),
}

#: Policy methods, all counted under one name: (module, class, method).
POLICY_METHODS = (
    ("hocs.control", "FeedbackPolicy", "control"),
    ("hocs.control", "FeedbackPolicy", "mean_control"),
    ("hocs.control", "BaselinePolicy", "control"),
    ("hocs.control", "Policy", "mean_control"),
)


#: Totals kept beside call counts and self times.
COUNTERS = (
    "simulate.path_steps", "simulate.ensemble_bytes", "simulate.redraws",
    "simulate.bootstrap_resamples", "oracle.det.iterations", "oracle.mc.discrepant",
    "cli.csv_bytes",
)
#: Largest values seen over the run.
MAXIMA = ("oracle.det.max_relative_gap", "oracle.det.max_control_gap")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Call counts, self times and layer counters over the traced calls."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.maxima = dict.fromkeys(MAXIMA, 0.0)
        self._stack = []
        self._patches = []
        self._draws = set()
        self._hooks = {
            "simulate.simulate_ensemble": self._on_ensemble,
            "simulate.realized_cost": self._on_cost,
            "oracle.brute_force_deterministic": self._on_oracle,
        }

    # -- installation -----------------------------------------------------

    def install(self):
        hocs_modules = [m for n, m in sorted(sys.modules.items())
                        if m is not None and (n == "hocs" or n.startswith("hocs."))]
        for name, (module_name, attr) in LAYER_FUNCTIONS.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in hocs_modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)
        for module_name, class_name, method in POLICY_METHODS:
            cls = getattr(sys.modules[module_name], class_name)
            original = cls.__dict__[method]
            self._patch(cls, method, original, self._wrap("control.policy", original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def _wrap(self, name, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # -- per-op bookkeeping -----------------------------------------------

    def start_op(self):
        """Forget earlier draws: redraws are counted within one op."""
        self._draws.clear()

    def snapshot(self) -> dict[str, int]:
        return dict(self.calls)

    def _on_ensemble(self, args, kwargs, ensemble):
        spec = _arg(args, kwargs, 0, "spec")
        n_paths = _arg(args, kwargs, 2, "n_paths")
        seed = _arg(args, kwargs, 3, "master_seed")
        n = spec.n_steps
        self.counters["simulate.path_steps"] += n_paths * n
        self.counters["simulate.ensemble_bytes"] += n_paths * (2 * n + 1) * 8
        key = (spec, n_paths, seed)
        if key in self._draws:
            self.counters["simulate.redraws"] += 1
        else:
            self._draws.add(key)

    def _on_cost(self, args, kwargs, report):
        self.counters["simulate.bootstrap_resamples"] += report.n_bootstrap

    def _on_oracle(self, args, kwargs, report):
        self.counters["oracle.det.iterations"] += report.iterations
        for key, value in (("oracle.det.max_relative_gap", report.relative_gap),
                           ("oracle.det.max_control_gap", report.control_max_abs_diff)):
            self.maxima[key] = max(self.maxima[key], value)
