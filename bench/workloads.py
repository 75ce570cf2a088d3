"""The four benchmark workloads: inputs, per-command checks and expected structure.

Every workload drives ``hocs.cli.main`` in-process as a closed loop with one
caller. An op is a fixed batch of ``hocs`` commands whose inputs come only
from the workload seed; the next op starts when the previous one returns.
Inputs are generated before an op's clock starts, and each command's output
is checked after it stops. Each command has the size a user runs; a short
command is batched so that an op takes about half a second. On a shared
machine slow spells last a second or more, and ops much shorter than that
let one spell fill all ten samples beyond the tail percentile.

Why these four:

- ``mc_verify``: ``hocs verify`` on the mean-field headline preset (ex4,
  o = p = 3) at 4 000 paths. Eleven ensembles and eleven bootstrapped cost
  estimates per command, so it exercises the Monte-Carlo reductions and the
  probe's redrawn noise.
- ``mc_simulate``: ``hocs simulate`` on the additive preset (ex2, p = 2) at
  the config default of 100 000 paths. The only workload at the default path
  count, so bulk reductions and peak memory show here.
- ``kpi_seeds``: ``hocs kpi --seeds 20``. Sixty one-path ensembles and 180
  KPI calls per command: bound by fixed cost per call, not by array
  throughput.
- ``oracle_det``: ``hocs verify`` on five fresh deterministic specs per op,
  from the family of acceptance criterion 2. Only the deterministic oracle
  works here; the Monte-Carlo layer does nothing.

BENCHMARK.json gates on ``mc_verify`` and ``mc_simulate`` alone. The other
two run by name but are too unsteady for a gate on a shared machine:
``kpi_seeds`` is bound by interpreter overhead per call, which moves most
with the machine's speed, and ``oracle_det``'s time per spec is heavy-tailed
(a few specs of the family need thousands of oracle iterations and seconds
each), so ten runs of either spread wider than the bounds.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["WORKLOADS", "Call", "CallResult", "make_workload"]

#: Path count of one mc_verify command.
VERIFY_PATHS = 4_000
#: Master seeds of one kpi_seeds command.
KPI_SEEDS = 20
#: Horizon strata of one oracle_det op. Oracle time grows steeply with N, so
#: each op draws one spec from every stratum of criterion 2's N range: one
#: spec's N then cannot decide a percentile, and ops stay short enough for
#: a run to hold many.
ORACLE_HORIZON_STRATA = ((1, 2), (3, 4), (5, 6), (7, 8), (9, 10))


@dataclass(frozen=True)
class Call:
    """One ``hocs`` command line, its output directory and config file, if any."""

    argv: tuple[str, ...]
    out_dir: Path | None = None
    config_path: Path | None = None
    config_text: str | None = None


@dataclass(frozen=True)
class CallResult:
    """What one command left behind: exit code, stdout and output files."""

    code: int
    stdout: str
    files: dict[str, bytes]


def _stdout_field(text: str, label: str) -> str:
    """The value after ``label ... :`` on the first stdout line that has it."""
    for line in text.splitlines():
        if line.startswith(label):
            return line.split(":", 1)[1].strip()
    raise ValueError(f"stdout has no line starting with {label!r}")


def _check_csv(name: str, data: bytes, rows: int | None = None) -> list[list[str]]:
    """Parse a CSV bundle file and require a rectangular table."""
    table = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if not table:
        raise ValueError(f"{name} is empty")
    width = len(table[0])
    for i, row in enumerate(table[1:], start=2):
        if len(row) != width:
            raise ValueError(f"{name} line {i} has {len(row)} cells, header has {width}")
    if rows is not None and len(table) - 1 != rows:
        raise ValueError(f"{name} has {len(table) - 1} rows, expected {rows}")
    return table


def _require_files(result: CallResult, names) -> None:
    if sorted(result.files) != sorted(names):
        raise ValueError(f"command wrote {sorted(result.files)}, expected {sorted(names)}")


class Workload:
    """Base class: a named op generator with a per-command checker.

    An op is ``calls_per_op`` commands. ``work_unit`` names what
    ``work_per_call`` counts. ``expected_calls`` maps traced layer names to
    the call count every command must show.
    """

    name = ""
    work_unit = ""
    work_per_call = 1.0
    calls_per_op = 1
    expected_calls: dict[str, int] = {}

    def __init__(self, work_dir: Path, seed: int):
        self.work_dir = work_dir
        self.rng = np.random.default_rng([seed, WORKLOADS.index(self.name)])
        work_dir.mkdir(parents=True, exist_ok=True)

    @property
    def work_per_op(self) -> float:
        return self.work_per_call * self.calls_per_op

    def next_op(self) -> list[Call]:
        return [self._call(slot) for slot in range(self.calls_per_op)]

    def _call(self, slot: int) -> Call:
        raise NotImplementedError

    def check(self, result: CallResult) -> bool:
        """Raise ValueError on a wrong output; return True on a discrepant verdict."""
        raise NotImplementedError

    def _fresh_seed(self) -> str:
        return str(int(self.rng.integers(0, 2**31 - 1)))


def _preset(work_dir: Path, example_id: int, p: int):
    """Write a built-in preset's config; return its path, config and closed-form price."""
    from hocs.config import example_config, load_config, render_config
    from hocs.recursion import solve
    from hocs.simulate import predicted_cost

    path = work_dir / f"ex{example_id}p{p}.json"
    path.write_text(render_config(example_config(example_id, p)), encoding="utf-8")
    config = load_config(path)
    return path, config, predicted_cost(solve(config.problem)[0], config.problem.initial)


class MCVerify(Workload):
    name = "mc_verify"
    work_unit = "path-steps"
    calls_per_op = 2
    expected_calls = {
        "cli.main": 1,
        "simulate.simulate_ensemble": 11,
        "simulate.realized_cost": 11,
        "oracle.mc_validate": 1,
        "oracle.local_optimality_probe": 1,
    }

    def __init__(self, work_dir: Path, seed: int):
        super().__init__(work_dir, seed)
        self.config, config, self.closed_form = _preset(work_dir, 4, 3)
        self.work_per_call = float(VERIFY_PATHS * config.problem.n_steps)

    def _call(self, slot: int) -> Call:
        return Call(("verify", "--config", str(self.config),
                     "--paths", str(VERIFY_PATHS), "--seed", self._fresh_seed()))

    def check(self, result: CallResult) -> bool:
        if result.code not in (0, 2):
            raise ValueError(f"verify exited {result.code}")
        predicted = _stdout_field(result.stdout, "predicted cost")
        if predicted != format(self.closed_form, ".12g"):
            raise ValueError(f"printed predicted cost {predicted} != {self.closed_form!r}")
        verdict = _stdout_field(result.stdout, "verify")
        if verdict != ("ok" if result.code == 0 else "FAILED"):
            raise ValueError(f"verdict {verdict!r} does not match exit code {result.code}")
        return result.code == 2


class MCSimulate(Workload):
    name = "mc_simulate"
    work_unit = "path-steps"
    expected_calls = {
        "cli.main": 1,
        "simulate.simulate_ensemble": 1,
        "simulate.realized_cost": 1,
        "simulate.kpi": 3,
    }
    bundle = ("cost.csv", "kpi.csv", "mean_path.csv", "moments.csv", "paths.csv")

    def __init__(self, work_dir: Path, seed: int):
        super().__init__(work_dir, seed)
        self.config, config, self.closed_form = _preset(work_dir, 2, 2)
        self.work_per_call = float(config.run.n_paths * config.problem.n_steps)

    def _call(self, slot: int) -> Call:
        out = self.work_dir / f"bundle{slot}"
        return Call(("simulate", "--config", str(self.config), "--out", str(out),
                     "--seed", self._fresh_seed()), out)

    def check(self, result: CallResult) -> bool:
        if result.code != 0:
            raise ValueError(f"simulate exited {result.code}")
        _require_files(result, self.bundle)
        for name, data in result.files.items():
            table = _check_csv(name, data)
            if name == "cost.csv":
                values = dict(table[1:])
                if not math.isfinite(float(values["realized_mean"])):
                    raise ValueError(f"realized_mean is {values['realized_mean']}")
                if float(values["predicted"]) != self.closed_form:
                    raise ValueError(f"predicted {values['predicted']} != {self.closed_form!r}")
        return False


class KPISeeds(Workload):
    name = "kpi_seeds"
    work_unit = "seeds"
    work_per_call = float(KPI_SEEDS)
    calls_per_op = 10
    expected_calls = {
        "cli.main": 1,
        "cli.run_kpi_study": 1,
        "simulate.simulate_ensemble": 3 * KPI_SEEDS,
        "simulate.kpi": 9 * KPI_SEEDS,
    }

    def _call(self, slot: int) -> Call:
        out = self.work_dir / f"kpi{slot}"
        return Call(("kpi", "--seeds", str(KPI_SEEDS), "--seed", self._fresh_seed(),
                     "--out", str(out)), out)

    def check(self, result: CallResult) -> bool:
        if result.code != 0:
            raise ValueError(f"kpi exited {result.code}")
        _require_files(result, ("kpi_aggregate.csv", "kpi_seeds.csv"))
        _check_csv("kpi_seeds.csv", result.files["kpi_seeds.csv"], rows=9 * KPI_SEEDS)
        _check_csv("kpi_aggregate.csv", result.files["kpi_aggregate.csv"], rows=9)
        return False


class OracleDet(Workload):
    name = "oracle_det"
    work_unit = "specs"
    calls_per_op = len(ORACLE_HORIZON_STRATA)
    expected_calls = {
        "cli.main": 1,
        "oracle.brute_force_deterministic": 1,
    }

    def _draw(self, size=None):
        """Criterion 2's signed coefficients: magnitude in [0.1, 5], random sign."""
        magnitude = self.rng.uniform(0.1, 5.0, size)
        return magnitude * self.rng.choice([-1.0, 1.0], size=size)

    def _spec_json(self, n: int) -> str:
        p = int(self.rng.integers(1, 4))
        problem = {
            "class": "deterministic",
            "horizon": {"n_steps": n},
            "mean_dynamics": {"a_bar": self._draw(n).tolist(), "b_bar": self._draw(n).tolist()},
            "cost": {
                "p": p,
                "q_bar": self.rng.uniform(0.1, 5.0, n).tolist(),
                "q_bar_terminal": float(self.rng.uniform(0.1, 5.0)),
                "r_bar": self.rng.uniform(0.1, 5.0, n).tolist(),
            },
            "initial": {"mean": float(self._draw())},
        }
        return json.dumps({"problem": problem})

    def next_op(self) -> list[Call]:
        calls = []
        horizons = [int(self.rng.choice(stratum)) for stratum in ORACLE_HORIZON_STRATA]
        for slot, n in enumerate(self.rng.permutation(horizons)):
            path = self.work_dir / f"spec{slot}.json"
            calls.append(Call(("verify", "--config", str(path)),
                              config_path=path, config_text=self._spec_json(int(n))))
        return calls

    def check(self, result: CallResult) -> bool:
        if result.code != 0:
            raise ValueError(f"verify exited {result.code}")
        gap = float(_stdout_field(result.stdout, "relative gap"))
        control_gap = float(_stdout_field(result.stdout, "control sup-norm gap"))
        if not gap < 1e-6 or not control_gap < 1e-5:
            raise ValueError(f"oracle gaps {gap:.3e} / {control_gap:.3e} over criterion 2's gates")
        return False


_CLASSES = {cls.name: cls for cls in (MCVerify, MCSimulate, KPISeeds, OracleDet)}
WORKLOADS = tuple(_CLASSES)


def make_workload(name: str, work_dir: Path, seed: int) -> Workload:
    return _CLASSES[name](work_dir, seed)
