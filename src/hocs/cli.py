"""Command-line front end: validate, solve, simulate, verify, example, kpi.

Exit codes are part of the contract: 0 success, 1 a validity check failed,
2 a recursion or verification failure (a weight of the wrong sign, a
non-finite coefficient, a missing moment, oracle disagreement), 3 an
unreadable config, a malformed or out-of-range flag or an unknown command,
an I/O problem or running out of memory. _check_flags puts a set HOCS_SEED in
place of --seed before any command runs. _run_settings then takes --seed, else
run.master_seed, else the RunSettings default, and --paths and a directory
--out in place of run.n_paths and run.out_dir; kpi starts from one path.

All CSV output uses a comma delimiter, a header row, Unix newlines, '.' as
the radix, and 17 significant digits for floats, so files round-trip to the
exact in-memory doubles and reruns with one master seed are byte-identical.
Files are written to a temp name in the target directory and renamed into
place, so readers never observe a half-written file.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    RunSettings,
    example_config,
    load_config,
    render_config,
    EXAMPLE_POWERS,
)
from .control import BaselinePolicy, FeedbackPolicy
from .model import (
    MissingMoment,
    NonFiniteCoefficient,
    NonPositiveCoefficient,
    NotConverged,
    ProblemClass,
    ProblemSpec,
    _integer,
    validate,
)
from .oracle import PROBE_GRID, brute_force_deterministic, local_optimality_probe, mc_validate
from .recursion import CoefficientSchedule, solve
from .simulate import (
    _ZETAS,
    _common_draws,
    central_moment,
    kpi,
    predicted_cost,
    realized_cost,
    simulate_ensemble,
)

__all__ = ["main", "run_kpi_study", "PROBE_GRID"]

_SCHEDULE_HEADER = ("k", "alpha_bar", "alpha", "gamma_bar", "k_mean", "k_dev")
_SAMPLE_PATHS = 20


# --------------------------------------------------------------------------
# CSV plumbing
# --------------------------------------------------------------------------

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def _write_text_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(value) for value in row) for row in rows)
    _write_text_atomic(path, "\n".join(lines) + "\n")


def _schedule_rows(schedule: CoefficientSchedule, gains: FeedbackPolicy):
    n = schedule.n_steps
    for k in range(n + 1):
        yield (
            k,
            schedule.alpha_bar[k],
            schedule.alpha[k] if schedule.alpha is not None else None,
            schedule.gamma_bar[k] if schedule.gamma_bar is not None else None,
            gains.k_mean[k] if k < n else None,
            gains.k_dev[k] if gains.k_dev is not None and k < n else None,
        )


# --------------------------------------------------------------------------
# Shared command helpers
# --------------------------------------------------------------------------

def _check_flags(args) -> None:
    """Reject out-of-range counts and seeds before any command runs, through
    the model's integer gate, as config errors.

    For commands that take --seed, a set HOCS_SEED replaces the flag here.
    """
    env = os.environ.get("HOCS_SEED")
    from_env = env is not None and hasattr(args, "seed")
    if from_env:
        try:
            args.seed = int(env)
        except ValueError:
            raise ConfigError(f"HOCS_SEED must be an integer, got {env!r}") from None
    try:
        for flag, minimum in (("seed", 0), ("paths", 1), ("seeds", 1)):
            value = getattr(args, flag, None)
            if value is not None:
                name = "HOCS_SEED" if flag == "seed" and from_env else f"--{flag}"
                _integer(value, name, minimum)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _run_settings(args, run: RunSettings) -> RunSettings:
    """The settings a command runs with: each given --paths, --seed (HOCS_SEED
    already in its place) and directory --out replaces its value in ``run``."""
    flags = {"n_paths": args.paths, "master_seed": args.seed, "out_dir": getattr(args, "out", None)}
    return replace(run, **{key: value for key, value in flags.items() if value is not None})


def _validate_or_print(spec: ProblemSpec) -> bool:
    report = validate(spec)
    if not report.ok:
        for check in report.failures:
            print(f"invalid: {check.name} ({check.detail})", file=sys.stderr)
    return report.ok


def _simulation_bundle(spec: ProblemSpec, schedule: CoefficientSchedule, gains: FeedbackPolicy,
                       out_dir: Path, run: RunSettings) -> None:
    """Price, then write mean_path/paths/moments/kpi/cost CSVs for one solved problem."""
    price = predicted_cost(schedule, spec.initial)
    ensemble = simulate_ensemble(spec, gains, run.n_paths, run.master_seed)
    report = realized_cost(spec, ensemble)
    n = ensemble.n_steps

    _write_csv(
        out_dir / "mean_path.csv",
        ("k", "x_bar", "u_bar"),
        ((k, ensemble.mean_path[k], ensemble.mean_controls[k] if k < n else None)
         for k in range(n + 1)),
    )
    shown = min(_SAMPLE_PATHS, ensemble.n_paths)
    _write_csv(
        out_dir / "paths.csv",
        ("k", *(f"path{j}" for j in range(shown))),
        ((k, *ensemble.states[:shown, k]) for k in range(n + 1)),
    )
    orders = sorted({2, 2 * spec.o})
    moments = [central_moment(ensemble, order) for order in orders]
    _write_csv(
        out_dir / "moments.csv",
        ("k", *(f"central_{order}" for order in orders)),
        ((k, *(column[k] for column in moments)) for k in range(n + 1)),
    )
    kpi_rows = []
    for zeta in _ZETAS:
        kpi_x, kpi_u = kpi(ensemble, zeta)
        kpi_rows.append((zeta, kpi_x, kpi_u, kpi_x + kpi_u))
    _write_csv(out_dir / "kpi.csv", ("zeta", "kpi_x", "kpi_u", "total"), kpi_rows)
    _write_csv(
        out_dir / "cost.csv",
        ("quantity", "value"),
        [
            ("realized_mean", report.realized_mean),
            ("realized_stderr", report.realized_stderr),
            ("predicted", price),
            *sorted(report.breakdown.items()),
            ("n_paths", report.n_paths),
        ],
    )
    print(f"realized cost {report.realized_mean:.6g} "
          f"(stderr {report.realized_stderr:.3g}), predicted {price:.6g}")
    print(f"wrote {out_dir}")


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def cmd_validate(args) -> int:
    config = load_config(args.config)
    report = validate(config.problem)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def cmd_solve(args) -> int:
    config = load_config(args.config)
    if not _validate_or_print(config.problem):
        return 1
    schedule, gains = solve(config.problem)
    price = predicted_cost(schedule, config.problem.initial)
    out = Path(args.out) if args.out else Path(config.run.out_dir) / "schedule.csv"
    _write_csv(out, _SCHEDULE_HEADER, _schedule_rows(schedule, gains))
    print(f"predicted cost: {price:.17g}")
    print(f"wrote {out}")
    return 0


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    spec, run = config.problem, _run_settings(args, config.run)
    if not _validate_or_print(spec):
        return 1
    schedule, gains = solve(spec)
    _simulation_bundle(spec, schedule, gains, Path(run.out_dir), run)
    return 0


def cmd_verify(args) -> int:
    config = load_config(args.config)
    spec, run = config.problem, _run_settings(args, config.run)
    if not _validate_or_print(spec):
        return 1
    if spec.problem_class is ProblemClass.DETERMINISTIC:
        report = brute_force_deterministic(spec)
        print(f"closed-form cost     : {report.closed_form_cost:.12g}")
        print(f"oracle cost          : {report.oracle_cost:.12g} "
              f"({report.iterations} iterations)")
        print(f"relative gap         : {report.relative_gap:.3e}")
        print(f"control sup-norm gap : {report.control_max_abs_diff:.3e}")
        print(f"verify: {'FAILED' if report.discrepant else 'ok'}")
        return 2 if report.discrepant else 0

    schedule, gains = solve(spec)
    with _common_draws():
        report = mc_validate(spec, schedule, gains, run.n_paths, run.master_seed)
        probe = local_optimality_probe(spec, gains, run.n_paths, run.master_seed)
    print(f"predicted cost       : {report.closed_form_cost:.12g}")
    print(f"monte-carlo cost     : {report.oracle_cost:.12g} "
          f"+/- {report.stderr:.3g} ({run.n_paths} paths)")
    print(f"total gap            : {abs(report.closed_form_cost - report.oracle_cost):.3g}")
    print(f"prediction agreement : {'DISCREPANT' if report.discrepant else 'ok'}")
    print(f"moment gate z-score  : {report.moment_z:.3g}")
    print(f"probe minimum at 1.0 : {'yes' if probe.min_at_unit else 'NO'}")
    ok = not report.discrepant and probe.min_at_unit
    print(f"verify: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 2


def cmd_example(args) -> int:
    for p in EXAMPLE_POWERS:
        config = example_config(args.id, p)
        spec, run = config.problem, _run_settings(args, config.run)
        out_dir = Path(run.out_dir) / f"example{args.id}" / f"p{p}"
        schedule, gains = solve(spec)
        # The run's paths and seed, so simulate reproduces the bundle; out_dir is the preset's.
        recorded = replace(config, run=replace(run, out_dir=config.run.out_dir))
        _write_text_atomic(out_dir / "config.json", render_config(recorded))
        _write_csv(out_dir / "schedule.csv", _SCHEDULE_HEADER, _schedule_rows(schedule, gains))
        _simulation_bundle(spec, schedule, gains, out_dir, run)
    return 0


def run_kpi_study(n_seeds: int, base_seed: int = RunSettings.master_seed, n_paths: int = 1):
    """Compare the two reference controllers against the solved one.

    The arena is the built-in example-4 problem with o = p = 3. Case 1 is the
    sign controller, Case 2 the linear feedback u = -3 (xbar - x) - 3 xbar as
    a FeedbackPolicy of constant gains k_mean = 3, k_dev = -3, Case 3 the
    policy solve() returns. Each master seed (base_seed + i) is one
    experiment: all three cases roll out on one shared draw of initial states
    and noise (common random numbers, drawn once per seed and dropped before
    the next), and the per-case performance indices are computed per seed for
    each zeta in 1, 2, 3. One path per case per seed by default, so a seed is
    a single realized experiment rather than an expectation.

    Returns:
        (rows, aggregate): rows of (seed, zeta, case, kpi_x, kpi_u, total),
        and aggregate rows of (zeta, case, mean_kpi_x, mean_kpi_u,
        mean_total, wins, win_rate) where a win is a strict minimum of the
        total over the three cases at that seed.

    Raises:
        ValueError: If n_seeds is not an int >= 1 or base_seed not an int >= 0
            (bools are refused), before anything is solved or rolled out.
    """
    n_seeds = _integer(n_seeds, "n_seeds", 1)
    base_seed = _integer(base_seed, "base_seed", 0)
    spec = example_config(4, 3).problem
    _, gains = solve(spec)
    n = spec.n_steps
    policies = {
        1: BaselinePolicy(),
        2: FeedbackPolicy(k_mean=(3.0,) * n, k_dev=(-3.0,) * n),
        3: gains,
    }
    rows = []
    wins = {(zeta, case): 0 for zeta in _ZETAS for case in policies}
    for i in range(n_seeds):
        seed = base_seed + i
        seed_rows = {}
        with _common_draws():
            # One ensemble alive at a time: reduce it, then drop it before the next rollout.
            for case, policy in policies.items():
                ensemble = simulate_ensemble(spec, policy, n_paths, seed)
                for zeta in _ZETAS:
                    kpi_x, kpi_u = kpi(ensemble, zeta)
                    seed_rows[zeta, case] = (seed, zeta, case, kpi_x, kpi_u, kpi_x + kpi_u)
                del ensemble
        for zeta in _ZETAS:
            zeta_rows = [seed_rows[zeta, case] for case in policies]
            rows.extend(zeta_rows)
            best = min(row[5] for row in zeta_rows)
            winners = [row[2] for row in zeta_rows if row[5] == best]
            if len(winners) == 1:
                wins[zeta, winners[0]] += 1
    aggregate = []
    for (zeta, case), won in wins.items():
        # Summed in seed order, as the rows were written.
        columns = zip(*(row[3:] for row in rows if row[1:3] == (zeta, case)))
        aggregate.append((zeta, case, *(sum(column) / n_seeds for column in columns),
                          won, won / n_seeds))
    return rows, aggregate


def cmd_kpi(args) -> int:
    run = _run_settings(args, RunSettings(n_paths=1))
    rows, aggregate = run_kpi_study(args.seeds, base_seed=run.master_seed, n_paths=run.n_paths)
    out_dir = Path(run.out_dir)
    _write_csv(out_dir / "kpi_seeds.csv",
               ("seed", "zeta", "case", "kpi_x", "kpi_u", "total"), rows)
    _write_csv(out_dir / "kpi_aggregate.csv",
               ("zeta", "case", "mean_kpi_x", "mean_kpi_u", "mean_total", "wins", "win_rate"),
               aggregate)
    for zeta, case, _, _, mean_total, wins, win_rate in aggregate:
        if case == 3:
            print(f"zeta={zeta}: case 3 mean total {mean_total:.6g}, "
                  f"wins {wins}/{args.seeds} ({100.0 * win_rate:.1f}%)")
    print(f"wrote {out_dir / 'kpi_seeds.csv'} and {out_dir / 'kpi_aggregate.csv'}")
    return 0


# --------------------------------------------------------------------------
# Parser and entry point
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A usage error is a config error (exit 3, one line), not argparse's exit 2."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="hocs",
        description="Solve, simulate, and verify scalar power-cost control problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help_text: str):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(handler=handler)
        return cmd

    config_paths = f"Monte-Carlo paths (default: config n_paths, {RunSettings.n_paths})"
    config_seed = f"master seed (default: config master_seed, {RunSettings.master_seed})"

    def add_run_flags(cmd, paths_help: str, seed_help: str):
        cmd.add_argument("--paths", type=int, default=None, help=paths_help)
        cmd.add_argument("--seed", type=int, default=None, help=f"{seed_help}; HOCS_SEED overrides")

    cmd = command("validate", cmd_validate, "print the validity report for a config")
    cmd.add_argument("--config", required=True, help="config JSON path")

    cmd = command("solve", cmd_solve, "write the coefficient/gain schedule CSV")
    cmd.add_argument("--config", required=True, help="config JSON path")
    cmd.add_argument("--out", default=None, help="output CSV path (default <out_dir>/schedule.csv)")

    cmd = command("simulate", cmd_simulate, "simulate the closed loop and write CSVs")
    cmd.add_argument("--config", required=True, help="config JSON path")
    cmd.add_argument("--out", default=None, help="output directory (default: config out_dir)")
    add_run_flags(cmd, config_paths, config_seed)

    cmd = command("verify", cmd_verify, "run the class-appropriate oracle checks")
    cmd.add_argument("--config", required=True, help="config JSON path")
    add_run_flags(cmd, config_paths, config_seed)

    cmd = command("example", cmd_example, "write the data bundle for a built-in example")
    cmd.add_argument("--id", type=int, required=True, help="example id, 1..4")
    cmd.add_argument("--out", default=None, help="output directory (default .)")
    add_run_flags(cmd, config_paths, config_seed)

    cmd = command("kpi", cmd_kpi, "run the three-controller comparison study")
    cmd.add_argument("--seeds", type=int, default=100, help="number of master seeds (default 100)")
    cmd.add_argument("--out", default=None, help="output directory (default .)")
    add_run_flags(cmd, "paths per case per seed (default 1: one realized experiment)",
                  f"base master seed (default {RunSettings.master_seed})")

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _check_flags(args)
        # A path, cost or KPI past the float range is an output (inf or nan), not a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"memory error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (NonPositiveCoefficient, NonFiniteCoefficient) as exc:
        print(f"recursion failure: {exc}", file=sys.stderr)
        return 2
    except (MissingMoment, NotConverged) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
