"""Command-line front end: validate, solve, simulate, verify, example, kpi.

Exit codes are part of the contract: 0 success, 1 a validity check failed,
2 a recursion or verification failure (bad denominator, non-positive or
non-finite coefficient, missing moment, oracle disagreement), 3 an
unreadable config, an out-of-range flag or an I/O problem. The environment
variable HOCS_SEED overrides --seed when set.

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
from pathlib import Path

from .config import (
    ConfigError,
    RunConfig,
    RunSettings,
    example_config,
    load_config,
    render_config,
    EXAMPLE_IDS,
    EXAMPLE_POWERS,
)
from .control import BaselineKind, BaselinePolicy, FeedbackPolicy
from .model import (
    DenominatorNotPositive,
    MissingMoment,
    NonFiniteCoefficient,
    NonPositiveCoefficient,
    NotConverged,
    ProblemClass,
    ProblemSpec,
    validate,
)
from .oracle import brute_force_deterministic, local_optimality_probe, mc_validate
from .recursion import CoefficientSchedule, GainSchedule, solve
from .simulate import (
    _common_draws,
    central_moment,
    kpi,
    predicted_cost,
    realized_cost,
    simulate_ensemble,
)

__all__ = ["main", "read_schedule_csv", "run_kpi_study", "PROBE_GRID"]

#: Gain-scaling grid used by the verify subcommand's optimality probe.
PROBE_GRID = (0.5, 0.9, 1.0, 1.1, 2.0)

_SCHEDULE_HEADER = ("k", "alpha_bar", "alpha", "gamma_bar", "k_mean", "k_dev")


# --------------------------------------------------------------------------
# CSV plumbing
# --------------------------------------------------------------------------

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(value).lower()
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


def _schedule_rows(schedule: CoefficientSchedule, gains: GainSchedule):
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


def read_schedule_csv(path, problem_class: ProblemClass, p: int, o: int):
    """Re-read a solve CSV into the exact in-memory schedules.

    The class tag and powers are not stored in the CSV (they belong to the
    config), so the caller supplies them.

    Returns:
        The (CoefficientSchedule, GainSchedule) pair the CSV was written from.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        lines = [line.rstrip("\n") for line in handle if line.strip()]
    if not lines:
        raise ValueError(f"schedule file {path} is empty")
    header = tuple(lines[0].split(","))
    if header != _SCHEDULE_HEADER:
        raise ValueError(f"unexpected schedule header {header}")
    columns: dict[str, list] = {name: [] for name in _SCHEDULE_HEADER}
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(_SCHEDULE_HEADER):
            raise ValueError(f"malformed schedule row {line!r}")
        for name, cell in zip(_SCHEDULE_HEADER, cells):
            columns[name].append(float(cell) if cell else None)

    def dense(name: str):
        values = columns[name]
        return None if all(v is None for v in values) else tuple(values)

    n = len(columns["k"]) - 1
    schedule = CoefficientSchedule(
        problem_class=problem_class,
        p=p,
        o=o,
        alpha_bar=tuple(columns["alpha_bar"]),
        alpha=dense("alpha"),
        gamma_bar=dense("gamma_bar"),
    )
    k_dev = dense("k_dev")
    gains = GainSchedule(
        k_mean=tuple(columns["k_mean"][:n]),
        k_dev=k_dev[:n] if k_dev is not None else None,
    )
    return schedule, gains


# --------------------------------------------------------------------------
# Shared command helpers
# --------------------------------------------------------------------------

def _check_flags(args) -> None:
    """Reject out-of-range counts and seeds before any command runs.

    For commands that take --seed, a set HOCS_SEED replaces the flag here.
    """
    env = os.environ.get("HOCS_SEED")
    if env is not None and hasattr(args, "seed"):
        try:
            args.seed = int(env)
        except ValueError:
            raise ConfigError(f"HOCS_SEED must be an integer, got {env!r}") from None
        if args.seed < 0:
            raise ConfigError(f"HOCS_SEED must be >= 0, got {args.seed}")
    for flag, minimum in (("seed", 0), ("paths", 1), ("sample_paths", 0), ("seeds", 1)):
        value = getattr(args, flag, None)
        if value is not None and value < minimum:
            raise ConfigError(f"--{flag.replace('_', '-')} must be >= {minimum}, got {value}")


def _effective_seed(args, run: RunSettings) -> int:
    return args.seed if args.seed is not None else run.master_seed


def _effective_paths(args, run: RunSettings) -> int:
    return args.paths if getattr(args, "paths", None) is not None else run.n_paths


def _validate_or_print(spec: ProblemSpec) -> bool:
    report = validate(spec)
    if not report.ok:
        for check in report.failures:
            print(f"invalid: {check.name} ({check.detail})", file=sys.stderr)
    return report.ok


def _simulation_bundle(
    spec: ProblemSpec,
    schedule: CoefficientSchedule,
    gains: GainSchedule,
    out_dir: Path,
    n_paths: int,
    seed: int,
    mean_mode: str,
    sample_cap: int,
) -> None:
    """Write mean_path/paths/moments/kpi/cost CSVs for one solved problem."""
    ensemble = simulate_ensemble(spec, FeedbackPolicy(gains), n_paths, seed, mean_mode=mean_mode)
    report = realized_cost(spec, ensemble, schedule)
    n = ensemble.n_steps

    _write_csv(
        out_dir / "mean_path.csv",
        ("k", "x_bar", "u_bar"),
        ((k, ensemble.mean_path[k], ensemble.mean_controls[k] if k < n else None)
         for k in range(n + 1)),
    )
    shown = min(sample_cap, ensemble.n_paths)
    _write_csv(
        out_dir / "paths.csv",
        ("k", *(f"path{j}" for j in range(shown))),
        ((k, *ensemble.states[:shown, k]) for k in range(n + 1)),
    )
    orders = sorted({2, 2 * spec.cost.o})
    moments = [central_moment(ensemble, order) for order in orders]
    _write_csv(
        out_dir / "moments.csv",
        ("k", *(f"central_{order}" for order in orders)),
        ((k, *(column[k] for column in moments)) for k in range(n + 1)),
    )
    kpi_rows = []
    for zeta in (1, 2, 3):
        kpi_x, kpi_u = kpi(ensemble, zeta)
        kpi_rows.append((zeta, kpi_x, kpi_u, kpi_x + kpi_u))
    _write_csv(out_dir / "kpi.csv", ("zeta", "kpi_x", "kpi_u", "total"), kpi_rows)
    _write_csv(
        out_dir / "cost.csv",
        ("quantity", "value"),
        [
            ("realized_mean", report.realized_mean),
            ("realized_stderr", report.realized_stderr),
            ("predicted", report.predicted),
            *sorted(report.breakdown.items()),
            ("n_paths", report.n_paths),
        ],
    )
    print(f"realized cost {report.realized_mean:.6g} "
          f"(stderr {report.realized_stderr:.3g}), predicted {report.predicted:.6g}")


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
    schedule, gains = solve(
        config.problem, literal_recursion=config.run.literal_recursion
    )
    price = predicted_cost(schedule, config.problem.initial)
    out = Path(args.out) if args.out else Path(config.run.out_dir) / "schedule.csv"
    _write_csv(out, _SCHEDULE_HEADER, _schedule_rows(schedule, gains))
    print(f"predicted cost: {price:.17g}")
    print(f"wrote {out}")
    return 0


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    spec, run = config.problem, config.run
    if not _validate_or_print(spec):
        return 1
    schedule, gains = solve(spec, literal_recursion=run.literal_recursion)
    out_dir = Path(args.out) if args.out else Path(run.out_dir)
    _simulation_bundle(
        spec, schedule, gains, out_dir,
        n_paths=_effective_paths(args, run),
        seed=_effective_seed(args, run),
        mean_mode=run.mean_mode,
        sample_cap=args.sample_paths,
    )
    print(f"wrote {out_dir}")
    return 0


def cmd_verify(args) -> int:
    config = load_config(args.config)
    spec, run = config.problem, config.run
    if not _validate_or_print(spec):
        return 1
    if spec.problem_class is ProblemClass.DETERMINISTIC:
        # The oracle solves for its own closed form; with no deviation
        # channel, run.literal_recursion cannot change it.
        report = brute_force_deterministic(spec)
        print(f"closed-form cost     : {report.closed_form_cost:.12g}")
        print(f"oracle cost          : {report.oracle_cost:.12g} "
              f"({report.iterations} iterations)")
        print(f"relative gap         : {report.relative_gap:.3e}")
        print(f"control sup-norm gap : {report.control_max_abs_diff:.3e}")
        tol = args.tol if args.tol is not None else run.oracle_tol
        ok = report.relative_gap <= tol and not report.discrepant
        print(f"verify: {'ok' if ok else 'FAILED'}")
        return 0 if ok else 2

    schedule, gains = solve(spec, literal_recursion=run.literal_recursion)
    if run.mean_mode != "exact":
        print(f"note: verify ignores run.mean_mode {run.mean_mode!r} and simulates "
              "in exact mean mode", file=sys.stderr)
    n_paths = _effective_paths(args, run)
    seed = _effective_seed(args, run)
    with _common_draws():
        report = mc_validate(spec, schedule, gains, n_paths, seed)
        probe = local_optimality_probe(spec, schedule, gains, PROBE_GRID, n_paths, seed)
    print(f"predicted cost       : {report.closed_form_cost:.12g}")
    print(f"monte-carlo cost     : {report.oracle_cost:.12g} "
          f"+/- {report.stderr:.3g} ({n_paths} paths)")
    print(f"total gap            : {abs(report.closed_form_cost - report.oracle_cost):.3g}")
    print(f"prediction agreement : {'ok' if report.converged else 'DISCREPANT'}")
    print(f"probe minimum at 1.0 : {'yes' if probe.min_at_unit else 'NO'}")
    ok = report.converged and not report.discrepant and probe.min_at_unit
    print(f"verify: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 2


def cmd_example(args) -> int:
    if args.id not in EXAMPLE_IDS:
        raise ConfigError(f"--id must be one of {EXAMPLE_IDS}, got {args.id}")
    base_out = Path(args.out) if args.out else Path(".")
    for p in EXAMPLE_POWERS:
        config = example_config(args.id, p)
        spec, run = config.problem, config.run
        out_dir = base_out / f"example{args.id}" / f"p{p}"
        schedule, gains = solve(spec)
        _write_text_atomic(out_dir / "config.json", render_config(config))
        _write_csv(out_dir / "schedule.csv", _SCHEDULE_HEADER, _schedule_rows(schedule, gains))
        _simulation_bundle(
            spec, schedule, gains, out_dir,
            n_paths=_effective_paths(args, run),
            seed=_effective_seed(args, run),
            mean_mode=run.mean_mode,
            sample_cap=args.sample_paths,
        )
        print(f"wrote {out_dir}")
    return 0


def run_kpi_study(
    n_seeds: int,
    base_seed: int = 42,
    n_paths: int = 1,
    zetas: tuple[int, ...] = (1, 2, 3),
):
    """Compare the two reference controllers against the solved one.

    The arena is the built-in example-4 problem with o = p = 3. Case 1 is the
    sign controller, Case 2 the linear-feedback controller, Case 3 the solved
    risk-aware feedback. Each master seed (base_seed + i) is one experiment:
    all three cases roll out on one shared draw of initial states and noise
    (common random numbers, drawn once per seed and dropped before the next),
    and the per-case performance indices are computed per seed for each
    zeta. One path per case per seed by default, so a seed is a single
    realized experiment rather than an expectation.

    Returns:
        (rows, aggregate): rows of (seed, zeta, case, kpi_x, kpi_u, total),
        and aggregate rows of (zeta, case, mean_kpi_x, mean_kpi_u,
        mean_total, wins, win_rate) where a win is a strict minimum of the
        total over the three cases at that seed.
    """
    config = example_config(4, 3)
    spec = config.problem
    _, gains = solve(spec)
    policies = {
        1: BaselinePolicy(BaselineKind.SIGN_CONTROLLER),
        2: BaselinePolicy(BaselineKind.LINEAR_FEEDBACK),
        3: FeedbackPolicy(gains),
    }
    cases = tuple(policies)
    rows = []
    wins = {(zeta, case): 0 for zeta in zetas for case in cases}
    for i in range(n_seeds):
        seed = base_seed + i
        with _common_draws():
            ensembles = {
                case: simulate_ensemble(spec, policy, n_paths, seed)
                for case, policy in policies.items()
            }
        for zeta in zetas:
            totals = {}
            for case in cases:
                kpi_x, kpi_u = kpi(ensembles[case], zeta)
                totals[case] = kpi_x + kpi_u
                rows.append((seed, zeta, case, kpi_x, kpi_u, totals[case]))
            best = min(totals.values())
            winners = [case for case in cases if totals[case] == best]
            if len(winners) == 1:
                wins[(zeta, winners[0])] += 1
    aggregate = []
    for zeta in zetas:
        for case in cases:
            # Summed in seed order, as the rows were written.
            columns = zip(*(row[3:] for row in rows if row[1:3] == (zeta, case)))
            means = (sum(column) / n_seeds for column in columns)
            aggregate.append((zeta, case, *means, wins[(zeta, case)], wins[(zeta, case)] / n_seeds))
    return rows, aggregate


def cmd_kpi(args) -> int:
    base_seed = _effective_seed(args, RunSettings())
    n_paths = args.paths if args.paths is not None else 1
    rows, aggregate = run_kpi_study(args.seeds, base_seed=base_seed, n_paths=n_paths)
    out_dir = Path(args.out) if args.out else Path(".")
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

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="hocs",
        description="Solve, simulate, and verify scalar power-cost control problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help_text: str):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(handler=handler)
        return cmd

    def add_run_flags(cmd, *, sample_cap: bool = False):
        cmd.add_argument("--paths", type=int, default=None,
                         help="Monte-Carlo paths (default: config n_paths, 100000)")
        cmd.add_argument("--seed", type=int, default=None,
                         help="master seed (default: config master_seed, 42); "
                              "HOCS_SEED overrides")
        if sample_cap:
            cmd.add_argument("--sample-paths", type=int, default=20,
                             help="paths written to paths.csv (default 20)")

    cmd = command("validate", cmd_validate, "print the validity report for a config")
    cmd.add_argument("--config", required=True, help="config JSON path")

    cmd = command("solve", cmd_solve, "write the coefficient/gain schedule CSV")
    cmd.add_argument("--config", required=True, help="config JSON path")
    cmd.add_argument("--out", default=None, help="output CSV path (default <out_dir>/schedule.csv)")

    cmd = command("simulate", cmd_simulate, "simulate the closed loop and write CSVs")
    cmd.add_argument("--config", required=True, help="config JSON path")
    cmd.add_argument("--out", default=None, help="output directory (default: config out_dir)")
    add_run_flags(cmd, sample_cap=True)

    cmd = command("verify", cmd_verify, "run the class-appropriate oracle checks")
    cmd.add_argument("--config", required=True, help="config JSON path")
    cmd.add_argument("--tol", type=float, default=None,
                     help="relative tolerance for the deterministic oracle (default 1e-6)")
    add_run_flags(cmd)

    cmd = command("example", cmd_example, "write the data bundle for a built-in example")
    cmd.add_argument("--id", type=int, required=True, help="example id, 1..4")
    cmd.add_argument("--out", default=None, help="output directory (default .)")
    add_run_flags(cmd, sample_cap=True)

    cmd = command("kpi", cmd_kpi, "run the three-controller comparison study")
    cmd.add_argument("--seeds", type=int, default=100, help="number of master seeds (default 100)")
    cmd.add_argument("--out", default=None, help="output directory (default .)")
    cmd.add_argument("--paths", type=int, default=None,
                     help="paths per case per seed (default 1: one realized experiment)")
    cmd.add_argument("--seed", type=int, default=None,
                     help="base master seed (default 42); HOCS_SEED overrides")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (DenominatorNotPositive, NonPositiveCoefficient, NonFiniteCoefficient) as exc:
        print(f"recursion failure: {exc}", file=sys.stderr)
        return 2
    except (MissingMoment, NotConverged) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
