"""Config ingestion, canonical rendering, and the built-in example presets.

A run is described by one JSON document with two top-level maps::

    {
      "problem": {
        "class": "additive",                  # deterministic | additive |
                                              # mult_state | higher_moment
        "horizon": {"n_steps": 10},
        "mean_dynamics": {"a_bar": 2.0, "b_bar": 3.0},
        "deviation_dynamics": {"a": 0.5, "b": 0.5},      # optional; defaults
                                                         # to the mean pair
        "cost": {"p": 1, "o": 1,
                 "q_bar": 2.0, "q_bar_terminal": 2.0, "r_bar": 3.0,
                 "q": 4.0, "q_terminal": 4.0, "r": 5.0},
        "noise": {"kind": "gaussian", "sigma": 1.0},     # absent for the
                                                         # deterministic class
        "initial": {"mean": 20.25, "law": {"kind": "dirac"}}
      },
      "run": {"n_paths": 100000, "master_seed": 42, "oracle_tol": 1e-06,
              "out_dir": "."}
    }

Per-step values (dynamics coefficients and running weights) accept either a
scalar, broadcast over the horizon, or a list of length n_steps. The noise is
just the per-step law of eps: the class says how it enters. Distribution
kinds are dirac, gaussian, rademacher, uniform_symmetric, empirical, and
moments; a noise gaussian takes "sigma" while an initial-law gaussian takes
"variance" (the spread of x0 is naturally a variance). Empirical samples are
offsets that get centered automatically, with the subtracted mean kept in
"shift". A moments law lists even moments by order, e.g. {"kind": "moments",
"values": {"2": 1.0}}; it prices but cannot be sampled.

Unknown keys are rejected everywhere. Rendering emits a canonical full form
(every field present but an absent noise law, sequences as length-N lists,
shortest float repr), so parse(render(config)) reproduces the config exactly
and the rendered presets can be pinned by checksum.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

from .model import (
    Dirac,
    Distribution,
    Empirical,
    Gaussian,
    GaussianVariance,
    HocsError,
    InitialLaw,
    Moments,
    ProblemClass,
    ProblemSpec,
    Rademacher,
    UniformSymmetric,
    build_problem,
)

__all__ = [
    "ConfigError",
    "RunSettings",
    "RunConfig",
    "parse_config",
    "load_config",
    "render_config",
    "example_config",
    "EXAMPLE_IDS",
    "EXAMPLE_POWERS",
]


class ConfigError(HocsError, ValueError):
    """The config document is unreadable or violates the schema."""


@dataclass(frozen=True)
class RunSettings:
    """Execution knobs that are not part of the problem itself."""

    n_paths: int = 100_000
    master_seed: int = 42
    oracle_tol: float = 1e-6
    out_dir: str = "."

    def __post_init__(self) -> None:
        if not isinstance(self.n_paths, int) or isinstance(self.n_paths, bool) or self.n_paths < 1:
            raise ConfigError(f"run.n_paths must be an integer >= 1, got {self.n_paths!r}")
        if (not isinstance(self.master_seed, int) or isinstance(self.master_seed, bool)
                or self.master_seed < 0):
            raise ConfigError(f"run.master_seed must be an integer >= 0, got {self.master_seed!r}")
        object.__setattr__(self, "oracle_tol", _number(self.oracle_tol, "run.oracle_tol"))
        if not self.oracle_tol > 0:
            raise ConfigError(f"run.oracle_tol must be > 0, got {self.oracle_tol!r}")
        if not isinstance(self.out_dir, str):
            raise ConfigError("run.out_dir must be a string")


@dataclass(frozen=True)
class RunConfig:
    """One problem plus the run settings to execute it with."""

    problem: ProblemSpec
    run: RunSettings


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------

def _require_map(node: Any, context: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{context} must be a map, got {type(node).__name__}")
    return node


def _check_keys(node: dict, allowed: set[str], context: str) -> None:
    unknown = set(node) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {context}")


def _number(node: Any, context: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(f"{context} must be a number, got {node!r}")
    return float(node)


def _integer(node: Any, context: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise ConfigError(f"{context} must be an integer, got {node!r}")
    return node


def _scalar_or_list(node: Any, context: str):
    if isinstance(node, list):
        return [_number(v, f"{context}[{i}]") for i, v in enumerate(node)]
    return _number(node, context)


def _parse_distribution(node: Any, context: str, *, initial_law: bool) -> Distribution:
    node = _require_map(node, context)
    kind = node.get("kind")
    try:
        if kind == "dirac":
            _check_keys(node, {"kind"}, context)
            return Dirac()
        if kind == "gaussian":
            if initial_law:
                _check_keys(node, {"kind", "variance"}, context)
                return GaussianVariance(variance=_number(node["variance"], f"{context}.variance"))
            _check_keys(node, {"kind", "sigma"}, context)
            return Gaussian(sigma=_number(node["sigma"], f"{context}.sigma"))
        if kind == "rademacher":
            _check_keys(node, {"kind", "scale"}, context)
            return Rademacher(scale=_number(node.get("scale", 1.0), f"{context}.scale"))
        if kind == "uniform_symmetric":
            _check_keys(node, {"kind", "halfwidth"}, context)
            return UniformSymmetric(halfwidth=_number(node["halfwidth"], f"{context}.halfwidth"))
        if kind == "empirical":
            _check_keys(node, {"kind", "samples", "shift"}, context)
            samples = node.get("samples")
            if not isinstance(samples, list) or not samples:
                raise ConfigError(f"{context}.samples must be a non-empty list")
            return Empirical(
                samples=tuple(_number(v, f"{context}.samples[{i}]") for i, v in enumerate(samples)),
                shift=_number(node.get("shift", 0.0), f"{context}.shift"),
            )
        if kind == "moments":
            _check_keys(node, {"kind", "values"}, context)
            values = _require_map(node["values"], f"{context}.values")
            return Moments({int(order): _number(value, f"{context}.values[{order}]")
                            for order, value in values.items()})
    except KeyError as exc:
        raise ConfigError(f"{context} is missing required key {exc.args[0]!r}") from None
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from None
    raise ConfigError(f"{context}.kind must be one of dirac, gaussian, rademacher, "
                      f"uniform_symmetric, empirical, moments; got {kind!r}")


def _parse_problem(node: Any) -> ProblemSpec:
    node = _require_map(node, "problem")
    _check_keys(node, {"class", "horizon", "mean_dynamics", "deviation_dynamics",
                       "cost", "noise", "initial"}, "problem")
    for key in ("class", "horizon", "mean_dynamics", "cost", "initial"):
        if key not in node:
            raise ConfigError(f"problem is missing required key {key!r}")

    class_name = node["class"]
    try:
        klass = ProblemClass(class_name)
    except ValueError:
        valid = ", ".join(c.value for c in ProblemClass)
        raise ConfigError(f"problem.class must be one of {valid}; got {class_name!r}") from None

    horizon = _require_map(node["horizon"], "problem.horizon")
    _check_keys(horizon, {"n_steps"}, "problem.horizon")
    n_steps = _integer(horizon.get("n_steps"), "problem.horizon.n_steps")

    mean_dyn = _require_map(node["mean_dynamics"], "problem.mean_dynamics")
    _check_keys(mean_dyn, {"a_bar", "b_bar", "allow_uncontrollable"}, "problem.mean_dynamics")
    allow_uncontrollable = mean_dyn.get("allow_uncontrollable", False)
    if not isinstance(allow_uncontrollable, bool):
        raise ConfigError("problem.mean_dynamics.allow_uncontrollable must be a boolean")

    dev_a = dev_b = None
    if "deviation_dynamics" in node:
        dev = _require_map(node["deviation_dynamics"], "problem.deviation_dynamics")
        _check_keys(dev, {"a", "b"}, "problem.deviation_dynamics")
        dev_a = _scalar_or_list(dev.get("a"), "problem.deviation_dynamics.a")
        dev_b = _scalar_or_list(dev.get("b"), "problem.deviation_dynamics.b")

    cost = _require_map(node["cost"], "problem.cost")
    _check_keys(cost, {"p", "o", "q", "q_terminal", "q_bar", "q_bar_terminal", "r", "r_bar"},
                "problem.cost")
    for key in ("p", "q_bar", "q_bar_terminal", "r_bar"):
        if key not in cost:
            raise ConfigError(f"problem.cost is missing required key {key!r}")

    initial = _require_map(node["initial"], "problem.initial")
    _check_keys(initial, {"mean", "law"}, "problem.initial")
    law = Dirac()
    if "law" in initial:
        law = _parse_distribution(initial["law"], "problem.initial.law", initial_law=True)
    try:
        initial_law = InitialLaw(mean=_number(initial.get("mean"), "problem.initial.mean"), law=law)
    except ValueError as exc:
        raise ConfigError(f"problem.initial: {exc}") from None

    noise = (_parse_distribution(node["noise"], "problem.noise", initial_law=False)
             if "noise" in node else None)

    try:
        return build_problem(
            problem_class=klass,
            n_steps=n_steps,
            a_bar=_scalar_or_list(mean_dyn.get("a_bar"), "problem.mean_dynamics.a_bar"),
            b_bar=_scalar_or_list(mean_dyn.get("b_bar"), "problem.mean_dynamics.b_bar"),
            q_bar=_scalar_or_list(cost["q_bar"], "problem.cost.q_bar"),
            q_bar_terminal=_number(cost["q_bar_terminal"], "problem.cost.q_bar_terminal"),
            r_bar=_scalar_or_list(cost["r_bar"], "problem.cost.r_bar"),
            p=_integer(cost["p"], "problem.cost.p"),
            a=dev_a,
            b=dev_b,
            q=_scalar_or_list(cost.get("q", 0.0), "problem.cost.q"),
            q_terminal=_number(cost.get("q_terminal", 0.0), "problem.cost.q_terminal"),
            r=_scalar_or_list(cost.get("r", 0.0), "problem.cost.r"),
            o=_integer(cost.get("o", 1), "problem.cost.o"),
            noise=noise,
            initial=initial_law,
            allow_uncontrollable=allow_uncontrollable,
        )
    except ValueError as exc:
        raise ConfigError(f"problem: {exc}") from None


def parse_config(text: str) -> RunConfig:
    """Parse a JSON config document into a RunConfig.

    Raises:
        ConfigError: On invalid JSON, schema violations, or values the
            domain types reject.
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from None
    document = _require_map(document, "config")
    _check_keys(document, {"problem", "run"}, "config")
    if "problem" not in document:
        raise ConfigError("config is missing required key 'problem'")
    problem = _parse_problem(document["problem"])
    node = _require_map(document.get("run", {}), "run")
    _check_keys(node, {"n_paths", "master_seed", "oracle_tol", "out_dir"}, "run")
    return RunConfig(problem=problem, run=RunSettings(**node))


def load_config(path) -> RunConfig:
    """Read and parse a config file; unreadable files raise ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------

def _render_distribution(dist: Distribution) -> dict:
    if isinstance(dist, Dirac):
        return {"kind": "dirac"}
    if isinstance(dist, Gaussian):
        return {"kind": "gaussian", "sigma": dist.sigma}
    if isinstance(dist, GaussianVariance):
        return {"kind": "gaussian", "variance": dist.variance}
    if isinstance(dist, Rademacher):
        return {"kind": "rademacher", "scale": dist.scale}
    if isinstance(dist, UniformSymmetric):
        return {"kind": "uniform_symmetric", "halfwidth": dist.halfwidth}
    if isinstance(dist, Empirical):
        return {"kind": "empirical", "samples": list(dist.samples), "shift": dist.shift}
    if isinstance(dist, Moments):
        return {"kind": "moments", "values": {str(order): value for order, value in dist.values}}
    raise ConfigError(f"cannot render distribution {dist!r}")


def config_to_dict(config: RunConfig) -> dict:
    """Canonical full-form dictionary of a config (JSON-ready)."""
    spec, run = config.problem, config.run
    noise = {} if spec.noise is None else {"noise": _render_distribution(spec.noise)}
    return {
        "problem": {
            "class": spec.problem_class.value,
            "horizon": {"n_steps": spec.n_steps},
            "mean_dynamics": {
                "a_bar": list(spec.a_bar),
                "b_bar": list(spec.b_bar),
                "allow_uncontrollable": spec.allow_uncontrollable,
            },
            "deviation_dynamics": {"a": list(spec.a), "b": list(spec.b)},
            "cost": {
                "p": spec.p,
                "o": spec.o,
                "q_bar": list(spec.q_bar),
                "q_bar_terminal": spec.q_bar_terminal,
                "r_bar": list(spec.r_bar),
                "q": list(spec.q),
                "q_terminal": spec.q_terminal,
                "r": list(spec.r),
            },
            **noise,
            "initial": {
                "mean": spec.initial.mean,
                "law": _render_distribution(spec.initial.law),
            },
        },
        "run": {
            "n_paths": run.n_paths,
            "master_seed": run.master_seed,
            "oracle_tol": run.oracle_tol,
            "out_dir": run.out_dir,
        },
    }


def render_config(config: RunConfig) -> str:
    """Serialize a config to canonical JSON text (stable across runs)."""
    return json.dumps(config_to_dict(config), indent=2) + "\n"


# --------------------------------------------------------------------------
# Built-in example presets
# --------------------------------------------------------------------------

EXAMPLE_IDS = (1, 2, 3, 4)
EXAMPLE_POWERS = (1, 2, 3)


def example_config(example_id: int, p: int) -> RunConfig:
    """Built-in problem presets used by the example and KPI commands.

    1: deterministic, N=6, a_bar=1, b_bar=2, q_bar=q_bar_N=3, r_bar=4,
       xbar0=10.
    2: additive unit-variance Gaussian noise, N=10, a_bar=2, b_bar=3,
       q_bar=q_bar_N=2, r_bar=3, q=q_N=4, r=5, x0 = xbar0 = 20.25.
    3: multiplicative-state unit-variance Gaussian noise, N=10, a_bar=7,
       b_bar=6, q_bar=q_bar_N=4, r_bar=3, q=q_N=2, r=1, xbar0=15.3 with the
       two-point offset law {-0.3, +0.3} (so x0 is 15.0 or 15.6).
    4: higher-moment mean-field noise, N=10, a_bar=b_bar=1, a=b=1/2, all
       weights 1, xbar0=20.01 with offsets {-0.01, +0.01}, and o = p. Only
       the unit noise variance is essential here; Gaussian is our pick of
       family and stays configurable.

    Args:
        example_id: One of 1..4.
        p: Mean-cost half-power; the example command sweeps p in {1,2,3}.
    """
    if example_id == 1:
        problem = build_problem(
            ProblemClass.DETERMINISTIC, 6,
            a_bar=1.0, b_bar=2.0, q_bar=3.0, q_bar_terminal=3.0, r_bar=4.0, p=p,
            initial=InitialLaw(mean=10.0),
        )
    elif example_id == 2:
        problem = build_problem(
            ProblemClass.ADDITIVE, 10,
            a_bar=2.0, b_bar=3.0, q_bar=2.0, q_bar_terminal=2.0, r_bar=3.0, p=p,
            q=4.0, q_terminal=4.0, r=5.0,
            noise=Gaussian(sigma=1.0),
            initial=InitialLaw(mean=20.25),
        )
    elif example_id == 3:
        problem = build_problem(
            ProblemClass.MULT_STATE, 10,
            a_bar=7.0, b_bar=6.0, q_bar=4.0, q_bar_terminal=4.0, r_bar=3.0, p=p,
            q=2.0, q_terminal=2.0, r=1.0,
            noise=Gaussian(sigma=1.0),
            initial=InitialLaw(mean=15.3, law=Empirical(samples=(-0.3, 0.3))),
        )
    elif example_id == 4:
        problem = build_problem(
            ProblemClass.HIGHER_MOMENT, 10,
            a_bar=1.0, b_bar=1.0, q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=p,
            a=0.5, b=0.5, q=1.0, q_terminal=1.0, r=1.0, o=p,
            noise=Gaussian(sigma=1.0),
            initial=InitialLaw(mean=20.01, law=Empirical(samples=(-0.01, 0.01))),
        )
    else:
        raise ConfigError(f"example id must be one of {EXAMPLE_IDS}, got {example_id}")
    return RunConfig(problem=problem, run=RunSettings())
