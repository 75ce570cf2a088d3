"""Config ingestion, canonical rendering, and the built-in example presets.

A run is described by one JSON document with two top-level maps::

    {
      "problem": {
        "class": "additive",                  # deterministic | additive |
                                              # mult_state | higher_moment
        "horizon": {"n_steps": 10},
        "mean_dynamics": {"a_bar": 2.0, "b_bar": 3.0},
        "deviation_dynamics": {"a": 0.5, "b": 0.5},      # optional
        "cost": {"p": 1, "o": 1,
                 "q_bar": 2.0, "q_bar_terminal": 2.0, "r_bar": 3.0,
                 "q": 4.0, "q_terminal": 4.0, "r": 5.0},
        "noise": {"kind": "gaussian", "sigma": 1.0},     # none if deterministic
        "initial": {"mean": 20.25, "law": {"kind": "dirac"}}
      },
      "run": {"n_paths": 100000, "master_seed": 42, "out_dir": "."}
    }

Per-step values (dynamics coefficients and running weights) accept either a
scalar, broadcast over the horizon, or a list of length n_steps. The noise is
just the per-step law of eps: the class says how it enters. Distribution
kinds are dirac, gaussian, rademacher, uniform_symmetric, empirical, and
moments; a noise gaussian takes "sigma" while an initial-law gaussian takes
"variance" (the spread of x0 is naturally a variance). Empirical samples are
offsets that get centered automatically, with the subtracted mean kept in
"shift". A moments law lists even moments by order, e.g. {"kind": "moments",
"values": {"2": 1.0}}; it prices but cannot be sampled, and two keys that
name the same order (say "10" and "1_0") are an error.

The config reads no number, integer or bool itself: it hands each value, as
JSON gave it, to the domain model's input gate for that field and puts the
record's path in front of the gate's message, e.g. "problem.noise: sigma must
be a number, got '1'" or "run: n_paths must be an integer >= 1, got 0"; run is
read like every other record. It only turns moments keys into int orders.

Unknown keys are rejected everywhere, and so is a missing key without a
default. The defaults: deviation_dynamics copies the mean pair, noise is no
law, allow_uncontrollable is false, o is 1, q, q_terminal and r are 0,
initial.law is dirac, a rademacher "scale" is 1, an empirical "shift" is 0,
and run and its keys are as shown above. Rendering emits a canonical full
form (every field present but an absent noise law, sequences as length-N
lists, shortest float repr), so parse(render(config)) reproduces the config
exactly and the rendered presets can be pinned by checksum.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
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
    _instance,
    _integer,
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
    out_dir: str = "."

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_paths", _integer(self.n_paths, "n_paths", 1))
        object.__setattr__(self, "master_seed", _integer(self.master_seed, "master_seed", 0))
        _instance(self.out_dir, "out_dir", str)


@dataclass(frozen=True)
class RunConfig:
    """One problem plus the run settings to execute it with."""

    problem: ProblemSpec
    run: RunSettings


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------

#: The problem keys that may be left out; ProblemSpec supplies their defaults.
_OPTIONAL = frozenset({"deviation_dynamics", "noise", "allow_uncontrollable",
                       "o", "q", "q_terminal", "r"})


def _require_map(node: Any, context: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{context} must be a map, got {type(node).__name__}")
    return node


def _check_keys(node: dict, keys, context: str, optional=_OPTIONAL) -> None:
    """Reject keys outside ``keys``, then any of ``keys`` absent but not optional."""
    unknown = set(node) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {context}")
    missing = [key for key in keys if key not in node and key not in optional]
    if missing:
        raise ConfigError(f"{context} is missing required key {missing[0]!r}")


def _orders(node: Any, context: str) -> dict:
    """A moments law's values keyed by int order; JSON keys are text. Moments gates the values."""
    node = _require_map(node, context)
    orders = {int(order): value for order, value in node.items()}
    if len(orders) < len(node):
        raise ConfigError(f"{context} names one moment order twice among {sorted(node)}")
    return orders


#: The problem's blocks: block -> keys, in rendering order. Each key is the
#: ProblemSpec field it holds, so the parsed values go to ProblemSpec as they are.
_LAYOUT = {
    "horizon": ("n_steps",),
    "mean_dynamics": ("a_bar", "b_bar", "allow_uncontrollable"),
    "deviation_dynamics": ("a", "b"),
    "cost": ("p", "o", "q_bar", "q_bar_terminal", "r_bar", "q", "q_terminal", "r"),
}

#: Law kind -> Distribution class; a law's keys are the fields of its class.
#: An initial-law "gaussian" is GaussianVariance, read by its variance.
_LAWS = {"dirac": Dirac, "gaussian": Gaussian, "rademacher": Rademacher,
         "uniform_symmetric": UniformSymmetric, "empirical": Empirical, "moments": Moments}
_KINDS = {cls: kind for kind, cls in _LAWS.items()} | {GaussianVariance: "gaussian"}


def _read_record(cls, node: Any, context: str):
    """Build the dataclass ``cls`` from one key per field; fields with a default may be left out."""
    node = _require_map(node, context)
    names = [f.name for f in fields(cls)]
    _check_keys(node, names, context, {f.name for f in fields(cls) if f.default is not MISSING})
    try:
        return cls(**{name: _READERS[name](value, f"{context}.{name}") if name in _READERS
                      else value for name, value in node.items()})
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from None


def _parse_distribution(node: Any, context: str, *, initial_law: bool) -> Distribution:
    node = _require_map(node, context)
    kind = node.get("kind")
    cls = _LAWS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"{context}.kind must be one of {', '.join(_LAWS)}; got {kind!r}")
    if initial_law and cls is Gaussian:
        cls = GaussianVariance
    return _read_record(cls, {key: v for key, v in node.items() if key != "kind"}, context)


#: Law and initial-law fields that are not passed on as they are: field -> reader.
_READERS = {
    "values": _orders,
    "law": lambda node, context: _parse_distribution(node, context, initial_law=True),
}


def _parse_problem(node: Any) -> ProblemSpec:
    node = _require_map(node, "problem")
    _check_keys(node, ["class", *_LAYOUT, "noise", "initial"], "problem")
    try:
        args = {"problem_class": ProblemClass(node["class"])}
    except ValueError:
        valid = ", ".join(c.value for c in ProblemClass)
        raise ConfigError(f"problem.class must be one of {valid}; got {node['class']!r}") from None
    for block, keys in _LAYOUT.items():
        if block in node:
            values = _require_map(node[block], f"problem.{block}")
            _check_keys(values, keys, f"problem.{block}")
            args.update(values)
    if "noise" in node:
        args["noise"] = _parse_distribution(node["noise"], "problem.noise", initial_law=False)
    args["initial"] = _read_record(InitialLaw, node["initial"], "problem.initial")
    try:
        return ProblemSpec(**args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"problem: {exc}") from None


def parse_config(text: str) -> RunConfig:
    """Parse a JSON config document into a RunConfig.

    Raises:
        ConfigError: On invalid JSON, schema violations, or values the
            domain types reject.
    """
    try:
        document = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers an int past Python's digit limit; RecursionError, deep nesting.
        raise ConfigError(f"invalid JSON: {exc}") from None
    document = _require_map(document, "config")
    _check_keys(document, ["problem", "run"], "config", optional={"run"})
    problem = _parse_problem(document["problem"])
    return RunConfig(problem=problem, run=_read_record(RunSettings, document.get("run", {}), "run"))


def load_config(path) -> RunConfig:
    """Read and parse a config file; unreadable files raise ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------

def _plain(value):
    return list(value) if isinstance(value, tuple) else value


def _render_record(record) -> dict:
    return {f.name: _WRITERS.get(f.name, _plain)(getattr(record, f.name)) for f in fields(record)}


def _render_distribution(dist: Distribution) -> dict:
    return {"kind": _KINDS[type(dist)], **_render_record(dist)}


#: Record fields that render as more than a number or list: field -> writer.
_WRITERS = {
    "values": lambda pairs: {str(order): value for order, value in pairs},
    "law": _render_distribution,
}


def render_config(config: RunConfig) -> str:
    """Serialize a config to canonical, full-form JSON text (stable across runs)."""
    spec = config.problem
    problem = {"class": spec.problem_class.value}
    for block, keys in _LAYOUT.items():
        problem[block] = {key: _plain(getattr(spec, key)) for key in keys}
    if spec.noise is not None:
        problem["noise"] = _render_distribution(spec.noise)
    problem["initial"] = _render_record(spec.initial)
    return json.dumps({"problem": problem, "run": _render_record(config.run)}, indent=2) + "\n"


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
        problem = ProblemSpec(
            ProblemClass.DETERMINISTIC, 6,
            a_bar=1.0, b_bar=2.0, q_bar=3.0, q_bar_terminal=3.0, r_bar=4.0, p=p,
            initial=InitialLaw(mean=10.0),
        )
    elif example_id == 2:
        problem = ProblemSpec(
            ProblemClass.ADDITIVE, 10,
            a_bar=2.0, b_bar=3.0, q_bar=2.0, q_bar_terminal=2.0, r_bar=3.0, p=p,
            q=4.0, q_terminal=4.0, r=5.0,
            noise=Gaussian(sigma=1.0),
            initial=InitialLaw(mean=20.25),
        )
    elif example_id == 3:
        problem = ProblemSpec(
            ProblemClass.MULT_STATE, 10,
            a_bar=7.0, b_bar=6.0, q_bar=4.0, q_bar_terminal=4.0, r_bar=3.0, p=p,
            q=2.0, q_terminal=2.0, r=1.0,
            noise=Gaussian(sigma=1.0),
            initial=InitialLaw(mean=15.3, law=Empirical(samples=(-0.3, 0.3))),
        )
    elif example_id == 4:
        problem = ProblemSpec(
            ProblemClass.HIGHER_MOMENT, 10,
            a_bar=1.0, b_bar=1.0, q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=p,
            a=0.5, b=0.5, q=1.0, q_terminal=1.0, r=1.0, o=p,
            noise=Gaussian(sigma=1.0),
            initial=InitialLaw(mean=20.01, law=Empirical(samples=(-0.01, 0.01))),
        )
    else:
        raise ConfigError(f"example id must be one of {EXAMPLE_IDS}, got {example_id}")
    return RunConfig(problem=problem, run=RunSettings())
