"""Core domain types for scalar discrete-time control with power costs.

States are scalar and evolve over a finite horizon k = 0..N, with controls
applied at k = 0..N-1. Stage costs penalize even powers of the mean state and
mean control (exponent 2p) together with even central moments of the state
and control (exponent 2o). Four problem classes are supported, distinguished
by how noise enters the dynamics:

- ``DETERMINISTIC``: no noise; only the mean channel exists.
- ``ADDITIVE``: x[k+1] = a_bar[k] x[k] + b_bar[k] u[k] + eps[k+1]
- ``MULT_STATE``: x[k+1] = a_bar[k] x[k] + b_bar[k] u[k]
  + (x[k] - xbar[k]) eps[k+1]
- ``HIGHER_MOMENT``: x[k+1] = a_bar[k] xbar[k] + b_bar[k] ubar[k]
  + (a[k] (x[k] - xbar[k]) + b[k] (u[k] - ubar[k])) eps[k+1]

where xbar[k] = E[x[k]] and ubar[k] = E[u[k]]. The noise eps is i.i.d. across
steps with mean zero (eps[0] = 0 by convention; draws happen for steps 1..N).
The class alone says how eps enters, so the noise is just its per-step law:
a Distribution, or None for the deterministic class. A ``Moments`` law lists
the even moments only; it prices but has nothing to sample.

One problem is one flat, frozen ProblemSpec record: the horizon N, the
dynamics (a_bar, b_bar, a, b), the weights (q, q_bar, r, r_bar and the two
terminal weights), the powers (p, o), the noise law and the initial law. It
is also the one constructor: it broadcasts each per-step field to N values
and fills in the defaults. This module also houses the signed odd root used
by the gain formulas, the moment tables of the noise and initial laws, the
static validity checks consumed by the backward solvers, and three input
gates: every number the model takes is a finite float (a spread also >= 0),
a sequence of them, or an int >= a minimum, and text, bytes and bools are
refused with an error that names the field (a sequence element by its
index). The laws and the one flag are checked for type the same way. The
config hands these gates its raw values and prefixes their messages; the
solved schedules and gains store theirs through the sequence gate.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import KW_ONLY, dataclass, fields
from enum import Enum

import numpy as np


# --------------------------------------------------------------------------
# Errors
# --------------------------------------------------------------------------

class HocsError(Exception):
    """Base class for all errors raised by this package."""


class LengthMismatch(HocsError, ValueError):
    """A sequence does not have the length the horizon requires."""


class InvalidProblem(HocsError, ValueError):
    """A spec fails validate(); ``report`` is that ValidationReport."""

    def __init__(self, report: ValidationReport):
        super().__init__("; ".join(f"{check.name} ({check.detail})" for check in report.failures))
        self.report = report


class NonFiniteCoefficient(HocsError, ValueError):
    """A solved coefficient or gain is not finite (the recursion overflowed)."""


class MissingMoment(HocsError, LookupError):
    """A required even moment is not available from the declared law."""


class IndexOutOfRange(HocsError, IndexError):
    """A step index lies outside the horizon."""


class InvalidPolicy(HocsError, ValueError):
    """A policy is incompatible with the problem it is applied to."""


class NotConverged(HocsError, RuntimeError):
    """An iterative oracle stopped short: budget spent or arithmetic out of range."""


# --------------------------------------------------------------------------
# Enums
# --------------------------------------------------------------------------

class ProblemClass(Enum):
    """Which structural variant of the control problem is being solved."""

    DETERMINISTIC = "deterministic"
    ADDITIVE = "additive"
    MULT_STATE = "mult_state"
    HIGHER_MOMENT = "higher_moment"


# --------------------------------------------------------------------------
# Small numeric helpers
# --------------------------------------------------------------------------

def signed_root(x: float, n: int) -> float:
    """Real odd root sign(x) * |x|**(1/n).

    For odd n the map y -> y**n is a bijection on the reals; this returns its
    inverse, so ``signed_root(x, n) ** n`` recovers x up to rounding.

    Args:
        x: Any real number.
        n: Odd positive integer root order, by _is_integer (no bools).

    Returns:
        The unique real y with y**n == x.
    """
    if not _is_integer(n) or n < 1 or n % 2 == 0:
        raise ValueError(f"root order must be an odd positive integer, got {n}")
    return math.copysign(abs(x) ** (1.0 / n), x)


def _power(base: float, exponent: int) -> float:
    """base**exponent for an even exponent, or base >= 0; inf past the float range."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def _gaussian_moment(order: int, base: float, exponent: int) -> float:
    """(order - 1)!! * base**exponent for even order and base >= 0; inf past the float range.

    As written while the integer (order - 1)!! is a finite double (up to order
    300), so those moments keep their bits; past that from logarithms, with
    log (2j - 1)!! = log (2j)! - j log 2 - log j!, since the integer takes
    seconds to build at huge orders and a tiny base**exponent can offset it.
    """
    if order <= 300:
        return math.prod(range(1, order, 2)) * _power(base, exponent)
    if base == 0.0:
        return 0.0
    half = order // 2
    try:
        return math.exp(math.lgamma(order + 1) - half * math.log(2.0) - math.lgamma(half + 1)
                        + exponent * math.log(base))
    except OverflowError:
        return math.inf


# The three input gates: every number the domain model takes passes one of them.

def _is_0d(value) -> bool:
    """A 0-d numpy array, which the gates take as the scalar it holds."""
    return isinstance(value, np.ndarray) and value.ndim == 0


def _real(value, name: str) -> float:
    """float(value), +-inf past the float range; no text or bools, which float() reads."""
    held = value[()] if _is_0d(value) else value
    if not isinstance(held, (str, bytes, bool, np.bool_)):
        try:
            return float(held)
        except OverflowError:
            return math.inf if value > 0 else -math.inf
        except TypeError:
            pass
    raise TypeError(f"{name} must be a number, got {value!r}")


def _number(value, name: str, *, spread: bool = False) -> float:
    """The scalar gate: a finite float; a spread is also >= 0, with -0.0 as 0.0 for numpy."""
    value = _real(value, name)
    if not (math.isfinite(value) and (value >= 0.0 or not spread)):
        raise ValueError(f"{name} must be finite{' and >= 0' if spread else ''}, got {value}")
    return abs(value) if spread else value


def _numbers(values, name: str) -> tuple[float, ...]:
    """The sequence gate: a sequence (not text, a map or a 0-d array) whose elements
    pass the scalar gate; the element it refuses is named by its index."""
    if (isinstance(values, (str, bytes, Mapping)) or not isinstance(values, Iterable)
            or _is_0d(values)):
        raise TypeError(f"{name} must be a sequence of numbers, got {values!r}")
    out = []
    for index, value in enumerate(values):
        try:
            out.append(_number(value, name))
        except (TypeError, ValueError):
            break
    else:
        return tuple(out)
    _number(value, f"{name}[{index}]")  # fails again, naming the element


def _instance(value, name: str, kind: type) -> None:
    """Refuse a law, an initial law or a flag of the wrong type, naming the field."""
    if not isinstance(value, kind):
        raise TypeError(f"{name} must be of type {kind.__name__}, got {value!r}")


def _is_integer(value) -> bool:
    """The integer type rule: an int or a numpy integer, not a bool (numpy bools are no integer)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _integer(value, name: str, minimum: int, *, even: bool = False) -> int:
    """The integer gate: the type rule above, >= minimum (and even, if asked); returns an int."""
    if not _is_integer(value) or value < minimum or (even and value % 2):
        kind = "an even integer" if even else "an integer"
        raise ValueError(f"{name} must be {kind} >= {minimum}, got {value!r}")
    return int(value)


def _store_finite(record, first: str, *optional: str) -> None:
    """Store the named fields of a frozen record through the sequence gate, a
    non-finite entry raising NonFiniteCoefficient. The first must hold an entry;
    an optional one may be None, and one that is set is as long as the first."""
    for name in (first, *optional):
        values = getattr(record, name)
        if values is None and name != first:
            continue
        try:
            out = _numbers(values, name)
        except ValueError as exc:  # the type errors pass as they are
            raise NonFiniteCoefficient(str(exc)) from None
        object.__setattr__(record, name, out)
        if not out:
            raise ValueError(f"{name} must hold at least one entry, got ()")
        if len(out) != len(getattr(record, first)):
            raise ValueError(f"{name} must have the same length as {first}")


# --------------------------------------------------------------------------
# Noise and initial-state laws: zero-mean distributions, and the law of x[0]
# --------------------------------------------------------------------------

class Distribution:
    """A zero-mean scalar law with a known table of even moments.

    ``even_moment(order)`` = E[z**order] gates the order (even, >= 2) and
    leaves the formula to the subclass's ``_even_moment``; ``sample(rng,
    size)`` draws i.i.d. variates. Each dataclass field of a subclass is a
    spread unless the subclass checks its own fields.
    """

    def __post_init__(self) -> None:
        for field in fields(self):
            value = _number(getattr(self, field.name), field.name, spread=True)
            object.__setattr__(self, field.name, value)

    def even_moment(self, order: int) -> float:
        return self._even_moment(_integer(order, "moment order", 2, even=True))

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Dirac(Distribution):
    """Point mass at zero. All moments vanish; sampling returns zeros."""

    def _even_moment(self, order: int) -> float:
        return 0.0

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return np.zeros(size)


@dataclass(frozen=True)
class Gaussian(Distribution):
    """Centered normal with standard deviation ``sigma`` (sigma = 0 degenerates)."""

    sigma: float

    def _even_moment(self, order: int) -> float:
        # E[z**(2j)] = (2j - 1)!! sigma**(2j)
        return _gaussian_moment(order, self.sigma, order)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.normal(0.0, self.sigma, size)


@dataclass(frozen=True)
class GaussianVariance(Distribution):
    """Centered normal parameterized by its variance.

    Kept distinct from Gaussian so variance-specified laws (the natural
    parameterization for an initial-state spread) round-trip exactly instead
    of through a sqrt/square detour.
    """

    variance: float

    def _even_moment(self, order: int) -> float:
        return _gaussian_moment(order, self.variance, order // 2)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.normal(0.0, math.sqrt(self.variance), size)


@dataclass(frozen=True)
class Rademacher(Distribution):
    """Equal mass on -scale and +scale."""

    scale: float = 1.0

    def _even_moment(self, order: int) -> float:
        return _power(self.scale, order)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return self.scale * (2.0 * rng.integers(0, 2, size=size) - 1.0)


@dataclass(frozen=True)
class UniformSymmetric(Distribution):
    """Uniform on [-halfwidth, +halfwidth]."""

    halfwidth: float

    def _even_moment(self, order: int) -> float:
        # E[z**(2j)] = h**(2j) / (2j + 1)
        return _power(self.halfwidth, order) / (order + 1)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.uniform(-self.halfwidth, self.halfwidth, size)


def _mean(samples: tuple[float, ...]) -> float:
    try:
        return math.fsum(samples) / len(samples)
    except OverflowError:
        # The sum passes the float range, the mean does not: take it at the samples' scale.
        scale = max(map(abs, samples))
        return math.fsum(v / scale for v in samples) / len(samples) * scale


@dataclass(frozen=True)
class Empirical(Distribution):
    """Resampling law over a finite list of values, centered automatically.

    The stored samples always have mean zero: construction subtracts the
    sample mean and records the shift, so every moment table below refers to
    the centered law. ``shift`` is the amount that was subtracted.
    """

    samples: tuple[float, ...]
    shift: float = 0.0

    def __post_init__(self) -> None:
        samples = _numbers(self.samples, "samples")
        if len(samples) == 0:
            raise ValueError("samples must not be empty")
        shift = _number(self.shift, "shift")
        # Center until the mean is negligible at the samples' own scale. A rebuild
        # from the stored samples then subtracts nothing, so it is bit-exact.
        mean = _mean(samples)
        while abs(mean) > 1e-12 * max(map(abs, samples)):
            samples = _numbers((v - mean for v in samples), "centered samples")
            shift = mean + shift
            mean = _mean(samples)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "shift", shift)

    def _even_moment(self, order: int) -> float:
        try:
            return math.fsum(v ** order for v in self.samples) / len(self.samples)
        except OverflowError:
            return math.inf

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        values = np.asarray(self.samples, dtype=float)
        return rng.choice(values, size=size)


@dataclass(frozen=True)
class Moments(Distribution):
    """A law known only by some even moments, e.g. Moments({2: 1.0}), stored
    as sorted (order, moment) pairs. It prices, but has nothing to sample."""

    values: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        try:
            entries = dict(self.values)
        except (TypeError, ValueError):
            raise TypeError("values must be a map or a sequence of (order, moment) pairs, "
                            f"got {self.values!r}") from None
        values = sorted((_integer(order, "moment order", 2, even=True),
                         _number(value, f"moment of order {order}", spread=True))
                        for order, value in entries.items())
        object.__setattr__(self, "values", tuple(values))

    def _even_moment(self, order: int) -> float:
        try:
            return dict(self.values)[order]
        except KeyError:
            raise MissingMoment(f"the moments law has no moment of order {order}") from None

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        raise MissingMoment("a moments law has nothing to sample from")


@dataclass(frozen=True)
class InitialLaw:
    """Law of x[0]: a known mean plus a zero-mean offset distribution.

    ``law`` is the distribution of x[0] - mean, so its even moments are the
    central moments of the initial state. The initial draw always comes from
    an RNG stream independent of the noise stream.
    """

    mean: float
    law: Distribution = Dirac()

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", _number(self.mean, "mean"))
        _instance(self.law, "law", Distribution)

    def central_moment(self, order: int) -> float:
        """E[(x0 - mean)**order] for even order."""
        return self.law.even_moment(order)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return self.mean + self.law.sample(rng, size)


# --------------------------------------------------------------------------
# The problem
# --------------------------------------------------------------------------

#: The fields that hold one value per step k = 0..N-1, each broadcast from a
#: scalar or a length-1 sequence. The mean pair comes first: a and b copy it.
_PER_STEP_FIELDS = ("a_bar", "b_bar", "a", "b", "q", "q_bar", "r", "r_bar")


def _per_step(value, n_steps: int, name: str) -> tuple[float, ...]:
    """N finite floats from a scalar, a length-1 sequence or a length-N sequence."""
    # Text is taken whole, for the scalar gate to refuse, rather than split into characters.
    scalar = isinstance(value, (int, float, str, bytes, np.generic)) or _is_0d(value)
    values = (_number(value, name),) if scalar else _numbers(value, name)
    if len(values) == 1:
        try:
            return values * n_steps
        except (OverflowError, MemoryError):  # refused before any memory is filled
            raise ValueError(f"n_steps must fit {name} per step in memory, got {n_steps}") from None
    if len(values) != n_steps:
        raise LengthMismatch(
            f"{name}: expected a scalar or a sequence of length {n_steps}, got length {len(values)}")
    return values


@dataclass(frozen=True)
class ProblemSpec:
    """One fully specified control problem: dynamics, weights, powers and laws.

    The mean channel moves as xbar[k+1] = a_bar[k] xbar[k] + b_bar[k] ubar[k];
    (a, b) are the deviation-channel coefficients, which the ADDITIVE and
    MULT_STATE classes must keep equal to (a_bar, b_bar). The running cost
    at step k is

        q[k] E[(x - xbar)**(2o)] + q_bar[k] xbar**(2p)
        + r[k] E[(u - ubar)**(2o)] + r_bar[k] ubar**(2p)

    plus the terminal term q_terminal E[(x_N - xbar_N)**(2o)]
    + q_bar_terminal xbar_N**(2p). Deviation weights (q, q_terminal, r) are
    ignored by the DETERMINISTIC class. ``noise`` is the per-step law of
    eps; the class says how eps enters.

    The class may be given by name. Each per-step field takes a scalar or a
    length-1 sequence, repeated over the horizon, or a sequence of length
    n_steps, and is stored as a tuple of N floats. Left out, (a, b) copy the
    mean pair, the deviation weights are 0 (only the DETERMINISTIC class
    can use that), o is 1 and there is no noise law (again only for the
    DETERMINISTIC class).

    A zero b_bar[k] makes step k uncontrollable in the mean and is rejected
    unless ``allow_uncontrollable`` is set. The solver then needs no special
    case: the completion constant is signed_root(0) = 0, so the mean gain at
    that step is 0 (-0.0 when a_bar[k] < 0).

    Construction checks structure only: each number passes an input gate
    (n_steps, p and o are ints >= 1), each per-step field broadcasts to
    length N, and noise (unless None), initial and allow_uncontrollable
    must be a Distribution, an InitialLaw and a bool. Semantic validity
    (weight signs, a noise law exactly on the stochastic classes, ...) is
    reported by validate() rather than raised, so that deliberately broken
    specs can be built and inspected; solve() refuses them.
    """

    problem_class: ProblemClass
    n_steps: int
    a_bar: tuple[float, ...]
    b_bar: tuple[float, ...]
    q_bar: tuple[float, ...]
    q_bar_terminal: float
    r_bar: tuple[float, ...]
    p: int
    _: KW_ONLY
    initial: InitialLaw
    a: tuple[float, ...] | None = None
    b: tuple[float, ...] | None = None
    q: tuple[float, ...] = 0.0
    q_terminal: float = 0.0
    r: tuple[float, ...] = 0.0
    o: int = 1
    noise: Distribution | None = None
    allow_uncontrollable: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "problem_class", ProblemClass(self.problem_class))
        for name in ("n_steps", "p", "o"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, 1))
        for name in _PER_STEP_FIELDS:
            value = getattr(self, name)
            if value is None and name in ("a", "b"):
                value = getattr(self, f"{name}_bar")
            object.__setattr__(self, name, _per_step(value, self.n_steps, name))
        for name in ("q_terminal", "q_bar_terminal"):
            object.__setattr__(self, name, _number(getattr(self, name), name))
        if self.noise is not None:
            _instance(self.noise, "noise", Distribution)
        _instance(self.initial, "initial", InitialLaw)
        _instance(self.allow_uncontrollable, "allow_uncontrollable", bool)
        if not self.allow_uncontrollable and any(v == 0.0 for v in self.b_bar):
            raise ValueError("b_bar contains a zero entry; set allow_uncontrollable to permit it")

    def noise_moment(self, order: int) -> float:
        """E[eps**order]; MissingMoment if there is no noise law or it lacks the order."""
        if self.noise is None:
            raise MissingMoment(f"class {self.problem_class.value} has no noise law")
        return self.noise.even_moment(order)


# --------------------------------------------------------------------------
# Static validation
# --------------------------------------------------------------------------

PASS = "pass"
FAIL = "fail"


@dataclass(frozen=True)
class ValidationCheck:
    """One named static condition with its outcome."""

    name: str
    status: str
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the static validity checks for one ProblemSpec."""

    checks: tuple[ValidationCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.status != FAIL for check in self.checks)

    @property
    def failures(self) -> tuple[ValidationCheck, ...]:
        return tuple(check for check in self.checks if check.status == FAIL)

    def lines(self) -> list[str]:
        width = max(len(check.name) for check in self.checks)
        out = []
        for check in self.checks:
            line = f"{check.name.ljust(width)}  {check.status}"
            if check.detail:
                line += f"  ({check.detail})"
            out.append(line)
        return out


def _check(name: str, ok: bool, detail: str) -> ValidationCheck:
    """A pass/fail check whose detail is shown only when it fails."""
    return ValidationCheck(name, PASS if ok else FAIL, "" if ok else detail)


#: The weight-sign rule: for each channel, its weight fields in order, each
#: with whether it must be > 0 (True) or only >= 0 (False). The deterministic
#: class has no deviation channel.
_WEIGHT_SIGNS = (
    ("mean", (("q_bar", False), ("q_bar_terminal", True), ("r_bar", True))),
    ("deviation", (("q", False), ("q_terminal", False), ("r", True))),
)


def _wrong_sign(spec: ProblemSpec, weights) -> str:
    """The first weight of the wrong sign, as ``q[0] = -1.0; needs >= 0``, or ''."""
    for name, strict in weights:
        value = getattr(spec, name)
        terminal = name.endswith("terminal")
        for k, v in enumerate((value,) if terminal else value):
            if v < 0.0 or (strict and v == 0.0):
                where = "" if terminal else f"[{k}]"
                return f"{name}{where} = {v}; needs {'> 0' if strict else '>= 0'}"
    return ""


def validate(spec: ProblemSpec) -> ValidationReport:
    """Run every static validity check on a spec and report pass/fail.

    This is the one statement of what solve() takes: solve() raises
    InvalidProblem exactly when this report fails. Nothing is raised here;
    the report lists each condition so a caller can print all failures at
    once. The weight-sign rows (_WEIGHT_SIGNS) keep every gain denominator
    1 + c b >= 1. The additive and multiplicative-state classes also keep
    (a, b) = (a_bar, b_bar) and o = 1, which their one deviation pass needs.

    Args:
        spec: A fully populated problem description.

    Returns:
        A ValidationReport whose ``ok`` property is True iff no check failed.
    """
    klass = spec.problem_class
    has_deviation_channel = klass is not ProblemClass.DETERMINISTIC
    checks = []
    for channel, weights in _WEIGHT_SIGNS[:1 + has_deviation_channel]:
        wrong = _wrong_sign(spec, weights)
        checks.append(_check(f"{channel} weight signs", not wrong, wrong))

    need = "needs a" if has_deviation_channel else "admits no"
    checks.append(_check("class/noise compatibility",
                         (spec.noise is not None) == has_deviation_channel,
                         f"class {klass.value} {need} noise law"))
    if klass in (ProblemClass.ADDITIVE, ProblemClass.MULT_STATE):
        checks.append(_check("deviation dynamics equal mean dynamics",
                             spec.a == spec.a_bar and spec.b == spec.b_bar,
                             "distinct (a, b) are legal only for the higher-moment class"))
        checks.append(_check("moment power o = 1", spec.o == 1,
                             f"class {klass.value} penalizes the variance only, got o={spec.o}"))
    if klass is ProblemClass.DETERMINISTIC:
        checks.append(_check("initial law is a point mass", isinstance(spec.initial.law, Dirac),
                             "the deterministic class admits no initial spread"))

    if has_deviation_channel and spec.noise is not None:
        order = 2 * spec.o
        try:
            moment = spec.noise_moment(order)
        except MissingMoment:
            moment = None
        ok = moment is not None and math.isfinite(moment) and moment >= 0.0
        detail = "the moments law lacks this order" if moment is None else f"value {moment!r}"
        checks.append(ValidationCheck(f"noise moment of order {order} available",
                                      PASS if ok else FAIL, detail))

    return ValidationReport(checks=tuple(checks))
