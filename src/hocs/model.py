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

This module houses the domain types, scalar-to-sequence broadcasting, the
signed odd root used by the gain formulas, the moment tables of the noise and
initial laws, and the static validity checks consumed by the backward solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence, Union

import numpy as np


# --------------------------------------------------------------------------
# Errors
# --------------------------------------------------------------------------

class HocsError(Exception):
    """Base class for all errors raised by this package."""


class LengthMismatch(HocsError, ValueError):
    """A sequence does not have the length the horizon requires."""


class NonPositiveCoefficient(HocsError, ArithmeticError):
    """A cost weight has a sign the backward recursion cannot take."""


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


class NoiseKind(Enum):
    """How the noise enters the transition (NONE means no noise at all)."""

    NONE = "none"
    ADDITIVE = "additive"
    MULT_STATE = "mult_state"
    MULT_MEAN_FIELD = "mult_mean_field"


#: The noise kind each problem class requires.
COMPATIBLE_NOISE: dict[ProblemClass, NoiseKind] = {
    ProblemClass.DETERMINISTIC: NoiseKind.NONE,
    ProblemClass.ADDITIVE: NoiseKind.ADDITIVE,
    ProblemClass.MULT_STATE: NoiseKind.MULT_STATE,
    ProblemClass.HIGHER_MOMENT: NoiseKind.MULT_MEAN_FIELD,
}


# --------------------------------------------------------------------------
# Small numeric helpers
# --------------------------------------------------------------------------

def signed_root(x: float, n: int) -> float:
    """Real odd root sign(x) * |x|**(1/n).

    For odd n the map y -> y**n is a bijection on the reals; this returns its
    inverse, so ``signed_root(x, n) ** n`` recovers x up to rounding.

    Args:
        x: Any real number.
        n: Odd positive integer root order.

    Returns:
        The unique real y with y**n == x.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"root order must be an odd positive integer, got {n}")
    return math.copysign(abs(x) ** (1.0 / n), x)


def _check_even_order(order: int) -> None:
    if order < 2 or order % 2 != 0:
        raise ValueError(f"moment order must be an even integer >= 2, got {order}")


def _odd_double_factorial(order: int) -> int:
    # (order - 1)!! = 1 * 3 * 5 * ... * (order - 1) for even order
    return math.prod(range(1, order, 2))


def _scaled_power(coefficient: int, base: float, exponent: int) -> float:
    """coefficient * base**exponent for base >= 0; inf past the float range.

    As written where that stays in range, so those values keep their bits;
    else from logarithms, as a huge (order - 1)!! times a tiny sigma**order
    can still round to 0.0.
    """
    try:
        return coefficient * base ** exponent
    except OverflowError:
        if base == 0.0:
            return 0.0
        try:
            return math.exp(math.log(coefficient) + exponent * math.log(base))
        except OverflowError:
            return math.inf


def _as_finite_floats(values: Sequence[float], name: str) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    if not all(math.isfinite(v) for v in out):
        raise ValueError(f"{name} must contain only finite values, got {out}")
    return out


# --------------------------------------------------------------------------
# Horizon and broadcasting
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Horizon:
    """Finite horizon: states at k = 0..n_steps, controls at k = 0..n_steps-1."""

    n_steps: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_steps, int) or self.n_steps < 1:
            raise ValueError(f"n_steps must be an integer >= 1, got {self.n_steps}")


def broadcast(value: Union[float, Sequence[float]], horizon: Horizon) -> tuple[float, ...]:
    """Broadcast a scalar (or length-1 sequence) to a length-N tuple.

    Sequences already of length N pass through unchanged; anything else is a
    contract violation.

    Args:
        value: A real number, a length-1 sequence, or a length-N sequence.
        horizon: Target horizon (N = horizon.n_steps).

    Returns:
        A tuple of N floats.

    Raises:
        LengthMismatch: If a sequence of length other than N or 1 is given.
    """
    n = horizon.n_steps
    if isinstance(value, (int, float, np.integer, np.floating)):
        return (float(value),) * n
    seq = tuple(float(v) for v in value)
    if len(seq) == n:
        return seq
    if len(seq) == 1:
        return seq * n
    raise LengthMismatch(f"expected a scalar or a sequence of length {n}, got length {len(seq)}")


# --------------------------------------------------------------------------
# Zero-mean distributions (shared by the noise model and the initial law)
# --------------------------------------------------------------------------

class Distribution:
    """A zero-mean scalar law with a known table of even moments.

    Subclasses provide ``even_moment(order)`` = E[z**order] for even order
    and ``sample(rng, size)`` drawing i.i.d. variates.
    """

    def even_moment(self, order: int) -> float:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Dirac(Distribution):
    """Point mass at zero. All moments vanish; sampling returns zeros."""

    def even_moment(self, order: int) -> float:
        _check_even_order(order)
        return 0.0

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return np.zeros(size)


@dataclass(frozen=True)
class Gaussian(Distribution):
    """Centered normal with standard deviation ``sigma`` (sigma = 0 degenerates)."""

    sigma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")

    def even_moment(self, order: int) -> float:
        # E[z**(2j)] = (2j - 1)!! sigma**(2j)
        _check_even_order(order)
        return _scaled_power(_odd_double_factorial(order), self.sigma, order)

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

    def __post_init__(self) -> None:
        if not (math.isfinite(self.variance) and self.variance >= 0.0):
            raise ValueError(f"variance must be finite and >= 0, got {self.variance}")

    def even_moment(self, order: int) -> float:
        _check_even_order(order)
        return _scaled_power(_odd_double_factorial(order), self.variance, order // 2)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.normal(0.0, math.sqrt(self.variance), size)


@dataclass(frozen=True)
class Rademacher(Distribution):
    """Equal mass on -scale and +scale."""

    scale: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.scale) and self.scale >= 0.0):
            raise ValueError(f"scale must be finite and >= 0, got {self.scale}")

    def even_moment(self, order: int) -> float:
        _check_even_order(order)
        return _scaled_power(1, self.scale, order)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return self.scale * (2.0 * rng.integers(0, 2, size=size) - 1.0)


@dataclass(frozen=True)
class UniformSymmetric(Distribution):
    """Uniform on [-halfwidth, +halfwidth]."""

    halfwidth: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.halfwidth) and self.halfwidth >= 0.0):
            raise ValueError(f"halfwidth must be finite and >= 0, got {self.halfwidth}")

    def even_moment(self, order: int) -> float:
        # E[z**(2j)] = h**(2j) / (2j + 1)
        _check_even_order(order)
        return _scaled_power(1, self.halfwidth, order) / (order + 1)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.uniform(-self.halfwidth, self.halfwidth, size)


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
        raw = _as_finite_floats(self.samples, "samples")
        if len(raw) == 0:
            raise ValueError("Empirical needs at least one sample")
        mean = math.fsum(raw) / len(raw)
        # Centering is skipped when the mean is already negligible, so that
        # re-building from stored (already centered) samples is bit-exact.
        if abs(mean) > 1e-12:
            object.__setattr__(self, "samples", tuple(v - mean for v in raw))
            object.__setattr__(self, "shift", mean + self.shift)
        else:
            object.__setattr__(self, "samples", raw)

    @property
    def was_centered(self) -> bool:
        return self.shift != 0.0

    def even_moment(self, order: int) -> float:
        _check_even_order(order)
        try:
            return math.fsum(v ** order for v in self.samples) / len(self.samples)
        except OverflowError:
            return math.inf

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        values = np.asarray(self.samples, dtype=float)
        return rng.choice(values, size=size)


# --------------------------------------------------------------------------
# Noise and initial-state laws
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseSpec:
    """Noise model: where the noise enters and what it looks like per step.

    ``kind`` fixes how eps multiplies into the transition (see the module
    docstring). ``distribution`` is the common per-step law; it may be left
    out when only moments are needed (solving without simulating), in which
    case ``moment_override`` must supply E[eps**order] for every order the
    solver asks for. Overrides win over the distribution's own moments.
    """

    kind: NoiseKind
    distribution: Distribution | None = None
    moment_override: Mapping[int, float] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, NoiseKind):
            raise ValueError(f"kind must be a NoiseKind, got {self.kind!r}")
        if self.kind is NoiseKind.NONE:
            if self.distribution is not None or self.moment_override:
                raise ValueError("kind NONE admits no distribution or moment override")
            object.__setattr__(self, "moment_override", None)
            return
        if self.moment_override is not None:
            items = []
            for order, value in dict(self.moment_override).items():
                _check_even_order(int(order))
                value = float(value)
                if not (math.isfinite(value) and value >= 0.0):
                    raise ValueError(f"moment of order {order} must be finite and >= 0, got {value}")
                items.append((int(order), value))
            object.__setattr__(self, "moment_override", tuple(sorted(items)))

    @classmethod
    def none(cls) -> "NoiseSpec":
        return cls(kind=NoiseKind.NONE)

    def even_moment(self, order: int) -> float:
        """E[eps**order] for even order, honoring overrides.

        Raises:
            MissingMoment: If neither an override nor a distribution covers
                the requested order.
        """
        _check_even_order(order)
        if self.kind is NoiseKind.NONE:
            return 0.0
        if self.moment_override is not None:
            for stored_order, value in self.moment_override:
                if stored_order == order:
                    return value
        if self.distribution is not None:
            return self.distribution.even_moment(order)
        raise MissingMoment(f"no distribution and no override for moment order {order}")

    @property
    def samplable(self) -> bool:
        return self.kind is NoiseKind.NONE or self.distribution is not None


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
        if not math.isfinite(float(self.mean)):
            raise ValueError(f"mean must be finite, got {self.mean}")
        object.__setattr__(self, "mean", float(self.mean))

    def central_moment(self, order: int) -> float:
        """E[(x0 - mean)**order] for even order."""
        return self.law.even_moment(order)

    @property
    def variance(self) -> float:
        return self.central_moment(2)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return self.mean + self.law.sample(rng, size)


# --------------------------------------------------------------------------
# Dynamics and cost
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MeanDynamics:
    """Mean-channel coefficients: xbar[k+1] = a_bar[k] xbar[k] + b_bar[k] ubar[k].

    A zero b_bar[k] makes step k uncontrollable in the mean and is rejected
    unless ``allow_uncontrollable`` is set. The solver then needs no special
    case: the completion constant is signed_root(0) = 0, so the mean gain at
    that step is 0 (-0.0 when a_bar[k] < 0).
    """

    a_bar: tuple[float, ...]
    b_bar: tuple[float, ...]
    allow_uncontrollable: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "a_bar", _as_finite_floats(self.a_bar, "a_bar"))
        object.__setattr__(self, "b_bar", _as_finite_floats(self.b_bar, "b_bar"))
        if len(self.a_bar) != len(self.b_bar):
            raise LengthMismatch(
                f"a_bar and b_bar lengths differ: {len(self.a_bar)} vs {len(self.b_bar)}"
            )
        if not self.allow_uncontrollable and any(v == 0.0 for v in self.b_bar):
            raise ValueError("b_bar contains a zero entry; set allow_uncontrollable to permit it")


@dataclass(frozen=True)
class DeviationDynamics:
    """Deviation-channel coefficients a[k], b[k].

    Classes other than HIGHER_MOMENT use a single coefficient pair for both
    channels, so there a must equal a_bar and b must equal b_bar; validate()
    reports a mismatch.
    """

    a: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _as_finite_floats(self.a, "a"))
        object.__setattr__(self, "b", _as_finite_floats(self.b, "b"))
        if len(self.a) != len(self.b):
            raise LengthMismatch(f"a and b lengths differ: {len(self.a)} vs {len(self.b)}")


@dataclass(frozen=True)
class CostSpec:
    """Stage and terminal cost weights together with the two half-powers.

    The running cost at step k is

        q[k] E[(x - xbar)**(2o)] + q_bar[k] xbar**(2p)
        + r[k] E[(u - ubar)**(2o)] + r_bar[k] ubar**(2p)

    plus the terminal term q_terminal E[(x_N - xbar_N)**(2o)]
    + q_bar_terminal xbar_N**(2p). Deviation weights (q, q_terminal, r) are
    ignored by the DETERMINISTIC class.

    Construction checks structure only (lengths, finiteness, integer powers);
    the positivity conditions the solvers rely on are validate()'s business.
    """

    q: tuple[float, ...]
    q_terminal: float
    q_bar: tuple[float, ...]
    q_bar_terminal: float
    r: tuple[float, ...]
    r_bar: tuple[float, ...]
    p: int
    o: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _as_finite_floats(self.q, "q"))
        object.__setattr__(self, "q_bar", _as_finite_floats(self.q_bar, "q_bar"))
        object.__setattr__(self, "r", _as_finite_floats(self.r, "r"))
        object.__setattr__(self, "r_bar", _as_finite_floats(self.r_bar, "r_bar"))
        for name in ("q_terminal", "q_bar_terminal"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        lengths = {len(self.q), len(self.q_bar), len(self.r), len(self.r_bar)}
        if len(lengths) != 1:
            raise LengthMismatch(f"weight sequences have differing lengths: {sorted(lengths)}")
        for name in ("p", "o"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class ProblemSpec:
    """One fully specified control problem.

    Construction enforces structural consistency (every per-step sequence has
    length horizon.n_steps); semantic validity (positive weights, class/noise
    compatibility, ...) is reported by validate() rather than raised, so that
    deliberately broken specs can be built and inspected.
    """

    problem_class: ProblemClass
    horizon: Horizon
    mean_dyn: MeanDynamics
    dev_dyn: DeviationDynamics
    cost: CostSpec
    noise: NoiseSpec
    initial: InitialLaw

    def __post_init__(self) -> None:
        n = self.horizon.n_steps
        lengths = {
            "mean_dyn.a_bar": len(self.mean_dyn.a_bar),
            "dev_dyn.a": len(self.dev_dyn.a),
            "cost.q": len(self.cost.q),
        }
        bad = {name: length for name, length in lengths.items() if length != n}
        if bad:
            raise LengthMismatch(f"sequences must have length n_steps={n}: {bad}")

    @property
    def n_steps(self) -> int:
        return self.horizon.n_steps


def build_problem(
    problem_class: ProblemClass,
    n_steps: int,
    a_bar,
    b_bar,
    q_bar,
    q_bar_terminal: float,
    r_bar,
    p: int,
    *,
    initial: InitialLaw,
    a=None,
    b=None,
    q=0.0,
    q_terminal: float = 0.0,
    r=0.0,
    o: int = 1,
    noise: NoiseSpec | None = None,
    allow_uncontrollable: bool = False,
) -> ProblemSpec:
    """Assemble a ProblemSpec from scalars or sequences, broadcasting as needed.

    Deviation dynamics (a, b) default to the mean dynamics; deviation weights
    default to zero, which only makes sense for the DETERMINISTIC class where
    they are unused. Noise defaults to NONE.
    """
    horizon = Horizon(n_steps)
    mean_dyn = MeanDynamics(
        broadcast(a_bar, horizon), broadcast(b_bar, horizon), allow_uncontrollable
    )
    dev_dyn = DeviationDynamics(
        broadcast(a if a is not None else mean_dyn.a_bar, horizon),
        broadcast(b if b is not None else mean_dyn.b_bar, horizon),
    )
    cost = CostSpec(
        q=broadcast(q, horizon),
        q_terminal=q_terminal,
        q_bar=broadcast(q_bar, horizon),
        q_bar_terminal=q_bar_terminal,
        r=broadcast(r, horizon),
        r_bar=broadcast(r_bar, horizon),
        p=p,
        o=o,
    )
    return ProblemSpec(
        problem_class=ProblemClass(problem_class),
        horizon=horizon,
        mean_dyn=mean_dyn,
        dev_dyn=dev_dyn,
        cost=cost,
        noise=noise if noise is not None else NoiseSpec.none(),
        initial=initial,
    )


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


def _positive(values, terminal=None) -> bool:
    ok = all(v > 0.0 for v in values)
    if terminal is not None:
        ok = ok and terminal > 0.0
    return ok


def validate(spec: ProblemSpec) -> ValidationReport:
    """Run every static validity check on a spec and report pass/fail.

    Nothing is raised here; the report lists each condition so a caller can
    print all failures at once. The weight checks imply the sign rule that
    solve() enforces, under which every gain denominator 1 + c b is >= 1.

    Args:
        spec: A fully populated problem description.

    Returns:
        A ValidationReport whose ``ok`` property is True iff no check failed.
    """
    checks: list[ValidationCheck] = []
    cost, klass = spec.cost, spec.problem_class
    has_deviation_channel = klass is not ProblemClass.DETERMINISTIC

    ok = _positive(cost.q_bar, cost.q_bar_terminal) and _positive(cost.r_bar)
    checks.append(ValidationCheck(
        "mean weights strictly positive", PASS if ok else FAIL,
        "" if ok else "q_bar, q_bar_terminal, r_bar must all be > 0",
    ))

    if has_deviation_channel:
        ok = _positive(cost.q, cost.q_terminal) and _positive(cost.r)
        checks.append(ValidationCheck(
            "deviation weights strictly positive", PASS if ok else FAIL,
            "" if ok else "q, q_terminal, r must all be > 0",
        ))

    # Finiteness and nonzero b_bar are enforced at construction; restated so
    # the report covers every static condition in one place.
    checks.append(ValidationCheck("dynamics finite", PASS, "enforced at construction"))

    expected = COMPATIBLE_NOISE[klass]
    ok = spec.noise.kind is expected
    checks.append(ValidationCheck(
        "class/noise compatibility", PASS if ok else FAIL,
        "" if ok else f"class {klass.value} requires noise kind {expected.value}, got {spec.noise.kind.value}",
    ))

    if klass is not ProblemClass.HIGHER_MOMENT:
        ok = spec.dev_dyn.a == spec.mean_dyn.a_bar and spec.dev_dyn.b == spec.mean_dyn.b_bar
        checks.append(ValidationCheck(
            "deviation dynamics equal mean dynamics", PASS if ok else FAIL,
            "" if ok else "distinct (a, b) are legal only for the higher-moment class",
        ))
        ok = cost.o == 1
        checks.append(ValidationCheck(
            "moment power o = 1", PASS if ok else FAIL,
            "" if ok else f"class {klass.value} penalizes the variance only, got o={cost.o}",
        ))

    if klass is ProblemClass.DETERMINISTIC:
        ok = isinstance(spec.initial.law, Dirac)
        checks.append(ValidationCheck(
            "initial law is a point mass", PASS if ok else FAIL,
            "" if ok else "the deterministic class admits no initial spread",
        ))

    if has_deviation_channel:
        order = 2 * cost.o if klass is ProblemClass.HIGHER_MOMENT else 2
        try:
            moment = spec.noise.even_moment(order)
        except MissingMoment:
            checks.append(ValidationCheck(
                f"noise moment of order {order} available", FAIL,
                "provide a distribution or a moment override",
            ))
        else:
            ok = math.isfinite(moment) and moment >= 0.0
            checks.append(ValidationCheck(
                f"noise moment of order {order} available", PASS if ok else FAIL,
                f"value {moment!r}",
            ))

    return ValidationReport(checks=tuple(checks))
