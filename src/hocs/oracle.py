"""Independent verification of the closed forms.

Three routes, none of which reuse the backward recursions they are checking:

- Direct minimization of the deterministic objective over the whole control
  sequence. The objective is a sum of even powers of affine functions of the
  controls, hence smooth and strictly convex with a unique minimizer. Plain
  gradient steps crawl here (the Hessian spans many orders of magnitude once
  p > 1 and the late controls sit near the flat bottom of u**2p), so one
  undamped Newton loop from zero, with the exact chain-rule Hessian, runs on
  the float gradient while its updates still pay and then on the gradient
  evaluated in exact rational arithmetic, until an update no longer moves
  the floats.
- Monte-Carlo comparison of the realized expected cost under the solved
  feedback against the coefficient-based prediction, judged at three
  plug-in standard errors of the mean per-path moment cost.
- Common-random-number perturbation probes that scale one gain channel at a
  time, roll every grid point out on one reused draw of initial states and
  noise, and require the cost minimum at scale 1.

The direct route compares its optimum against the closed-form controls,
rolled out by the simulator's mean channel; that reuse sits on the side
being checked, so the optimizer stays independent.

Plus the midpoint convexity check for z -> z**2p + (a z + b)**2p, which
underpins the global-optimality claim of the direct route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .control import FeedbackPolicy
from .model import NotConverged, ProblemSpec, ProblemClass
from .recursion import CoefficientSchedule, GainSchedule, solve
from .simulate import (
    _common_draws,
    _deviation_term,
    _mean_channel,
    _mean_term,
    predicted_cost,
    realized_cost,
    simulate_ensemble,
)

__all__ = [
    "OracleReport",
    "ProbeReport",
    "ConvexityReport",
    "brute_force_deterministic",
    "mc_validate",
    "local_optimality_probe",
    "convexity_check",
]

#: Scale-relative slack under which the oracle is allowed to edge out the
#: closed form before the comparison is branded discrepant.
BEAT_TOLERANCE = 1e-8


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one closed-form-vs-oracle comparison.

    ``converged`` means the oracle itself finished (a Newton update that no
    longer moves the floats; the optimizer raises otherwise), or the MC gap
    stayed within three standard errors. ``discrepant`` is the alarm bit:
    the oracle found a strictly better cost than the closed form (or, for
    the MC route, the gap exceeded its error budget). A discrepant report
    never raises; callers decide.
    """

    closed_form_cost: float
    oracle_cost: float
    relative_gap: float
    control_max_abs_diff: float
    iterations: int
    converged: bool
    discrepant: bool = False
    stderr: float = 0.0


def _relative_gap(closed_form: float, oracle: float) -> float:
    return abs(closed_form - oracle) / max(abs(oracle), 1e-30)


def _mean_cost_and_path(spec: ProblemSpec, u: np.ndarray, x0: float) -> tuple[float, list[float]]:
    cost = spec.cost
    two_p = 2 * cost.p
    a_bar, b_bar = spec.mean_dyn.a_bar, spec.mean_dyn.b_bar
    x = [0.0] * (spec.n_steps + 1)
    x[0] = x0
    total = 0.0
    for k in range(spec.n_steps):
        total += cost.q_bar[k] * x[k] ** two_p + cost.r_bar[k] * float(u[k]) ** two_p
        x[k + 1] = a_bar[k] * x[k] + b_bar[k] * float(u[k])
    total += cost.q_bar_terminal * x[-1] ** two_p
    return total, x


def _adjoint_gradient(spec: ProblemSpec, u: np.ndarray, x0: float, num=float) -> np.ndarray:
    """Chain-rule gradient of the deterministic cost in the controls.

    One adjoint pass through the affine state recursion, evaluated in the
    number type ``num`` and rounded to floats at the end. With ``float`` it
    is the plain float adjoint, whose noise floor is absolute: set by the
    large downstream states, it swamps the components of flat controls. With
    ``Fraction`` every input float is an exact dyadic rational and the cost
    is a polynomial in the controls, so each component comes back correctly
    rounded, with a relative error of one ulp.
    """
    cost = spec.cost
    two_p = 2 * cost.p
    odd = two_p - 1
    n = spec.n_steps
    a_bar = [num(v) for v in spec.mean_dyn.a_bar]
    b_bar = [num(v) for v in spec.mean_dyn.b_bar]
    q_bar = [num(v) for v in cost.q_bar]
    r_bar = [num(v) for v in cost.r_bar]
    controls = [num(float(v)) for v in u]
    x = [num(float(x0))]
    for i in range(n):
        x.append(a_bar[i] * x[i] + b_bar[i] * controls[i])
    grad = np.empty(n)
    lam = two_p * num(cost.q_bar_terminal) * x[n] ** odd
    for k in reversed(range(n)):
        grad[k] = float(two_p * r_bar[k] * controls[k] ** odd + b_bar[k] * lam)
        lam = two_p * q_bar[k] * x[k] ** odd + a_bar[k] * lam
    return grad


def _mean_hessian(spec: ProblemSpec, u: np.ndarray, x0: float) -> np.ndarray:
    """Exact Hessian of the deterministic cost in the controls.

    x[k] is affine in u with sensitivity s[k] (s[k][j] = b_bar[j] times the
    product of a_bar over j+1..k-1), so the Hessian is a sum of weighted
    rank-one terms plus the diagonal from the control powers. For p = 1 the
    weights use x**0, making the Hessian constant, as it should be.
    """
    cost = spec.cost
    two_p = 2 * cost.p
    coef = two_p * (two_p - 1)
    a_bar, b_bar = spec.mean_dyn.a_bar, spec.mean_dyn.b_bar
    n = spec.n_steps
    _, x = _mean_cost_and_path(spec, u, x0)

    hess = np.zeros((n, n))
    sens = np.zeros(n)
    for k in range(1, n + 1):
        sens *= a_bar[k - 1]
        sens[k - 1] += b_bar[k - 1]
        weight = cost.q_bar[k] if k < n else cost.q_bar_terminal
        hess += coef * weight * x[k] ** (two_p - 2) * np.outer(sens, sens)
    hess[np.diag_indices(n)] += [
        coef * cost.r_bar[k] * float(u[k]) ** (two_p - 2) for k in range(n)
    ]
    return hess


def brute_force_deterministic(spec: ProblemSpec, max_iter: int = 200) -> OracleReport:
    """Minimize the deterministic cost over the raw control sequence.

    The objective is smooth and strictly convex (states affine in controls,
    costs even powers), so its stationary point is the global minimum. One
    undamped Newton loop from u = 0 finds it, with the exact Hessian through
    the affine state recursion, equilibrated by its diagonal because that
    spans many orders of magnitude (stiff early controls, flat late ones).
    The loop runs on the float gradient while each update strictly lowers
    the curvature-scaled residual max |g_k| / H_kk and still moves the
    iterate. The float gradient's noise floor is absolute, set by the big
    downstream states, and swamps the flat controls; so from there it runs
    on the gradient in exact rational arithmetic until an update no longer
    moves the floats. On criterion 2's generator (1,003 specs) that takes
    at most 86 iterations, with control gaps below 3e-14. Far outside that
    family an iterate can cycle; it raises rather than return silently.

    Args:
        spec: A DETERMINISTIC-class problem; the optimizer starts from its
            initial mean.
        max_iter: Budget of Newton updates, >= 1.

    Returns:
        An OracleReport comparing cost and controls against the closed form;
        ``iterations`` is the number of Newton updates plus one.

    Raises:
        NotConverged: If an update is non-finite or overflows, or the budget
            runs out while updates still move the controls.
    """
    if spec.problem_class is not ProblemClass.DETERMINISTIC:
        raise ValueError(f"oracle expects class deterministic, got {spec.problem_class.value}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    schedule, gains = solve(spec)
    closed_form = predicted_cost(schedule, spec.initial)
    _, closed_u = _mean_channel(spec, FeedbackPolicy(gains))

    x0, n = spec.initial.mean, spec.n_steps
    u, updates = np.zeros(n), 0
    try:
        num, grad, last = float, _adjoint_gradient(spec, u, x0), math.inf
        while True:
            hess = _mean_hessian(spec, u, x0)
            diag = np.diag(hess)
            floored = np.maximum(diag, 1e-16 * max(float(np.max(diag)), 1e-300))
            if num is float:
                # Residual scaled per coordinate by curvature: estimates how far
                # each control is from its root, comparable across stiff and flat.
                residual = float(np.max(np.abs(grad) / floored))
                if not residual < last:
                    num, grad = Fraction, _adjoint_gradient(spec, u, x0, Fraction)
                last = residual
            col_scale = 1.0 / np.sqrt(floored)
            equilibrated = hess * col_scale[:, None] * col_scale[None, :]
            reduced = np.linalg.solve(equilibrated + 1e-12 * np.eye(n), -(grad * col_scale))
            candidate = u + reduced * col_scale
            if not np.all(np.isfinite(candidate)):
                raise NotConverged(f"Newton update {updates + 1} is not finite")
            if np.array_equal(candidate, u):
                if num is Fraction:
                    break
                num, grad = Fraction, _adjoint_gradient(spec, u, x0, Fraction)
                continue
            if updates == max_iter:
                raise NotConverged(f"Newton update {updates + 1} exceeds max_iter={max_iter}")
            updates += 1
            u, grad = candidate, _adjoint_gradient(spec, candidate, x0, num)
        value, _ = _mean_cost_and_path(spec, u, x0)
    except (OverflowError, np.linalg.LinAlgError) as exc:
        raise NotConverged(f"Newton update {updates + 1} failed: {exc}") from exc

    magnitude = max(abs(closed_form), abs(value), 1.0)
    return OracleReport(
        closed_form_cost=closed_form,
        oracle_cost=value,
        relative_gap=_relative_gap(closed_form, value),
        control_max_abs_diff=float(np.max(np.abs(u - closed_u))),
        iterations=updates + 1,
        converged=True,
        discrepant=value < closed_form - BEAT_TOLERANCE * magnitude,
    )


def mc_validate(
    spec: ProblemSpec,
    schedule: CoefficientSchedule,
    gains: GainSchedule,
    n_paths: int,
    master_seed: int,
) -> OracleReport:
    """Compare predicted and Monte-Carlo realized cost under the solved gains.

    The two cost channels have different error models, so they are checked
    separately. The mean-channel terms are deterministic and must match the
    prediction to rounding (scale-relative floor). The moment terms are the
    only random part, so they must match their prediction within three
    plug-in standard errors (see realized_cost), with a floor relative to
    the moment scale itself; a floor relative to the total would swallow the
    moment channel whenever the mean cost dwarfs it. ``converged``
    (equivalently, not ``discrepant``) means both channels agree.

    The gate assumes a near-normal sample mean. Sextic deviation powers are
    heavy-tailed, so at a few thousand paths the mean is skewed low and the
    gate fires on correct code more often than 3 sigma suggests (example 4,
    p = 3, 4,000 paths: 4 of seeds 0-119, all below -3 standard errors, none
    above +3). More paths fix that; a better stderr does not.
    """
    ensemble = simulate_ensemble(spec, FeedbackPolicy(gains), n_paths, master_seed)
    report = realized_cost(spec, ensemble, schedule)
    closed_form, oracle = report.predicted, report.realized_mean

    mean_predicted = _mean_term(schedule, spec.initial)
    mean_realized = report.breakdown["state_power"] + report.breakdown["control_power"]
    mean_ok = abs(mean_predicted - mean_realized) <= 1e-10 * max(abs(mean_predicted), 1.0)

    moment_predicted = _deviation_term(schedule, spec.initial)
    moment_realized = report.breakdown["state_moment"] + report.breakdown["control_moment"]
    moment_budget = 3.0 * report.realized_stderr + 1e-10 * max(
        abs(moment_predicted), abs(moment_realized)
    )
    moment_ok = abs(moment_predicted - moment_realized) <= moment_budget

    agrees = mean_ok and moment_ok
    return OracleReport(
        closed_form_cost=closed_form,
        oracle_cost=oracle,
        relative_gap=_relative_gap(closed_form, oracle),
        control_max_abs_diff=0.0,
        iterations=0,
        converged=agrees,
        discrepant=not agrees,
        stderr=report.realized_stderr,
    )


@dataclass(frozen=True)
class ProbeReport:
    """Cost curves from scaling one gain channel at a time.

    ``curves`` maps channel name ("mean", "dev") to a tuple of
    (scale, realized cost, stderr) triples; ``min_at_unit`` says whether
    every channel attains its grid minimum at scale 1.0 within the error
    budget.
    """

    curves: dict[str, tuple[tuple[float, float, float], ...]]
    min_at_unit: bool


def _scaled_gains(gains: GainSchedule, channel: str, factor: float) -> GainSchedule:
    if channel == "mean":
        return GainSchedule(
            k_mean=tuple(factor * g for g in gains.k_mean), k_dev=gains.k_dev
        )
    return GainSchedule(
        k_mean=gains.k_mean, k_dev=tuple(factor * g for g in gains.k_dev)
    )


def local_optimality_probe(
    spec: ProblemSpec,
    schedule: CoefficientSchedule,
    gains: GainSchedule,
    grid: tuple[float, ...],
    n_paths: int,
    master_seed: int,
) -> ProbeReport:
    """Check that the solved gains are cost-minimizing along scaling rays.

    Every grid point reuses one draw of initial states and noise (common
    random numbers, the same draw a fresh ensemble with this master seed
    would make), so the cost curves are directly comparable; the minimum
    must sit at scale 1.0, with three standard errors of slack on stochastic
    classes (deterministic runs are exact).

    Args:
        spec: The problem to probe.
        schedule: The coefficients the gains were solved with.
        gains: Solved gains; scale 1.0 must be in the grid.
        grid: Multiplicative perturbations to apply per channel.
        n_paths: Paths per probe point.
        master_seed: Seed shared by every probe point.
    """
    if 1.0 not in grid:
        raise ValueError("the perturbation grid must include 1.0")
    channels = ["mean"] if gains.k_dev is None else ["mean", "dev"]
    curves: dict[str, tuple[tuple[float, float, float], ...]] = {}
    ok = True
    with _common_draws():
        for channel in channels:
            points = []
            for factor in grid:
                perturbed = _scaled_gains(gains, channel, factor)
                ensemble = simulate_ensemble(spec, FeedbackPolicy(perturbed), n_paths, master_seed)
                report = realized_cost(spec, ensemble, schedule)
                points.append((factor, report.realized_mean, report.realized_stderr))
            curves[channel] = tuple(points)
            unit_cost, unit_err = next((c, e) for f, c, e in points if f == 1.0)
            best_cost, best_err = min(((c, e) for _, c, e in points), key=lambda t: t[0])
            slack = 3.0 * (unit_err + best_err) + 1e-12 * max(abs(unit_cost), 1.0)
            if unit_cost > best_cost + slack:
                ok = False
    return ProbeReport(curves=curves, min_at_unit=ok)


@dataclass(frozen=True)
class ConvexityReport:
    """Result of the random midpoint-inequality sweep."""

    passed: bool
    n_checked: int
    counterexample: tuple[float, float] | None = None


def convexity_check(
    p: int, a: float, b: float, n_samples: int, master_seed: int
) -> ConvexityReport:
    """Strict midpoint convexity of f(z) = z**2p + (a z + b)**2p.

    Samples pairs z1 != z2 uniformly from [-10, 10] (rejecting pairs closer
    than 0.05, where the midpoint gap would drown in rounding) and requires
    f((z1+z2)/2) to undercut the chord midpoint by more than 1e-12 times the
    local value scale.

    Args:
        p: Half-power, >= 1.
        a: Slope inside the second term; must be nonzero.
        b: Offset inside the second term; must be nonzero.
        n_samples: Number of random pairs to test.
        master_seed: Seed for the pair draws.

    Returns:
        A ConvexityReport; ``counterexample`` holds the first failing pair.
    """
    if a == 0.0 or b == 0.0:
        raise ValueError("a and b must both be nonzero")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    two_p = 2 * p

    def f(z: float) -> float:
        return z ** two_p + (a * z + b) ** two_p

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(master_seed)))
    checked = 0
    while checked < n_samples:
        z1, z2 = rng.uniform(-10.0, 10.0, 2)
        if abs(z1 - z2) < 0.05:
            continue
        checked += 1
        f1, f2 = f(z1), f(z2)
        fm = f(0.5 * (z1 + z2))
        margin = 1e-12 * max(1.0, abs(f1), abs(f2), abs(fm))
        if 0.5 * (f1 + f2) - fm <= margin:
            return ConvexityReport(passed=False, n_checked=checked, counterexample=(z1, z2))
    return ConvexityReport(passed=True, n_checked=checked)
