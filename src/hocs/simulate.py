"""Closed-loop simulation: mean propagation, seeded ensembles, costs, KPIs.

A cost has two channels, checked apart: the mean channel (xbar and ubar
powers, exact given the mean path) and the random moment channel. _price_terms
prices them from a schedule and CostReport.channels realizes them, in that order.

The mean channel is deterministic for every problem class,

    xbar[k+1] = a_bar[k] xbar[k] + b_bar[k] ubar[k],

so it is propagated once by applying the policy at the mean and every path
measures its deviation against that path.

Randomness is laid out for reproducibility: a master seed feeds a seed
sequence whose first child drives the initial draws and whose second child
drives the noise matrix (one row per path, one column per step 1..N), so the
initial state is independent of the noise and a rerun with the same master
seed is bit-identical. The matrix is drawn from the spec's noise law in
consecutive blocks of ``_BLOCK`` paths from the one generator, which equals
one draw of the whole matrix bit for bit, and each block is rolled out right
after it is drawn; the problem class alone decides how the noise enters the
step, and the deterministic class draws none. The draw depends only on the
spec, the path count and the master seed, never on the policy, so callers
that roll out several policies or gain scalings on one seed (common random
numbers) open a ``_common_draws()`` scope and every rollout inside it reuses
one read-only (x0, noise blocks) draw; outside a scope each ensemble draws
afresh. Either way the numbers are the same.

Each ensemble is one block of states and controls. Besides that block and a
draw kept by a scope, every buffer holds one value per path or at most
_BLOCK values per step: realized_cost powers both channels' deviations in
one pass per block of _BLOCK // 2 paths, into a buffer and a spare of that
block's size, and central_moment and kpi read per-step moments that the
ensemble computes once, on first use, in slabs of whole steps. A run
whose footprint would exceed physical memory, the process's address-space
limit or its cgroup v2 memory limit is refused before anything is allocated.
"""

from __future__ import annotations

import functools
import math
import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import ClassVar

import numpy as np

from .control import Policy
from .model import (
    InvalidPolicy,
    MissingMoment,
    NonFiniteCoefficient,
    ProblemClass,
    ProblemSpec,
    _integer,
    _is_integer,
    _power,
)
from .recursion import CoefficientSchedule

__all__ = [
    "TrajectoryEnsemble",
    "CostReport",
    "simulate_ensemble",
    "central_moment",
    "realized_cost",
    "predicted_cost",
    "kpi",
]

#: Paths per noise block and per cost block; a moment slab holds
#: max(1, _BLOCK // n_paths) steps.
_BLOCK = 8192

#: The risk powers zeta that kpi accepts, in the order the KPI CSVs list them.
_ZETAS = (1, 2, 3)


@dataclass(frozen=True, eq=False)
class TrajectoryEnsemble:
    """Seeded Monte-Carlo paths of one closed-loop system.

    ``states`` is n_paths x (N+1), ``controls`` n_paths x N, both stored
    time-major (transposed views of one step x path block) so that the
    column ``[:, k]`` of one step is contiguous. That block, 8 (2N+1) bytes
    per path, is all an ensemble holds besides O(N) vectors. ``mean_path``
    and ``mean_controls`` hold the exactly propagated xbar/ubar. All
    read-only.
    """

    states: np.ndarray
    controls: np.ndarray
    mean_path: np.ndarray
    mean_controls: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def n_steps(self) -> int:
        return self.controls.shape[1]

    @cached_property
    def _deviation_means(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-step means of d2 = d*d, d2*d2 and (d2*d2)*d2, _even_power's
        products, for d the state and the control deviations: one re-centring
        pass per channel, in slabs of whole steps held by two reused buffers."""
        tables = []
        for values, centers in ((self.states, self.mean_path), (self.controls, self.mean_controls)):
            table = np.empty((3, values.shape[1]))
            for steps, square, power in _slabs(values.shape, 2):
                np.subtract(values[:, steps], centers[steps], out=square)
                np.multiply(square, square, out=square)
                table[0, steps] = square.mean(axis=0)
                table[1, steps] = np.multiply(square, square, out=power).mean(axis=0)
                table[2, steps] = np.multiply(power, square, out=power).mean(axis=0)
            tables.append(table)
        return tuple(tables)


def _slabs(shape: tuple[int, int], count: int):
    """Yield (steps, *buffers) over slabs of max(1, _BLOCK // n_paths) whole
    steps of an n_paths x steps array; the ``count`` buffers are n_paths x
    slab, columns contiguous, and reused from slab to slab."""
    n_paths, n_columns = shape
    width = min(n_columns, max(1, _BLOCK // n_paths))
    buffers = np.empty((count, width, n_paths)).transpose(0, 2, 1)
    for start in range(0, n_columns, width):
        stop = min(start + width, n_columns)
        yield slice(start, stop), *buffers[:, :, : stop - start]


@dataclass(frozen=True)
class CostReport:
    """Monte-Carlo estimate of an ensemble's expected cost; predicted_cost gives the price.

    ``breakdown`` splits realized_mean into its four term families
    (state_power, control_power, state_moment, control_moment); the entries
    sum to realized_mean exactly; ``channels`` pairs them by channel.
    """

    realized_mean: float
    realized_stderr: float
    breakdown: dict[str, float]
    n_paths: int
    # The stderr is closed-form, so no bootstrap resamples are ever drawn.
    n_bootstrap: ClassVar[int] = 0

    @property
    def channels(self) -> tuple[float, float]:
        """(mean, moment) channel: state_power + control_power, state_moment + control_moment."""
        b = self.breakdown
        return b["state_power"] + b["control_power"], b["state_moment"] + b["control_moment"]


def _even_power(
    x: np.ndarray, n: int, out: np.ndarray | None = None, spare: np.ndarray | None = None
) -> np.ndarray:
    """x**n for even n >= 2 as (x*x)**(n/2), by left-to-right binary powering
    of the square: one squaring per bit of n/2 after the leading one, then a
    product with the square where that bit is set. That is O(log n) products,
    which beat numpy's generic power tenfold for n >= 4. ``out`` may be
    ``x``: only the first product reads x. Past n = 4 the running power gets
    one extra buffer, ``spare`` (shaped like x) where the caller supplies it
    and a fresh array otherwise, and the last product lands on the square in
    ``out``. Where the buffers come from changes no bit of the result.
    """
    square = power = np.multiply(x, x, out=out)
    bits = bin(n // 2)[3:]
    for i, bit in enumerate(bits, 1):
        last = i == len(bits)
        running = spare if power is square else power
        power = np.multiply(power, power, out=square if last and bit == "0" else running)
        if bit == "1":
            power = np.multiply(power, square, out=square if last else power)
    return power


def _mean_channel(spec: ProblemSpec, policy: Policy) -> tuple[np.ndarray, np.ndarray]:
    """Propagate xbar and ubar by applying the policy at the mean."""
    n = spec.n_steps
    a_bar, b_bar = spec.a_bar, spec.b_bar
    mean_path = np.empty(n + 1)
    mean_controls = np.empty(n)
    mean_path[0] = spec.initial.mean
    for k in range(n):
        mean_controls[k] = policy.mean_control(k, mean_path[k])
        mean_path[k + 1] = a_bar[k] * mean_path[k] + b_bar[k] * mean_controls[k]
    return mean_path, mean_controls


#: Draws kept by the open _common_draws() scope, or None outside every scope.
_DRAWS: ContextVar[dict | None] = ContextVar("hocs_common_draws", default=None)


@contextmanager
def _common_draws():
    """Within the block, ensembles with equal (spec, n_paths, master_seed)
    share one (x0, eps) draw. A nested scope reuses the outer one; on exit,
    normal or by exception, the outermost scope drops every stored draw.
    """
    if _DRAWS.get() is not None:
        yield
        return
    token = _DRAWS.set({})
    try:
        yield
    finally:
        _DRAWS.reset(token)


def _draw(spec: ProblemSpec, n_paths: int, master_seed: int):
    """The read-only initial states and noise blocks of one seeded ensemble.

    The noise comes in consecutive blocks of up to _BLOCK paths, which
    together equal one (n_paths, N) draw bit for bit: block[:, k] realizes
    the step-(k+1) noise of its paths. The blocks are None for the
    deterministic class. Outside a scope they are drawn lazily, one at a
    time; inside a _common_draws() scope they are drawn at once and stored
    as a list, and a repeated key returns the stored draw.
    """
    store = _DRAWS.get()
    key = (spec, n_paths, master_seed)
    if store is not None and key in store:
        return store[key]
    init_seq, noise_seq = np.random.SeedSequence(master_seed).spawn(2)
    x0 = spec.initial.sample(np.random.Generator(np.random.PCG64(init_seq)), n_paths)
    x0.setflags(write=False)
    blocks = None
    if spec.problem_class is not ProblemClass.DETERMINISTIC:
        if spec.noise is None:
            raise MissingMoment(f"class {spec.problem_class.value} has no noise law to sample")
        noise_rng = np.random.Generator(np.random.PCG64(noise_seq))
        blocks = (spec.noise.sample(noise_rng, (min(_BLOCK, n_paths - start), spec.n_steps))
                  for start in range(0, n_paths, _BLOCK))
    if store is not None:
        if blocks is not None:
            blocks = list(blocks)
            for block in blocks:
                block.setflags(write=False)
        store[key] = x0, blocks
    return x0, blocks


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the system does not report them."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _address_space_limit() -> int | None:
    """The soft RLIMIT_AS in bytes, or None where it is unlimited or unreadable."""
    try:
        import resource
        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    except (ImportError, AttributeError, ValueError, OSError):
        return None
    return None if soft == resource.RLIM_INFINITY else soft


@functools.cache
def _cgroup_dir() -> str | None:
    """This process's cgroup v2 directory: the path on the 0::<path> line of
    /proc/self/cgroup, taken below the root of a cgroup2 mount in
    /proc/self/mountinfo that holds it and joined to that mount's point
    (/sys/fs/cgroup on a unified host, /sys/fs/cgroup/unified on a hybrid
    one). None where there is no such line (cgroup v1 only) or mount, or a
    file is unreadable. Read once per process."""
    try:
        with open("/proc/self/cgroup", encoding="utf-8") as handle:
            path = next((line[3:].strip() for line in handle if line.startswith("0::")), None)
        with open("/proc/self/mountinfo", encoding="utf-8") as handle:
            # ID parent major:minor root mount-point options ... - cgroup2 source options
            mounts = [line.split()[3:5] for line in handle if " - cgroup2 " in line]
    except OSError:
        return None
    for root, point in mounts:
        root = root.rstrip("/")
        if path is not None and (path == root or path.startswith(f"{root}/")):
            return f"{point}{path[len(root):]}".rstrip("/")
    return None


def _cgroup_memory_max() -> int | None:
    """The memory.max of this process's cgroup v2 in bytes, or None where it
    is "max", missing or unreadable."""
    directory = _cgroup_dir()
    if directory is None:
        return None
    try:
        with open(f"{directory}/memory.max", encoding="utf-8") as handle:
            text = handle.read().strip()
        return None if text == "max" else int(text)
    except (OSError, ValueError):
        return None


def _check_footprint(n_steps: int, n_paths: int) -> None:
    """Raise MemoryError, naming the bytes and the limit, before allocating an
    ensemble whose block, plus the draw a _common_draws() scope keeps, plus
    O(_BLOCK), exceeds the smallest of physical memory, the soft RLIMIT_AS
    and the cgroup v2 memory.max (each where the system reports it)."""
    columns = 2 * n_steps + 1 + (n_steps + 1 if _DRAWS.get() is not None else 0)
    needed = 8 * columns * (n_paths + _BLOCK)
    limits = [(limit, name) for limit, name in (
        (_physical_memory(), "physical memory"),
        (_address_space_limit(), "address-space limit (RLIMIT_AS)"),
        (_cgroup_memory_max(), "cgroup memory limit (memory.max)"),
    ) if limit is not None and limit > 0]
    limit, name = min(limits, default=(None, None))
    if limit is not None and needed > limit:
        raise MemoryError(f"{n_paths} paths of {n_steps} steps need {needed} bytes, "
                          f"more than the {limit} bytes of {name}")


def simulate_ensemble(
    spec: ProblemSpec, policy: Policy, n_paths: int, master_seed: int
) -> TrajectoryEnsemble:
    """Roll out the closed-loop system along seeded Monte-Carlo paths.

    Args:
        spec: The problem whose dynamics and laws drive the paths.
        policy: Any Policy (solved feedback or a reference controller).
        n_paths: Number of paths, an int >= 1.
        master_seed: Seed for the run, an int >= 0; reruns are bit-identical.

    Returns:
        A read-only TrajectoryEnsemble, stored time-major (see its class).

    Raises:
        ValueError: If n_paths or master_seed is not such an int (bools are refused).
        InvalidPolicy: If the policy pins a different horizon.
        MissingMoment: If the noise or initial law has nothing to sample.
        MemoryError: If the run would not fit in physical memory or the
            process's address-space or cgroup memory limit.
    """
    n_paths = _integer(n_paths, "n_paths", 1)
    master_seed = _integer(master_seed, "master_seed", 0)
    n = spec.n_steps
    if policy.n_steps is not None and policy.n_steps != n:
        raise InvalidPolicy(f"policy solved for horizon {policy.n_steps}, problem has {n}")
    _check_footprint(n, n_paths)

    # The block comes before the draw, so a freed draw leaves the heap top free for the next block.
    block = np.empty((2 * n + 1, n_paths))
    all_states, all_controls = block[: n + 1].T, block[n + 1 :].T
    x0, noise = _draw(spec, n_paths, master_seed)
    all_states[:, 0] = x0

    klass = spec.problem_class
    mean_path, mean_controls = _mean_channel(spec, policy)
    a_bar, b_bar, a_dev, b_dev = spec.a_bar, spec.b_bar, spec.a, spec.b

    # Each path block is rolled out right after its noise is drawn.
    noise = iter(repeat(None) if noise is None else noise)
    for start in range(0, n_paths, _BLOCK):
        states, controls = all_states[start : start + _BLOCK], all_controls[start : start + _BLOCK]
        eps = next(noise)
        for k in range(n):
            x, x_bar, u_bar = states[:, k], mean_path[k], mean_controls[k]
            u = controls[:, k] = np.asarray(policy.control(k, x, x_bar))

            if klass is ProblemClass.DETERMINISTIC:
                states[:, k + 1] = a_bar[k] * x + b_bar[k] * u
            elif klass is ProblemClass.ADDITIVE:
                states[:, k + 1] = a_bar[k] * x + b_bar[k] * u + eps[:, k]
            elif klass is ProblemClass.MULT_STATE:
                states[:, k + 1] = a_bar[k] * x + b_bar[k] * u + (x - x_bar) * eps[:, k]
            else:
                states[:, k + 1] = (
                    a_bar[k] * x_bar
                    + b_bar[k] * u_bar
                    + (a_dev[k] * (x - x_bar) + b_dev[k] * (u - u_bar)) * eps[:, k]
                )
        del eps  # so the next block is drawn after this one is freed

    for arr in (all_states, all_controls, mean_path, mean_controls):
        arr.setflags(write=False)

    return TrajectoryEnsemble(all_states, all_controls, mean_path, mean_controls)


def central_moment(ensemble: TrajectoryEnsemble, order: int) -> np.ndarray:
    """Ensemble averages of (x[k] - xbar[k])**order, k = 0..N, for even order."""
    order = _integer(order, "moment order", 2, even=True)
    if order <= 6:
        return ensemble._deviation_means[0][order // 2 - 1].copy()
    means = np.empty(ensemble.states.shape[1])
    for steps, deviations in _slabs(ensemble.states.shape, 1):
        np.subtract(ensemble.states[:, steps], ensemble.mean_path[steps], out=deviations)
        means[steps] = _even_power(deviations, order, out=deviations).mean(axis=0)
    return means


def realized_cost(spec: ProblemSpec, ensemble: TrajectoryEnsemble) -> CostReport:
    """Estimate the expected cost of an ensemble; it prices nothing.

    The mean-channel terms (xbar**2p, ubar**2p) are deterministic given the
    ensemble's mean path; the moment terms are ensemble averages of per-path
    deviation powers. The standard error covers the moment terms: the
    plug-in s/sqrt(n) of the per-path moment costs, with s the population
    standard deviation. Deviations are powered one block of _BLOCK // 2
    paths at a time, so the call holds O(_BLOCK) floats plus a few per-path
    vectors.

    Args:
        spec: The problem the ensemble was generated from.
        ensemble: Simulated trajectories.

    Returns:
        A CostReport; its breakdown entries sum to realized_mean exactly.
    """
    two_p, two_o = 2 * spec.p, 2 * spec.o
    n = ensemble.n_steps
    x_bar, u_bar = ensemble.mean_path, ensemble.mean_controls

    mean_powers = _even_power(x_bar, two_p)
    state_power = float(np.dot(spec.q_bar, mean_powers[:-1]) + spec.q_bar_terminal * mean_powers[n])
    control_power = float(np.dot(spec.r_bar, _even_power(u_bar, two_p)))

    # Per block of _BLOCK // 2 paths: controls, then states, powered in one
    # _even_power call into a reused buffer, with a reused spare beside it;
    # the two hold (2N+1) _BLOCK floats at most, and only the per-path
    # vectors grow with n_paths.
    n_paths, width = ensemble.n_paths, _BLOCK // 2
    buffer, spare = np.empty((2, 2 * n + 1, min(width, n_paths))).transpose(0, 2, 1)
    state_moment_paths, control_moment_paths = np.empty(n_paths), np.empty(n_paths)
    q, r = np.asarray(spec.q), np.asarray(spec.r)
    for start in range(0, n_paths, width):
        paths = slice(start, min(start + width, n_paths))
        powers = buffer[: paths.stop - start]
        np.subtract(ensemble.controls[paths], u_bar, out=powers[:, :n])
        np.subtract(ensemble.states[paths], x_bar, out=powers[:, n:])
        _even_power(powers, two_o, out=powers, spare=spare[: paths.stop - start])
        state_moment_paths[paths] = powers[:, n:-1] @ q
        state_moment_paths[paths] += spec.q_terminal * powers[:, -1]
        control_moment_paths[paths] = powers[:, :n] @ r

    breakdown = {
        "state_power": state_power,
        "control_power": control_power,
        "state_moment": float(state_moment_paths.mean()),
        "control_moment": float(control_moment_paths.mean()),
    }
    per_path = np.add(state_moment_paths, control_moment_paths, out=state_moment_paths)
    del control_moment_paths  # std's temporary takes its place
    return CostReport(
        realized_mean=sum(breakdown.values()),
        realized_stderr=float(per_path.std()) / math.sqrt(n_paths),
        breakdown=breakdown,
        n_paths=n_paths,
    )


def predicted_cost(schedule: CoefficientSchedule, initial) -> float:
    """Optimal expected cost from the solved coefficients and the initial law: _price_terms' sum.

    Raises:
        NonFiniteCoefficient: If the price overflows (a huge initial mean).
    """
    mean, moment = _price_terms(schedule, initial)
    return moment + mean


def _price_terms(schedule: CoefficientSchedule, initial) -> tuple[float, float]:
    """The price by channel, (mean term, moment term), each at its own scale.

    The mean term is alpha_bar[0] xbar0**2p; the moment term alpha[0]
    E[(x0 - xbar0)**2o] plus gamma_bar[0], each where the schedule holds
    that channel, so 0 for the deterministic class. Never derive the moment
    term as total minus mean term: the mean term can be ten orders larger (a
    moment term of 1e-12 is lost when added to a mean cost of 1e7). A
    non-finite total raises NonFiniteCoefficient.
    """
    moment = 0.0
    if schedule.alpha is not None:
        moment = schedule.alpha[0] * initial.central_moment(2 * schedule.o)
    if schedule.gamma_bar is not None:
        moment += schedule.gamma_bar[0]
    mean = schedule.alpha_bar[0] * _power(initial.mean, 2 * schedule.p)
    if not math.isfinite(moment + mean):
        raise NonFiniteCoefficient(f"predicted cost = {moment + mean} at step 0 is not finite")
    return mean, moment


def kpi(ensemble: TrajectoryEnsemble, zeta: int) -> tuple[float, float]:
    """Performance indices summing 2*zeta powers of deviations and means.

    kpi_x sums E[(x[k] - xbar[k])**2z] + xbar[k]**2z over k = 0..N; kpi_u
    sums the control analogue over k = 0..N-1 (there is no control at N).
    Expectations are ensemble averages, so a single-path ensemble yields the
    per-path index itself.

    Args:
        ensemble: Simulated trajectories.
        zeta: Risk power, one of 1, 2, 3.

    Returns:
        The pair (kpi_x, kpi_u).
    """
    if not (_is_integer(zeta) and zeta in _ZETAS):  # refuses 2.0 and True, which equal members
        raise ValueError(f"zeta must be 1, 2, or 3, got {zeta!r}")
    centers = (ensemble.mean_path, ensemble.mean_controls)
    return tuple(float(np.sum(means[zeta - 1]) + np.sum(_even_power(center, 2 * zeta)))
                 for means, center in zip(ensemble._deviation_means, centers))
