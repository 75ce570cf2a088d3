"""Tests for seeded simulation, cost evaluation, and performance indices."""

import dataclasses
import io
import math
import resource
import tracemalloc

import numpy as np
import pytest

from hocs import (
    Empirical,
    FeedbackPolicy,
    Gaussian,
    GaussianVariance,
    InitialLaw,
    InvalidPolicy,
    LengthMismatch,
    MissingMoment,
    Moments,
    ProblemSpec,
    Rademacher,
    TrajectoryEnsemble,
    UniformSymmetric,
    central_moment,
    example_config,
    kpi,
    predicted_cost,
    realized_cost,
    simulate_ensemble,
    solve,
)
from hocs.cli import main
from hocs.config import render_config
from hocs import simulate
from hocs.simulate import _BLOCK, _DRAWS, _common_draws, _draw, _even_power, _price_terms


def _hand_ensemble(states, controls, mean_path, mean_controls):
    return TrajectoryEnsemble(
        states=np.asarray(states, dtype=float),
        controls=np.asarray(controls, dtype=float),
        mean_path=np.asarray(mean_path, dtype=float),
        mean_controls=np.asarray(mean_controls, dtype=float),
    )


# --------------------------------------------------------------------------
# Reproducibility and the mean channel
# --------------------------------------------------------------------------

def test_same_seed_reproduces_bit_identical_paths():
    spec = example_config(3, 2).problem
    _, policy = solve(spec)
    first = simulate_ensemble(spec, policy, n_paths=64, master_seed=11)
    second = simulate_ensemble(spec, policy, n_paths=64, master_seed=11)
    assert np.array_equal(first.states, second.states)
    assert np.array_equal(first.controls, second.controls)
    third = simulate_ensemble(spec, policy, n_paths=64, master_seed=12)
    assert not np.array_equal(first.states, third.states)


def test_exact_mean_path_ignores_seed_and_ensemble_size():
    spec = example_config(2, 2).problem
    _, policy = solve(spec)
    small = simulate_ensemble(spec, policy, n_paths=3, master_seed=1)
    large = simulate_ensemble(spec, policy, n_paths=200, master_seed=999)
    assert np.array_equal(small.mean_path, large.mean_path)
    assert np.array_equal(small.mean_controls, large.mean_controls)


def test_deterministic_paths_equal_mean_path():
    spec = example_config(1, 2).problem
    schedule, policy = solve(spec)
    ensemble = simulate_ensemble(spec, policy, n_paths=3, master_seed=5)
    for row in ensemble.states:
        np.testing.assert_allclose(row, ensemble.mean_path, rtol=0, atol=0)
    report = realized_cost(spec, ensemble)
    expected = schedule.alpha_bar[0] * spec.initial.mean ** (2 * spec.p)
    assert math.isclose(report.realized_mean, expected, rel_tol=1e-10)
    assert report.realized_stderr == 0.0


def test_propagate_mean_geometric_decay():
    spec = ProblemSpec(
        "deterministic", 4,
        a_bar=1.0, b_bar=1.0, q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=1,
        initial=InitialLaw(mean=8.0),
    )
    gains = FeedbackPolicy(k_mean=(0.5, 0.5, 0.5, 0.5))
    ensemble = simulate_ensemble(spec, gains, n_paths=1, master_seed=0)
    np.testing.assert_allclose(
        ensemble.mean_path, [8.0, 4.0, 2.0, 1.0, 0.5], rtol=0, atol=0
    )


def test_ensemble_arrays_are_read_only():
    spec = example_config(1, 1).problem
    _, policy = solve(spec)
    ensemble = simulate_ensemble(spec, policy, n_paths=2, master_seed=0)
    with pytest.raises(ValueError):
        ensemble.states[0, 0] = 99.0


def test_moment_table_defaults_to_variance_and_risk_order(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(render_config(example_config(4, 3)), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config_path), "--out", str(out),
                 "--paths", "10", "--seed", "0"]) == 0
    header = (out / "moments.csv").read_text().splitlines()[0]
    assert header == "k,central_2,central_6"


def test_ensemble_columns_are_contiguous_and_read_only():
    spec = example_config(4, 3).problem
    _, policy = solve(spec)
    ensemble = simulate_ensemble(spec, policy, n_paths=50, master_seed=0)
    assert ensemble.states.shape == (50, spec.n_steps + 1)
    assert ensemble.controls.shape == (50, spec.n_steps)
    for k in range(spec.n_steps):
        for column in (ensemble.states[:, k], ensemble.controls[:, k]):
            assert column.flags.c_contiguous
            assert not column.flags.writeable
    assert ensemble.states[:, spec.n_steps].flags.c_contiguous
    for array in (ensemble.states, ensemble.controls):
        with pytest.raises(ValueError):
            array[0, 0] = 99.0


# Hand-built ensembles of 2 paths and 3 steps with one field misshapen. Each
# once got past the constructor: zero steps or paths then failed in the
# reductions with a bare range() or ZeroDivisionError, a short mean path with
# a numpy broadcast error, and mismatched path counts were reduced in silence.
@pytest.mark.parametrize("field,shape,match", [
    ("states", (2, 1), r"^states must be n_paths x \(N\+1\) with n_paths >= 1 and N >= 1, "
                       r"got shape \(2, 1\)$"),
    ("states", (0, 4), r"^states .* got shape \(0, 4\)$"),
    ("states", (4,), r"^states .* got shape \(4,\)$"),
    ("controls", (3, 3), r"^controls must have shape \(2, 3\), got \(3, 3\)$"),
    ("controls", (2, 4), r"^controls must have shape \(2, 3\), got \(2, 4\)$"),
    ("mean_path", (3,), r"^mean_path must have shape \(4,\), got \(3,\)$"),
    ("mean_controls", (2, 3), r"^mean_controls must have shape \(3,\), got \(2, 3\)$"),
], ids=["no-steps", "no-paths", "flat-states", "path-count", "step-count", "short-mean-path",
        "2d-mean-controls"])
def test_hand_built_ensemble_refuses_a_misshapen_field(field, shape, match):
    fields = {"states": (2, 4), "controls": (2, 3), "mean_path": (4,), "mean_controls": (3,)}
    fields[field] = shape
    with pytest.raises(ValueError, match=match):
        _hand_ensemble(*(np.zeros(fields[name]) for name in
                         ("states", "controls", "mean_path", "mean_controls")))


def test_hand_built_ensemble_past_the_float_range_is_legal():
    ensemble = _hand_ensemble([[1e308, -math.inf]], [[1e308]], [0.0, 0.0], [0.0])
    with np.errstate(over="ignore"):
        assert kpi(ensemble, 1) == (math.inf, math.inf)
    assert ensemble.n_paths == ensemble.n_steps == 1


# --------------------------------------------------------------------------
# Common random numbers: one draw per scope
# --------------------------------------------------------------------------

def test_common_draws_scope_reuses_one_draw_and_forgets_it():
    spec = example_config(4, 3).problem
    _, policy = solve(spec)
    n_paths = _BLOCK + 1  # two noise blocks
    # Outside a scope every draw is fresh: equal blocks in fresh memory.
    draws = [list(_draw(spec, n_paths, 5)[1]) for _ in range(2)]
    assert [len(blocks) for blocks in draws] == [2, 2]
    for block, again in zip(*draws):
        assert np.array_equal(block, again) and not np.shares_memory(block, again)
    with _common_draws():
        first = simulate_ensemble(spec, policy, n_paths=n_paths, master_seed=5)
        second = simulate_ensemble(spec, policy, n_paths=n_paths, master_seed=5)
        x0, eps = _draw(spec, n_paths, 5)
        assert isinstance(eps, list) and len(eps) == 2
        assert len(_DRAWS.get()) == 1
        other_x0, other_eps = _draw(spec, n_paths, 6)
        assert len(_DRAWS.get()) == 2
    assert _DRAWS.get() is None
    fresh = simulate_ensemble(spec, policy, n_paths=n_paths, master_seed=5)

    for ensemble in (second, fresh):
        assert np.array_equal(ensemble.states, first.states)
        assert np.array_equal(ensemble.controls, first.controls)
    assert not np.shares_memory(first.states, second.states)
    assert not np.shares_memory(first.controls, second.controls)
    assert not any(array.flags.writeable for array in (x0, *eps))
    assert not np.array_equal(other_x0, x0)
    assert not any(np.array_equal(a, b) for a, b in zip(other_eps, eps))
    for block, stored in zip(draws[0], eps):
        assert np.array_equal(block, stored)


_SAMPLED_LAWS = [Gaussian(0.7), GaussianVariance(2.0), Rademacher(1.5),
                 UniformSymmetric(0.3), Empirical((-1.0, 0.25, 2.0))]


@pytest.mark.parametrize("law", _SAMPLED_LAWS, ids=lambda law: type(law).__name__)
@pytest.mark.parametrize("n_paths", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7])
def test_noise_blocks_equal_one_draw_bit_for_bit(law, n_paths):
    spec = dataclasses.replace(example_config(2, 2).problem, noise=law)
    blocks = list(_draw(spec, n_paths, 23)[1])
    assert [len(block) for block in blocks[:-1]] == [_BLOCK] * (len(blocks) - 1)
    noise_seq = np.random.SeedSequence(23).spawn(2)[1]
    whole = law.sample(np.random.Generator(np.random.PCG64(noise_seq)), (n_paths, spec.n_steps))
    assert np.array_equal(np.concatenate(blocks), whole)


def test_ensemble_outside_a_scope_holds_its_block_and_one_noise_block():
    # The full (n_paths, N) noise matrix would cost 8 N n_paths bytes more.
    spec = example_config(2, 2).problem
    _, policy = solve(spec)
    n_paths, n = 4 * _BLOCK + 7, spec.n_steps
    simulate_ensemble(spec, policy, n_paths=1, master_seed=3)  # numpy's lazy imports
    tracemalloc.start()
    try:
        ensemble = simulate_ensemble(spec, policy, n_paths=n_paths, master_seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block_bytes = 8 * (2 * n + 1) * n_paths
    assert ensemble.states.base is ensemble.controls.base
    assert ensemble.states.base.nbytes == block_bytes
    # The block, x0, one noise block and a few block-sized step temporaries
    # (measured: 8 (n + 4.05) _BLOCK bytes past the block and x0).
    assert peak <= block_bytes + 8 * n_paths + 8 * (n + 6) * _BLOCK


def test_footprint_over_physical_memory_is_refused_before_allocating(monkeypatch):
    # numpy fails at once on 2**50 paths, but with its own message.
    monkeypatch.setattr(simulate, "_address_space_limit", lambda: None)
    monkeypatch.setattr(simulate, "_cgroup_memory_max", lambda: None)
    spec = example_config(2, 2).problem
    _, policy = solve(spec)
    needed = 8 * (2 * spec.n_steps + 1) * (2**50 + _BLOCK)
    with pytest.raises(MemoryError, match=rf"^{2**50} paths of 10 steps need {needed} bytes, "
                                          r"more than the \d+ bytes of physical memory$"):
        simulate_ensemble(spec, policy, n_paths=2**50, master_seed=0)
    with _common_draws(), pytest.raises(MemoryError, match=f"need {needed + 8 * 11 * (2**50 + _BLOCK)} bytes"):
        simulate_ensemble(spec, policy, n_paths=2**50, master_seed=0)


@pytest.fixture
def fake_files(monkeypatch):
    """A path -> text map that serves ``open`` in the simulate module (other
    paths are missing), with the cached cgroup directory read afresh."""
    files = {}

    def fake_open(path, *args, **kwargs):
        if path not in files:
            raise FileNotFoundError(path)
        return io.StringIO(files[path])

    monkeypatch.setattr(simulate, "open", fake_open, raising=False)
    simulate._cgroup_dir.cache_clear()
    yield files
    simulate._cgroup_dir.cache_clear()


@pytest.mark.parametrize("soft,binds", [(2**20, True), (resource.RLIM_INFINITY, False)])
def test_address_space_limit_binds_unless_unlimited(monkeypatch, soft, binds):
    monkeypatch.setattr(resource, "getrlimit", lambda which: (soft, resource.RLIM_INFINITY))
    monkeypatch.setattr(simulate, "_cgroup_memory_max", lambda: None)
    spec = example_config(2, 2).problem
    _, policy = solve(spec)
    needed = 8 * (2 * spec.n_steps + 1) * (100 + _BLOCK)
    assert simulate._address_space_limit() == (soft if binds else None)
    if binds:
        with pytest.raises(MemoryError, match=rf"^100 paths of 10 steps need {needed} bytes, "
                                              rf"more than the {2**20} bytes of address-space "
                                              r"limit \(RLIMIT_AS\)$"):
            simulate_ensemble(spec, policy, n_paths=100, master_seed=0)
    else:
        assert simulate_ensemble(spec, policy, n_paths=100, master_seed=0).n_paths == 100


# /proc/self/mountinfo of a unified host, of a hybrid one (the cgroup2 tree
# below a tmpfs of v1 hierarchies) and of a container whose cgroup2 mount
# shows the host's tree from /ctr down.
_UNIFIED = "30 24 0:26 / /sys/fs/cgroup rw,nosuid shared:4 - cgroup2 cgroup2 rw\n"
_HYBRID = ("32 24 0:28 / /sys/fs/cgroup rw - tmpfs tmpfs rw,mode=755\n"
           "36 32 0:32 / /sys/fs/cgroup/memory rw - cgroup cgroup rw,memory\n"
           "42 32 0:38 / /sys/fs/cgroup/unified rw,relatime - cgroup2 cgroup2 rw\n")
_CONTAINER = "51 40 0:26 /ctr /sys/fs/cgroup ro - cgroup2 cgroup2 rw\n"


@pytest.mark.parametrize("files,limit", [
    ({"/proc/self/cgroup": "0::/box\n", "/proc/self/mountinfo": _UNIFIED,
      "/sys/fs/cgroup/box/memory.max": "1048576\n"}, 2**20),
    ({"/proc/self/cgroup": "0::/\n", "/proc/self/mountinfo": _UNIFIED,
      "/sys/fs/cgroup/memory.max": "1048576\n"}, 2**20),
    ({"/proc/self/cgroup": "0::/box\n", "/proc/self/mountinfo": _UNIFIED,
      "/sys/fs/cgroup/box/memory.max": "max\n"}, None),
    ({"/proc/self/cgroup": "0::/box\n", "/proc/self/mountinfo": _UNIFIED}, None),
    ({"/proc/self/cgroup": "4:memory:/box\n", "/proc/self/mountinfo": _UNIFIED,
      "/sys/fs/cgroup/box/memory.max": "1048576\n"}, None),
    ({}, None),
    ({"/proc/self/cgroup": "4:memory:/box\n0::/box\n", "/proc/self/mountinfo": _HYBRID,
      "/sys/fs/cgroup/box/memory.max": "1\n",
      "/sys/fs/cgroup/unified/box/memory.max": "1048576\n"}, 2**20),
    ({"/proc/self/cgroup": "0::/ctr/box\n", "/proc/self/mountinfo": _CONTAINER,
      "/sys/fs/cgroup/box/memory.max": "1048576\n"}, 2**20),
    ({"/proc/self/cgroup": "0::/other\n", "/proc/self/mountinfo": _CONTAINER,
      "/sys/fs/cgroup/memory.max": "1\n", "/sys/fs/cgroup/other/memory.max": "1\n"}, None),
    ({"/proc/self/cgroup": "0::/box\n", "/proc/self/mountinfo": _HYBRID.replace("cgroup2", "ext4"),
      "/sys/fs/cgroup/box/memory.max": "1\n"}, None),
    ({"/proc/self/cgroup": "0::/box\n", "/sys/fs/cgroup/box/memory.max": "1\n"}, None),
], ids=["nested", "root", "unlimited", "no-memory.max", "v1-only", "unreadable", "hybrid",
        "container-root", "outside-the-mount", "no-cgroup2-mount", "no-mountinfo"])
def test_cgroup_memory_max_binds_unless_max_or_missing(monkeypatch, fake_files, files, limit):
    fake_files.update(files)
    monkeypatch.setattr(simulate, "_address_space_limit", lambda: None)
    spec = example_config(2, 2).problem
    _, policy = solve(spec)
    needed = 8 * (2 * spec.n_steps + 1) * (100 + _BLOCK)
    assert simulate._cgroup_memory_max() == limit
    if limit is not None:
        with pytest.raises(MemoryError, match=rf"^100 paths of 10 steps need {needed} bytes, "
                                              rf"more than the {limit} bytes of cgroup memory "
                                              r"limit \(memory.max\)$"):
            simulate_ensemble(spec, policy, n_paths=100, master_seed=0)
    else:
        assert simulate_ensemble(spec, policy, n_paths=100, master_seed=0).n_paths == 100


def test_cgroup_directory_is_read_once_and_memory_max_on_every_call(fake_files):
    fake_files.update({"/proc/self/cgroup": "0::/box\n", "/proc/self/mountinfo": _HYBRID,
                       "/sys/fs/cgroup/unified/box/memory.max": "1048576\n"})
    assert simulate._cgroup_memory_max() == 2**20
    fake_files["/sys/fs/cgroup/unified/box/memory.max"] = "max\n"
    fake_files["/proc/self/mountinfo"] = _UNIFIED
    assert simulate._cgroup_memory_max() is None
    assert simulate._cgroup_dir() == "/sys/fs/cgroup/unified/box"
    assert simulate._cgroup_dir.cache_info().misses == 1


# --------------------------------------------------------------------------
# Input validation
# --------------------------------------------------------------------------

def test_simulate_rejects_bad_arguments():
    spec = example_config(1, 1).problem
    _, policy = solve(spec)
    with pytest.raises(ValueError):
        simulate_ensemble(spec, policy, n_paths=0, master_seed=0)


@pytest.mark.parametrize("name, value", [
    ("n_paths", True), ("n_paths", 2.5), ("n_paths", 0), ("n_paths", 2.0**50),
    ("master_seed", 1.5), ("master_seed", True), ("master_seed", -1),
], ids=["n_paths-bool", "n_paths-float", "n_paths-zero", "n_paths-huge-float",
        "master_seed-float", "master_seed-bool", "master_seed-negative"])
def test_simulate_checks_its_count_and_seed(name, value):
    # Before the memory check (2.0**50 paths would not fit), and before numpy,
    # which would raise its own TypeError or read True as seed 1.
    spec = example_config(1, 1).problem
    _, policy = solve(spec)
    match = rf"^{name} must be an integer >= {1 if name == 'n_paths' else 0}, got {value!r}$"
    with pytest.raises(ValueError, match=match):
        simulate_ensemble(spec, policy, **{"n_paths": 2, "master_seed": 0, name: value})


def test_simulate_rejects_policy_with_wrong_horizon():
    spec = example_config(2, 1).problem
    short = FeedbackPolicy(k_mean=(0.1,), k_dev=(0.1,))
    with pytest.raises(InvalidPolicy):
        simulate_ensemble(spec, short, n_paths=2, master_seed=0)


def test_realized_cost_names_a_horizon_mismatch():
    # numpy once raised "shapes (10,) and (6,) not aligned" here.
    spec, other = example_config(2, 1).problem, example_config(1, 1).problem
    ensemble = simulate_ensemble(other, solve(other)[1], n_paths=2, master_seed=0)
    with pytest.raises(LengthMismatch, match=r"^ensemble simulated for horizon 6, problem has 10$"):
        realized_cost(spec, ensemble)


def test_simulate_needs_a_samplable_noise_law():
    spec = ProblemSpec(
        "additive", 2,
        a_bar=1.0, b_bar=1.0, q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=1,
        q=1.0, q_terminal=1.0, r=1.0,
        noise=Moments({2: 1.0}),
        initial=InitialLaw(mean=1.0),
    )
    _, policy = solve(spec)
    with pytest.raises(MissingMoment):
        simulate_ensemble(spec, policy, n_paths=2, master_seed=0)


# --------------------------------------------------------------------------
# Moment tracking
# --------------------------------------------------------------------------

def test_mult_state_variance_tracks_theory():
    # Closed loop, dev[k+1] = (a_bar - b_bar k_dev) dev + dev eps, so the
    # variance multiplies by (a_bar - b_bar k_dev)^2 + E[eps^2] each step.
    # Moderate sigma keeps the kurtosis of the product bounded enough for the
    # plug-in stderr to be meaningful over the whole horizon.
    spec = ProblemSpec(
        "mult_state", 6,
        a_bar=1.0, b_bar=1.0, q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=1,
        q=1.0, q_terminal=1.0, r=1.0,
        noise=Gaussian(sigma=0.3),
        initial=InitialLaw(mean=2.0, law=Empirical(samples=(-0.3, 0.3))),
    )
    _, policy = solve(spec)
    _, gains = solve(spec)
    n_paths = 100_000
    ensemble = simulate_ensemble(spec, policy, n_paths, master_seed=2024)
    m2_hat = central_moment(ensemble, 2)
    m4_hat = central_moment(ensemble, 4)

    sigma2 = spec.noise.even_moment(2)
    var_theory = spec.initial.central_moment(2)
    for k in range(spec.n_steps + 1):
        stderr = math.sqrt(max(m4_hat[k] - m2_hat[k] ** 2, 0.0) / n_paths)
        assert abs(m2_hat[k] - var_theory) <= 3.0 * stderr + 1e-12
        if k < spec.n_steps:
            closed = spec.a_bar[k] - spec.b_bar[k] * gains.k_dev[k]
            var_theory *= closed ** 2 + sigma2


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 14, 40])
def test_even_power_matches_numpy_power(n):
    x = np.random.default_rng(n).normal(0.0, 2.0, (500, 7))
    expected = x ** n
    # Rounding grows with the number of products, about log2(n) of them.
    rtol = 1e-15 if n <= 12 else 1e-14
    np.testing.assert_allclose(_even_power(x, n), expected, rtol=rtol, atol=0)
    # Powering a buffer into itself must not square the running product.
    buffer = x.copy()
    result = _even_power(buffer, n, out=buffer)
    assert result is buffer
    np.testing.assert_allclose(buffer, expected, rtol=rtol, atol=0)
    # A given spare holds the running power: the same bits, and no allocation.
    buffer, spare = x.copy(), np.empty_like(x)
    tracemalloc.start()
    try:
        result = _even_power(buffer, n, out=buffer, spare=spare)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result is buffer
    assert np.array_equal(buffer, _even_power(x, n))
    assert peak < 1024


def test_central_moment_matches_exactly_summed_mean():
    spec = example_config(3, 1).problem
    _, policy = solve(spec)
    n_paths = 100_000
    ensemble = simulate_ensemble(spec, policy, n_paths, master_seed=42)
    moments = central_moment(ensemble, 2)
    assert moments.shape == (spec.n_steps + 1,)
    for k in range(spec.n_steps + 1):
        deviations = ensemble.states[:, k] - ensemble.mean_path[k]
        exact = math.fsum(deviations * deviations) / n_paths
        assert math.isclose(moments[k], exact, rel_tol=1e-15), k
    with pytest.raises(ValueError):
        central_moment(ensemble, 3)


def test_mult_state_point_mass_initial_has_no_spread():
    spec = ProblemSpec(
        "mult_state", 5,
        a_bar=1.2, b_bar=1.0, q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=1,
        q=1.0, q_terminal=1.0, r=1.0,
        noise=Gaussian(sigma=1.0),
        initial=InitialLaw(mean=4.0),
    )
    _, policy = solve(spec)
    ensemble = simulate_ensemble(spec, policy, n_paths=50, master_seed=9)
    # Multiplicative-in-deviation noise cannot create spread from nothing.
    np.testing.assert_allclose(
        ensemble.states, np.broadcast_to(ensemble.mean_path, ensemble.states.shape),
        rtol=0, atol=0,
    )


# --------------------------------------------------------------------------
# Costs
# --------------------------------------------------------------------------

def test_realized_cost_breakdown_sums_exactly():
    spec = example_config(2, 2).problem
    _, policy = solve(spec)
    ensemble = simulate_ensemble(spec, policy, n_paths=300, master_seed=17)
    report = realized_cost(spec, ensemble)
    assert sum(report.breakdown.values()) == report.realized_mean
    assert set(report.breakdown) == {
        "state_power", "control_power", "state_moment", "control_moment",
    }
    assert report.n_paths == 300
    assert report.realized_stderr > 0.0


def test_cost_report_channels_pair_the_breakdown_as_the_price_does():
    spec = example_config(2, 2).problem
    schedule, policy = solve(spec)
    report = realized_cost(spec, simulate_ensemble(spec, policy, 300, 17))
    parts = report.breakdown
    assert report.channels == (parts["state_power"] + parts["control_power"],
                               parts["state_moment"] + parts["control_moment"])
    mean, moment = _price_terms(schedule, spec.initial)
    assert predicted_cost(schedule, spec.initial) == moment + mean
    assert mean == schedule.alpha_bar[0] * spec.initial.mean ** 4
    assert moment == schedule.gamma_bar[0]  # a Dirac initial law has no spread


def test_realized_cost_without_bootstrap_has_no_stderr():
    # A single path has no spread to estimate, and no resamples are drawn.
    spec = example_config(2, 1).problem
    _, policy = solve(spec)
    ensemble = simulate_ensemble(spec, policy, n_paths=1, master_seed=17)
    report = realized_cost(spec, ensemble)
    assert report.realized_stderr == 0.0
    assert report.n_bootstrap == 0


def _per_path_moment_costs(spec, ensemble):
    """Per-path deviation-power cost, summed step by step."""
    two_o, n = 2 * spec.o, ensemble.n_steps
    total = np.zeros(ensemble.n_paths)
    for k in range(n):
        total += spec.q[k] * (ensemble.states[:, k] - ensemble.mean_path[k]) ** two_o
        total += spec.r[k] * (ensemble.controls[:, k] - ensemble.mean_controls[k]) ** two_o
    total += spec.q_terminal * (ensemble.states[:, n] - ensemble.mean_path[n]) ** two_o
    return total


def test_realized_stderr_is_plug_in_standard_error():
    spec = example_config(3, 2).problem
    _, policy = solve(spec)
    ensemble = simulate_ensemble(spec, policy, n_paths=300, master_seed=17)
    report = realized_cost(spec, ensemble)
    per_path = _per_path_moment_costs(spec, ensemble)
    assert math.isclose(report.realized_stderr, per_path.std() / math.sqrt(300),
                        rel_tol=1e-12)


@pytest.mark.parametrize("example_id,p", [(2, 1), (3, 1), (4, 1), (4, 2), (4, 3)])
def test_realized_stderr_agrees_with_path_bootstrap(example_id, p):
    spec = example_config(example_id, p).problem
    _, policy = solve(spec)
    n_paths = 20_000
    ensemble = simulate_ensemble(spec, policy, n_paths, master_seed=42)
    report = realized_cost(spec, ensemble)
    per_path = _per_path_moment_costs(spec, ensemble)
    rng = np.random.default_rng(0)
    resampled = [per_path[rng.integers(0, n_paths, n_paths)].mean() for _ in range(200)]
    bootstrap = float(np.std(resampled, ddof=1))
    assert abs(report.realized_stderr / bootstrap - 1.0) <= 0.10


def test_additive_cost_matches_prediction_within_noise():
    config = example_config(2, 1)
    spec = config.problem
    schedule, policy = solve(spec)
    ensemble = simulate_ensemble(spec, policy, n_paths=20_000, master_seed=42)
    report = realized_cost(spec, ensemble)
    assert report.realized_stderr > 0.0
    predicted = predicted_cost(schedule, spec.initial)
    assert abs(report.realized_mean - predicted) <= 3.0 * report.realized_stderr


def test_predicted_cost_desk_values():
    quartic = ProblemSpec(
        "deterministic", 1,
        a_bar=1.0, b_bar=1.0, q_bar=[0.0], q_bar_terminal=1.0, r_bar=1.0, p=2,
        initial=InitialLaw(mean=1.0),
    )
    schedule, _ = solve(quartic)
    assert math.isclose(predicted_cost(schedule, quartic.initial), 0.125, rel_tol=1e-14)

    # Zero mean and point-mass start: only the noise offset remains.
    offset_only = ProblemSpec(
        "additive", 3,
        a_bar=1.0, b_bar=1.0, q_bar=1.0, q_bar_terminal=1.0, r_bar=1.0, p=1,
        q=1.0, q_terminal=1.0, r=1.0,
        noise=Gaussian(sigma=1.0),
        initial=InitialLaw(mean=0.0),
    )
    schedule, _ = solve(offset_only)
    assert predicted_cost(schedule, offset_only.initial) == schedule.gamma_bar[0]


def test_predicted_cost_requires_deviation_channel_when_stochastic():
    from hocs import CoefficientSchedule, ProblemClass

    # The schedule refuses to be built without its class's channels, so no
    # stochastic schedule reaches predicted_cost without its deviation channel.
    with pytest.raises(ValueError, match="^alpha is required for class additive$"):
        CoefficientSchedule(
            problem_class=ProblemClass.ADDITIVE, p=1, o=1, alpha_bar=(1.0, 1.0),
        )


# --------------------------------------------------------------------------
# Performance indices
# --------------------------------------------------------------------------

def test_kpi_desk_value():
    ensemble = _hand_ensemble([[1.0, 0.5]], [[-0.5]], [1.0, 0.5], [-0.5])
    assert kpi(ensemble, 1) == (1.25, 0.25)


def test_kpi_rejects_unknown_power():
    ensemble = _hand_ensemble([[1.0, 0.5]], [[-0.5]], [1.0, 0.5], [-0.5])
    with pytest.raises(ValueError):
        kpi(ensemble, 4)


@pytest.mark.parametrize("zeta", [2.0, True])
def test_kpi_refuses_a_zeta_that_is_not_an_int(zeta):
    ensemble = _hand_ensemble([[1.0, 0.5]], [[-0.5]], [1.0, 0.5], [-0.5])
    with pytest.raises(ValueError, match=rf"^zeta must be 1, 2, or 3, got {zeta}$"):
        kpi(ensemble, zeta)


def test_kpi_monotone_in_power_for_large_components():
    # Every deviation and mean entry has magnitude >= 1, so raising the
    # power can only raise each term.
    ensemble = _hand_ensemble(
        states=[[2.0, 3.0], [4.0, 5.0]],
        controls=[[-4.0], [0.0]],
        mean_path=[1.0, 1.0],
        mean_controls=[-2.0],
    )
    x_values, u_values = zip(*(kpi(ensemble, z) for z in (1, 2, 3)))
    assert x_values[0] <= x_values[1] <= x_values[2]
    assert u_values[0] <= u_values[1] <= u_values[2]


def test_kpi_is_nonnegative():
    spec = example_config(3, 2).problem
    _, policy = solve(spec)
    ensemble = simulate_ensemble(spec, policy, n_paths=40, master_seed=8)
    for z in (1, 2, 3):
        kx, ku = kpi(ensemble, z)
        assert kx >= 0.0
        assert ku >= 0.0


# --------------------------------------------------------------------------
# The reduction layer: bit-identical to the plain expressions, bounded memory
# --------------------------------------------------------------------------

def _reference_reductions(spec, ensemble):
    """realized_cost, central_moment and kpi as plain expressions, each
    power of each channel re-centred and powered in fresh arrays."""
    def deviation_power(values, centers, n):
        return _even_power(values - centers, n)

    n, two_o = ensemble.n_steps, 2 * spec.o
    x_bar, u_bar = ensemble.mean_path, ensemble.mean_controls
    mean_powers = _even_power(x_bar, 2 * spec.p)
    state_paths = deviation_power(ensemble.states, x_bar, two_o)
    state_paths = (state_paths[:, :-1] @ np.asarray(spec.q)
                   + spec.q_terminal * state_paths[:, n])
    control_paths = deviation_power(ensemble.controls, u_bar, two_o) @ np.asarray(spec.r)
    breakdown = {
        "state_power": float(np.dot(spec.q_bar, mean_powers[:-1])
                             + spec.q_bar_terminal * mean_powers[n]),
        "control_power": float(np.dot(spec.r_bar, _even_power(u_bar, 2 * spec.p))),
        "state_moment": float(state_paths.mean()),
        "control_moment": float(control_paths.mean()),
    }
    stderr = float((state_paths + control_paths).std()) / math.sqrt(ensemble.n_paths)
    moments = {order: deviation_power(ensemble.states, x_bar, order).mean(axis=0)
               for order in (2, two_o)}
    kpis = {
        zeta: tuple(
            float(np.sum(deviation_power(values, centers, 2 * zeta).mean(axis=0))
                  + np.sum(_even_power(centers, 2 * zeta)))
            for values, centers in ((ensemble.states, x_bar), (ensemble.controls, u_bar))
        )
        for zeta in (1, 2, 3)
    }
    return breakdown, stderr, moments, kpis


_O4 = dataclasses.replace(example_config(4, 2).problem, o=4)
_REDUCTION_CASES = [
    pytest.param(example_config(e, p).problem, 2_000, id=f"ex{e}p{p}")
    for e in (1, 2, 3, 4) for p in (1, 2, 3)
] + [
    # o = 4 takes central_moment's order-8 fallback.
    pytest.param(_O4, 2_000, id="ex4p2-o4"),
] + [
    # Three noise blocks, five cost blocks, and moment slabs of one step.
    pytest.param(example_config(e, p).problem, 2 * _BLOCK + 7, id=f"ex{e}p{p}-blocks")
    for e, p in ((2, 2), (3, 2), (4, 3))
] + [pytest.param(_O4, 2 * _BLOCK + 7, id="ex4p2-o4-blocks")] + [
    # realized_cost's cost blocks of _BLOCK // 2 paths, and their edges; the
    # spare takes a different branch of _even_power at 2o = 6 and at 2o = 8.
    pytest.param(spec, n_paths, id=f"{name}-{n_paths}")
    for name, spec in (("ex4p3", example_config(4, 3).problem), ("ex4p2-o4", _O4))
    for n_paths in (1, _BLOCK // 2, _BLOCK // 2 + 1)
]


@pytest.mark.parametrize("spec,n_paths", _REDUCTION_CASES)
def test_reductions_equal_plain_expressions_bit_for_bit(spec, n_paths):
    _, policy = solve(spec)
    ensemble = simulate_ensemble(spec, policy, n_paths=n_paths, master_seed=17)
    breakdown, stderr, moments, kpis = _reference_reductions(spec, ensemble)

    report = realized_cost(spec, ensemble)
    assert report.breakdown == breakdown
    assert report.realized_stderr == stderr
    assert report.realized_mean == sum(breakdown.values())
    for order, expected in moments.items():
        assert np.array_equal(central_moment(ensemble, order), expected), order
    for zeta, expected in kpis.items():
        # The second call reads the table the first one built.
        assert kpi(ensemble, zeta) == expected, zeta
        assert kpi(ensemble, zeta) == expected, zeta


def test_reductions_of_one_bundle_peak_at_block_buffers_and_path_vectors():
    # One (2N+1) x _BLOCK cost buffer and two per-path cost vectors, then
    # moment slabs of one step: no buffer the size of the states (11 path
    # vectors here).
    spec = example_config(4, 3).problem
    _, policy = solve(spec)
    ensemble = simulate_ensemble(spec, policy, n_paths=4 * _BLOCK + 7, master_seed=5)
    n, path_vector = ensemble.n_steps, 8 * ensemble.n_paths
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        results = [realized_cost(spec, ensemble), central_moment(ensemble, 2),
                   central_moment(ensemble, 6), *(kpi(ensemble, z) for z in (1, 2, 3))]
        del results
        kept, peak = (value - before for value in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (2 * n + 2) * _BLOCK + 3 * path_vector
    # Only the O(N) table of per-step moments outlives the calls.
    assert kept <= 64 * 8 * (n + 1)
