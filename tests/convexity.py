"""The midpoint convexity check behind acceptance criterion 7.

It samples the lemma that z -> z**2p + (a z + b)**2p is strictly convex,
which underpins the global-optimality claim of the deterministic oracle's
direct route. It checks no output of hocs, so it lives with the tests.
"""

from dataclasses import dataclass

import numpy as np

from hocs.model import _integer, _number


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
        p: Half-power, an integer >= 1.
        a: Slope inside the second term; finite and nonzero.
        b: Offset inside the second term; finite and nonzero.
        n_samples: Number of random pairs to test, >= 1.
        master_seed: Seed for the pair draws, >= 0.

    Returns:
        A ConvexityReport; ``counterexample`` holds the first failing pair.

    Raises:
        ValueError, TypeError: If an input fails the model's gates, so that
            no input passes vacuously.
    """
    p = _integer(p, "p", 1)
    n_samples = _integer(n_samples, "n_samples", 1)
    master_seed = _integer(master_seed, "master_seed", 0)
    a, b = _number(a, "a"), _number(b, "b")
    if a == 0.0 or b == 0.0:
        raise ValueError("a and b must both be nonzero")
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
