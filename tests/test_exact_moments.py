"""Monte Carlo moments of every scheme against their exact values (tests/exact_moments.py).

Seeded draws can move; the exact values cannot. Each Monte Carlo mean must
lie within 4 standard errors of its exact value: the mean and mean square of
X_N, and the mean of l2^2 from error_norms, whose cross moment separates
milstein from milstein-paper.
"""

import functools
import math

import numpy as np
import pytest

from exact_moments import exact_moments
from qpisde import (GbmParams, SchemeId, coarsen, error_norms, exact_solution, generate_path, integrate,
                    mix_seed)

P = GbmParams(mu=-1.0, sigma=0.5)
T_END, N_FINE, N_PATHS = 1.0, 16, 2 * 10**4


@functools.cache
def fine_paths():
    return generate_path(mix_seed(2027, np.arange(N_PATHS)), T_END, N_FINE)


@pytest.mark.parametrize("n", [4, 16])
@pytest.mark.parametrize("scheme", [s.value for s in SchemeId])
def test_monte_carlo_moments_match_exact(scheme, n):
    w = coarsen(fine_paths(), N_FINE // n)
    x = integrate(scheme, P, T_END, w)
    _, l2, _ = error_norms(exact_solution(P, T_END, w), x)
    samples = {"mean": x[:, -1], "mean square": x[:, -1] ** 2, "mean l2^2": l2 ** 2}
    for (what, v), exact in zip(samples.items(), exact_moments(scheme, P, T_END, n), strict=True):
        z = (v.mean() - exact) / (v.std(ddof=1) / math.sqrt(N_PATHS))
        assert abs(z) <= 4, f"{scheme} N={n} {what}: Monte Carlo {v.mean():.6g}, exact {exact:.6g}, z={z:.1f}"
