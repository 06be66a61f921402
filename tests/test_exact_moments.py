"""Monte Carlo moments of every scheme against their exact values (tests/exact_moments.py).

Seeded draws can move; the exact values cannot. Each Monte Carlo mean must
lie within 4 standard errors of its exact value: the mean and mean square of
X_N, and the mean of l2^2 from error_norms, whose cross moment separates
milstein from milstein-paper. The seed-free companions of acceptance criteria
3, 4 and 8 hold the exact RMS errors to the same bands as the Monte Carlo ones.
"""

import functools
import math

import numpy as np
import pytest

from exact_moments import exact_moments, node_moments
from qpisde import (GbmParams, SchemeId, coarsen, error_norms, exact_solution, generate_path, integrate,
                    local_error_study, mix_seed)

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


N_LIST = [4, 16, 64, 256, 1024]  # criteria 3 and 4's ladder


def order(ns, errors):
    """Least-squares slope of log(error) against log(1/n)."""
    return np.polyfit(np.log(1.0 / np.asarray(ns, dtype=float)), np.log(errors), 1)[0]


def rms_l2(scheme, n):
    return math.sqrt(exact_moments(scheme, P, T_END, n)[2])


def test_exact_qpi_l2_order_is_one_half():  # criterion 3's band
    assert 0.4 <= order(N_LIST, [rms_l2("qpi", n) for n in N_LIST]) <= 0.7


def test_exact_qpi_iem_ratio_tends_to_sqrt_2():  # criterion 4's band
    ratios = {n: rms_l2("qpi", n) / rms_l2("iem", n) for n in N_LIST if n >= 16}
    assert all(1.25 <= r <= 1.6 for r in ratios.values()), ratios
    assert abs(ratios[1024] - math.sqrt(2)) <= 1e-3, ratios


def local_mean_sq(dt):
    """E delta^2 of one block from x0: x0^2 (E beta^2 + E Y^2 - 2 E[beta Y]), Y the exact growth to t = 2 dt."""
    _, square, cross = node_moments("qpi", P.mu, P.sigma, 2 * dt, 2)[:, -1]
    return P.x0**2 * (square + math.exp((2 * P.mu + P.sigma**2) * 2 * dt) - 2 * cross)


def test_exact_local_slope():  # criterion 8's dts and bound
    dts = [2.0**-k for k in range(3, 9)]
    assert np.polyfit(np.log(dts), np.log([local_mean_sq(dt) for dt in dts]), 1)[0] >= 0.85


def test_local_error_study_matches_exact():
    # at 1e5 samples the Monte Carlo mean square's relative standard error is 0.7-1 % at these dts
    # (measured over 40 seeds), so 4 % is 4 standard errors; measured against the exact value at
    # t = dt the block reads 5-9x the exact value, and without the Ito term 17 % off at dt = 0.125
    dts = [0.25, 0.125, 0.0625]
    report = local_error_study(P, dts, 10**5, 8)
    assert report.mean_sq == pytest.approx([local_mean_sq(dt) for dt in dts], rel=0.04)


def test_exact_qpi_weak_orders():
    # the mean has weak order 4, the second moment order 1; from N = 1024 on the
    # mean's error (5e-14) is at the level of rounding, so the ladder stops at 256
    ns = [16, 64, 256]
    moments = [exact_moments("qpi", P, T_END, n) for n in ns]
    mean = [abs(m - P.x0 * math.exp(P.mu * T_END)) for m, _, _ in moments]
    square = [abs(m2 - P.x0**2 * math.exp((2 * P.mu + P.sigma**2) * T_END)) for _, m2, _ in moments]
    assert order(ns, mean) == pytest.approx(4, abs=0.05)
    assert order(ns, square) == pytest.approx(1, abs=0.05)
