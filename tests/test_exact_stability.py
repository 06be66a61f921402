"""Stability scans against each condition's exact rational factor (tests/exact_stability.py).

Every checked factor must equal its rational value within relative_bound.
Every cell whose float factor lies within twice that bound of 1 is decided
in Fraction too, and must get the rational value's verdict unless that value
itself lies within the bound of 1: such a tie is below the float's
resolution, and no float scan can decide it. A cell farther from 1 keeps its
verdict under the bound, so the bench grid's cells are decided by the bound
alone there: deciding all 4 x 10,000 cells of a grid 100 scan in Fraction
takes ~3 s.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_stability import exact_factor, paper_quotient, relative_bound
from qpisde import region_scan

CONDITIONS = ("qpi-paper", "qpi-exact", "iem", "milstein")


def assert_exact(grid, checked):
    """Assert the bound on the regular cells of checked (a boolean mask of grid's cells) and on
    those within twice the bound of 1, and the rational verdict on the latter unless it is a tie;
    return the number of ties."""
    lhs, regular = grid.lhs, ~np.isnan(grid.lhs)
    with np.errstate(divide="ignore", invalid="ignore"):  # inf or nan at singular cells and at lhs = 0
        bound = relative_bound(grid.condition, np.multiply.outer(grid.mu_axis, grid.dt_axis), lhs)
        near = regular & (np.abs(lhs - 1.0) <= 2 * bound)
    ties = 0
    for i, j in zip(*np.nonzero(regular & (checked | near))):
        exact = exact_factor(grid.condition, grid.mu_axis[i], grid.sigma, grid.dt_axis[j])
        assert lhs[i, j] == exact or abs(Fraction(lhs[i, j]) / exact - 1) <= bound[i, j], (i, j)
        if near[i, j] and abs(exact - 1) <= bound[i, j] * exact:
            ties += 1
        elif near[i, j]:
            assert grid.verdicts[i, j] == (exact < 1), (i, j)
    return ties


def test_block_pole_removable_and_unstable():
    # at h = 3 the block system is regular and the quotient's (1 - h/3)^2 cancels: the scan's
    # singular cells have finite factors, both above 1, so "unstable" is their exact verdict
    sigma, dt = Fraction(1, 2), Fraction(1)
    assert exact_factor("qpi-exact", 3, sigma, dt) == 49 + 10 * sigma**2 * dt
    for h in (3 + Fraction(1, 10**12), 3 - Fraction(1, 10**12)):
        assert abs(paper_quotient(h, sigma, dt) - (49 + 21 * sigma**2 * dt)) < Fraction(1, 10**9)


@pytest.mark.parametrize("condition", CONDITIONS)
def test_bench_grid_verdicts_exact(condition):
    # the bench rectangle: every 5th mu row and dt column against its rational value,
    # the cells near 1 by it too, and the rest by the bound alone
    grid = region_scan(condition, 0.5, (-4.0, 1.0), (0.01, 1.0), 100)
    checked = np.zeros(grid.lhs.shape, bool)
    checked[::5, ::5] = True
    assert assert_exact(grid, checked) == 0


def test_tie_below_float_resolution():
    # without noise, qpi-paper's factor is 1 + 4h + O(h^2): at h = -3.6e-25 it rounds to 1.0,
    # so the scan calls the cell unstable while its exact factor is below 1
    grid = region_scan("qpi-paper", 0.0, (-3.6402920427574966e-25, 1.0), (1.0, 2.0), 2)
    assert grid.lhs[0, 0] == 1.0 and not grid.verdicts[0, 0]
    assert exact_factor("qpi-paper", grid.mu_axis[0], 0.0, 1.0) < 1
    assert assert_exact(grid, np.ones(grid.lhs.shape, bool)) == 2  # both cells of the first mu row


@pytest.mark.parametrize("condition", CONDITIONS)
@pytest.mark.parametrize("h,sigma", [(1.0, 0.5), (3.0, 0.5), (-1.0, 0.0)])
def test_cells_at_a_cancellation_exact(condition, h, sigma):
    # mu*dt within ~1e-9 of where a closed form divides by zero (1, 3) or Milstein's (1 + h)^2
    # cancels (-1 at sigma = 0), so the bound's condition number is ~1e9
    grid = region_scan(condition, sigma, (h - 1e-9, h + 1e-9), (1.0 - 1e-10, 1.0 + 1e-10), 9)
    assert_exact(grid, np.ones(grid.lhs.shape, bool))


@settings(max_examples=30, deadline=None)
@given(condition=st.sampled_from(CONDITIONS), sigma=st.floats(0.0, 5.0),
       mu_lo=st.floats(-50.0, 9.0), mu_span=st.floats(1e-6, 20.0),
       dt_lo=st.floats(1e-4, 10.0), dt_span=st.floats(1e-6, 20.0), resolution=st.integers(2, 9))
def test_drawn_rectangle_exact(condition, sigma, mu_lo, mu_span, dt_lo, dt_span, resolution):
    grid = region_scan(condition, sigma, (mu_lo, mu_lo + mu_span), (dt_lo, dt_lo + dt_span), resolution)
    assert_exact(grid, np.ones(grid.lhs.shape, bool))
