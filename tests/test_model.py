import math

import numpy as np
import pytest

from qpisde import (GbmParams, InvalidInputError, TimeGrid, exact_solution,
                    generate_path)


def test_initial_condition():
    p = GbmParams(mu=-1.0, sigma=0.5, x0=1.0)
    grid = TimeGrid(t_end=1.0, n_steps=1)
    traj = exact_solution(p, grid, [0.0, 0.0])
    assert traj[0] == 1.0


def test_degenerate_constant_solution():
    p = GbmParams(mu=0.0, sigma=0.0, x0=1.0)
    grid = TimeGrid(t_end=3.0, n_steps=5)
    w = np.array([0.0, 0.3, -0.2, 1.0, 0.5, 0.1])
    traj = exact_solution(p, grid, w)
    assert np.all(traj == 1.0)


def test_closed_form_at_t1():
    # x0 * exp((mu - sigma^2/2) * 1 + sigma * 0) with mu=-1, sigma=0.5
    p = GbmParams(mu=-1.0, sigma=0.5, x0=1.0)
    grid = TimeGrid(t_end=1.0, n_steps=1)
    traj = exact_solution(p, grid, [0.0, 0.0])
    assert traj[1] == pytest.approx(math.exp(-1.125), rel=1e-12)
    assert traj[1] == pytest.approx(0.3246525, rel=1e-6)


def test_length_mismatch_raises():
    p = GbmParams(mu=-1.0, sigma=0.5)
    grid = TimeGrid(t_end=1.0, n_steps=4)
    with pytest.raises(InvalidInputError):
        exact_solution(p, grid, [0.0, 0.1, 0.2])


def test_zero_volatility_matches_exponential():
    p = GbmParams(mu=0.7, sigma=0.0, x0=2.0)
    grid = TimeGrid(t_end=2.0, n_steps=16)
    w = np.zeros(17)
    traj = exact_solution(p, grid, w)
    expected = 2.0 * np.exp(0.7 * grid.times)
    assert np.allclose(traj, expected, rtol=1e-15)


def test_multiplicative_in_x0():
    grid = TimeGrid(t_end=1.0, n_steps=32)
    w = generate_path(3, 1.0, 32)
    a = exact_solution(GbmParams(mu=-1.0, sigma=0.5, x0=1.0), grid, w)
    b = exact_solution(GbmParams(mu=-1.0, sigma=0.5, x0=2.0), grid, w)
    assert np.array_equal(b, 2.0 * a)


def test_strictly_positive_for_positive_x0():
    grid = TimeGrid(t_end=1.0, n_steps=64)
    w = generate_path(11, 1.0, 64)
    traj = exact_solution(GbmParams(mu=1.0, sigma=2.0, x0=0.5), grid, w)
    assert np.all(traj > 0)


def test_param_validation():
    with pytest.raises(InvalidInputError):
        GbmParams(mu=-1.0, sigma=-0.1)
    with pytest.raises(InvalidInputError):
        GbmParams(mu=math.inf, sigma=0.5)
    with pytest.raises(InvalidInputError):
        TimeGrid(t_end=0.0, n_steps=4)
    with pytest.raises(InvalidInputError):
        TimeGrid(t_end=1.0, n_steps=0)


@pytest.mark.parametrize("n_steps", [2.5, 4.0, "4", None])
def test_grid_rejects_non_integer_steps(n_steps):
    with pytest.raises(InvalidInputError, match="integer"):
        TimeGrid(t_end=1.0, n_steps=n_steps)


def test_grid_consistency():
    for n_steps in (10, np.int64(10)):
        grid = TimeGrid(t_end=2.5, n_steps=n_steps)
        assert grid.dt * grid.n_steps == pytest.approx(grid.t_end, rel=1e-15)
        t = grid.times
        assert t[0] == 0.0 and t[-1] == 2.5 and np.all(np.diff(t) > 0)
