import math

import numpy as np
import pytest

from qpisde import (GbmParams, InvalidInputError, QpisdeError, SchemeId, SingularStepError,
                    exact_solution, generate_path, integrate)


def test_initial_condition():
    p = GbmParams(mu=-1.0, sigma=0.5, x0=1.0)
    traj = exact_solution(p, 1.0, [0.0, 0.0])
    assert traj[0] == 1.0


def test_degenerate_constant_solution():
    p = GbmParams(mu=0.0, sigma=0.0, x0=1.0)
    w = np.array([0.0, 0.3, -0.2, 1.0, 0.5, 0.1])
    traj = exact_solution(p, 3.0, w)
    assert np.all(traj == 1.0)


def test_closed_form_at_t1():
    # x0 * exp((mu - sigma^2/2) * 1 + sigma * 0) with mu=-1, sigma=0.5
    p = GbmParams(mu=-1.0, sigma=0.5, x0=1.0)
    traj = exact_solution(p, 1.0, [0.0, 0.0])
    assert traj[1] == pytest.approx(math.exp(-1.125), rel=1e-12)
    assert traj[1] == pytest.approx(0.3246525, rel=1e-6)


def test_zero_volatility_matches_exponential():
    p = GbmParams(mu=0.7, sigma=0.0, x0=2.0)
    w = np.zeros(17)
    traj = exact_solution(p, 2.0, w)
    expected = 2.0 * np.exp(0.7 * np.linspace(0.0, 2.0, 17))
    assert np.allclose(traj, expected, rtol=1e-15)


def test_multiplicative_in_x0():
    w = generate_path(3, 1.0, 32)
    a = exact_solution(GbmParams(mu=-1.0, sigma=0.5, x0=1.0), 1.0, w)
    b = exact_solution(GbmParams(mu=-1.0, sigma=0.5, x0=2.0), 1.0, w)
    assert np.array_equal(b, 2.0 * a)


def test_strictly_positive_for_positive_x0():
    w = generate_path(11, 1.0, 64)
    traj = exact_solution(GbmParams(mu=1.0, sigma=2.0, x0=0.5), 1.0, w)
    assert np.all(traj > 0)


def test_error_types():
    assert issubclass(InvalidInputError, QpisdeError) and issubclass(InvalidInputError, ValueError)
    assert issubclass(SingularStepError, QpisdeError) and issubclass(SingularStepError, ArithmeticError)


def test_param_validation():
    with pytest.raises(InvalidInputError):
        GbmParams(mu=-1.0, sigma=-0.1)
    with pytest.raises(InvalidInputError):
        GbmParams(mu=math.inf, sigma=0.5)
    p = GbmParams(mu=-1.0, sigma=0.5)
    with pytest.raises(InvalidInputError, match="t_end"):
        exact_solution(p, 0.0, np.zeros(5))
    with pytest.raises(InvalidInputError, match="t_end"):
        integrate(SchemeId.EULER_MARUYAMA, p, 0.0, np.zeros(5))
    for w in ([0.0], 0.0):  # N = 0: one node, or no node axis at all
        with pytest.raises(InvalidInputError, match="step count"):
            exact_solution(p, 1.0, w)
        with pytest.raises(InvalidInputError, match="step count"):
            integrate(SchemeId.EULER_MARUYAMA, p, 1.0, w)


@pytest.mark.parametrize("n_steps", [2.5, 4.0, "4", None, True])
def test_grid_rejects_non_integer_steps(n_steps):
    with pytest.raises(InvalidInputError, match="integer"):
        generate_path(1, 1.0, n_steps)


def test_numpy_integer_steps_accepted():
    assert np.array_equal(generate_path(1, 2.5, np.int64(10)), generate_path(1, 2.5, 10))
