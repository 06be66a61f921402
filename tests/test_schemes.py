import math

import numpy as np
import pytest

from qpisde import (BrownianPath, GbmParams, InvalidInputError, SchemeId,
                    SingularBlockError, SingularStepError, TimeGrid,
                    exact_solution, generate_path, integrate, mix_seed,
                    qpi_block_coeffs, qpi_block_solve_oracle)

P = GbmParams(mu=-1.0, sigma=0.5)


def zero_noise_path(n, t_end=1.0):
    return BrownianPath(seed=0, t_end=t_end, n_fine=n,
                        increments=np.zeros(n), nodes=np.zeros(n + 1))


def one_step(scheme, params, dt, x, dw, milstein_sign="standard"):
    """State after one step of size dt from x, through integrate on a one-step grid."""
    path = BrownianPath(seed=0, t_end=dt, n_fine=1, increments=np.array([dw]),
                        nodes=np.array([0.0, dw]))
    start = GbmParams(mu=params.mu, sigma=params.sigma, x0=x)
    traj = integrate(scheme, start, TimeGrid(t_end=dt, n_steps=1), path,
                     milstein_sign=milstein_sign)
    return traj.values[1]


EM, IEM, MIL = SchemeId.EULER_MARUYAMA, SchemeId.IMPLICIT_EM, SchemeId.MILSTEIN


class TestSchemeId:
    @pytest.mark.parametrize("name,expected", [
        ("qpi", SchemeId.QPI), ("em", SchemeId.EULER_MARUYAMA),
        ("iem", SchemeId.IMPLICIT_EM), ("milstein", SchemeId.MILSTEIN),
    ])
    def test_parse(self, name, expected):
        assert SchemeId.parse(name) is expected

    def test_parse_rejects_unknown(self):
        with pytest.raises(InvalidInputError):
            SchemeId.parse("heun")


class TestSteps:
    def test_em_hand_value(self):
        assert one_step(EM, P, 0.1, 1.0, 0.2) == pytest.approx(1.0, rel=1e-15)

    def test_em_deterministic(self):
        assert one_step(EM, GbmParams(mu=0.3, sigma=2.0), 0.1, 2.0, 0.0) == \
            pytest.approx(2.0 * 1.03, rel=1e-15)

    def test_em_identity(self):
        assert one_step(EM, GbmParams(mu=0.0, sigma=0.0), 0.5, 3.0, 0.7) == 3.0

    def test_iem_hand_value(self):
        assert one_step(IEM, P, 0.1, 1.0, 0.2) == pytest.approx(1.0, rel=1e-15)

    def test_iem_reduces_to_em_at_zero_drift(self):
        p = GbmParams(mu=0.0, sigma=0.5)
        assert one_step(IEM, p, 0.1, 1.0, 0.2) == one_step(EM, p, 0.1, 1.0, 0.2)

    def test_iem_deterministic_halving(self):
        assert one_step(IEM, GbmParams(mu=-1.0, sigma=0.0), 1.0, 4.0, 0.0) == 2.0

    def test_iem_singular(self):
        with pytest.raises(SingularStepError):
            one_step(IEM, GbmParams(mu=2.0, sigma=0.5), 0.5, 1.0, 0.0)

    def test_milstein_standard(self):
        assert one_step(MIL, P, 0.1, 1.0, 0.2, "standard") == \
            pytest.approx(0.9925, rel=1e-12)

    def test_milstein_paper_sign(self):
        assert one_step(MIL, P, 0.1, 1.0, 0.2, "paper") == \
            pytest.approx(1.0075, rel=1e-12)

    def test_milstein_conventions_coincide_when_correction_vanishes(self):
        dt = 0.3
        dw = math.sqrt(dt)
        std = one_step(MIL, P, dt, 2.0, dw, "standard")
        pap = one_step(MIL, P, dt, 2.0, dw, "paper")
        assert std == pytest.approx(pap, rel=1e-14)
        assert std == pytest.approx(one_step(EM, P, dt, 2.0, dw), rel=1e-14)

    def test_milstein_rejects_bad_convention(self):
        with pytest.raises(InvalidInputError):
            one_step(MIL, P, 0.1, 1.0, 0.2, "flipped")


class TestQpiBlock:
    def test_zero_dynamics(self):
        c = qpi_block_coeffs(GbmParams(mu=0.0, sigma=0.0), 0.1, 0.3, -0.2)
        assert c.alpha == pytest.approx(1.0, rel=1e-15)
        assert c.beta == pytest.approx(1.0, rel=1e-15)

    def test_deterministic_block(self):
        c = qpi_block_coeffs(GbmParams(mu=-1.0, sigma=0.0), 0.1, 0.0, 0.0)
        assert c.alpha == pytest.approx(0.9048337, rel=1e-6)
        assert c.beta == pytest.approx(0.8187312, rel=1e-6)

    def test_zero_drift_closed_form(self):
        c = qpi_block_coeffs(GbmParams(mu=0.0, sigma=0.5), 0.1, 0.1, 0.2)
        assert c.alpha == pytest.approx(1.05, rel=1e-14)
        assert c.beta == pytest.approx(1.15, rel=1e-14)

    def test_oracle_deterministic_block(self):
        c = qpi_block_solve_oracle(GbmParams(mu=-1.0, sigma=0.0), 0.1, 0.0, 0.0)
        assert c.alpha == pytest.approx(0.9048337, rel=1e-6)
        assert c.beta == pytest.approx(0.8187312, rel=1e-6)

    def test_closed_form_matches_oracle_randomized(self):
        rng = np.random.default_rng(2024)
        for _ in range(2000):
            mu_dt = rng.uniform(-2.0, 0.9)
            dt = rng.uniform(0.01, 1.0)
            mu = mu_dt / dt
            sigma = rng.uniform(0.0, 2.0)
            s = math.sqrt(dt)
            dwa, dwb = rng.uniform(-3 * s, 3 * s, size=2)
            p = GbmParams(mu=mu, sigma=sigma)
            c = qpi_block_coeffs(p, dt, dwa, dwb)
            o = qpi_block_solve_oracle(p, dt, dwa, dwb)
            assert c.alpha == pytest.approx(o.alpha, rel=1e-12, abs=1e-12)
            assert c.beta == pytest.approx(o.beta, rel=1e-12, abs=1e-12)

    def test_block_equations_residuals(self):
        # substituting (alpha, beta) back into the two quadrature equations
        # must leave near-zero residuals
        rng = np.random.default_rng(7)
        for _ in range(500):
            dt = rng.uniform(0.01, 0.9)
            mu = rng.uniform(-3.0, 1.0)
            sigma = rng.uniform(0.0, 2.0)
            s = math.sqrt(dt)
            dwa, dwb = rng.normal(0.0, s, size=2)
            c = qpi_block_coeffs(GbmParams(mu=mu, sigma=sigma), dt, dwa, dwb)
            a, b = c.alpha, c.beta
            h = mu * dt
            r_double = (b - 1.0) - h * (1.0 / 3.0 + 4.0 * a / 3.0 + b / 3.0) \
                - sigma * (dwa + dwb)
            r_single = (a - 1.0) - h * (5.0 / 12.0 + 2.0 * a / 3.0 - b / 12.0) \
                - sigma * dwa
            tol = 1e-12 * (1.0 + abs(a) + abs(b))
            assert abs(r_double) <= tol
            assert abs(r_single) <= tol

    def test_deterministic_multiplier_near_exponential(self):
        # sigma=0: the per-block multiplier beta(h) approximates e^{2h}
        # to fourth order
        for h in np.linspace(-0.25, 0.25, 101):
            if h == 0.0:
                continue
            c = qpi_block_coeffs(GbmParams(mu=h, sigma=0.0), 1.0, 0.0, 0.0)
            assert abs(c.beta - math.exp(2.0 * h)) <= 10.0 * abs(h) ** 4

    def test_singular_block(self):
        # 1 - mu*dt/3 = 0 at mu*dt = 3
        with pytest.raises(SingularBlockError):
            qpi_block_coeffs(GbmParams(mu=3.0, sigma=0.5), 1.0, 0.0, 0.0)
        with pytest.raises(SingularBlockError):
            qpi_block_solve_oracle(GbmParams(mu=3.0, sigma=0.5), 1.0, 0.0, 0.0)


class TestIntegrate:
    def test_qpi_deterministic_limit(self):
        p = GbmParams(mu=-1.0, sigma=0.0)
        grid = TimeGrid(t_end=1.0, n_steps=10)
        traj = integrate(SchemeId.QPI, p, grid, zero_noise_path(10))
        assert np.max(np.abs(traj.values - np.exp(-grid.times))) < 1e-4

    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_constant_trajectory(self, scheme):
        p = GbmParams(mu=0.0, sigma=0.0, x0=2.5)
        grid = TimeGrid(t_end=1.0, n_steps=8)
        traj = integrate(scheme, p, grid, zero_noise_path(8))
        assert np.all(traj.values == 2.5)

    def test_qpi_close_to_exact_on_default_seed(self):
        p = GbmParams(mu=-1.0, sigma=0.5)
        grid = TimeGrid(t_end=1.0, n_steps=256)
        path = generate_path(mix_seed(85, 0), 1.0, 256)
        exact = exact_solution(p, grid, path.nodes)
        approx = integrate(SchemeId.QPI, p, grid, path)
        assert np.max(np.abs(exact.values - approx.values)) < 5e-3

    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_linearity_in_x0(self, scheme):
        grid = TimeGrid(t_end=1.0, n_steps=16)
        path = generate_path(21, 1.0, 16)
        base = integrate(scheme, GbmParams(mu=-1.0, sigma=0.5, x0=1.0), grid, path)
        scaled = integrate(scheme, GbmParams(mu=-1.0, sigma=0.5, x0=3.0), grid, path)
        assert np.array_equal(scaled.values, 3.0 * base.values)

    def test_qpi_odd_n_rejected(self):
        grid = TimeGrid(t_end=1.0, n_steps=9)
        with pytest.raises(InvalidInputError, match="even"):
            integrate(SchemeId.QPI, P, grid, zero_noise_path(9))

    def test_resolution_mismatch_rejected(self):
        grid = TimeGrid(t_end=1.0, n_steps=8)
        with pytest.raises(InvalidInputError):
            integrate(SchemeId.EULER_MARUYAMA, P, grid, zero_noise_path(4))

    def test_qpi_pairwise_fill(self):
        # odd nodes are alpha times the previous even node, even nodes chain
        # through beta
        grid = TimeGrid(t_end=1.0, n_steps=4)
        path = generate_path(31, 1.0, 4)
        traj = integrate(SchemeId.QPI, P, grid, path)
        dw = path.increments
        c0 = qpi_block_coeffs(P, grid.dt, dw[0], dw[1])
        c1 = qpi_block_coeffs(P, grid.dt, dw[2], dw[3])
        x0 = P.x0
        expected = [x0, c0.alpha * x0, c0.beta * x0,
                    c1.alpha * c0.beta * x0, c1.beta * c0.beta * x0]
        assert traj.values == pytest.approx(expected, rel=1e-13)

    def test_one_step_schemes_sequential(self):
        grid = TimeGrid(t_end=1.0, n_steps=3)
        path = generate_path(41, 1.0, 3)
        traj = integrate(SchemeId.MILSTEIN, P, grid, path)
        dt = grid.dt
        x = P.x0
        for i, dw in enumerate(path.increments):
            x = x * (1.0 + P.mu * dt + P.sigma * dw + 0.5 * P.sigma**2 * (dw * dw - dt))
            assert traj.values[i + 1] == pytest.approx(x, rel=1e-13)
