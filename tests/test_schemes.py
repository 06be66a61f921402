import math
import types

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qpisde import (GbmParams, InvalidInputError, SchemeId, SingularStepError,
                    exact_solution, generate_path, integrate, mix_seed)
from qpisde.schemes import _DIVISORS, _qpi_alpha_beta, qpi_block_solve_oracle

P = GbmParams(mu=-1.0, sigma=0.5)


def zero_noise_path(n):
    return np.zeros(n + 1)


def one_step(scheme, params, dt, x, dw):
    """State after one step of size dt from x, through integrate on a one-step grid."""
    path = np.array([0.0, dw])
    start = GbmParams(mu=params.mu, sigma=params.sigma, x0=x)
    traj = integrate(scheme, start, dt, path)
    return traj[1]


EM, IEM = SchemeId.EULER_MARUYAMA, SchemeId.IMPLICIT_EM
MIL, MIL_PAPER = SchemeId.MILSTEIN, SchemeId.MILSTEIN_PAPER


class TestSchemeId:
    @pytest.mark.parametrize("name,expected", [
        ("qpi", SchemeId.QPI), ("em", SchemeId.EULER_MARUYAMA),
        ("iem", SchemeId.IMPLICIT_EM), ("milstein", SchemeId.MILSTEIN),
        ("milstein-paper", SchemeId.MILSTEIN_PAPER),
    ])
    def test_parse(self, name, expected):
        assert SchemeId.parse(name) is expected

    def test_parse_rejects_unknown(self):
        with pytest.raises(InvalidInputError):
            SchemeId.parse("heun")

    def test_parse_passes_an_id_through(self):
        for scheme in SchemeId:
            assert SchemeId.parse(scheme) is scheme

    @pytest.mark.parametrize("name,scheme", [
        ("qpi", SchemeId.QPI), ("QPI", SchemeId.QPI), ("em", EM), (" EM ", EM),
        ("iem", IEM), ("Milstein", MIL), (" Milstein-Paper", MIL_PAPER),
    ])
    def test_integrate_takes_a_name_or_an_id(self, name, scheme):
        w = generate_path([mix_seed(3, k) for k in range(4)], 1.0, 16)
        by_name = integrate(name, P, 1.0, w)
        by_id = integrate(scheme, P, 1.0, w)
        assert by_name.tobytes() == by_id.tobytes()

    @pytest.mark.parametrize("scheme,shown", [("rk4", "'rk4'"), (3, "3"), (None, "None")])
    def test_integrate_rejects_an_unknown_scheme(self, scheme, shown):
        with pytest.raises(InvalidInputError, match=f"unknown scheme {shown}; expected one of "
                                                    "qpi, em, iem, milstein, milstein-paper"):
            integrate(scheme, P, 1.0, np.zeros(5))


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
        with pytest.raises(SingularStepError, match=r"implicit EM step singular for mu\*dt = 1"):
            one_step(IEM, GbmParams(mu=2.0, sigma=0.5), 0.5, 1.0, 0.0)

    def test_milstein_standard(self):
        assert one_step(MIL, P, 0.1, 1.0, 0.2) == \
            pytest.approx(0.9925, rel=1e-12)

    def test_milstein_paper_sign(self):
        assert one_step(MIL_PAPER, P, 0.1, 1.0, 0.2) == \
            pytest.approx(1.0075, rel=1e-12)

    def test_milstein_conventions_coincide_when_correction_vanishes(self):
        dt = 0.3
        dw = math.sqrt(dt)
        std = one_step(MIL, P, dt, 2.0, dw)
        pap = one_step(MIL_PAPER, P, dt, 2.0, dw)
        assert std == pytest.approx(pap, rel=1e-14)
        assert std == pytest.approx(one_step(EM, P, dt, 2.0, dw), rel=1e-14)


class TestQpiBlock:
    def test_zero_dynamics(self):
        alpha, beta = _qpi_alpha_beta(0.0, 0.0, 0.1, 0.3, -0.2)
        assert alpha == pytest.approx(1.0, rel=1e-15)
        assert beta == pytest.approx(1.0, rel=1e-15)

    def test_deterministic_block(self):
        alpha, beta = _qpi_alpha_beta(-1.0, 0.0, 0.1, 0.0, 0.0)
        assert alpha == pytest.approx(0.9048337, rel=1e-6)
        assert beta == pytest.approx(0.8187312, rel=1e-6)

    def test_zero_drift_closed_form(self):
        alpha, beta = _qpi_alpha_beta(0.0, 0.5, 0.1, 0.1, 0.2)
        assert alpha == pytest.approx(1.05, rel=1e-14)
        assert beta == pytest.approx(1.15, rel=1e-14)

    def test_oracle_deterministic_block(self):
        alpha, beta = qpi_block_solve_oracle(GbmParams(mu=-1.0, sigma=0.0), 0.1, 0.0, 0.0)
        assert alpha == pytest.approx(0.9048337, rel=1e-6)
        assert beta == pytest.approx(0.8187312, rel=1e-6)

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
            alpha, beta = _qpi_alpha_beta(p.mu, p.sigma, dt, dwa, dwb)
            o_alpha, o_beta = qpi_block_solve_oracle(p, dt, dwa, dwb)
            assert alpha == pytest.approx(o_alpha, rel=1e-12, abs=1e-12)
            assert beta == pytest.approx(o_beta, rel=1e-12, abs=1e-12)

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
            a, b = _qpi_alpha_beta(mu, sigma, dt, dwa, dwb)
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
            _, beta = _qpi_alpha_beta(h, 0.0, 1.0, 0.0, 0.0)
            assert abs(beta - math.exp(2.0 * h)) <= 10.0 * abs(h) ** 4

    def test_singular_block(self):
        # 1 - mu*dt/3 = 0 at mu*dt = 3
        with pytest.raises(SingularStepError):
            _qpi_alpha_beta(3.0, 0.5, 1.0, 0.0, 0.0)
        with pytest.raises(SingularStepError):
            qpi_block_solve_oracle(GbmParams(mu=3.0, sigma=0.5), 1.0, 0.0, 0.0)

    # D = 1 - h + h^2/3 has its minimum 1/4 at h = 3/2, so E = 1 - h/3 is the only divisor that vanishes
    @example(h=3.0)
    @example(h=math.nextafter(3.0, -math.inf))
    @example(h=math.nextafter(3.0, math.inf))
    @example(h=1.5)
    @example(h=0.0)
    @example(h=math.inf)
    @example(h=-math.inf)
    @example(h=math.nan)
    @given(h=st.floats())
    def test_singular_set_is_where_a_denominator_vanishes(self, h):
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf at h = inf
            d, e = 1.0 - h + h * h / 3.0, 1.0 - h / 3.0
        assert (_DIVISORS["block system"](h) == 0.0) == ((d == 0.0) | (e == 0.0))

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
    def test_oracle_rejects_dt_not_finite_and_positive(self, dt):
        # a nan or inf dt would give alpha = beta = nan and make any comparison vacuous
        with pytest.raises(InvalidInputError, match="finite and > 0"):
            qpi_block_solve_oracle(P, dt, 0.1, -0.2)

    @pytest.mark.parametrize("mu,sigma,message", [
        (-1.0, -0.5, "sigma must be >= 0, got -0.5"),
        (-1.0, math.nan, "sigma must be finite, got nan"),
        (-1.0, math.inf, "sigma must be finite, got inf"),
        (math.inf, 0.5, "mu must be finite, got inf"),
        (math.nan, 0.5, "mu must be finite, got nan"),
    ], ids=["sigma-negative", "sigma-nan", "sigma-inf", "mu-inf", "mu-nan"])
    def test_oracle_rejects_sigma_and_mu_off_their_rule(self, mu, sigma, message):
        # a plain namespace, as the bench's ensemble check passes, bypasses GbmParams' own check
        with pytest.raises(InvalidInputError) as err:
            qpi_block_solve_oracle(types.SimpleNamespace(mu=mu, sigma=sigma), 0.1, 0.1, -0.2)
        assert str(err.value) == message


class TestIntegrate:
    def test_qpi_deterministic_limit(self):
        p = GbmParams(mu=-1.0, sigma=0.0)
        traj = integrate(SchemeId.QPI, p, 1.0, zero_noise_path(10))
        assert np.max(np.abs(traj - np.exp(-np.linspace(0.0, 1.0, 11)))) < 1e-4

    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_constant_trajectory(self, scheme):
        p = GbmParams(mu=0.0, sigma=0.0, x0=2.5)
        traj = integrate(scheme, p, 1.0, zero_noise_path(8))
        assert np.all(traj == 2.5)

    def test_qpi_close_to_exact_on_default_seed(self):
        # a property of the paths, not of one lucky path: the median sup error
        # over 1000 paths is ~1.0e-2; a block drift weight of h instead of 4h/3
        # gives ~7.5e-2, and dropping sigma*dWb from beta ~0.21
        p = GbmParams(mu=-1.0, sigma=0.5)
        paths = generate_path([mix_seed(85, k) for k in range(1000)], 1.0, 256)
        exact = exact_solution(p, 1.0, paths)
        approx = integrate(SchemeId.QPI, p, 1.0, paths)
        assert np.median(np.max(np.abs(exact - approx), axis=-1)) < 1.5e-2

    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_linearity_in_x0(self, scheme):
        path = generate_path(21, 1.0, 16)
        base = integrate(scheme, GbmParams(mu=-1.0, sigma=0.5, x0=1.0), 1.0, path)
        scaled = integrate(scheme, GbmParams(mu=-1.0, sigma=0.5, x0=3.0), 1.0, path)
        assert np.array_equal(scaled, 3.0 * base)

    def test_qpi_odd_n_rejected(self):
        with pytest.raises(InvalidInputError, match="even"):
            integrate(SchemeId.QPI, P, 1.0, zero_noise_path(9))

    def test_qpi_pairwise_fill(self):
        # odd nodes are alpha times the previous even node, even nodes chain
        # through beta
        path = generate_path(31, 1.0, 4)
        traj = integrate(SchemeId.QPI, P, 1.0, path)
        dw = np.diff(path)
        alpha0, beta0 = _qpi_alpha_beta(P.mu, P.sigma, 1.0 / 4, dw[0], dw[1])
        alpha1, beta1 = _qpi_alpha_beta(P.mu, P.sigma, 1.0 / 4, dw[2], dw[3])
        x0 = P.x0
        expected = [x0, alpha0 * x0, beta0 * x0,
                    alpha1 * beta0 * x0, beta1 * beta0 * x0]
        assert traj == pytest.approx(expected, rel=1e-13)

    def test_one_step_schemes_sequential(self):
        path = generate_path(41, 1.0, 3)
        traj = integrate(SchemeId.MILSTEIN, P, 1.0, path)
        dt = 1.0 / 3
        x = P.x0
        for i, dw in enumerate(np.diff(path)):
            x = x * (1.0 + P.mu * dt + P.sigma * dw + 0.5 * P.sigma**2 * (dw * dw - dt))
            assert traj[i + 1] == pytest.approx(x, rel=1e-13)
