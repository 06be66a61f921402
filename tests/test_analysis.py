import numpy as np
import pytest

from qpisde import (GbmParams, InvalidInputError, convergence_study, error_norms,
                    local_error_study)


class TestErrorNorms:
    def test_identical(self):
        a = np.array([1.0, 2.0, 3.0])
        assert error_norms(a, a) == (0.0, 0.0, 0.0)

    def test_single_step(self):
        a = np.array([1.0, 2.0])
        b = np.array([1.0, 1.5])
        assert error_norms(a, b) == pytest.approx((0.5, 0.5, 0.5), rel=1e-15)

    def test_two_steps(self):
        a = np.array([1.0, 1.0, 1.0])
        b = np.array([1.0, 0.9, 1.1])
        assert error_norms(a, b) == pytest.approx((0.1, 0.1, 0.1), rel=1e-12)

    def test_mismatched_grids(self):
        a = np.array([1.0, 2.0])
        b = np.array([1.0, 1.5, 2.0])
        with pytest.raises(InvalidInputError):
            error_norms(a, b)

    def test_norm_inequalities(self):
        # Cauchy-Schwarz with the sum-over-N+1-terms / divide-by-N convention
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = rng.integers(1, 40)
            e = rng.normal(size=n + 1)
            l1, l2, linf = error_norms(e, np.zeros(n + 1))
            c = np.sqrt((n + 1) / n)
            assert l1 <= c * l2 + 1e-14
            assert l2 <= c * linf + 1e-14


class TestConvergenceStudy:
    def test_deterministic_refinement_monotone(self):
        p = GbmParams(mu=-1.0, sigma=0.0)
        table = convergence_study(["qpi"], p, [4, 8, 16, 32], 1, 5)
        errs = [r.linf for r in table.rows]  # one scheme, ascending n
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_reproducible_for_fixed_seed(self):
        p = GbmParams(mu=-1.0, sigma=0.5)
        a = convergence_study(["qpi", "iem"], p, [4, 16], 5, 123)
        b = convergence_study(["qpi", "iem"], p, [4, 16], 5, 123)
        assert a.to_csv() == b.to_csv()

    def test_row_layout_and_csv(self):
        p = GbmParams(mu=-1.0, sigma=0.5)
        table = convergence_study(["qpi", "iem", "milstein"], p, [4, 16], 3, 9)
        assert len(table.rows) == 6
        lines = table.to_csv().strip().split("\n")
        assert lines[0] == "scheme,n,l1,l2,linf,n_paths"
        assert len(lines) == 7

    def test_validation(self):
        p = GbmParams(mu=-1.0, sigma=0.5)
        with pytest.raises(InvalidInputError):
            convergence_study(["qpi"], p, [16, 4], 2, 0)
        with pytest.raises(InvalidInputError):
            convergence_study(["qpi"], p, [6, 16], 2, 0)  # 6 does not divide 16
        for n_list in ([0, 4], [-4, 4], [4.7, 16.2], [4.0, 16]):
            with pytest.raises(InvalidInputError, match="n_list"):
                convergence_study(["em"], p, n_list, 2, 0)
        with pytest.raises(InvalidInputError):
            convergence_study(["qpi"], p, [3, 12], 2, 0)  # odd N with qpi
        with pytest.raises(InvalidInputError):
            convergence_study(["qpi"], p, [4, 16], 0, 0)
        for schemes in (["qpi", "qpi"], ["qpi", "em", "QPI"]):
            with pytest.raises(InvalidInputError, match="repeat"):
                convergence_study(schemes, p, [4, 16], 2, 0)

    def test_em_allows_odd_n(self):
        p = GbmParams(mu=-1.0, sigma=0.5)
        table = convergence_study(["em"], p, [3, 9], 2, 1)
        assert len(table.rows) == 2


class TestLocalErrorStudy:
    P = GbmParams(mu=-1.0, sigma=0.5)

    def test_deterministic(self):
        dts = [0.125, 0.0625]
        a = local_error_study(self.P, dts, 1000, 77)
        b = local_error_study(self.P, dts, 1000, 77)
        assert np.array_equal(a.mean_sq, b.mean_sq)

    def test_noise_slope_at_least_one(self):
        dts = [2.0**-k for k in range(3, 9)]
        rep = local_error_study(self.P, dts, 20000, 3)
        assert rep.slope() >= 1.0 - 0.15

    def test_deterministic_superconvergence(self):
        dts = [2.0**-k for k in range(3, 9)]
        rep = local_error_study(GbmParams(mu=-1.0, sigma=0.0), dts, 10, 3)
        assert rep.slope() >= 4.0

    def test_csv_with_slope_comment(self):
        rep = local_error_study(self.P, [0.25, 0.125], 500, 1)
        lines = rep.to_csv().strip().split("\n")
        assert lines[0] == "dt,mean_sq_local_error"
        assert len(lines) == 4
        assert lines[-1].startswith("# slope=")

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            local_error_study(self.P, [], 100, 0)
        with pytest.raises(InvalidInputError):
            local_error_study(self.P, [0.1, 0.2], 100, 0)  # ascending
        with pytest.raises(InvalidInputError):
            local_error_study(self.P, [0.1, -0.05], 100, 0)
        with pytest.raises(InvalidInputError, match="finite"):
            local_error_study(self.P, [float("nan")], 100, 0)
        with pytest.raises(InvalidInputError, match="at least 2"):
            local_error_study(self.P, [0.1], 100, 0)  # one point fits no slope
