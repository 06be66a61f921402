import numpy as np
import pytest

from qpisde import (GbmParams, InvalidInputError, LocalErrorReport, analysis, coarsen, convergence_study,
                    error_norms, generate_path, local_error_study, region_scan)


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

    @pytest.mark.parametrize("shape", [(1,), (3, 1)])
    def test_one_node_trajectories(self, shape):
        # one node is no step: the norms divide by N = 0
        with pytest.raises(InvalidInputError, match="at least two nodes"):
            error_norms(np.ones(shape), np.ones(shape))

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
        lines = b"".join(table.to_csv()).decode("ascii").strip().split("\n")
        assert lines[0] == "scheme,n,l1,l2,linf,n_paths"
        assert len(lines) == 7

    @pytest.mark.parametrize("master_seed", [-1, 2**64, False])
    def test_master_seed_is_a_seed(self, master_seed):
        # -1 does not stand for 2^64 - 1
        p = GbmParams(mu=-1.0, sigma=0.5)
        with pytest.raises(InvalidInputError, match="seed must be an integer in"):
            convergence_study(["qpi"], p, [2, 4], 3, master_seed)
        with pytest.raises(InvalidInputError, match="seed must be an integer in"):
            local_error_study(p, [0.5, 0.25], 3, master_seed)

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

    def test_no_schemes(self, monkeypatch):
        # an empty list once drew every path and returned a table of no rows
        monkeypatch.setattr(analysis, "generate_path", lambda *args, **kwargs: pytest.fail("drew a path"))
        with pytest.raises(InvalidInputError, match="schemes must be one or more"):
            convergence_study([], GbmParams(mu=-1.0, sigma=0.5), [4], 2, 1)

    @pytest.mark.parametrize("n_list", [[True, 2], [1, True]], ids=["true-first", "true-last"])
    def test_every_n_is_an_integer_not_a_bool(self, n_list):
        # [True, 2] once wrote a row for n = 1
        with pytest.raises(InvalidInputError, match="every n in n_list must be an integer"):
            convergence_study(["iem"], GbmParams(mu=-1.0, sigma=0.5), n_list, 3, 5)

    @pytest.mark.parametrize("n_paths", [True, False, 3.0, np.float64(3), "3", None],
                             ids=["true", "false", "float", "numpy-float", "str", "none"])
    def test_n_paths_is_an_integer_not_a_bool(self, n_paths):
        with pytest.raises(InvalidInputError, match="n_paths must be an integer"):
            convergence_study(["iem"], GbmParams(mu=-1.0, sigma=0.5), [2, 4], n_paths, 5)

    def test_n_paths_may_be_a_numpy_integer(self):
        p = GbmParams(mu=-1.0, sigma=0.5)
        assert (convergence_study(["iem"], p, [2, 4], np.int64(3), 5).rows
                == convergence_study(["iem"], p, [2, 4], 3, 5).rows)

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
        lines = b"".join(rep.to_csv()).decode("ascii").strip().split("\n")
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

    def test_no_paths(self):
        with pytest.raises(InvalidInputError, match="n_paths must be >= 1, got 0"):
            local_error_study(self.P, [0.1, 0.05], 0, 0)

    @pytest.mark.parametrize("n_paths", [True, 3.0, np.float64(3), None],
                             ids=["true", "float", "numpy-float", "none"])
    def test_n_paths_is_an_integer_not_a_bool(self, n_paths):
        # True once ran one path
        with pytest.raises(InvalidInputError, match="n_paths must be an integer"):
            local_error_study(self.P, [0.5, 0.25], n_paths, 3)

    @pytest.mark.parametrize("mean_sq", [[1e-3, 0.0], [1e-3, -1e-4]])
    def test_slope_needs_positive_errors(self, mean_sq):
        # a log-log fit through a zero or negative error has no slope
        report = LocalErrorReport(dt_list=np.array([0.1, 0.05]), mean_sq=np.array(mean_sq))
        with pytest.raises(InvalidInputError, match="must be positive"):
            report.slope()


COUNTED = {"resolution": lambda n: region_scan("iem", 0.5, (-1.0, 0.0), (0.1, 1.0), n),
           "factor": lambda n: coarsen(generate_path(1, 1.0, 8), n)}


@pytest.mark.parametrize("what, n, message", [
    *((what, n, f"{what} must be an integer, got {n!r}")
      for what in COUNTED for n in (2.5, "5", True, None, np.float64(2.0))),
    ("resolution", 1, "resolution must be >= 2, got 1"),
    ("resolution", 0, "resolution must be >= 2, got 0"),
    ("factor", 0, "factor must be >= 1, got 0"),
    ("factor", -2, "factor must be >= 1, got -2"),
])
def test_library_counts_share_one_contract(what, n, message):
    # a library count is an int, Python or numpy, not a bool, at least 1 or region_scan's 2:
    # a float or a str is refused before any comparison, and True is not taken for 1
    with pytest.raises(InvalidInputError) as err:
        COUNTED[what](n)
    assert str(err.value) == message

