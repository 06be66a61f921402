import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from exact_stability import paper_quotient
from qpisde import model
from qpisde import (GbmParams, InvalidInputError, RegionGrid, SchemeId, SingularStepError,
                    iem_amplification, milstein_amplification,
                    qpi_exact_amplification, qpi_paper_lhs, region_scan,
                    region_to_csv, region_to_svg)
from qpisde.schemes import _one_step_multipliers, _qpi_alpha_beta
from same_text import assert_same_text


class TestPaperCondition:
    def test_zero_drift(self):
        assert qpi_paper_lhs(0.0, 0.5, 0.5) == pytest.approx(1.125, rel=1e-14)

    def test_stable_anchor(self):
        v = qpi_paper_lhs(-1.0, 0.5, 0.5)
        assert v == pytest.approx(paper_quotient(-1.0, 0.5, 0.5), rel=1e-13)
        assert v == pytest.approx(0.2909, rel=1e-3)
        assert v < 1.0

    def test_unstable_anchor(self):
        v = qpi_paper_lhs(1.0, 0.5, 0.5)
        assert v == pytest.approx(paper_quotient(1.0, 0.5, 0.5), rel=1e-13)
        assert v == pytest.approx(7.857, rel=1e-3)
        assert v > 1.0

    def test_matches_reference_on_grid(self):
        for mu in np.linspace(-4.0, 1.0, 11):
            for dt in np.linspace(0.05, 1.0, 9):
                assert qpi_paper_lhs(mu, 0.5, dt) == \
                    pytest.approx(paper_quotient(mu, 0.5, dt), rel=1e-12)

    def test_vectorized_over_mu(self):
        mus = np.array([-2.0, -1.0, 0.0, 1.0])
        vec = qpi_paper_lhs(mus, 0.5, 0.25)
        for m, v in zip(mus, vec):
            assert v == pytest.approx(qpi_paper_lhs(float(m), 0.5, 0.25), rel=1e-15)


class TestExactAmplification:
    def test_zero_drift(self):
        assert qpi_exact_amplification(0.0, 0.5, 0.5) == \
            pytest.approx(1.0 + 2 * 0.25 * 0.5, rel=1e-14)

    def test_anchor(self):
        assert qpi_exact_amplification(-1.0, 0.5, 0.5) == \
            pytest.approx(0.24654, rel=1e-4)

    def test_deterministic_square(self):
        v = qpi_exact_amplification(-1.0, 0.0, 0.1)
        assert v == pytest.approx(0.8187312**2, rel=1e-6)
        assert v == pytest.approx(0.670321, rel=1e-5)

    def test_monte_carlo_consistency_sample(self):
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 5:
            mu = rng.uniform(-3.0, 1.2)
            dt = rng.uniform(0.05, 1.0)
            if abs(mu * dt) > 1.5:
                continue
            sigma = rng.uniform(0.0, 2.0)
            n = 10**5
            dwa = rng.normal(0.0, np.sqrt(dt), n)
            dwb = rng.normal(0.0, np.sqrt(dt), n)
            _, beta = _qpi_alpha_beta(mu, sigma, dt, dwa, dwb)
            b2 = beta * beta
            se = b2.std() / np.sqrt(n)
            assert abs(qpi_exact_amplification(mu, sigma, dt) - b2.mean()) <= 4 * se
            checked += 1

    def test_paper_condition_conservative_for_strongly_negative_drift(self):
        # the published quotient adds a nonnegative cross term proportional
        # to |mu*dt|; for mu*dt <= -0.3 that term dominates and the
        # quotient bounds the exact factor from above
        for mu in np.linspace(-4.0, -0.3, 17):
            for dt in (0.1, 0.25, 0.5, 1.0):
                if mu * dt > -0.3:
                    continue
                assert qpi_paper_lhs(mu, 0.5, dt) >= \
                    qpi_exact_amplification(mu, 0.5, dt) - 1e-12

    def test_paper_condition_not_conservative_near_zero_drift(self):
        # the published quotient accounts for the two-step increment with
        # variance dt instead of 2*dt, so near mu = 0 it sits BELOW the
        # exact second-moment factor: 1 + sigma^2*dt vs 1 + 2*sigma^2*dt
        assert qpi_paper_lhs(0.0, 0.5, 0.5) < qpi_exact_amplification(0.0, 0.5, 0.5)
        assert qpi_paper_lhs(-0.2, 0.5, 0.5) < qpi_exact_amplification(-0.2, 0.5, 0.5)

    # to first order in dt the quotient is 1 + (4 mu + sigma^2) dt and E[beta^2] is
    # 1 + (4 mu + 2 sigma^2) dt, so it certifies mu in (-sigma^2/2, -sigma^2/4)
    @pytest.mark.parametrize("sigma", [0.5, 1.0])
    @pytest.mark.parametrize("dt", [0.01, 0.05])
    def test_paper_condition_certifies_growing_moment_in_band(self, sigma, dt):
        for mu in (-0.3 * sigma**2, -0.4 * sigma**2):
            assert qpi_paper_lhs(mu, sigma, dt) < 1.0 < qpi_exact_amplification(mu, sigma, dt)
        mu = -0.55 * sigma**2  # just outside the band both call it stable
        assert qpi_paper_lhs(mu, sigma, dt) < qpi_exact_amplification(mu, sigma, dt) < 1.0

    def test_paper_condition_wrong_only_in_band_on_bench_grid(self):
        sigma = 0.5
        paper, exact = (region_scan(c, sigma, (-4.0, 1.0), (0.01, 1.0), 300)
                        for c in ("qpi-paper", "qpi-exact"))
        assert not (exact.verdicts & ~paper.verdicts).any()
        wrong = paper.verdicts & ~exact.verdicts
        rows = paper.mu_axis[wrong.any(axis=1)]
        assert wrong.sum() == 1088
        np.testing.assert_allclose(rows, [-0.1204, -0.1037, -0.0870, -0.0702], atol=1e-4)
        assert ((-sigma**2 / 2 < rows) & (rows < -sigma**2 / 4)).all()


@pytest.mark.parametrize("fn", [qpi_paper_lhs, qpi_exact_amplification])
@pytest.mark.parametrize("mu,dt", [(3.0, 1.0), (6.0, 0.5)])
def test_qpi_conditions_singular_at_block_pole(fn, mu, dt):
    # E = 1 - mu*dt/3 vanishes at mu*dt = 3
    with pytest.raises(SingularStepError, match="mu\\*dt = 3"):
        fn(mu, 0.5, dt)


class TestReferenceAmplifications:
    def test_iem_values(self):
        assert iem_amplification(-1.0, 0.5, 0.5) == pytest.approx(0.5, rel=1e-14)
        assert iem_amplification(0.0, 0.5, 0.5) == pytest.approx(1.125, rel=1e-14)
        assert iem_amplification(-2.0, 0.0, 0.3) < 1.0

    def test_iem_singular(self):
        with pytest.raises(SingularStepError, match=r"implicit EM step singular for mu\*dt = 1"):
            iem_amplification(2.0, 0.5, 0.5)

    def test_iem_squared_denominator_overflow(self):
        # (1 - mu*dt)^2 = 1.6e401 overflows; the quotient itself is a normal float
        assert iem_amplification(-4.0, 0.5, 1e200) == 1.5625e-202

    def test_milstein_values(self):
        assert milstein_amplification(-1.0, 0.5, 0.5) == \
            pytest.approx(0.3828125, rel=1e-14)
        assert milstein_amplification(0.0, 1.0, 0.1) == \
            pytest.approx(1.105, rel=1e-14)
        assert milstein_amplification(-0.5, 0.0, 0.2) == \
            pytest.approx(0.81, rel=1e-14)

    def test_milstein_sign_insensitive(self):
        # the scheme's multipliers under either sign share one second moment
        rng = np.random.default_rng(5)
        mu, sigma, dt = -1.0, 0.7, 0.3
        dw = rng.normal(0.0, np.sqrt(dt), 10**6)
        for scheme in (SchemeId.MILSTEIN, SchemeId.MILSTEIN_PAPER):
            m2 = _one_step_multipliers(scheme, GbmParams(mu=mu, sigma=sigma), dt, dw.copy(),
                                       out=np.empty_like(dw)) ** 2
            se = m2.std() / 1000
            assert abs(milstein_amplification(mu, sigma, dt) - m2.mean()) <= 4 * se

    def test_milstein_mc(self):
        rng = np.random.default_rng(3)
        mu, sigma, dt = -1.0, 0.5, 0.25
        dw = rng.normal(0.0, np.sqrt(dt), 10**6)
        m = 1 + mu * dt + sigma * dw + 0.5 * sigma**2 * (dw * dw - dt)
        m2 = m * m
        se = m2.std() / 1000
        assert abs(milstein_amplification(mu, sigma, dt) - m2.mean()) <= 4 * se


CONDITION_FNS = {
    "qpi-paper": qpi_paper_lhs,
    "qpi-exact": qpi_exact_amplification,
    "iem": iem_amplification,
    "milstein": milstein_amplification,
}


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@pytest.mark.parametrize("fn", CONDITION_FNS.values(), ids=CONDITION_FNS.keys())
class TestConditionsBroadcast:
    # no mu*dt below is 1 or 3, so every condition is regular on these grids
    MU = np.array([-3.0, -1.0, 0.0, 0.4])
    DT = np.array([0.1, 0.2, 0.35])

    def test_scalar_mu_array_dt(self, fn):
        out = fn(-1.0, 0.5, self.DT)
        assert out.shape == self.DT.shape
        for j in range(len(self.DT)):
            assert bits(out[j]) == bits(fn(np.array([-1.0]), 0.5, self.DT[j:j + 1])[0])

    def test_outer_grid(self, fn):
        out = fn(self.MU[:, None], 0.5, self.DT[None, :])
        assert out.shape == (len(self.MU), len(self.DT))
        for i in range(len(self.MU)):
            for j in range(len(self.DT)):
                ref = fn(self.MU[i:i + 1], 0.5, self.DT[j:j + 1])[0]
                assert bits(out[i, j]) == bits(ref)


@pytest.mark.parametrize("dt", [-0.5, 0.0, np.nan])
@pytest.mark.parametrize("fn", CONDITION_FNS.values(), ids=CONDITION_FNS.keys())
def test_conditions_reject_dt_not_finite_and_positive(fn, dt):
    with pytest.raises(InvalidInputError, match="dt must be finite and > 0"):
        fn(-1.0, 0.5, dt)


class TestEvaluateAndScan:
    def test_scan_zero_drift_row_unstable(self):
        for cond in ("qpi-paper", "qpi-exact"):
            grid = region_scan(cond, 0.5, (-1.0, 1.0), (0.05, 1.0), 21)
            i = np.argmin(np.abs(grid.mu_axis))
            assert grid.mu_axis[i] == 0.0
            assert not grid.verdicts[i].any()

    def test_scan_iem_deterministic_half_plane(self):
        grid = region_scan("iem", 0.0, (-4.0, -0.1), (0.05, 1.0), 15)
        assert grid.verdicts.all()

    def test_scan_qpi_paper_cells(self):
        grid = region_scan("qpi-paper", 0.5, (-2.0, 2.0), (0.25, 0.75), 5)
        i = int(np.argmin(np.abs(grid.mu_axis - (-1.0))))
        j = int(np.argmin(np.abs(grid.dt_axis - 0.5)))
        assert grid.mu_axis[i] == -1.0 and grid.dt_axis[j] == 0.5
        assert grid.verdicts[i, j]
        k = int(np.argmin(np.abs(grid.mu_axis - 1.0)))
        assert not grid.verdicts[k, j]

    def test_scan_validation(self):
        with pytest.raises(InvalidInputError):
            region_scan("iem", 0.5, (1.0, -1.0), (0.1, 1.0), 10)
        with pytest.raises(InvalidInputError):
            region_scan("iem", 0.5, (-1.0, 1.0), (-0.1, 1.0), 10)
        with pytest.raises(InvalidInputError):
            region_scan("iem", 0.5, (-1.0, 1.0), (0.1, 1.0), 1)
        with pytest.raises(InvalidInputError):
            region_scan("bogus", 0.5, (-1.0, 1.0), (0.1, 1.0), 10)
        for sigma in (float("nan"), float("inf"), -1.0):
            with pytest.raises(InvalidInputError, match="sigma"):
                region_scan("iem", sigma, (-1.0, 1.0), (0.1, 1.0), 10)
        for mu_range, dt_range in [((-1e308, 1e308), (0.1, 1.0)), ((float("nan"), 1.0), (0.1, 1.0)),
                                   ((-1.0, 1.0), (0.1, float("inf")))]:
            with pytest.raises(InvalidInputError, match="finite"):
                region_scan("iem", 0.5, mu_range, dt_range, 10)

    def test_scan_singular_point_marked_unstable(self):
        # iem singular at mu*dt = 1: mu=2, dt=0.5 lies on this grid
        grid = region_scan("iem", 0.5, (0.0, 4.0), (0.25, 0.75), 3)
        i = int(np.argmin(np.abs(grid.mu_axis - 2.0)))
        j = int(np.argmin(np.abs(grid.dt_axis - 0.5)))
        assert np.isnan(grid.lhs[i, j])
        assert not grid.verdicts[i, j]

    def test_csv_output(self):
        grid = region_scan("qpi-paper", 0.5, (-2.0, 0.0), (0.1, 0.5), 4)
        text = b"".join(region_to_csv(grid)).decode("ascii")
        lines = text.strip().split("\n")
        assert lines[0] == "mu,dt,lhs,stable"
        assert len(lines) == 17
        fields = lines[1].split(",")
        assert len(fields) == 4
        assert fields[3] in ("0", "1")

    def test_svg_output(self):
        grid = region_scan("qpi-paper", 0.5, (-2.0, 0.0), (0.1, 0.5), 8)
        text = b"".join(region_to_svg(grid)).decode("ascii")
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        assert "qpi-paper" in text and "sigma=0.5" in text
        # at least one shaded cell plus axes
        assert text.count("<rect") >= 2
        assert text.count("<line") >= 2


def csv_reference(grid):
    """The per-cell CSV writer: three formats and a scalar isfinite per cell."""
    lines = ["mu,dt,lhs,stable"]
    for i, mu in enumerate(grid.mu_axis):
        for j, dt in enumerate(grid.dt_axis):
            v = grid.lhs[i, j]
            lhs_txt = f"{v:.17g}" if np.isfinite(v) else "nan"
            lines.append(f"{mu:.17g},{dt:.17g},{lhs_txt},{int(grid.verdicts[i, j])}")
    return "\n".join(lines) + "\n"


def svg_cells_reference(grid, width=640, height=480):
    """The per-cell SVG rects: one visit and four formats per stable cell."""
    ml, mr, mt, mb = 60, 20, 40, 50
    pw, ph = width - ml - mr, height - mt - mb
    nmu, ndt = len(grid.mu_axis), len(grid.dt_axis)
    cw, ch = pw / nmu, ph / ndt
    cells = []
    for i in range(nmu):
        for j in range(ndt):
            if grid.verdicts[i, j]:
                cells.append(f'<rect x="{ml + i * cw:.2f}" y="{mt + ph - (j + 1) * ch:.2f}" '
                             f'width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}" fill="#7fb3d5"/>')
    return cells


AXIS_VALUES = st.floats(-1e300, 1e300)
LHS_VALUES = st.one_of(st.sampled_from([np.nan, np.inf, -np.inf]), st.floats())


@st.composite
def region_grids(draw, axis_values=AXIS_VALUES):
    nmu, ndt = draw(st.integers(2, 25)), draw(st.integers(2, 25))
    verdicts = draw(st.one_of(st.just(np.ones((nmu, ndt), dtype=bool)),
                              st.just(np.zeros((nmu, ndt), dtype=bool)),
                              arrays(bool, (nmu, ndt))))
    return RegionGrid(condition="qpi-paper", sigma=0.5,
                      mu_axis=draw(arrays(float, nmu, elements=axis_values)),
                      dt_axis=draw(arrays(float, ndt, elements=axis_values)),
                      lhs=draw(arrays(float, (nmu, ndt), elements=LHS_VALUES)),
                      verdicts=verdicts)


# one all-stable, one all-unstable and one mixed mu row, with every special lhs value
FIXED_GRID = RegionGrid(
    condition="qpi-paper", sigma=0.5, mu_axis=np.array([-3.5, 0.0, 1e-300]),
    dt_axis=np.array([0.01, 0.1, 1.0, 12.5, 1e300]),
    lhs=np.array([[np.nan, np.inf, -np.inf, -0.0, 5e-324],
                  [0.5, np.nan, 1.0, 5e-324, -0.0],
                  [-np.inf, 0.25, np.inf, np.nan, 2.0 / 3.0]]),
    verdicts=np.array([[True] * 5, [False] * 5, [False, True, False, True, True]]))

# axes whose texts take the `%` fallback, space-padded, beside shorter and longer ones
FALLBACK_AXES_GRID = RegionGrid(
    condition="qpi-paper", sigma=0.5,
    mu_axis=np.array([-0.0, 5e-324, -2.5, 1e300, -2.2250738585072014e-308]),
    dt_axis=np.array([1e300, 5e-324, 0.125, -0.0]),
    lhs=np.linspace(-1.0, 2.0, 20).reshape(5, 4),
    verdicts=np.linspace(-1.0, 2.0, 20).reshape(5, 4) < 1.0)


class TestWritersMatchPerCellReference:
    @settings(max_examples=200, deadline=None)
    @given(grid=region_grids())
    @example(grid=FIXED_GRID)
    def test_csv(self, grid):
        assert_same_text(b"".join(region_to_csv(grid)).decode("ascii"), csv_reference(grid))

    @settings(max_examples=200, deadline=None)
    @given(grid=region_grids())
    @example(grid=FIXED_GRID)
    def test_svg_cells(self, grid):
        cells = svg_cells_reference(grid)
        # four header lines, the stable cells, then the axes
        lines = b"".join(region_to_svg(grid)).decode("ascii").split("\n")
        assert lines[4:4 + len(cells)] == cells
        assert lines[4 + len(cells)].startswith("<line")

    @settings(max_examples=100, deadline=None)
    @given(grid=region_grids(st.one_of(st.sampled_from([1e300, 5e-324, -0.0]), AXIS_VALUES)))
    @example(grid=FIXED_GRID)
    @example(grid=FALLBACK_AXES_GRID)
    def test_csv_chunks_are_whole_mu_rows(self, grid):
        # 1 and 2 mu rows per chunk, and nmu - 1, which leaves a short last chunk for nmu >= 3
        nmu, ndt = grid.lhs.shape
        for k in (1, 2, nmu - 1):
            with pytest.MonkeyPatch.context() as mp:
                # one value short of k + 1 mu rows of 4 values per cell
                mp.setattr(model, "_BATCH_VALUES", 4 * ndt * (k + 1) - 1)
                chunks = list(region_to_csv(grid))
            assert b"".join(chunks).decode("ascii") == csv_reference(grid)
            assert chunks[0] == b"mu,dt,lhs,stable\n"
            assert all(chunk.endswith(b"\n") for chunk in chunks[1:])
            assert [chunk.count(b"\n") for chunk in chunks[1:]] == [
                ndt * min(k, nmu - start) for start in range(0, nmu, k)]


@pytest.mark.parametrize("rows", [1, 2, 5])
def test_scan_independent_of_block_size(rows, monkeypatch):
    # 7 mu rows in blocks of `rows`, the last one short for 2 and 5; mu*dt = 1 and
    # 3 are on the grid, so every condition with a singular set meets it
    reference = {c: region_scan(c, 0.5, (0.0, 6.0), (0.5, 1.0), 7) for c in CONDITION_FNS}
    monkeypatch.setattr(model, "_BATCH_VALUES", 4 * 7 * rows)
    for condition, ref in reference.items():
        grid = region_scan(condition, 0.5, (0.0, 6.0), (0.5, 1.0), 7)
        assert np.array_equal(bits(grid.lhs), bits(ref.lhs))
        assert np.array_equal(grid.verdicts, ref.verdicts)
    assert all(np.isnan(reference[c].lhs).any() for c in ("qpi-paper", "qpi-exact", "iem"))
    # the mu = 0 row is finite at dt = 1e200, the mu = 1 row overflows in its own block
    monkeypatch.setattr(model, "_BATCH_VALUES", 4 * 2)
    with pytest.raises(InvalidInputError, match="overflowed"), np.errstate(over="ignore", invalid="ignore"):
        region_scan("qpi-paper", 0.5, (0.0, 1.0), (0.01, 1e200), 2)


def scan_reference(condition, sigma, mu_axis, dt_axis):
    """Per-cell reference scan: the public condition on one-element mu arrays,
    with SingularStepError read as lhs = nan and unstable."""
    fn = CONDITION_FNS[condition]
    lhs = np.full((len(mu_axis), len(dt_axis)), np.nan)
    for i in range(len(mu_axis)):
        for j, dt in enumerate(dt_axis):
            try:
                lhs[i, j] = fn(mu_axis[i:i + 1], sigma, dt)[0]
            except SingularStepError:
                pass
    return lhs, lhs < 1.0


@st.composite
def singular_scans(draw):
    """(resolution, mu_range, dt_range) whose grid has a cell at mu*dt = 1 or 3 exactly.

    The planted mu is an end of the mu range, where np.linspace puts it exactly.
    """
    n = draw(st.integers(2, 12))
    dt_lo = draw(st.floats(0.01, 5.0))
    dt_range = (dt_lo, dt_lo + draw(st.floats(0.01, 5.0)))
    dt_axis = np.linspace(*dt_range, n)
    dt = dt_axis[draw(st.integers(0, n - 1))]
    target = draw(st.sampled_from([1.0, 3.0]))
    mu = target / dt
    assume(mu * dt == target)
    span = draw(st.floats(0.1, 50.0))
    mu_range = (mu - span, mu) if draw(st.booleans()) else (mu, mu + span)
    return n, mu_range, dt_range


class TestScanMatchesPerCellReference:
    # a column holding the singular cell mu*dt = 3; a scalar evaluation of
    # that column prints mu = 13.3 one ulp away from the array value
    @example(condition="qpi-paper", sigma=0.5,
             scan=(46, (-42.9, 13.3), (3.698630136986274, 4.698630136986274)))
    @settings(max_examples=100, deadline=None)
    @given(condition=st.sampled_from(sorted(CONDITION_FNS)), sigma=st.floats(0.0, 2.0),
           scan=singular_scans())
    def test_scan(self, condition, sigma, scan):
        resolution, mu_range, dt_range = scan
        grid = region_scan(condition, sigma, mu_range, dt_range, resolution)
        lhs, verdicts = scan_reference(condition, sigma, grid.mu_axis, grid.dt_axis)
        assert np.array_equal(bits(grid.lhs), bits(lhs))
        assert np.array_equal(grid.verdicts, verdicts)
