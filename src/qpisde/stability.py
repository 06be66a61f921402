"""Mean-square stability conditions and (mu, dt) region scans at fixed sigma.

Two conditions are provided for the two-step scheme:

* qpi_paper_lhs - the published quotient, implemented verbatim. For small
  dt it is 1 + (4 mu + sigma^2) dt + O(dt^2), against 1 + (4 mu + 2 sigma^2) dt
  + O(dt^2) for the exact E[beta^2], so for mu in (-sigma^2/2, -sigma^2/4) it
  calls parameters stable whose second moment grows. Its cross term takes
  absolute values inside the expectation, and where that term dominates
  (checked at sigma = 0.5, mu*dt <= -0.3) it bounds E[beta^2] from above.
* qpi_exact_amplification - the exact per-block second-moment factor
  E[beta^2], obtained from the decomposition beta = A + B*dWa + C*dWb with
  independent N(0, dt) increments.

Both are compared against each other and against Monte Carlo in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from .model import GbmParams, InvalidInputError, _block_rows, _count
from .schemes import _DIVISORS, _mu_dt, _nonzero, _qpi_denominators

_SVG_WIDTH, _SVG_HEIGHT = 640, 480  # region_to_svg's document size in pixels


def _value(out):  # a 0-d result as a float, any other as the array
    return float(out) if np.ndim(out) == 0 else out


def qpi_paper_lhs(mu: float, sigma: float, dt: float):
    """Published stability quotient; the scheme is mean-square stable iff < 1.

    Accepts scalars or broadcastable arrays.
    """
    h = _mu_dt(mu, dt)
    s2 = sigma * sigma
    d1, d2 = _qpi_denominators(h)
    a1 = 1.0 + 2.0 * h / 3.0 - h**3 / 9.0
    a2 = 1.0 - h + 2.0 * h * h / 9.0
    a3 = (4.0 * h / 3.0) * d2
    num = (a1 * a1
           + dt * s2 * a2 * a2
           + dt * s2 * a3 * a3
           + dt * s2 * np.abs(a3 * a2))
    return _value(num / (d1 * d1 * d2 * d2))


def qpi_exact_amplification(mu: float, sigma: float, dt: float):
    """Exact E[beta^2] per block: A^2 + (B^2 + C^2) * dt.

    beta = A + B*dWa + C*dWb with dWa, dWb independent N(0, dt); A, B, C
    follow from the closed-form block coefficients.
    """
    h = _mu_dt(mu, dt)
    s = sigma
    d1, d2 = _qpi_denominators(h)
    a0 = (1.0 - h * h / 6.0) / d1
    a1 = s * (1.0 - 5.0 * h / 12.0) / d1
    a2 = -s * h / (12.0 * d1)
    big_a = (1.0 + h / 3.0 + (4.0 * h / 3.0) * a0) / d2
    big_b = (s + (4.0 * h / 3.0) * a1) / d2
    big_c = (s + (4.0 * h / 3.0) * a2) / d2
    return _value(big_a**2 + (big_b**2 + big_c**2) * dt)


def iem_amplification(mu: float, sigma: float, dt: float):
    """Per-step second-moment factor of drift-implicit EM: (1+sigma^2 dt)/(1-mu dt)^2."""
    num, den = 1.0 + sigma * sigma * dt, _nonzero("implicit EM step", _mu_dt(mu, dt))
    with np.errstate(over="ignore"):  # den^2 is inf for |1 - mu*dt| > ~1.3e154
        den2 = den * den
    return _value(np.where(np.isinf(den2), num / den / den, num / den2))


def milstein_amplification(mu: float, sigma: float, dt: float):
    """Per-step second-moment factor of Milstein.

    Identical for both sign conventions, so it covers the scheme ids `milstein`
    and `milstein-paper`: the correction is orthogonal to dW, its square sign-free.
    """
    h = _mu_dt(mu, dt)
    # np.float64 ** gives inf on overflow where float ** raises
    return _value((1.0 + h)**2 + sigma * sigma * dt + 0.5 * np.float64(sigma)**4 * dt * dt)


@dataclass(frozen=True)
class RegionGrid:
    """Stability verdicts over a (mu, dt) grid at fixed sigma.

    lhs[i, j] and verdicts[i, j] correspond to (mu_axis[i], dt_axis[j]).
    Singular points carry lhs = nan and are marked unstable.
    """

    condition: str
    sigma: float
    mu_axis: np.ndarray
    dt_axis: np.ndarray
    lhs: np.ndarray
    verdicts: np.ndarray


# condition -> (function, its step in schemes._DIVISORS, whose zeros make it raise; None: no divisor)
_CONDITIONS = {
    "qpi-paper": (qpi_paper_lhs, "block system"),
    "qpi-exact": (qpi_exact_amplification, "block system"),
    "iem": (iem_amplification, "implicit EM step"),
    "milstein": (milstein_amplification, None),
}


def region_scan(condition: str, sigma: float, mu_range, dt_range,
                resolution: int) -> RegionGrid:
    """Scan the stability condition over a rectangle of the (mu, dt) plane.

    mu_range and dt_range are (low, high) pairs with a finite span high - low,
    which keeps every axis value finite; resolution is the number of samples
    per axis (>= 2). Cells whose mu*dt is in the condition's singular set (where
    its function raises SingularStepError) get lhs = nan and are unstable. The
    condition is evaluated elementwise per block of mu rows (region_to_csv's chunk)
    with the regular stand-in mu = 0 at singular cells, so no value depends on
    its neighbours; an overflow at a regular cell raises InvalidInputError.
    """
    if condition not in _CONDITIONS:
        raise InvalidInputError(
            f"unknown condition {condition!r}; expected one of {', '.join(_CONDITIONS)}")
    GbmParams(0.0, sigma)  # sigma's rule: finite and >= 0
    mu_lo, mu_hi = float(mu_range[0]), float(mu_range[1])
    dt_lo, dt_hi = float(dt_range[0]), float(dt_range[1])
    if not (0 < mu_hi - mu_lo < np.inf and 0 < dt_hi - dt_lo < np.inf):
        raise InvalidInputError("ranges must be nonempty intervals (low < high) with a finite "
                                f"span, got mu {mu_lo}:{mu_hi}, dt {dt_lo}:{dt_hi}")
    if dt_lo <= 0:
        raise InvalidInputError(f"dt range must be positive, got low = {dt_lo}")
    resolution = _count(resolution, "resolution", 2)
    mu_axis = np.linspace(mu_lo, mu_hi, resolution)
    dt_axis = np.linspace(dt_lo, dt_hi, resolution)
    fn, singular_step = _CONDITIONS[condition]
    lhs, dt, step = np.empty((resolution, resolution)), dt_axis[None, :], _block_rows(4 * resolution)
    for start in range(0, resolution, step):
        mu, block = mu_axis[start:start + step, None], lhs[start:start + step]
        singular = _DIVISORS[singular_step](mu * dt) == 0.0 if singular_step else np.zeros(block.shape, bool)
        # at mu = 0 every condition is regular: E = 1 - h/3 and 1 - h are 1
        block[...] = fn(np.where(singular, 0.0, mu), sigma, dt)
        if not (np.isfinite(block) | singular).all():
            raise InvalidInputError("stability condition overflowed to inf or nan away from a "
                                    "singular point; no output written")
        block[singular] = np.nan
    # nan < 1.0 is False, so the singular cells come out unstable
    return RegionGrid(condition=condition, sigma=sigma, mu_axis=mu_axis,
                      dt_axis=dt_axis, lhs=lhs, verdicts=lhs < 1.0)


def region_to_csv(grid: RegionGrid):
    """Yield the `mu,dt,lhs,stable` CSV rows of a region scan, row-major over mu, as
    ASCII bytes: the header line, then one item per chunk of whole mu rows of at most
    65,536 values (model._BATCH_VALUES), at least one mu row, each built when asked for."""
    from . import _csvtext  # only CSV output loads the writer
    w = _csvtext._WIDTH
    # each axis value is formatted once; a chunk broadcasts them over its cells
    mu_txt, dt_txt = _csvtext.fields(grid.mu_axis), _csvtext.fields(grid.dt_axis)

    def block(rows):  # a cell's line: its mu, dt and lhs fields, its verdict digit, a byte for the newline
        lhs = grid.lhs[rows]
        line = np.empty(lhs.shape + (3 * w + 2,), dtype=np.uint8)
        line[..., :w], line[..., w:2 * w] = mu_txt[rows, None], dt_txt
        line[..., 2 * w:3 * w] = _csvtext.fields(np.where(np.isfinite(lhs), lhs, np.nan))
        line[..., 3 * w] = np.where(grid.verdicts[rows], ord("1"), ord("0"))
        return line
    return _csvtext.join("mu,dt,lhs,stable", len(mu_txt), 4 * len(dt_txt), block)  # 4 values a cell


def region_to_svg(grid: RegionGrid):
    """Yield the stable cells of a region scan as a standalone SVG document, in ASCII
    bytes: the head, then one item per mu row that has a stable cell, then the axes."""
    ml, mr, mt, mb = 60, 20, 40, 50  # margins
    pw, ph = _SVG_WIDTH - ml - mr, _SVG_HEIGHT - mt - mb
    mu, dt = grid.mu_axis, grid.dt_axis
    nmu, ndt = len(mu), len(dt)
    cw, ch = pw / nmu, ph / ndt

    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<title>Stability region: {grid.condition}, sigma={grid.sigma:g}</title>',
        f'<rect x="0" y="0" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
        f'<text x="{_SVG_WIDTH / 2:.1f}" y="24" text-anchor="middle" font-size="16">'
        f'Stability region ({grid.condition}, sigma={grid.sigma:g})</text>\n',
    ]
    yield "\n".join(head).encode("ascii")
    # one rect line per stable cell, row-major over (mu, dt); a mu row with none adds no chunk
    y_txt = [f'{mt + ph - (j + 1) * ch:.2f}" width="{cw + 0.5:.2f}" '
             f'height="{ch + 0.5:.2f}" fill="#7fb3d5"/>\n'.encode("ascii") for j in range(ndt)]
    for i, stable_row in enumerate(grid.verdicts):
        ys = list(compress(y_txt, stable_row.tolist()))
        if ys:
            x = f'<rect x="{ml + i * cw:.2f}" y="'.encode("ascii")
            yield x + x.join(ys)
    # axes
    parts = [f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
             f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>']
    n_ticks = 5
    for k in range(n_ticks):
        fx = k / (n_ticks - 1)
        xv = mu[0] + fx * (mu[-1] - mu[0])
        px = ml + fx * pw
        parts.append(f'<line x1="{px:.1f}" y1="{mt + ph}" x2="{px:.1f}" y2="{mt + ph + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.1f}" y="{mt + ph + 20}" text-anchor="middle" font-size="12">{xv:.3g}</text>')
        yv = dt[0] + fx * (dt[-1] - dt[0])
        py = mt + ph - fx * ph
        parts.append(f'<line x1="{ml - 5}" y1="{py:.1f}" x2="{ml}" y2="{py:.1f}" stroke="black"/>')
        parts.append(f'<text x="{ml - 8}" y="{py + 4:.1f}" text-anchor="end" font-size="12">{yv:.3g}</text>')
    parts.append(f'<text x="{ml + pw / 2:.1f}" y="{_SVG_HEIGHT - 12}" text-anchor="middle" font-size="14">mu</text>')
    parts.append(f'<text x="18" y="{mt + ph / 2:.1f}" text-anchor="middle" font-size="14" '
                 f'transform="rotate(-90 18 {mt + ph / 2:.1f})">dt</text>')
    parts.append("</svg>\n")
    yield "\n".join(parts).encode("ascii")
