"""Mean-square stability conditions and (mu, dt) region scans at fixed sigma.

Two conditions are provided for the two-step scheme:

* qpi_paper_lhs - the published quotient, implemented verbatim. Its cross
  term takes absolute values inside the expectation, so it is an upper
  bound, not the exact second moment.
* qpi_exact_amplification - the exact per-block second-moment factor
  E[beta^2], obtained from the decomposition beta = A + B*dWa + C*dWb with
  independent N(0, dt) increments.

Both are compared against each other and against Monte Carlo in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, SingularStepError
from .schemes import _qpi_denominators


def qpi_paper_lhs(mu: float, sigma: float, dt: float):
    """Published stability quotient; the scheme is mean-square stable iff < 1.

    Accepts scalars or broadcastable arrays.
    """
    h = np.asarray(mu, dtype=float) * dt
    s2 = sigma * sigma
    d1, d2 = _qpi_denominators(h)
    a1 = 1.0 + 2.0 * h / 3.0 - h**3 / 9.0
    a2 = 1.0 - h + 2.0 * h * h / 9.0
    a3 = (4.0 * h / 3.0) * d2
    num = (a1 * a1
           + dt * s2 * a2 * a2
           + dt * s2 * a3 * a3
           + dt * s2 * np.abs(a3 * a2))
    out = num / (d1 * d1 * d2 * d2)
    return float(out) if np.isscalar(mu) else out


def qpi_exact_amplification(mu: float, sigma: float, dt: float):
    """Exact E[beta^2] per block: A^2 + (B^2 + C^2) * dt.

    beta = A + B*dWa + C*dWb with dWa, dWb independent N(0, dt); A, B, C
    follow from the closed-form block coefficients.
    """
    h = np.asarray(mu, dtype=float) * dt
    s = sigma
    d1, d2 = _qpi_denominators(h)
    a0 = (1.0 - h * h / 6.0) / d1
    a1 = s * (1.0 - 5.0 * h / 12.0) / d1
    a2 = -s * h / (12.0 * d1)
    big_a = (1.0 + h / 3.0 + (4.0 * h / 3.0) * a0) / d2
    big_b = (s + (4.0 * h / 3.0) * a1) / d2
    big_c = (s + (4.0 * h / 3.0) * a2) / d2
    out = big_a**2 + (big_b**2 + big_c**2) * dt
    return float(out) if np.isscalar(mu) else out


def iem_amplification(mu: float, sigma: float, dt: float):
    """Per-step second-moment factor of drift-implicit EM: (1+sigma^2 dt)/(1-mu dt)^2."""
    h = np.asarray(mu, dtype=float) * dt
    den = 1.0 - h
    if np.any(den == 0.0):
        raise SingularStepError(f"implicit EM amplification singular: mu*dt = 1")
    out = (1.0 + sigma * sigma * dt) / (den * den)
    return float(out) if np.isscalar(mu) else out


def milstein_amplification(mu: float, sigma: float, dt: float):
    """Per-step second-moment factor of Milstein.

    Identical for both sign conventions: the correction term is orthogonal
    to dW and its square is sign-insensitive.
    """
    if dt <= 0:
        raise InvalidInputError(f"dt must be positive, got {dt}")
    h = np.asarray(mu, dtype=float) * dt
    out = (1.0 + h)**2 + sigma * sigma * dt + 0.5 * sigma**4 * dt * dt
    return float(out) if np.isscalar(mu) else out


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


_CONDITION_FNS = {
    "qpi-paper": qpi_paper_lhs,
    "qpi-exact": qpi_exact_amplification,
    "iem": iem_amplification,
    "milstein": milstein_amplification,
}


def region_scan(condition: str, sigma: float, mu_range, dt_range,
                resolution: int) -> RegionGrid:
    """Scan the stability condition over a rectangle of the (mu, dt) plane.

    mu_range and dt_range are (low, high) pairs with a finite span high - low,
    which keeps every axis value finite; resolution is the number of samples
    per axis (>= 2). Points where a denominator vanishes are flagged unstable
    with lhs = nan; a value that overflows anywhere else raises InvalidInputError.
    """
    if condition not in _CONDITION_FNS:
        raise InvalidInputError(
            f"unknown condition {condition!r}; expected one of {', '.join(_CONDITION_FNS)}")
    if not (np.isfinite(sigma) and sigma >= 0):
        raise InvalidInputError(f"sigma must be finite and >= 0, got {sigma}")
    mu_lo, mu_hi = float(mu_range[0]), float(mu_range[1])
    dt_lo, dt_hi = float(dt_range[0]), float(dt_range[1])
    if not (0 < mu_hi - mu_lo < np.inf and 0 < dt_hi - dt_lo < np.inf):
        raise InvalidInputError("ranges must be nonempty intervals (low < high) with a finite "
                                f"span, got mu {mu_lo}:{mu_hi}, dt {dt_lo}:{dt_hi}")
    if dt_lo <= 0:
        raise InvalidInputError(f"dt range must be positive, got low = {dt_lo}")
    if resolution < 2:
        raise InvalidInputError(f"resolution must be >= 2, got {resolution}")
    mu_axis = np.linspace(mu_lo, mu_hi, resolution)
    dt_axis = np.linspace(dt_lo, dt_hi, resolution)
    fn = _CONDITION_FNS[condition]
    lhs = np.full((resolution, resolution), np.nan)
    singular = np.zeros((resolution, resolution), dtype=bool)
    for j, dt in enumerate(dt_axis):
        try:
            col = fn(mu_axis, sigma, dt)
            lhs[:, j] = col
        except SingularStepError:
            # a singular mu*dt inside this column; fall back pointwise
            for i, mu in enumerate(mu_axis):
                try:
                    lhs[i, j] = fn(float(mu), sigma, dt)
                except SingularStepError:
                    singular[i, j] = True
    if not np.isfinite(lhs[~singular]).all():
        raise InvalidInputError("stability condition overflowed to inf or nan away from a "
                                "singular point; no output written")
    with np.errstate(invalid="ignore"):
        verdicts = np.where(np.isfinite(lhs), lhs < 1.0, False)
    return RegionGrid(condition=condition, sigma=sigma, mu_axis=mu_axis,
                      dt_axis=dt_axis, lhs=lhs, verdicts=verdicts.astype(bool))


def region_to_csv(grid: RegionGrid) -> str:
    """Serialize a region scan as `mu,dt,lhs,stable` rows (row-major over mu)."""
    dt_txt = [f"{dt:.17g}," for dt in grid.dt_axis.tolist()]
    lhs = np.where(np.isfinite(grid.lhs), grid.lhs, np.nan).tolist()
    stable = grid.verdicts.astype(int).tolist()
    lines = ["mu,dt,lhs,stable"]
    for mu, lhs_row, stable_row in zip(grid.mu_axis.tolist(), lhs, stable):
        mu_txt = f"{mu:.17g},"
        lines.extend([f"{mu_txt}{d}{v:.17g},{s}" for d, v, s in zip(dt_txt, lhs_row, stable_row)])
    return "\n".join(lines) + "\n"


def region_to_svg(grid: RegionGrid, width: int = 640, height: int = 480) -> str:
    """Render the stable cells of a region scan as a standalone SVG document."""
    ml, mr, mt, mb = 60, 20, 40, 50  # margins
    pw, ph = width - ml - mr, height - mt - mb
    mu, dt = grid.mu_axis, grid.dt_axis
    nmu, ndt = len(mu), len(dt)
    cw, ch = pw / nmu, ph / ndt

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<title>Stability region: {grid.condition}, sigma={grid.sigma:g}</title>',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="16">'
        f'Stability region ({grid.condition}, sigma={grid.sigma:g})</text>',
    ]
    # one rect per stable cell, row-major over (mu, dt) as np.nonzero returns them
    x_txt = [f'<rect x="{ml + i * cw:.2f}" y="' for i in range(nmu)]
    y_txt = [f'{mt + ph - (j + 1) * ch:.2f}" width="{cw + 0.5:.2f}" '
             f'height="{ch + 0.5:.2f}" fill="#7fb3d5"/>' for j in range(ndt)]
    rows, cols = np.nonzero(grid.verdicts)
    parts.extend([x_txt[i] + y_txt[j] for i, j in zip(rows.tolist(), cols.tolist())])
    # axes
    parts.append(f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>')
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>')
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
    parts.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 12}" text-anchor="middle" font-size="14">mu</text>')
    parts.append(f'<text x="18" y="{mt + ph / 2:.1f}" text-anchor="middle" font-size="14" '
                 f'transform="rotate(-90 18 {mt + ph / 2:.1f})">dt</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
