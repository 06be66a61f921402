"""Error norms, convergence studies and local (one-block) error measurement.

The discrete norms follow the reporting convention of the comparison
tables: the sums run over all N+1 nodes but are divided by N, i.e.

    l1   = (1/N) sum |e_i|
    l2   = sqrt((1/N) sum |e_i|^2)
    linf = max |e_i|

A convergence study shares one fine Brownian path per Monte Carlo sample
across all step counts (coarsened, never regenerated), so the reported
error differences between resolutions are purely discretization effects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .brownian import _standard_normal, coarsen, generate_path, mix_seed
from .errors import InvalidInputError
from .model import GbmParams, TimeGrid, Trajectory, exact_solution
from .schemes import SchemeId, _qpi_alpha_beta, integrate

NORMS = ("l1", "l2", "linf")


def error_norms(exact: Trajectory, approx: Trajectory) -> tuple[float, float, float]:
    """Discrete (l1, l2, linf) error norms between two trajectories on one grid."""
    if exact.times.shape != approx.times.shape or not np.array_equal(exact.times, approx.times):
        raise InvalidInputError("trajectories must share an identical time axis")
    n = len(exact.times) - 1
    if n < 1:
        raise InvalidInputError("trajectories must have at least two nodes")
    e = np.abs(exact.values - approx.values)
    l1 = float(e.sum() / n)
    l2 = float(math.sqrt((e * e).sum() / n))
    linf = float(e.max())
    return l1, l2, linf


@dataclass(frozen=True)
class ErrorReport:
    """Mean error norms for one (scheme, step count) over a set of paths."""

    scheme: SchemeId
    n_steps: int
    l1: float
    l2: float
    linf: float
    n_paths: int


@dataclass
class ConvergenceTable:
    """Error reports over a refinement ladder, with fitted orders per norm."""

    t_end: float
    rows: list[ErrorReport] = field(default_factory=list)

    def errors(self, scheme: SchemeId, norm: str) -> tuple[list[int], list[float]]:
        """(n_list, error list) for one scheme and norm, ascending in n."""
        if norm not in NORMS:
            raise InvalidInputError(f"unknown norm {norm!r}; expected one of {NORMS}")
        rows = sorted((r for r in self.rows if r.scheme is scheme), key=lambda r: r.n_steps)
        return [r.n_steps for r in rows], [getattr(r, norm) for r in rows]

    def estimated_order(self, scheme: SchemeId, norm: str) -> float:
        n_list, errs = self.errors(scheme, norm)
        return estimate_order(n_list, errs, t_end=self.t_end)

    def to_csv(self) -> str:
        lines = ["scheme,n,l1,l2,linf,n_paths"]
        for r in self.rows:
            lines.append(f"{r.scheme.value},{r.n_steps},{r.l1:.17g},{r.l2:.17g},"
                         f"{r.linf:.17g},{r.n_paths}")
        return "\n".join(lines) + "\n"


def convergence_study(schemes, params: GbmParams, n_list, n_paths: int,
                      master_seed: int, t_end: float = 1.0,
                      milstein_sign: str = "standard") -> ConvergenceTable:
    """Mean strong-error table over shared Brownian paths.

    For each path: draw one fine path at max(n_list) resolution, coarsen it
    to every requested N, integrate every scheme, and measure the norms
    against the pathwise exact solution on the same Wiener values. Rows
    hold the mean of each norm over the paths.
    """
    schemes = [SchemeId.parse(s) if isinstance(s, str) else s for s in schemes]
    n_list = [int(n) for n in n_list]
    if not n_list or sorted(n_list) != n_list or len(set(n_list)) != len(n_list):
        raise InvalidInputError("n_list must be strictly ascending and nonempty")
    n_max = n_list[-1]
    for n in n_list:
        if n_max % n != 0:
            raise InvalidInputError(f"every n in n_list must divide max(n_list); {n} does not divide {n_max}")
        if SchemeId.QPI in schemes and n % 2 != 0:
            raise InvalidInputError("N must be even for qpi")
    if n_paths < 1:
        raise InvalidInputError(f"n_paths must be >= 1, got {n_paths}")

    grids = {n: TimeGrid(t_end=t_end, n_steps=n) for n in n_list}
    acc = {(s, n): np.zeros(3) for s in schemes for n in n_list}
    for ipath in range(n_paths):
        fine = generate_path(mix_seed(master_seed, ipath), t_end, n_max)
        for n in n_list:
            p = coarsen(fine, n_max // n)
            grid = grids[n]
            exact = exact_solution(params, grid, p.nodes)
            for s in schemes:
                approx = integrate(s, params, grid, p, milstein_sign=milstein_sign)
                acc[(s, n)] += np.array(error_norms(exact, approx))
    table = ConvergenceTable(t_end=t_end)
    for s in schemes:
        for n in n_list:
            l1, l2, linf = acc[(s, n)] / n_paths
            table.rows.append(ErrorReport(scheme=s, n_steps=n, l1=l1, l2=l2,
                                          linf=linf, n_paths=n_paths))
    return table


def estimate_order(n_list, errors, t_end: float = 1.0) -> float:
    """Least-squares slope of log(error) against log(dt) with dt = t_end/n."""
    n_list = np.asarray(n_list, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(n_list) < 2 or len(n_list) != len(errors):
        raise InvalidInputError("need at least 2 matching (n, error) points")
    if np.any(errors <= 0):
        raise InvalidInputError("errors must be positive for a log-log fit")
    x = np.log(t_end / n_list)
    y = np.log(errors)
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


@dataclass(frozen=True)
class LocalErrorReport:
    """Mean-square one-block errors per dt, with the fitted log-log slope."""

    dt_list: np.ndarray
    mean_sq: np.ndarray
    n_samples: int

    def slope(self) -> float:
        """Fitted slope of log E|delta|^2 against log dt."""
        if np.any(self.mean_sq <= 0):
            raise InvalidInputError("mean-square errors must be positive for a log-log fit")
        s, _ = np.polyfit(np.log(self.dt_list), np.log(self.mean_sq), 1)
        return float(s)

    def to_csv(self) -> str:
        lines = ["dt,mean_sq_local_error"]
        for dt, m in zip(self.dt_list, self.mean_sq):
            lines.append(f"{dt:.17g},{m:.17g}")
        lines.append(f"# slope={self.slope():.17g}")
        return "\n".join(lines) + "\n"


def local_error_study(params: GbmParams, dt_list, n_paths: int,
                      master_seed: int) -> LocalErrorReport:
    """Mean-square error of one two-step block against the exact solution.

    For each dt, sample n_paths independent increment pairs (dWa, dWb),
    apply one block from x0, and compare with the exact solution at
    t = 2*dt driven by the same Wiener values.
    """
    dts = np.asarray(list(dt_list), dtype=float)
    if dts.size == 0:
        raise InvalidInputError("dt_list must be nonempty")
    if np.any(dts <= 0) or np.any(np.diff(dts) >= 0):
        raise InvalidInputError("dt_list must be strictly descending positive values")
    if n_paths < 1:
        raise InvalidInputError(f"n_paths must be >= 1, got {n_paths}")
    mean_sq = np.empty_like(dts)
    mu, sigma, x0 = params.mu, params.sigma, params.x0
    for k, dt in enumerate(dts):
        rng = np.random.default_rng(mix_seed(master_seed, k))
        z = _standard_normal(rng, 2 * n_paths) * math.sqrt(dt)
        dWa, dWb = z[:n_paths], z[n_paths:]
        _, beta = _qpi_alpha_beta(mu, sigma, dt, dWa, dWb)
        exact = np.exp((mu - 0.5 * sigma**2) * 2.0 * dt + sigma * (dWa + dWb))
        delta = x0 * (exact - beta)
        mean_sq[k] = float(np.mean(delta * delta))
    return LocalErrorReport(dt_list=dts, mean_sq=mean_sq, n_samples=n_paths)
