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

from ._csvtext import _BATCH_VALUES
from .brownian import _standard_normal, coarsen, generate_path, mix_seed
from .errors import InvalidInputError
from .model import GbmParams, exact_solution
from .schemes import SchemeId, _qpi_alpha_beta, integrate

def error_norms(exact, approx):
    """Discrete (l1, l2, linf) error norms along the last (node) axis.

    exact and approx hold trajectories on one grid, one row per path; each
    norm has one value per row (a scalar for a single trajectory).
    """
    exact, approx = np.asarray(exact, dtype=float), np.asarray(approx, dtype=float)
    if exact.shape != approx.shape or exact.ndim == 0:
        raise InvalidInputError(f"trajectory shapes differ: {exact.shape} and {approx.shape}")
    n = exact.shape[-1] - 1
    if n < 1:
        raise InvalidInputError("trajectories must have at least two nodes")
    e = exact - approx
    np.abs(e, out=e)
    l1, linf = e.sum(axis=-1) / n, e.max(axis=-1)
    e *= e
    return l1, np.sqrt(e.sum(axis=-1) / n), linf


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
    """Error reports over a refinement ladder, one per (scheme, step count)."""

    rows: list[ErrorReport] = field(default_factory=list)

    def to_csv(self) -> list[bytes]:
        lines = [f"{r.scheme.value},{r.n_steps},{r.l1:.17g},{r.l2:.17g},{r.linf:.17g},{r.n_paths}"
                 for r in self.rows]
        return ["\n".join(["scheme,n,l1,l2,linf,n_paths", *lines, ""]).encode("ascii")]


def convergence_study(schemes, params: GbmParams, n_list, n_paths: int,
                      master_seed: int, t_end: float = 1.0) -> ConvergenceTable:
    """Mean strong-error table over shared Brownian paths.

    For each block of paths: draw one fine path per row at max(n_list)
    resolution, coarsen the block to every requested N, integrate every
    scheme, and measure the norms against the pathwise exact solution on the
    same Wiener values. Rows hold the mean of each norm over the paths.
    """
    schemes = [SchemeId.parse(s) for s in schemes]
    if len(set(schemes)) != len(schemes):
        raise InvalidInputError(f"schemes must not repeat, got {', '.join(s.value for s in schemes)}")
    n_list = list(n_list)
    if not all(isinstance(n, (int, np.integer)) for n in n_list):
        raise InvalidInputError(f"every n in n_list must be an integer, got {n_list}")
    n_list = [int(n) for n in n_list]
    if not n_list or sorted(n_list) != n_list or len(set(n_list)) != len(n_list):
        raise InvalidInputError("n_list must be strictly ascending and nonempty")
    n_max = n_list[-1]
    for n in n_list:
        if n < 1 or n_max % n != 0:
            raise InvalidInputError(f"every n in n_list must be >= 1 and divide max(n_list); got {n} for {n_max}")
    if n_paths < 1:
        raise InvalidInputError(f"n_paths must be >= 1, got {n_paths}")

    norms = {(s, n): np.empty((3, n_paths)) for s in schemes for n in n_list}
    block = max(1, _BATCH_VALUES // (n_max + 1))
    for start in range(0, n_paths, block):
        stop = min(start + block, n_paths)
        fine = generate_path([mix_seed(master_seed, k) for k in range(start, stop)],
                             t_end, n_max)
        for n in n_list:
            w = coarsen(fine, n_max // n)
            exact = exact_solution(params, t_end, w)
            for s in schemes:
                approx = integrate(s, params, t_end, w)
                norms[(s, n)][:, start:stop] = error_norms(exact, approx)
    table = ConvergenceTable()
    for (s, n), v in norms.items():
        # the mean adds the paths in order, so it does not depend on the block size
        l1, l2, linf = np.add.accumulate(v, axis=1)[:, -1] / n_paths
        table.rows.append(ErrorReport(s, n, l1, l2, linf, n_paths))
    return table


@dataclass(frozen=True)
class LocalErrorReport:
    """Mean-square one-block errors per dt, with the fitted log-log slope."""

    dt_list: np.ndarray
    mean_sq: np.ndarray

    def slope(self) -> float:
        """Fitted slope of log E|delta|^2 against log dt."""
        if np.any(self.mean_sq <= 0):
            raise InvalidInputError("mean-square errors must be positive for a log-log fit")
        s, _ = np.polyfit(np.log(self.dt_list), np.log(self.mean_sq), 1)
        return float(s)

    def to_csv(self) -> list[bytes]:
        lines = [f"{dt:.17g},{m:.17g}" for dt, m in zip(self.dt_list, self.mean_sq)]
        text = "\n".join(["dt,mean_sq_local_error", *lines, f"# slope={self.slope():.17g}", ""])
        return [text.encode("ascii")]


def local_error_study(params: GbmParams, dt_list, n_paths: int,
                      master_seed: int) -> LocalErrorReport:
    """Mean-square error of one two-step block against the exact solution.

    For each dt, sample n_paths independent increment pairs (dWa, dWb),
    apply one block from x0, and compare with the exact solution at
    t = 2*dt driven by the same Wiener values.
    """
    dts = np.asarray(list(dt_list), dtype=float)
    if not np.all(np.isfinite(dts)) or np.any(dts <= 0) or np.any(np.diff(dts) >= 0):
        raise InvalidInputError(
            f"dt_list must be strictly descending finite positive values, got {dts.tolist()}")
    if dts.size < 2:
        raise InvalidInputError(f"dt_list needs at least 2 values to fit a slope, got {dts.tolist()}")
    if n_paths < 1:
        raise InvalidInputError(f"n_paths must be >= 1, got {n_paths}")
    mean_sq = np.empty_like(dts)
    mu, sigma, x0 = params.mu, params.sigma, params.x0
    for k, dt in enumerate(dts):
        z = _standard_normal(np.random.PCG64(mix_seed(master_seed, k)).random_raw(2 * n_paths))
        z *= math.sqrt(dt)
        dWa, dWb = z[:n_paths], z[n_paths:]
        _, beta = _qpi_alpha_beta(mu, sigma, dt, dWa, dWb)
        # np.float64 ** gives inf on overflow where float ** raises
        exact = np.exp((mu - 0.5 * np.float64(sigma)**2) * 2.0 * dt + sigma * (dWa + dWb))
        delta = x0 * (exact - beta)
        mean_sq[k] = float(np.mean(delta * delta))
    return LocalErrorReport(dt_list=dts, mean_sq=mean_sq)
