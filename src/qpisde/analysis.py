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

from dataclasses import dataclass

import numpy as np

from .brownian import _increments, coarsen, generate_path, mix_seed
from .model import GbmParams, InvalidInputError, _block_rows, _buffer, _count, _front, _half_sigma_sq, exact_solution
from .schemes import SchemeId, _qpi_alpha_beta, integrate

def error_norms(exact, approx, scratch=None):
    """Discrete (l1, l2, linf) error norms along the last (node) axis.

    exact and approx hold trajectories on one grid, one row per path; each
    norm has one value per row (a scalar for a single trajectory). The call's
    temporaries go to scratch if given, under the kernels' buffer rule
    (model._buffer); scratch may be exact or approx itself.
    """
    exact, approx = np.asarray(exact, dtype=float), np.asarray(approx, dtype=float)
    if exact.shape != approx.shape or exact.ndim == 0:
        raise InvalidInputError(f"trajectory shapes differ: {exact.shape} and {approx.shape}")
    n = exact.shape[-1] - 1
    if n < 1:
        raise InvalidInputError("trajectories must have at least two nodes")
    e = np.subtract(exact, approx, out=_buffer(scratch, exact.shape))
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


@dataclass(frozen=True)
class ConvergenceTable:
    """Error reports over a refinement ladder, one per (scheme, step count), fixed when built."""

    rows: tuple[ErrorReport, ...]

    def to_csv(self) -> list[bytes]:
        lines = [f"{r.scheme.value},{r.n_steps},{r.l1:.17g},{r.l2:.17g},{r.linf:.17g},{r.n_paths}"
                 for r in self.rows]
        return ["\n".join(["scheme,n,l1,l2,linf,n_paths", *lines, ""]).encode("ascii")]


def _workspace(n_list, n_paths, n_schemes):
    """A convergence study's ladder and path count, checked, and the shapes of all its arrays.

    n_list must be strictly ascending counts that each divide its last, n_max. The arrays are
    the norms, (l1, l2, linf) per path for each of n_schemes schemes and each n; the workspace:
    the fine path block, the exact and approximate trajectories and a scratch array, each of
    block rows by n_max + 1, where a block holds _block_rows(n_max + 1) paths, and at most
    n_paths; then a buffer for each coarser grid n, for the coarsened rows of whole blocks: as
    many blocks as a workspace array holds at n + 1 nodes, but no more than the study draws.
    """
    n_list = [_count(n, "every n in n_list") for n in n_list]
    if not n_list or sorted(n_list) != n_list or len(set(n_list)) != len(n_list):
        raise InvalidInputError("n_list must be strictly ascending and nonempty")
    n_max, n_paths = n_list[-1], _count(n_paths, "n_paths")
    for n in n_list:
        if n_max % n != 0:
            raise InvalidInputError(f"every n in n_list must divide max(n_list); got {n} for {n_max}")
    block = min(_block_rows(n_max + 1), n_paths)
    buffers = [(block * min((n_max + 1) // (n + 1), -(-n_paths // block)), n + 1) for n in n_list[:-1]]
    return n_list, n_paths, [(n_schemes, len(n_list), 3, n_paths), (4, block, n_max + 1), *buffers]


def convergence_study(schemes, params: GbmParams, n_list, n_paths: int,
                      master_seed: int, t_end: float = 1.0) -> ConvergenceTable:
    """Mean strong-error table over shared Brownian paths.

    For each block of paths: draw one fine path per row at max(n_list)
    resolution, integrate every scheme on it and measure the norms against
    the pathwise exact solution on the same Wiener values; then coarsen the
    block into each coarser grid's buffer, whose kernels run once it is full
    or holds the last path. Rows hold the mean of each norm over the paths.
    The arrays of _workspace are allocated once.
    """
    schemes = [SchemeId.parse(s) for s in schemes]
    if len(set(schemes)) != len(schemes):
        raise InvalidInputError(f"schemes must not repeat, got {', '.join(s.value for s in schemes)}")
    n_list, n_paths, shapes = _workspace(n_list, n_paths, len(schemes))
    n_max = n_list[-1]
    norms, work, *buffers = map(np.empty, shapes)

    def run(k, w, first):  # every kernel on grid n_list[k] for the paths first, first + 1, ... in w
        exact, approx, scratch = (_front(a, w.shape) for a in work[1:])
        exact_solution(params, t_end, w, out=exact)
        for j, s in enumerate(schemes):
            integrate(s, params, t_end, w, out=approx, scratch=scratch)
            norms[j, k, :, first:first + len(w)] = error_norms(exact, approx, scratch=scratch)
    for start in range(0, n_paths, work.shape[1]):
        stop = min(start + work.shape[1], n_paths)
        fine = generate_path(mix_seed(master_seed, np.arange(start, stop)), t_end, n_max,
                             out=work[0, :stop - start])
        run(len(n_list) - 1, fine, start)
        for k, (n, buffer) in enumerate(zip(n_list, buffers)):
            first = start - start % len(buffer)  # a buffer holds whole blocks
            buffer[start - first:stop - first] = coarsen(fine, n_max // n)
            if stop - first == len(buffer) or stop == n_paths:
                run(k, buffer[:stop - first], first)
    # the mean adds the paths in order, so it does not depend on the block size
    return ConvergenceTable(tuple(ErrorReport(s, n, *np.add.accumulate(v, axis=1)[:, -1] / n_paths, n_paths)
                                  for s, by_n in zip(schemes, norms) for n, v in zip(n_list, by_n)))


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
    n_paths = _count(n_paths, "n_paths")
    mean_sq = np.empty_like(dts)
    mu, sigma, x0 = params.mu, params.sigma, params.x0
    seeds = mix_seed(master_seed, np.arange(dts.size))
    draws, step = np.empty((1, 2 * n_paths + 1)), _block_rows(1)  # one dt's draws; samples per block
    for k, dt in enumerate(dts):
        z = _increments(seeds[k:k + 1], dt, draws)[0, 1:]
        dWa, dWb = z[:n_paths], z[n_paths:]
        drift = (mu - _half_sigma_sq(sigma)) * 2.0 * dt
        for i in range(0, n_paths, step):  # a block's squared errors go over its dWa, once used
            a, b = dWa[i:i + step], dWb[i:i + step]
            _, beta = _qpi_alpha_beta(mu, sigma, dt, a, b)
            delta = x0 * (np.exp(drift + sigma * (a + b)) - beta)
            np.multiply(delta, delta, out=a)
        mean_sq[k] = float(np.mean(dWa))  # one pairwise sum over all samples, whatever the block size
    return LocalErrorReport(dt_list=dts, mean_sq=mean_sq)
