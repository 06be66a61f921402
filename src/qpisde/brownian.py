"""Seeded Wiener-path generation with exact coarsening to divisor grids.

A path is generated once at a finest resolution; every coarser grid used in
a convergence study is obtained by restricting the same node values, so all
schemes and all step counts see the same underlying randomness.

Sampling method (fixed for reproducibility): a numpy PCG64 generator seeded
with the path seed produces 53-bit uniforms, which are mapped to standard
normals through the inverse normal CDF (scipy.special.ndtri) and scaled by
sqrt(dt). Per-path seeds for Monte Carlo runs are derived from a master seed
and the path index with a splitmix64 mix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import InvalidInputError

_MASK64 = (1 << 64) - 1


def mix_seed(master_seed: int, index: int) -> int:
    """Derive an independent 64-bit stream seed from (master_seed, index).

    splitmix64 finalizer applied to master_seed advanced by index+1 gamma
    steps; distinct indices give well-separated streams.
    """
    z = (master_seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _standard_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    """Inverse-CDF normals from 53-bit uniforms strictly inside (0, 1)."""
    u = (rng.integers(0, 1 << 53, size=size, dtype=np.uint64) + 0.5) / float(1 << 53)
    return ndtri(u)


@dataclass(frozen=True)
class BrownianPath:
    """A Wiener path sampled on a uniform grid, immutable after creation.

    nodes holds W(t_i) at the n_fine+1 grid nodes (nodes[0] = 0);
    increments are the consecutive node differences, each N(0, t_end/n_fine).
    """

    seed: int
    t_end: float
    n_fine: int
    increments: np.ndarray
    nodes: np.ndarray


def generate_path(seed: int, t_end: float, n_fine: int) -> BrownianPath:
    """Sample a seeded Wiener path with n_fine increments on [0, t_end]."""
    if n_fine < 1:
        raise InvalidInputError(f"n_fine must be >= 1, got {n_fine}")
    if not (t_end > 0 and math.isfinite(t_end)):
        raise InvalidInputError(f"t_end must be positive and finite, got {t_end}")
    rng = np.random.default_rng(seed)
    raw = _standard_normal(rng, n_fine) * math.sqrt(t_end / n_fine)
    nodes = np.concatenate(([0.0], np.cumsum(raw)))
    increments = np.diff(nodes)
    return BrownianPath(seed=seed, t_end=t_end, n_fine=n_fine,
                        increments=increments, nodes=nodes)


def coarsen(path: BrownianPath, factor: int) -> BrownianPath:
    """Restrict a path to every factor-th node.

    The coarse increments aggregate the fine ones, and node values at
    shared nodes are preserved bit-exactly, so coarsening commutes with
    itself: coarsen(coarsen(p, a), b) == coarsen(p, a*b).
    """
    if factor < 1 or path.n_fine % factor != 0:
        raise InvalidInputError(
            f"factor {factor} does not divide n_fine {path.n_fine}"
        )
    nodes = path.nodes[::factor]
    return BrownianPath(seed=path.seed, t_end=path.t_end,
                        n_fine=path.n_fine // factor,
                        increments=np.diff(nodes), nodes=nodes)
