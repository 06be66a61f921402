"""Seeded Wiener-path generation with exact coarsening to divisor grids.

A path is an array of Wiener values with the grid nodes on its last axis,
one row per path. It is generated once at a finest resolution; every coarser
grid in a convergence study restricts the same node values, so all schemes
and all step counts see the same underlying randomness.

Sampling method (fixed for reproducibility): a numpy PCG64 bit generator
seeded with the path seed gives one raw 64-bit word per increment; its top 53
bits k become the uniform (k + 0.5) / 2^53, which is mapped to a standard
normal through the inverse normal CDF (scipy.special.ndtri, imported at the
first draw, so code that draws no normal runs on numpy alone) and scaled by
sqrt(dt). The k are exactly default_rng(seed).integers(0, 2**53): for a
power-of-two range numpy's bounded-integer draw never rejects a word and
keeps its top 53 bits. Per-path seeds for Monte Carlo runs are derived from
a master seed and the path index with a splitmix64 mix.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError
from .model import _step_size

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


def _standard_normal(raw: np.ndarray) -> np.ndarray:
    """Inverse-CDF normals from raw PCG64 words, computed in their own memory.

    The top 53 bits k of each word give u = (k + 0.5) / 2^53 strictly inside
    (0, 1): for k >= 2^52 the + 0.5 rounds to even, and k = 2^53 - 1 (u = 1)
    is clamped to 1 - 2^-53. The result is a float64 view of raw.
    """
    from scipy.special import ndtri  # ~0.3 s to import; only normal draws need it
    u = np.add(np.right_shift(raw, 11, out=raw), 0.5, out=raw.view(np.float64))
    u /= float(1 << 53)
    np.minimum(u, 1.0 - 2.0**-53, out=u)
    return ndtri(u, out=u)


def generate_path(seed, t_end: float, n_fine: int) -> np.ndarray:
    """Sample seeded Wiener paths with n_fine increments on [0, t_end].

    One seed gives the n_fine+1 node values W(t_i), starting at W(0) = 0; a
    sequence of seeds gives one such row per seed. np.diff of the nodes gives
    the increments, each N(0, t_end/n_fine).
    """
    scale = math.sqrt(_step_size(t_end, n_fine))
    single = np.ndim(seed) == 0
    seeds = [seed] if single else list(seed)
    w = np.zeros((len(seeds), n_fine + 1))
    # raw words, normals, increments and nodes share w's memory in turn
    raw = w[:, 1:].view(np.uint64)
    for row, s in zip(raw, seeds):
        row[:] = np.random.PCG64(s).random_raw(n_fine)
    z = _standard_normal(raw)
    z *= scale
    np.cumsum(z, axis=-1, out=z)
    return w[0] if single else w


def coarsen(w: np.ndarray, factor: int) -> np.ndarray:
    """Restrict paths (nodes on the last axis) to every factor-th node.

    Node values at shared nodes are preserved bit-exactly, so coarsening
    commutes with itself: coarsen(coarsen(w, a), b) == coarsen(w, a*b).
    """
    n_fine = np.shape(w)[-1] - 1
    if factor < 1 or n_fine % factor != 0:
        raise InvalidInputError(f"factor {factor} does not divide n_fine {n_fine}")
    return w[..., ::factor]
