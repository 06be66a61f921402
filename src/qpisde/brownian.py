"""Seeded Wiener-path generation with exact coarsening to divisor grids.

A path is an array of Wiener values with the grid nodes on its last axis,
one row per path. It is generated once at a finest resolution; every coarser
grid in a convergence study restricts the same node values, so all schemes
and all step counts see the same underlying randomness.

Sampling method (fixed for reproducibility): a numpy PCG64 bit generator
seeded with the path seed gives one 64-bit word per increment, and
Generator.random turns its top 53 bits k into k / 2^53; adding 2^-54 makes
the uniform (k + 0.5) / 2^53, which is mapped to a standard normal through
the inverse normal CDF (scipy.special.ndtri, imported at the first draw, so
code that draws no normal runs on numpy alone) and scaled by sqrt(dt). The k
are exactly default_rng(seed).integers(0, 2**53): for a power-of-two range
numpy's bounded-integer draw never rejects a word and keeps its top 53 bits.
Per-path seeds for Monte Carlo runs are derived from a master seed and the
path index with a splitmix64 mix.

A seed is an integer in [0, 2^64). _increments is the one routine that turns
seeds into increments, for generate_path and for analysis.local_error_study:
the SeedSequence words of a batch of seeds are hashed in one numpy pass (see
_seed_words), numpy seeds each path's own PCG64 from its row of them, and the
words of all seeds become normals in one block. No generator outlives a
draw, so draws share no state across calls or threads.
"""

from __future__ import annotations

import math

import numpy as np

from .model import InvalidInputError, _buffer, _count, _nodes, _step_size

_MASK32, _MASK64 = (1 << 32) - 1, (1 << 64) - 1
# numpy's SeedSequence: the running hash keys init * mult^i mod 2^32 of its pool (i <= 16)
# and of its output (i <= 8), as uint32 columns, and its mix multipliers
_POOL_KEYS, _OUT_KEYS = (np.array([init * mult**i & _MASK32 for i in range(count)], np.uint32)[:, None]
                         for init, mult, count in ((0x43B0D7E5, 0x931E8875, 17), (0x8B51F9DD, 0x58F38DED, 9)))
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _seed(s, what="seed") -> int:  # s as a Python int: an int in [0, 2^64), Python or numpy, not a bool
    if isinstance(s, bool) or not isinstance(s, (int, np.integer)) or not 0 <= s <= _MASK64:
        raise InvalidInputError(f"{what} must be an integer in [0, 2^64), got {s!r}")
    return int(s)


def mix_seed(master_seed: int, index):
    """Derive an independent 64-bit stream seed from (master_seed, index).

    splitmix64 finalizer applied to master_seed, a seed, advanced by index+1
    gamma steps; distinct indices give well-separated streams. An index has a
    seed's contract; a numpy integer array of them gives a uint64 array of
    seeds. Even one index is mixed as an array: arrays wrap mod 2^64 silently.
    """
    master = _seed(master_seed)
    if np.ndim(index) == 0:
        return int(mix_seed(master, np.array([_seed(index, "index")], np.uint64))[0])
    if not isinstance(index, np.ndarray) or index.dtype.kind not in "iu" or index.size and index.min() < 0:
        raise InvalidInputError("indices must be a numpy array of integers, none negative")
    z = (index.astype(np.uint64) + 1) * 0x9E3779B97F4A7C15 + master
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z = (z ^ z >> shift) * mult
    return z ^ z >> 31


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(s).generate_state(4, np.uint64), the words PCG64(s) is seeded from, for each seed s
    of a 1-d uint64 array at once: the rows of a C-contiguous (len(seeds), 4) uint64 array.

    SeedSequence(s) hashes the uint32 words of s into a pool of 4 words, mixes
    the pool, and hashes 8 words out of it, pairs of which make the uint64
    words. A seed below 2^64 has one or two words, and a missing high word
    hashes as the 0 it is padded with, so every seed takes the same steps,
    done here once for all seeds as (low, high) words with the hash keys
    built at import. The hash runs on arrays, as a numpy uint32 scalar warns
    on overflow.
    """
    def hashmix(values, key):  # row i of values is hashed with key[i] and key[i + 1]
        values = values ^ key[:-1]
        values *= key[1:]
        return values ^ values >> np.uint32(16)

    zero = np.zeros(seeds.shape, np.uint32)
    pool = hashmix(np.stack([seeds.astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32),
                             zero, zero]), _POOL_KEYS[:5])
    for i in range(4):  # pool word i mixed into the other three, with keys 4 + 3i to 7 + 3i
        others = [j for j in range(4) if j != i]
        hashed = hashmix(pool[i], _POOL_KEYS[4 + 3 * i:8 + 3 * i])
        mixed = pool[others] * np.uint32(_MIX_L) - hashed * np.uint32(_MIX_R)
        pool[others] = mixed ^ mixed >> np.uint32(16)
    # 8 words hashed from the pool, cycled twice; word pairs (low, high) make the 4 uint64 words
    words = hashmix(np.concatenate((pool, pool)), _OUT_KEYS).astype(np.uint64)
    return np.ascontiguousarray((words[1::2] << np.uint64(32) | words[0::2]).T)


class _Hashed:  # a seed sequence of hashed words: PCG64(_Hashed(row)) is PCG64(s) for s's row of _seed_words
    def __init__(self, row: np.ndarray):  # PCG64 reads the row's memory: 4 C-contiguous uint64 words
        self.row = row

    def generate_state(self, n_words, dtype=None):  # numpy's ISeedSequence method; registered at the first draw
        return self.row


def _standard_normal(u: np.ndarray) -> np.ndarray:
    """Inverse-CDF normals from uniforms k / 2^53, computed in their own memory.

    Adding 2^-54 gives u = (k + 0.5) / 2^53 strictly inside (0, 1), rounded as
    that quotient is: for k >= 2^52 the + 0.5 rounds to even, and k = 2^53 - 1
    (u = 1) is clamped to 1 - 2^-53. The result is u.
    """
    from scipy.special import ndtri  # ~0.3 s to import; only normal draws need it
    u += 2.0**-54
    np.minimum(u, 1.0 - 2.0**-53, out=u)
    return ndtri(u, out=u)


def _increments(seeds, dt: float, rows: np.ndarray) -> np.ndarray:
    """Fill rows, C-contiguous float64 of shape (len(seeds), n + 1), with W(0) = 0 and then n N(0, dt)
    increments of each seed of the 1-d uint64 array seeds, by the module docstring's method; return rows.

    Uniforms, normals and increments share rows' memory in turn.
    """
    from numpy.random import PCG64, Generator, bit_generator  # ~15 ms to import; only draws need it
    bit_generator.ISeedSequence.register(_Hashed)
    for row, words in zip(rows[:, 1:], _seed_words(seeds), strict=True):
        Generator(PCG64(_Hashed(words))).random(out=row)
    # elementwise over rows' memory as one block, each row's first value included (zeroed before and after)
    rows[:, 0] = 0.0
    z = _standard_normal(rows.reshape(-1)[1:])
    z *= math.sqrt(dt)
    rows[:, 0] = 0.0
    return rows


def generate_path(seed, t_end: float, n_fine: int, out=None) -> np.ndarray:
    """Sample seeded Wiener paths with n_fine increments on [0, t_end].

    One seed gives the n_fine+1 node values W(t_i), starting at W(0) = 0; a
    sequence of seeds gives one such row per seed. np.diff of the nodes gives
    the increments, each N(0, t_end/n_fine). A seed is an integer in
    [0, 2^64), not a bool, as every entry of a 1-d uint64 array is. The nodes
    go to out if given, under the kernels' buffer rule (model._buffer).
    """
    dt = _step_size(t_end, n_fine)
    single = np.ndim(seed) == 0
    seeds = [seed] if single else seed
    if not (isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64 and seeds.ndim == 1):
        seeds = np.array([_seed(s) for s in seeds], dtype=np.uint64)  # a uint64 array needs no check
    w = _buffer(out, (n_fine + 1,) if single else (len(seeds), n_fine + 1))
    rows = _increments(seeds, dt, w[None] if single else w)
    np.cumsum(rows[:, 1:], axis=-1, out=rows[:, 1:])
    return w


def coarsen(w: np.ndarray, factor: int) -> np.ndarray:
    """Restrict paths (nodes on the last axis, at least two: model._nodes) to every factor-th node.

    Node values at shared nodes are preserved bit-exactly, so coarsening commutes
    with itself: coarsen(coarsen(w, a), b) == coarsen(w, a*b); a float64 w gives a view.
    """
    (w, n_fine), factor = _nodes(w), _count(factor, "factor")
    if n_fine % factor != 0:
        raise InvalidInputError(f"factor {factor} does not divide n_fine {n_fine}")
    return w[..., ::factor]
