"""Host-speed calibration block shared by the in-process loop and the probes.

The host this benchmark runs on changes speed in phases of several seconds
(up to about 1.7x), and every kind of work slows together. Each timed
operation is therefore bracketed by this fixed block, and a time is
reported as

    normalised = raw * NOMINAL_S / calibration time measured next to it,

i.e. the seconds the operation would take on a host where this block takes
NOMINAL_S. The block touches no qpisde code, so a change to the program
cannot move it. Its three parts are the kinds of work the workloads do:
float formatting to 17 digits, seeded generator construction with inverse-CDF
normals, and short-array NumPy calls. Over 10 s windows they track the
workloads' drift to 2-4 %, where a pure-Python loop tracks it only to 7 %.
"""

from __future__ import annotations

import gc
import time

import numpy as np
from scipy.special import ndtri

# Median duration of calibrate() on an Intel Xeon (Sapphire Rapids, 2 vCPU,
# KVM) in a fast phase. It only fixes the unit: ratios between two commits
# do not depend on it.
NOMINAL_S = 0.1

_rng = np.random.default_rng(20240728)
_FLOATS = (_rng.random(22000) * 3.0).tolist()
_NODES = np.concatenate(([0.0], np.cumsum(_rng.standard_normal(1024) / 32.0)))


def calibrate() -> float:
    """Run the fixed block once and return its wall time in seconds.

    The cyclic garbage collector is paused for the block, so a collection
    of the caller's objects cannot land in it.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _timed_block()
    finally:
        if gc_was_enabled:
            gc.enable()


def _timed_block() -> float:
    start = time.perf_counter()
    text = ",".join(f"{v:.17g}" for v in _FLOATS)
    acc = 0.0
    for seed in range(270):
        rng = np.random.default_rng(seed)
        u = (rng.integers(0, 1 << 53, size=1024, dtype=np.uint64) + 0.5) / float(1 << 53)
        acc += float(np.cumsum(ndtri(u))[-1])
    for _ in range(240):
        for step in (256, 64, 16, 4, 1):
            w = _NODES[::step]
            t = np.linspace(0.0, 1.0, len(w))
            growth = np.concatenate(([1.0], np.cumprod(1.0 + 0.5 * np.diff(w))))
            acc += float(np.abs(np.exp(0.5 * w - 0.625 * t) - growth).sum())
    elapsed = time.perf_counter() - start
    if not text or acc != acc:  # keep every result live
        raise RuntimeError("calibration block produced no result")
    return elapsed
