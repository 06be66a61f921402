"""Geometric Brownian motion problem definition and its closed-form solution.

The model is dX = mu*X dt + sigma*X dW with deterministic initial value x0.
Coefficients are autonomous (no explicit time dependence). The rules all layers share live
here too: the error types (QpisdeError, InvalidInputError, SingularStepError), the Ito
correction sigma^2/2, the exact solution's growth factor and the block rule that sizes batched work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# values per block of batched work (path blocks, region_scan's mu rows, the CSV writers' chunks)
_BATCH_VALUES = 1 << 16


class QpisdeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(QpisdeError, ValueError):
    """An argument violates a documented precondition."""


class SingularStepError(QpisdeError, ArithmeticError):
    """A step has a vanishing divisor: mu*dt = 1 for drift-implicit EM, 3 for the two-step block."""


@dataclass(frozen=True)
class GbmParams:
    """Drift, volatility and initial value of a GBM instance.

    mu is the percentage drift per unit time, sigma the percentage
    volatility per sqrt-unit-time (sigma >= 0), x0 the initial state.
    """

    mu: float
    sigma: float
    x0: float = 1.0

    def __post_init__(self):
        for name in ("mu", "sigma", "x0"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise InvalidInputError(f"{name} must be finite, got {v!r}")
        if self.sigma < 0:
            raise InvalidInputError(f"sigma must be >= 0, got {self.sigma}")


def _block_rows(values_per_row: int) -> int:
    """Rows in a block of batched work: as many as hold _BATCH_VALUES values, at least one."""
    return max(1, _BATCH_VALUES // values_per_row)


def _half_sigma_sq(sigma):
    """sigma^2/2, the Ito correction, as a float64: np.float64 ** gives inf on overflow where float ** raises."""
    return 0.5 * np.float64(sigma)**2


def _growth(mu, sigma, t, w, out=None):
    """exp((mu - sigma^2/2) t + sigma w), the exact solution's growth factor from 0 to t, in out (w allowed)."""
    x = np.multiply(sigma, w, out=out)
    x += t * (mu - _half_sigma_sq(sigma))
    return np.exp(x, out=x)


def _count(n, what: str, least: int = 1) -> int:
    """n as a Python int, if it is an int >= least, Python or numpy, not a bool; what names it."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise InvalidInputError(f"{what} must be an integer, got {n!r}")
    if n < least:
        raise InvalidInputError(f"{what} must be >= {least}, got {n!r}")
    return int(n)


def _nodes(w):
    """The one check of a node array w: w as floats and N from its last axis; no finiteness check (nan in, nan out)."""
    w = np.asarray(w, dtype=float)
    if w.ndim == 0 or w.shape[-1] < 2:
        raise InvalidInputError(f"a node array needs at least two nodes (step count >= 1), got shape {w.shape}")
    return w, w.shape[-1] - 1


def _step_size(t_end: float, n) -> float:
    """The step t_end / n of n uniform steps on [0, t_end]; the one check of t_end and N."""
    if not (t_end > 0 and math.isfinite(t_end)):
        raise InvalidInputError(f"t_end must be positive and finite, got {t_end}")
    return t_end / _count(n, "the step count")


def _buffer(a, shape, *apart) -> np.ndarray:
    """The kernels' one rule for out= and scratch=: np.empty(shape) for None, else a itself if it is a
    writeable C-contiguous float64 ndarray of exactly shape sharing no memory with the arrays in apart."""
    if a is None:
        return np.empty(shape)
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.shape == shape and a.flags.writeable
            and a.flags.c_contiguous and not any(np.may_share_memory(a, b) for b in apart)):
        raise InvalidInputError(f"a kernel buffer must be a writeable C-contiguous float64 array of shape "
                                f"{shape} apart from the inputs, got {getattr(a, 'dtype', type(a))} {np.shape(a)}")
    return a


def _front(a: np.ndarray, shape) -> np.ndarray:  # the first values of the C-contiguous a, viewed in shape
    return a.reshape(-1)[:math.prod(shape)].reshape(shape)


def exact_solution(params: GbmParams, t_end: float, w, out=None) -> np.ndarray:
    """Evaluate x0 * exp((mu - sigma^2/2) t + sigma W(t)) at the nodes of [0, t_end].

    w holds the Wiener values at the N+1 uniform nodes on its last axis
    (W(0) = 0), one row per path, so the result is the pathwise exact solution
    driven by the same noise as a numerical trajectory. It goes to out if
    given, under the kernels' buffer rule (_buffer); out may be w itself.
    """
    w, n = _nodes(w)
    _step_size(t_end, n)
    x = _growth(params.mu, params.sigma, np.linspace(0.0, t_end, n + 1), w, out=_buffer(out, w.shape))
    x *= params.x0
    return x
