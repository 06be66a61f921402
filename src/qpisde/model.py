"""Geometric Brownian motion problem definition and its closed-form solution.

The model is dX = mu*X dt + sigma*X dW with deterministic initial value x0.
Coefficients are autonomous (no explicit time dependence).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


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


def _step_size(t_end: float, n) -> float:
    """The step t_end / n of n uniform steps on [0, t_end]; the one check of t_end and N."""
    if not (t_end > 0 and math.isfinite(t_end)):
        raise InvalidInputError(f"t_end must be positive and finite, got {t_end}")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidInputError(f"the step count must be an integer >= 1, got {n!r}")
    return t_end / n


def exact_solution(params: GbmParams, t_end: float, w) -> np.ndarray:
    """Evaluate x0 * exp((mu - sigma^2/2) t + sigma W(t)) at the nodes of [0, t_end].

    w holds the Wiener values at the N+1 uniform nodes on its last axis
    (W(0) = 0), one row per path, so the result is the pathwise exact solution
    driven by the same noise as a numerical trajectory.
    """
    w = np.asarray(w, dtype=float)
    n = w.shape[-1] - 1 if w.ndim else 0
    _step_size(t_end, n)
    times = np.linspace(0.0, t_end, n + 1)
    return params.x0 * np.exp((params.mu - 0.5 * params.sigma**2) * times + params.sigma * w)
