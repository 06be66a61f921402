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


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, t_end] with n_steps steps of size dt = t_end/n_steps."""

    t_end: float
    n_steps: int

    def __post_init__(self):
        if not (self.t_end > 0 and math.isfinite(self.t_end)):
            raise InvalidInputError(f"t_end must be positive and finite, got {self.t_end}")
        if not isinstance(self.n_steps, (int, np.integer)):
            raise InvalidInputError(f"n_steps must be an integer, got {self.n_steps!r}")
        if self.n_steps < 1:
            raise InvalidInputError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.n_steps + 1)

    def require_even(self) -> None:
        if self.n_steps % 2 != 0:
            raise InvalidInputError("N must be even for qpi")


@dataclass(frozen=True)
class Trajectory:
    """Solution values (exact or numerical) at the nodes of a grid."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape or t.ndim != 1:
            raise InvalidInputError(
                f"times and values must be 1-D arrays of equal length, got {t.shape} and {v.shape}"
            )
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)


def exact_solution(params: GbmParams, grid: TimeGrid, w_values) -> Trajectory:
    """Evaluate x0 * exp((mu - sigma^2/2) t + sigma W(t)) at the grid nodes.

    w_values must hold the Wiener values at the N+1 nodes, starting at
    W(0) = 0, so the result is the pathwise exact solution driven by the
    same noise as a numerical trajectory.
    """
    w = np.asarray(w_values, dtype=float)
    if w.shape != (grid.n_steps + 1,):
        raise InvalidInputError(
            f"w_values must have length {grid.n_steps + 1}, got shape {w.shape}"
        )
    t = grid.times
    values = params.x0 * np.exp((params.mu - 0.5 * params.sigma**2) * t + params.sigma * w)
    return Trajectory(times=t, values=values)
