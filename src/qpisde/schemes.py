"""Numerical schemes for GBM: the two-step quadratic-interpolation method
and the Euler-Maruyama, drift-implicit EM and Milstein references.

All updates are linear in the state, so trajectories are built from
per-step (or per-block) multipliers. The two-step method advances a pair
of nodes at once: with h = mu*dt,

    X_{2n+1} = alpha_n * X_{2n},   X_{2n+2} = beta_n * X_{2n},

where (alpha_n, beta_n) solve a 2x2 linear system obtained from
Simpson-type quadrature of the drift integral over [t_2n, t_2n+2] and
[t_2n, t_2n+1] (weights dt/3, 4dt/3, dt/3 and 5dt/12, 2dt/3, -dt/12 after
eliminating the midpoint), with the diffusion term frozen at X_{2n}.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, SingularBlockError, SingularStepError
from .model import GbmParams, _step_size


class SchemeId(enum.Enum):
    QPI = "qpi"
    EULER_MARUYAMA = "em"
    IMPLICIT_EM = "iem"
    MILSTEIN = "milstein"  # adds sigma^2/2 (dW^2 - dt), as in Kloeden & Platen (1992)
    MILSTEIN_PAPER = "milstein-paper"  # subtracts it, as published

    @classmethod
    def parse(cls, name) -> "SchemeId":
        try:
            return name if isinstance(name, cls) else cls(str(name).strip().lower())
        except ValueError:
            valid = ", ".join(s.value for s in cls)
            raise InvalidInputError(f"unknown scheme {name!r}; expected one of {valid}")


class QpiBlockCoeffs(NamedTuple):
    """Random multipliers (alpha, beta) of one two-step block."""

    alpha: float
    beta: float


def _qpi_block_system(h):
    """Block denominators D = 1 - h + h^2/3, E = 1 - h/3 and where either is 0 (h = mu*dt)."""
    d1, d2 = 1.0 - h + h * h / 3.0, 1.0 - h / 3.0
    return d1, d2, np.logical_or(d1 == 0.0, d2 == 0.0)


def _iem_singular(h):
    """Where the drift-implicit EM step's divisor 1 - h vanishes (h = mu*dt)."""
    return 1.0 - h == 0.0


def _qpi_denominators(h):
    """D and E of _qpi_block_system; raises SingularBlockError where either vanishes."""
    d1, d2, singular = _qpi_block_system(h)
    if singular.any():
        raise SingularBlockError(f"block system singular for mu*dt = {h}")
    return d1, d2


def _qpi_alpha_beta(mu: float, sigma: float, dt: float, dWa, dWb):
    """Vectorized closed-form block multipliers; dWa, dWb may be arrays."""
    h = mu * dt
    d1, d2 = _qpi_denominators(h)
    dWab = dWa + dWb
    alpha = (1.0 - h * h / 6.0 - sigma * (h / 12.0) * dWab
             + sigma * (1.0 - h / 3.0) * dWa) / d1
    beta = (1.0 + h / 3.0 + (4.0 * h / 3.0) * alpha + sigma * dWab) / d2
    return alpha, beta


def qpi_block_solve_oracle(params: GbmParams, dt: float, dWa: float, dWb: float) -> QpiBlockCoeffs:
    """Reference (alpha, beta) from a direct numerical solve of the block system.

    Sets up the 2x2 system in (X_{2n+1}, X_{2n+2}) with X_{2n} = 1:

        (1 - 2h/3) a + (h/12)  b = 1 + 5h/12 + sigma*dWa
        -(4h/3)    a + (1-h/3) b = 1 + h/3   + sigma*(dWa+dWb)

    Kept independent of the closed form; used to cross-check it in tests.
    """
    if not (dt > 0 and np.isfinite(dt)):
        raise InvalidInputError(f"dt must be finite and > 0, got {dt}")
    h = params.mu * dt
    s = params.sigma
    _qpi_denominators(h)  # singularity guard only; the solve below is independent
    m = np.array([[1.0 - 2.0 * h / 3.0, h / 12.0],
                  [-4.0 * h / 3.0, 1.0 - h / 3.0]])
    rhs = np.array([1.0 + 5.0 * h / 12.0 + s * dWa,
                    1.0 + h / 3.0 + s * (dWa + dWb)])
    alpha, beta = np.linalg.solve(m, rhs)
    return QpiBlockCoeffs(alpha=float(alpha), beta=float(beta))


def _one_step_multipliers(scheme: SchemeId, params: GbmParams, dt: float,
                          dW: np.ndarray) -> np.ndarray:
    mu, sigma = params.mu, params.sigma
    if scheme is SchemeId.EULER_MARUYAMA:
        return 1.0 + mu * dt + sigma * dW
    if scheme is SchemeId.IMPLICIT_EM:
        if _iem_singular(mu * dt):
            raise SingularStepError(f"implicit EM step singular: mu*dt = 1 (mu={mu}, dt={dt})")
        return (1.0 + sigma * dW) / (1.0 - mu * dt)
    sign = 1.0 if scheme is SchemeId.MILSTEIN else -1.0
    # np.float64 ** gives inf on overflow where float ** raises; the array
    # goes first so that numpy reuses its temporary
    return 1.0 + mu * dt + sigma * dW + (dW * dW - dt) * (sign * 0.5 * np.float64(sigma)**2)


def integrate(scheme: SchemeId | str, params: GbmParams, t_end: float, w) -> np.ndarray:
    """Run one scheme, a SchemeId or its name, over [0, t_end], driven by matching Wiener paths.

    w holds the Wiener values at the N+1 uniform nodes on its last axis, one
    row per path; the result has its shape. The two-step scheme requires an
    even N and fills nodes pairwise from the block multipliers; the one-step
    schemes fill sequentially.
    """
    scheme = SchemeId.parse(scheme)
    w = np.asarray(w, dtype=float)
    n = w.shape[-1] - 1 if w.ndim else 0
    dt = _step_size(t_end, n)
    # unit-x0 trajectory scaled once at the end, so trajectories are
    # node-wise exactly linear in x0; the increments np.diff(w) are held in
    # the trajectory's own nodes 1..N until the multipliers replace them
    values = np.empty(w.shape)
    values[..., 0] = 1.0
    dW = np.subtract(w[..., 1:], w[..., :-1], out=values[..., 1:])
    if scheme is SchemeId.QPI:
        if n % 2 != 0:
            raise InvalidInputError("N must be even for qpi")
        alpha, beta = _qpi_alpha_beta(params.mu, params.sigma, dt,
                                      dW[..., 0::2], dW[..., 1::2])
        np.cumprod(beta, axis=-1, out=values[..., 2::2])
        np.multiply(alpha, values[..., 0:-1:2], out=values[..., 1::2])
    else:
        mult = _one_step_multipliers(scheme, params, dt, dW)
        np.cumprod(mult, axis=-1, out=dW)
    values *= params.x0
    return values
