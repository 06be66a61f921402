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

from .model import GbmParams, InvalidInputError, SingularStepError, _buffer, _front, _half_sigma_sq, _step_size


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


def _qpi_divisor(h):
    """The block divisor E = 1 - h/3 (h = mu*dt), the one that vanishes: D = 1 - h + h^2/3 is >= 1/4."""
    return 1.0 - h / 3.0


def _iem_divisor(h):
    """The drift-implicit EM step's divisor 1 - h (h = mu*dt)."""
    return 1.0 - h


def _nonzero(divisor, h):
    """divisor(h), one of the two above; raises SingularStepError, naming its step, where it vanishes."""
    d = divisor(h)
    if np.count_nonzero(d == 0.0):
        what = "block system" if divisor is _qpi_divisor else "implicit EM step"
        raise SingularStepError(f"{what} singular for mu*dt = {h}")
    return d


def _mu_dt(mu, dt):
    """h = mu*dt, after checking that every dt is finite and > 0."""
    if not (np.isfinite(dt) & np.greater(dt, 0)).all():
        raise InvalidInputError(f"dt must be finite and > 0, got {dt}")
    return np.asarray(mu, dtype=float) * dt


def _qpi_denominators(h):
    """Block denominators D = 1 - h + h^2/3 and E; raises SingularStepError where E = 0."""
    return 1.0 - h + h * h / 3.0, _nonzero(_qpi_divisor, h)


def _qpi_alpha_beta(mu: float, sigma: float, dt: float, dWa, dWb, out=None):
    """Closed-form block multipliers (alpha, beta) for increments dWa, dWb (arrays or floats).

    They go to out = (alpha, beta) if given, and the work overwrites dWa then;
    without out the call allocates them and leaves dWa as it was.
    """
    h = mu * dt
    d1, d2 = _qpi_denominators(h)
    if out is None:
        dWa = np.array(dWa, dtype=float)
        out = np.empty_like(dWa), np.empty_like(dWa)
    alpha, beta = out
    # alpha = (1 - h^2/6 - sigma (h/12) dWab + sigma (1 - h/3) dWa) / d1
    dWab = np.add(dWa, dWb, out=beta)
    np.multiply(sigma * (h / 12.0), dWab, out=alpha)
    np.subtract(1.0 - h * h / 6.0, alpha, out=alpha)
    dWa *= sigma * d2
    alpha += dWa
    alpha /= d1
    # beta = (1 + h/3 + (4h/3) alpha + sigma dWab) / d2
    dWab *= sigma
    drift = np.multiply(4.0 * h / 3.0, alpha, out=dWa)
    drift += 1.0 + h / 3.0
    beta += drift
    beta /= d2
    return alpha, beta


def qpi_block_solve_oracle(params: GbmParams, dt: float, dWa: float, dWb: float) -> QpiBlockCoeffs:
    """Reference (alpha, beta) from a direct numerical solve of the block system.

    Sets up the 2x2 system in (X_{2n+1}, X_{2n+2}) with X_{2n} = 1:

        (1 - 2h/3) a + (h/12)  b = 1 + 5h/12 + sigma*dWa
        -(4h/3)    a + (1-h/3) b = 1 + h/3   + sigma*(dWa+dWb)

    Kept independent of the closed form; used to cross-check it in tests.
    """
    h = float(_mu_dt(params.mu, dt))
    s = params.sigma
    _qpi_denominators(h)  # singularity guard only; the solve below is independent
    m = np.array([[1.0 - 2.0 * h / 3.0, h / 12.0],
                  [-4.0 * h / 3.0, 1.0 - h / 3.0]])
    rhs = np.array([1.0 + 5.0 * h / 12.0 + s * dWa,
                    1.0 + h / 3.0 + s * (dWa + dWb)])
    alpha, beta = np.linalg.solve(m, rhs)
    return QpiBlockCoeffs(alpha=float(alpha), beta=float(beta))


def _one_step_multipliers(scheme: SchemeId, params: GbmParams, dt: float, dW, out):
    """Per-step multipliers of a one-step scheme for the increments dW, written to out.

    Milstein's work overwrites dW.
    """
    mu, sigma = params.mu, params.sigma
    if scheme is SchemeId.EULER_MARUYAMA:  # 1 + mu dt + sigma dW
        np.multiply(sigma, dW, out=out)
        out += 1.0 + mu * dt
    elif scheme is SchemeId.IMPLICIT_EM:  # (1 + sigma dW) / (1 - mu dt)
        np.multiply(sigma, dW, out=out)
        out += 1.0
        out /= _nonzero(_iem_divisor, mu * dt)
    else:  # 1 + mu dt + sigma dW + (dW^2 - dt) sign sigma^2/2
        sign = 1.0 if scheme is SchemeId.MILSTEIN else -1.0
        np.multiply(dW, dW, out=out)
        out -= dt
        out *= sign * _half_sigma_sq(sigma)
        dW *= sigma
        dW += 1.0 + mu * dt
        out += dW
    return out


def integrate(scheme: SchemeId | str, params: GbmParams, t_end: float, w,
              out=None, scratch=None) -> np.ndarray:
    """Run one scheme, a SchemeId or its name, over [0, t_end], driven by matching Wiener paths.

    w holds the Wiener values at the N+1 uniform nodes on its last axis, one
    row per path; the result has its shape. It goes to out, and the call's
    temporaries to scratch, if given, under the kernels' buffer rule
    (model._buffer), with out apart from w and scratch apart from both. The
    two-step scheme requires an even N and fills nodes pairwise from the
    block multipliers; the one-step schemes fill sequentially.
    """
    scheme = SchemeId.parse(scheme)
    w = np.asarray(w, dtype=float)
    n = w.shape[-1] - 1 if w.ndim else 0
    dt = _step_size(t_end, n)
    if scheme is SchemeId.QPI and n % 2 != 0:
        raise InvalidInputError(f"N must be even for qpi, got {n}")
    # unit-x0 trajectory scaled once at the end, so trajectories are
    # node-wise exactly linear in x0. The increments are held in values'
    # memory and the multipliers in scratch's, each as one contiguous block
    values = _buffer(out, w.shape, w)
    scratch = _buffer(scratch, w.shape, w, values)
    if scheme is SchemeId.QPI:
        # each block's first and second increment, then its alpha and beta, as two halves
        half = (2, *w.shape[:-1], n // 2)
        dWa, dWb = _front(values, half)
        np.subtract(w[..., 1::2], w[..., 0:-1:2], out=dWa)
        np.subtract(w[..., 2::2], w[..., 1::2], out=dWb)
        alpha, beta = _qpi_alpha_beta(params.mu, params.sigma, dt, dWa, dWb,
                                      out=_front(scratch, half))
        values[..., 0] = 1.0
        np.cumprod(beta, axis=-1, out=values[..., 2::2])
        np.multiply(alpha, values[..., 0:-1:2], out=values[..., 1::2])
    else:
        steps = (*w.shape[:-1], n)
        dW = np.subtract(w[..., 1:], w[..., :-1], out=_front(values, steps))
        mult = _one_step_multipliers(scheme, params, dt, dW, out=_front(scratch, steps))
        np.cumprod(mult, axis=-1, out=values[..., 1:])
        values[..., 0] = 1.0
    values *= params.x0
    return values
