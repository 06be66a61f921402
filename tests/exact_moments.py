"""Exact first and second moments of every scheme on GBM, derived here from the schemes' definitions.

Every scheme is linear in the state and draws fresh increments at each step
(the two-step block at each block), so each moment of a trajectory is a
product of per-step expectations. With dW ~ N(0, dt), h = mu*dt and the exact
one-step factor Y = exp((mu - sigma^2/2) dt + sigma dW):

* A one-step multiplier is m = c0 + c1 dW + c2 (dW^2 - dt):
  EM c0 = 1 + h, c1 = sigma, c2 = 0; drift-implicit EM c0 = 1/(1 - h),
  c1 = sigma/(1 - h), c2 = 0; Milstein c0 = 1 + h, c1 = sigma and
  c2 = +sigma^2/2 (Kloeden & Platen) or -sigma^2/2 (as published). Then
  E m = c0, E m^2 = c0^2 + c1^2 dt + 2 c2^2 dt^2, and
  E[mY] = e^{mu dt} (c0 + c1 sigma dt + c2 sigma^2 dt^2), from
  E[dW^k e^{sigma dW}] = e^{sigma^2 dt / 2} times 1, sigma dt, dt + sigma^2 dt^2.
* The two-step block is alpha = a0 + a1 dWa + a2 dWb and
  beta = A + B dWa + C dWb, solved from Simpson-type quadrature of the drift
  with the diffusion frozen at the block's left node X = 1:
      alpha = 1 + h (5/12 + (2/3) alpha - (1/12) beta) + sigma dWa
      beta  = 1 + (h/3) (1 + 4 alpha + beta) + sigma (dWa + dWb).
  Then E beta = A, E beta^2 = A^2 + (B^2 + C^2) dt and
  E[beta Y2] = e^{2 mu dt} (A + (B + C) sigma dt) for the block's exact factor
  Y2 over 2 dt; E alpha^2 = a0^2 + (a1^2 + a2^2) dt and
  E[alpha Y] = e^{mu dt} (a0 + a1 sigma dt) for the first step's factor.
* Over nodes, E Y_i^2 = e^{(2 mu + sigma^2) t_i}, and the error
  e_i = Y_i - X_i has E e_i^2 = x0^2 (E X_i^2 + E Y_i^2 - 2 E X_i Y_i), the
  moments taken at x0 = 1, so E[l2^2] = (1/N) sum_i E e_i^2 in the tables'
  convention.

The cross moment E[mY] is what tells milstein from milstein-paper: their
means and mean squares are equal.
"""

import math

import numpy as np


def one_step_coefficients(scheme, mu, sigma, dt):
    """(c0, c1, c2) of a one-step scheme's multiplier c0 + c1 dW + c2 (dW^2 - dt)."""
    h = mu * dt
    if scheme == "iem":
        return 1 / (1 - h), sigma / (1 - h), 0
    return 1 + h, sigma, {"em": 0, "milstein": sigma**2 / 2, "milstein-paper": -sigma**2 / 2}[scheme]


def block_coefficients(mu, sigma, dt):
    """((a0, a1, a2), (A, B, C)): alpha and beta of the block as constant, dWa and dWb parts.

    The block system M (alpha, beta) = r0 + dWa ra + dWb rb is linear, so each
    part is M^-1 of its right-hand side, here by Cramer's rule.
    """
    h = mu * dt
    (m00, m01), (m10, m11) = (1 - 2 * h / 3, h / 12), (-4 * h / 3, 1 - h / 3)
    det = m00 * m11 - m01 * m10
    parts = [((r0 * m11 - m01 * r1) / det, (m00 * r1 - m10 * r0) / det)
             for r0, r1 in ((1 + 5 * h / 12, 1 + h / 3), (sigma, sigma), (0, sigma))]
    return tuple(zip(*parts))


def node_moments(scheme, mu, sigma, t_end, n):
    """E X_i, E X_i^2 and E[X_i Y_i] at the n + 1 nodes, at x0 = 1, as three arrays."""
    dt = t_end / n
    if scheme == "qpi":
        (a0, a1, a2), (A, B, C) = block_coefficients(mu, sigma, dt)
        steps = [(a0, a0**2 + (a1**2 + a2**2) * dt, math.exp(mu * dt) * (a0 + a1 * sigma * dt)),
                 (A, A**2 + (B**2 + C**2) * dt, math.exp(2 * mu * dt) * (A + (B + C) * sigma * dt))]
        blocks = np.array(steps[1])[:, None] ** np.arange(n // 2 + 1)
        moments = np.empty((3, n + 1))
        moments[:, 0::2] = blocks
        moments[:, 1::2] = blocks[:, :-1] * np.array(steps[0])[:, None]
        return moments
    c0, c1, c2 = one_step_coefficients(scheme, mu, sigma, dt)
    step = (c0, c0**2 + c1**2 * dt + 2 * c2**2 * dt**2,
            math.exp(mu * dt) * (c0 + c1 * sigma * dt + c2 * sigma**2 * dt**2))
    return np.array(step)[:, None] ** np.arange(n + 1)


def exact_moments(scheme, params, t_end, n):
    """(E X_N, E X_N^2, E[l2^2]) of a scheme id's trajectory on n steps of [0, t_end]."""
    mu, sigma, x0 = params.mu, params.sigma, params.x0
    mean, square, cross = node_moments(scheme, mu, sigma, t_end, n)
    exact_square = np.exp((2 * mu + sigma**2) * np.linspace(0.0, t_end, n + 1))
    error_square = x0**2 * (square + exact_square - 2 * cross)
    return x0 * mean[-1], x0**2 * square[-1], error_square.sum() / n
