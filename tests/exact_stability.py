"""Every stability condition's factor in exact rational arithmetic (fractions.Fraction).

region_scan calls a cell stable iff its condition's factor, evaluated in
floating point, is below 1. Each factor is a rational function of
(mu, sigma, dt), and every float is a rational, so the verdict the float
stands for can be decided exactly:

* qpi-paper: the published quotient, term by term;
* qpi-exact: E[beta^2] = A^2 + (B^2 + C^2) dt, with A, B, C solved from the
  block system by Cramer's rule (exact_moments.block_coefficients), not by
  the closed form of stability.qpi_exact_amplification;
* iem and milstein: E[m^2] = c0^2 + c1^2 dt + 2 c2^2 dt^2 of the one-step
  multiplier (exact_moments.one_step_coefficients).

Only iem has a pole, at h = mu*dt = 1. The block system's determinant is
1 - h + h^2/3, which never vanishes, so its E[beta^2] is regular at h = 3, and
in the published quotient the factor (1 - h/3)^2 cancels. The float closed
forms of both divide by 1 - h/3, so the scan calls h = 3 singular, and near it
they lose digits to that cancellation (see relative_bound).
"""

from fractions import Fraction

from exact_moments import block_coefficients, one_step_coefficients

EPS = 2.0**-52


def paper_quotient(mu, sigma, dt):
    """The published quotient, term by term, in whatever arithmetic its arguments carry."""
    h = mu * dt
    t1 = abs(1 + 2 * h / 3 - h**3 / 9) ** 2
    t2 = dt * abs(sigma * (1 - h + 2 * h**2 / 9)) ** 2
    t3 = dt * abs(sigma * (4 * h / 3) * (1 - h / 3)) ** 2
    t4 = dt * abs(sigma**2 * (4 * h / 3) * (1 - h / 3) * (1 - h + 2 * h**2 / 9))
    den = abs(1 - h + h**2 / 3) ** 2 * abs(1 - h / 3) ** 2
    return (t1 + t2 + t3 + t4) / den


def exact_factor(condition, mu, sigma, dt):
    """condition's factor at the floats (mu, sigma, dt), taken as exact rationals, as a Fraction."""
    mu, sigma, dt = Fraction(mu), Fraction(sigma), Fraction(dt)
    if condition == "qpi-paper":
        return paper_quotient(mu, sigma, dt)
    if condition == "qpi-exact":
        _, (a, b, c) = block_coefficients(mu, sigma, dt)
        return a * a + (b * b + c * c) * dt
    c0, c1, c2 = one_step_coefficients(condition, mu, sigma, dt)
    return c0 * c0 + c1 * c1 * dt + 2 * c2 * c2 * dt * dt


def relative_bound(condition, h, lhs):
    """A bound on |lhs / exact - 1| for the float factor lhs at the float h = mu*dt (scalars or arrays).

    Away from a cancellation the float evaluation loses a few dozen ulp at
    most. The rounding of h is magnified by a condition number: |h| / |p - h|
    near the divisor's zero p of a closed form, and 2 |h (1 + h)| / lhs in
    Milstein's (1 + h)^2, which cancels at h = -1 when sigma^2 dt is small.
    """
    if condition == "milstein":
        kappa = 2 * abs(h * (1 + h)) / lhs
    else:
        pole = 1 if condition == "iem" else 3
        kappa = abs(h) / abs(pole - h)
    return 64 * EPS * (1 + kappa)
