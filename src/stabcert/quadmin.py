"""Closed-form minimization of the weighted curvature quadratic in two variables.

The object of study is

    f(x, y) = a*[x^2 + y^2 + (x+y)^2/(n-2)] - beta*x^2 - alpha*(x*y + y^2)
              - E*[((n-2)*beta - alpha)*x + (n-3)*alpha*y]

for integer dimension n >= 3 and rational a, alpha, beta, E.  Under the
convexity hypotheses (f_xx > 0, f_yy > 0 and positive discriminant D) the
minimum is E^2 * Q with a rational coefficient Q computed here in closed form.
The test suite checks Q against an independent reference (the exact critical
point from the gradient's 2x2 linear solve, and a floating brute-force grid
within absolute 1e-4); the package needs only the closed form.

Note on E: f depends on E only through E^2 at the minimum, so both sign
conventions for the linear-term scale yield the same Q; callers may record
either.
"""

from __future__ import annotations

from fractions import Fraction

Rat = Fraction


class DegenerateQuadraticError(ValueError):
    """Raised when the discriminant D vanishes; the strict hypothesis excludes it."""


def discriminant(n: int, a: Rat, alpha: Rat, beta: Rat) -> Fraction:
    """D = (4n/(n-2))a^2 - 4((n-1)/(n-2) beta + alpha) a + (4 beta - alpha) alpha."""
    return (
        Fraction(4 * n, n - 2) * a * a
        - 4 * (Fraction(n - 1, n - 2) * beta + alpha) * a
        + (4 * beta - alpha) * alpha
    )


def linear_coefficients(n: int, alpha: Rat, beta: Rat) -> tuple[Fraction, Fraction]:
    """The (c1, c2) with linear part -E*(c1*x + c2*y)."""
    return (n - 2) * beta - alpha, (n - 3) * alpha


def f_min_coefficient(n: int, a: Rat, alpha: Rat, beta: Rat) -> Fraction:
    """The closed-form Q with min f = E^2 * Q, valid under the convexity hypotheses.

    Q = [ (n-2)*alpha^3 - ((n^2-5n+8)a + (3n-7)beta)*alpha^2
          + ((n-2)^2*alpha - (n-1)(n-2)a)*beta^2 + 4(n-2)*a*alpha*beta ] / D
    """
    D = discriminant(n, a, alpha, beta)
    if D == 0:
        raise DegenerateQuadraticError("discriminant D = 0: f_min coefficient undefined")
    num = (
        (n - 2) * alpha**3
        - ((n * n - 5 * n + 8) * a + (3 * n - 7) * beta) * alpha**2
        + ((n - 2) ** 2 * alpha - (n - 1) * (n - 2) * a) * beta**2
        + 4 * (n - 2) * a * alpha * beta
    )
    return num / D
