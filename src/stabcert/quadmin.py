"""Closed-form minimization of the weighted curvature quadratic in two variables.

The object of study is

    f(x, y) = a*[x^2 + y^2 + (x+y)^2/(n-2)] - beta*x^2 - alpha*(x*y + y^2)
              - E*[((n-2)*beta - alpha)*x + (n-3)*alpha*y]

for integer dimension n >= 3 and rational a, alpha, beta, E.  Under the
convexity hypotheses (f_xx > 0, f_yy > 0 and positive discriminant D) the
minimum is E^2 * Q with a rational coefficient Q computed here in closed form.
An independent floating brute-force grid oracle is provided alongside the
exact path; its documented tolerance for the default 401^2 grid of halfwidth 2
is absolute 1e-4.

Note on E: f depends on E only through E^2 at the minimum, so both sign
conventions for the linear-term scale yield the same Q; callers may record
either.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

Rat = Fraction


class DegenerateQuadraticError(ValueError):
    """Raised when the discriminant D vanishes; the strict hypothesis excludes it."""


@dataclass(frozen=True)
class QuadMinInput:
    """One evaluation of f: dimension, quadratic weights, linear-term scale E."""

    n: int
    a: Fraction
    alpha: Fraction
    beta: Fraction
    linear_scale: Fraction = Fraction(0)  # the E multiplying the linear terms

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("dimension must be >= 3 (the 1/(n-2) coefficient)")


def discriminant(n: int, a: Rat, alpha: Rat, beta: Rat) -> Fraction:
    """D = (4n/(n-2))a^2 - 4((n-1)/(n-2) beta + alpha) a + (4 beta - alpha) alpha."""
    return (
        Fraction(4 * n, n - 2) * a * a
        - 4 * (Fraction(n - 1, n - 2) * beta + alpha) * a
        + (4 * beta - alpha) * alpha
    )


def hessian_entries(n: int, a: Rat, alpha: Rat, beta: Rat) -> tuple[Fraction, Fraction, Fraction]:
    """(f_xx, f_yy, f_xy), constant in (x, y)."""
    fxx = Fraction(2 * (n - 1), n - 2) * a - 2 * beta
    fyy = Fraction(2 * (n - 1), n - 2) * a - 2 * alpha
    fxy = Fraction(2, n - 2) * a - alpha
    return fxx, fyy, fxy


def linear_coefficients(n: int, alpha: Rat, beta: Rat) -> tuple[Fraction, Fraction]:
    """The (c1, c2) with linear part -E*(c1*x + c2*y)."""
    return (n - 2) * beta - alpha, (n - 3) * alpha


def gradient(inp: QuadMinInput, x: Rat, y: Rat) -> tuple[Fraction, Fraction]:
    n, a, alpha, beta, E = inp.n, inp.a, inp.alpha, inp.beta, inp.linear_scale
    c1, c2 = linear_coefficients(n, alpha, beta)
    fx = 2 * a * x + Fraction(2, n - 2) * a * (x + y) - 2 * beta * x - alpha * y - E * c1
    fy = 2 * a * y + Fraction(2, n - 2) * a * (x + y) - 2 * alpha * y - alpha * x - E * c2
    return fx, fy


def critical_point(inp: QuadMinInput) -> tuple[Fraction, Fraction]:
    """The unique stationary point of f, from the exact 2x2 linear solve.

    The gradient vanishes identically there (asserted by the property suite).
    Rejects D = 0 inputs rather than treating them as semidefinite limits.
    """
    n, a, alpha, beta, E = inp.n, inp.a, inp.alpha, inp.beta, inp.linear_scale
    D = discriminant(n, a, alpha, beta)
    if D == 0:
        raise DegenerateQuadraticError("discriminant D = 0: degenerate quadratic rejected")
    fxx, fyy, fxy = hessian_entries(n, a, alpha, beta)
    c1, c2 = linear_coefficients(n, alpha, beta)
    # H @ (x, y) = E * (c1, c2); det H = D exactly
    x_star = E * (fyy * c1 - fxy * c2) / D
    y_star = E * (fxx * c2 - fxy * c1) / D
    return x_star, y_star


def f_eval(inp: QuadMinInput, x: Rat, y: Rat) -> Fraction:
    """Exact value of f(x, y)."""
    n, a, alpha, beta, E = inp.n, inp.a, inp.alpha, inp.beta, inp.linear_scale
    c1, c2 = linear_coefficients(n, alpha, beta)
    quad = a * (x * x + y * y + Fraction(1, n - 2) * (x + y) ** 2)
    return quad - beta * x * x - alpha * (x * y + y * y) - E * (c1 * x + c2 * y)


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


def f_min_bruteforce(inp: QuadMinInput, grid_halfwidth: float = 2.0, grid_steps: int = 401) -> float:
    """Floating brute-force oracle: min of f over a grid centered at the critical point.

    Independent of the closed form beyond the grid center; one-sided by
    minimality (never below the true minimum, approaches it as the grid
    refines).  Default grid tolerance: absolute 1e-4.
    """
    n, a, alpha, beta, E = inp.n, float(inp.a), float(inp.alpha), float(inp.beta), float(inp.linear_scale)
    xc, yc = critical_point(inp)
    xs = float(xc) + np.linspace(-grid_halfwidth, grid_halfwidth, grid_steps)
    ys = float(yc) + np.linspace(-grid_halfwidth, grid_halfwidth, grid_steps)
    X, Y = np.meshgrid(xs, ys)
    c1 = (n - 2) * beta - alpha
    c2 = (n - 3) * alpha
    F = (
        a * (X**2 + Y**2 + (X + Y) ** 2 / (n - 2))
        - beta * X**2
        - alpha * (X * Y + Y**2)
        - E * (c1 * X + c2 * Y)
    )
    return float(F.min())
