"""Reference for the chain's D and Q: f itself, its Hessian, its exact critical point, a grid.

f(x, y) = a*[x^2 + y^2 + (x+y)^2/(n-2)] - beta*x^2 - alpha*(x*y + y^2)
          - E*[((n-2)*beta - alpha)*x + (n-3)*alpha*y]

Nothing here is imported from stabcert.  The tests compare the chain's
discriminant D with the determinant of f's Hessian, and its closed-form
minimum E^2 * Q with f evaluated at the stationary point of an exact 2x2
linear solve (``min_coefficient``) and with a floating brute-force grid whose
documented tolerance for the default 401^2 grid of halfwidth 2 is absolute
1e-4.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

Rat = Fraction


class DegenerateQuadraticError(ValueError):
    """The Hessian determinant vanishes: f has no unique stationary point."""


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


def hessian_entries(n: int, a: Rat, alpha: Rat, beta: Rat) -> tuple[Fraction, Fraction, Fraction]:
    """(f_xx, f_yy, f_xy), constant in (x, y)."""
    fxx = Fraction(2 * (n - 1), n - 2) * a - 2 * beta
    fyy = Fraction(2 * (n - 1), n - 2) * a - 2 * alpha
    fxy = Fraction(2, n - 2) * a - alpha
    return fxx, fyy, fxy


def determinant(n: int, a: Rat, alpha: Rat, beta: Rat) -> Fraction:
    """det of f's Hessian, f_xx * f_yy - f_xy^2: the chain's discriminant D."""
    fxx, fyy, fxy = hessian_entries(n, a, alpha, beta)
    return fxx * fyy - fxy * fxy


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

    Rejects D = 0 inputs rather than treating them as semidefinite limits.
    """
    n, a, alpha, beta, E = inp.n, inp.a, inp.alpha, inp.beta, inp.linear_scale
    D = determinant(n, a, alpha, beta)
    if D == 0:
        raise DegenerateQuadraticError("discriminant D = 0: degenerate quadratic rejected")
    fxx, fyy, fxy = hessian_entries(n, a, alpha, beta)
    c1, c2 = linear_coefficients(n, alpha, beta)
    # H @ (x, y) = E * (c1, c2)
    x_star = E * (fyy * c1 - fxy * c2) / D
    y_star = E * (fxx * c2 - fxy * c1) / D
    return x_star, y_star


def f_eval(inp: QuadMinInput, x: Rat, y: Rat) -> Fraction:
    """Exact value of f(x, y)."""
    n, a, alpha, beta, E = inp.n, inp.a, inp.alpha, inp.beta, inp.linear_scale
    c1, c2 = linear_coefficients(n, alpha, beta)
    quad = a * (x * x + y * y + Fraction(1, n - 2) * (x + y) ** 2)
    return quad - beta * x * x - alpha * (x * y + y * y) - E * (c1 * x + c2 * y)


def min_coefficient(n: int, a: Rat, alpha: Rat, beta: Rat) -> Fraction:
    """Q = min f at E = 1, as f at its exact stationary point (min f = E^2 * Q)."""
    inp = QuadMinInput(n, a, alpha, beta, Fraction(1))
    return f_eval(inp, *critical_point(inp))


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


def random_valid_input(rng: random.Random) -> QuadMinInput:
    """Random (n, a, alpha, beta, E) satisfying all Hessian conditions."""
    while True:
        n = rng.randrange(3, 9)
        alpha = Fraction(rng.randrange(1, 40), rng.randrange(1, 20))
        beta = Fraction(rng.randrange(1, 40), rng.randrange(1, 20))
        # push a above the f_xx/f_yy threshold, then keep only D > 0
        a = max(alpha, beta) * Fraction(n - 2, n - 1) * Fraction(rng.randrange(11, 40), 10)
        if determinant(n, a, alpha, beta) > 0:
            E = Fraction(rng.randrange(-20, 21), rng.randrange(1, 10))
            return QuadMinInput(n=n, a=a, alpha=alpha, beta=beta, linear_scale=E)
