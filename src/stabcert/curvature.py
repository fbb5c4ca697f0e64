"""The curvature lower-bound function F and its certified minimum epsilon(n).

For a parameter row (n, a, b, alpha, beta) with a = b*delta0 the function

    F(t) = 2(n-1)beta + 2(n-2)alpha - b*n(n-2)/2
           + [ (n^2-4)/4*b - (n*beta + (n-1)alpha)
               - max{(n-2)beta - alpha, (n-3)alpha} ] * t
           + (1 - t) * Q,        t = |dr|^2 in [0, 1],

with Q the closed-form quadratic-minimum coefficient, is affine in t, so its
minimum over [0, 1] is epsilon = min{F(0), F(1)}.  This module computes the
two endpoint values exactly, takes epsilon from them, and runs the randomized
exact sampling check of the pointwise curvature inequality over trace-free
principal-curvature vectors.  Each sample is one uniform draw, split into
one digit per random rational; a digit picks a numerator and a denominator
from a fixed grid.  The check compares in cleared-denominator integers: the
inequality is multiplied through by a positive common denominator, so the
verdict is the exact rational one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import published, quadmin
from .rational import clear_denominators
from .rational import rational_to_str as rts
from .report import ConstraintReport

Rat = Fraction


@dataclass(frozen=True)
class ParamSet:
    """One candidate parameter row; delta0 = a/b and q = b/beta are derived."""

    n: int
    a: Fraction
    b: Fraction
    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("dimension must be >= 3")
        if self.b <= 0 or self.beta <= 0 or self.alpha <= 0:
            raise ValueError("b, alpha, beta must be positive")

    @property
    def delta0(self) -> Fraction:
        return self.a / self.b

    @property
    def q(self) -> Fraction:
        return self.b / self.beta

    @staticmethod
    def published_row(n: int) -> "ParamSet":
        if n not in published.PARAM_ROWS:
            raise ValueError(f"no built-in parameter row for n = {n}")
        row = published.PARAM_ROWS[n]
        return ParamSet(n=n, a=row["a"], b=row["b"], alpha=row["alpha"], beta=row["beta"])

    def as_strings(self) -> dict[str, str]:
        return {
            "n": str(self.n),
            "a": rts(self.a),
            "b": rts(self.b),
            "alpha": rts(self.alpha),
            "beta": rts(self.beta),
            "delta0": rts(self.delta0),
            "q": rts(self.q),
        }


@dataclass(frozen=True)
class EpsilonResult:
    F_at_0: Fraction
    F_at_1: Fraction
    epsilon: Fraction
    max_branch: str  # which of (n-2)beta-alpha / (n-3)alpha attains the max: "beta", "alpha" or "both"


def gradient_term_max(n: int, alpha: Rat, beta: Rat) -> tuple[Fraction, str]:
    """max{(n-2)beta - alpha, (n-3)alpha} with the attaining branch recorded."""
    beta_branch = (n - 2) * beta - alpha
    alpha_branch = (n - 3) * alpha
    if beta_branch > alpha_branch:
        return beta_branch, "beta"
    if beta_branch < alpha_branch:
        return alpha_branch, "alpha"
    return beta_branch, "both"


def epsilon_of(params: ParamSet) -> EpsilonResult:
    """epsilon = min{F(0), F(1)}; bounds F on all of [0, 1] because F is affine in t."""
    n, a, b, alpha, beta = params.n, params.a, params.b, params.alpha, params.beta
    Q = quadmin.f_min_coefficient(n, a, alpha, beta)
    mx, branch = gradient_term_max(n, alpha, beta)
    const = 2 * (n - 1) * beta + 2 * (n - 2) * alpha - b * Fraction(n * (n - 2), 2)
    slope = Fraction(n * n - 4, 4) * b - (n * beta + (n - 1) * alpha) - mx
    f0, f1 = const + Q, const + slope
    return EpsilonResult(F_at_0=f0, F_at_1=f1, epsilon=min(f0, f1), max_branch=branch)


# Each lambda_i and E is a numerator in [-MAX_NUM, MAX_NUM] over a denominator in
# [1, MAX_DEN]; _SCALE is a common denominator of every such rational.  A sample
# is one randrange(len(_DRAWS) ** n), split by divmod into n base-len(_DRAWS)
# digits (least significant first: lambda_1 .. lambda_(n-1), then E), and each
# digit indexes _DRAWS, which lists every (num, den, num * _SCALE / den) once.
MAX_NUM, MAX_DEN = 120, 12
_SCALE = lcm(*range(1, MAX_DEN + 1))
_DRAWS = tuple(
    (num, den, num * (_SCALE // den)) for num in range(-MAX_NUM, MAX_NUM + 1) for den in range(1, MAX_DEN + 1)
)


def curvature_sample_check(params: ParamSet, sample_count: int = 100_000, seed: int = 0) -> ConstraintReport:
    """Randomized exact check of the pointwise curvature inequality.

    For random rational trace-free principal curvatures lambda in Q^n and a
    random rational scale E, verifies

        a*S - beta*lambda1^2 - alpha*(lambda1*lambda2 + lambda2^2)
        + E*[((n-2)beta - alpha)*lambda1 + (n-3)*alpha*lambda2]  >=  E^2 * Q

    exactly, where S = sum(lambda_i^2).  The comparison runs in integers: the
    coefficients are brought to one positive common denominator M, each
    lambda_i becomes the integer Lambda_i = lambda_i * _SCALE, and E = e/ed,
    so both sides are multiplied by the positive M * _SCALE^2 * ed^2.
    Violations are findings (reported with their witness), not errors.
    """
    n = params.n
    Q = quadmin.f_min_coefficient(n, params.a, params.alpha, params.beta)
    c1, c2 = quadmin.linear_coefficients(n, params.alpha, params.beta)
    a, beta, alpha, c1, c2, Q = clear_denominators(params.a, params.beta, params.alpha, c1, c2, Q)
    c1, c2, Q = c1 * _SCALE, c2 * _SCALE, Q * _SCALE * _SCALE
    randrange = random.Random(seed).randrange
    draws = _DRAWS
    base = len(draws)
    span = base**n
    free = range(n - 1)
    report = ConstraintReport()
    violations = 0
    witness = ""
    for _ in range(sample_count):
        r = randrange(span)
        lam = []
        for _ in free:
            r, digit = divmod(r, base)
            lam.append(draws[digit][2])
        lam.append(-sum(lam))
        e, ed, _ = draws[r]
        l1, l2 = lam[0], lam[1]
        S = sum([x * x for x in lam])
        lhs = ed * ed * (a * S - beta * l1 * l1 - alpha * (l1 * l2 + l2 * l2)) + e * ed * (c1 * l1 + c2 * l2)
        if lhs < e * e * Q:
            violations += 1
            if not witness:
                witness = f"lambda={[str(Fraction(x, _SCALE)) for x in lam]}, E={Fraction(e, ed)}"
    report.add(
        "pointwise_curvature_inequality",
        violations == 0,
        kind="sampled",
        detail=f"{sample_count} samples, {violations} violations, seed={seed}"
        + (f"; first witness: {witness}" if witness else ""),
    )
    return report
