"""The weighted curvature quadratic f, the function F, and the sampled curvature inequality.

For a parameter row (n, a, b, alpha, beta) with a = b*delta0 the quadratic

    f(x, y) = a*[x^2 + y^2 + (x+y)^2/(n-2)] - beta*x^2 - alpha*(x*y + y^2)
              - E*[((n-2)*beta - alpha)*x + (n-3)*alpha*y]

has, under the convexity hypotheses (f_xx > 0, f_yy > 0 and Hessian
determinant D > 0), the minimum E^2 * Q; it depends on the linear-term scale
E only through E^2, so both sign conventions give the same Q.  The function

    F(t) = 2(n-1)beta + 2(n-2)alpha - b*n(n-2)/2
           + [ (n^2-4)/4*b - (n*beta + (n-1)alpha)
               - max{(n-2)beta - alpha, (n-3)alpha} ] * t
           + (1 - t) * Q,        t = |dr|^2 in [0, 1],

is affine in t, so its minimum over [0, 1] is epsilon = min{F(0), F(1)}.
D, Q, F(0), F(1) and epsilon are computed once, in ``optimize``'s chain.
This module holds the parameter row, f's linear coefficients, and the
randomized exact sampling check of the pointwise curvature inequality over
trace-free principal-curvature vectors, which takes the chain's Q.  Each
sample is one uniform draw (``getrandbits``, redrawn while out of range),
split into one digit per random rational; a digit picks a numerator and a
denominator from a fixed grid.  The check compares in cleared-denominator
integers: the inequality is multiplied through by a positive common
denominator, so the verdict is the exact rational one.  Each sample keeps
only running sums of the lambda_i and their squares; the first violating
draw is decoded again to print its witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import published
from .certificate import CertCheck
from .rational import clear_denominators, rational_from_str
from .rational import rational_to_str as rts


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

    @staticmethod
    def from_strings(strings: dict, n: int | None = None) -> "ParamSet":
        """The row whose ``as_strings`` is ``strings``, exactly; with ``n``, the
        dimension of the certificate that records ``strings``, a row of that
        dimension.  Anything else raises a ValueError that names it: a key
        missing or unknown, an n that is not an integer, a rational that is
        not "p/q", or a value the row does not write (a delta0 that is not
        a/b, or "2/4" for 1/2, say)."""
        try:
            rationals = (rational_from_str(strings[key]) for key in ("a", "b", "alpha", "beta"))
            row = ParamSet(int(strings["n"]), *rationals)
        except KeyError as exc:
            raise ValueError(f"params have no {exc.args[0]}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"params: {exc}") from None
        written = row.as_strings()
        if written != strings:
            if missing := [key for key in written if key not in strings]:
                raise ValueError(f"params have no {', '.join(missing)}")
            if unknown := [key for key in strings if key not in written]:
                raise ValueError(f"unknown params: {', '.join(unknown)}")
            key = next(key for key in written if strings[key] != written[key])
            raise ValueError(f"params {key} {strings[key]!r} is not {written[key]!r}, which the row writes")
        if n is not None and row.n != n:
            raise ValueError(f"params n {strings['n']!r} is not the certificate's n = {n}")
        return row

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


def linear_coefficients(n: int, alpha: Fraction, beta: Fraction) -> tuple[Fraction, Fraction]:
    """The (c1, c2) with linear part -E*(c1*x + c2*y) in f: ((n-2)beta - alpha, (n-3)alpha)."""
    return (n - 2) * beta - alpha, (n - 3) * alpha


# Each lambda_i and E is a numerator in [-MAX_NUM, MAX_NUM] over a denominator in
# [1, MAX_DEN]; _SCALE is a common denominator of every such rational.  A sample
# is one uniform draw below len(_DRAWS) ** n (getrandbits, redrawn while too
# large: what randrange returns), split by divmod into n base-len(_DRAWS)
# digits (least significant first: lambda_1 .. lambda_(n-1), then E), and each
# digit indexes _DRAWS, which lists every (num, den, num * _SCALE / den) once.
MAX_NUM, MAX_DEN = 120, 12
_SCALE = lcm(*range(1, MAX_DEN + 1))
_DRAWS = tuple(
    (num, den, num * (_SCALE // den)) for num in range(-MAX_NUM, MAX_NUM + 1) for den in range(1, MAX_DEN + 1)
)


def curvature_sample_check(params: ParamSet, Q: Fraction, sample_count: int, seed: int) -> list[CertCheck]:
    """Randomized exact check of the pointwise curvature inequality.

    For random rational trace-free principal curvatures lambda in Q^n and a
    random rational scale E, verifies

        a*S - beta*lambda1^2 - alpha*(lambda1*lambda2 + lambda2^2)
        + E*[((n-2)beta - alpha)*lambda1 + (n-3)*alpha*lambda2]  >=  E^2 * Q

    exactly, where S = sum(lambda_i^2) and Q is the chain's quadratic-minimum
    coefficient (``optimize.exact_chain``).  The comparison runs in integers: the
    coefficients are brought to one positive common denominator M, each
    lambda_i becomes the integer Lambda_i = lambda_i * _SCALE, and E = e/ed,
    so both sides are multiplied by the positive M * _SCALE^2 * ed^2.
    Violations are findings (reported with their witness), not errors.
    """
    n = params.n
    c1, c2 = linear_coefficients(n, params.alpha, params.beta)
    a, beta, alpha, c1, c2, Q = clear_denominators(params.a, params.beta, params.alpha, c1, c2, Q)
    c1, c2, Q = c1 * _SCALE, c2 * _SCALE, Q * _SCALE * _SCALE
    getrandbits = random.Random(seed).getrandbits
    draws = _DRAWS
    base = len(draws)
    span = base**n
    bits = span.bit_length()
    more = range(n - 3)
    violations = 0
    first = None
    for _ in range(sample_count):
        r = getrandbits(bits)
        while r >= span:
            r = getrandbits(bits)
        x, digit = divmod(r, base)
        l1 = draws[digit][2]
        x, digit = divmod(x, base)
        l2 = draws[digit][2]
        s, t = l1 + l2, l1 * l1 + l2 * l2  # the sums of lambda_1 .. lambda_(n-1) and of their squares
        for _ in more:
            x, digit = divmod(x, base)
            v = draws[digit][2]
            s += v
            t += v * v
        e, ed, _ = draws[x]
        # S = t + s^2, since lambda_n = -s
        lhs = ed * (ed * (a * (t + s * s) - beta * l1 * l1 - alpha * (l1 + l2) * l2) + e * (c1 * l1 + c2 * l2))
        if lhs < e * e * Q:
            violations += 1
            if first is None:
                first = r
    witness = "" if first is None else _witness(n, first)
    return [CertCheck.sampled("pointwise_curvature_inequality", sample_count, violations, seed, witness)]


def _witness(n: int, r: int) -> str:
    """The sample that draw ``r`` decodes to, as reduced fractions."""
    base = len(_DRAWS)
    lam = []
    for _ in range(n - 1):
        r, digit = divmod(r, base)
        num, den, _ = _DRAWS[digit]
        lam.append(Fraction(num, den))
    lam.append(-sum(lam))
    e, ed, _ = _DRAWS[r]
    return f"lambda={[str(x) for x in lam]}, E={Fraction(e, ed)}"
