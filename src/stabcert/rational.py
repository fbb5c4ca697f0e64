"""Exact scalar types: unreduced rationals and a restricted square-root
extension, on top of :class:`fractions.Fraction`, which keeps every value
reduced with a positive denominator at arbitrary precision.

* :class:`Unreduced` — a rational that keeps its integer pair as the
  operations leave it, with no gcd, for long exact expressions whose results
  are reduced once, by ``Fraction(numerator, denominator)``, at the end (the
  exact chain of ``stabcert.optimize``);
* :class:`QuadSurd` — values of the form ``r*sqrt(s)`` with rational ``r`` and
  rational ``s >= 0``, closed under the product and ratio that the barrier
  (``stabcert.bubble``) needs;
* canonical string serialization ("p/q" and "r*sqrt(s)") used by certificates,
  and ``rational_from_str``, a fast parse of "p/q";
* :func:`clear_denominators`, which the sampled checks use to compare in
  integers.

The high-precision value ``QuadSurd.approx_mp`` feeds the growth constants,
which are reported only, and the barrier ODE residual, an approximate check
that counts toward pass or fail; no exact check consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import mpmath


def rational_to_str(x: Fraction) -> str:
    """Serialize as "p/q" (reduced, q > 0), including q = 1 explicitly."""
    return f"{x.numerator}/{x.denominator}"


def rational_from_str(s: str) -> Fraction:
    """The Fraction of a string "p/q" or "p" of integers, reduced or not, the
    form ``rational_to_str`` writes; ValueError for any other value.

    It takes about half the time of ``Fraction(s)``, whose string pattern also
    reads decimals and exponents, which no certificate holds; a reader that
    requires exactly what ``rational_to_str`` wrote compares the strings."""
    try:
        numerator, slash, denominator = s.partition("/")
        return Fraction(int(numerator), int(denominator) if slash else 1)
    except (AttributeError, TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"{s!r} is not a rational p/q") from None


def clear_denominators(*values: Fraction) -> tuple[int, ...]:
    """The values times their least positive common denominator, as ints."""
    m = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (m // v.denominator) for v in values)


def sqrt_exact(x: Fraction) -> Fraction | None:
    """Exact square root of ``x`` if it is the square of a rational, else None."""
    if x < 0:
        return None
    p, q = x.numerator, x.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Fraction(rp, rq)
    return None


class Unreduced:
    """The exact rational ``numerator/denominator``, with ints and a positive
    denominator, never reduced: Fraction's arithmetic without its gcd.

    Built from an int or a Fraction; ``+ - * /``, ``abs`` and ``**`` with an
    int exponent take and give Unreduced values, and ``==``, ``<`` and ``>``
    cross-multiply, so 2/4 == 1/2: the operations the exact chain applies.
    A value's sign is its numerator's.  Unhashable, because equal values need
    not have equal pairs.
    """

    __slots__ = ("numerator", "denominator")
    __hash__ = None

    def __init__(self, value: Fraction | int):
        self.numerator, self.denominator = value.numerator, value.denominator

    def __repr__(self) -> str:
        return f"Unreduced({self.numerator}/{self.denominator})"

    def __add__(self, other: Unreduced) -> Unreduced:
        return _pair(self.numerator * other.denominator + other.numerator * self.denominator,
                     self.denominator * other.denominator)

    def __sub__(self, other: Unreduced) -> Unreduced:
        return _pair(self.numerator * other.denominator - other.numerator * self.denominator,
                     self.denominator * other.denominator)

    def __mul__(self, other: Unreduced) -> Unreduced:
        return _pair(self.numerator * other.numerator, self.denominator * other.denominator)

    def __truediv__(self, other: Unreduced) -> Unreduced:
        return _quotient(self.numerator * other.denominator, self.denominator * other.numerator)

    def __abs__(self) -> Unreduced:
        return _pair(abs(self.numerator), self.denominator)

    def __pow__(self, exponent: int) -> Unreduced:
        if exponent < 0:
            return _quotient(self.denominator**-exponent, self.numerator**-exponent)
        return _pair(self.numerator**exponent, self.denominator**exponent)

    def __eq__(self, other: Unreduced) -> bool:
        return self.numerator * other.denominator == other.numerator * self.denominator

    def __lt__(self, other: Unreduced) -> bool:
        return self.numerator * other.denominator < other.numerator * self.denominator

    def __gt__(self, other: Unreduced) -> bool:
        return self.numerator * other.denominator > other.numerator * self.denominator


def _pair(numerator: int, denominator: int) -> Unreduced:
    """The Unreduced ``numerator/denominator``, for a denominator known to be positive."""
    value = object.__new__(Unreduced)
    value.numerator, value.denominator = numerator, denominator
    return value


def _quotient(numerator: int, denominator: int) -> Unreduced:
    """The Unreduced ``numerator/denominator`` with the sign moved to the numerator."""
    if denominator < 0:
        return _pair(-numerator, -denominator)
    if denominator == 0:
        raise ZeroDivisionError(f"Unreduced({numerator}, 0)")
    return _pair(numerator, denominator)


@dataclass(frozen=True, eq=False)
class QuadSurd:
    """The exact value ``coeff * sqrt(radicand)`` with ``radicand >= 0``.

    Instances are canonicalized on construction: a radicand that is a perfect
    rational square is folded into the coefficient (radicand becomes 1), and
    the zero value is stored as ``0*sqrt(1)``.  Use :meth:`make` or the
    arithmetic operations; the raw constructor does not normalize.  Other
    square factors stay in the radicand (``1*sqrt(8)`` is not rewritten as
    ``2*sqrt(2)``, which would mean factoring it), so the type defines no
    equality: a field-wise one would call those two equal values different.
    """

    coeff: Fraction
    radicand: Fraction

    @staticmethod
    def make(coeff: Fraction | int, radicand: Fraction | int) -> "QuadSurd":
        coeff, radicand = Fraction(coeff), Fraction(radicand)
        if radicand < 0:
            raise ValueError("radicand must be nonnegative")
        if coeff == 0 or radicand == 0:
            return QuadSurd(Fraction(0), Fraction(1))
        root = sqrt_exact(radicand)
        if root is not None:
            return QuadSurd(coeff * root, Fraction(1))
        return QuadSurd(coeff, radicand)

    def is_rational(self) -> bool:
        return self.radicand == 1 or self.coeff == 0

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        return self.coeff

    def __mul__(self, other: "QuadSurd") -> "QuadSurd":
        return QuadSurd.make(self.coeff * other.coeff, self.radicand * other.radicand)

    def __truediv__(self, other: "QuadSurd") -> "QuadSurd":
        return QuadSurd.make(self.coeff / other.coeff, self.radicand / other.radicand)

    def approx_mp(self, dps: int = 50) -> mpmath.mpf:
        """Advisory high-precision value at ``dps`` significant digits."""
        import mpmath

        with mpmath.workdps(dps):
            return mpmath.mpf(self.coeff.numerator) / self.coeff.denominator * mpmath.sqrt(
                mpmath.mpf(self.radicand.numerator) / self.radicand.denominator
            )

    def __str__(self) -> str:
        return f"{rational_to_str(self.coeff)}*sqrt({rational_to_str(self.radicand)})"
