"""Exact scalar types: unreduced rationals and a restricted square-root
extension, on top of :class:`fractions.Fraction`, which keeps every value
reduced with a positive denominator at arbitrary precision.

* :class:`Unreduced` — a rational that keeps its integer pair as the
  operations leave it, with no gcd, for long exact expressions whose results
  are reduced once, by ``Fraction(numerator, denominator)``, at the end (the
  exact chain of ``stabcert.optimize``);
* :class:`QuadSurd` — values of the form ``r*sqrt(s)`` with rational ``r`` and
  rational ``s >= 0``: the barrier amplitudes of ``stabcert.bubble``, which
  certificates record exactly and which are evaluated only by ``approx_mp``;
* canonical string serialization ("p/q" and "r*sqrt(s)") used by certificates,
  and ``rational_from_str``, a fast parse of "p/q";
* :func:`clear_denominators`, which the sampled checks use to compare in
  integers.

``DPS`` is the one working precision of every mpmath computation in
stabcert: the growth constants, C0, epsilon1 and the recursion table, which
are reported only, and the barrier ODE residual, an approximate check that
counts toward pass or fail.  No exact check consumes any of them.  The
high-precision value ``QuadSurd.approx_mp`` is computed at it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import mpmath

# Significant decimal digits of every mpmath computation.  Raising it changes
# no output beyond the places that record it (tests/test_golden.py checks 100).
DPS = 50


def rational_to_str(x: Fraction) -> str:
    """Serialize as "p/q" (reduced, q > 0), including q = 1 explicitly."""
    return f"{x.numerator}/{x.denominator}"


def rational_from_str(s: str) -> Fraction:
    """The Fraction of a string "p/q" or "p", reduced or not, with p and q as
    ``str(int)`` writes them (no "+", "-0", spaces, underscores, leading zeros or
    non-ASCII digits) and q > 0; ValueError for any other value.

    It takes about half the time of ``Fraction(s)``, whose string pattern also
    reads decimals and exponents, which no certificate holds; a reader that
    requires exactly what ``rational_to_str`` wrote compares the strings."""
    try:
        numerator, _, denominator = s.partition("/") if "/" in s else (s, "", "1")
        p, q = int(numerator), int(denominator)
        if q > 0 and str(p) == numerator and str(q) == denominator:
            return Fraction(p, q)
    except (AttributeError, TypeError, ValueError):
        pass
    raise ValueError(f"{s!r} is not a rational p/q")


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

    Built from an int or a Fraction; ``+ - * /``, ``abs`` and ``**`` with a
    nonnegative int exponent take and give Unreduced values, and ``==``, ``<`` and ``>``
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
    the zero value is stored as ``0*sqrt(1)``.  Use :meth:`make`; the raw
    constructor does not normalize.  Other square factors stay in the radicand
    (``1*sqrt(8)`` is not rewritten as ``2*sqrt(2)``, which would mean
    factoring it), so the type defines no equality: a field-wise one would
    call those two equal values different.
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

    def approx_mp(self) -> mpmath.mpf:
        """Advisory high-precision value at ``DPS`` significant digits."""
        import mpmath

        with mpmath.workdps(DPS):
            return mpmath.mpf(self.coeff.numerator) / self.coeff.denominator * mpmath.sqrt(
                mpmath.mpf(self.radicand.numerator) / self.radicand.denominator
            )

    def __str__(self) -> str:
        return f"{rational_to_str(self.coeff)}*sqrt({rational_to_str(self.radicand)})"
