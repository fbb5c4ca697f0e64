"""A number type that meets only its own kind, for testing typed-constant code.

``Strict`` wraps a Fraction and raises TypeError when an arithmetic operator or
comparison meets an operand of any other type, int and Fraction included;
only ``**`` takes an int exponent.  Code that runs on it draws every constant
from a table built for the operand type, never from a literal such as the 2
in ``2 * beta``.
"""

from __future__ import annotations

from fractions import Fraction


class Strict:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = Fraction(value)

    def __repr__(self) -> str:
        return f"Strict({self.value})"

    def _peer(self, other) -> Fraction:
        if type(other) is not Strict:
            raise TypeError(f"Strict number met {type(other).__name__} {other!r}")
        return other.value

    def __add__(self, other):
        return Strict(self.value + self._peer(other))

    def __sub__(self, other):
        return Strict(self.value - self._peer(other))

    def __mul__(self, other):
        return Strict(self.value * self._peer(other))

    def __truediv__(self, other):
        return Strict(self.value / self._peer(other))

    def _reflected(self, other):
        # reached only when the left operand is not a Strict
        self._peer(other)

    __radd__ = __rsub__ = __rmul__ = __rtruediv__ = _reflected

    def __pow__(self, exponent):
        if type(exponent) is not int:
            raise TypeError(f"Strict power with a {type(exponent).__name__} exponent")
        return Strict(self.value**exponent)

    def __neg__(self):
        return Strict(-self.value)

    def __abs__(self):
        return Strict(abs(self.value))

    def __eq__(self, other):
        return self.value == self._peer(other)

    def __lt__(self, other):
        return self.value < self._peer(other)

    def __le__(self, other):
        return self.value <= self._peer(other)

    def __gt__(self, other):
        return self.value > self._peer(other)

    def __ge__(self, other):
        return self.value >= self._peer(other)

    __hash__ = None
