"""Constraint reports and flagged approximate values shared by the checkers."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from .certificate import CertCheck

if TYPE_CHECKING:
    import mpmath


@dataclass(frozen=True)
class ApproxValue:
    """A floating quantity carried for reporting only, never for pass/fail.

    ``value`` is a decimal string at ``digits`` significant digits, produced
    from an internal computation at ``internal_dps`` digits.
    """

    value: str
    digits: int = 12
    internal_dps: int = 50

    @staticmethod
    def from_mpf(x: mpmath.mpf, digits: int = 12, internal_dps: int = 50) -> "ApproxValue":
        import mpmath

        return ApproxValue(mpmath.nstr(x, digits), digits, internal_dps)

    def to_jsonable(self) -> dict:
        return {"value": self.value, "digits": self.digits, "internal_dps": self.internal_dps}


@dataclass
class ConstraintReport:
    """Ordered list of checks with pass/fail per constraint."""

    entries: list[CertCheck] = field(default_factory=list)

    def add(self, name: str, satisfied: bool, **kwargs) -> None:
        self.entries.append(CertCheck.of(name, satisfied, **kwargs))

    def add_margin(self, name: str, margin: Fraction, detail: str = "> 0") -> None:
        """A strict constraint: satisfied exactly when its margin is > 0."""
        self.add(name, margin > 0, margin=margin, detail=detail)

    @property
    def all_satisfied(self) -> bool:
        return all(e.satisfied for e in self.entries)

    def entry(self, name: str) -> CertCheck:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)
