"""Run configuration: "key = value" text files plus documented defaults.

C_MS (the Sobolev-type constant of the iteration) has no closed-form value in
this pipeline; its default 1.0 is a placeholder and non-physical.  Floating
precision is never allowed below 50 significant digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path


class ConfigError(ValueError):
    """Malformed configuration file or invalid value (CLI exit code 2)."""


@dataclass
class RunConfig:
    c_ms: float = 1.0  # placeholder, non-physical
    radius: float = 100.0
    s: Fraction = Fraction(100)
    s1: Fraction = Fraction(100)
    float_precision_digits: int = 50
    curvature_samples: int = 100_000
    quadform_samples: int = 1_000
    barrier_samples: int = 1_000
    seed: int = 0
    budget: int = 100_000
    denominator_bound: int = 10**6
    out_dir: Path = field(default_factory=lambda: Path("."))

    def __post_init__(self):
        if self.float_precision_digits < 50:
            raise ConfigError("float_precision_digits must be >= 50")
        if not 0 < self.c_ms < math.inf:
            raise ConfigError("c_ms must be positive and finite")
        if not 1 < self.radius < math.inf:
            raise ConfigError("radius must exceed 1 and be finite")
        if self.s <= 0 or self.s1 <= 0:
            raise ConfigError("s and s1 must be positive")
        for name in ("curvature_samples", "quadform_samples", "barrier_samples"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")

    def environment(self) -> dict:
        """The settings block recorded into every certificate."""
        return {
            "c_ms": self.c_ms,
            "radius": self.radius,
            "s": f"{self.s.numerator}/{self.s.denominator}",
            "s1": f"{self.s1.numerator}/{self.s1.denominator}",
            "float_precision_digits": self.float_precision_digits,
            "curvature_samples": self.curvature_samples,
            "quadform_samples": self.quadform_samples,
            "barrier_samples": self.barrier_samples,
            "seed": self.seed,
            "budget": self.budget,
            "denominator_bound": self.denominator_bound,
        }


_PARSERS = {
    "c_ms": float,
    "radius": float,
    "s": Fraction,
    "s1": Fraction,
    "float_precision_digits": int,
    "curvature_samples": int,
    "quadform_samples": int,
    "barrier_samples": int,
    "seed": int,
    "budget": int,
    "denominator_bound": int,
    "out_dir": Path,
}


def load_config(path: str | Path | None) -> RunConfig:
    """Parse a "key = value" file; an empty or missing-path argument gives defaults."""
    if path is None:
        return RunConfig()
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    values: dict = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _PARSERS[key](value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    try:
        return RunConfig(**values)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
