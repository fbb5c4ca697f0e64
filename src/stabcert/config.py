"""Run configuration: the one declaration of every run setting.

``RunConfig``'s fields are the settings.  Everything else derives from them:
the "key = value" file parser reads each key with the type of its default,
the CLI flags override the field named by their dest, and the certificate's
environment block records every field but ``out_dir``.

C_MS (the Sobolev-type constant of the iteration) has no closed-form value in
this pipeline; its default 1.0 is a placeholder and non-physical.  Precision
is no setting: every mpmath computation runs at ``rational.DPS`` digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .rational import rational_to_str


class ConfigError(ValueError):
    """Malformed configuration file or invalid value (CLI exit code 2)."""


@dataclass
class RunConfig:
    c_ms: float = 1.0  # placeholder, non-physical
    radius: float = 100.0
    s: Fraction = Fraction(100)
    s1: Fraction = Fraction(100)
    curvature_samples: int = 100_000
    quadform_samples: int = 1_000
    barrier_samples: int = 1_000
    seed: int = 0
    denominator_bound: int = 10**6
    out_dir: Path = field(default_factory=lambda: Path("."))

    def __post_init__(self):
        if not 0 < self.c_ms < math.inf:
            raise ConfigError("c_ms must be positive and finite")
        if not 1 < self.radius < math.inf:
            raise ConfigError("radius must exceed 1 and be finite")
        if self.s <= 0 or self.s1 <= 0:
            raise ConfigError("s and s1 must be positive")
        for name in ("curvature_samples", "quadform_samples", "barrier_samples"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.seed < 0:  # random.Random(-s) draws the samples of random.Random(s)
            raise ConfigError("seed must be >= 0")
        if self.denominator_bound < 2:
            raise ConfigError("denominator_bound must be >= 2")

    def environment(self) -> dict:
        """The settings block recorded into every certificate: each field but
        ``out_dir``, in field order, rationals as "p/q"."""
        return {
            key: rational_to_str(value) if isinstance(value, Fraction) else value
            for key, value in vars(self).items()
            if key != "out_dir"
        }


# each key is read with the type of its default
_PARSERS = {key: type(value) for key, value in vars(RunConfig()).items()}


def load_config(path: str | Path | None, overrides: dict | None = None) -> RunConfig:
    """Parse a "key = value" file (None gives the defaults), then apply each
    non-None override whose key names a field, and validate once."""
    values = {} if path is None else _read(Path(path))
    values.update((key, value) for key, value in (overrides or {}).items() if key in _PARSERS and value is not None)
    try:
        return RunConfig(**values)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _read(path: Path) -> dict:
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
    return values
