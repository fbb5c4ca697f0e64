"""stabcert: exact-arithmetic certification of a stability-constant pipeline.

The package verifies, with arbitrary-precision rational arithmetic, every
closed-form inequality and constant in the volume-growth / flatness pipeline
for delta-stable minimal hypersurfaces (dimensions 3 to 5), emits
machine-checkable certificates, and searches parameter space for improved
thresholds, including a probe of the open dimension 6.
"""

from .config import RunConfig
from .curvature import ParamSet
from .optimize import feasibility, maximize_epsilon, minimize_delta0
from .rational import QuadSurd, Rational

__all__ = [
    "ParamSet",
    "RunConfig",
    "feasibility",
    "minimize_delta0",
    "maximize_epsilon",
    "QuadSurd",
    "Rational",
]

__version__ = "0.1.0"
