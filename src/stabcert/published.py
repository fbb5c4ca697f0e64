"""Built-in parameter rows and the published constants they are checked against.

Stored as literal data, never recomputed from text.  Each quoted value is one
published target in a certificate, beside the value computed for it; a
mismatch is a discrepancy, surfaced but not a failure.
"""

from __future__ import annotations

from fractions import Fraction as F

# Parameter rows (a, b, alpha, beta) per dimension n
PARAM_ROWS: dict[int, dict[str, F]] = {
    3: {"a": F(10, 11), "b": F(30, 11), "alpha": F(18, 11), "beta": F(3, 2)},
    4: {"a": F(24, 25), "b": F(48, 25), "alpha": F(51, 50), "beta": F(5, 4)},
    5: {"a": F(10, 11), "b": F(20, 21), "alpha": F(31, 40), "beta": F(207, 250)},
}

# Stability thresholds delta0(n) and the certified lower bounds epsilon(n)
DELTA0: dict[int, F] = {3: F(1, 3), 4: F(1, 2), 5: F(21, 22)}
EPSILON: dict[int, F] = {
    3: F(9, 11),
    4: F(377, 5260),
    5: F(979826999, 65363627000),
}

# Young parameters L(n) and barrier coefficients gamma0(n) (quoted values)
L_VALUES: dict[int, F] = {
    3: F(71, 11),
    4: F(189697, 206625),
    5: F(106986857, 251572482),
}
GAMMA0: dict[int, F] = {
    3: F(77, 142),
    4: F(276875, 569091),
    5: F(667989, 855894856),
}

# Flatness thresholds delta1(n) = max{delta0(n), n(n-2)/(4(n-1))}
DELTA1: dict[int, F] = {3: F(3, 8), 4: F(2, 3), 5: F(21, 22)}

SUPPORTED_N = tuple(sorted(PARAM_ROWS))
