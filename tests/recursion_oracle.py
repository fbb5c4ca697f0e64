"""The recursion simulator as it ran on ``Fraction`` exponents and ``mpf`` operators.

``recursion_simulate`` below is ``stabcert.iteration.recursion_simulate`` before
its loop moved to integer exponent numerators and raw ``mpmath.libmp`` values;
the tests require the two to agree bit for bit, error text included.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from stabcert.iteration import RecursionResult


def recursion_simulate(S1: float, C0: float, C: float, n: int, steps: int = 20) -> RecursionResult:
    """Worst-case iteration of the odd-index decay recursion, with its closed bound.

    Iterates T_m = C0^theta * C^(theta (2m-1)) * T_(m-1)^theta from T_0 = S1,
    theta = n/(n-2) (equality, the worst case), tracking the exponents of C0,
    C and S1 as exact rationals; values are evaluated at 60 significant digits
    in the log domain from
    those exponents and cross-checked against a direct product iteration at
    1e-9 relative precision.  The closed-form bound is
    (C0^(n/2) C^(n^2/2) S1)^(theta^m); domination is verified at every step.
    Values print as 10^x once |ln| reaches 5e4; a step count that takes some
    base-10 exponent x past the double range is refused with ValueError,
    which names the largest that fits.

    Computed once per call rather than per step: C0 and C as mpf, C0^theta,
    C^(2 theta) and the 1e-9 tolerance; C^(theta (2m-1)) is a running product
    of C^(2 theta), so the direct iteration uses only these mpf powers, never
    the log-domain values it is checked against.  theta^m is computed once a
    step, in closed form, because the exponent recurrences are checked
    against it.

    The dyadic level/radius ladder behind the recursion enters only through
    the constants C0 and C; the ladder itself is not simulated.
    """
    if not all(0 < x < math.inf for x in (S1, C0, C)):
        raise ValueError("all recursion inputs must be positive and finite")
    if n < 3:
        raise ValueError(f"dimension n = {n} must be >= 3")
    if steps < 1:
        raise ValueError(f"steps = {steps} must be >= 1")
    theta = Fraction(n, n - 2)
    with mpmath.workdps(60):
        C0_mp, C_mp = mpmath.mpf(C0), mpmath.mpf(C)
        logC0, logC, logS1 = mpmath.log(C0_mp), mpmath.log(C_mp), mpmath.log(mpmath.mpf(S1))
        log10 = mpmath.log(10)
        tol = mpmath.mpf("1e-9")
        e0, eC, eS = Fraction(0), Fraction(0), Fraction(1)
        exponent_ok = True
        dominated = True
        agreement_ok = True
        theta_mp = mpmath.mpf(n) / (n - 2)
        c0_theta = C0_mp**theta_mp
        c_two_theta = C_mp ** (2 * theta_mp)
        c_power = C_mp**theta_mp  # C^(theta (2m-1)), here at m = 1
        t_direct = mpmath.mpf(S1)

        def fmt(log_value, step: int) -> str:
            if abs(log_value) < 5e4:
                return mpmath.nstr(mpmath.exp(log_value), 12)
            exponent = float(log_value / log10)
            if math.isinf(exponent):
                raise ValueError(
                    f"steps = {steps} is too many for these inputs: at step {step} the base-10 exponent "
                    f"of the sequence or its bound leaves the double range; give at most {step - 1}"
                )
            return f"10^{exponent:.6g}"

        logP = mpmath.mpf(n) / 2 * logC0 + mpmath.mpf(n * n) / 2 * logC + logS1
        log10_values = [float(logS1 / log10)]
        values_str = [fmt(logS1, 0)]
        bounds_str = [fmt(logP, 0)]
        for m in range(1, steps + 1):
            e0 = theta * (1 + e0)
            eC = theta * (2 * m - 1) + theta * eC
            eS = theta * eS
            theta_m = theta**m
            # geometric-sum identity for the C0 exponent
            closed_e0 = theta * (theta_m - 1) / (theta - 1)
            if e0 != closed_e0 or eS != theta_m:
                exponent_ok = False
            log_t = (
                mpmath.mpf(e0.numerator) / e0.denominator * logC0
                + mpmath.mpf(eC.numerator) / eC.denominator * logC
                + mpmath.mpf(eS.numerator) / eS.denominator * logS1
            )
            t_direct = c0_theta * c_power * t_direct**theta_mp
            c_power *= c_two_theta
            log_direct = mpmath.log(t_direct)
            if abs(log_direct - log_t) > tol * max(1, abs(log_t)):
                agreement_ok = False
            log_bound = mpmath.mpf(theta_m.numerator) / theta_m.denominator * logP
            if log_t > log_bound + tol:
                dominated = False
            log10_values.append(float(log_t / log10))
            values_str.append(fmt(log_t, m))
            bounds_str.append(fmt(log_bound, m))
        tends_to_zero = bool(logP < 0) and log10_values[-1] < log10_values[0]
    return RecursionResult(
        log10_values=log10_values,
        dominated=dominated,
        tends_to_zero=tends_to_zero,
        exponent_identity_ok=exponent_ok,
        log_direct_agreement_ok=agreement_ok,
        values_str=values_str,
        bounds_str=bounds_str,
    )
