"""Level-set iteration machinery: admissible exponents and decay constants.

Covers the exact pieces of the weighted-test-function iteration:

* the Caccioppoli positivity coefficient (2k + 1/n - 1/2 - 1/s) delta/k^2 - 2
  and the resulting constants C1, C2 (C2 = (p^2 C1 / 4)^(p/2), p = 4k + 2),
* the critical threshold delta_c = n(n-2)/(4(n-1)) where the upper endpoint
  delta + sqrt(delta(delta - (n-2)/n)) of the admissible 2k values collapses
  to the rational (n-2)/2 and the exponent p reaches n, and the exact verdict
  that a shifted choice above delta_c gives p > n,
* delta1(n) = max{delta0(n), delta_c},
* the dyadic iteration constants C (an exact power of 2 with rational
  exponent, compared via exponents, never floating logs) and C0, the
  smallness threshold epsilon1, and a worst-case recursion simulator with
  exact exponent bookkeeping.

The Sobolev-type constant C_MS has no closed-form value here; it is a
configuration input whose placeholder default 1 is non-physical.  delta1 and
the collapse value are computed here and compared with their published and
closed-form values by ``verify-all``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from . import published
from .rational import QuadSurd, sqrt_exact
from .report import ApproxValue

Rat = Fraction


def caccioppoli_coefficient(n: int, delta: Rat, k: Rat, s: Rat) -> Fraction:
    """(2k + 1/n - 1/2 - 1/s) * delta / k^2 - 2, exact."""
    if k <= 0 or s <= 0:
        raise ValueError("k and s must be positive")
    return (2 * k + Fraction(1, n) - Fraction(1, 2) - 1 / Fraction(s)) * delta / (k * k) - 2


class NoCaccioppoliConstantError(ValueError):
    """Both branch coefficients nonpositive at this (k, s, s1); enlarge s, s1."""


@dataclass(frozen=True)
class CaccioppoliConstants:
    c1: Fraction
    p: Fraction  # 4k + 2
    c2_exact: Fraction | None  # exact when p is an even integer
    c2_approx: ApproxValue | None  # flagged floating otherwise
    both_branches_positive: bool


def caccioppoli_constants(n: int, delta: Rat, k: Rat, s: Rat, s1: Rat, dps: int = 50) -> CaccioppoliConstants:
    """C1 and C2 from the two absorption branches of the weighted inequality.

    Branch 1: coefficient (2k + 1/n - 1/2 - 1/s) delta/k^2 - 2 with numerator
    s + (2k + 1/n - 1/2 - 1/s)/k^2.  Branch 2: coefficient
    (k + 1/(2n) - 1/4) s1 delta / (k^2 (s1 + 1)) - 1 with numerator
    (s1/k^2)(k + 1/(2n) - 1/4).  C1 is the max of the per-branch ratios over
    branches with positive coefficient; both nonpositive is an error.
    """
    k, s, s1 = Fraction(k), Fraction(s), Fraction(s1)
    coeff1 = caccioppoli_coefficient(n, delta, k, s)
    num1 = s + (2 * k + Fraction(1, n) - Fraction(1, 2) - 1 / s) / (k * k)
    kato = k + Fraction(1, 2 * n) - Fraction(1, 4)
    coeff2 = kato * s1 * delta / (k * k * (s1 + 1)) - 1
    num2 = (s1 / (k * k)) * kato
    candidates = [num / coeff for num, coeff in ((num1, coeff1), (num2, coeff2)) if coeff > 0]
    if not candidates:
        raise NoCaccioppoliConstantError(
            f"branch coefficients {coeff1} and {coeff2} both nonpositive at k={k}, s={s}, s1={s1}"
        )
    c1 = max(candidates)
    p = 4 * k + 2
    base = p * p * c1 / 4
    c2_exact = None
    c2_approx = None
    if p.denominator == 1 and p.numerator % 2 == 0:
        c2_exact = base ** (p.numerator // 2)
    else:
        with mpmath.workdps(dps):
            val = (mpmath.mpf(base.numerator) / base.denominator) ** (
                mpmath.mpf(p.numerator) / p.denominator / 2
            )
            c2_approx = ApproxValue.from_mpf(val, internal_dps=dps)
    return CaccioppoliConstants(
        c1=c1,
        p=p,
        c2_exact=c2_exact,
        c2_approx=c2_approx,
        both_branches_positive=coeff1 > 0 and coeff2 > 0,
    )


def critical_delta_threshold(n: int) -> Fraction:
    """delta_c = n(n-2)/(4(n-1))."""
    return Fraction(n * (n - 2), 4 * (n - 1))


def collapse_sqrt(n: int) -> Fraction | None:
    """sqrt(delta_c (delta_c - (n-2)/n)), or None if it is irrational.

    The radicand is the perfect rational square ((n-2)^2/(4(n-1)))^2 for every
    n >= 3.
    """
    dc = critical_delta_threshold(n)
    return sqrt_exact(dc * (dc - Fraction(n - 2, n)))


def critical_delta_exponent(n: int, delta: Rat) -> bool:
    """Whether the shifted exponent choice above the critical threshold gives p > n.

    For delta > delta_c, with the midpoint shift eps = (delta - delta_c)/2 and
    s = delta_c + eps, the choice 2k = s + sqrt(s(s - (n-2)/n)) gives
    p = 4k + 2 = 2*(2k) + 2, so p > n exactly when
    2*sqrt(s(s - (n-2)/n)) > n - 2 - 2s, decided by surd comparison (the
    boundary choice at delta_c gives 2k = (n-2)/2 and p = n).
    """
    delta = Fraction(delta)
    dc = critical_delta_threshold(n)
    if delta <= dc:
        raise ValueError(f"delta = {delta} must exceed the critical threshold {dc}")
    shifted = dc + (delta - dc) / 2
    rad = shifted * (shifted - Fraction(n - 2, n))
    return QuadSurd.make(2, rad).compare_rational(n - 2 - 2 * shifted) > 0


def delta1_of(n: int) -> Fraction:
    """max{delta0(n), n(n-2)/(4(n-1))} for a dimension with a built-in delta0."""
    if n not in published.DELTA0:
        raise ValueError(f"no built-in delta0 for n = {n}")
    return max(published.DELTA0[n], critical_delta_threshold(n))


@dataclass(frozen=True)
class Pow2:
    """The exact power of two ``2^exponent`` with a rational exponent."""

    exponent: Fraction

    def approx_mp(self, dps: int = 50) -> mpmath.mpf:
        with mpmath.workdps(dps):
            return mpmath.power(2, mpmath.mpf(self.exponent.numerator) / self.exponent.denominator)

    def __str__(self) -> str:
        return f"2^({self.exponent.numerator}/{self.exponent.denominator})"


@dataclass(frozen=True)
class DeGiorgiConstants:
    C: Pow2
    C0: ApproxValue
    epsilon1: ApproxValue


def _iteration_terms(n: int, delta: Fraction, q: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """(pref1, pref2, e): the two C0 prefactors and the exponent of C = 2^e.

    pref1 = (2q/(q - (n-2)/n) + 1) * 2^7, pref2 = q^3 / ((delta - q)(q - (n-2)/n)),
    e = max{(3n+2)/(n-2), 2n/(n-2) - 2/q + 1}.
    """
    if n < 3:
        raise ValueError(f"dimension n = {n} must be >= 3")
    if not Fraction(n - 2, n) < q < delta:
        raise ValueError(f"q = {q} must lie in ((n-2)/n, delta) = ({Fraction(n - 2, n)}, {delta})")
    gap = q - Fraction(n - 2, n)
    exponent = max(Fraction(3 * n + 2, n - 2), Fraction(2 * n, n - 2) - 2 / q + 1)
    return (2 * q / gap + 1) * 2**7, q**3 / ((delta - q) * gap), exponent


def degiorgi_constants(n: int, delta: Rat, q: Rat, C_MS: float, R: float, dps: int = 50) -> DeGiorgiConstants:
    """The dyadic iteration constants C (exact base-2 exponent) and C0.

    C = max{2^((3n+2)/(n-2)), 2^(2n/(n-2) - 2/q + 1)}, compared exactly.
    C0 = C_MS * { pref1 * R^(-(2n-4)/n) + pref2 * 2^(2/q) * R^(-(2(n-2)/(nq) - 4/n)) }.
    """
    delta, q = Fraction(delta), Fraction(q)
    pref1, pref2, c_exponent = _iteration_terms(n, delta, q)
    if not 1 < R < math.inf:
        raise ValueError("R must exceed 1 and be finite")
    if not 0 < C_MS < math.inf:
        raise ValueError("C_MS must be positive and finite")
    C = Pow2(c_exponent)
    rexp1 = Fraction(2 * n - 4, n)
    rexp2 = Fraction(2 * (n - 2), 1) / (n * q) - Fraction(4, n)
    with mpmath.workdps(dps):
        Rmp = mpmath.mpf(R)
        term1 = mpmath.mpf(pref1.numerator) / pref1.denominator * Rmp ** (
            -mpmath.mpf(rexp1.numerator) / rexp1.denominator
        )
        two_pow = mpmath.power(2, mpmath.mpf(2) / (mpmath.mpf(q.numerator) / q.denominator))
        term2 = mpmath.mpf(pref2.numerator) / pref2.denominator * two_pow * Rmp ** (
            -mpmath.mpf(rexp2.numerator) / rexp2.denominator
        )
        c0 = mpmath.mpf(C_MS) * (term1 + term2)
        c0_approx = ApproxValue.from_mpf(c0, internal_dps=dps)
    eps1 = epsilon1_threshold(n, delta, q, C_MS, dps=dps)
    return DeGiorgiConstants(C=C, C0=c0_approx, epsilon1=ApproxValue.from_mpf(eps1, internal_dps=dps))


def epsilon1_threshold(
    n: int, delta: Rat, q: Rat, C_MS: float, safety: Fraction = Fraction(1, 2), dps: int = 50
) -> mpmath.mpf:
    """Largest admissible smallness threshold, shrunk by a documented safety factor.

    The critical value solves eps1 * C^(n^2/2) * C_MS * bracket^(n/2) = 1 with
    bracket = pref1 + pref2 * 2^(2/q); the returned threshold is safety (default
    1/2) times the critical value, keeping the required strict inequality.
    """
    delta, q = Fraction(delta), Fraction(q)
    pref1, pref2, c_exponent = _iteration_terms(n, delta, q)
    if not 0 < C_MS < math.inf:
        raise ValueError("C_MS must be positive and finite")
    c_exp = c_exponent * Fraction(n * n, 2)
    with mpmath.workdps(dps):
        bracket = (
            mpmath.mpf(pref1.numerator) / pref1.denominator
            + mpmath.mpf(pref2.numerator)
            / pref2.denominator
            * mpmath.power(2, mpmath.mpf(2) * q.denominator / q.numerator)
        )
        c_power = mpmath.power(2, mpmath.mpf(c_exp.numerator) / c_exp.denominator)
        critical = 1 / (c_power * mpmath.mpf(C_MS) * bracket ** (mpmath.mpf(n) / 2))
        return critical * mpmath.mpf(safety.numerator) / safety.denominator


@dataclass
class RecursionResult:
    log10_values: list[float]
    dominated: bool
    tends_to_zero: bool
    exponent_identity_ok: bool
    log_direct_agreement_ok: bool
    values_str: list[str]
    bounds_str: list[str]


def recursion_simulate(S1: float, C0: float, C: float, n: int, steps: int = 20, dps: int = 60) -> RecursionResult:
    """Worst-case iteration of the odd-index decay recursion, with its closed bound.

    Iterates T_m = C0^theta * C^(theta (2m-1)) * T_(m-1)^theta from T_0 = S1,
    theta = n/(n-2) (equality, the worst case), tracking the exponents of C0,
    C and S1 as exact rationals; values are evaluated in the log domain from
    those exponents and cross-checked against a direct product iteration at
    1e-9 relative precision.  The closed-form bound is
    (C0^(n/2) C^(n^2/2) S1)^(theta^m); domination is verified at every step.

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
    with mpmath.workdps(dps):
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

        def fmt(log_value) -> str:
            if abs(log_value) < 5e4:
                return mpmath.nstr(mpmath.exp(log_value), 12)
            return f"10^{float(log_value / log10):.6g}"

        logP = mpmath.mpf(n) / 2 * logC0 + mpmath.mpf(n * n) / 2 * logC + logS1
        log10_values = [float(logS1 / log10)]
        values_str = [fmt(logS1)]
        bounds_str = [fmt(logP)]
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
            values_str.append(fmt(log_t))
            bounds_str.append(fmt(log_bound))
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
