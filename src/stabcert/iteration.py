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
  smallness threshold epsilon1, and a worst-case recursion simulator whose
  exponents are exact integer numerators over k'^m (theta = n/(n-2) = n'/k'
  in lowest terms) and whose values are raw ``mpmath.libmp`` numbers at 60
  significant digits.

The Sobolev-type constant C_MS has no closed-form value here; it is a
configuration input whose placeholder default 1 is non-physical.  delta1 and
the collapse value are computed here and compared with their published and
closed-form values by ``verify-all``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import libmp

from . import published
from .certificate import ApproxValue
from .rational import QuadSurd, sqrt_exact

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
    c2: Fraction | None  # None unless p is an even integer
    both_branches_positive: bool


def caccioppoli_constants(n: int, delta: Rat, k: Rat, s: Rat, s1: Rat) -> CaccioppoliConstants:
    """C1 and C2 from the two absorption branches of the weighted inequality.

    Branch 1: coefficient (2k + 1/n - 1/2 - 1/s) delta/k^2 - 2 with numerator
    s + (2k + 1/n - 1/2 - 1/s)/k^2.  Branch 2: coefficient
    (k + 1/(2n) - 1/4) s1 delta / (k^2 (s1 + 1)) - 1 with numerator
    (s1/k^2)(k + 1/(2n) - 1/4).  C1 is the max of the per-branch ratios over
    branches with positive coefficient; both nonpositive is an error.  C2 is
    exact when p is an even integer, as verify-all's k = delta/2 = 1/2 makes
    it (p = 4), and None otherwise.
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
    even = p.denominator == 1 and p.numerator % 2 == 0
    c2 = (p * p * c1 / 4) ** (p.numerator // 2) if even else None
    return CaccioppoliConstants(c1=c1, p=p, c2=c2, both_branches_positive=coeff1 > 0 and coeff2 > 0)


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

    def approx_mp(self) -> mpmath.mpf:
        """The value at 50 significant digits."""
        with mpmath.workdps(50):
            return mpmath.power(2, mpmath.mpf(self.exponent.numerator) / self.exponent.denominator)

    def __str__(self) -> str:
        return f"2^({self.exponent.numerator}/{self.exponent.denominator})"


@dataclass(frozen=True)
class DeGiorgiConstants:
    C: Pow2
    C0: ApproxValue


def _iteration_terms(n: int, delta: Fraction, q: Fraction, C_MS: float) -> tuple[Fraction, Fraction, Fraction]:
    """(pref1, pref2, e): the two C0 prefactors and the exponent of C = 2^e,
    after checking n, q and the C_MS that scales both C0 and epsilon1.

    pref1 = (2q/(q - (n-2)/n) + 1) * 2^7, pref2 = q^3 / ((delta - q)(q - (n-2)/n)),
    e = max{(3n+2)/(n-2), 2n/(n-2) - 2/q + 1}.
    """
    if n < 3:
        raise ValueError(f"dimension n = {n} must be >= 3")
    if not Fraction(n - 2, n) < q < delta:
        raise ValueError(f"q = {q} must lie in ((n-2)/n, delta) = ({Fraction(n - 2, n)}, {delta})")
    if not 0 < C_MS < math.inf:
        raise ValueError("C_MS must be positive and finite")
    gap = q - Fraction(n - 2, n)
    exponent = max(Fraction(3 * n + 2, n - 2), Fraction(2 * n, n - 2) - 2 / q + 1)
    return (2 * q / gap + 1) * 2**7, q**3 / ((delta - q) * gap), exponent


def degiorgi_constants(n: int, delta: Rat, q: Rat, C_MS: float, R: float, dps: int = 50) -> DeGiorgiConstants:
    """The dyadic iteration constants C (exact base-2 exponent) and C0.

    C = max{2^((3n+2)/(n-2)), 2^(2n/(n-2) - 2/q + 1)}, compared exactly.
    C0 = C_MS * { pref1 * R^(-(2n-4)/n) + pref2 * 2^(2/q) * R^(-(2(n-2)/(nq) - 4/n)) }.
    """
    delta, q = Fraction(delta), Fraction(q)
    pref1, pref2, c_exponent = _iteration_terms(n, delta, q, C_MS)
    if not 1 < R < math.inf:
        raise ValueError("R must exceed 1 and be finite")
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
        return DeGiorgiConstants(C=C, C0=ApproxValue.from_mpf(c0, dps))


def epsilon1_threshold(n: int, delta: Rat, q: Rat, C_MS: float, dps: int = 50) -> mpmath.mpf:
    """Largest admissible smallness threshold, shrunk by the safety factor 1/2.

    The critical value solves eps1 * C^(n^2/2) * C_MS * bracket^(n/2) = 1 with
    bracket = pref1 + pref2 * 2^(2/q); the returned threshold is half the
    critical value, keeping the required strict inequality.
    """
    delta, q = Fraction(delta), Fraction(q)
    pref1, pref2, c_exponent = _iteration_terms(n, delta, q, C_MS)
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
        return critical / 2


# recursion_simulate's working precision (60 digits) and the |ln| at which its
# values switch from fixed digits to 10^x
_SIM_PREC = libmp.dps_to_prec(60)
_FIXED_LIMIT = libmp.from_int(50000)


def _exponent_numerators(n: int, steps: int) -> Iterator[tuple[int, int, int, int, int]]:
    """(E0, EC, ES, n'^m, k'^m) for m = 1..steps, with theta = n/(n-2) = n'/k' in lowest terms.

    E0, EC and ES are the exponents of C0, C and S1 in the recursion's T_m as
    integer numerators over k'^m: E0 = n'(k'^(m-1) + E0'),
    EC = n'((2m-1) k'^(m-1) + EC') and ES = n' ES' (primes for step m - 1,
    starting from 0, 0 and 1).  Each is already in lowest terms over k'^m:
    modulo a prime p dividing k', every recurrence reduces to multiplication
    by n', so each numerator is congruent to n'^m, which p does not divide
    because n' and k' are coprime.  So no gcd is ever taken, and the
    numerator and denominator are those of the exact rational exponent.
    n'^m and k'^m are computed in closed form, not as running products, so
    the exponent identities are checked against an independent value.
    """
    theta = Fraction(n, n - 2)
    n1, k1 = theta.numerator, theta.denominator
    e0, eC, eS, k_prev = 0, 0, 1, 1
    for m in range(1, steps + 1):
        e0 = n1 * (k_prev + e0)
        eC = n1 * ((2 * m - 1) * k_prev + eC)
        eS = n1 * eS
        k_prev = k1**m
        yield e0, eC, eS, n1**m, k_prev


@dataclass
class RecursionResult:
    log10_values: list[float]
    dominated: bool
    tends_to_zero: bool
    exponent_identity_ok: bool
    log_direct_agreement_ok: bool
    values_str: list[str]
    bounds_str: list[str]


def recursion_simulate(S1: float, C0: float, C: float, n: int, steps: int = 20) -> RecursionResult:
    """Worst-case iteration of the odd-index decay recursion, with its closed bound.

    Iterates T_m = C0^theta * C^(theta (2m-1)) * T_(m-1)^theta from T_0 = S1,
    theta = n/(n-2) (equality, the worst case), tracking the exponents of C0,
    C and S1 exactly; values are evaluated at 60 significant digits in the
    log domain from those exponents and cross-checked against a direct
    product iteration at 1e-9 relative precision.  The closed-form bound is
    (C0^(n/2) C^(n^2/2) S1)^(theta^m); domination is verified at every step.
    Values print as 10^x once |ln| reaches 5e4; a step count that takes some
    base-10 exponent x past the double range is refused with ValueError,
    which names the largest that fits.

    Exponents come from ``_exponent_numerators`` as integer numerators over
    k'^m, theta = n'/k' in lowest terms.  The geometric-sum identity for the
    C0 exponent, (n'-k') E0 = n'(n'^m - k'^m), and ES = n'^m are checked as
    integer equalities against n'^m and k'^m computed in closed form.

    Values: the 60-digit arithmetic runs on raw ``mpmath.libmp`` values at
    ``dps_to_prec(60)`` bits, rounding to nearest, through the same libmp
    calls the ``mpf`` operators, ``mpf(int)``, ``float(mpf)`` and ``nstr``
    make, so every value and string is the one ``mpf`` arithmetic gives.
    C0^theta, C^(2 theta), the logs and the tolerance are computed once per
    call; C^(theta (2m-1)) is a running product of C^(2 theta), so the
    direct iteration uses only these powers, never the log-domain values it
    is checked against.

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
    n1, k1 = theta.numerator, theta.denominator
    prec, rnd = _SIM_PREC, libmp.round_nearest
    mul, div, add, sub = libmp.mpf_mul, libmp.mpf_div, libmp.mpf_add, libmp.mpf_sub
    log, gt, absolute, from_int = libmp.mpf_log, libmp.mpf_gt, libmp.mpf_abs, libmp.from_int

    def ratio(num: int, den):
        """mpf(num) / den for an exact mpf den, rounded as the mpf operators round it."""
        return div(from_int(num, prec, rnd), den, prec, rnd)

    def log10_of(log_value) -> float:
        return libmp.to_float(div(log_value, log10, prec, rnd), rnd=rnd)

    def fmt(log_value, step: int) -> str:
        if libmp.mpf_lt(absolute(log_value, prec, rnd), _FIXED_LIMIT):
            return libmp.to_str(libmp.mpf_exp(log_value, prec, rnd), 12)
        exponent = log10_of(log_value)
        if math.isinf(exponent):
            raise ValueError(
                f"steps = {steps} is too many for these inputs: at step {step} the base-10 exponent "
                f"of the sequence or its bound leaves the double range; give at most {step - 1}"
            )
        return f"10^{exponent:.6g}"

    S1_mp, C0_mp, C_mp = (libmp.from_float(x, prec, rnd) for x in (S1, C0, C))
    logC0, logC, logS1 = log(C0_mp, prec, rnd), log(C_mp, prec, rnd), log(S1_mp, prec, rnd)
    log10 = log(from_int(10), prec, rnd)
    tol = libmp.from_str("1e-9", prec, rnd)
    one, two = from_int(1), from_int(2)
    theta_mp = ratio(n, from_int(n - 2))
    c0_theta = libmp.mpf_pow(C0_mp, theta_mp, prec, rnd)
    c_two_theta = libmp.mpf_pow(C_mp, libmp.mpf_mul_int(theta_mp, 2, prec, rnd), prec, rnd)
    c_power = libmp.mpf_pow(C_mp, theta_mp, prec, rnd)  # C^(theta (2m-1)), here at m = 1
    t_direct = S1_mp
    logP = add(
        add(mul(ratio(n, two), logC0, prec, rnd), mul(ratio(n * n, two), logC, prec, rnd), prec, rnd),
        logS1,
        prec,
        rnd,
    )
    den, k1_mp = one, from_int(k1)  # k1^m as an exact mpf
    exponent_ok = True
    dominated = True
    agreement_ok = True
    log10_values = [log10_of(logS1)]
    values_str = [fmt(logS1, 0)]
    bounds_str = [fmt(logP, 0)]
    for m, (e0, eC, eS, n_m, k_m) in enumerate(_exponent_numerators(n, steps), 1):
        # geometric-sum identity for the C0 exponent
        if (n1 - k1) * e0 != n1 * (n_m - k_m) or eS != n_m:
            exponent_ok = False
        den = mul(den, k1_mp)  # exact: no precision given
        log_t = add(
            add(mul(ratio(e0, den), logC0, prec, rnd), mul(ratio(eC, den), logC, prec, rnd), prec, rnd),
            mul(ratio(eS, den), logS1, prec, rnd),
            prec,
            rnd,
        )
        t_direct = mul(
            mul(c0_theta, c_power, prec, rnd), libmp.mpf_pow(t_direct, theta_mp, prec, rnd), prec, rnd
        )
        c_power = mul(c_power, c_two_theta, prec, rnd)
        abs_t = absolute(log_t, prec, rnd)
        scale = mul(tol, abs_t, prec, rnd) if gt(abs_t, one) else tol  # tol * max(1, |log_t|)
        if gt(absolute(sub(log(t_direct, prec, rnd), log_t, prec, rnd), prec, rnd), scale):
            agreement_ok = False
        log_bound = mul(ratio(n_m, den), logP, prec, rnd)
        if gt(log_t, add(log_bound, tol, prec, rnd)):
            dominated = False
        log10_values.append(log10_of(log_t))
        values_str.append(fmt(log_t, m))
        bounds_str.append(fmt(log_bound, m))
    tends_to_zero = libmp.mpf_lt(logP, libmp.fzero) and log10_values[-1] < log10_values[0]
    return RecursionResult(
        log10_values=log10_values,
        dominated=dominated,
        tends_to_zero=tends_to_zero,
        exponent_identity_ok=exponent_ok,
        log_direct_agreement_ok=agreement_ok,
        values_str=values_str,
        bounds_str=bounds_str,
    )
