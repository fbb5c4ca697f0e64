"""Level-set iteration machinery: admissible exponents and decay constants.

Covers the exact pieces of the weighted-test-function iteration:

* the Caccioppoli positivity coefficient (2k + 1/n - 1/2 - 1/s) delta/k^2 - 2
  and the resulting constants C1, C2 (C2 = (p^2 C1 / 4)^(p/2), p = 4k + 2),
* the critical threshold delta_c = n(n-2)/(4(n-1)), where the upper endpoint
  delta + sqrt(delta(delta - (n-2)/n)) of the admissible 2k values collapses
  to the rational (n-2)/2 and the exponent p reaches n (the collapse, and p > n
  above delta_c, hold for every n and are proved by the tests),
* delta1(n) = max{delta0(n), delta_c},
* the dyadic iteration constants C (an exact power of 2 with rational
  exponent, compared via exponents, never floating logs) and C0, the
  smallness threshold epsilon1, and the worst-case decay recursion, whose
  verdicts are exact, from the closed form of its bound, and whose step table
  shows values from exact integer exponent numerators over k'^m (theta =
  n/(n-2) = n'/k' in lowest terms) as raw ``mpmath.libmp`` numbers.

Every approximate value here (C0, epsilon1, the step table) is computed at
``rational.DPS`` = 50 significant digits.

The Sobolev-type constant C_MS has no closed-form value here; it is a
configuration input whose placeholder default 1 is non-physical.  delta1 is
computed here and compared with its published value by ``verify-all``.
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
from .rational import DPS


def caccioppoli_coefficient(n: int, delta: Fraction, k: Fraction, s: Fraction) -> Fraction:
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


def caccioppoli_constants(n: int, delta: Fraction, k: Fraction, s: Fraction, s1: Fraction) -> CaccioppoliConstants:
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
        """The value at ``DPS`` significant digits."""
        with mpmath.workdps(DPS):
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


def _c0_bracket(n: int, q: Fraction, pref1: Fraction, pref2: Fraction, R: float) -> mpmath.mpf:
    """C0 / C_MS = pref1 * R^(-(2n-4)/n) + pref2 * 2^(2/q) * R^(-(2(n-2)/(nq) - 4/n)),
    in the caller's mpmath precision; at R = 1, exactly pref1 + pref2 * 2^(2/q)."""
    rexp1 = Fraction(2 * n - 4, n)
    rexp2 = Fraction(2 * (n - 2), 1) / (n * q) - Fraction(4, n)
    Rmp = mpmath.mpf(R)
    term1 = mpmath.mpf(pref1.numerator) / pref1.denominator * Rmp ** (
        -mpmath.mpf(rexp1.numerator) / rexp1.denominator
    )
    two_pow = mpmath.power(2, mpmath.mpf(2) / (mpmath.mpf(q.numerator) / q.denominator))
    term2 = mpmath.mpf(pref2.numerator) / pref2.denominator * two_pow * Rmp ** (
        -mpmath.mpf(rexp2.numerator) / rexp2.denominator
    )
    return term1 + term2


def degiorgi_constants(n: int, delta: Fraction, q: Fraction, C_MS: float, R: float) -> DeGiorgiConstants:
    """The dyadic iteration constants C (exact base-2 exponent) and C0.

    C = max{2^((3n+2)/(n-2)), 2^(2n/(n-2) - 2/q + 1)}, compared exactly.
    C0 = C_MS * { pref1 * R^(-(2n-4)/n) + pref2 * 2^(2/q) * R^(-(2(n-2)/(nq) - 4/n)) }.
    """
    delta, q = Fraction(delta), Fraction(q)
    pref1, pref2, c_exponent = _iteration_terms(n, delta, q, C_MS)
    if not 1 < R < math.inf:
        raise ValueError("R must exceed 1 and be finite")
    with mpmath.workdps(DPS):
        c0 = mpmath.mpf(C_MS) * _c0_bracket(n, q, pref1, pref2, R)
        return DeGiorgiConstants(C=Pow2(c_exponent), C0=ApproxValue.from_mpf(c0))


def epsilon1_threshold(n: int, delta: Fraction, q: Fraction, C_MS: float) -> mpmath.mpf:
    """Largest admissible smallness threshold, shrunk by the safety factor 1/2.

    The critical value solves eps1 * C^(n^2/2) * C_MS * bracket^(n/2) = 1 with
    bracket = pref1 + pref2 * 2^(2/q), ``_c0_bracket`` at R = 1; the returned
    threshold is half the critical value, keeping the required strict
    inequality.

    eps1 scales as C_MS^-1 and ignores R (bracket is C0/C_MS at R = 1).  The
    decay condition at S1 = eps1, C0^(n/2) C^(n^2/2) eps1 < 1, scales as
    C0^(n/2), C0 proportional to C_MS and depending on R: it reads
    C_MS^(n/2 - 1) (C0/(C_MS bracket))^(n/2) < 2.  It holds at the defaults
    C_MS = 1, R = 100 (n = 3, 4, 5), not at C_MS = 10, R = 1.001, nor at R = 1e6 for n = 3.
    """
    delta, q = Fraction(delta), Fraction(q)
    pref1, pref2, c_exponent = _iteration_terms(n, delta, q, C_MS)
    c_exp = c_exponent * Fraction(n * n, 2)
    with mpmath.workdps(DPS):
        bracket = _c0_bracket(n, q, pref1, pref2, 1)
        c_power = mpmath.power(2, mpmath.mpf(c_exp.numerator) / c_exp.denominator)
        critical = 1 / (c_power * mpmath.mpf(C_MS) * bracket ** (mpmath.mpf(n) / 2))
        return critical / 2


# recursion_simulate's working precision (DPS digits) and the |ln| at which its
# values switch from fixed digits to 10^x
_SIM_PREC = libmp.dps_to_prec(DPS)
_FIXED_LIMIT = libmp.from_int(50000)


def _exponent_numerators(n: int, steps: int) -> Iterator[tuple[int, int, int, int]]:
    """(E0, EC, ES, k'^m) for m = 1..steps, with theta = n/(n-2) = n'/k' in lowest terms.

    E0, EC and ES are the exponents of C0, C and S1 in the recursion's T_m as
    integer numerators over k'^m: E0 = n'(k'^(m-1) + E0'),
    EC = n'((2m-1) k'^(m-1) + EC') and ES = n' ES' (primes for step m - 1,
    starting from 0, 0 and 1).  Each is already in lowest terms over k'^m:
    modulo a prime p dividing k', every recurrence reduces to multiplication
    by n', so each numerator is congruent to n'^m, which p does not divide
    because n' and k' are coprime.  So no gcd is ever taken, and the
    numerator and denominator are those of the exact rational exponent.

    ES = n'^m, and E0/k'^m = theta (theta^m - 1)/(theta - 1) = (n/2)(theta^m - 1),
    the geometric sum, because theta/(theta - 1) = n/2.
    """
    theta = Fraction(n, n - 2)
    n1, k1 = theta.numerator, theta.denominator
    e0, eC, eS, k_prev = 0, 0, 1, 1
    for m in range(1, steps + 1):
        e0 = n1 * (k_prev + e0)
        eC = n1 * ((2 * m - 1) * k_prev + eC)
        eS = n1 * eS
        k_prev = k1**m
        yield e0, eC, eS, k_prev


def _log_sign(*terms: tuple[float, int]) -> int:
    """The exact sign (-1, 0 or 1) of e1 ln x1 + e2 ln x2 + ..., positive floats x, positive integers e.

    Each float is m 2^k, m odd.  When every m is 1 the sum is (e1 k1 + ...) ln 2,
    signed as the integer.  Otherwise the product of the x^e is an odd integer
    > 1 times a power of two, never 1, so libmp intervals at doubling precision
    exclude 0 after rounds that grow with how close that product is to 1.
    """
    values = [(libmp.from_float(x), e) for x, e in terms]  # exact: (sign, odd mantissa, exponent, bits)
    if all(value[1] == 1 for value, _ in values):
        total = sum(e * value[2] for value, e in values)
        return (total > 0) - (total < 0)
    prec = 64
    while True:
        total = (libmp.fzero, libmp.fzero)
        for value, e in values:
            term = libmp.mpi_mul(libmp.mpi_log((value, value), prec), (libmp.from_int(e),) * 2, prec)
            total = libmp.mpi_add(total, term, prec)
        low, high = (libmp.mpf_sign(bound) for bound in total)
        if low > 0 or high < 0:
            return low or high
        prec *= 2


@dataclass
class RecursionResult:
    dominated: bool
    tends_to_zero: bool
    values_str: list[str]
    bounds_str: list[str]


def recursion_simulate(S1: float, C0: float, C: float, n: int, steps: int) -> RecursionResult:
    """Worst-case iteration of the odd-index decay recursion, with its closed bound.

    T_m = C0^theta * C^(theta (2m-1)) * T_(m-1)^theta from T_0 = S1,
    theta = n/(n-2) (equality, the worst case), has the closed-form bound
    bound_m = P^(theta^m), P = C0^(n/2) C^(n^2/2) S1.  With the exponents of
    ``_exponent_numerators``, log bound_m - log T_m = (n/2) ln C0 + r_m ln C,
    where r_m = (n^2/2) theta^m - EC/k'^m rises strictly and without bound
    from r_1 = theta (n^2 - 2)/2.  So ``_log_sign`` decides both verdicts
    exactly, for every m >= 1, not only the steps shown: ``dominated``
    (T_m <= bound_m) exactly when C >= 1 and C0^(n-2) C^(n^2-2) >= 1, and
    ``tends_to_zero`` (bound_m -> 0) exactly when C0^n C^(n^2) S1^2 < 1.

    The step table (m = 0..steps) is display only: log-domain values from the
    exact exponents on raw ``mpmath.libmp`` values at ``dps_to_prec(DPS)``
    bits, rounding to nearest, through the libmp calls the ``mpf`` operators,
    ``mpf(int)``, ``float(mpf)`` and ``nstr`` make, so every string is the
    one ``mpf`` arithmetic gives.  Values print as 10^x once |ln| reaches 5e4;
    a step count that takes some base-10 exponent x past the double range is
    refused with ValueError, which names the largest that fits.

    The dyadic level/radius ladder behind the recursion enters only through
    the constants C0 and C; the ladder itself is not simulated.
    """
    if not all(0 < x < math.inf for x in (S1, C0, C)):
        raise ValueError("all recursion inputs must be positive and finite")
    if n < 3:
        raise ValueError(f"dimension n = {n} must be >= 3")
    if steps < 1:
        raise ValueError(f"steps = {steps} must be >= 1")
    dominated = C >= 1 and _log_sign((C0, n - 2), (C, n * n - 2)) >= 0
    tends_to_zero = _log_sign((C0, n), (C, n * n), (S1, 2)) < 0
    prec, rnd = _SIM_PREC, libmp.round_nearest
    mul, div, add, log, from_int = libmp.mpf_mul, libmp.mpf_div, libmp.mpf_add, libmp.mpf_log, libmp.from_int

    def ratio(num: int, den):
        """mpf(num) / den for an exact mpf den, rounded as the mpf operators round it."""
        return div(from_int(num, prec, rnd), den, prec, rnd)

    def fmt(log_value, step: int) -> str:
        if libmp.mpf_lt(libmp.mpf_abs(log_value, prec, rnd), _FIXED_LIMIT):
            return libmp.to_str(libmp.mpf_exp(log_value, prec, rnd), 12)
        exponent = libmp.to_float(div(log_value, log10, prec, rnd), rnd=rnd)
        if math.isinf(exponent):
            raise ValueError(
                f"steps = {steps} is too many for these inputs: at step {step} the base-10 exponent "
                f"of the sequence or its bound leaves the double range; give at most {step - 1}"
            )
        return f"10^{exponent:.6g}"

    logC0, logC, logS1 = (log(libmp.from_float(x, prec, rnd), prec, rnd) for x in (C0, C, S1))
    log10, one, two = log(from_int(10), prec, rnd), from_int(1), from_int(2)

    def weighted(w0, wC, wS):
        """w0 ln C0 + wC ln C + wS ln S1, summed as the mpf operators sum it."""
        head = add(mul(w0, logC0, prec, rnd), mul(wC, logC, prec, rnd), prec, rnd)
        return add(head, mul(wS, logS1, prec, rnd), prec, rnd)

    logP = weighted(ratio(n, two), ratio(n * n, two), one)  # 1 * ln S1 is exact
    den, k1_mp = one, from_int(Fraction(n, n - 2).denominator)  # k1^m as an exact mpf
    values_str = [fmt(logS1, 0)]
    bounds_str = [fmt(logP, 0)]
    for m, (e0, eC, eS, _) in enumerate(_exponent_numerators(n, steps), 1):
        den = mul(den, k1_mp)  # exact: no precision given
        theta_m = ratio(eS, den)  # ES = n'^m
        values_str.append(fmt(weighted(ratio(e0, den), ratio(eC, den), theta_m), m))
        bounds_str.append(fmt(mul(theta_m, logP, prec, rnd), m))
    return RecursionResult(dominated=dominated, tends_to_zero=tends_to_zero, values_str=values_str,
                           bounds_str=bounds_str)
