"""Warped-bubble barrier data and the mean-curvature quadratic-form bound.

The chain's bubble coefficients are computed once, exactly, in
``optimize``'s chain: the spectral coefficient 4/(4-q) * beta/alpha with its
(n-2)/(n-3) bound, the mean-curvature coefficient
mcc = (4 beta^2 - (n-2) alpha^2) / (4 beta ((n-1) beta - (n-2) alpha)), the
largest Young parameter L_max keeping the squared-mean-curvature coefficient
nonnegative, and the bare barrier coefficient
gamma0 = 1/q - (1/L_max)|1/2 - 1/q|.  From the chain's epsilon and gamma0
this module derives, exactly:

* gamma0 under both conventions in circulation (the bare bracket and the same
  bracket multiplied by beta/alpha), both carried through the whole
  downstream chain in parallel,
* the barrier amplitudes x0 = sqrt(eps/(2 alpha gamma0)) and
  y0 = (1/(2 beta)) sqrt(alpha eps gamma0 / 2) as exact surds, whose defining
  identities x0 y0 = eps/(4 beta) and y0/x0 = alpha gamma0/(2 beta) hold for
  every positive input and are proved by the tests, not checked per run,
* area/volume growth constants (approximate fields: pi, exp and unit-ball
  measures are irrational; computed at ``rational.DPS`` = 50 significant
  digits, reported at 12, and never used in pass/fail checks).

The quadratic-form bound with the chain's mcc is proved by one exact
identity and also sampled on random rational points, compared in
cleared-denominator integers.  ``stabcert.certify`` assembles these
derivations into certificates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import libmp

from .certificate import ApproxValue, CertCheck
from .curvature import ParamSet
from .rational import DPS, QuadSurd, clear_denominators


# Every (numerator, denominator) in [-200, 200] x [1, 19] once: the grid mu1 and H are drawn from.
_QUAD_DRAWS = tuple((num, den) for num in range(-200, 201) for den in range(1, 20))


def quadform_lower_bound_check(
    n: int, alpha: Fraction, beta: Fraction, K: Fraction, sample_count: int, seed: int
) -> list[CertCheck]:
    """Exact sampling of the trace-free quadratic-form bound plus its exact proof.

    For random rational (mu1, H):
        A*mu1^2 + B*H*mu1 + C*H^2 >= K * H^2
    with A = (n-1)/(n-2) - alpha/beta, B = (n-3)alpha/((n-1)beta),
    C = (1/(n-1)) (1 + (alpha/beta)(n-2)/(n-1)) and K the chain's
    mean-curvature coefficient mcc (``optimize.exact_chain``).  A, B, C and
    K are brought to one positive common denominator.  Each sample is one
    uniform draw, made as ``curvature_sample_check`` makes it, whose low
    and high base-len(_QUAD_DRAWS) digits pick mu1 = m/dm and H = h/dh; it
    is compared in integers, multiplied by dm^2 dh^2.

    The exact check proves the bound for all real (mu1, H), and its sharpness:
    A > 0 and 4AC - B^2 = 4AK make the form minus K*H^2 equal to
    A*(mu1 + B*H/(2A))^2.  The sampler stays as an independent oracle.
    """
    A = Fraction(n - 1, n - 2) - alpha / beta
    B = Fraction(n - 3) * alpha / ((n - 1) * beta)
    C = Fraction(1, n - 1) * (1 + alpha / beta * Fraction(n - 2, n - 1))
    A, B, C, K = clear_denominators(A, B, C, K)
    getrandbits = random.Random(seed).getrandbits
    draws = _QUAD_DRAWS
    base = len(draws)
    span = base * base
    bits = span.bit_length()
    violations = 0
    witness = ""
    for _ in range(sample_count):
        r = getrandbits(bits)
        while r >= span:
            r = getrandbits(bits)
        high, low = divmod(r, base)
        m, dm = draws[low]
        h, dh = draws[high]
        x, y = m * dh, h * dm  # mu1 and H times dm * dh
        if A * x * x + B * y * x + C * y * y < K * y * y:
            violations += 1
            if not witness:
                witness = f"mu1={Fraction(m, dm)}, H={Fraction(h, dh)}"
    return [
        CertCheck.sampled("quadform_lower_bound", sample_count, violations, seed, witness),
        CertCheck.of(
            "quadform_bound_tight_at_vertex",
            A > 0 and 4 * A * C - B * B == 4 * A * K,
            detail="A > 0 and 4AC - B^2 = 4AK: the form minus K*H^2 is A*(mu1 + B*H/(2A))^2",
        ),
    ]


def x0_y0(alpha: Fraction, beta: Fraction, epsilon: Fraction, gamma0_value: Fraction) -> tuple[QuadSurd, QuadSurd]:
    """Barrier amplitudes x0 = sqrt(eps/(2 alpha g0)), y0 = (1/(2 beta)) sqrt(alpha eps g0 / 2).

    epsilon and gamma0 must be positive, as a passing chain makes them.
    """
    x0 = QuadSurd.make(Fraction(1), epsilon / (2 * alpha * gamma0_value))
    y0 = QuadSurd.make(1 / (2 * beta), alpha * epsilon * gamma0_value / 2)
    return x0, y0


def barrier_ode_check(x0: QuadSurd, y0: QuadSurd, sample_count: int) -> list[CertCheck]:
    """Finite-difference residual of -eta' = x0*y0 + (y0/x0)*eta^2, at ``DPS`` digits.

    eta(t) = -x0 * tan(y0*t - pi/2) on (0, pi/y0), x0 and y0 positive, as
    ``x0_y0`` makes them from a passing chain.  The sample points t_i divide
    [pi/(1000 y0), 999 pi/(1000 y0)] into sample_count + 1 equal parts.  At
    each, with T = tan(y0*t - pi/2) and the central-difference step
    h = 10^-6 / (y0 (1 + |eta(t)|/x0)), shrunk where tan is steep, the check
    takes the residual eta'(t) + x0*y0 + (y0/x0)*eta(t)^2, eta' the central
    difference (eta(t + h) - eta(t - h)) / (2h), relative to 1 + eta(t)^2.
    Its worst over the points must be at most tol =
    ``certificate.APPROXIMATE_TOLERANCE``; the check records it to 6 digits.
    It is approximate, but a breach fails it like any other check.

    eta(t + h) and eta(t - h) come from one more tangent, V = tan(y0*h), by
    the addition formula: eta(t +- h) = -x0 (T +- V) / (1 -+ T V).  As
    |eta(t)|/x0 = |T|, y0*h = 10^-6 / (1 + |T|), so |T V| < 10^-6 and neither
    1 - T V nor 1 + T V cancels.  The dozen set-up values are ``mpf``s; the
    loop runs on raw ``mpmath.libmp`` values at ``dps_to_prec(DPS)`` bits,
    rounding to nearest, through the libmp calls the ``mpf`` operators make.
    """
    with mpmath.workdps(DPS):
        x0v, y0v = x0.approx_mp(), y0.approx_mp()
        period = mpmath.pi / y0v
        lo = period / 1000
        span = (period - lo) - lo
        setup = lo, span, mpmath.pi / 2, -x0v, x0v, y0v, x0v * y0v, y0v / x0v, mpmath.mpf("1e-6") / y0v
    lo, span, half_pi, neg_x0, x0v, y0v, product, ratio, step = (v._mpf_ for v in setup)
    prec, rnd = libmp.dps_to_prec(DPS), libmp.round_nearest
    add, sub, mul, div, tan = libmp.mpf_add, libmp.mpf_sub, libmp.mpf_mul, libmp.mpf_div, libmp.mpf_tan
    mpf_abs, one = libmp.mpf_abs, libmp.fone
    parts = libmp.from_int(sample_count + 1)
    worst = libmp.fzero
    for i in range(1, sample_count + 1):
        t = add(lo, div(libmp.mpf_mul_int(span, i, prec, rnd), parts, prec, rnd), prec, rnd)
        T = tan(sub(mul(y0v, t, prec, rnd), half_pi, prec, rnd), prec, rnd)
        e = mul(neg_x0, T, prec, rnd)
        h = div(step, add(one, div(mpf_abs(e), x0v, prec, rnd), prec, rnd), prec, rnd)
        V = tan(mul(y0v, h, prec, rnd), prec, rnd)
        TV = mul(T, V, prec, rnd)
        ahead = div(mul(neg_x0, add(T, V, prec, rnd), prec, rnd), sub(one, TV, prec, rnd), prec, rnd)
        behind = div(mul(neg_x0, sub(T, V, prec, rnd), prec, rnd), add(one, TV, prec, rnd), prec, rnd)
        deriv = div(sub(ahead, behind, prec, rnd), libmp.mpf_shift(h, 1), prec, rnd)
        residual = add(add(deriv, product, prec, rnd), mul(mul(ratio, e, prec, rnd), e, prec, rnd), prec, rnd)
        relative = div(mpf_abs(residual), add(one, mul(e, e, prec, rnd), prec, rnd), prec, rnd)
        if libmp.mpf_gt(relative, worst):
            worst = relative
    return [CertCheck.approximate("barrier_ode_residual", sample_count, mpmath.mp.make_mpf(worst))]


def growth_constants(n: int, alpha: Fraction, epsilon: Fraction, y0: QuadSurd) -> tuple[ApproxValue, ApproxValue]:
    """Area and volume growth constants (approximate, flagged), reported at 12 digits.

    area  = ((n-2) alpha / eps)^((n-1)/2) * Area(S^(n-1))
    Lambda = ((n-2) alpha / eps)^(n/2) * Vol(B^n) * (2 exp(3 pi / y0))^n
    """
    base = (n - 2) * alpha / epsilon
    with mpmath.workdps(DPS):
        base_mp = mpmath.mpf(base.numerator) / base.denominator
        sphere_area = 2 * mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2)
        ball_vol = mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2 + 1)
        y0v = y0.approx_mp()
        area = base_mp ** (mpmath.mpf(n - 1) / 2) * sphere_area
        volume = base_mp ** (mpmath.mpf(n) / 2) * ball_vol * (2 * mpmath.exp(3 * mpmath.pi / y0v)) ** n
        return ApproxValue.from_mpf(area), ApproxValue.from_mpf(volume)


@dataclass(frozen=True)
class BarrierBranch:
    """The downstream chain under one gamma0 convention."""

    convention: str  # "bare" | "with_ratio"
    gamma0: Fraction
    x0: QuadSurd
    y0: QuadSurd
    area_const: ApproxValue
    volume_const: ApproxValue


def derive(params: ParamSet, epsilon: Fraction, gamma0_bare: Fraction) -> tuple[BarrierBranch, BarrierBranch]:
    """Both barrier branches from the chain's epsilon and gamma0: bare, then with_ratio = bare * beta/alpha."""
    n, alpha, beta = params.n, params.alpha, params.beta
    branches = []
    for convention, g in (("bare", gamma0_bare), ("with_ratio", gamma0_bare * beta / alpha)):
        x0, y0 = x0_y0(alpha, beta, epsilon, g)
        area, volume = growth_constants(n, alpha, epsilon, y0)
        branches.append(BarrierBranch(convention, g, x0, y0, area, volume))
    return tuple(branches)
