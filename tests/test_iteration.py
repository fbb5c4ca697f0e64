import math
import random
from fractions import Fraction as F

import mpmath
import pytest
from recursion_oracle import recursion_simulate as oracle_simulate

from stabcert.config import RunConfig
from stabcert.iteration import (
    CaccioppoliConstants,
    NoCaccioppoliConstantError,
    _exponent_numerators,
    _iteration_terms,
    _log_sign,
    caccioppoli_coefficient,
    caccioppoli_constants,
    collapse_sqrt,
    critical_delta_exponent,
    critical_delta_threshold,
    degiorgi_constants,
    delta1_of,
    epsilon1_threshold,
    recursion_simulate,
)


def caccioppoli_coefficient_limit(n, delta, k):
    """The s -> infinity limit (2k + 1/n - 1/2) * delta / k^2 - 2 of the Caccioppoli coefficient.

    Taken as the coefficient at s = 1 plus its 1/s term delta/k^2.  Strictly
    positive exactly when 2k lies strictly inside the admissible interval
    delta -+ sqrt(delta(delta - (n-2)/n)), zero at its endpoints, negative
    outside.
    """
    return caccioppoli_coefficient(n, delta, k, F(1)) + delta / (k * k)


class TestCaccioppoliCoefficient:
    def test_zero_at_rational_endpoint(self):
        # delta = delta_c(3) = 3/8 has rational endpoints 3/8 -+ 1/8 = {1/4, 1/2}
        assert caccioppoli_coefficient_limit(3, F(3, 8), F(1, 2) / 2) == 0
        assert caccioppoli_coefficient_limit(3, F(3, 8), F(1, 4) / 2) == 0

    def test_small_s_negative(self):
        assert caccioppoli_coefficient(3, F(1, 100), F(5), F(1)) < 0

    def test_midpoint_substitution(self):
        # at 2k = delta the limit coefficient is 2 - 2(n-2)/(n delta)
        for n in (3, 4, 5):
            delta = F(9, 10)
            got = caccioppoli_coefficient_limit(n, delta, delta / 2)
            assert got == 2 - 2 * F(n - 2, n) / delta


class TestCaccioppoliConstants:
    def test_frozen_example(self):
        res = caccioppoli_constants(3, F(1), F(1, 2), F(100), F(100))
        assert caccioppoli_coefficient(3, F(1), F(1, 2), F(100)) == F(97, 75)
        assert res.both_branches_positive
        # the sign-drop branch gives 7747/97 (coefficient 97/75), the
        # Young-absorb branch 50500/197 (coefficient 197/303); C1 is the larger
        assert res.c1 == F(50500, 197) > F(7747, 97)
        assert res.p == 4  # exceeds n = 3
        assert res.c2 == (4 * F(50500, 197)) ** 2

    def test_constant_grows_near_positivity_boundary(self):
        # delta = 3/8 has rational interval endpoints {1/8, 5/8}; pushing 2k
        # toward the upper endpoint drives the coefficient to 0+ and C1 up
        s = s1 = F(10**6)
        mid = caccioppoli_constants(3, F(3, 8), F(3, 16), s, s1)
        k_near = (F(1, 2) - F(1, 1000)) / 2
        near = caccioppoli_constants(3, F(3, 8), k_near, s, s1)
        assert caccioppoli_coefficient(3, F(3, 8), k_near, s) > 0
        assert near.c1 > mid.c1 > 0

    def test_both_branches_nonpositive_rejected(self):
        with pytest.raises(NoCaccioppoliConstantError):
            caccioppoli_constants(3, F(1), F(50), F(100), F(100))

    def test_odd_exponent_has_no_c2(self):
        res = caccioppoli_constants(3, F(1), F(1, 4), F(100), F(100))
        assert res.p == 3
        assert res.c2 is None


class TestCriticalExponent:
    def test_collapse_table(self):
        for n in range(3, 13):
            assert collapse_sqrt(n) == F((n - 2) ** 2, 4 * (n - 1))

    def test_boundary_gives_p_equal_n(self):
        for n in range(3, 13):
            dc = critical_delta_threshold(n)
            boundary_two_k = dc + collapse_sqrt(n)
            assert boundary_two_k == F(n - 2, 2)
            assert 2 * boundary_two_k + 2 == n

    def test_examples(self):
        # note sqrt((3/8)(3/8 - 1/3)) = sqrt(1/64) = 1/8; boundary 2k = 3/8 + 1/8 = 1/2
        assert critical_delta_threshold(3) == F(3, 8) and collapse_sqrt(3) == F(1, 8)
        assert critical_delta_threshold(4) == F(2, 3) and collapse_sqrt(4) == F(1, 3)
        assert critical_delta_threshold(5) == F(15, 16) and collapse_sqrt(5) == F(9, 16)

    def test_p_exceeds_n_above_threshold(self):
        for n in (3, 4, 5):
            assert critical_delta_exponent(n, critical_delta_threshold(n) + F(1, 1000))

    def test_at_or_below_threshold_rejected(self):
        with pytest.raises(ValueError):
            critical_delta_exponent(3, F(3, 8))

    @pytest.mark.parametrize("n", range(3, 41))
    def test_exponent_verdict_matches_a_100_digit_oracle(self, n):
        # p > n exactly when 2 sqrt(s(s - (n-2)/n)) - (n - 2 - 2s) > 0, s midway
        # between delta_c and delta, evaluated in mpmath from the exact inputs;
        # delta up to 2n makes n - 2 - 2s negative as well as positive
        dc = F(n * (n - 2), 4 * (n - 1))
        deltas = [dc + F(1, 10**k) for k in range(1, 16)] + [dc + 1, F(n), F(2 * n)]
        signs = set()
        with mpmath.workdps(100):
            for delta in deltas:
                s = (mpmath.mpf(dc.numerator) / dc.denominator + mpmath.mpf(delta.numerator) / delta.denominator) / 2
                y = n - 2 - 2 * s
                margin = 2 * mpmath.sqrt(s * (s - mpmath.mpf(n - 2) / n)) - y
                assert abs(margin) > mpmath.mpf(10) ** -40, (delta, margin)
                assert critical_delta_exponent(n, delta) == (margin > 0), delta
                signs.add(y > 0)
        assert signs == {False, True}


def test_delta1_table():
    assert delta1_of(3) == F(3, 8)
    assert delta1_of(4) == F(2, 3)
    assert delta1_of(5) == F(21, 22)
    with pytest.raises(ValueError):
        delta1_of(6)


class TestDeGiorgi:
    def test_exponent_example(self):
        res = degiorgi_constants(3, F(1), F(1, 2), 1.0, 100.0)
        assert res.C.exponent == 11  # max{11, 6 - 4 + 1 = 3}
        assert _iteration_terms(3, F(1), F(1, 2), 1.0) == (896, F(3, 2), 11)
        # q = (n-2)/2 exactly, so the second R exponent 2(n-2)/(nq) - 4/n is 0
        # C0 = C_MS (896 R^(-2/3) + 3/2 * 2^4)
        expected = 896 * 100.0 ** (-2 / 3) + 24
        assert float(mpmath.mpf(res.C0.value)) == pytest.approx(expected, rel=1e-9)

    def test_r_growth_decreases_c0(self):
        a = degiorgi_constants(3, F(1), F(45, 100), 1.0, 100.0)
        b = degiorgi_constants(3, F(1), F(45, 100), 1.0, 200.0)
        assert mpmath.mpf(b.C0.value) < mpmath.mpf(a.C0.value)

    def test_q_window_enforced(self):
        with pytest.raises(ValueError):
            degiorgi_constants(3, F(1), F(1, 3), 1.0, 10.0)  # q = (n-2)/n
        with pytest.raises(ValueError):
            degiorgi_constants(3, F(1), F(1), 1.0, 10.0)  # q = delta
        with pytest.raises(ValueError):
            degiorgi_constants(3, F(1), F(1, 2), 1.0, 0.5)  # R <= 1


class TestEpsilon1:
    def test_direct_substitution_oracle(self):
        got = epsilon1_threshold(3, F(1), F(1, 2), 1.0)
        with mpmath.workdps(50):
            bracket = 896 + F(3, 2) * 2**4
            critical = 1 / (mpmath.power(2, mpmath.mpf(99) / 2) * mpmath.mpf(int(bracket)) ** mpmath.mpf(1.5))
            assert abs(got - critical / 2) / (critical / 2) < 1e-30

    def test_positive_and_decreasing_in_cms(self):
        lo = epsilon1_threshold(3, F(1), F(1, 2), 1.0)
        hi = epsilon1_threshold(3, F(1), F(1, 2), 10.0)
        assert lo > 0 and hi > 0 and hi < lo

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_decays_from_epsilon1_at_the_defaults(self, n):
        # S1 = eps1 at C_MS = 1, R = 100, as verify-all computes them; away from
        # these defaults eps1 and the decay condition part (see the docstring)
        cfg, q = RunConfig(), (F(n - 2, n) + 1) / 2
        assert (cfg.c_ms, cfg.radius) == (1.0, 100.0)
        dg = degiorgi_constants(n, F(1), q, cfg.c_ms, cfg.radius)
        eps1 = float(epsilon1_threshold(n, F(1), q, cfg.c_ms))
        assert recursion_simulate(eps1, float(dg.C0.value), float(dg.C.approx_mp()), n, steps=1).tends_to_zero

    def test_vanishes_at_delta_pole(self):
        # approach q -> delta- while staying in the same C regime
        values = [epsilon1_threshold(3, F(1), q, 1.0) for q in (F(9, 10), F(99, 100), F(999, 1000), F(9999, 10000))]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < values[0] / 100


class TestRecursionSimulator:
    def test_all_ones_bound(self):
        res = recursion_simulate(0.5, 1.0, 1.0, 3, steps=6)
        assert res.dominated and res.tends_to_zero
        # bound is (1/2)^(3^l) and the sequence achieves it exactly
        assert [float(v) for v in res.values_str] == pytest.approx([0.5 ** 3**m for m in range(7)], rel=1e-9)
        assert res.values_str == res.bounds_str
        assert res.values_str[:3] == ["0.5", "0.125", "0.001953125"]

    def test_fixed_point_product_one(self):
        res = recursion_simulate(1.0, 1.0, 1.0, 3, steps=5)
        assert res.values_str == res.bounds_str == ["1.0"] * 6
        assert not res.tends_to_zero

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            recursion_simulate(0.0, 1.0, 1.0, 3)

    def test_refuses_exponents_past_the_double_range(self):
        # the base-10 exponents of the sequence and its bound fit a double up to step 644
        res = recursion_simulate(1e-5, 1.0, 2.0, 3, steps=644)
        assert (res.values_str[-1], res.bounds_str[-1]) == ("10^-7.56039e+307", "10^-6.72712e+307")
        assert not any("inf" in row for row in res.values_str + res.bounds_str)
        with pytest.raises(ValueError, match="at step 645 .* give at most 644"):
            recursion_simulate(1e-5, 1.0, 2.0, 3, steps=645)

    def test_divergence_reported_honestly(self):
        res = recursion_simulate(10.0, 1.0, 1.0, 3, steps=4)
        assert not res.tends_to_zero
        assert res.dominated  # bound still valid, it just grows

    @pytest.mark.parametrize("n", range(3, 7))
    def test_equality_counts_as_dominated(self, n):
        # C0^(n-2) C^(n^2-2) = 1 exactly: log bound_1 - log T_1 = 0, and it only grows after
        tie = (2.0 ** -(n * n - 2), 2.0 ** (n - 2))
        assert recursion_simulate(0.5, *tie, n, steps=3).dominated
        assert not recursion_simulate(0.5, tie[0] / 2, tie[1], n, steps=3).dominated
        # C0^n C^(n^2) S1^2 = 1 exactly: the bound is 1 at every step
        res = recursion_simulate(2.0 ** -(n * n), 1.0, 4.0, n, steps=3)
        assert set(res.bounds_str) == {"1.0"} and not res.tends_to_zero
        assert recursion_simulate(2.0 ** -(n * n + 1), 1.0, 4.0, n, steps=3).tends_to_zero


# n = 8 with C < 1: the sequence stays below its bound up to step 24 and breaks
# it at step 25, so the former 20-step verdict called both dominated
BREAK_AFTER_STEP_20 = [(1e-3, 2971.0, 0.99346, 8), (1e-3, 1.276, 0.9998, 8)]


@pytest.mark.parametrize("args", BREAK_AFTER_STEP_20)
def test_verdict_covers_steps_past_those_shown(args):
    assert not recursion_simulate(*args, 1).dominated
    assert oracle_simulate(*args, 24).dominated and not oracle_simulate(*args, 25).dominated
    assert not oracle_simulate(*args, 40).dominated


@pytest.mark.parametrize("n", range(3, 41))
def test_closed_form_of_the_bound_gap(n):
    """log bound_m - log T_m = (n/2) ln C0 + r_m ln C, with r_m rising strictly
    from theta (n^2 - 2)/2: the exponents of C0 differ by n/2 at every step."""
    theta = F(n, n - 2)
    r_prev = None
    for m, (n0, nC, nS, k_m) in enumerate(_exponent_numerators(n, 60), 1):
        assert F(nS, k_m) == theta**m and n * theta**m / 2 - F(n0, k_m) == F(n, 2)
        r = n * n * theta**m / 2 - F(nC, k_m)
        assert r > r_prev if r_prev is not None else r == theta * (n * n - 2) / 2
        r_prev = r
    if n == 4:
        rs = [8 * F(nS, k_m) - F(nC, k_m) for _, nC, nS, k_m in _exponent_numerators(4, 20)]
        assert rs == [2 ** (m + 1) + 4 * m + 6 for m in range(1, 21)]


def exact_sign(terms):
    product = math.prod(F(x) ** e for x, e in terms)
    return (product > 1) - (product < 1)


@pytest.mark.parametrize("n", range(3, 13))
def test_log_sign_matches_fraction_powers(n):
    rng = random.Random(n)
    for _ in range(60):
        c0, c, s1 = 10 ** rng.uniform(-4, 4), 10 ** rng.uniform(-0.01, 0.3), 10 ** rng.uniform(-40, 0)
        for terms in (((c0, n - 2), (c, n * n - 2)), ((c0, n), (c, n * n), (s1, 2))):
            assert _log_sign(*terms) == exact_sign(terms), terms


@pytest.mark.parametrize("n", range(3, 13))
def test_log_sign_on_powers_of_two(n):
    for shift in (-1, 0, 1):  # a tie, and one step to either side of it
        terms = ((2.0 ** (-(n * n - 2) + shift), n - 2), (2.0 ** (n - 2), n * n - 2))
        assert _log_sign(*terms) == exact_sign(terms) == (shift > 0) - (shift < 0)


def test_log_sign_at_a_million_dimensions():
    # C0 = exp(-(n^2-2) ln C/(n-2)) to double precision: the two terms, about
    # 0.9 each, cancel to about -3e-11, and C^(n^2-2) alone has 10^12 factors
    n, c = 10**6, 1 + 2.0**-40
    c0 = math.exp(-(n * n - 2) * math.log1p(2.0**-40) / (n - 2))
    with mpmath.workdps(60):
        reference = (n - 2) * mpmath.log(c0) + (n * n - 2) * mpmath.log(c)
    assert 0 < abs(reference) < 1e-6
    assert _log_sign((c0, n - 2), (c, n * n - 2)) == mpmath.sign(reference)


def test_log_sign_refines_a_near_tie():
    # q ln 3 - p ln 2 for the convergent p/q of log2(3): about 1e-10 against
    # terms of 7e9, so the first, 64-bit interval holds 0 and the next does not
    p, q = 9809721694, 6189245291
    with mpmath.workdps(60):
        assert 0 < q * mpmath.log(3) - p * mpmath.log(2) < 1e-9
    assert _log_sign((3.0, q), (0.5, p)) == 1


def simulate_both(*args):
    """Each simulator's verdicts and step table, or its ValueError text; the
    oracle's own self-checks must hold."""
    outcomes = []
    for simulate in (recursion_simulate, oracle_simulate):
        try:
            res = simulate(*args)
        except ValueError as exc:
            outcomes.append(f"ValueError: {exc}")
            continue
        if simulate is oracle_simulate:
            assert res.exponent_identity_ok and res.log_direct_agreement_ok
        outcomes.append((res.dominated, res.tends_to_zero, res.values_str, res.bounds_str))
    return outcomes


def certify_all_inputs():
    """(S1, C0, C, n, 20) as ``recursion-sim --q q --delta 1`` derives them with the
    configuration defaults, q midway between (n-2)/n and 1: the benchmark's
    seeded starting energies 1e-5..1e-40 (seeds 0 and 7919) and the golden ones."""
    cfg = RunConfig()
    energies = {f"1e-{e}" for e in (5, 13, 22, 31, 40)}
    for seed in (0, 7919):
        rng = random.Random(seed)
        energies |= {f"1e-{rng.randint(5, 40)}" for _ in range(5 * 3)}
    cases = []
    for n in (3, 4, 5):
        dg = degiorgi_constants(n, F(1), (F(n - 2, n) + 1) / 2, cfg.c_ms, cfg.radius)
        c0, c = float(dg.C0.value), float(dg.C.approx_mp())
        cases += [(float(s1), c0, c, n, 20) for s1 in sorted(energies)]
        cases += [(float(s1), 5.0, 2048.0, n, 20) for s1 in ("1e-30", "0.5")]
    return cases


def random_inputs():
    """Seeded (S1, C0, C, n, steps) at n = 3..13: one short run and one of 88..300
    steps, where the exponent numerators pass the 203 bits at which mpf(int) rounds."""
    rng = random.Random(24)
    cases = []
    for n in range(3, 14):
        for steps in (rng.randint(1, 40), rng.randint(88, 300)):
            cases.append((10 ** rng.uniform(-40, 1), 10 ** rng.uniform(-3, 4), 10 ** rng.uniform(0, 4), n, steps))
    return cases


# the n = 3 step limit on either side, a bound the sequence breaks, and invalid inputs
EDGE_INPUTS = [
    (1e-5, 1.0, 2.0, 3, 644),
    (1e-5, 1.0, 2.0, 3, 645),
    (0.5, 0.5, 1.0, 3, 4),
    (0.0, 1.0, 1.0, 3, 5),
    (0.5, 1.0, math.inf, 3, 5),
    (0.5, 1.0, 1.0, 2, 5),
    (0.5, 1.0, 1.0, 3, 0),
]


@pytest.mark.parametrize("args", certify_all_inputs() + random_inputs() + EDGE_INPUTS)
def test_recursion_matches_oracle(args):
    """The simulator on integer exponents and libmp values against the former one
    on Fraction exponents and mpf operators: identical step tables, bit for bit,
    and the same verdicts (none of these inputs breaks its bound after the
    steps run, where the closed form and the former verdict part)."""
    new, old = simulate_both(*args)
    assert new == old


def test_random_runs_reach_rounded_numerators():
    # mpf(int) rounds a numerator wider than the 203-bit working precision
    widest = max(
        max(map(int.bit_length, numerators[:3]))
        for *_, n, steps in random_inputs()
        for numerators in _exponent_numerators(n, steps)
    )
    assert widest > mpmath.libmp.dps_to_prec(60) == 203


@pytest.mark.parametrize("n", range(3, 41))
def test_exponent_numerators_are_in_lowest_terms(n):
    theta = F(n, n - 2)
    e0, eC, eS = F(0), F(0), F(1)
    for m, (n0, nC, nS, k_m) in enumerate(_exponent_numerators(n, 60), 1):
        assert all(math.gcd(num, k_m) == 1 for num in (n0, nC, nS))
        e0, eC, eS = theta * (1 + e0), theta * (2 * m - 1) + theta * eC, theta * eS
        assert (e0, eC, eS) == (F(n0, k_m), F(nC, k_m), F(nS, k_m))
        assert eS == theta**m


def test_constants_record_type():
    res = caccioppoli_constants(3, F(1), F(1, 2), F(100), F(100))
    assert isinstance(res, CaccioppoliConstants)
