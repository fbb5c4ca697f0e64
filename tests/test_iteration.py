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

    def test_vanishes_at_delta_pole(self):
        # approach q -> delta- while staying in the same C regime
        values = [epsilon1_threshold(3, F(1), q, 1.0) for q in (F(9, 10), F(99, 100), F(999, 1000), F(9999, 10000))]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < values[0] / 100


class TestRecursionSimulator:
    def test_all_ones_bound(self):
        res = recursion_simulate(0.5, 1.0, 1.0, 3, steps=6)
        assert res.dominated and res.tends_to_zero and res.exponent_identity_ok
        # bound is (1/2)^(3^l) and the sequence achieves it exactly
        assert res.log10_values == pytest.approx([3**m * mpmath.log10(0.5) for m in range(7)], rel=1e-9)
        assert res.values_str == res.bounds_str
        assert res.log10_values[2] == pytest.approx(9 * res.log10_values[0], rel=1e-9)

    def test_fixed_point_product_one(self):
        res = recursion_simulate(1.0, 1.0, 1.0, 3, steps=5)
        assert res.log10_values == pytest.approx([0.0] * 6, abs=1e-12)
        assert res.bounds_str == ["1.0"] * 6
        assert not res.tends_to_zero

    def test_log_and_direct_agree(self):
        res = recursion_simulate(1e-3, 5.0, 2048.0, 3, steps=8)
        assert res.log_direct_agreement_ok
        assert res.exponent_identity_ok

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            recursion_simulate(0.0, 1.0, 1.0, 3)

    def test_refuses_exponents_past_the_double_range(self):
        # the base-10 exponents of the sequence and its bound fit a double up to step 644
        res = recursion_simulate(1e-5, 1.0, 2.0, 3, steps=644)
        assert all(math.isfinite(x) for x in res.log10_values)
        assert (res.values_str[-1], res.bounds_str[-1]) == ("10^-7.56039e+307", "10^-6.72712e+307")
        assert not any("inf" in row for row in res.values_str + res.bounds_str)
        with pytest.raises(ValueError, match="at step 645 .* give at most 644"):
            recursion_simulate(1e-5, 1.0, 2.0, 3, steps=645)

    def test_divergence_reported_honestly(self):
        res = recursion_simulate(10.0, 1.0, 1.0, 3, steps=4)
        assert not res.tends_to_zero
        assert res.dominated  # bound still valid, it just grows


def simulate_both(*args):
    """Each simulator's result, or its ValueError text."""
    outcomes = []
    for simulate in (recursion_simulate, oracle_simulate):
        try:
            outcomes.append(simulate(*args))
        except ValueError as exc:
            outcomes.append(f"ValueError: {exc}")
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
    on Fraction exponents and mpf operators: identical results, bit for bit."""
    new, old = simulate_both(*args)
    assert new == old
    if not isinstance(new, str):
        assert [x.hex() for x in new.log10_values] == [x.hex() for x in old.log10_values]


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
    for m, (n0, nC, nS, n_m, k_m) in enumerate(_exponent_numerators(n, 60), 1):
        assert all(math.gcd(num, k_m) == 1 for num in (n0, nC, nS))
        e0, eC, eS = theta * (1 + e0), theta * (2 * m - 1) + theta * eC, theta * eS
        assert (e0, eC, eS) == (F(n0, k_m), F(nC, k_m), F(nS, k_m))
        assert F(n_m, k_m) == theta**m


def test_constants_record_type():
    res = caccioppoli_constants(3, F(1), F(1, 2), F(100), F(100))
    assert isinstance(res, CaccioppoliConstants)
