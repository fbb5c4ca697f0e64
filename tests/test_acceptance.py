"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v tests/test_acceptance.py`` (or ``-s`` to see the lines
as they print).  Every tolerance is pinned here, none deferred.
"""

import json
import random
import time
from fractions import Fraction as F

from quadmin_oracle import (
    QuadMinInput,
    critical_point,
    f_eval,
    f_min_bruteforce,
    gradient,
    hessian_entries,
    random_valid_input,
)

from stabcert import bubble, published
from stabcert.certificate import Certificate
from stabcert.certify import certify, result_certificate
from stabcert.config import RunConfig
from stabcert.curvature import ParamSet, curvature_sample_check
from stabcert.iteration import (
    _exponent_numerators,
    collapse_sqrt,
    critical_delta_exponent,
    critical_delta_threshold,
    delta1_of,
    recursion_simulate,
)
from stabcert.optimize import exact_chain, feasibility, minimize_delta0, reverify

ROWS = {n: ParamSet.published_row(n) for n in (3, 4, 5)}


def chain(n, a, alpha, beta):
    """The chain's margins and intermediates; D and Q do not depend on b, and b = 1 passes its b > 0 gate."""
    return exact_chain(ParamSet(n, a, F(1), alpha, beta))


def report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d}: PASS — {text}")


def test_criterion_01_epsilon_table_exact():
    start = time.monotonic()
    computed = {n: feasibility(ROWS[n]).entry("epsilon").margin for n in (3, 4, 5)}
    elapsed = time.monotonic() - start
    assert computed[3] == F(9, 11)
    assert computed[4] == F(377, 5260)
    assert computed[5] == F(979826999, 65363627000)
    assert computed == published.EPSILON
    assert elapsed < 1.0
    report(1, f"epsilon(3,4,5) reproduced exactly in {elapsed * 1000:.1f} ms")


def test_criterion_02_delta0_factorization():
    assert F(10, 11) == F(30, 11) * F(1, 3)
    assert F(24, 25) == F(48, 25) * F(1, 2)
    assert F(10, 11) == F(20, 21) * F(21, 22)
    for n in (3, 4, 5):
        assert ROWS[n].a == ROWS[n].b * published.DELTA0[n]
    report(2, "a = b*delta0 holds exactly on all three rows")


def test_criterion_03_young_parameter_identity():
    for n, expected in ((3, F(71, 11)), (4, F(189697, 206625))):
        margins, values = exact_chain(ROWS[n])
        assert values.L_max == expected
        cross = abs(F(1, 2) - 1 / ROWS[n].q)
        assert margins.entry("young_numerator").margin - values.L_max * cross == 0
    computed = exact_chain(ROWS[5])[1].L_max
    quoted = F(106986857, 251572482)
    match = computed == quoted
    assert match or computed is not None  # match-or-discrepancy contract
    report(3, f"L_max(3) = 71/11, L_max(4) = 189697/206625 with zero binding margin; "
              f"L_max(5) {'matches' if match else 'DISCREPANCY vs'} {quoted}")


def test_criterion_04_gamma0_reproduction_and_flag():
    for n, expected in ((3, F(77, 142)), (4, F(276875, 569091))):
        p = ROWS[n]
        bare = feasibility(p).entry("gamma0_bare").margin
        _, with_ratio = bubble.derive(p, published.EPSILON[n], bare)
        assert bare == expected
        assert with_ratio.gamma0 == bare * p.beta / p.alpha != bare
    cfg = RunConfig(curvature_samples=200, quadform_samples=50, barrier_samples=20)
    cert = certify(ROWS[3], cfg)
    flags = [f for f in cert.flags if f["name"] == "gamma0_convention_divergence"]
    assert flags, "the convention-divergence flag is required"
    assert flags[0]["bare"] == "77/142" and flags[0]["with_ratio"] == "847/1704"
    report(4, "gamma0 bare values reproduce exactly; with-ratio values emitted and divergence flagged")


def test_criterion_05_delta1_table():
    assert delta1_of(3) == F(3, 8)
    assert delta1_of(4) == F(2, 3)
    assert delta1_of(5) == F(21, 22)
    report(5, "delta1 = max{delta0, n(n-2)/(4(n-1))} = 3/8, 2/3, 21/22 exactly")


def test_criterion_06_critical_collapse_and_exponent():
    for n in range(3, 13):
        dc = critical_delta_threshold(n)
        rad = dc * (dc - F(n - 2, n))
        value = collapse_sqrt(n)
        assert value * value == rad  # the radicand is a perfect rational square
        assert value == F((n - 2) ** 2, 4 * (n - 1))
        assert dc + value == F(n - 2, 2)  # boundary 2k, so p = 2(2k) + 2 = n
    for n in range(3, 13):
        assert critical_delta_exponent(n, critical_delta_threshold(n) + F(1, 1000))
    report(6, "collapse identity exact for n = 3..12; p = n at delta_c, p > n at delta_c + 1/1000")


def test_criterion_07_quadratic_property_suite():
    start = time.monotonic()
    rng = random.Random(20240601)
    for _ in range(10_000):
        inp = random_valid_input(rng)
        x, y = critical_point(inp)
        assert gradient(inp, x, y) == (0, 0)
        fxx, fyy, fxy = hessian_entries(inp.n, inp.a, inp.alpha, inp.beta)
        margins, values = chain(inp.n, inp.a, inp.alpha, inp.beta)
        # det H = D, i.e. 4(fxx fyy - fxy^2) = (4/(n-2)) * ((n-2) D)
        assert fxx * fyy - fxy * fxy == margins.entry("discriminant").margin
        fmin = inp.linear_scale**2 * values.Q
        u = F(rng.randrange(-40, 41), rng.randrange(1, 8))
        v = F(rng.randrange(-40, 41), rng.randrange(1, 8))
        assert f_eval(inp, x + u, y + v) >= fmin
    for n in (3, 4, 5):
        p = ROWS[n]
        inp = QuadMinInput(n=p.n, a=p.a, alpha=p.alpha, beta=p.beta, linear_scale=F(1))
        gap = f_min_bruteforce(inp) - float(exact_chain(p)[1].Q)
        assert -1e-9 <= gap <= 1e-4
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(7, f"10^4 exact stationarity/Hessian/minimality checks and grid oracle within 1e-4 in {elapsed:.1f} s")


def test_criterion_08_pointwise_inequality_sampling():
    start = time.monotonic()
    for n in (3, 4, 5):
        [check] = curvature_sample_check(ROWS[n], exact_chain(ROWS[n])[1].Q, sample_count=100_000, seed=20240601 + n)
        assert check.satisfied, check.detail
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(8, f"3 x 10^5 exact trace-free samples, zero violations, in {elapsed:.1f} s")


def test_criterion_09_surd_identities_both_conventions():
    for n in (3, 4, 5):
        p = ROWS[n]
        eps = published.EPSILON[n]
        for branch in bubble.derive(p, eps, published.GAMMA0[n]):
            checks = bubble.surd_identities_check(p.alpha, p.beta, eps, branch.gamma0, branch.x0, branch.y0)
            assert all(c.satisfied for c in checks), (n, branch.convention)
    report(9, "2(b/a)x0y0 = eps/(2a) and 2(b/a)y0/x0 = gamma0 exact for all rows, both conventions")


def test_criterion_10_barrier_ode_residuals():
    for n in (3, 4, 5):
        p = ROWS[n]
        for branch in bubble.derive(p, published.EPSILON[n], published.GAMMA0[n]):
            [check] = bubble.barrier_ode_check(branch.x0, branch.y0, sample_count=1000, tol=1e-9)
            assert check.satisfied, (n, branch.convention, check.detail)
    report(10, "Riccati residual below 1e-9 relative at 10^3 points per row, both conventions")


def test_criterion_11_spectral_bound_margins():
    m4 = feasibility(ROWS[4]).entry("spectral_bound").margin
    m5 = feasibility(ROWS[5]).entry("spectral_bound").margin
    assert m4 == 2 - F(15625, 7854) == F(83, 7854)
    assert m5 == F(3, 2) - F(3599316, 2400175) == F(1893, 4800350)
    report(11, "spectral coefficient margins 83/7854 (n=4) and 1893/4800350 (n=5), exact")


def test_criterion_12_optimizer_witness_dominance():
    start = time.monotonic()
    cfg_env = RunConfig()
    for n in (3, 4, 5):
        result = minimize_delta0(n, cfg_env)  # the deterministic (q, r) search at default settings
        assert result.certified
        assert result.delta0 <= published.DELTA0[n]
        cert = result_certificate(result, cfg_env)
        replayed = Certificate.from_json(json.dumps(cert.to_jsonable()))
        params, report_ = reverify(replayed.params)
        assert report_.all_satisfied
        stored = {c.name: c.margin for c in replayed.checks if c.margin is not None}
        fresh = {e.name: e.margin for e in report_.entries if e.margin is not None}
        assert stored == fresh  # identical exact margins from the certificate alone
    elapsed = time.monotonic() - start
    assert elapsed < 600
    report(12, f"certified delta0 <= published for n = 3,4,5 and certificates re-verify, in {elapsed:.1f} s")


def test_criterion_13_recursion_domination_grid():
    checked = 0
    for n in (3, 4, 5):
        # the closed form: log bound_m - log T_m = (n/2) ln C0 + r_m ln C, r_m
        # rising strictly from r_1 = theta (n^2 - 2)/2, theta = n/(n-2)
        theta, gaps = F(n, n - 2), []
        for m, (e0, eC, eS, k_m) in enumerate(_exponent_numerators(n, 12), 1):
            assert F(eS, k_m) == theta**m and n * theta**m / 2 - F(e0, k_m) == F(n, 2)
            gaps.append(n * n * theta**m / 2 - F(eC, k_m))
        assert gaps[0] == theta * (n * n - 2) / 2 and all(a < b for a, b in zip(gaps, gaps[1:]))
        C = float(2 ** ((3 * n + 2) / (n - 2)))
        for c0_exp in (-3, -2, -1, 0, 1, 2, 3):
            for s1_scale in (1e-15, 1e-12, 1e-6, 1e-3, 0.5, 0.99):
                C0 = 10.0**c0_exp
                # pick S1 so that C0^(n/2) C^(n^2/2) S1 < 1
                product_cap = C0 ** (n / 2) * C ** (n * n / 2)
                S1 = s1_scale / product_cap
                res = recursion_simulate(S1, C0, C, n, steps=12)
                assert res.dominated, (n, C0, S1)
                assert res.tends_to_zero, (n, C0, S1)
                # each verdict is the closed form's, in exact rationals
                assert res.dominated == (C >= 1 and F(C0) ** (n - 2) * F(C) ** (n * n - 2) >= 1)
                assert res.tends_to_zero == (F(C0) ** n * F(C) ** (n * n) * F(S1) ** 2 < 1)
                checked += 1
    # a couple of boundary cases: product exactly 1 stays bounded by 1
    for n in (3, 5):
        res = recursion_simulate(1.0, 1.0, 1.0, n, steps=8)
        assert res.dominated and not res.tends_to_zero
        checked += 1
    assert checked >= 100
    report(13, f"closed-form verdict: the bound dominates and decays on a {checked}-point grid")
