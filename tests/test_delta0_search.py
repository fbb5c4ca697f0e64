"""The exact delta0 search, the least grid point above a row's closed-form
threshold, against a blind bisection and the verdicts on both sides of it; the
integer helper it rounds with; and the monotonicity in delta0 on which the
closed form rests."""

import math
import random
from fractions import Fraction as F

import pytest

from stabcert import optimize, published
from stabcert.curvature import ParamSet
from stabcert.rational import Unreduced

TOP = 2**optimize._DELTA0_BITS


def bisected_delta0(n, b, alpha):
    """The reference: a blind bisection of (0, 1] in delta0, one exact
    evaluation per step, down to a width of 2^-_DELTA0_BITS."""
    lo, hi, found = F(0), F(1), None
    for _ in range(optimize._DELTA0_BITS):
        mid = (lo + hi) / 2
        accepted = optimize._accepted(ParamSet(n, mid * b, b, alpha, F(1)))
        if accepted is None:
            lo = mid
        else:
            hi, found = mid, accepted
    return found


def band_row(rng, n):
    """A rational (q, r) at beta = 1 with r inside its band, rounded as the search
    rounds; every other one near the built-in row at n = 3, 4, 5, so that many
    have a feasible delta0 (at n = 6 none does)."""
    ricci = F(n - 1, n - 2)
    if n in published.PARAM_ROWS and rng.random() < 0.5:
        p = ParamSet.published_row(n)
        q, r = (x / p.beta * (1 + F(rng.uniform(-0.02, 0.02))) for x in (p.b, p.alpha))
    else:
        q = F(rng.uniform(0.02, min(3.98, 8 / (n - 1))))  # the band is empty from q = 8/(n-1) on
        spectral = F(4 * (n - 3), n - 2) / (4 - q)
        r = spectral + F(rng.random()) * (ricci - spectral)
    bound = rng.choice([1000, 10**6])
    return q.limit_denominator(bound), r.limit_denominator(bound)


def test_seeded_search_matches_the_bisection():
    rng = random.Random(15)
    feasible = set()
    for i in range(320):
        n = 3 + i % 4
        b, alpha = band_row(rng, n)
        expected = bisected_delta0(n, b, alpha)
        assert optimize._lowest_delta0(n, b, alpha) == expected, (n, b, alpha)
        if expected is not None:
            feasible.add(n)
    assert feasible == {3, 4, 5}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_the_grid_point_below_the_answer_fails(n):
    # every margin is strict, so the least k above the threshold passes and
    # k - 1, at or below it, fails: through feasibility, not _accepted
    rng = random.Random(17 + n)
    found = 0
    for _ in range(600):
        b, alpha = band_row(rng, n)
        accepted = optimize._lowest_delta0(n, b, alpha)
        if accepted is None:
            continue
        params, report = accepted
        k = params.delta0 * TOP
        assert k.denominator == 1 and 0 < k < TOP
        assert params == ParamSet(n, params.delta0 * b, b, alpha, F(1))
        assert report == optimize.feasibility(params) and report.all_satisfied
        below = F(int(k) - 1, TOP)
        assert not optimize.feasibility(ParamSet(n, below * b, b, alpha, F(1))).all_satisfied
        found += 1
    assert found >= 20


@pytest.mark.parametrize("b", [F(1), F(3, 2), F(2), F(29, 10)])
def test_the_gate_threshold_at_ds_double_root(b):
    # at n = 3 and alpha = beta = 1, D = 3 (2a - 1)^2 and f_xx = f_yy = 4a - 2: the
    # gate holds exactly for a > 1/2, D's double root, and these rows pass from there on
    params, _ = optimize._lowest_delta0(3, b, F(1))
    assert params.delta0 == F(math.floor(TOP / (2 * b)) + 1, TOP)


# the gate's threshold 1/(2b), and F(0)'s in a row found by bisecting q below the built-in n = 5 row's
@pytest.mark.parametrize("n, b, alpha", [(3, F(TOP, 2 * TOP - 1), F(1)), (5, F(19099375, 17805312), F(775, 828))])
def test_no_grid_point_above_a_threshold_in_the_last_step(n, b, alpha):
    assert optimize.feasibility(ParamSet(n, b, b, alpha, F(1))).all_satisfied  # at delta0 = 1
    assert optimize._lowest_delta0(n, b, alpha) is None


def test_no_delta0_when_fs_constant_term_is_0():
    # F's constant term 4 + 2 alpha - 3b/2 is 0 here, and F(0) < it at every delta0
    assert optimize._lowest_delta0(3, F(10, 3), F(1, 2)) is None


def rationals(rng, count):
    """Seeded rationals of either sign, with small and large denominators."""
    for _ in range(count):
        bound = rng.choice([10, 1000, 10**9])
        yield F(rng.randint(-40 * bound, 40 * bound), rng.randint(1, bound))


def test_least_integer_above_by_squaring():
    # k - 1 <= p + sqrt(s) < k, compared without a square root: x <= sqrt(s)
    # when x <= 0 or x^2 <= s, and sqrt(s) < y when y > 0 and s < y^2
    rng = random.Random(18)
    for p, root in zip(rationals(rng, 3000), rationals(rng, 3000)):
        for s in (abs(root), root * root, root * root + F(1, 10**30), F(rng.randint(0, 10**40))):
            for exact in (Unreduced, F):
                k = optimize._least_integer_above(exact(p), exact(s))
                below, above = k - 1 - p, k - p
                assert below <= 0 or below * below <= s, (p, s, k)
                assert above > 0 and s < above * above, (p, s, k)
        # p + |root| an integer: sqrt(s) is |root| exactly, and the answer is the next integer
        s, p = root * root, math.floor(p) - abs(root)
        assert optimize._least_integer_above(p, s) == p + abs(root) + 1
    assert optimize._least_integer_above(F(1, 2), F(1, 4)) == 2
    assert optimize._least_integer_above(F(-3), F(0)) == -2
    assert optimize._least_integer_above(Unreduced(F(7, 3)), Unreduced(F(0))) == 3


@pytest.mark.parametrize("n", range(3, 10))
def test_hessian_is_monotone_in_a(n):
    # f_xx * f_yy - D is (2a/(n-2) - alpha)^2 up to sign inside the square, and
    # f_xx, f_yy grow with slope > 2/(n-2): f's Hessian is a * H1 + H0 with H1
    # positive definite, so the convexity gate, once it holds, holds for larger a
    stages = optimize._stages(n, F)
    rng = random.Random(n)
    for _ in range(20):
        b, alpha, beta = (F(rng.randint(1, 400), rng.randint(1, 100)) for _ in range(3))

        def hessian(a):
            fxx, fyy, D = optimize._chain(a, b, alpha, beta, stages)[0][3:6]
            return fxx, fyy, fxx * fyy - D

        g0, g1, g2, g3 = (hessian(F(a))[2] for a in range(4))
        c2 = (g2 - 2 * g1 + g0) / 2
        c1 = g1 - g0 - c2
        assert g3 == 9 * c2 + 3 * c1 + g0  # a quadratic in a
        assert c2 == F(2, n - 2) ** 2 and c1 * c1 == 4 * c2 * g0  # the square of an affine function
        (fxx0, fyy0, _), (fxx1, fyy1, _) = hessian(F(0)), hessian(F(1))
        assert fxx1 - fxx0 == fyy1 - fyy0 == F(2 * (n - 1), n - 2) > F(2, n - 2)


def test_verdict_is_monotone_in_delta0():
    # on a dyadic delta0 grid: the convexity gate and the whole verdict never go
    # from pass back to fail, and epsilon, where defined, never decreases
    rng = random.Random(16)
    levels = [F(j, 32) for j in range(1, 33)]
    passed_somewhere = 0
    for i in range(120):
        n = 3 + i % 4
        b, alpha = band_row(rng, n)
        gate = verdict = False
        eps = None
        for delta0 in levels:
            report = optimize.feasibility(ParamSet(n, delta0 * b, b, alpha, F(1)))
            now_gate = all(report.entry(name).satisfied for name in ("hessian_fxx", "hessian_fyy", "discriminant"))
            now_eps = report.entry("epsilon").margin
            assert now_gate >= gate and report.all_satisfied >= verdict
            assert now_gate == (now_eps is not None)
            assert eps is None or now_eps >= eps
            gate, verdict, eps = now_gate, report.all_satisfied, now_eps
        passed_somewhere += verdict
    assert passed_somewhere >= 20
