"""The exact delta0 search against the bisection it replaced, and the
monotonicity in delta0 on which their agreement rests."""

import random
from fractions import Fraction as F

import pytest

from stabcert import optimize, published
from stabcert.curvature import ParamSet
from stabcert.certificate import CertCheck, ConstraintReport

TOP = 2**optimize._DELTA0_BITS


def bisected_delta0(n, b, alpha):
    """The former exact step: a blind bisection of (0, 1] in delta0, one exact
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
    # one guess a row, in turn: the answer itself, a few grid steps below or
    # above it, and far off (0, 1, d - 0.3, d + 0.3)
    rng = random.Random(15)
    feasible = set()
    for i in range(320):
        n = 3 + i % 4
        b, alpha = band_row(rng, n)
        expected = bisected_delta0(n, b, alpha)
        d = rng.random() if expected is None else float(expected[0].delta0)
        kind = i // 4 % 7  # every n meets every kind
        if kind == 0:
            guess = d
        elif kind <= 2:
            guess = d + rng.randint(1, 4) * (-1 if kind == 1 else 1) / TOP
        else:
            guess = (0.0, 1.0, d - 0.3, d + 0.3)[kind - 3]
        assert optimize._lowest_delta0(n, b, alpha, guess) == expected, (n, b, alpha, guess)
        if expected is not None:
            feasible.add(n)
    assert feasible == {3, 4, 5}


@pytest.mark.parametrize("threshold", [1, 2, 3, 1000, TOP // 2 + 1, TOP - 2, TOP - 1, TOP])
def test_seeded_search_on_a_threshold_verdict(monkeypatch, threshold):
    # a verdict that passes from k = threshold on reaches the grid's ends, which no
    # row at beta = 1 does (the Hessian gate needs delta0 > 1/8); each k is
    # evaluated once, at most 2 * bits + 2 of them
    seen = []

    def verdict(p):
        seen.append(p.delta0)
        return ConstraintReport([CertCheck.of("threshold", p.delta0 >= F(threshold, TOP))])

    monkeypatch.setattr(optimize, "feasibility", verdict)
    b, alpha = F(3), F(1)
    expected = bisected_delta0(3, b, alpha)
    assert (expected is None) == (threshold == TOP)
    for guess in (0.0, 1.0, 0.5, threshold / TOP, (threshold + 3) / TOP, (threshold - 3) / TOP, -0.2, 1.3):
        seen.clear()
        assert optimize._lowest_delta0(3, b, alpha, guess) == expected
        assert len(seen) == len(set(seen)) <= 2 * optimize._DELTA0_BITS + 2


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
