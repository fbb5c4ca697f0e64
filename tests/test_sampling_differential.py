"""The integer sampled checks against a Fraction reference on the same draws.

``curvature_sample_check`` and ``quadform_lower_bound_check`` compare in
cleared-denominator integers.  The reference samplers below decode the same
random rationals from the same seed on their own (``draw_rationals``: one
uniform draw per sample, read as base-(grid size) digits) and compare them as
``Fraction``s and write their own check records; the sampled checks (verdict,
sample and violation counts, first witness) must agree byte for byte.  Each row's Q comes from the oracle in
quadmin_oracle and its mean-curvature coefficient from the closed form below,
so nothing in the reference is taken from stabcert.  The quadform vertex
identity is exact, not sampled, and is tested on its own.  Both samplers draw
with ``getrandbits`` and redraw while out of range; that each draw equals
``randrange``'s is tested on its own too, so a Python whose ``randrange``
draws otherwise fails here instead of moving every witness.
"""

import random
from fractions import Fraction as F

import pytest
from quadmin_oracle import determinant, linear_coefficients, min_coefficient

from stabcert import bubble, curvature
from stabcert.bubble import quadform_lower_bound_check
from stabcert.curvature import ParamSet, curvature_sample_check
from stabcert.certificate import CertCheck


def mean_curv_coeff(n, alpha, beta):
    """(4 beta^2 - (n-2) alpha^2) / (4 beta ((n-1) beta - (n-2) alpha)); None where the denominator vanishes."""
    ricci = (n - 1) * beta - (n - 2) * alpha
    return None if ricci == 0 else (4 * beta * beta - (n - 2) * alpha * alpha) / (4 * beta * ricci)


def draw_rationals(rng, count, max_num, max_den):
    """``count`` rationals num/den, num in [-max_num, max_num] and den in [1, max_den], from one draw.

    The draw is uniform over all grid**count choices; its base-grid digits,
    least significant first, give the rationals in order, and digit d stands
    for (d // max_den - max_num) / (d % max_den + 1).
    """
    grid = (2 * max_num + 1) * max_den
    r = rng.randrange(grid**count)
    digits = [r // grid**i % grid for i in range(count)]
    return [F(d // max_den - max_num, d % max_den + 1) for d in digits]


def sampled_check(name, sample_count, violations, seed, witness):
    detail = f"{sample_count} samples, {violations} violations, seed={seed}"
    if witness:
        detail += f"; first witness: {witness}"
    return CertCheck(name, "sampled", "fail" if violations else "pass", detail=detail)


def reference_curvature_check(params, Q, sample_count, seed):
    n, a, alpha, beta = params.n, params.a, params.alpha, params.beta
    c1, c2 = linear_coefficients(n, alpha, beta)
    rng = random.Random(seed)
    violations = 0
    witness = ""
    for _ in range(sample_count):
        # lambda_1 .. lambda_(n-1), then E
        *lam, E = draw_rationals(rng, n, 120, 12)
        lam.append(-sum(lam))
        S = sum(x * x for x in lam)
        lhs = a * S - beta * lam[0] * lam[0] - alpha * (lam[0] * lam[1] + lam[1] * lam[1])
        lhs += E * (c1 * lam[0] + c2 * lam[1])
        if lhs < E * E * Q:
            violations += 1
            if not witness:
                witness = f"lambda={[str(x) for x in lam]}, E={E}"
    return [sampled_check("pointwise_curvature_inequality", sample_count, violations, seed, witness)]


def reference_quadform_check(n, alpha, beta, coeff, sample_count, seed):
    A = F(n - 1, n - 2) - alpha / beta
    B = F(n - 3) * alpha / ((n - 1) * beta)
    C = F(1, n - 1) * (1 + alpha / beta * F(n - 2, n - 1))
    rng = random.Random(seed)
    violations = 0
    witness = ""
    for _ in range(sample_count):
        mu1, H = draw_rationals(rng, 2, 200, 19)
        if A * mu1 * mu1 + B * H * mu1 + C * H * H < coeff * H * H:
            violations += 1
            if not witness:
                witness = f"mu1={mu1}, H={H}"
    return [sampled_check("quadform_lower_bound", sample_count, violations, seed, witness)]


def random_rows(count, seed=2024):
    rng = random.Random(seed)

    def positive():
        return F(rng.randrange(1, 400), rng.randrange(1, 100))

    rows = []
    while len(rows) < count:
        n = rng.randrange(3, 7)
        b, alpha, beta = positive(), positive(), positive()
        a = b * F(rng.randrange(1, 100), rng.randrange(1, 100))
        if determinant(n, a, alpha, beta) != 0:
            rows.append(ParamSet(n, a, b, alpha, beta))
    return rows


BUILTIN = [ParamSet.published_row(n) for n in (3, 4, 5)]
INFEASIBLE = [ParamSet(3, F(1, 10), F(3, 10), F(18, 11), F(3, 2))]
ROWS = BUILTIN + INFEASIBLE + random_rows(32)


def quad_q(params):
    return min_coefficient(params.n, params.a, params.alpha, params.beta)


@pytest.mark.parametrize("index", range(len(ROWS)))
def test_curvature_check_matches_fraction_reference(index):
    params, Q = ROWS[index], quad_q(ROWS[index])
    seed = 1000 + index
    assert curvature_sample_check(params, Q, 300, seed) == reference_curvature_check(params, Q, 300, seed)


@pytest.mark.parametrize("index", range(len(ROWS)))
def test_quadform_check_matches_fraction_reference(index):
    n, alpha, beta = ROWS[index].n, ROWS[index].alpha, ROWS[index].beta
    seed = 2000 + index
    K = mean_curv_coeff(n, alpha, beta)
    assert K is not None  # no row sits on (n-1) beta = (n-2) alpha
    got = quadform_lower_bound_check(n, alpha, beta, K, 300, seed)
    assert got[:1] == reference_quadform_check(n, alpha, beta, K, 300, seed)
    # the vertex identity is exact; it holds exactly where A > 0, the chain's
    # domain (n-1) beta - (n-2) alpha > 0
    want = "pass" if (n - 1) * beta - (n - 2) * alpha > 0 else "fail"
    assert (got[1].name, got[1].kind, got[1].status) == ("quadform_bound_tight_at_vertex", "exact", want)


@pytest.mark.parametrize("shift", [F(1, 1000), F(-1, 1000)])
def test_quadform_check_matches_reference_with_a_wrong_coefficient(shift):
    # the bound is sharp for every valid row, so a shifted coefficient is what
    # produces violations (shift > 0) and breaks the vertex identity (either sign)
    for n in (3, 4, 5):
        p = BUILTIN[n - 3]
        K = mean_curv_coeff(n, p.alpha, p.beta) + shift
        got = quadform_lower_bound_check(n, p.alpha, p.beta, K, 300, n)
        want = reference_quadform_check(n, p.alpha, p.beta, K, 300, n)
        assert got[:1] == want
        assert want[0].satisfied == (shift < 0)
        assert (got[1].kind, got[1].status) == ("exact", "fail")


def test_rows_cover_violations_and_clean_passes():
    # the comparison means something only if the rows give clean passes, rows
    # where every draw violates and rows where only some draws do
    counts = set()
    for i, p in enumerate(ROWS):
        detail = reference_curvature_check(p, quad_q(p), 300, 1000 + i)[0].detail
        counts.add(int(detail.split()[2]))
    assert 0 in counts and 300 in counts
    assert any(0 < c < 300 for c in counts)


# At every n a row where some draws violate and some do not, so that the running
# sums and the rebuilt witness are compared on both verdicts: the built-in rows
# and a random n = 6 row that passes, each with Q raised.
PARTIAL = [(BUILTIN[0], F(1, 10)), (BUILTIN[1], F(1)), (BUILTIN[2], F(1)), (ROWS[17], F(1))]


@pytest.mark.parametrize("params, raise_q", PARTIAL, ids=[f"n{p.n}" for p, _ in PARTIAL])
def test_curvature_check_matches_reference_where_some_draws_violate(params, raise_q):
    Q = quad_q(params) + raise_q
    want = reference_curvature_check(params, Q, 5000, params.n)
    assert 0 < int(want[0].detail.split()[2]) < 5000
    assert curvature_sample_check(params, Q, 5000, params.n) == want


class RecordingRandom(random.Random):
    """A ``random.Random`` that records every ``getrandbits`` call and its result."""

    def __init__(self, seed):
        self.calls = []
        super().__init__(seed)

    def getrandbits(self, k):
        r = super().getrandbits(k)
        self.calls.append((k, r))
        return r


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_samplers_draw_what_randrange_draws(monkeypatch, n):
    # each sampler's generator must see exactly the getrandbits calls, hence
    # return exactly the values, that randrange(span) makes on the same seed;
    # the references above decode those randrange values, so together this
    # pins every draw.  Some draws are out of range and redrawn at every n.
    made = []

    def recording(seed):
        made.append(RecordingRandom(seed))
        return made[-1]

    monkeypatch.setattr(random, "Random", recording)
    params = ParamSet(n, F(1), F(1), F(1), F(1))
    for span, sample in [
        (len(curvature._DRAWS) ** n, lambda seed: curvature_sample_check(params, F(0), 200, seed)),
        (len(bubble._QUAD_DRAWS) ** 2, lambda seed: quadform_lower_bound_check(n, F(1), F(1), F(0), 200, seed)),
    ]:
        redrawn = 0
        for seed in range(10):
            sample(seed)
            want = RecordingRandom(seed)
            for _ in range(200):
                want.randrange(span)
            got = made.pop().calls
            assert got == want.calls
            redrawn += len(got) - 200
        assert redrawn > 0
