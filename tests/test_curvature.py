import random
from fractions import Fraction as F

import pytest
from quadmin_oracle import min_coefficient

from stabcert import curvature, published
from stabcert.certify import certify
from stabcert.config import RunConfig
from stabcert.curvature import ParamSet, curvature_sample_check, linear_coefficients
from stabcert.optimize import exact_chain, feasibility


def row(n):
    return ParamSet.published_row(n)


def chain(p):
    return exact_chain(p)[1]


# an infeasible row (its Hessian gate fails, so the chain has no Q); the oracle's Q is used
BAD = ParamSet(3, F(1, 10), F(3, 10), F(18, 11), F(3, 2))
BAD_Q = min_coefficient(BAD.n, BAD.a, BAD.alpha, BAD.beta)


def test_paramset_positivity_enforced():
    with pytest.raises(ValueError):
        ParamSet(3, F(1), F(-1), F(1), F(1))
    with pytest.raises(ValueError):
        ParamSet(2, F(1), F(1), F(1), F(1))


def test_derived_fields():
    p = row(5)
    assert p.delta0 == F(21, 22)
    assert p.q == F(5000, 4347)
    assert p.a == p.b * p.delta0


def test_gradient_term_max_branches():
    # certificates record which of the two linear coefficients attains the max in F(1)
    c1, c2 = linear_coefficients(3, F(18, 11), F(3, 2))
    assert c1 < c2 == 0  # beta - alpha < 0
    c1, c2 = linear_coefficients(4, F(51, 50), F(5, 4))
    assert c1 == 2 * F(5, 4) - F(51, 50) > c2
    c1, c2 = linear_coefficients(3, F(1), F(1))
    assert c1 == c2
    cfg = RunConfig(curvature_samples=1, quadform_samples=1, barrier_samples=1)
    assert certify(row(3), cfg).values["gradient_term_max_branch"] == "alpha"
    assert certify(row(4), cfg).values["gradient_term_max_branch"] == "beta"


def test_gradient_term_max_over_both_branches():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randrange(3, 9)
        alpha = F(rng.randrange(1, 50), rng.randrange(1, 20))
        beta = F(rng.randrange(1, 50), rng.randrange(1, 20))
        assert max(linear_coefficients(n, alpha, beta)) == max((n - 2) * beta - alpha, (n - 3) * alpha)


def test_F_values_row3():
    result = chain(row(3))
    assert result.F_at_1 == F(9, 11)
    assert result.F_at_0 == F(909, 176)


def test_F_values_row4():
    result = chain(row(4))
    assert result.F_at_1 == F(3, 25)
    assert result.F_at_0 == F(377, 5260)


def test_epsilon_table():
    for n in (3, 4, 5):
        result = chain(row(n))
        epsilon = feasibility(row(n)).entry("epsilon").margin
        assert epsilon == min(result.F_at_0, result.F_at_1) == published.EPSILON[n]


def test_pointwise_inequality_direct_witness():
    # lambda = (1, -1, 0), E = 0 on the n = 3 row: a*S + BiRic >= f_min since f_min < 0
    p = row(3)
    lam = [F(1), F(-1), F(0)]
    S = sum(x * x for x in lam)
    lhs = p.a * S - p.beta * lam[0] ** 2 - p.alpha * (lam[0] * lam[1] + lam[1] ** 2)
    assert lhs == 2 * p.a - p.beta - p.alpha * (-1 + 1)
    assert lhs >= 0 > chain(p).Q


def test_sampling_check_clean_on_rows():
    for n in (3, 4, 5):
        [check] = curvature_sample_check(row(n), chain(row(n)).Q, sample_count=2000, seed=42)
        assert check.satisfied


def test_sampling_check_reports_witness_on_false_claim():
    # an infeasible row (Hessian fails) must produce violations with a witness
    [check] = curvature_sample_check(BAD, BAD_Q, sample_count=500, seed=0)
    assert not check.satisfied
    assert "witness" in check.detail


def test_sampling_check_draws_are_pinned():
    # a change of the draw scheme moves this witness; make it a deliberate diff
    [check] = curvature_sample_check(BAD, BAD_Q, sample_count=500, seed=0)
    detail = check.detail
    assert detail == (
        "500 samples, 500 violations, seed=0; first witness: lambda=['-91/2', '-23/3', '319/6'], E=44/7"
    )


def test_draw_table_is_a_bijection_onto_the_grid():
    draws = curvature._DRAWS
    grid = {(num, den) for num in range(-120, 121) for den in range(1, 13)}
    assert len(draws) == len(grid) == 241 * 12
    assert {(num, den) for num, den, _ in draws} == grid
    assert all(F(scaled, curvature._SCALE) == F(num, den) for num, den, scaled in draws)


def test_sign_of_linear_scale_is_irrelevant():
    # the inequality depends on E only through E^2: flipping E mirrors lambda
    p = row(4)
    rng = random.Random(8)
    Q = chain(p).Q
    c1, c2 = linear_coefficients(p.n, p.alpha, p.beta)
    for _ in range(100):
        lam = [F(rng.randrange(-30, 31), rng.randrange(1, 10)) for _ in range(p.n - 1)]
        lam.append(-sum(lam))
        E = F(rng.randrange(-30, 31), rng.randrange(1, 10))
        S = sum(x * x for x in lam)

        def lhs(lam_, e):
            return (
                p.a * S
                - p.beta * lam_[0] ** 2
                - p.alpha * (lam_[0] * lam_[1] + lam_[1] ** 2)
                + e * (c1 * lam_[0] + c2 * lam_[1])
            )

        mirrored = [-x for x in lam]
        assert (lhs(lam, E) >= E * E * Q) == (lhs(mirrored, -E) >= E * E * Q)


def test_certify_records_discrepancy_without_failing(monkeypatch):
    monkeypatch.setitem(published.EPSILON, 3, F(1, 2))
    cfg = RunConfig(curvature_samples=200, quadform_samples=20, barrier_samples=10, seed=1)
    cert = certify(row(3), cfg)
    assert cert.overall_status == "passed"
    assert cert.discrepancies == ["epsilon"]
    assert all(c.satisfied for c in cert.checks)
    # the exact values epsilon = min(F(0), F(1)) was computed from ride along
    trace = ("F_at_0", "F_at_1", "f_min_coefficient_Q", "discriminant_D")
    assert {key: cert.values[key] for key in trace} == {
        "F_at_0": "909/176", "F_at_1": "9/11", "f_min_coefficient_Q": "-3/176", "discriminant_D": "24/121"
    }


def test_certify_unknown_row_rejected():
    with pytest.raises(ValueError):
        ParamSet.published_row(7)
