from fractions import Fraction as F

import mpmath
import pytest

from stabcert import bubble, published
from stabcert.bubble import (
    barrier_ode_check,
    derive,
    growth_constants,
    quadform_lower_bound_check,
    x0_y0,
)
from stabcert.curvature import ParamSet
from stabcert.optimize import exact_chain, feasibility


def row(n):
    return ParamSet.published_row(n)


def eps(n):
    return published.EPSILON[n]


def chain(p):
    return exact_chain(p)[1]


def branches(n):
    return derive(row(n), eps(n), published.GAMMA0[n])


class TestSpectral:
    def test_row4(self):
        report = feasibility(row(4))
        assert report.all_satisfied
        assert chain(row(4)).spectral_coeff == F(15625, 7854)
        assert report.entry("spectral_bound").margin == F(83, 7854)

    def test_row5(self):
        report = feasibility(row(5))
        assert report.all_satisfied
        assert report.entry("spectral_bound").margin == F(1893, 4800350)

    def test_row3_bound_not_applicable(self):
        # the (n-2)/(n-3) bound needs n > 3, so the n = 3 chain has no such margin
        report = feasibility(row(3))
        assert report.all_satisfied
        with pytest.raises(KeyError):
            report.entry("spectral_bound")

    def test_pole_at_q_equal_4(self):
        # the chain computes no coefficient at the pole and reports the margin undefined
        report, values = exact_chain(ParamSet(4, F(1), F(2), F(1, 2), F(1, 2)))  # q = 4
        assert values.spectral_coeff is None
        assert report.entry("spectral_bound").detail == "undefined: q >= 4"
        bad = ParamSet(3, F(1), F(4), F(1), F(1))  # q = 4
        entry = feasibility(bad).entry("q_below_4")
        assert not entry.satisfied and entry.margin == 0


def without_mcc(p):
    """The chain stops at the Ricci denominator and computes no mean-curvature coefficient."""
    report, values = exact_chain(p)
    assert not report.entry("ricci_coeff_denominator").satisfied
    assert report.entry("young_numerator").detail == "undefined: upstream failure"
    return values.mean_curv_coeff is None


class TestMeanCurvature:
    def test_values(self):
        assert chain(row(3)).mean_curv_coeff == F(17, 22)
        assert chain(row(4)).mean_curv_coeff == F(10423, 21375)
        assert chain(row(5)).mean_curv_coeff == F(313487, 1089648)

    def test_numerator_vanishing_boundary(self):
        # at n = 3 the coefficient reduces to (2 beta + alpha)/(4 beta); the
        # alpha = 2 beta point where 4 beta^2 - alpha^2 = 0 also zeroes the
        # denominator and sits outside the precondition
        assert chain(ParamSet(3, F(2), F(1), F(199, 100), F(1))).mean_curv_coeff == (2 + F(199, 100)) / 4
        assert without_mcc(ParamSet(3, F(2), F(1), F(2), F(1)))

    def test_precondition(self):
        assert without_mcc(ParamSet(3, F(3), F(1), F(3), F(1)))  # alpha/beta = 3 >= 2 = (n-1)/(n-2)


class TestQuadFormBound:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_clean_and_tight(self, n):
        p = row(n)
        checks = quadform_lower_bound_check(p.n, p.alpha, p.beta, chain(p).mean_curv_coeff, sample_count=400, seed=3)
        assert all(c.satisfied for c in checks)

    def test_zero_case(self):
        # mu1 = H = 0 trivially passes; included in the sampled sweep
        checks = quadform_lower_bound_check(3, F(18, 11), F(3, 2), F(17, 22), sample_count=10, seed=0)
        assert all(c.satisfied for c in checks)

    def test_draw_table_is_a_bijection_onto_the_grid(self):
        draws = bubble._QUAD_DRAWS
        grid = {(num, den) for num in range(-200, 201) for den in range(1, 20)}
        assert len(draws) == len(set(draws)) == 401 * 19
        assert set(draws) == grid


class TestYoungParameter:
    def test_l_max_rows(self):
        for n in (3, 4, 5):
            p = row(n)
            assert chain(p).L_max == published.L_VALUES[n]

    def test_row3_margin_identity(self):
        # 17/22 - 9/20 - (71/11)(1/20) = 0 exactly
        assert F(17, 22) - F(9, 20) - F(71, 11) * F(1, 20) == 0
        assert chain(row(3)).L_max == F(71, 11)

    def test_margin_positive_below_l_max(self):
        p = row(4)
        numerator = feasibility(p).entry("young_numerator").margin
        assert numerator == chain(p).mean_curv_coeff + 1 / p.q - 1
        cross = abs(F(1, 2) - 1 / p.q)
        L = chain(p).L_max
        assert numerator - L * cross == 0
        assert numerator - (L - F(1, 100)) * cross > 0
        assert numerator - (L + F(1, 100)) * cross < 0

    def test_unconstrained_at_q_two(self):
        # q = 2: the cross term vanishes; any Young parameter works
        p = ParamSet(3, F(1), F(3), F(18, 11), F(3, 2))
        report, values = exact_chain(p)
        assert values.L_max is None
        bare = report.entry("gamma0_bare").margin
        assert bare == F(1, 2)
        _, with_ratio = derive(p, eps(3), bare)
        assert with_ratio.gamma0 == F(1, 2) * F(3, 2) / F(18, 11)

    def test_nonpositive_numerator_rejected(self):
        # mcc = 5/8 at (beta, alpha) = (1, 1/2); q = 3 makes the numerator negative
        report, values = exact_chain(ParamSet(3, F(1), F(3), F(1, 2), F(1)))
        assert values.mean_curv_coeff == F(5, 8)
        assert report.entry("young_numerator").margin == F(5, 8) + F(1, 3) - 1 < 0
        assert values.L_max is None
        assert report.entry("gamma0_bare").detail == "undefined: no Young parameter"

    def test_l_max_decreasing_in_half_term(self):
        import random

        rng = random.Random(6)
        for _ in range(50):
            mcc = F(rng.randrange(1, 30), rng.randrange(20, 40))
            q1 = F(rng.randrange(21, 35), 10)  # > 2
            q2 = q1 + F(rng.randrange(1, 10), 10)
            num = mcc + 1 / q1 - 1
            if num <= 0:
                continue
            h1, h2 = abs(F(1, 2) - 1 / q1), abs(F(1, 2) - 1 / q2)
            assert h2 > h1
            assert num / h2 < num / h1  # larger |1/2 - 1/q| shrinks L_max at fixed numerator


class TestGamma0:
    def test_rows_bare_match_published(self):
        for n in (3, 4, 5):
            p = row(n)
            bare = feasibility(p).entry("gamma0_bare").margin
            L = chain(p).L_max
            assert bare == 1 / p.q - (1 / L) * abs(F(1, 2) - 1 / p.q) == published.GAMMA0[n]
            conventions = [(b.convention, b.gamma0) for b in derive(p, eps(n), bare)]
            assert conventions == [("bare", bare), ("with_ratio", bare * p.beta / p.alpha)]

    def test_row3_with_ratio_value(self):
        _, with_ratio = branches(3)
        assert with_ratio.gamma0 == F(77, 142) * F(11, 12) == F(847, 1704)


def square(surd):
    """The exact square coeff^2 * radicand of a QuadSurd."""
    return surd.coeff**2 * surd.radicand


def surd_identities_hold(alpha, beta, eps, gamma0, x0, y0) -> bool:
    """x0 y0 = eps/(4 beta) and y0/x0 = alpha gamma0/(2 beta), exactly.

    They hold for every positive input, so the tests prove them and no
    certificate carries them.  Both amplitudes are positive, so each identity
    is its square, compared in rationals.
    """
    return (
        x0.coeff > 0 and y0.coeff > 0
        and square(x0) * square(y0) == eps**2 / (16 * beta**2)
        and square(y0) / square(x0) == alpha**2 * gamma0**2 / (4 * beta**2)
    )


class TestBarrier:
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("convention", ["bare", "with_ratio"])
    def test_surd_identities(self, n, convention):
        p = row(n)
        branch = {b.convention: b for b in branches(n)}[convention]
        assert surd_identities_hold(p.alpha, p.beta, eps(n), branch.gamma0, branch.x0, branch.y0)

    def test_scaling_in_epsilon(self):
        # four times epsilon doubles both amplitudes
        p = row(3)
        g = published.GAMMA0[3]
        x1, y1 = x0_y0(p.alpha, p.beta, eps(3), g)
        x4, y4 = x0_y0(p.alpha, p.beta, 4 * eps(3), g)
        assert min(x1.coeff, y1.coeff, x4.coeff, y4.coeff) > 0
        assert square(x4) == 4 * square(x1) and square(y4) == 4 * square(y1)

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ValueError, match="radicand must be nonnegative"):
            x0_y0(F(1), F(1), F(-1), F(1))
        with pytest.raises(ZeroDivisionError):
            x0_y0(F(1), F(1), F(1), F(0))

    def test_ode_residuals_row3(self):
        for branch in branches(3):
            [check] = barrier_ode_check(branch.x0, branch.y0, sample_count=100)
            assert check.satisfied, check.detail

    def test_ode_midpoint_and_oddness(self):
        branch = branches(3)[0]
        with mpmath.workdps(50):
            x0 = branch.x0.approx_mp()
            y0 = branch.y0.approx_mp()

            def eta(t):
                return -x0 * mpmath.tan(y0 * t - mpmath.pi / 2)

            mid = mpmath.pi / (2 * y0)
            assert abs(eta(mid)) < mpmath.mpf("1e-45")
            t = mpmath.pi / (5 * y0)
            assert abs(eta(t) + eta(mpmath.pi / y0 - t)) < mpmath.mpf("1e-40")


class TestGrowthConstants:
    def test_row3_prefactor_is_two(self):
        # (n-2) alpha / eps = (18/11)/(9/11) = 2; area factor 2 * Area(S^2) = 8 pi
        p = row(3)
        assert (p.n - 2) * p.alpha / eps(3) == 2
        area = mpmath.mpf(branches(3)[0].area_const.value)
        assert abs(area - 8 * mpmath.pi) / (8 * mpmath.pi) < 1e-10

    def test_epsilon_doubling_halves_base(self):
        p = row(3)
        g = published.GAMMA0[3]
        _, y0 = x0_y0(p.alpha, p.beta, eps(3), g)
        area1, _ = growth_constants(p.n, p.alpha, eps(3), y0)
        area2, _ = growth_constants(p.n, p.alpha, 2 * eps(3), y0)
        ratio = mpmath.mpf(area1.value) / mpmath.mpf(area2.value)
        assert abs(ratio - 2) < 1e-9  # exponent (n-1)/2 = 1 at n = 3

    def test_volume_positive_and_annotated(self):
        for branch in branches(4):
            assert branch.volume_const.digits == 12
            assert mpmath.mpf(branch.volume_const.value) > 0

