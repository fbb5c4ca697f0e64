"""The chain's discriminant D and quadratic-minimum coefficient Q against the oracle in quadmin_oracle."""

import random
from fractions import Fraction as F

import pytest
from quadmin_oracle import (
    DegenerateQuadraticError,
    QuadMinInput,
    critical_point,
    determinant,
    f_eval,
    f_min_bruteforce,
    gradient,
    hessian_entries,
    min_coefficient,
    random_valid_input,
)

from stabcert.curvature import ParamSet
from stabcert.optimize import exact_chain

ROW3 = dict(n=3, a=F(10, 11), alpha=F(18, 11), beta=F(3, 2))
ROW4 = dict(n=4, a=F(24, 25), alpha=F(51, 50), beta=F(5, 4))


def discriminant(n, a, alpha, beta):
    """The chain's D; D does not depend on b, and b = 1 passes the chain's b > 0 gate."""
    report, _ = exact_chain(ParamSet(n, a, F(1), alpha, beta))
    return report.entry("discriminant").margin


def f_min_coefficient(n, a, alpha, beta):
    """The chain's Q, which needs the Hessian gate (f_xx, f_yy, D > 0) to hold."""
    _, chain = exact_chain(ParamSet(n, a, F(1), alpha, beta))
    return chain.Q


def test_discriminant_values():
    assert discriminant(**ROW3) == determinant(**ROW3) == F(24, 121)
    assert discriminant(**ROW4) == determinant(**ROW4) == F(789, 2500)
    assert determinant(3, F(0), F(0), F(1)) == 0


def test_hessian_conditions():
    for row in (ROW3, ROW4):
        fxx, fyy, _ = hessian_entries(**row)
        assert fxx > 0 and fyy > 0 and discriminant(**row) > 0
    fxx, _, _ = hessian_entries(3, F(1, 2), F(18, 11), F(3, 2))
    assert fxx < 0


def test_critical_point_zero_linear_term():
    inp = QuadMinInput(**ROW3, linear_scale=F(0))
    assert critical_point(inp) == (0, 0)


def test_critical_point_linear_in_E():
    one = QuadMinInput(**ROW3, linear_scale=F(1))
    two = QuadMinInput(**ROW3, linear_scale=F(2))
    x1, y1 = critical_point(one)
    x2, y2 = critical_point(two)
    assert (x2, y2) == (2 * x1, 2 * y1)


def test_gradient_vanishes_at_critical_point():
    inp = QuadMinInput(**ROW3, linear_scale=F(1))
    x, y = critical_point(inp)
    assert (x, y) == (F(-1, 4), F(1, 8))
    assert gradient(inp, x, y) == (0, 0)


def test_f_eval_and_minimum():
    inp = QuadMinInput(**ROW3, linear_scale=F(1))
    assert f_eval(inp, F(0), F(0)) == 0
    x, y = critical_point(inp)
    assert f_eval(inp, x, y) == f_min_coefficient(**ROW3)  # E = 1


def test_f_min_coefficient_values():
    assert f_min_coefficient(**ROW3) == min_coefficient(**ROW3) == F(-3, 176)
    assert f_min_coefficient(**ROW4) == min_coefficient(**ROW4) == F(-20137, 5260)
    assert min_coefficient(3, F(10, 11), F(0), F(0)) == 0  # no linear term: the minimum is f(0, 0)


def test_f_dominates_minimum_on_random_points():
    rng = random.Random(11)
    inp = QuadMinInput(**ROW3, linear_scale=F(1))
    fmin = f_min_coefficient(**ROW3)
    for _ in range(500):
        x = F(rng.randrange(-100, 101), rng.randrange(1, 20))
        y = F(rng.randrange(-100, 101), rng.randrange(1, 20))
        assert f_eval(inp, x, y) >= fmin


def test_hessian_determinant_equals_discriminant():
    rng = random.Random(3)
    for _ in range(300):
        inp = random_valid_input(rng)
        fxx, fyy, fxy = hessian_entries(inp.n, inp.a, inp.alpha, inp.beta)
        D = discriminant(inp.n, inp.a, inp.alpha, inp.beta)
        # det H = D; equivalently 4(fxx*fyy - fxy^2) = (4/(n-2)) * ((n-2) D)
        assert fxx * fyy - fxy * fxy == D


def test_stationarity_and_minimality_on_random_inputs():
    rng = random.Random(4)
    for _ in range(200):
        inp = random_valid_input(rng)
        x, y = critical_point(inp)
        assert gradient(inp, x, y) == (0, 0)
        fmin = inp.linear_scale**2 * f_min_coefficient(inp.n, inp.a, inp.alpha, inp.beta)
        assert f_eval(inp, x, y) == fmin
        u = F(rng.randrange(-50, 51), rng.randrange(1, 10))
        v = F(rng.randrange(-50, 51), rng.randrange(1, 10))
        assert f_eval(inp, x + u, y + v) >= fmin


def test_minimum_scales_quadratically_in_E():
    rng = random.Random(9)
    inp = random_valid_input(rng)
    base = QuadMinInput(inp.n, inp.a, inp.alpha, inp.beta, F(1))
    scaled = QuadMinInput(inp.n, inp.a, inp.alpha, inp.beta, F(3))
    xb, yb = critical_point(base)
    xs, ys = critical_point(scaled)
    assert f_eval(scaled, xs, ys) == 9 * f_eval(base, xb, yb)


def test_degenerate_discriminant_rejected():
    # n = 3 with alpha = beta and a = alpha/2 gives D = 3(2a - alpha)^2 = 0
    assert discriminant(3, F(1), F(2), F(2)) == determinant(3, F(1), F(2), F(2)) == 0
    with pytest.raises(DegenerateQuadraticError):
        critical_point(QuadMinInput(3, F(1), F(2), F(2), F(1)))
    # the chain stops at its Hessian gate and computes no Q
    report, chain = exact_chain(ParamSet(3, F(1), F(1), F(2), F(2)))
    assert chain is None and not report.entry("discriminant").satisfied


def test_dimension_validated():
    with pytest.raises(ValueError):
        QuadMinInput(2, F(1), F(1), F(1))


class TestBruteForceOracle:
    def test_tracks_closed_form_on_row(self):
        inp = QuadMinInput(**ROW3, linear_scale=F(1))
        gap = f_min_bruteforce(inp) - float(f_min_coefficient(**ROW3))
        # one-sided up to double-precision roundoff (the grid hits the minimizer)
        assert -1e-9 <= gap <= 1e-4

    def test_zero_linear_scale(self):
        inp = QuadMinInput(**ROW3, linear_scale=F(0))
        assert abs(f_min_bruteforce(inp)) <= 1e-12

    def test_coarse_grid_one_sided(self):
        inp = QuadMinInput(**ROW3, linear_scale=F(1))
        assert f_min_bruteforce(inp, grid_steps=11) >= float(f_min_coefficient(**ROW3)) - 1e-9
