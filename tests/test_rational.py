import operator
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stabcert.rational import QuadSurd, Unreduced, rational_from_str, rational_to_str, sqrt_exact

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)


@given(rationals, rationals)
def test_rational_arithmetic_stays_reduced(a, b):
    from math import gcd

    for value in (a + b, a - b, a * b):
        assert gcd(abs(value.numerator), value.denominator) == 1
        assert value.denominator > 0


@given(rationals, rationals, rationals)
def test_rational_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


def test_rational_division_exact():
    assert F(1, 3) + F(1, 6) == F(1, 2)
    assert F(30, 11) * F(1, 3) == F(10, 11)
    assert F(20, 21) * F(21, 22) == F(10, 11)
    with pytest.raises(ZeroDivisionError):
        F(1) / F(0)


def test_serialization_p_over_q():
    assert rational_to_str(F(9, 11)) == "9/11"
    assert rational_to_str(F(3)) == "3/1"
    assert rational_to_str(F(-3, 4)) == "-3/4"
    assert F("979826999/65363627000") == F(979826999, 65363627000)
    x = F(-123456, 789)
    assert F(rational_to_str(x)) == x


@given(rationals)
def test_parse_inverts_serialization(x):
    assert rational_from_str(rational_to_str(x)) == x == F(rational_to_str(x))


@pytest.mark.parametrize("text, value", [("2/4", F(1, 2)), ("-6/4", F(-3, 2)), ("0/7", F(0)), ("-5", F(-5))])
def test_parse_reads_an_integer_pair_reduced_or_not(text, value):
    # a reader that requires the canonical form compares rational_to_str of the value
    assert rational_from_str(text) == value


@pytest.mark.parametrize("text", ["1/0", "0.5", "1e3", "a/b", "1/2/3", "/2", "", 3, None, F(1, 2), b"1/2"])
def test_parse_refuses_all_but_an_integer_pair(text):
    with pytest.raises(ValueError, match="is not a rational p/q$"):
        rational_from_str(text)


@pytest.mark.parametrize(
    "text",
    [
        "1/-2", "1/-3", "-1/-2", "0/-1",  # the sign is the numerator's
        "+1/2", "1/+2", "+5",
        " 1/2", "1/ 2", "1/2 ", "1 /2", "1/2\n",
        "1_0/3", "1/1_0",
        "01/2", "1/02", "-01/2", "00/1", "-0/1", "-0/7", "-0",
        "\u0661/\u0662", "1/\u0662", "\uff11/2",  # Arabic-Indic and fullwidth digits
    ],
)
def test_parse_refuses_integers_str_does_not_write(text):
    # int() reads each of these, but rational_to_str never writes one
    with pytest.raises(ValueError, match="is not a rational p/q$"):
        rational_from_str(text)


small_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=30)
# each operation drawn by name, so that a failure reads as the sequence that ran;
# every operation takes two operands, and the unary ones ignore the second
_OPERATIONS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
    "abs": lambda x, _: abs(x),
    **{f"**{e}": lambda x, _, e=e: x**e for e in range(4)},
}
# the comparisons the exact chain makes
_COMPARISONS = {"==": operator.eq, "<": operator.lt, ">": operator.gt}


def unreduced(value: F, scale: int) -> Unreduced:
    """``value`` as the pair (scale p)/(scale q), so 1/2 at scale 2 is 2/4."""
    return Unreduced(value.numerator * scale) / Unreduced(value.denominator * scale)


@given(st.lists(st.tuples(small_rationals, st.integers(1, 6)), min_size=1, max_size=4), st.data())
def test_unreduced_agrees_with_fraction(start, data):
    # a pool of values, each held as an Unreduced and as a Fraction: every step
    # compares two members of the pool, or applies one operation to them on
    # both types and adds the result to the pool; eight steps of cubes keep the
    # integers within a few hundred thousand bits
    pool = [(unreduced(value, scale), value) for value, scale in start]
    pool.append((unreduced(F(0), 3), F(0)))
    for _ in range(data.draw(st.integers(1, 8))):
        (u, f), (v, g) = data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool))
        for name, compare in _COMPARISONS.items():
            assert compare(u, v) == compare(f, g), (u, name, v)
        name = data.draw(st.sampled_from(sorted(_OPERATIONS)))
        operation = _OPERATIONS[name]
        try:
            want = operation(f, g)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                operation(u, v)
            continue
        result = operation(u, v)
        assert type(result) is Unreduced and result.denominator > 0
        assert F(result.numerator, result.denominator) == want, (u, name, v)
        pool.append((result, want))


def test_unreduced_examples():
    half, two_quarters = Unreduced(F(1, 2)), unreduced(F(1, 2), 2)
    assert (two_quarters.numerator, two_quarters.denominator) == (2, 4)
    assert two_quarters == half and not two_quarters != half  # != is the negation Python derives from ==
    assert not two_quarters < half and not half > two_quarters
    # a division by a negative value moves the sign to the numerator
    third = Unreduced(1) / Unreduced(-3)
    assert (third.numerator, third.denominator) == (-1, 3) and third < Unreduced(0)
    with pytest.raises(ZeroDivisionError):
        Unreduced(1) / unreduced(F(0), 5)
    with pytest.raises(TypeError):
        hash(half)


@pytest.mark.parametrize("apply", [lambda u, v: -u, operator.le, operator.ge], ids=["neg", "<=", ">="])
def test_unreduced_has_no_operation_the_chain_never_applies(apply):
    with pytest.raises(TypeError):
        apply(Unreduced(F(1, 2)), Unreduced(F(2, 3)))


def test_sqrt_exact():
    assert sqrt_exact(F(4, 9)) == F(2, 3)
    assert sqrt_exact(F(0)) == 0
    assert sqrt_exact(F(2)) is None
    assert sqrt_exact(F(-1)) is None
    assert sqrt_exact(F(979826999**2, 65363627000**2)) == F(979826999, 65363627000)


class TestQuadSurd:
    def test_canonicalization_folds_perfect_squares(self):
        s = QuadSurd.make(1, F(4, 9))
        assert (s.coeff, s.radicand) == (F(2, 3), 1)
        z = QuadSurd.make(0, F(7))
        assert (z.coeff, z.radicand) == (0, 1)
        z = QuadSurd.make(3, 0)
        assert (z.coeff, z.radicand) == (0, 1)

    def test_barrier_style_product_collapses(self):
        # x0*y0 with x0 = sqrt(e/(2 a g)), y0 = (1/(2 b)) sqrt(a e g / 2) -> e/(4 b),
        # in squares of the positive amplitudes: (x0 y0)^2 = (e/(4 b))^2, (y0/x0)^2 = (a g/(2 b))^2
        e, a, g, b = F(9, 11), F(18, 11), F(77, 142), F(3, 2)
        x0 = QuadSurd.make(1, e / (2 * a * g))
        y0 = QuadSurd.make(1 / (2 * b), a * e * g / 2)
        x0_sq, y0_sq = x0.coeff**2 * x0.radicand, y0.coeff**2 * y0.radicand
        assert x0_sq * y0_sq == (e / (4 * b)) ** 2
        assert y0_sq / x0_sq == (a * g / (2 * b)) ** 2

    def test_float_mirror_agrees(self):
        import random

        rng = random.Random(5)
        for _ in range(200):
            coeff = F(rng.randrange(-50, 51) or 1, rng.randrange(1, 30))
            rad = F(rng.randrange(0, 80), rng.randrange(1, 30))
            s = QuadSurd.make(coeff, rad)
            hi = float(s.approx_mp())
            assert (hi > 0) - (hi < 0) == (s.coeff > 0) - (s.coeff < 0)
            assert float(s.coeff**2 * s.radicand) == pytest.approx(hi * hi, rel=1e-12, abs=1e-300)

    def test_str_roundtrip(self):
        # certificates store x0, y0 as "r*sqrt(s)"; the two rationals give the value back
        s = QuadSurd.make(F(-1, 2), F(8, 3))
        coeff, _, radicand = str(s).partition("*sqrt(")
        back = QuadSurd.make(F(coeff), F(radicand.removesuffix(")")))
        assert (back.coeff, back.radicand) == (s.coeff, s.radicand)
        assert str(QuadSurd.make(1, F(2, 3))) == "1/1*sqrt(2/3)"
        # one value, two strings: no square factor leaves the radicand
        assert (str(QuadSurd.make(1, 8)), str(QuadSurd.make(2, 2))) == ("1/1*sqrt(8/1)", "2/1*sqrt(2/1)")

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            QuadSurd.make(1, -2)
