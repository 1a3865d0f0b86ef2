"""CRat, the exact scalar of Q(i), against the same formulas computed on
pairs of Fractions, and its one normal form shared with the jet store."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, strategies as st

from fedquant.jets import Chart, Jet
from fedquant.rational import CRat

fractions = st.builds(Fraction, st.integers(-30, 30),
                      st.sampled_from([1, 2, 3, 4, 6, 9, 10]))
pairs = st.tuples(fractions, fractions | st.just(Fraction(0)))


def crat(p):
    return CRat(*p)


def same(c, p):
    """The CRat c holds the value of the Fraction pair p, in lowest terms."""
    re, im = p
    den = c.den
    return (c.re == re and c.im == im and den > 0
            and gcd(c.re_num, c.im_num, den) == 1
            and c.re_num == re * den and c.im_num == im * den)


def pair_mul(p, q):
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def pair_inv(p):
    norm = p[0] * p[0] + p[1] * p[1]
    return p[0] / norm, -p[1] / norm


@given(pairs, pairs)
def test_ring_operations_match_fraction_pairs(p, q):
    a, b = crat(p), crat(q)
    assert same(a + b, (p[0] + q[0], p[1] + q[1]))
    assert same(a - b, (p[0] - q[0], p[1] - q[1]))
    assert same(-a, (-p[0], -p[1]))
    assert same(a * b, pair_mul(p, q))
    assert same(a.conjugate(), (p[0], -p[1]))
    assert (a == b) == (p == q)
    assert bool(a) == any(p)
    if any(q):
        assert same(a / b, pair_mul(p, pair_inv(q)))
    else:
        with pytest.raises(ZeroDivisionError):
            a / b


@given(pairs, fractions, st.integers(-3, 3))
def test_mixed_operands_match_fraction_pairs(p, x, n):
    a = crat(p)
    for s in (x, n):
        assert same(a + s, (p[0] + s, p[1]))
        assert same(s + a, (p[0] + s, p[1]))
        assert same(a - s, (p[0] - s, p[1]))
        assert same(s - a, (s - p[0], -p[1]))
        assert same(a * s, (p[0] * s, p[1] * s))
        assert same(s * a, (p[0] * s, p[1] * s))
        assert (a == s) == (p == (s, 0))
        if s:
            assert same(a / s, (p[0] / s, p[1] / s))
    if any(p):
        assert same(x / a, pair_mul((x, 0), pair_inv(p)))
        assert same(n / a, pair_mul((n, 0), pair_inv(p)))


@given(pairs, st.integers(-4, 6))
def test_power_matches_repeated_fraction_products(p, k):
    assume(k >= 0 or any(p))
    want = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        want = pair_mul(want, p)
    if k < 0:
        want = pair_inv(want)
    assert same(crat(p) ** k, want)


def test_parts_are_reduced_fractions():
    c = CRat.from_ints(6, -4, 8)
    assert (c.re_num, c.im_num, c.den) == (3, -2, 4)
    assert type(c.re) is Fraction and type(c.im) is Fraction
    assert (c.re.numerator, c.re.denominator) == (3, 4)
    assert (c.im.numerator, c.im.denominator) == (-1, 2)
    assert CRat(Fraction(2, 6), Fraction(1, 4)).den == 12


@pytest.mark.parametrize("value, text", [
    (CRat(0), "0"),
    (CRat(-3), "-3"),
    (CRat(Fraction(5, 7)), "5/7"),
    (CRat(0, Fraction(-1, 2)), "-1/2*i"),
    (CRat(0, 1), "1*i"),
    (CRat(Fraction(1, 2), Fraction(-3, 4)), "1/2-3/4*i"),
    (CRat(-2, Fraction(1, 3)), "-2+1/3*i"),
])
def test_str_forms(value, text):
    assert str(value) == text


def test_hash_agrees_with_equality():
    assert len({1, CRat(1)}) == 1
    assert len({Fraction(1, 2), CRat(Fraction(1, 2))}) == 1
    assert hash(CRat(0)) == hash(0)
    assert hash(CRat(Fraction(-7, 3))) == hash(Fraction(-7, 3))
    assert {CRat(1, 2): "x"}[CRat(Fraction(2, 2), 2)] == "x"


def test_inputs_are_exact():
    assert CRat("1/3") == Fraction(1, 3)
    assert CRat("-2", "3/4") == CRat(-2, Fraction(3, 4))
    c = CRat(1, 2)
    assert CRat(c) is c
    for bad in (1.1, 0.5, 1j, complex(1, 0)):
        with pytest.raises(TypeError):
            CRat(bad)
    with pytest.raises(TypeError):
        CRat(0, 0.5)


def test_jet_store_round_trips_through_coeffs():
    chart = Chart(("x", "y"), (0, 0))
    coeffs = {(0, 0): CRat(Fraction(1, 6), 2), (1, 0): Fraction(-3, 4),
              (0, 2): CRat(0, Fraction(5, 9)), (1, 1): 7}
    jet = Jet(chart, 3, 3, coeffs)
    assert jet.den == 36
    back = Jet(chart, 3, 3, jet.coeffs)
    assert (back.den, back.terms) == (jet.den, jet.terms)
    assert jet.coeffs == {k: CRat(v) for k, v in coeffs.items()}
    for alpha, c in jet.coeffs.items():
        assert jet.coefficient(alpha) == c
    assert jet.constant_term == CRat(Fraction(1, 6), 2)
    assert Jet.constant(chart, CRat(Fraction(2, 6), 1), 3).constant_term \
        == CRat(Fraction(1, 3), 1)
