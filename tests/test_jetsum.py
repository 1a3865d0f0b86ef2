"""The exact accumulator: JetSum against a left fold of ``*`` and ``+``,
and the one-term product against a direct Fraction convolution."""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

from fedquant.jets import Chart, Jet, JetSum, product_vanishes
from fedquant.rational import CRat

CHARTS = {d: Chart(tuple(f"x{i}" for i in range(d)), (0,) * d)
          for d in (1, 2, 3)}

# denominators with unrelated prime factors, so the common denominator of a
# sum has to grow part way through it
fractions = st.builds(Fraction, st.integers(-40, 40),
                      st.sampled_from([1, 2, 3, 5, 7, 9, 11, 13, 25, 49]))
crats = st.builds(CRat, fractions, fractions | st.just(Fraction(0)))
scalars = st.integers(-3, 3) | fractions | crats


@st.composite
def jets(draw, dim):
    valid = draw(st.integers(0, 4))
    top = draw(st.integers(valid, valid + 2))
    keys = [k for k in product(range(valid + 1), repeat=dim)
            if sum(k) <= valid]
    coeffs = draw(st.dictionaries(st.sampled_from(keys), crats,
                                  max_size=6))
    return Jet(CHARTS[dim], top, valid, coeffs)


@st.composite
def sums(draw):
    dim = draw(st.integers(1, 3))
    terms = draw(st.lists(
        st.tuples(jets(dim), st.none() | jets(dim), scalars),
        min_size=1, max_size=5))
    # append the negation of a prefix, so some sums cancel to exact zero
    cut = draw(st.integers(0, len(terms)))
    terms += [(a, b, -s) for a, b, s in terms[:cut]]
    return terms


def fold(terms):
    acc = None
    for a, b, s in terms:
        t = (a if b is None else a * b) * s
        acc = t if acc is None else acc + t
    return acc


def direct_product(a, b):
    """Jet product by pairwise Fraction arithmetic, without JetSum."""
    v = min(a.valid_order, b.valid_order)
    out = {}
    for (ka, ca), (kb, cb) in product(a.coeffs.items(), b.coeffs.items()):
        key = tuple(x + y for x, y in zip(ka, kb))
        if sum(key) <= v:
            out[key] = out.get(key, CRat(0)) + ca * cb
    return Jet(a.chart, min(a.max_order, b.max_order), v, out)


def same(x, y):
    return (x.coeffs == y.coeffs and x.valid_order == y.valid_order
            and x.max_order == y.max_order)


@settings(max_examples=200, deadline=None)
@given(sums())
def test_jetsum_equals_left_fold(terms):
    acc = JetSum()
    for a, b, s in terms:
        acc.add(a, b, s)
    assert same(acc.jet(), fold(terms))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(jets(d), jets(d))),
       scalars)
def test_single_term_product_matches_direct_convolution(pair, s):
    a, b = pair
    ab = a * b
    assert same(ab, direct_product(a, b))
    assert product_vanishes(a, b) == ab.is_zero()
    scaled = a * s
    want = {k: c * s for k, c in a.coeffs.items()}
    assert same(scaled, Jet(a.chart, a.max_order, a.valid_order, want))


def test_empty_sum_returns_the_given_default():
    zero = Jet.zero(CHARTS[1], 3)
    assert JetSum().jet() is None
    assert JetSum().jet(zero) is zero


def test_cancelling_sum_keeps_the_smallest_validity():
    x = Jet.variable(CHARTS[2], 0, 5)
    y = Jet.variable(CHARTS[2], 1, 2)
    acc = JetSum()
    acc.add(x, x, Fraction(1, 3))
    acc.add(y, s=Fraction(2, 7))
    acc.add(x, x, Fraction(-1, 3))
    acc.add(y, s=Fraction(-2, 7))
    out = acc.jet()
    assert out.is_zero() and out.valid_order == 2 and out.max_order == 2
