"""The reads of a jet's packed store that other modules make through the
jet layer (``Jet.split``, ``Jet.leading``, ``Jet.monomials``, the
interning sign of curvature entries, ``Jet.agrees_with``) and the one
power-series composition, against the older inline forms kept in
``tests/reference.py`` or the ``coeffs`` view.  Results are compared with
``==``, validity included, on jets of the n = 1 and n = 2 phase charts,
with complex coefficients, validity 0 and zero jets among the draws."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

import reference
from fedquant.geometry import _lead_sign, build_flat, phase_chart
from fedquant.jets import (ChartMismatch, Jet, jet_cos, jet_exp, jet_log,
                           jet_sin, jet_sqrt)
from fedquant.quantization import fiber_decompose
from fedquant.rational import CRat

CHARTS = {n: phase_chart(n) for n in (1, 2)}

fractions = st.builds(Fraction, st.integers(-9, 9),
                      st.sampled_from([1, 2, 3, 4, 9]))
crats = st.builds(CRat, fractions, fractions | st.just(Fraction(0)))
# constant terms that pass or fail each domain check: zero (the only one
# exp, sin and cos take), one, rational squares, a negative, a non-square
# and complex values
constants = st.one_of(
    st.just(CRat(0)),
    st.sampled_from([1, Fraction(9, 4), Fraction(1, 4), -4, 2]).map(CRat),
    crats)


@st.composite
def jets(draw, n, constant=None):
    valid = draw(st.integers(0, 4))
    dim = 2 * n
    keys = [k for k in product(range(valid + 1), repeat=dim)
            if sum(k) <= valid]
    coeffs = draw(st.dictionaries(st.sampled_from(keys), crats,
                                  max_size=6))
    if constant is not None:
        coeffs[(0,) * dim] = draw(constant)
    return Jet(CHARTS[n], valid, valid, coeffs)


phase_jets = st.sampled_from((1, 2)).flatmap(jets)


def outcome(fn, *args):
    """The result, or the type and message of the error raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@given(phase_jets, st.data())
def test_split_equals_the_packed_loop(f, data):
    head = data.draw(st.integers(0, f.chart.dim))
    pieces = f.split(head)
    assert pieces == reference.split_by_keys(f, head)
    assert all(j.chart is f.chart.sub(range(head)) for j in pieces.values())


@given(phase_jets)
def test_fiber_decompose_is_the_split_at_the_fiber(f):
    n = f.chart.dim // 2
    geom = build_flat(n, 4)
    assert fiber_decompose(f, geom) == reference.split_by_keys(f, n)
    with pytest.raises(ChartMismatch):
        fiber_decompose(f, build_flat(3 - n, 4))


def test_split_lowers_the_validity_by_the_tail_degree():
    q, p = (Jet.variable(CHARTS[1], i, 5) for i in range(2))
    pieces = (q * p * p + p + 3).split(1)
    assert {tail: j.valid_order for tail, j in pieces.items()} \
        == {(0,): 5, (1,): 4, (2,): 3}
    assert pieces[(2,)] == Jet.variable(pieces[(0,)].chart, 0, 3)


@st.composite
def jet_pairs(draw):
    """Two jets on one phase chart, each of its own validity: drawn apart,
    or the second one the first up to a shared order with terms over 5 or
    7 added above it, and maybe one coefficient moved by 1/5 or i/7."""
    n = draw(st.sampled_from((1, 2)))
    a = draw(jets(n))
    how = draw(st.sampled_from(["apart", "above", "moved"]))
    if how == "apart":
        return how, a, draw(jets(n))
    vb = draw(st.integers(0, 5))
    shared = min(a.valid_order, vb)
    coeffs = {k: c for k, c in a.coeffs.items() if sum(k) <= shared}
    keys = [k for k in product(range(vb + 1), repeat=2 * n)
            if shared < sum(k) <= vb]
    if keys:
        extra = st.builds(CRat, st.integers(-9, 9).map(
            lambda x: Fraction(x, 5)), st.integers(-9, 9).map(
            lambda x: Fraction(x, 7)))
        coeffs.update(draw(st.dictionaries(st.sampled_from(keys), extra,
                                           max_size=4)))
    if how == "moved":
        keys = [k for k in product(range(shared + 1), repeat=2 * n)
                if sum(k) <= shared]
        k = draw(st.sampled_from(keys))
        step = draw(st.sampled_from([CRat(Fraction(1, 5)),
                                     CRat(0, Fraction(1, 7))]))
        coeffs[k] = coeffs.get(k, CRat(0)) + step
    return how, a, Jet(CHARTS[n], vb, vb, coeffs)


@given(jet_pairs())
def test_agrees_with_equals_the_dict_comparison(case):
    """Coprime denominators (up to 4 or 9 against 5 or 7), unequal
    validities, complex coefficients and zero jets; a jet rebuilt up to
    the shared order agrees whatever lies above it, and one moved
    coefficient breaks the agreement."""
    how, a, b = case
    for x, y in [(a, b), (b, a), (a, a), (b, b)]:
        assert x.agrees_with(y) == reference.agrees_with(x, y)
    if how != "apart":
        assert a.agrees_with(b) == (how == "above")


@given(phase_jets)
def test_leading_is_the_first_stored_term(f):
    assert f.leading() == reference.first_term(f)


def test_leading_is_the_lowest_term_in_degree_then_index_order():
    q, p = (Jet.variable(CHARTS[1], i, 4) for i in range(2))
    assert (p * p * 3 + q * p - p * 2).leading() == ((0, 1), CRat(-2))
    assert Jet.zero(CHARTS[1], 4).leading() is None


@given(phase_jets)
def test_monomials_are_the_stored_terms(f):
    """Each stored term is its coefficient times a unit monomial of the
    jet's validity, the scaled units sum to the jet store for store, and a
    zero jet has no term."""
    parts = f.monomials()
    assert len(parts) == len(f.coeffs)
    acc = Jet.zero(f.chart, f.valid_order)
    for c, unit in parts:
        ((alpha, one),) = unit.coeffs.items()
        assert one == 1 and c == f.coefficient(alpha)
        assert unit.valid_order == f.valid_order
        acc = acc + unit * c
    assert acc == f
    if f.is_zero():
        assert parts == []


@given(phase_jets)
def test_interning_sign_equals_the_packed_rule(g):
    sign = _lead_sign(g)
    assert sign == reference.interning_sign(g)
    assert _lead_sign(-g) == (sign if g.is_zero() else -sign)


ELEMENTARY = [(Jet.invert, reference.invert), (jet_exp, reference.jet_exp),
              (jet_log, reference.jet_log), (jet_sqrt, reference.jet_sqrt),
              (jet_sin, reference.jet_sin), (jet_cos, reference.jet_cos)]


@pytest.mark.parametrize("new, old", ELEMENTARY,
                         ids=[old.__name__ for _, old in ELEMENTARY])
@given(st.sampled_from((1, 2)).flatmap(
    lambda n: jets(n, constant=constants)))
def test_series_equal_their_own_loops(new, old, a):
    """The value, validity included, or the domain error and its
    message."""
    assert outcome(new, a) == outcome(old, a)

