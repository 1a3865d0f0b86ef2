"""Truncated jet arithmetic: ring ops, validity tracking, elementary maps."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fedquant.jets import (Chart, ChartMismatch, DomainError, Jet, JetError,
                           OrderExhausted, jet_cos, jet_exp, jet_log,
                           jet_sin, jet_sqrt)
from fedquant.rational import CRat


CH = Chart(("x", "y"), (0, 0))


def var(i, order=6):
    return Jet.variable(CH, i, order)


def const(c, order=6):
    return Jet.constant(CH, c, order)


def test_ring_basics():
    x, y = var(0), var(1)
    f = (x + y) * (x - y)
    g = x * x - y * y
    assert f == g
    assert (f - g).is_zero()
    assert (f * 0).is_zero()
    assert (f + 3).coeffs[(0, 0)] == CRat(3)


def test_multiplication_truncates_at_valid_order():
    x = var(0, 3)
    p = (x + 1) ** 5
    assert p.valid_order == 3
    # binomial coefficients survive through degree 3
    assert p.coeffs[(3, 0)] == CRat(10)
    assert (4, 0) not in p.coeffs


def test_partial_consumes_one_order():
    x, y = var(0), var(1)
    f = x * x * y
    fx = f.partial(0)
    assert fx.valid_order == 5
    assert fx == (var(0, 5) * var(1, 5) * 2).truncate(5)


def test_partial_exhaustion_raises():
    x = var(0, 1)
    with pytest.raises(OrderExhausted):
        x.partial(0).partial(0)


def test_partial_of_zero_jet_is_free():
    z = Jet.zero(CH, 0)
    assert z.partial(0).is_zero()


def test_chart_mismatch_detected():
    other = Chart(("u",), (0,))
    with pytest.raises(ChartMismatch):
        var(0) + Jet.variable(other, 0, 6)


def test_variable_includes_base_value():
    ch = Chart(("x",), (Fraction(1, 2),))
    x = Jet.variable(ch, 0, 4)
    assert x.constant_term == CRat(Fraction(1, 2))


def test_invert_roundtrip():
    x = var(0)
    f = const(2) + x + x * x
    assert (f * f.invert()).agrees_with(const(1))


def test_invert_needs_nonzero_base_value():
    with pytest.raises(DomainError):
        var(0).invert()


def test_division_by_jet():
    x = var(0)
    f = x * x + 1
    assert ((f / f)).agrees_with(const(1))


def test_exp_log_inverse():
    x, y = var(0), var(1)
    f = x + y * y * Fraction(1, 3)
    assert jet_log(jet_exp(f) ).agrees_with(f)


def test_exp_adds_products():
    x, y = var(0), var(1)
    lhs = jet_exp(x) * jet_exp(y)
    assert lhs.agrees_with(jet_exp(x + y))


def test_sqrt_squares_back():
    x = var(0)
    f = const(4) + x
    s = jet_sqrt(f)
    assert (s * s).agrees_with(f)
    assert s.constant_term == CRat(2)


def test_sqrt_irrational_base_rejected():
    with pytest.raises(DomainError):
        jet_sqrt(const(2) + var(0))


def test_pythagorean_identity():
    x, y = var(0), var(1)
    f = x + x * y
    s, c = jet_sin(f), jet_cos(f)
    assert (s * s + c * c).agrees_with(const(1))


def test_log_needs_unit_base():
    with pytest.raises(DomainError):
        jet_log(var(0))


def test_truncate_and_agrees_with_shared_order():
    x = var(0)
    f = (x + 1) ** 4
    g = f.truncate(2)
    assert f.agrees_with(g)          # compares through order 2
    assert g.truncate(3) is g        # truncation never raises validity
    h = f - x ** 3                   # differs from f at order 3 only
    assert h.agrees_with(g) and not h.agrees_with(f.truncate(3))


def test_conjugate_on_paired_chart():
    cc = Chart(("z", "zb"), (0, 0), conj=(1, 0))
    z = Jet.variable(cc, 0, 4)
    zb = Jet.variable(cc, 1, 4)
    f = z * z * CRat(0, 1) + zb
    fc = f.conjugate()
    assert fc.agrees_with(zb * zb * CRat(0, -1) + z)


def test_restrict_and_embed():
    x = var(0)
    f = x * x + 2
    sub = f.restrict((0,))
    assert sub.chart.names == ("x",)
    back = sub.embed(CH, (0,))
    assert back.agrees_with(f)


def test_restrict_rejects_dropped_dependence():
    f = var(0) * var(1)
    with pytest.raises(DomainError):
        f.restrict((0,))


def test_chart_index_and_sub():
    c = Chart(("x", "y", "z"), (1, 2, 3))
    assert [c.index(v) for v in ("x", "z", 1)] == [0, 2, 1]
    for bad in ("w", -1, 3):
        with pytest.raises(JetError):
            c.index(bad)
    assert c.sub((2, "x")) == Chart(("z", "x"), (3, 1))
    assert c.sub(()) == Chart((), ())
    with pytest.raises(JetError):
        c.sub((1, "y"))
    # one object per index tuple, however the indices are named
    assert c.sub((2, "x")) is c.sub(["z", 0])
    assert c.sub(range(2)) is c.sub(("x", "y")) is not c.sub((1, 0))


C3 = Chart(("u", "v", "w"), (0, 0, 0))
C1 = Chart(("x",), (0,))


def _x():
    return var(0, 3)


def _j():
    return var(0, 3) + var(1, 3) ** 2


def _x1():
    return Jet.variable(C1, 0, 3)


@pytest.mark.parametrize("call", [
    # without the check: a jet with its exponents in the wrong place
    lambda: Jet.variable(CH, -1, 3),
    lambda: _x().restrict((0, 0)),
    lambda: _x1().embed(CH, (-1,)),
    lambda: _j().embed(C3, (0,)),
    lambda: _j().embed(C3, (1, 1)),
    # without the check: a bare IndexError
    lambda: Jet.variable(CH, 2, 3),
    lambda: _x().restrict((2,)),
    lambda: _x1().embed(CH, (5,)),
    # without the check: a split at a point off the chart
    lambda: _j().split(-1),
    lambda: _j().split(3),
], ids=["variable-1", "restrict-twice", "embed-1", "embed-short",
        "embed-twice", "variable-2", "restrict-2", "embed-5", "split-1",
        "split-3"])
def test_variable_positions_off_the_chart_raise(call):
    """Every variable position goes through ``Chart.index`` or
    ``Chart.sub``: one off the chart, or one given twice, is an error,
    never a jet with its exponents in the wrong place."""
    with pytest.raises(JetError):
        call()


def test_rekeyed_checks_its_sources():
    j = _j()
    with pytest.raises(JetError):
        j._rekeyed(C3, (0, 0, None))
    with pytest.raises(JetError):
        j._rekeyed(C3, (0, 2, None))
    with pytest.raises(DomainError):
        j._rekeyed(C3, (None, 1, None))
    # a variable the jet does not depend on may go without a place
    assert _x()._rekeyed(C3, (None, 0, None)) == Jet.variable(C3, 1, 3)


def test_split_points_are_zero_to_dim():
    assert _j().split(0)[(1, 0)].chart == Chart((), ())
    assert list(_j().split(2)) == [()]


# -- identities of the elementary functions on random jets -----------------

small = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
crats = st.builds(CRat, small, small)
zero = st.just(0)


@st.composite
def jets(draw, constant):
    """A jet on CH of valid order 0..5 with the drawn constant term."""
    v = draw(st.integers(0, 5))
    keys = [(i, d - i) for d in range(1, v + 1) for i in range(d + 1)]
    coeffs = draw(st.dictionaries(st.sampled_from(keys), crats,
                                  max_size=6)) if keys else {}
    coeffs[(0, 0)] = draw(constant)
    return Jet(CH, v, v, coeffs)


def same_through(x, y, v):
    """x and y agree and both stay valid through order v."""
    return min(x.valid_order, y.valid_order) == v and x.agrees_with(y)


@given(jets(crats.filter(bool)))
def test_inverse_times_jet_is_one(a):
    assert same_through(a.invert() * a, const(1, a.valid_order), a.valid_order)


@given(jets(zero))
def test_log_inverts_exp(a):
    assert same_through(jet_log(jet_exp(a)), a, a.valid_order)


@given(jets(zero), jets(zero))
def test_exp_turns_sums_into_products(a, b):
    assert same_through(jet_exp(a + b), jet_exp(a) * jet_exp(b),
                        min(a.valid_order, b.valid_order))


@given(jets(small.filter(bool).map(lambda c: c * c)))
def test_sqrt_squared_is_the_jet(a):
    assert same_through(jet_sqrt(a) ** 2, a, a.valid_order)


@given(jets(zero))
def test_sin_squared_plus_cos_squared_is_one(a):
    assert same_through(jet_sin(a) ** 2 + jet_cos(a) ** 2,
                        const(1, a.valid_order), a.valid_order)


@given(jets(crats))
def test_copies_and_pickles_keep_the_store_and_hash(a):
    for back in (copy.copy(a), copy.deepcopy(a),
                 *(pickle.loads(pickle.dumps(a, proto))
                   for proto in range(2, pickle.HIGHEST_PROTOCOL + 1))):
        assert (back.valid_order, back.den, back.terms) \
            == (a.valid_order, a.den, a.terms)
        assert back.max_order == back.valid_order
        assert back == a and hash(back) == hash(a)
        assert back.has_imag() == a.has_imag()
