"""The exact accumulator: JetSum against a left fold of ``*`` and ``+``,
the one-term product against a direct Fraction convolution, and the jet
operations on the integer store against pairwise Fraction arithmetic on the
``coeffs`` view."""

import pickle
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from hypothesis import example, given, strategies as st

from fedquant.jets import (Chart, Jet, JetError, JetSum, _KEY_BITS,
                           jet_maps_agree, pack_key, unpack_key)
from fedquant.rational import CRat

# each chart pairs x0 with x1 for conjugation where it has both
CHARTS = {d: Chart(tuple(f"x{i}" for i in range(d)), (0,) * d,
                   ((0,), (1, 0), (1, 0, 2))[d - 1])
          for d in (1, 2, 3)}

# the highest order a jet may have, one below the packed key bound
TOP = (1 << _KEY_BITS) - 1

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
def sums(draw, dim=None):
    if dim is None:
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
    return Jet(a.chart, v, v, out)


def same(x, y):
    """Equal coefficients and one order, the same on both sides."""
    return (x.coeffs == y.coeffs
            and x.max_order == x.valid_order == y.valid_order == y.max_order)


@given(sums())
def test_jetsum_equals_left_fold(terms):
    acc = JetSum()
    for a, b, s in terms:
        acc.add(a, b, s)
    assert same(acc.jet(), fold(terms))


@given(st.integers(1, 3).flatmap(lambda d: st.tuples(jets(d), jets(d))),
       scalars)
def test_single_term_product_matches_direct_convolution(pair, s):
    a, b = pair
    ab = a * b
    assert same(ab, direct_product(a, b))
    scaled = a * s
    want = {k: c * s for k, c in a.coeffs.items()}
    assert same(scaled, Jet(a.chart, a.valid_order, a.valid_order, want))


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
    # the common denominator of the cancelled terms reduces to 1
    assert out.den == 1 and out.terms == ()


# -- one order per jet --------------------------------------------------------

@st.composite
def twin_jets(draw, dim):
    """A jet, and its coefficients built again through the public
    constructor at another max order, up to the packed key bound."""
    j = draw(jets(dim))
    v = j.valid_order
    top = draw(st.integers(v, v + 3) | st.just(TOP))
    return j, Jet(j.chart, top, v, j.coeffs)


@given(st.integers(1, 3).flatmap(
    lambda d: st.tuples(twin_jets(d), twin_jets(d))), scalars, st.data())
def test_max_order_is_not_carried(twins, s, data):
    (a1, a2), (b1, b2) = twins
    i = data.draw(st.integers(0, a1.chart.dim - 1))
    k = data.draw(st.integers(0, a1.valid_order))
    ops = [lambda a, b: a + b, lambda a, b: a * b, lambda a, b: a * s,
           lambda a, b: a.truncate(k), lambda a, b: a.mul_variable(i)]
    if a1.valid_order:
        ops.append(lambda a, b: a.partial(i))
    if a1.constant_term:
        ops.append(lambda a, b: a.invert())
    for x, y in [(a1, a2), (b1, b2)] + [(op(a1, b1), op(a2, b2))
                                        for op in ops]:
        assert x == y and hash(x) == hash(y)
        assert x.max_order == x.valid_order == y.max_order
        back = pickle.loads(pickle.dumps(x))
        assert back == x and hash(back) == hash(x)
        assert back.max_order == back.valid_order


# -- the single integer store ------------------------------------------------

def assert_canonical(j):
    """Sorted by (degree, key), no zero entry, degrees within validity and
    no factor common to den and all numerators."""
    assert j.den > 0
    assert list(j.terms) == sorted(j.terms)
    assert len({t[1] for t in j.terms}) == len(j.terms)
    for d, key, re, im in j.terms:
        assert d == sum(unpack_key(key, j.chart.dim)) <= j.valid_order
        assert re or im
    assert gcd(j.den, *[x for t in j.terms for x in t[2:]]) == 1


def from_view(chart, valid_order, coeffs):
    """The reference result: a jet built from Fraction-valued coefficients."""
    return Jet(chart, valid_order, valid_order,
               {k: c for k, c in coeffs.items() if sum(k) <= valid_order})


def pairwise_sum(a, b, sign):
    out = dict(a.coeffs)
    for k, c in b.coeffs.items():
        out[k] = out.get(k, CRat(0)) + c * sign
    return from_view(a.chart, min(a.valid_order, b.valid_order), out)


def shifted(key, i, by):
    return key[:i] + (key[i] + by,) + key[i + 1:]


@given(st.integers(1, 3).flatmap(jets))
def test_store_round_trips_through_the_view(j):
    assert_canonical(j)
    again = Jet(j.chart, j.max_order, j.valid_order, j.coeffs)
    assert again == j and hash(again) == hash(j)
    assert again.den == j.den and again.terms == j.terms


@given(st.integers(1, 3).flatmap(lambda d: st.tuples(jets(d), jets(d))))
def test_sums_match_pairwise_fractions(pair):
    a, b = pair
    for got, want in ((a + b, pairwise_sum(a, b, 1)),
                      (a - b, pairwise_sum(a, b, -1)),
                      (-a, from_view(a.chart, a.valid_order,
                                     {k: -c for k, c in a.coeffs.items()}))):
        assert_canonical(got)
        assert same(got, want) and got == want


@given(st.integers(1, 3).flatmap(jets), st.data())
def test_unary_operations_match_pairwise_fractions(j, data):
    chart, dim = j.chart, j.chart.dim
    i = data.draw(st.integers(0, dim - 1))
    k = data.draw(st.integers(0, j.valid_order))
    alpha = data.draw(st.tuples(*[st.integers(0, 2)] * dim))
    view = j.coeffs
    cases = [
        (j.truncate(k), from_view(chart, k, view)),
        (j.mul_variable(i),
         from_view(chart, j.valid_order + 1,
                   {shifted(a, i, 1): c for a, c in view.items()})),
        (j.mul_monomial(alpha),
         from_view(chart, j.valid_order + sum(alpha),
                   {tuple(x + y for x, y in zip(a, alpha)): c
                    for a, c in view.items()})),
        (j.conjugate(),
         from_view(chart, j.valid_order,
                   {tuple(a[p] for p in chart.conj): c.conjugate()
                    for a, c in view.items()})),
    ]
    if j.valid_order:
        cases.append((j.partial(i), from_view(
            chart, j.valid_order - 1,
            {shifted(a, i, -1): c * a[i] for a, c in view.items() if a[i]})))
    for got, want in cases:
        assert_canonical(got)
        assert same(got, want) and got == want and got.den == want.den


@given(sums(), st.data())
def test_finished_sums_and_their_pieces_are_canonical(terms, data):
    acc = JetSum()
    for a, b, s in terms:
        acc.add(a, b, s)
    j = acc.jet()
    dim = j.chart.dim
    outs = [j, j.truncate(data.draw(st.integers(0, j.valid_order)))]
    if j.valid_order:
        outs.append(j.partial(data.draw(st.integers(0, dim - 1))))
    outs += j.split(data.draw(st.integers(0, dim))).values()
    for out in outs:
        assert_canonical(out)


@pytest.mark.parametrize("den, nums, reduced", [
    # a factor of 3 common to all but the last numerator
    (6, [(6, 0), (12, 0), (3, 0)], (2, [(2, 0), (4, 0), (1, 0)])),
    # broken only by the last imaginary part
    (12, [(12, 0), (0, 24), (6, 4)], (6, [(6, 0), (0, 12), (3, 2)])),
    # the gcd is 1 after the first term: nothing is divided out
    (4, [(3, 0), (8, 4)], (4, [(3, 0), (8, 4)])),
    (5, [(10, 15), (0, 5)], (1, [(2, 3), (0, 1)])),
])
def test_the_store_gcd_reads_every_term_it_needs(den, nums, reduced):
    """``from_terms`` stops its gcd at 1 only: a factor common to den and
    every numerator but the last is kept apart from the full one."""
    terms = [(d, pack_key((d,)), re, im) for d, (re, im) in enumerate(nums)]
    j = Jet.from_terms(CHARTS[1], 3, den, terms)
    assert_canonical(j)
    assert (j.den, [t[2:] for t in j.terms]) == reduced
    assert j.coeffs == {(d,): CRat.from_ints(re, im, den)
                        for d, (re, im) in enumerate(nums)}


def test_jets_stay_immutable():
    j = Jet.variable(CHARTS[2], 0, 3) * CRat(1, 2)
    assert j.has_imag()
    for name in (*Jet.__slots__, "other"):
        with pytest.raises(AttributeError):
            setattr(j, name, None)
    assert j == Jet.variable(CHARTS[2], 0, 3) * CRat(1, 2)


@given(st.integers(1, 3).flatmap(jets), st.data())
def test_embed_and_restrict_round_trip(j, data):
    dim = j.chart.dim
    # place the jet's variables at distinct, shuffled slots of a larger chart
    slots = data.draw(st.permutations(range(dim + 1)))[:dim]
    big = Chart(tuple(f"y{s}" for s in range(dim + 1)), (0,) * (dim + 1))
    up = j.embed(big, slots)
    assert_canonical(up)
    want = {}
    for a, c in j.coeffs.items():
        b = [0] * (dim + 1)
        for old, e in enumerate(a):
            b[slots[old]] = e
        want[tuple(b)] = c
    assert same(up, from_view(big, j.valid_order, want))
    down = up.restrict(slots)
    assert_canonical(down)
    assert down.coeffs == j.coeffs and down.den == j.den
    assert down.valid_order == j.valid_order


@given(st.integers(1, 3).flatmap(jets), st.data())
def test_agreement_ignores_terms_above_the_order(j, data):
    if j.valid_order == 0:
        return
    k = data.draw(st.integers(0, j.valid_order - 1))
    above = [a for a in product(range(j.valid_order + 1), repeat=j.chart.dim)
             if k < sum(a) <= j.valid_order]
    extra = data.draw(st.dictionaries(st.sampled_from(above), crats,
                                      min_size=1, max_size=3))
    # 97 divides no denominator the strategy draws, so the stores differ
    first = next(iter(extra))
    extra[first] = extra[first] + Fraction(1, 97)
    coeffs = {a: c for a, c in j.coeffs.items() if sum(a) <= k}
    other = Jet(j.chart, j.valid_order, j.valid_order, {**coeffs, **extra})
    assert other.den != j.den
    # truncating one side compares through order k, across the two stores'
    # different denominators
    low_j = j.truncate(k)
    assert low_j.agrees_with(other) and other.agrees_with(low_j)
    assert not j.agrees_with(other)
    low = (0,) * j.chart.dim
    bumped = Jet(j.chart, j.valid_order, j.valid_order,
                 {**j.coeffs, low: j.coeffs.get(low, 0) + Fraction(1, 97)})
    assert not low_j.agrees_with(bumped)


@st.composite
def jet_map_pairs(draw):
    """The dimension of a chart and two ``{key: Jet}`` maps on it; the second
    keeps, truncates, drops or redraws each entry of the first and may add
    keys of its own."""
    dim = draw(st.integers(1, 3))
    a = draw(st.dictionaries(st.integers(0, 3), jets(dim), max_size=4))
    b = {}
    for key, j in a.items():
        how = draw(st.sampled_from(["same", "truncated", "dropped", "other"]))
        if how == "same":
            b[key] = j
        elif how == "truncated":
            b[key] = j.truncate(draw(st.integers(0, j.valid_order)))
        elif how == "other":
            b[key] = draw(jets(dim))
    b.update(draw(st.dictionaries(st.integers(2, 5), jets(dim), max_size=2)))
    return dim, a, b


@given(jet_map_pairs())
def test_jet_maps_agree_is_symmetric_and_keywise(maps):
    dim, a, b = maps
    assert jet_maps_agree(a, b) == jet_maps_agree(b, a)
    # a missing key stands for an exact zero
    zero = Jet.zero(CHARTS[dim], 2)
    assert jet_maps_agree(a, {**b, 9: zero}) == jet_maps_agree(a, b)
    a = {k: j for k, j in a.items() if not j.is_zero()}
    b = {k: j for k, j in b.items() if not j.is_zero()}
    assert jet_maps_agree(a, b) == (
        a.keys() == b.keys() and all(a[k].agrees_with(b[k]) for k in a))


def test_constancy_and_coefficients_read_the_store():
    x = Jet.variable(CHARTS[2], 0, 3)
    c = Jet.constant(CHARTS[2], CRat(Fraction(2, 6), 1), 3)
    assert c.is_constant() and Jet.zero(CHARTS[2], 3).is_constant()
    assert not x.is_constant()
    assert c.den == 3 and c.constant_term == CRat(Fraction(1, 3), 1)
    assert (x * c).coefficient((1, 0)) == CRat(Fraction(1, 3), 1)
    assert (x * c).coefficient((0, 1)) == CRat(0)
    with pytest.raises(JetError):
        x.truncate(-1)


# -- the packed monomial key -------------------------------------------------

@st.composite
def multi_indices(draw, dim, top=TOP):
    """A multi-index of degree at most ``top``, as the cuts of its degree
    into ``dim`` parts."""
    d = draw(st.integers(0, top))
    cuts = sorted(draw(st.lists(st.integers(0, d), min_size=dim - 1,
                                max_size=dim - 1)))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [d]))


# pairs whose sum is still within the bound
index_pairs = st.integers(1, 4).flatmap(lambda d: multi_indices(d).flatmap(
    lambda a: st.tuples(st.just(a), multi_indices(d, TOP - sum(a)))))


@given(index_pairs)
@example(((TOP - 1, 0, 0, 0), (0, 0, 0, 1)))
def test_keys_add_as_multi_indices(pair):
    a, b = pair
    total = tuple(x + y for x, y in zip(a, b))
    assert pack_key(a) + pack_key(b) == pack_key(total)
    assert unpack_key(pack_key(a) + pack_key(b), len(a)) == total


@given(st.integers(1, 4).flatmap(
    lambda d: st.tuples(multi_indices(d), multi_indices(d))))
@example(((TOP, 0, 0, 0), (0, 0, 0, TOP)))
def test_key_order_is_degree_then_multi_index(pair):
    a, b = pair
    assert (pack_key(a) < pack_key(b)) == ((sum(a), a) < (sum(b), b))
    assert (pack_key(a) == pack_key(b)) == (a == b)


@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    st.just(d), st.dictionaries(multi_indices(d), crats, max_size=6))))
def test_keys_round_trip_through_the_view(case):
    dim, coeffs = case
    chart = Chart(tuple(f"x{i}" for i in range(dim)), (0,) * dim)
    j = Jet(chart, TOP, TOP, coeffs)
    assert_canonical(j)
    want = {a: c for a, c in coeffs.items() if c}
    assert j.coeffs == want
    assert list(j.coeffs) == sorted(want, key=lambda a: (sum(a), a))
    assert all(j.coefficient(a) == c for a, c in want.items())


def test_a_key_is_one_digit_up_to_dimension_4():
    """On a chart of dimension 4 at the order bound the top key, and so
    every key, is below 2**30: one CPython digit."""
    chart = Chart(("x0", "x1", "x2", "x3"), (0,) * 4)
    j = Jet(chart, TOP, TOP, {(TOP, 0, 0, 0): 1, (0, 0, 0, TOP): 1})
    assert max(key for _, key, _, _ in j.terms) == pack_key((TOP, 0, 0, 0))
    assert pack_key((TOP, 0, 0, 0)) < 2 ** 30


def test_orders_and_multi_indices_are_bounded():
    chart = CHARTS[2]
    with pytest.raises(JetError):
        Jet(chart, TOP + 1, 0, {})
    with pytest.raises(JetError):
        Jet.zero(chart, TOP + 1)
    top = Jet.variable(chart, 0, TOP)
    assert top.coefficient((1, 0)) == CRat(1)
    with pytest.raises(JetError):
        top.mul_variable(1)
    # an index past either end would shift into another field
    for var in (-1, 2):
        with pytest.raises(JetError):
            Jet.variable(chart, 0, 3).partial(var)
        with pytest.raises(JetError):
            Jet.variable(chart, 0, 3).mul_variable(var)
    for bad in [(-1, 2), (1,), (1, 0, 0)]:
        with pytest.raises(JetError):
            Jet(chart, 3, 3, {bad: 1})
        with pytest.raises(JetError):
            top.coefficient(bad)
        with pytest.raises(JetError):
            top.mul_monomial(bad)
