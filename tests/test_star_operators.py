"""The star product from the per-state table of bidifferential operators.

On a state with at most ``fedosov.STAR_TABLE_MAX_INDICES`` multi-indices
|alpha| <= N, ``star`` sums C_k(f, g) = sum c^k_(alpha beta) d^alpha f
d^beta g over the table instead of filling two flat sections.  These tests
hold the table path against the section path, against the flat Moyal
product and against the structure of the operators (C_k(1, g) =
C_k(f, 1) = 0 for k >= 1, order <= k in each argument), and check that
the validity ``star`` claims survives changes above what it was given.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings, strategies as hs

from fedquant import fedosov, sampling
from fedquant.fedosov import (FedosovError, _series, _star_operators,
                              _star_sections, moyal_reference, solve_r, star)
from fedquant.geometry import build_flat
from fedquant.jets import (EXACT_ORDER, ChartMismatch, Jet, JetError,
                           jet_maps_agree)
from fedquant.rational import CRat
from fedquant.suites import _CHARTS
from fedquant.weyl import WeylForm
from test_digest import PINNED
from test_fedosov import fresh_copy

# the eight seeded charts of test_digest, one per kind and n
CASES = [case for case in PINNED if case[4] == case[:2] + (0,)]
N1_CASES = [case for case in CASES if case[1] == 1]


def _ids(case):
    return "-".join(map(str, case[:4]))


def _solve(kind, n, order, n_hbar):
    """The solved seeded chart of ``test_digest``, tag (kind, n, 0)."""
    return solve_r(_CHARTS[kind](sampling.make_rng((kind, n, 0)), n, order),
                   n_hbar)


_state = lru_cache(maxsize=None)(_solve)


def _fresh(case):
    """The case's state with an empty table and section cache."""
    return fresh_copy(_state(*case[:4]))


def _digest_pair(kind, n, chart, order):
    """The two observables ``test_digest`` draws for the chart."""
    rng = sampling.make_rng(("digest", kind, n))
    return [sampling.random_polynomial(rng, chart, order, degree=2, terms=3)
            for _ in range(2)]


def _pairs(case, count=3):
    """The digest pair, then ``count`` pairs of degree up to 4."""
    kind, n, order, _, _ = case
    chart = _state(*case[:4]).geometry.chart
    rng = sampling.make_rng(("star operators", kind, n))
    return [tuple(_digest_pair(kind, n, chart, order))] + [
        tuple(sampling.random_polynomial(rng, chart, order)
              for _ in range(2)) for _ in range(count)]


def _entries(st):
    """The table's (k, alpha, beta) entries."""
    return [(k, a, b) for k, a, b, _ in st._star_table]


def _seeds(st):
    """The seeds x^alpha / alpha!, |alpha| <= N, whose sections the
    operator sections are built from."""
    chart = st.geometry.chart
    return {fedosov._seed(chart, a)
            for a in fedosov._multi_indices(chart.dim, st.n_hbar)}


@pytest.mark.parametrize("case", N1_CASES, ids=_ids)
def test_table_path_agrees_with_the_section_path(case):
    """Equal stores through the shared validity at every level, and the
    table never claims more than the sections."""
    st = _fresh(case)
    assert fedosov._reads_table(st)
    for f, g in _pairs(case):
        for n in range(st.n_hbar + 1):
            table = star(f, g, st, n)
            sections = _series(_star_sections(f, g, st, n), f, g, n)
            assert table.agrees_with(sections), (n, f, g)
            for k, (c, s) in enumerate(zip(table.coefficients,
                                           sections.coefficients)):
                assert c.valid_order <= s.valid_order, (n, k, c, s)


@pytest.mark.parametrize("case", N1_CASES, ids=_ids)
def test_table_entries_are_bidifferential_operators_of_order_k(case):
    """No entry has alpha = 0 or beta = 0 at k >= 1, since
    C_k(1, g) = C_k(f, 1) = 0, nor |alpha| > k or |beta| > k; at k = 0
    the one entry is c^0_(0 0) = 1."""
    st = _fresh(case)
    for f, g in _pairs(case, count=1):
        star(f, g, st)
    entries = _entries(st)
    zero = (0,) * st.geometry.dim
    assert entries
    for k, a, b in entries:
        if k:
            assert a != zero and b != zero, (k, a, b)
        assert sum(a) <= k and sum(b) <= k, (k, a, b)
    assert [(a, b) for k, a, b in entries if not k] == [(zero, zero)]
    c = next(c for k, _, _, c in st._star_table if not k)
    assert c == Jet.constant(st.geometry.chart, 1, c.valid_order)


def test_table_products_on_the_flat_chart_are_moyal():
    flat = build_flat(1, 9)
    st = solve_r(flat, 3)
    assert fedosov._reads_table(st)
    rng = sampling.make_rng("star operators moyal")
    for _ in range(6):
        f, g = (sampling.random_polynomial(rng, flat.chart, 9, degree=5)
                for _ in range(2))
        for n in range(4):
            got = star(f, g, st, n)
            assert got.agrees_with(moyal_reference(f, g, flat, n))
    assert set(st._section_cache) <= _seeds(st)


def test_table_starts_empty_and_stays_bounded():
    """``solve_r`` leaves no table; a stream of products at every level
    reads at most C(2n + N, N)^2 (N + 1) entries, and the section cache
    holds only the sections of the seeds they are built from."""
    st = _solve(*N1_CASES[1][:4])
    assert st._star_table is None
    dim, big_n = st.geometry.dim, st.n_hbar
    chart = st.geometry.chart
    rng = sampling.make_rng("star operators stream")
    for t in range(24):
        f, g = (sampling.random_polynomial(rng, chart, st.geometry.order,
                                           degree=5) for _ in range(2))
        star(f, g, st, t % (big_n + 1))
    count = comb(dim + big_n, big_n)
    assert 0 < len(_entries(st)) <= count ** 2 * (big_n + 1)
    assert set(st._section_cache) <= _seeds(st)


@pytest.mark.parametrize("case", N1_CASES, ids=_ids)
def test_first_star_builds_the_whole_table(case, monkeypatch):
    """A star at hbar^1 on a fresh state leaves the table through N: a
    star through N after it forms no section and no symbol, the state
    keeps no operator section, and the section cache holds the sections
    of all the seeds."""
    st = _fresh(case)
    f, g = _pairs(case, count=0)[0]
    star(f, g, st, 1)
    table = st._star_table
    assert max(k for k, _, _ in _entries(st)) == st.n_hbar
    calls = []
    for name in ("flat_section", "symbol_mul"):
        def counting(*args, _original=getattr(fedosov, name), _name=name):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(fedosov, name, counting)
    star(g, f, st)
    assert calls == [] and st._star_table is table
    held = [value for name, value in vars(st).items()
            if name not in ("r_parts", "residual", "_section_cache")]
    assert not any(isinstance(x, WeylForm) for value in held
                   for x in (value.values() if isinstance(value, dict)
                             else [value]))
    assert set(st._section_cache) == _seeds(st)


# -- the two bodies of ``star`` on draws of any validity -------------------

_coefficient = hs.builds(CRat, hs.builds(Fraction, hs.integers(-4, 4),
                                         hs.integers(1, 3)),
                         hs.builds(Fraction, hs.integers(-2, 2),
                                   hs.integers(1, 3)))


@hs.composite
def _operand(draw, chart, order):
    """1-4 terms of degree <= 5, carried at a validity from 0 to
    ``order``."""
    monomial = hs.tuples(*[hs.integers(0, 5)] * chart.dim).filter(
        lambda alpha: sum(alpha) <= 5)
    coeffs = draw(hs.dictionaries(monomial, _coefficient, min_size=1,
                                  max_size=4))
    v = draw(hs.integers(0, order))
    return Jet(chart, v, v, coeffs)


def _body(body, f, g, st, n):
    """The body's map, or the type and text of what it raised."""
    try:
        return body(f, g, st, n)
    except JetError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("case", N1_CASES, ids=_ids)
@settings(max_examples=25)
@given(data=hs.data())
def test_table_and_section_bodies_agree_on_any_draw(case, data):
    """Both bodies raise the same error, or their maps agree through the
    shared validity and, where both are nonzero, the table claims no more
    than the sections."""
    st = _state(*case[:4])
    chart, order = st.geometry.chart, st.geometry.order
    f, g = (data.draw(_operand(chart, order)) for _ in range(2))
    n = data.draw(hs.integers(0, st.n_hbar))
    table = _body(_star_operators, f, g, st, n)
    sections = _body(_star_sections, f, g, st, n)
    if isinstance(table, tuple) or isinstance(sections, tuple):
        assert table == sections
        return
    assert jet_maps_agree(table, sections)
    for k in table.keys() & sections.keys():
        t, s = table[k], sections[k]
        if not (t.is_zero() or s.is_zero()):
            assert t.valid_order <= s.valid_order, (k, t, s)


def test_the_rule_picks_the_path():
    """C(2n + N, N) <= 10: n = 1 through N = 3, n <= 4 at N = 1 and
    every chart at N = 0."""
    for kind, n, order, n_hbar, _ in CASES:
        st = _state(kind, n, order, n_hbar)
        expected = comb(2 * n + n_hbar, n_hbar) <= 10
        assert fedosov._reads_table(st) == expected == (n == 1)
    flat = build_flat(2, 7)
    assert fedosov._reads_table(solve_r(flat, 1))
    assert not fedosov._reads_table(solve_r(flat, 2))
    assert not fedosov._reads_table(solve_r(build_flat(1, 11), 4))
    assert fedosov._reads_table(solve_r(build_flat(4, 5), 1))
    assert not fedosov._reads_table(solve_r(build_flat(5, 5), 1))
    assert fedosov._reads_table(solve_r(build_flat(5, 3), 0))


@pytest.mark.parametrize("case", [N1_CASES[0], CASES[4]], ids=_ids)
def test_foreign_chart_and_negative_order_raise_on_both_paths(case):
    st = _fresh(case)
    f, g = _pairs(case, count=0)[0]
    other = build_flat(1 if case[1] == 2 else 2, case[2]).chart
    foreign = Jet.variable(other, 0, case[2])
    for args in ((foreign, g), (f, foreign)):
        with pytest.raises(ChartMismatch):
            star(*args, st)
    with pytest.raises(FedosovError):
        star(f, g, st, -1)


# -- claimed validity against changes above the inputs' validity ----------

RAISE = 3


def _raised(f):
    """f carried RAISE orders further."""
    v = f.valid_order + RAISE
    return Jet(f.chart, v, v, f.coeffs)


def _perturbations(f):
    """f raised, plus each monomial of degree v + 1 that puts the whole
    degree on one variable, and one that spreads it."""
    dim, v = f.chart.dim, f.valid_order
    monomials = [tuple(v + 1 if i == j else 0 for i in range(dim))
                 for j in range(dim)]
    spread = [(v + 1) // dim] * dim
    spread[0] += (v + 1) % dim
    monomials.append(tuple(spread))
    return [_raised(f) + Jet(f.chart, v + RAISE, v + RAISE, {m: 1})
            for m in monomials]


def _survivors(case, zero):
    """The (k, side, claimed validity) points where a coefficient of the
    digest pair, nonzero or zero as asked, changes through its claim when
    a monomial of degree v + 1 is added to f or to g and the same draw is
    solved RAISE orders higher."""
    kind, n, order, n_hbar, _ = case
    low = _state(kind, n, order, n_hbar)
    high = _state(kind, n, order + RAISE, n_hbar)
    chart = low.geometry.chart
    assert high.geometry.chart == chart
    f, g = _digest_pair(kind, n, chart, order)
    claims = star(f, g, low).coefficients
    inputs = [("f", fp, _raised(g)) for fp in _perturbations(f)] + \
        [("g", _raised(f), gp) for gp in _perturbations(g)]
    failures = set()
    for side, fp, gp in inputs:
        for k, (c, h) in enumerate(zip(claims,
                                       star(fp, gp, high).coefficients)):
            if c.is_zero() == zero and h.truncate(c.valid_order) != c:
                failures.add((k, side, c.valid_order))
    return sorted(failures)


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_claims_survive_changes_above_the_inputs(case):
    """Every nonzero coefficient is unchanged through its claim.  The
    sections claimed hbar^2 and hbar^3 one degree too far on the Darboux
    n = 1 chart, where the inputs are linear; the table caps those powers
    by the zero second and third derivatives."""
    assert _survivors(case, zero=False) == []


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a coefficient that sums to zero takes the lowest validity of f, g "
    "and the nonzero coefficients, which over-claims it: flat n = 1 at "
    "hbar^2, Kaehler n = 1 (constant f, claimed 12) at hbar^2 and "
    "hbar^3, flat n = 2 and cotangent n = 2 at hbar^2"))
def test_zero_coefficient_claims_survive_changes_above_the_inputs():
    failures = {_ids(case): _survivors(case, zero=True) for case in CASES}
    assert {key: got for key, got in failures.items() if got} == {}


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "where the two bodies meet, a zero coefficient over-claims: on the "
    "Darboux n = 1 digest chart star claims hbar^1-hbar^3 zero through "
    "degree 3 and the section body's series hbar^3 through degree 2"))
def test_zero_coefficients_where_the_bodies_meet():
    """f = 1/2 + q1^3 p1 at validity 6 and g = (2/3) q1 at validity 3 on
    the Darboux n = 1 digest chart (order 9, N = 3), against the same draw
    solved at order 15 with f and g exact, which has -(i/3) q1^3 at
    hbar^1, -(1/3) q1^2 + (2/9) q1^2 p1 at hbar^2 and
    -(8i/3) q1 p1 + (16i/3) q1 p1^2 at hbar^3.  The table body gives the
    three zero coefficients validity 2, 1 and 0, and ``_series`` gives
    each the 3 of g."""
    low = _state("darboux", 1, 9, 3)
    high = _state("darboux", 1, 15, 3)
    chart = low.geometry.chart
    terms = ({(0, 0): Fraction(1, 2), (3, 1): 1}, {(1, 0): Fraction(2, 3)})
    f, g = (Jet(chart, v, v, t) for v, t in zip((6, 3), terms))
    truth = star(*(Jet(chart, EXACT_ORDER, EXACT_ORDER, t) for t in terms),
                 high).coefficients
    failures = []
    for body in (_star_operators, _star_sections):
        claims = _series(body(f, g, low, 3), f, g, 3).coefficients
        failures += [(body.__name__, k, c.valid_order)
                     for k, (c, h) in enumerate(zip(claims, truth))
                     if h.truncate(c.valid_order) != c]
    assert failures == []
