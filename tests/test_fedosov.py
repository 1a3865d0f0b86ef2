"""The flatness recursion, flat sections, and the induced star product."""

import gc
import weakref
from collections import defaultdict
from fractions import Fraction

import pytest

from fedquant.jets import ChartMismatch, Jet, JetSum
from fedquant.rational import CRat, HALF_I, I
from fedquant.weyl import (WeylForm, graded_commutator, op_delta, pi_weight,
                          symbol_mul)
from fedquant.geometry import (build_darboux, build_flat, build_kaehler,
                               build_rhat, lift_cotangent, poisson)
from fedquant import fedosov
from fedquant.fedosov import (SECTION_CACHE_SIZE, FedosovError, FedosovState,
                              check_flatness, flat_section, moyal_reference,
                              solve_r, star)
from fedquant import sampling
from fedquant.suites import _CHARTS, _r3_oracle, _r4_oracle
from reference import (connection, count_by_weight, full_pass, full_section,
                       r_union, section_defect, weight_at_most)
from test_digest import PINNED


ORDER = 11


def darboux_state(tag, n_hbar=3, order=9):
    rng = sampling.make_rng(("fedosov-test", tag))
    return solve_r(
        build_darboux(1, sampling.random_darboux_gamma(rng, 1, order), order),
        n_hbar)


def test_flat_r_vanishes():
    st = solve_r(build_flat(1, ORDER), 4)
    assert st.r_parts == {}
    assert check_flatness(st) == {}


def test_flat_star_is_direct_product():
    flat = build_flat(1, ORDER)
    st = solve_r(flat, 4)
    q = Jet.variable(flat.chart, 0, ORDER)
    p = Jet.variable(flat.chart, 1, ORDER)
    f = q * q * p + p * p * p - q * 2 + 3
    g = q * p * p + q * q * q + p
    assert star(f, g, st).agrees_with(moyal_reference(f, g, flat, 4))


def test_moyal_reference_rejects_an_operand_from_another_chart():
    flat = build_flat(1, 9)
    moved = build_flat(1, 9, base_q=(Fraction(1, 2),))
    q, p = (Jet.variable(moved.chart, i, 9) for i in range(2))
    here = Jet.variable(flat.chart, 1, 9)
    for f, g in ((q * p, p), (q * p, here), (here, p)):
        with pytest.raises(ChartMismatch):
            moyal_reference(f, g, flat, 2)


def test_flat_first_order_coefficient():
    flat = build_flat(1, ORDER)
    st = solve_r(flat, 2)
    q = Jet.variable(flat.chart, 0, ORDER)
    p = Jet.variable(flat.chart, 1, ORDER)
    c1 = star(q, p, st).coefficient(1)
    assert c1.constant_term == CRat(0, Fraction(1, 2))


def test_unit_is_neutral():
    st = darboux_state("unit")
    chart = st.geometry.chart
    one = Jet.constant(chart, 1, st.geometry.order)
    f = Jet.variable(chart, 0, st.geometry.order) \
        * Jet.variable(chart, 1, st.geometry.order)
    s = star(f, one, st)
    assert s.coefficient(0).agrees_with(f)
    assert all(s.coefficient(k).is_zero() for k in range(1, 4))


def test_insufficient_jet_order_rejected():
    flat = build_flat(1, 6)
    with pytest.raises(FedosovError):
        solve_r(flat, 3)    # needs valid_order >= 9


def test_discarded_state_is_freed_without_the_collector():
    st = darboux_state("refcount", n_hbar=2)
    flat_section(observables(st)[0], st)
    geom = weakref.ref(st.geometry)
    was = gc.isenabled()
    gc.disable()
    try:
        del st
        assert geom() is None
    finally:
        (gc.enable if was else gc.disable)()


def test_recursion_reaches_fixed_point():
    st = darboux_state("fp")
    assert check_flatness(st) == {}


def test_r_series_leading_terms():
    st = darboux_state("r34")
    geom = st.geometry
    r = r_union(st)
    assert pi_weight(r, 3).agrees_with(_r3_oracle(geom))
    assert pi_weight(r, 4).agrees_with(_r4_oracle(geom))


# two digest charts solved at N = 1, where r is r_3 alone and the
# residual holds weight 2 only: delta r_3 - Rhat
FULL_PASS_N1 = [("darboux", 2, 9, 1, ("darb", 0)),
                ("kaehler", 1, 12, 1, ("kaehler", 1, 0))]


@pytest.mark.parametrize("case", list(PINNED) + FULL_PASS_N1,
                         ids=lambda c: "-".join(map(str, c[:4] + c[4])))
def test_full_pass_reproduces_r_and_the_residual(case):
    """The full iteration gives r back on every weight r holds, 3 ... 2N+1,
    and the residual from its sums is ``solve_r``'s, store for store, on
    the weights w <= 2N that ``solve_r``'s residual holds, although
    ``solve_r`` builds both from the recursion's own sums, one weight at a
    time."""
    kind, n, order, n_hbar, tag = case
    st = solve_r(_CHARTS[kind](sampling.make_rng(tag), n, order), n_hbar)
    again, residual = full_pass(st)
    assert weight_at_most(again, 2 * n_hbar + 1).agrees_with(r_union(st))
    assert weight_at_most(residual, 2 * n_hbar) == st.residual


# (kind, n, jet order, N): each chart's order admits a solve at N + 1
ORDER_RAISE = [("darboux", 1, 13, 3), ("kaehler", 1, 14, 3),
               ("cotangent", 2, 11, 2), ("kaehler", 2, 13, 2),
               ("darboux", 2, 11, 2)]


@pytest.mark.parametrize("case", ORDER_RAISE,
                         ids=lambda c: "-".join(map(str, c)))
def test_r_is_the_low_weights_of_a_higher_order_solve(case):
    """r holds weights 3 ... 2N+1 only, each one exact: the solve at
    N + 1 gives the same terms there.  On n = 1 the certificate is blind
    to a broken recursion, so this is checked apart from it."""
    kind, n, order, n_hbar = case
    geom = _CHARTS[kind](sampling.make_rng((kind, n, 0)), n, order)
    st, up = solve_r(geom, n_hbar), solve_r(geom, n_hbar + 1)
    r = r_union(st)
    assert all(2 * k + sum(alpha) <= 2 * n_hbar + 1
               for k, alpha, _ in r.terms)
    assert all(2 * k + sum(alpha) <= 2 * n_hbar
               for k, alpha, _ in st.residual.terms)
    assert r.agrees_with(weight_at_most(r_union(up), 2 * n_hbar + 1))


@pytest.mark.parametrize("kind", list(_CHARTS))
def test_hbar_order_0_star_is_the_pointwise_product(kind):
    """At N = 0 no r_w is solved, and the residual is -Rhat store for
    store, which ``check_flatness`` does not count.  On n = 2 every curved
    kind has a nonzero Rhat."""
    st = solve_r(_CHARTS[kind](sampling.make_rng((kind, 2, 0)), 2, 9), 0)
    assert st.r_parts == {} and check_flatness(st) == {}
    assert st.residual == -build_rhat(st.geometry)
    assert st.residual.is_zero() == (kind == "flat")
    f, g, _ = observables(st)
    s = star(f, g, st)
    assert s.valid_hbar_order == 0 and s.coefficient(0) == f * g


@pytest.mark.parametrize("n_hbar", [2, 3])
def test_solve_r_squares_each_weight_through_weyl_mul(monkeypatch, n_hbar):
    """From N = 2 on, X_w at an even weight w <= 2N reads r_w' o r_w'
    with w' = w/2 + 1; each such square goes through ``weyl_mul`` with
    the weight part given twice."""
    real = fedosov.weyl_mul
    calls = []

    def counted(a, b, into=None):
        calls.append(a is b)
        return real(a, b, into)

    monkeypatch.setattr(fedosov, "weyl_mul", counted)
    solve_r(_CHARTS["kaehler"](sampling.make_rng(("kaehler", 1, 0)), 1, 12),
            n_hbar)
    # each even weight w = 4 .. 2N squares r_(w/2 + 1)
    assert calls == [True] * (n_hbar - 1)


# flat charts, solved at N = 3: the Kaehler n = 1 digest chart, and the
# cotangent n = 2 one at order 11, where the unequal pair (3, 4) enters
# X_5, which the residual holds
MUTATED = {
    "kaehler": lambda: _CHARTS["kaehler"](
        sampling.make_rng(("kaehler", 1, 0)), 1, 12),
    "cotangent": lambda: _CHARTS["cotangent"](
        sampling.make_rng(("cotangent", 2, 0)), 2, 11),
}


@pytest.mark.parametrize("kind", list(MUTATED))
def test_mutation_charts_are_flat(kind):
    assert check_flatness(solve_r(MUTATED[kind](), 3)) == {}


@pytest.mark.parametrize("w", range(4, 8))
@pytest.mark.parametrize("kind", list(MUTATED))
def test_changed_r_coefficient_shows_in_the_residual(monkeypatch, kind, w):
    """Add 1 to a coefficient of r_w whose term delta does not kill.  The
    residual at weight w - 1 becomes delta of the change, which the
    certificate sees though it reuses the recursion's sums."""
    real = fedosov.op_delta_inv
    calls = []

    def bumped(form):
        out = real(form)
        calls.append(out)
        # the calls give r_3 = delta^-1 Rhat, r_4, r_5, ... in turn
        if len(calls) != w - 2:
            return out
        for key, jet in out.terms.items():
            if not op_delta(WeylForm(out.geometry, {key: jet})).is_zero():
                return WeylForm(out.geometry, {**out.terms, key: jet + 1})
        pytest.fail(f"r_{w} has no term with nonzero delta")

    monkeypatch.setattr(fedosov, "op_delta_inv", bumped)
    counts = check_flatness(solve_r(MUTATED[kind](), 3))
    assert counts.get(w - 1)


def solve_without_pair_3_4(monkeypatch, kind):
    """Solve with the unequal pair (3, 4), the first commutator the
    recursion takes, left out of r_6 and of the quadratic term alike."""
    real = fedosov.graded_commutator
    calls = []

    def dropping(a, b, into=None):
        calls.append(a)
        return into if len(calls) == 1 else real(a, b, into)

    monkeypatch.setattr(fedosov, "graded_commutator", dropping)
    st = solve_r(MUTATED[kind](), 3)
    monkeypatch.undo()
    return st


def test_dropped_weight_pair_shows_in_the_residual(monkeypatch):
    """X_5 without the pair is not delta-closed, so the certificate sees
    the broken recursion at weight 5 though it reuses its sums."""
    st = solve_without_pair_3_4(monkeypatch, "cotangent")
    assert check_flatness(st).get(5)


def test_dropped_weight_pair_on_a_surface_shows_only_in_the_full_pass(
        monkeypatch):
    """With n = 1 every 2-form has top form degree, so delta X_w = 0 and
    the residual -delta^-1 delta X_w vanishes whatever the recursion
    summed: the certificate cannot see the dropped pair there, and the
    independent full pass does."""
    st = solve_without_pair_3_4(monkeypatch, "kaehler")
    assert check_flatness(st) == {}
    _, residual = full_pass(st)
    assert count_by_weight(residual, 2 * st.n_hbar + 1).get(5)


KINDS = ("flat", "darboux", "cotangent", "kaehler")


@pytest.fixture(scope="module", params=KINDS)
def kind_state(request):
    """A solved state of each geometry kind.

    The cotangent lift uses n=2: a one-dimensional base is flat, so the
    n=1 lift has r = 0 and would not reach the commutator.
    """
    kind = request.param
    if kind == "darboux":
        return darboux_state("section")
    rng = sampling.make_rng(("fedosov-test", kind))
    if kind == "flat":
        geom = build_flat(1, 9)
    elif kind == "cotangent":
        geom = lift_cotangent(sampling.random_metric(rng, 2, 9), 9)
    else:
        geom = build_kaehler(sampling.random_kaehler_potential(rng, 1, 12),
                             12)
    return solve_r(geom, 2)


def fresh_copy(st):
    """The same solution of the flatness equation with empty caches."""
    return FedosovState(st.geometry, st.n_hbar, st.r_parts, st.residual)


def observables(st):
    chart = st.geometry.chart
    x = Jet.variable(chart, 0, st.geometry.order)
    y = Jet.variable(chart, chart.dim - 1, st.geometry.order)
    return [x ** 2 + y, x * y * y - y * 3, x ** 3 - x * y + 2]


def test_section_is_flat(kind_state):
    st = fresh_copy(kind_state)
    sec = full_section(observables(st)[0], st)
    assert section_defect(sec, st) == {}


def test_section_independent_of_filled_rows(kind_state):
    f, g, h = observables(kind_state)
    expected = flat_section(f, fresh_copy(kind_state))
    warm = fresh_copy(kind_state)
    flat_section(g, warm)
    flat_section(h, warm)
    assert bool(warm._rows) == bool(warm.r_parts)
    assert flat_section(f, warm) == expected


def test_section_cache_is_bounded():
    st = darboux_state("cache", n_hbar=2)
    f, g, _ = observables(st)
    fs = [f + g * k for k in range(SECTION_CACHE_SIZE + 2)]
    first = flat_section(fs[0], st)
    for f in fs[1:SECTION_CACHE_SIZE]:
        flat_section(f, st)
    cache = st._section_cache
    assert len(cache) == SECTION_CACHE_SIZE and fs[0] in cache
    kept = cache[fs[0]]
    flat_section(fs[0], st)
    assert cache[fs[0]] is kept and len(cache) == SECTION_CACHE_SIZE
    flat_section(fs[SECTION_CACHE_SIZE], st)
    assert len(cache) == SECTION_CACHE_SIZE and fs[0] not in cache
    assert fs[1] in cache and fs[SECTION_CACHE_SIZE] in cache
    # a dropped section is rebuilt exactly
    assert flat_section(fs[0], st) == first
    assert flat_section(fs[0], st) == flat_section(fs[0], fresh_copy(st))


def test_commutator_rows_match_graded_commutator(kind_state):
    st = fresh_copy(kind_state)
    geom = st.geometry
    sec = full_section(observables(st)[0], st)
    checked = 0
    for w, rp in st.r_parts.items():
        for s2 in range(1, 2 * st.n_hbar + 3 - w):
            part = pi_weight(sec, s2)
            if part.is_zero():
                continue
            acc = defaultdict(JetSum)
            # no level bound: a level is at most the weight, here 2N
            st.add_commutator(w, part, acc, 2 * st.n_hbar)
            assert WeylForm.from_sums(geom, acc) \
                == WeylForm.from_sums(geom, graded_commutator(
                    rp, part, defaultdict(JetSum)))
            checked += 1
    assert checked or st.r_parts == {}


def level(key):
    """The level k + |alpha| of a term hbar^k y^alpha dx^beta."""
    return key[0] + sum(key[1])


def restrict_level(form, n):
    """The terms hbar^k y^alpha of ``form`` with k + |alpha| <= n."""
    return WeylForm(form.geometry,
                    {key: jet for key, jet in form.terms.items()
                     if level(key) <= n})


def section_observables(st, tag):
    """Seeded polynomials valid at the chart's order and beyond it."""
    rng = sampling.make_rng(("section", tag))
    chart, order = st.geometry.chart, st.geometry.order
    return [sampling.random_polynomial(rng, chart, v, degree=3, terms=4)
            for v in (order, order + 2, order + 3)]


@pytest.mark.parametrize("case", list(PINNED), ids=lambda c: "-".join(
    map(str, c[:4] + c[4])))
def test_bounded_section_is_the_restricted_reference_fill(case):
    """For every bound n = 0 ... N + 1, the section through hbar^n is store
    for store, validity included, the terms of level <= min(n, N) of the
    reference fill, which uses no commutator row, cache or level bound."""
    kind, n, order, n_hbar, tag = case
    st = solve_r(_CHARTS[kind](sampling.make_rng(tag), n, order), n_hbar)
    for f in section_observables(st, tag):
        full = full_section(f, st)
        for bound in range(n_hbar + 2):
            assert flat_section(f, fresh_copy(st), bound) \
                == restrict_level(full, min(bound, n_hbar))


def low_defect(section, st, n):
    """The terms of D(section) of level <= n - 1."""
    return [key for key in connection(section, st).terms if level(key) < n]


def test_bounded_section_is_flat_below_its_top_level(kind_state):
    """nabla keeps the level, delta lowers it by one and (i/hbar)[r, .]
    lowers it by at most one, so the terms of D(a_n) of level <= n - 1
    read only the levels <= n that the section through hbar^n holds: they
    vanish, with no reference fill to compare against.  Dropping a term of
    any level <= n from the section shows there."""
    st = fresh_copy(kind_state)
    for f in observables(st):
        # at n = 0 no level lies below the section's top one
        for n in range(1, st.n_hbar + 1):
            sec = flat_section(f, st, n)
            assert low_defect(sec, st, n) == []
            for lev in range(n + 1):
                key = min(key for key in sec.terms if level(key) == lev)
                cut = WeylForm(st.geometry,
                               {k: jet for k, jet in sec.terms.items()
                                if k != key})
                assert low_defect(cut, st, n), (n, key)


def test_star_matches_symbol_of_full_sections(kind_state):
    st = fresh_copy(kind_state)
    f, g, _ = observables(st)
    fhat, ghat = full_section(f, st), full_section(g, st)
    for n in range(st.n_hbar + 1):
        # the symbol of the two reference sections
        sym = symbol_mul(fhat, ghat, max_hbar=n)
        expected = []
        for k in range(n + 1):
            jet = sym.get(k)
            if jet is None or jet.is_zero():
                # a zero claims at most its floor, min(v_f, v_g) - k
                floor = max(min(f.valid_order, g.valid_order) - k, 0)
                jet = Jet.zero(st.geometry.chart, floor if jet is None
                               else min(jet.valid_order, floor))
            expected.append(jet)
        expected = tuple(expected)
        assert star(f, g, fresh_copy(kind_state), n).coefficients == expected
        assert star(f, g, st, n).coefficients == expected


@pytest.mark.parametrize("bounds", [(1, None), (None, 1), (0, 2)],
                         ids=["truncated-full", "full-truncated",
                              "small-large"])
def test_section_cache_call_orders(kind_state, bounds):
    """None is the default bound, the state's N ("full"), so the bounds
    are (1, N), (N, 1) and (0, 2): a larger bound rebuilds the one entry,
    a smaller one restricts it."""
    f = observables(kind_state)[0]
    st = fresh_copy(kind_state)
    for n in bounds:
        assert flat_section(f, st, n) \
            == flat_section(f, fresh_copy(kind_state), n)
    assert len(st._section_cache) == 1


def test_negative_section_bound_rejected():
    st = darboux_state("negative", n_hbar=1)
    with pytest.raises(FedosovError):
        flat_section(observables(st)[0], st, -1)


def test_negative_hbar_order_rejected_by_solve_and_reference():
    """A negative order is no truncation: ``solve_r`` built r_3 at N = -1
    and ``moyal_reference`` returned a series through hbar^-1."""
    rng = sampling.make_rng(("darb", 0))
    darb = build_darboux(1, sampling.random_darboux_gamma(rng, 1, 9), 9)
    with pytest.raises(FedosovError, match="hbar order -1 is negative"):
        solve_r(darb, -1)
    flat = build_flat(1, 9)
    q, p = (Jet.variable(flat.chart, i, 9) for i in range(2))
    with pytest.raises(FedosovError, match="hbar order -1 is negative"):
        moyal_reference(q, p, flat, -1)


def test_low_order_star_coefficients():
    st = darboux_state("low")
    geom = st.geometry
    order = geom.order
    q = Jet.variable(geom.chart, 0, order)
    p = Jet.variable(geom.chart, 1, order)
    f = q * q * p - p * 2
    g = q * p * p + q * 3
    ss = star(f, g, st)
    assert ss.coefficient(0).agrees_with(f * g)
    assert ss.coefficient(1).agrees_with(poisson(f, g, geom) * HALF_I)


def test_correspondence_principle():
    st = darboux_state("corr")
    geom = st.geometry
    order = geom.order
    f = Jet.variable(geom.chart, 0, order) * Jet.variable(geom.chart, 1,
                                                          order)
    g = Jet.variable(geom.chart, 1, order) ** 2
    diff = star(f, g, st).coefficient(1) - star(g, f, st).coefficient(1)
    assert diff.agrees_with(poisson(f, g, geom) * I)


def test_star_truncation_argument():
    st = darboux_state("trunc")
    chart = st.geometry.chart
    f = Jet.variable(chart, 0, st.geometry.order)
    g = Jet.variable(chart, 1, st.geometry.order)
    short = star(f, g, st, 1)
    assert short.valid_hbar_order == 1
    full = star(f, g, st)
    assert short.coefficient(1).agrees_with(full.coefficient(1))
    with pytest.raises(FedosovError):
        short.coefficient(2)
