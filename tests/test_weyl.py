"""Fiberwise Weyl algebra: products, gradings, and the delta homotopy."""

import copy
import pickle
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import factorial

import pytest
from hypothesis import assume, given, strategies as st

from fedquant.jets import Jet, JetSum
from fedquant.rational import CRat, HALF_I, I
from fedquant.weyl import (GradingError, WeylForm, _expansion, _pairing,
                           _partners, _wedge, graded_commutator, op_delta, op_delta_inv,
                           op_delta_star, pi_weight, scalar_part, symbol_mul,
                           weyl_mul)
from fedquant import sampling
from fedquant.fedosov import flat_section, solve_r
from fedquant.geometry import (build_darboux, build_flat, build_kaehler,
                               lift_cotangent)
from fedquant.suites import _CHARTS
from reference import (contract_by_products, expansion, full_section,
                       pairing, symbol_mul_by_pairs)
from test_digest import PINNED


ORDER = 6
FLAT = build_flat(1, ORDER)


def curved_geometries():
    """Darboux, cotangent and Kaehler charts at n = 1, 2, keyed (kind, n)."""
    rng = sampling.make_rng("weyl-curved")
    out = {}
    for n in (1, 2):
        out["darboux", n] = build_darboux(
            n, sampling.random_darboux_gamma(rng, n, ORDER), ORDER)
        out["cotangent", n] = lift_cotangent(
            sampling.random_metric(rng, n, ORDER), ORDER)
        out["kaehler", n] = build_kaehler(
            sampling.random_kaehler_potential(rng, n, ORDER), ORDER)
    return out


CURVED = curved_geometries()


def gen(i):
    """The fiber generator y^i with unit coefficient."""
    alpha = tuple(int(k == i) for k in range(FLAT.dim))
    return WeylForm(FLAT, {(0, alpha, ()): jconst(1)})


def jconst(c):
    return Jet.constant(FLAT.chart, c, ORDER)


def test_canonical_commutator():
    yq, yp = gen(0), gen(1)
    comm = weyl_mul(yq, yp) - weyl_mul(yp, yq)
    want = WeylForm(FLAT, {(1, (0, 0), ()): jconst(I)})
    assert comm.agrees_with(want)


def test_same_generator_commutes():
    yq = gen(0)
    assert (weyl_mul(yq, yq) - weyl_mul(yq, yq)).is_zero()


def test_product_associative():
    yq, yp = gen(0), gen(1)
    a = weyl_mul(yq, weyl_mul(yp, yq))
    b = weyl_mul(weyl_mul(yq, yp), yq)
    assert a.agrees_with(b)


def test_one_forms_anticommute():
    # identical fiber content, so only the wedge signs are in play
    a = WeylForm(FLAT, {(0, (1, 0), (0,)): jconst(1)})
    b = WeylForm(FLAT, {(0, (1, 0), (1,)): jconst(1)})
    assert (weyl_mul(a, b) + weyl_mul(b, a)).is_zero()


def test_one_form_bracket_contracts():
    # paired fiber directions leave the hbar contraction behind
    a = WeylForm(FLAT, {(0, (1, 0), (0,)): jconst(1)})
    b = WeylForm(FLAT, {(0, (0, 1), (1,)): jconst(2)})
    got = weyl_mul(a, b) + weyl_mul(b, a)
    want = WeylForm(FLAT, {(1, (0, 0), (0, 1)): jconst(CRat(0, 2))})
    assert got.agrees_with(want)


def test_graded_commutator_sign():
    a = WeylForm(FLAT, {(0, (1, 0), (0,)): jconst(1)})
    b = WeylForm(FLAT, {(0, (0, 1), (1,)): jconst(2)})
    # both are 1-forms, so the graded bracket is the anticommutator
    assert graded_commutator(a, b).agrees_with(
        weyl_mul(a, b) + weyl_mul(b, a))


def test_wedge_inserts_one_index_by_the_sign_rule():
    """dx^b wedge dx^beta is (-1)^#{x in beta : x < b} times the sorted
    merge, or nothing when b is already in beta."""
    for dim in range(7):
        for size in range(dim + 1):
            for beta in combinations(range(dim), size):
                for b in range(dim):
                    want = None if b in beta else (
                        (-1) ** sum(x < b for x in beta),
                        tuple(sorted(beta + (b,))))
                    assert _wedge((b,), beta) == want


def test_delta_squares_to_zero():
    a = WeylForm(FLAT, {
        (0, (2, 1), ()): jconst(1),
        (1, (0, 1), (0,)): jconst(3),
        (0, (0, 0), (0, 1)): jconst(-2),
    })
    assert op_delta(op_delta(a)).is_zero()
    assert op_delta_star(op_delta_star(a)).is_zero()


def test_homotopy_decomposition():
    q = Jet.variable(FLAT.chart, 0, ORDER)
    a = WeylForm(FLAT, {
        (0, (2, 1), ()): q * q,
        (1, (0, 1), (0,)): q + 1,
        (0, (0, 0), (0, 1)): q * 3,
        (2, (0, 0), ()): q,
    })
    dd = op_delta(op_delta_inv(a)) + op_delta_inv(op_delta(a)) \
        + scalar_part(a)
    assert dd.agrees_with(a)


def test_number_operator_identity():
    a = WeylForm(FLAT, {(0, (2, 1), (0,)): jconst(1)})
    anti = op_delta(op_delta_star(a)) + op_delta_star(op_delta(a))
    # |alpha| + |beta| = 3 + 1
    assert anti.agrees_with(a.map_jets(lambda j: j * 4))


def test_weight_projection_and_truncation():
    a = WeylForm(FLAT, {
        (0, (2, 0), ()): jconst(1),      # weight 2
        (1, (1, 0), ()): jconst(1),      # weight 3
    })
    assert pi_weight(a, 2).agrees_with(
        WeylForm(FLAT, {(0, (2, 0), ()): jconst(1)}))


def test_i_over_hbar_requires_a_vanishing_hbar0_layer():
    y1 = WeylForm(FLAT, {(0, (1, 0), ()): jconst(1)})
    y2 = WeylForm(FLAT, {(0, (0, 1), ()): jconst(1)})
    # [y1, y2] lives at hbar^1, so (i/hbar) moves it to hbar^0 times i
    ok = graded_commutator(y1, y2, defaultdict(JetSum))
    assert WeylForm.from_sums(FLAT, ok).agrees_with(WeylForm(
        FLAT, {(k - 1, alpha, beta): jet * I for (k, alpha, beta), jet
                    in graded_commutator(y1, y2).terms.items()}))
    # y1 o y1 = y1^2 at hbar^0, which (i/hbar) cannot take
    bad = weyl_mul(y1, y1, defaultdict(JetSum))
    with pytest.raises(GradingError):
        WeylForm.from_sums(FLAT, bad)


def sum_of(terms):
    acc = JetSum()
    for jet, scale in terms:
        acc.add(jet, s=scale)
    return acc


def test_delta_inv_of_sums_skips_a_cancelled_sum():
    """Two 1-forms meet at one output key; the one that cancelled has the
    lower validity and must not lower the output's."""
    q = Jet.variable(FLAT.chart, 0, ORDER)
    low = q.truncate(2)
    sums = {(0, (0, 1), (0,)): sum_of([(q, 3)]),
            (0, (1, 0), (1,)): sum_of([(low, 1), (low, -1)]),
            (0, (0, 0), ()): sum_of([(q, 1)])}
    got = op_delta_inv(WeylForm.from_sums(FLAT, sums))
    assert got.terms[0, (1, 1), ()].valid_order == ORDER


@pytest.mark.parametrize("beta", [(), (0,)])
def test_delta_inv_of_sums_refuses_a_negative_hbar_power(beta):
    q = Jet.variable(FLAT.chart, 0, ORDER)
    cancelled = {(-1, (1, 0), beta): sum_of([(q, 1), (q, -1)])}
    assert op_delta_inv(WeylForm.from_sums(FLAT, cancelled)).is_zero()
    with pytest.raises(GradingError):
        op_delta_inv(WeylForm.from_sums(
            FLAT, {(-1, (1, 0), beta): sum_of([(q, 1)])}))


def test_symbol_strips_fiber():
    q = Jet.variable(FLAT.chart, 0, ORDER)
    a = WeylForm(FLAT, {(0, (0, 0), ()): q, (0, (2, 0), ()): q,
                        (1, (0, 0), ()): q * 2})
    assert scalar_part(a).terms == {(0, (0, 0), ()): q, (1, (0, 0), ()): q * 2}


@pytest.mark.parametrize("kind", ["flat", "darboux", "cotangent", "kaehler"])
def test_symbol_mul_matches_full_product(kind):
    """The hbar-resolved scalar projection equals the full Weyl product."""
    geom = FLAT if kind == "flat" else CURVED[kind, 1]
    q = Jet.variable(geom.chart, 0, ORDER)
    a = WeylForm(geom, {(0, (1, 0), ()): q, (0, (0, 2), ()): q + 1})
    b = WeylForm(geom, {(0, (0, 1), ()): q * 2, (0, (2, 0), ()): q})
    sym = symbol_mul(a, b, max_hbar=3)
    full = scalar_part(weyl_mul(a, b))
    zero = (0,) * geom.dim
    acc = WeylForm(geom, {(k, zero, ()): jet for k, jet in sym.items()})
    assert acc.agrees_with(full)


def test_products_are_exact_at_every_weight():
    """A form keeps every term of a product, whatever its weight: y_q
    taken m times is y_q^m well past weight 8, and y_q o y_p is
    y_q y_p + i hbar/2."""
    yq, yp = gen(0), gen(1)
    power = yq
    for m in range(2, 13):
        power = weyl_mul(power, yq)
        assert power == WeylForm(FLAT, {(0, (m, 0), ()): jconst(1)})
    assert weyl_mul(yq, yp) == WeylForm(
        FLAT, {(0, (1, 1), ()): jconst(1), (1, (0, 0), ()): jconst(HALF_I)})


# -- the exponential contraction, summed term by term -----------------------

def _d_fiber(terms, i):
    """d/dy^i of a {(k, alpha, beta): jet} map."""
    out = {}
    for (k, alpha, beta), jet in terms.items():
        if alpha[i]:
            lowered = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
            out[k, lowered, beta] = jet * alpha[i]
    return out


def _wedge_sign(beta_a, beta_b):
    """The sign sorting dx^beta_a dx^beta_b, or 0 if an index repeats."""
    merged = beta_a + beta_b
    if len(set(merged)) < len(merged):
        return 0
    inversions = sum(x > y for pos, x in enumerate(merged)
                     for y in merged[pos + 1:])
    return -1 if inversions % 2 else 1


def contraction_reference(a, b):
    """a o b as the exponential series written out over index sequences:

        sum_m (i hbar/2)^m / m!  omega^{i1 j1} ... omega^{im jm}
              (d_{i1} ... d_{im} a) (d_{j1} ... d_{jm} b),

    every d a fiber derivative d/dy; form factors of a stand to the left.
    """
    geom = a.geometry
    dim = geom.dim
    omega = [(i, j, geom.omega_inv[i][j]) for i in range(dim)
             for j in range(dim) if not geom.omega_inv[i][j].is_zero()]
    out = {}
    level = [(a.terms, b.terms, Jet.constant(geom.chart, 1, geom.order))]
    m = 0
    while level:
        scale = HALF_I ** m * Fraction(1, factorial(m))
        for da, db, w in level:
            for (ka, alpha_a, beta_a), ja in da.items():
                for (kb, alpha_b, beta_b), jb in db.items():
                    sign = _wedge_sign(beta_a, beta_b)
                    if not sign:
                        continue
                    key = (ka + kb + m,
                           tuple(x + y for x, y in zip(alpha_a, alpha_b)),
                           tuple(sorted(beta_a + beta_b)))
                    term = ja * jb * w * (scale * sign)
                    out[key] = term + out[key] if key in out else term
        level = [(_d_fiber(da, i), _d_fiber(db, j), w * om)
                 for da, db, w in level for i, j, om in omega]
        level = [(da, db, w) for da, db, w in level if da and db]
        m += 1
    return WeylForm(geom, out)


def commutator_reference(a, b):
    """[a, b] = a o b - (-1)^{pq} b o a, term by term in form degree."""
    geom = a.geometry
    out = WeylForm(geom, {})
    for key_a, ja in a.terms.items():
        for key_b, jb in b.terms.items():
            ta = WeylForm(geom, {key_a: ja})
            tb = WeylForm(geom, {key_b: jb})
            swap = contraction_reference(tb, ta)
            if len(key_a[2]) * len(key_b[2]) % 2:
                swap = -swap
            out = out + contraction_reference(ta, tb) - swap
    return out


def forms(geom):
    """Forms of one to three terms with |alpha| <= 3 and small jets."""
    dim = geom.dim
    alphas = [e for e in product(range(4), repeat=dim) if sum(e) <= 3]
    monomials = [e for e in product(range(3), repeat=dim) if sum(e) <= 2]
    coeffs = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    jets = st.dictionaries(st.sampled_from(monomials), coeffs, min_size=1,
                           max_size=3).map(
        lambda c: Jet(geom.chart, ORDER, ORDER, c))
    keys = st.tuples(st.integers(0, 1), st.sampled_from(alphas),
                     st.sampled_from([()] + [(i,) for i in range(dim)]))
    return st.dictionaries(keys, jets, min_size=1, max_size=3).map(
        lambda terms: WeylForm(geom, terms))


FORMS = [forms(geom) for _, geom in sorted(CURVED.items())]


def form_tuples(size):
    """``size`` forms on one of the curved charts."""
    return st.one_of([st.tuples(*[f] * size) for f in FORMS])


@given(form_tuples(2))
def test_weyl_mul_matches_contraction_reference(ab):
    a, b = ab
    assert weyl_mul(a, b).agrees_with(contraction_reference(a, b))


@given(form_tuples(2))
def test_graded_commutator_matches_contraction_reference(ab):
    a, b = ab
    assert graded_commutator(a, b).agrees_with(commutator_reference(a, b))


@given(form_tuples(3))
def test_weyl_mul_is_associative(abc):
    a, b, c = abc
    assert weyl_mul(weyl_mul(a, b), c).agrees_with(
        weyl_mul(a, weyl_mul(b, c)))


def truncating_forms(geom, odd=False):
    """Forms of one to three terms with |alpha| <= 3 and complex jets valid
    through 1 ... ORDER, so that some term products truncate to zero; with
    ``odd`` every term is a 1-form."""
    dim = geom.dim
    alphas = [e for e in product(range(4), repeat=dim) if sum(e) <= 3]
    coeffs = st.builds(CRat, st.builds(Fraction, st.integers(-5, 5),
                                       st.integers(1, 4)),
                       st.integers(-1, 1))
    jets = st.builds(lambda v, c: Jet(geom.chart, ORDER, v, c),
                     st.integers(1, ORDER),
                     st.dictionaries(st.sampled_from(alphas), coeffs,
                                     min_size=1, max_size=3))
    betas = [(i,) for i in range(dim)] + ([] if odd else [(), (0, 1)])
    keys = st.tuples(st.integers(0, 1), st.sampled_from(alphas),
                     st.sampled_from(betas))
    return st.dictionaries(keys, jets, min_size=1, max_size=3).map(
        lambda terms: WeylForm(geom, terms))


def all_finished(sums):
    """Every finished jet of a ``{key: JetSum}`` map, zero ones kept."""
    return {key: acc.jet() for key, acc in sums.items()}


@given(st.sampled_from(sorted(CURVED)).flatmap(
    lambda where: st.tuples(truncating_forms(CURVED[where]),
                            truncating_forms(CURVED[where]),
                            truncating_forms(CURVED[where], odd=True))))
def test_products_match_the_per_pair_product_fold(abp):
    """The product, the commutator and the square of an odd form equal,
    store for store and validity included, the fold that finishes each
    term pair's jet product before adding its expansion entries; so do the
    (i/hbar) maps ``into`` fills, zero jets included."""
    a, b, p = abp
    for x, y, ours, parity in ((a, b, weyl_mul, None),
                               (a, b, graded_commutator, 1),
                               (p, p, weyl_mul, None)):
        assert ours(x, y) == contract_by_products(x, y, parity)
        assert all_finished(ours(x, y, defaultdict(JetSum))) \
            == all_finished(contract_by_products(x, y, parity,
                                                 defaultdict(JetSum)))


# -- the square of an odd form, and parity-split expansions ----------------

@lru_cache(maxsize=None)
def digest_state(case):
    kind, n, order, n_hbar, tag = case
    return solve_r(_CHARTS[kind](sampling.make_rng(tag), n, order), n_hbar)


def odd_forms(case):
    """The weight parts r_w that ``solve_r`` squares on a
    ``tests/test_digest.py`` chart, those with 2w <= 2N + 2, and their sum:
    every term is a 1-form."""
    st = digest_state(case)
    parts = [p for w, p in st.r_parts.items() if w <= st.n_hbar + 1]
    return parts + [WeylForm(st.geometry, {key: jet for p in parts
                                           for key, jet in p.terms.items()})]


def finished(sums):
    """The nonzero finished jets of a ``{key: JetSum}`` map.  An ordered
    product also leaves zero jets where only its even contraction orders
    landed, which cancel between a_s o a_t and a_t o a_s; the square never
    forms them."""
    jets = {key: acc.jet() for key, acc in sums.items()}
    return {key: jet for key, jet in jets.items() if not jet.is_zero()}


def assert_square_matches_ordered_product(p):
    # an equal copy is not ``p``, so the second product takes every
    # ordered term pair and every contraction order
    twin = WeylForm(p.geometry, dict(p.terms))
    assert finished(weyl_mul(p, p, defaultdict(JetSum))) \
        == finished(weyl_mul(p, twin, defaultdict(JetSum)))
    assert weyl_mul(p, p) == weyl_mul(p, twin)


@pytest.mark.parametrize("case", list(PINNED), ids=lambda c: "-".join(
    map(str, c[:4] + c[4])))
def test_square_of_an_odd_form_equals_the_ordered_product(case):
    for p in odd_forms(case):
        assert all(len(beta) % 2 for _, _, beta in p.terms)
        assert_square_matches_ordered_product(p)


@pytest.mark.parametrize("case", list(PINNED), ids=lambda c: "-".join(
    map(str, c[:4] + c[4])))
def test_a_zero_form_term_keeps_the_full_product(case):
    """A 0-form term commutes with everything and its own square does not
    vanish, so the unordered odd pairs would miss both; the form must take
    every pair and every order, and still match."""
    geom = digest_state(case).geometry
    q = Jet.variable(geom.chart, 0, geom.order)
    for p in odd_forms(case):
        mixed = WeylForm(geom, {**p.terms, (1, (0,) * geom.dim, ()): q + 2})
        assert_square_matches_ordered_product(mixed)


@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("where", sorted(CURVED))
def test_parity_expansion_filters_the_full_one(where, parity):
    geom = CURVED[where]
    alphas = [e for e in product(range(4), repeat=geom.dim) if sum(e) <= 3]
    for alpha_a, alpha_b in product(alphas, repeat=2):
        full = _expansion(geom, alpha_a, alpha_b)
        assert _expansion(geom, alpha_a, alpha_b, parity) \
            == [entry for entry in full if entry[0] % 2 == parity]


def assert_expansions_are_the_full_enumeration(geom):
    """Every expansion with |alpha_a|, |alpha_b| <= 3, under each parity,
    is the reference enumeration over all (gamma, delta) of one degree:
    the same entries in the same order, each holding the table's own
    pairing object.  ``_partners(geom, gamma)`` is sorted, of degree
    |gamma|, and holds every delta with a nonzero pairing."""
    alphas = [e for e in product(range(4), repeat=geom.dim) if sum(e) <= 3]
    for alpha_a, alpha_b in product(alphas, repeat=2):
        for parity in (None, 0, 1):
            got = _expansion(geom, alpha_a, alpha_b, parity)
            want = expansion(geom, alpha_a, alpha_b, parity)
            assert got == want
            assert all(g[2] is w[2] for g, w in zip(got, want))
    for gamma in alphas:
        partners = _partners(geom, gamma)
        assert partners == sorted(set(partners))
        assert all(sum(delta) == sum(gamma) for delta in partners)
        assert set(partners) >= {
            delta for delta in alphas if sum(delta) == sum(gamma)
            and _pairing(geom, gamma, delta)[0]}


@pytest.mark.parametrize("where", sorted(CURVED),
                         ids=lambda w: f"{w[0]}-{w[1]}")
def test_expansions_pair_only_reachable_partners(where):
    assert_expansions_are_the_full_enumeration(CURVED[where])


def test_q_only_commutator_forms_no_product(monkeypatch):
    """On a cotangent chart omega^{-1} never pairs two q-generators, so
    forms whose fiber parts hold only q-generators have no odd
    contraction: their commutator is empty, and no jet product is formed
    for a pair it then throws away."""
    geom = CURVED["cotangent", 2]
    assert all(geom.omega_inv[i][j].is_zero()
               for i in range(2) for j in range(2))
    q = Jet.variable(geom.chart, 0, ORDER)
    a = WeylForm(geom, {(0, (1, 0, 0, 0), (0,)): q + 1,
                        (0, (1, 2, 0, 0), (2,)): q * 3})
    b = WeylForm(geom, {(0, (0, 1, 0, 0), (1,)): q - 1,
                        (1, (2, 1, 0, 0), (3,)): q})
    # pairings are built and cached on first use, through JetSum.add
    graded_commutator(a, b)
    adds = []
    real = JetSum.add

    def counted(self, *args, **kw):
        adds.append(args)
        return real(self, *args, **kw)

    monkeypatch.setattr(JetSum, "add", counted)
    assert graded_commutator(a, b, defaultdict(JetSum)) == {}
    assert graded_commutator(a, b).is_zero()
    assert adds == []


def test_forms_copy_and_pickle():
    geom = CURVED["kaehler", 1]
    q = Jet.variable(geom.chart, 0, ORDER)
    a = WeylForm(geom, {(0, (1, 0), (0,)): q * CRat(1, 2),
                        (1, (0, 2), ()): q + 3})
    shallow = copy.copy(a)
    assert shallow == a and shallow.geometry is geom
    for back in (copy.deepcopy(a),
                 *(pickle.loads(pickle.dumps(a, proto))
                   for proto in range(2, pickle.HIGHEST_PROTOCOL + 1))):
        assert back == a
        assert weyl_mul(back, back) == weyl_mul(a, a)


# -- the pairing table, and the symbol read from it -----------------------

@pytest.mark.parametrize("where", sorted(CURVED),
                         ids=lambda w: f"{w[0]}-{w[1]}")
def test_pairing_table_is_the_sum_over_bijections(where):
    """Every pairing with |alpha| = |beta| <= 3 against the reference sum:
    a constant sum, zero included, is (its value, None), and any other is
    (1, the sum), store for store."""
    geom = CURVED[where]
    alphas = [e for e in product(range(4), repeat=geom.dim) if sum(e) <= 3]
    for alpha_a, alpha_b in product(alphas, repeat=2):
        if sum(alpha_a) == sum(alpha_b):
            _assert_pairing_is_the_sum(geom, alpha_a, alpha_b)


def _assert_pairing_is_the_sum(geom, alpha_a, alpha_b):
    want = pairing(geom, alpha_a, alpha_b)
    scalar, jet = _pairing(geom, alpha_a, alpha_b)
    if want.is_constant():
        assert jet is None and scalar == want.constant_term
    else:
        assert scalar == 1 and jet == want


def _observables(geom, tag):
    """Seeded polynomials, two of them valid beyond the chart's order."""
    rng = sampling.make_rng(("symbol", tag))
    chart, order = geom.chart, geom.order
    return [sampling.random_polynomial(rng, chart, v, degree=3, terms=4)
            for v in (order, order, order + 2, order + 2)]


@pytest.mark.parametrize("case", list(PINNED), ids=lambda c: "-".join(
    map(str, c[:4] + c[4])))
def test_symbol_mul_matches_the_per_pair_fold(case):
    """Store for store, validity included, on full and bounded sections;
    the last pair is valid beyond the chart's order, where a constant
    pairing must not cap the validity at that order."""
    state = digest_state(case)
    f, g, fh, gh = _observables(state.geometry, case)
    for x, y in ((f, g), (g, f), (f, gh), (fh, gh)):
        full = full_section(x, state), full_section(y, state)
        for n in range(state.n_hbar + 1):
            bounded = flat_section(x, state, n), flat_section(y, state, n)
            for a, b in (full, bounded):
                assert symbol_mul(a, b, n) == symbol_mul_by_pairs(a, b, n)
    sym = symbol_mul(full_section(fh, state), full_section(gh, state), 0)
    assert sym[0] == fh * gh and sym[0].valid_order > state.geometry.order


def test_symbol_mul_skips_and_keeps_what_the_per_pair_fold_does():
    """On the Kaehler n = 1 chart every level-1 pairing is a multiple of
    omega^{12}, a nonconstant jet.  A pair whose jet product is nonzero
    but vanishes once multiplied by it, and two pairs whose products
    against it cancel, are all still added: either way the hbar^1
    coefficient, whose y-free pair is valid beyond the pairing, is
    certified through the pairing's validity alone, as in the per-pair
    fold."""
    geom = CURVED["kaehler", 1]
    vp = pairing(geom, (1, 0), (0, 1)).valid_order
    v = vp + 3
    q = Jet.variable(geom.chart, 0, v)
    one = Jet.constant(geom.chart, 1, v)
    free = {(1, (0, 0), ()): q + 1}
    # q^2 * q^(vp - 1) is nonzero, but not below the pairing's order
    vanishing = (WeylForm(geom, {**free, (0, (1, 0), ()): q ** 2}),
                 WeylForm(geom, {(0, (0, 0), ()): one,
                                 (0, (0, 1), ()): q ** (vp - 1)}))
    # y1 y2 pairs to -omega^{12} + omega^{12}: the two products cancel
    cancelling = (WeylForm(geom, {**free, (0, (1, 0), ()): q,
                                  (0, (0, 1), ()): q}),
                  WeylForm(geom, {(0, (0, 0), ()): one,
                                  (0, (1, 0), ()): q,
                                  (0, (0, 1), ()): q}))
    for a, b in (vanishing, cancelling):
        sym = symbol_mul(a, b, 1)
        assert sym == symbol_mul_by_pairs(a, b, 1)
        assert sym[1] == (q + 1).truncate(vp)


def test_a_product_that_truncates_to_zero_caps_its_sum():
    """On the flat n = 1 chart at order 9, q^2 y^1 o q^2 y^2 adds
    (i/2) q^4 hbar to the hbar^1 y-free coefficient.  With q valid through
    3 that product truncates to zero, and the coefficient 1 + q is then
    certified through 3 only: through 9 it would be 1 + q + (i/2) q^4."""
    geom = build_flat(1, 9)
    hbar_free = (1, (0, 0), ())

    def pair(q):
        one = Jet.constant(geom.chart, 1, 9)
        q9 = Jet.variable(geom.chart, 0, 9)
        a = WeylForm(geom, {(0, (1, 0), ()): q ** 2, hbar_free: one + q9})
        b = WeylForm(geom, {(0, (0, 1), ()): q ** 2, (0, (0, 0), ()): one})
        return a, b

    q3, q9 = (Jet.variable(geom.chart, 0, v) for v in (3, 9))
    full = weyl_mul(*pair(q9)).terms[hbar_free]
    assert full == 1 + q9 + q9 ** 4 * CRat(0, Fraction(1, 2))
    got = weyl_mul(*pair(q3)).terms[hbar_free]
    assert got == (1 + q9).truncate(3)
    assert got.agrees_with(full)


def _assert_certified_by(got, full):
    """Each jet of ``got`` agrees with the jet at its key in ``full``,
    which is certified at least as far; a key absent from ``full`` is
    zero there."""
    for key, jet in got.items():
        ref = full.get(key, Jet.zero(jet.chart, jet.valid_order))
        assert jet.valid_order <= ref.valid_order and jet.agrees_with(ref)


@given(st.one_of([st.tuples(f, f, st.integers(0, ORDER), st.integers(0, 2))
                  for f in FORMS]))
def test_a_truncated_factor_is_certified_only_as_far_as_it_holds(draw):
    """Truncating one jet of a to validity v changes no coefficient of
    a o b, [a, b] or the symbol through the validity each result claims."""
    a, b, v, pick = draw
    assume(a.terms)
    key = sorted(a.terms)[pick % len(a.terms)]
    cut = a.terms[key].truncate(v)
    # a dropped term leaves absent entries, which certify nothing here
    assume(not cut.is_zero())
    cut_a = WeylForm(a.geometry, {**a.terms, key: cut})
    for op in (weyl_mul, graded_commutator):
        _assert_certified_by(op(cut_a, b).terms, op(a, b).terms)
    _assert_certified_by(symbol_mul(cut_a, b, 5), symbol_mul(a, b, 5))


@pytest.mark.parametrize("where", [("kaehler", 1), ("darboux", 1)])
def test_pairings_of_levels_zero_to_four_are_the_reference_sum(where):
    """Levels 0 to 4 on the n = 1 charts, deeper than the |alpha| <= 3
    sweep: every pairing is the reference sum."""
    geom = CURVED[where]
    for level in range(5):
        alphas = [(j, level - j) for j in range(level + 1)]
        for alpha_a, alpha_b in product(alphas, repeat=2):
            _assert_pairing_is_the_sum(geom, alpha_a, alpha_b)


@given(st.one_of([forms(geom) for _, geom in sorted(CURVED.items())]))
def test_symbol_mul_is_the_scalar_part_on_zero_forms(a):
    geom = a.geometry
    zero_forms = WeylForm(geom, {key: jet for key, jet in a.terms.items()
                                 if not key[2]})
    b = WeylForm(geom, {(k, alpha[::-1], ()): jet * (k + 2)
                        for (k, alpha, _), jet in a.terms.items()})
    for x, y in ((zero_forms, b), (b, zero_forms), (b, b)):
        # k <= 1 and |alpha| <= 3 on each side: the symbol reaches hbar^5
        sym = symbol_mul(x, y, 5)
        zero = (0,) * geom.dim
        got = WeylForm(geom, {(k, zero, ()): jet for k, jet in sym.items()})
        assert got.agrees_with(scalar_part(weyl_mul(x, y)))
