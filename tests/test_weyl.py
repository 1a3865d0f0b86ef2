"""Fiberwise Weyl algebra: products, gradings, and the delta homotopy."""

from collections import defaultdict
from fractions import Fraction
from itertools import product
from math import factorial

import pytest
from hypothesis import given, strategies as st

from fedquant.jets import Jet, JetSum
from fedquant.rational import CRat, HALF_I, I
from fedquant.weyl import (GradingError, WeylForm, graded_commutator,
                           op_delta, op_delta_inv, op_delta_star, pi_weight,
                           scalar_part, symbol_mul, weight_truncate, weyl_mul)
from fedquant import sampling
from fedquant.geometry import (build_darboux, build_flat, build_kaehler,
                               lift_cotangent)


ORDER = 6
CAP = 8
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
    return WeylForm(FLAT, CAP, {(0, alpha, ()): jconst(1)})


def jconst(c):
    return Jet.constant(FLAT.chart, c, ORDER)


def test_canonical_commutator():
    yq, yp = gen(0), gen(1)
    comm = weyl_mul(yq, yp) - weyl_mul(yp, yq)
    want = WeylForm(FLAT, CAP, {(1, (0, 0), ()): jconst(I)})
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
    a = WeylForm(FLAT, CAP, {(0, (1, 0), (0,)): jconst(1)})
    b = WeylForm(FLAT, CAP, {(0, (1, 0), (1,)): jconst(1)})
    assert (weyl_mul(a, b) + weyl_mul(b, a)).is_zero()


def test_one_form_bracket_contracts():
    # paired fiber directions leave the hbar contraction behind
    a = WeylForm(FLAT, CAP, {(0, (1, 0), (0,)): jconst(1)})
    b = WeylForm(FLAT, CAP, {(0, (0, 1), (1,)): jconst(2)})
    got = weyl_mul(a, b) + weyl_mul(b, a)
    want = WeylForm(FLAT, CAP, {(1, (0, 0), (0, 1)): jconst(CRat(0, 2))})
    assert got.agrees_with(want)


def test_graded_commutator_sign():
    a = WeylForm(FLAT, CAP, {(0, (1, 0), (0,)): jconst(1)})
    b = WeylForm(FLAT, CAP, {(0, (0, 1), (1,)): jconst(2)})
    # both are 1-forms, so the graded bracket is the anticommutator
    assert graded_commutator(a, b).agrees_with(
        weyl_mul(a, b) + weyl_mul(b, a))


def test_delta_squares_to_zero():
    a = WeylForm(FLAT, CAP, {
        (0, (2, 1), ()): jconst(1),
        (1, (0, 1), (0,)): jconst(3),
        (0, (0, 0), (0, 1)): jconst(-2),
    })
    assert op_delta(op_delta(a)).is_zero()
    assert op_delta_star(op_delta_star(a)).is_zero()


def test_homotopy_decomposition():
    q = Jet.variable(FLAT.chart, 0, ORDER)
    a = WeylForm(FLAT, CAP, {
        (0, (2, 1), ()): q * q,
        (1, (0, 1), (0,)): q + 1,
        (0, (0, 0), (0, 1)): q * 3,
        (2, (0, 0), ()): q,
    })
    dd = op_delta(op_delta_inv(a)) + op_delta_inv(op_delta(a)) \
        + scalar_part(a)
    assert dd.agrees_with(a)


def test_number_operator_identity():
    a = WeylForm(FLAT, CAP, {(0, (2, 1), (0,)): jconst(1)})
    anti = op_delta(op_delta_star(a)) + op_delta_star(op_delta(a))
    # |alpha| + |beta| = 3 + 1
    assert anti.agrees_with(a.map_jets(lambda j: j * 4))


def test_weight_projection_and_truncation():
    a = WeylForm(FLAT, CAP, {
        (0, (2, 0), ()): jconst(1),      # weight 2
        (1, (1, 0), ()): jconst(1),      # weight 3
    })
    assert pi_weight(a, 2).agrees_with(
        WeylForm(FLAT, CAP, {(0, (2, 0), ()): jconst(1)}))
    assert weight_truncate(a, 2).agrees_with(pi_weight(a, 2))


def test_i_over_hbar_requires_a_vanishing_hbar0_layer():
    y1 = WeylForm(FLAT, CAP, {(0, (1, 0), ()): jconst(1)})
    y2 = WeylForm(FLAT, CAP, {(0, (0, 1), ()): jconst(1)})
    # [y1, y2] lives at hbar^1, so (i/hbar) moves it to hbar^0 times i
    ok = graded_commutator(y1, y2, defaultdict(JetSum))
    assert WeylForm.from_sums(FLAT, CAP, ok).agrees_with(WeylForm(
        FLAT, CAP, {(k - 1, alpha, beta): jet * I for (k, alpha, beta), jet
                    in graded_commutator(y1, y2).terms.items()}))
    # y1 o y1 = y1^2 at hbar^0, which (i/hbar) cannot take
    bad = weyl_mul(y1, y1, defaultdict(JetSum))
    with pytest.raises(GradingError):
        WeylForm.from_sums(FLAT, CAP, bad)


def test_symbol_strips_fiber():
    q = Jet.variable(FLAT.chart, 0, ORDER)
    a = WeylForm(FLAT, CAP, {(0, (0, 0), ()): q, (0, (2, 0), ()): q,
                             (1, (0, 0), ()): q * 2})
    assert scalar_part(a).terms == {(0, (0, 0), ()): q, (1, (0, 0), ()): q * 2}


@pytest.mark.parametrize("kind", ["flat", "darboux", "cotangent", "kaehler"])
def test_symbol_mul_matches_full_product(kind):
    """The hbar-resolved scalar projection equals the full Weyl product."""
    geom = FLAT if kind == "flat" else CURVED[kind, 1]
    q = Jet.variable(geom.chart, 0, ORDER)
    a = WeylForm(geom, CAP, {(0, (1, 0), ()): q, (0, (0, 2), ()): q + 1})
    b = WeylForm(geom, CAP, {(0, (0, 1), ()): q * 2, (0, (2, 0), ()): q})
    sym = symbol_mul(a, b, max_hbar=3)
    full = scalar_part(weyl_mul(a, b))
    zero = (0,) * geom.dim
    acc = WeylForm(geom, CAP, {(k, zero, ()): jet for k, jet in sym.items()})
    assert acc.agrees_with(full)


def test_degree_cap_truncates_products():
    yq = gen(0)
    high = yq
    for _ in range(CAP):
        high = weyl_mul(high, yq)
    # y^(cap+1) exceeds the cap and must vanish
    assert all(2 * k + sum(al) <= CAP for (k, al, _) in high.terms)


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
    return WeylForm(geom, a.degree_cap, out)


def commutator_reference(a, b):
    """[a, b] = a o b - (-1)^{pq} b o a, term by term in form degree."""
    geom, cap = a.geometry, a.degree_cap
    out = WeylForm(geom, cap, {})
    for key_a, ja in a.terms.items():
        for key_b, jb in b.terms.items():
            ta = WeylForm(geom, cap, {key_a: ja})
            tb = WeylForm(geom, cap, {key_b: jb})
            swap = contraction_reference(tb, ta)
            if len(key_a[2]) * len(key_b[2]) % 2:
                swap = -swap
            out = out + contraction_reference(ta, tb) - swap
    return out


REF_CAP = 6


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
        lambda terms: WeylForm(geom, REF_CAP, terms))


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
