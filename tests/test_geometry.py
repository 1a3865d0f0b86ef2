"""Chart geometries: builders, validation, curvature, covariant calculus."""

from collections import defaultdict
from fractions import Fraction
from itertools import product

import pytest

from fedquant.jets import Chart, ChartMismatch, Jet, JetSum
from fedquant.rational import CRat, I
from fedquant.weyl import WeylForm, graded_commutator
from fedquant.exprparse import jet_of
from fedquant.geometry import (ChartGeometry, CheckReport, GeometryError,
                               ValidationFailure, _curvature_of,
                               build_darboux, build_flat, build_kaehler,
                               build_rhat, christoffels, complex_chart,
                               covariant_entry, hamiltonian_vf,
                               invert_jet_matrix,
                               lift_cotangent, nabla, phase_chart,
                               poisson, validate_connection)
from fedquant import sampling
from fedquant.suites import _CHARTS
from test_digest import CURVED_N1, PINNED


ORDER = 6


def test_flat_omega_inverse():
    flat = build_flat(1, ORDER)
    # omega^{qp} = +1 with coordinates ordered (q, p)
    assert flat.omega_inv[0][1].constant_term == CRat(1)
    assert flat.omega_inv[1][0].constant_term == CRat(-1)


def test_poisson_bracket_normalization():
    flat = build_flat(1, ORDER)
    q = Jet.variable(flat.chart, 0, ORDER)
    p = Jet.variable(flat.chart, 1, ORDER)
    one = Jet.constant(flat.chart, 1, ORDER - 1)
    assert poisson(q, p, flat).agrees_with(one)
    assert poisson(p, q, flat).agrees_with(-one)


def test_hamiltonian_vf_pairs_back():
    flat = build_flat(2, ORDER)
    f = Jet.variable(flat.chart, 0, ORDER) * Jet.variable(flat.chart, 3,
                                                          ORDER)
    g = Jet.variable(flat.chart, 1, ORDER)
    xg = hamiltonian_vf(g, flat)
    acc = JetSum()
    for a, x in enumerate(xg):
        acc.add(x, f.partial(a))
    assert acc.jet().agrees_with(poisson(f, g, flat))


def test_invert_jet_matrix_roundtrip():
    ch = Chart(("x", "y"), (0, 0))
    x = Jet.variable(ch, 0, ORDER)
    y = Jet.variable(ch, 1, ORDER)
    one = Jet.constant(ch, 1, ORDER)
    m = [[one + x, y], [y * x, one - y]]
    inv = invert_jet_matrix(m)
    for a in range(2):
        for b in range(2):
            acc = m[a][0] * inv[0][b] + m[a][1] * inv[1][b]
            want = one if a == b else Jet.zero(ch, ORDER)
            assert acc.agrees_with(want)


def test_darboux_requires_symmetric_gamma():
    chart = phase_chart(1)
    q = Jet.variable(chart, 0, ORDER)
    with pytest.raises(ValidationFailure):
        build_darboux(1, {(0, 0, 1): q, (0, 1, 0): q * 2}, ORDER)


def test_darboux_curvature_pair_symmetry():
    rng = sampling.make_rng("geo-darboux")
    geom = build_darboux(1, sampling.random_darboux_gamma(rng, 1, ORDER),
                         ORDER)
    curv = geom.curvature()
    for (i, j, k, l), jet in curv.r_low.items():
        other = curv.r_low.get((j, i, k, l))
        if other is None:
            assert jet.is_zero()
        else:
            assert jet.agrees_with(other)


def test_validation_report_names_offender():
    chart = phase_chart(1)
    q = Jet.variable(chart, 0, ORDER)
    try:
        build_darboux(1, {(0, 0, 1): q, (0, 1, 0): q * 2}, ORDER)
    except ValidationFailure as exc:
        assert "symmetric" in str(exc)
    else:
        pytest.fail("expected a validation failure")


def test_report_fails_on_any_failing_entry():
    rep = CheckReport()
    rep.add("identity", True)
    assert rep.passed
    rep.add("identity 2", False, "sample 3")
    assert not rep.passed
    assert [c["name"] for c in rep.checks] == ["identity", "identity 2"]
    assert str(rep) == ("  [ok] identity\n"
                        "  [FAIL] identity 2: sample 3")


def test_expect_records_the_first_failing_case_and_reads_no_further():
    def cases():
        yield "(0,0)", True
        yield "(0,1)", False
        raise AssertionError("case read after the first failure")

    rep = CheckReport()
    rep.expect("first failure", cases())
    rep.expect("no cases", iter(()))
    rep.expect("all pass", [("(0,0)", True), ("(0,1)", True)])
    assert rep.checks == [
        {"name": "first failure", "passed": False, "location": "(0,1)"},
        {"name": "no cases", "passed": True, "location": ""},
        {"name": "all pass", "passed": True, "location": ""},
    ]


def test_validation_names_the_first_failing_case():
    flat = build_flat(1, ORDER)
    doubled = [[e * 2 for e in row] for row in flat.omega_inv]
    geom = ChartGeometry("flat", 1, phase_chart(1), ORDER, flat.omega,
                         doubled, {})
    rep = validate_connection(geom)
    entry = next(c for c in rep.checks
                 if c["name"] == "omega * omega_inv = identity")
    # (0,0), (1,1) both read 2 instead of 1; the first one is reported
    assert not entry["passed"] and entry["location"] == "(a,c)=(0,0)"
    assert not rep.passed


def test_cotangent_lift_base_block():
    """Position-index Christoffels of the lift equal the base connection."""
    rng = sampling.make_rng("geo-cot")
    metric = sampling.random_metric(rng, 2, ORDER)
    geom = lift_cotangent(metric, ORDER)
    n = 2
    sub = tuple(range(n))
    ginv = invert_jet_matrix(metric)
    base_gamma = christoffels(metric, ginv)
    for (k, i, j), jet in base_gamma.items():
        lifted = geom.gamma.get((k, i, j))
        assert lifted is not None
        assert lifted.agrees_with(jet.embed(geom.chart, sub))


def test_cotangent_momentum_block_is_p_linear():
    rng = sampling.make_rng("geo-cot2")
    geom = lift_cotangent(sampling.random_metric(rng, 1, ORDER), ORDER)
    n = 1
    for (a, b, c), jet in geom.gamma.items():
        if a >= n and b < n and c < n:
            for key in jet.coeffs:
                assert sum(key[n:]) == 1   # exactly linear in the momenta


def test_cotangent_validation_passes():
    rng = sampling.make_rng("geo-cot3")
    geom = lift_cotangent(sampling.random_metric(rng, 2, ORDER), ORDER)
    assert validate_connection(geom).passed


def test_order_5_lift_reads_an_absent_curvature_entry_at_table_validity():
    """This lift's r_up[(2, 0, 1, 2)] is absent at order 5, so zero only
    through the tables' lowest validity; reading it as zero through order
    5 failed the mixed curvature identity against the base formula's
    degree-3 terms, which the order-9 lift has too."""
    def lift(order):
        rng = sampling.make_rng(("sweep", 2, 5, 1, 3))
        metric = sampling.random_metric(rng, 2, order)
        return lift_cotangent(metric, order)   # validates, or raises

    r_low = lift(5).curvature().r_up
    r_high = lift(9).curvature().r_up
    low = min(j.valid_order for j in r_low.values())
    got = r_low.get((2, 0, 1, 2), Jet.zero(r_high[2, 0, 1, 2].chart, low))
    assert not r_high[2, 0, 1, 2].is_zero()
    assert got.agrees_with(r_high[2, 0, 1, 2])


def test_kaehler_rejects_complex_potential():
    cc = complex_chart(1)
    z = Jet.variable(cc, 0, ORDER)
    with pytest.raises((ValidationFailure, Exception)):
        build_kaehler(z * z, ORDER)     # not real, Hessian singular


def test_kaehler_curvature_mixed_only():
    rng = sampling.make_rng("geo-kae")
    geom = build_kaehler(sampling.random_kaehler_potential(rng, 1, ORDER),
                         ORDER)
    assert validate_connection(geom).passed


def test_nabla_leibniz():
    rng = sampling.make_rng("geo-leibniz")
    geom = build_darboux(1, sampling.random_darboux_gamma(rng, 1, ORDER),
                         ORDER)
    q = Jet.variable(geom.chart, 0, ORDER)
    a = WeylForm(geom, {(0, (1, 0), ()): q})
    f = q * q + 2
    lhs = nabla(a.map_jets(lambda j: j * f), geom)
    # nabla(f a) = df a + f nabla a; the df term inserts the form on the left
    df = WeylForm(geom, {(0, (0, 0), (0,)): f.partial(0),
                         (0, (0, 0), (1,)): f.partial(1)})
    from fedquant.weyl import weyl_mul
    rhs = weyl_mul(df, a) + nabla(a, geom).map_jets(lambda j: j * f)
    assert lhs.agrees_with(rhs)


def test_curvature_square_of_connection():
    rng = sampling.make_rng("geo-sq")
    geom = build_darboux(1, sampling.random_darboux_gamma(rng, 1, ORDER),
                         ORDER)
    rhat = build_rhat(geom)
    a = WeylForm(geom, {(0, (0, 1), ()): Jet.variable(geom.chart, 0, ORDER)})
    lhs = nabla(nabla(a, geom), geom)
    rhs = WeylForm.from_sums(geom, graded_commutator(
        rhat, a, defaultdict(JetSum)))
    assert lhs.agrees_with(rhs)


def test_cotangent_rejects_asymmetric_metric():
    """A builder precondition, like a Kaehler potential's reality: no
    report is formed."""
    chart = Chart(("q1", "q2"), (0, 0))
    one = Jet.constant(chart, 1, ORDER)
    zero = Jet.zero(chart, ORDER)
    q1 = Jet.variable(chart, 0, ORDER)
    with pytest.raises(GeometryError, match="metric is not symmetric") as exc:
        lift_cotangent([[one, q1], [zero, one]], ORDER)
    assert not isinstance(exc.value, ValidationFailure)


def test_cotangent_rejects_a_metric_that_is_not_square():
    """An extra column was ignored, and a missing one raised a bare
    IndexError."""
    for n in (1, 2):
        chart = Chart(tuple(f"q{i+1}" for i in range(n)), (0,) * n)
        one = Jet.constant(chart, 1, ORDER)
        bad = [[one, one]] if n == 1 else [[one], [one]]
        with pytest.raises(GeometryError, match=f"not an {n} x {n} matrix"):
            lift_cotangent(bad, ORDER)


def test_cotangent_rejects_metric_entries_on_different_charts():
    """Entries on two charts with the same base point would otherwise be
    read as one chart's jets when the lift moves them onto its own."""
    one = Jet.constant(Chart(("q1", "q2"), (0, 0)), 1, ORDER)
    other = Jet.constant(Chart(("x", "y"), (0, 0)), 1, ORDER)
    zero = one * 0
    with pytest.raises(ChartMismatch):
        lift_cotangent([[one, zero], [zero, other]], ORDER)


def test_cotangent_rejects_non_real_metric():
    """A metric is real, as a Kaehler potential is: a coefficient with an
    imaginary part is rejected before any report is formed."""
    chart = Chart(("q1",), (0,))
    metric = Jet.constant(chart, 1, ORDER) + Jet.variable(chart, 0, ORDER) * I
    with pytest.raises(GeometryError, match="non-real") as exc:
        lift_cotangent([[metric]], ORDER)
    assert not isinstance(exc.value, ValidationFailure)


# the order-2 lift fails; strict, so the run fails once the lift is fixed
# and the marker must go then
ORDER_TWO_LIFT = pytest.mark.xfail(strict=True, raises=ValidationFailure,
                                   reason=(
    "an order-2, n = 1 cotangent lift of 1+q1^2 fails 'mixed lifted "
    "curvature identity (l,k,i,j)=(0,0,0,0)': in lift_cotangent's p-linear "
    "block inner has validity 0 (a derivative of an order-1 Christoffel "
    "symbol), so Gamma^p_qq = -p truncates to nothing, the entry is "
    "dropped, and an absent entry reads as an exact zero"))


@pytest.mark.parametrize("order", [1, pytest.param(2, marks=ORDER_TWO_LIFT),
                                   3])
def test_low_order_lifts_of_a_curved_metric_build(order):
    lift_cotangent([[jet_of("1+q1^2", Chart(("q1",), (0,)), order)]], order)


# -- covariant_entry: parallel tensors ------------------------------------

# the eight seeded charts of test_digest, one per kind and n
SEEDED = [case for case in PINNED if case[4] == case[:2] + (0,)]


def _digest_geometry(case):
    kind, n, order, _, tag = case
    return _CHARTS[kind](sampling.make_rng(tag), n, order)


def _case_id(case):
    return "-".join(map(str, case[:4] + case[4]))


@pytest.mark.parametrize("case", SEEDED, ids=_case_id)
def test_covariant_entry_of_omega_and_of_the_identity_vanishes(case):
    """nabla omega = 0 at every (c, a, b), b <= a included, where
    validation reads only b > a; and nabla delta = 0 for the identity
    tensor delta^a_b with its first slot raised, which holds only when the
    raised and lowered slots take Gamma with opposite signs."""
    geom = _digest_geometry(case)
    dim, gamma, zero = geom.dim, geom.gamma, geom.zero_jet()
    one = Jet.constant(geom.chart, 1, geom.order)
    omega = {(a, b): geom.omega[a][b]
             for a, b in product(range(dim), repeat=2)}
    delta = {(a, a): one for a in range(dim)}
    for c, a, b in product(range(dim), repeat=3):
        assert covariant_entry(omega, gamma, c, (a, b), zero).is_zero()
        assert covariant_entry(delta, gamma, c, (a, b), zero,
                               upper=1).is_zero()


@pytest.mark.parametrize("case", [
    CURVED_N1, ("cotangent", 2, 9, 2, ("cotangent", 2, 0))], ids=_case_id)
def test_covariant_entry_of_the_base_metric_vanishes(case):
    """nabla g = 0 for a lift's base metric with its Levi-Civita symbols,
    on the configuration chart; the seeded n = 1 lift is flat, so the
    curved one stands in for it."""
    geom = _digest_geometry(case)
    n, metric = geom.n, geom.source["metric"]
    gamma = christoffels(metric, geom.source["metric_inv"])
    assert gamma
    tensor = {(i, j): metric[i][j] for i, j in product(range(n), repeat=2)}
    zero = Jet.zero(metric[0][0].chart, geom.order)
    for m, i, j in product(range(n), repeat=3):
        assert covariant_entry(tensor, gamma, m, (i, j), zero).is_zero()


# -- curvature: the shared-product sum against the per-pair fold ----------

def _curvature_by_pair(gamma, dim):
    """R^i_{jkl} summed as one product per pair of stored entries, in
    ``_curvature_of``'s key order: the reference for its shared products."""
    by_upper = defaultdict(list)
    for (m, x, j), g in gamma.items():
        by_upper[m].append((x, j, g))
    sums = defaultdict(JetSum)
    for (i, x, j), g in gamma.items():
        for k in range(x):
            sums[i, j, k, x].add(g.partial(k))
        for l in range(x + 1, dim):
            sums[i, j, x, l].add(g.partial(l), s=-1)
    for (i, x, m), g1 in gamma.items():
        for y, j, g2 in by_upper.get(m, ()):
            if x < y:
                sums[i, j, x, y].add(g1, g2)
            elif y < x:
                sums[i, j, y, x].add(g1, g2, -1)
    out = {}
    for (i, j, k, l) in sorted(sums):
        acc = sums[i, j, k, l].jet()
        if not acc.is_zero():
            out[(i, j, k, l)] = acc
            out[(i, j, l, k)] = -acc
    return out


@pytest.mark.parametrize("case", list(PINNED), ids=lambda c: "-".join(
    map(str, c[:4] + c[4])))
def test_curvature_equals_the_per_pair_fold(case):
    kind, n, order, _, tag = case
    geom = _CHARTS[kind](sampling.make_rng(tag), n, order)
    got = _curvature_of(geom.gamma, geom.dim)
    want = _curvature_by_pair(geom.gamma, geom.dim)
    assert list(got) == list(want)
    assert got == want            # store and validity of every entry


def test_curvature_forms_each_product_once_up_to_sign_and_order(monkeypatch):
    """An n = 2 lift stores 128 ordered entry pairs with a shared index,
    but only 32 distinct products up to sign and factor order."""
    geom = _CHARTS["cotangent"](sampling.make_rng(("cotangent", 2, 0)), 2, 9)
    products = []
    add = JetSum.add

    def counting_add(self, a, b=None, s=1):
        if b is not None:
            products.append((a, b))
        return add(self, a, b, s)

    monkeypatch.setattr(JetSum, "add", counting_add)
    _curvature_of(geom.gamma, geom.dim)
    assert len(products) == 32


# -- cotangent validation: mutated lifts -----------------------------------

def _p_linear_by_quad(geom):
    """The location of the first quad (i, j, k, l) whose lifted r_up entry
    disagrees with the p-linear display, forming the display anew for
    every quad, or None: the reference for the check's symmetry classes."""
    n = geom.n
    curv = geom.curvature()
    rt = geom.source["curvature_base"]
    gt = geom.source["gamma_base"]
    zero = Jet.zero(geom.chart, min([geom.order] + [
        j.valid_order for table in (curv.r_up, rt) for j in table.values()]))
    third = Fraction(1, 3)

    def cov_rt(acc, i, a, j, l, k):
        acc.add(rt.get((a, j, l, k), zero).partial(i))
        for m in range(n):
            if (a, i, m) in gt:
                acc.add(gt[(a, i, m)], rt.get((m, j, l, k), zero))
            if (m, i, j) in gt:
                acc.add(gt[(m, i, j)], rt.get((a, m, l, k), zero), -1)
            if (m, i, l) in gt:
                acc.add(gt[(m, i, l)], rt.get((a, j, m, k), zero), -1)
            if (m, i, k) in gt:
                acc.add(gt[(m, i, k)], rt.get((a, j, l, m), zero), -1)

    for ii, j, k, l in product(range(n), repeat=4):
        acc = JetSum()
        for a in range(n):
            pa = Jet.variable(geom.chart, n + a, geom.order)
            inner = JetSum()
            for (x, y) in ((ii, j), (j, ii)):
                cov_rt(inner, x, a, y, l, k)
                for m in range(n):
                    if (a, x, m) in gt:
                        inner.add(gt[(a, x, m)],
                                  rt.get((m, y, l, k), zero), -3)
                    if (a, l, m) in gt:
                        inner.add(gt[(a, l, m)],
                                  rt.get((m, x, y, k), zero), -1)
                    if (a, k, m) in gt:
                        inner.add(gt[(a, k, m)], rt.get((m, x, y, l), zero))
            acc.add(pa, inner.jet(), third)
        got = curv.r_up.get((n + ii, j, k, l), zero)
        if not got.agrees_with(acc.jet()):
            return f"(i,j,k,l)=({ii},{j},{k},{l})"
    return None


SYMPLECTIC = "connection symplectic (nabla omega = 0)"
LOWERED = "lowered Gamma totally symmetric"
PAIR = "lowered curvature symmetric in first pair"
RESTRICTS = "lifted curvature restricts to the base"
MIXED = "mixed lifted curvature identity"
P_LINEAR = "p-linear curvature display cross-check"

# (n, Gamma entry, added term) -> the failing (check, location) entries of
# validate_connection once the order-9 lift of random_metric(("mut", n))
# has the term added to that entry and its torsion partner; one entry per
# block: base, momentum, p-linear
MUTATIONS = {
    (2, (0, 0, 1), "q1^2"): [
        (SYMPLECTIC, "(c,a,b)=(0,1,2)"),
        (LOWERED, "indices (2, 1, 0) vs (1, 2, 0)"),
        (PAIR, "indices (2, 0, 0, 1)"),
        (RESTRICTS, "(l,k,i,j)=(0,0,0,1)"),
        (MIXED, "(l,k,i,j)=(0,0,1,0)"),
        (P_LINEAR, "(i,j,k,l)=(0,0,0,1)")],
    (2, (3, 0, 2), "q2^2"): [
        (SYMPLECTIC, "(c,a,b)=(0,1,2)"),
        (LOWERED, "indices (2, 1, 0) vs (1, 2, 0)"),
        (PAIR, "indices (2, 0, 0, 1)"),
        (MIXED, "(l,k,i,j)=(0,0,0,0)"),
        (P_LINEAR, "(i,j,k,l)=(1,0,0,1)")],
    (2, (3, 1, 1), "q1*q2"): [
        (P_LINEAR, "(i,j,k,l)=(0,1,0,1)")],
    # not p-linear any more, and no other check sees it
    (2, (2, 0, 0), "q1^2"): [
        (P_LINEAR, "(i,j,k,l)=(0,0,0,1)")],
    (3, (1, 1, 2), "q3^2"): [
        (SYMPLECTIC, "(c,a,b)=(1,2,4)"),
        (LOWERED, "indices (1, 4, 2) vs (4, 1, 2)"),
        (PAIR, "indices (3, 1, 0, 2)"),
        (RESTRICTS, "(l,k,i,j)=(0,1,0,2)"),
        (MIXED, "(l,k,i,j)=(0,1,2,0)"),
        (P_LINEAR, "(i,j,k,l)=(0,1,0,2)")],
    (3, (5, 2, 4), "q3^2"): [
        (SYMPLECTIC, "(c,a,b)=(2,2,4)"),
        (LOWERED, "indices (4, 2, 2) vs (2, 4, 2)"),
        (PAIR, "indices (3, 2, 0, 2)"),
        (MIXED, "(l,k,i,j)=(0,2,0,1)"),
        (P_LINEAR, "(i,j,k,l)=(2,0,0,2)")],
    (3, (5, 1, 2), "q2*q3"): [
        (SYMPLECTIC, "(c,a,b)=(2,1,2)"),
        (LOWERED, "indices (1, 2, 2) vs (2, 1, 2)"),
        (PAIR, "indices (0, 1, 0, 2)"),
        (P_LINEAR, "(i,j,k,l)=(0,1,0,2)")],
}


@pytest.fixture(scope="module")
def mutation_lifts():
    return {n: lift_cotangent(sampling.random_metric(
        sampling.make_rng(("mut", n)), n, 9), 9) for n in (2, 3)}


@pytest.mark.parametrize("case", list(MUTATIONS), ids=lambda c: "-".join(
    map(str, (c[0],) + c[1] + (c[2],))))
def test_mutated_lift_fails_where_the_per_quad_display_does(
        case, mutation_lifts):
    n, (u, a, b), term = case
    lift = mutation_lifts[n]
    gamma = dict(lift.gamma)
    for key in {(u, a, b), (u, b, a)}:
        gamma[key] = gamma[key] + jet_of(term, lift.chart, lift.order)
    geom = ChartGeometry("cotangent", n, lift.chart, lift.order, lift.omega,
                         lift.omega_inv, gamma, lift.source)
    rep = validate_connection(geom)
    assert [(c["name"], c["location"]) for c in rep.checks
            if not c["passed"]] == MUTATIONS[case]
    assert rep.checks[-1]["name"] == P_LINEAR
    assert rep.checks[-1]["location"] == _p_linear_by_quad(geom)
