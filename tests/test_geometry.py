"""Chart geometries: builders, validation, curvature, covariant calculus."""

from collections import defaultdict
from fractions import Fraction

import pytest

from fedquant.jets import Chart, Jet, JetSum
from fedquant.rational import CRat, I
from fedquant.weyl import WeylForm, graded_commutator
from fedquant.geometry import (ChartGeometry, CheckReport, ValidationFailure,
                               build_darboux, build_flat, build_kaehler,
                               build_rhat, complex_chart,
                               hamiltonian_vf, invert_jet_matrix,
                               lift_cotangent, nabla, omega_pair, phase_chart,
                               poisson, validate_connection)
from fedquant import sampling


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
    xf = hamiltonian_vf(f, flat)
    xg = hamiltonian_vf(g, flat)
    assert omega_pair(xg, xf, flat).agrees_with(poisson(f, g, flat))


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
    from fedquant.geometry import christoffels
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
        metric = sampling.random_metric(rng, 2, order, degree=3, terms=3)
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
    cap = 6
    q = Jet.variable(geom.chart, 0, ORDER)
    a = WeylForm(geom, cap, {(0, (1, 0), ()): q})
    f = q * q + 2
    lhs = nabla(a.map_jets(lambda j: j * f), geom)
    # nabla(f a) = df a + f nabla a; the df term inserts the form on the left
    df = WeylForm(geom, cap, {(0, (0, 0), (0,)): f.partial(0),
                              (0, (0, 0), (1,)): f.partial(1)})
    from fedquant.weyl import weyl_mul
    rhs = weyl_mul(df, a) + nabla(a, geom).map_jets(lambda j: j * f)
    assert lhs.agrees_with(rhs)


def test_curvature_square_of_connection():
    rng = sampling.make_rng("geo-sq")
    geom = build_darboux(1, sampling.random_darboux_gamma(rng, 1, ORDER),
                         ORDER)
    cap = 8
    rhat = build_rhat(geom, cap)
    a = WeylForm(geom, cap, {(0, (0, 1), ()): Jet.variable(geom.chart, 0,
                                                           ORDER)})
    lhs = nabla(nabla(a, geom), geom)
    rhs = WeylForm.from_sums(geom, cap, graded_commutator(
        rhat, a, defaultdict(JetSum)))
    assert lhs.agrees_with(rhs)
