"""Polarization operators: differential-operator algebra and closed forms."""

import os
from fractions import Fraction

import pytest

from fedquant.cli import load_geometry
from fedquant.exprparse import jet_of
from fedquant.jets import Chart, ChartMismatch, Jet
from fedquant.rational import CRat, I
from fedquant.geometry import (build_darboux, build_flat, build_kaehler,
                               complex_chart, lift_cotangent, phase_chart)
from fedquant.fedosov import solve_r
from fedquant.quantization import (DiffOp, HbarSeries, QuantizationError,
                                   config_chart, diffop_apply, diffop_compose,
                                   gq_cotangent, gq_kaehler, kinetic_alpha,
                                   kinetic_energy_observable,
                                   laplace_beltrami, polarization,
                                   rho_extend, scalar_curvature)
from fedquant.suites import flat_reps_suite, weyl_quantize
from fedquant import sampling


ORDER = 9
SPHERE_FILE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "geometries", "round_sphere.json")


@pytest.fixture(scope="module")
def flat():
    return build_flat(1, ORDER)


@pytest.fixture(scope="module")
def flat_state(flat):
    return solve_r(flat, 3)


def test_diffop_commutator(flat):
    sub = config_chart(flat)
    q = Jet.variable(sub, 0, ORDER)
    d = DiffOp.deriv(sub, 0, Jet.constant(sub, 1, ORDER), 0)
    m = DiffOp.mult(q)
    comm = diffop_compose(d, m) - diffop_compose(m, d)
    assert comm.agrees_with(DiffOp.identity(sub, ORDER))


def test_compose_matches_iterated_apply(flat):
    sub = config_chart(flat)
    q = Jet.variable(sub, 0, ORDER)
    d = DiffOp.deriv(sub, 0, q + 2, 0)
    psi = q * q * q + q
    once = diffop_apply(d, psi).coeffs[0]
    twice = diffop_apply(d, once).coeffs[0]
    assert diffop_apply(diffop_compose(d, d), psi).agrees_with(
        HbarSeries({0: twice}))


def test_diffop_arithmetic_rejects_foreign_operands(flat):
    """A number or a string is no operator: Python raises TypeError. An
    operator on another chart is a ChartMismatch."""
    sub = config_chart(flat)
    op = DiffOp.identity(sub, ORDER)
    for bad in (1, Fraction(1, 2), "x"):
        with pytest.raises(TypeError):
            op + bad
        with pytest.raises(TypeError):
            bad + op
        with pytest.raises(TypeError):
            op - bad
    other = Chart(("w",), (0,))
    with pytest.raises(ChartMismatch):
        op + DiffOp.identity(other, ORDER)


def test_diffop_rejects_bad_derivative_indices(flat):
    """A negative exponent or a variable outside the chart is no
    derivative: ``deriv`` built the multiplication operator for one, and
    the constructor took the other with order -1."""
    sub = config_chart(flat)
    c = Jet.constant(sub, 1, ORDER)
    for i in (-1, 1, 5):
        with pytest.raises(QuantizationError, match="outside the chart"):
            DiffOp.deriv(sub, i, c, 1)
    with pytest.raises(QuantizationError, match="negative entry"):
        DiffOp(sub, {(-1,): HbarSeries({0: c})})
    assert DiffOp.deriv(sub, 0, c, 1).order() == 1


def test_flat_momentum_operator(flat):
    sub = config_chart(flat)
    p = Jet.variable(flat.chart, 1, ORDER)
    op = gq_cotangent(p, flat)
    want = DiffOp.deriv(sub, 0, Jet.constant(sub, -I, ORDER), 1)
    assert op.agrees_with(want)


def test_flat_position_operator(flat):
    sub = config_chart(flat)
    q = Jet.variable(flat.chart, 0, ORDER)
    op = gq_cotangent(q, flat)
    assert op.agrees_with(DiffOp.mult(Jet.variable(sub, 0, ORDER)))


def test_momentum_square_is_second_derivative(flat, flat_state):
    sub = config_chart(flat)
    p = Jet.variable(flat.chart, 1, ORDER)
    dp = DiffOp.deriv(sub, 0, Jet.constant(sub, -I, ORDER), 1)
    assert rho_extend(p * p, flat_state).agrees_with(diffop_compose(dp, dp))


def test_mixed_monomial_weyl_symmetrized(flat, flat_state):
    sub = config_chart(flat)
    q = Jet.variable(flat.chart, 0, ORDER)
    p = Jet.variable(flat.chart, 1, ORDER)
    qj = Jet.variable(sub, 0, ORDER)
    dp = DiffOp.deriv(sub, 0, Jet.constant(sub, -I, ORDER), 1)
    half_q = DiffOp.mult(qj * Fraction(1, 2))
    sym = diffop_compose(dp, half_q) + diffop_compose(half_q, dp)
    assert rho_extend(q * p, flat_state).agrees_with(sym)


def test_factorization_independence(flat, flat_state):
    rng = sampling.make_rng("quant-fact")
    for _ in range(3):
        f = sampling.random_p_polynomial(rng, flat.chart, 1, ORDER,
                                         p_degree=3, q_degree=3)
        a = rho_extend(f, flat_state, split="first")
        b = rho_extend(f, flat_state, split="last")
        assert a.agrees_with(b)


def test_momentum_degree_above_state_order_rejected(flat, flat_state):
    from fedquant.fedosov import FedosovError
    p = Jet.variable(flat.chart, 1, ORDER)
    with pytest.raises(FedosovError):
        rho_extend(p ** 4, flat_state)


def test_observable_from_another_chart_is_rejected():
    """Taylor data about q = 0 read as if about q = 1/2 would be a wrong
    operator, so both quantizations refuse the observable."""
    geom = build_flat(1, ORDER, base_q=(Fraction(1, 2),))
    chart = phase_chart(1)
    q, p = (Jet.variable(chart, i, ORDER) for i in range(2))
    with pytest.raises(ChartMismatch):
        gq_cotangent(q * p, geom)
    state = solve_r(geom, 2)
    for f in (q * p, q * p * p):
        with pytest.raises(ChartMismatch):
            rho_extend(f, state)


# each quantization map refuses the geometries of another polarization,
# and a Darboux chart has none: (call, geometry kind)
REFUSALS = [("gq_cotangent", "kaehler"), ("gq_kaehler", "flat"),
            ("gq_kaehler", "cotangent"), ("rho_extend", "kaehler"),
            ("gq_cotangent", "darboux"), ("gq_kaehler", "darboux"),
            ("rho_extend", "darboux")]


def _small_geometry(kind, order=8):
    cc = complex_chart(1)
    q1 = Chart(("q1",), (0,))
    return {"flat": lambda: build_flat(1, order),
            "darboux": lambda: build_darboux(1, {}, order),
            "cotangent": lambda: lift_cotangent(
                [[jet_of("1 + q1^2", q1, order)]], order),
            "kaehler": lambda: build_kaehler(
                Jet.variable(cc, 0, order) * Jet.variable(cc, 1, order),
                order)}[kind]()


@pytest.mark.parametrize("call,kind", REFUSALS)
def test_a_quantization_map_refuses_another_polarization(call, kind):
    geom = _small_geometry(kind)
    f = Jet.variable(geom.chart, 0, geom.order)
    quantize = {"gq_cotangent": gq_cotangent, "gq_kaehler": gq_kaehler,
                "rho_extend": lambda f, geom: rho_extend(f,
                                                         solve_r(geom, 1))}
    with pytest.raises(QuantizationError):
        quantize[call](f, geom)


@pytest.mark.parametrize("kind,scale,has_volume,factorizes", [
    ("flat", -I, False, True), ("cotangent", -I, True, True),
    ("kaehler", 1, False, False)])
def test_polarization_of_each_kind(kind, scale, has_volume, factorizes):
    geom = _small_geometry(kind)
    pol = polarization(geom)
    assert polarization(geom) is pol
    assert pol.chart is config_chart(geom)
    assert pol.scale == scale and pol.factorizes is factorizes
    assert (pol.volume is not None) is has_volume


def test_a_darboux_chart_has_no_polarization():
    with pytest.raises(QuantizationError, match="no polarization"):
        polarization(_small_geometry("darboux"))


def test_the_lifted_metric_lives_on_the_configuration_chart():
    """The metric jets share the configuration chart object, so the
    first-order products with them pass every chart check by ``is``."""
    for geom in (lift_cotangent(sampling.sphere_metric(ORDER), ORDER),
                 load_geometry(SPHERE_FILE)):
        sub = config_chart(geom)
        for key in ("metric", "metric_inv"):
            assert all(jet.chart is sub for row in geom.source[key]
                       for jet in row)


@pytest.fixture(scope="module")
def sphere():
    return lift_cotangent(sampling.sphere_metric(ORDER), ORDER)


def test_sphere_scalar_curvature(sphere):
    rt = scalar_curvature(sphere)
    sub = config_chart(sphere)
    assert rt.agrees_with(Jet.constant(sub, 2, 0))


def test_half_form_scalar_curvature_coefficient(sphere):
    state = solve_r(sphere, 2)
    assert kinetic_alpha(sphere, state) == Fraction(1, 4)


def test_kinetic_alpha_rejects_a_state_of_another_geometry():
    """Two metric draws on one chart: the state of one cannot quantize the
    kinetic energy of the other, and the error says so."""
    geoms = [lift_cotangent(sampling.random_metric(
        sampling.make_rng(("kinetic", 0, t)), 2, ORDER), ORDER)
        for t in range(2)]
    assert geoms[0].chart == geoms[1].chart
    with pytest.raises(QuantizationError, match="another geometry"):
        kinetic_alpha(geoms[0], solve_r(geoms[1], 2))


def test_laplace_beltrami_flat_is_plain(flat):
    sub = config_chart(flat)
    q = Jet.variable(sub, 0, ORDER)
    psi = q ** 4
    lap = laplace_beltrami(flat)
    assert diffop_apply(lap, psi).coeffs[0].agrees_with(
        psi.partial(0).partial(0))


def test_kaehler_flat_fock_lowering():
    order = 8
    cc = complex_chart(1)
    z = Jet.variable(cc, 0, order)
    zb = Jet.variable(cc, 1, order)
    geom = build_kaehler(z * zb, order)
    sub = Chart(cc.names[:1], cc.base[:1])
    op = gq_kaehler(zb, geom)
    assert op.agrees_with(
        DiffOp.deriv(sub, 0, Jet.constant(sub, 1, order), 1))


def test_kaehler_affine_observable():
    order = 8
    cc = complex_chart(1)
    z = Jet.variable(cc, 0, order)
    zb = Jet.variable(cc, 1, order)
    K = z * zb + (z * zb) ** 2 * Fraction(1, 3)
    geom = build_kaehler(K, order)
    f = z * K.partial(0) + z * z     # u = z, v = z^2
    op = gq_kaehler(f, geom)
    sub = Chart(cc.names[:1], cc.base[:1])
    zc = Jet.variable(sub, 0, order)
    half = HbarSeries({1: Jet.constant(sub, Fraction(1, 2), order)})
    want = DiffOp.deriv(sub, 0, zc, 1) + DiffOp.mult(zc * zc) \
        + DiffOp(sub, {(0,): half})
    assert op.agrees_with(want)


def test_kaehler_rejects_nonaffine():
    order = 8
    cc = complex_chart(1)
    z = Jet.variable(cc, 0, order)
    zb = Jet.variable(cc, 1, order)
    K = z * zb + (z * zb) ** 2 * Fraction(1, 3)
    geom = build_kaehler(K, order)
    from fedquant.jets import DomainError
    with pytest.raises(DomainError):
        gq_kaehler(z + zb, geom)     # u would not be holomorphic


def test_flat_representations(flat):
    """The symmetrized q p is -i hbar (q d + 1/2) in the position
    representation and hbar (z d + 1/2) in the Fock one; the suite's
    homomorphism checks pass on seeds other than the battery's."""
    order = ORDER
    cc = complex_chart(1)
    fock = build_kaehler(
        Jet.variable(cc, 0, order) * Jet.variable(cc, 1, order), order)
    for geom, scale in ((flat, -I), (fock, 1)):
        sub = config_chart(geom)
        x = Jet.variable(sub, 0, order)
        c = Jet.constant(sub, scale, order)
        op = weyl_quantize(geom, {((1,), (1,)): CRat(1)},
                           [DiffOp.deriv(sub, 0, c, 1)])
        half = HbarSeries({1: c * Fraction(1, 2)})
        want = DiffOp.deriv(sub, 0, c * x, 1) + DiffOp(sub, {(0,): half})
        assert op.agrees_with(want)
    for seed in (0, 1):
        rep = flat_reps_suite(seed=seed)
        assert rep.passed, str(rep)


def test_kinetic_observable_is_metric_contraction(sphere):
    ke = kinetic_energy_observable(sphere)
    # p-degree exactly two everywhere
    assert all(sum(key[2:]) == 2 for key in ke.coeffs)
    # the base-chart inverse metric, embedded in phase space, times
    # p_a p_b, store for store
    n = sphere.n
    ginv = sphere.source["metric_inv"]
    q = tuple(range(n))
    want = sum((ginv[a][b].embed(sphere.chart, q).mul_variable(n + a)
                .mul_variable(n + b) for a in range(n) for b in range(n)),
               Jet.zero(sphere.chart, ORDER + 2))
    assert ke == want


def test_kinetic_on_a_flat_chart(flat, flat_state):
    """p^2 on a flat chart: -hbar^2 d^2, with no curvature to normalize."""
    ke = kinetic_energy_observable(flat)
    p = Jet.variable(flat.chart, 1, ORDER)
    assert ke.agrees_with(p * p)
    assert kinetic_alpha(flat, flat_state) is None
