"""Kähler n = 2 charts whose potential is not a sum K1(z1) + K2(z2).

The seeded n = 2 potentials keep each monomial within one conjugate pair,
so the mixed curvature R_{1 1bar 2 2bar} vanishes on every chart the suites
draw.  These two potentials mix the pairs: a toric one, solved through
hbar^3, and a generic one with mixed holomorphic terms, solved through
hbar^2 (it costs far more per order).  The suites run on them through
their ``geometry`` argument, so no seeded draw or report changes.
"""

import pytest

from fedquant.exprparse import jet_of
from fedquant.fedosov import flat_section, solve_r
from fedquant.geometry import build_kaehler, complex_chart
from fedquant.jets import Jet
from fedquant.rational import I
from fedquant.suites import (_kaehler_third_order_jet, _star_closes,
                             _third_order, associativity_suite,
                             correspondence_suite)
from test_weyl import assert_expansions_are_the_full_enumeration

TORIC = "z1*zb1 + z2*zb2 + z1*zb1*z2*zb2/2"
GENERIC = (TORIC + " + (z1^2*zb1 + z1*zb1^2)/3 - (z1*z2*zb1 + z1*zb1*zb2)/4"
           " + (z2*zb1 + z1*zb2)/5")


def _chart(src, order):
    return build_kaehler(jet_of(src, complex_chart(2), order), order)


@pytest.fixture(scope="module")
def toric():
    return _chart(TORIC, 12)


@pytest.fixture(scope="module")
def generic():
    return _chart(GENERIC, 10)


def test_the_mixed_curvature_is_nonzero(toric, generic):
    for geom in (toric, generic):
        # R_{1 1bar 2 2bar}, indices (z1, zb1, z2, zb2) = (0, 2, 1, 3)
        assert not geom.curvature().r_low[0, 2, 1, 3].is_zero()


def test_expansions_pair_only_reachable_partners(generic):
    """This chart's rows of omega^{-1} have several nonzero entries, so a
    gamma reaches several partners, unlike on the seeded product charts."""
    assert sum(not om.is_zero() for om in generic.omega_inv[0]) > 1
    assert_expansions_are_the_full_enumeration(generic)


def test_toric_associativity(toric):
    assert associativity_suite(geometry=toric).passed


@pytest.mark.parametrize("name", ["toric", "generic"])
def test_correspondence(name, request):
    assert correspondence_suite(geometry=request.getfixturevalue(name)).passed


def test_toric_kaehler_orders(toric):
    """The ``kaehler-orders`` battery for f = z^a, h = -i d_m K: first-order
    closure, and each third-order contribution against the curvature
    contraction, which mixes both pairs here and is nonzero for every
    (a, m)."""
    state = solve_r(toric, 3)
    zero = toric.zero_jet()
    for a in range(2):
        f = Jet.variable(toric.chart, a, toric.order)
        fhat = flat_section(f, state, 3)
        for m in range(2):
            h = toric.source["potential"].partial(m) * (-I)
            assert _star_closes(f, h, state, True)
            hhat = flat_section(h, state, 3)
            contraction = _kaehler_third_order_jet(toric, a, m)
            assert not contraction.is_zero()
            assert _third_order(fhat, hhat, 3, 3, zero).agrees_with(
                -contraction)
            assert (_third_order(fhat, hhat, 5, 1, zero)
                    + _third_order(fhat, hhat, 1, 5, zero)).agrees_with(
                contraction)
