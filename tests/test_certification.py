"""Order-raise certification of the star product's claimed validity.

Each chart of ``test_digest.PINNED`` is solved twice from the same seeded
draw: at its jet order and at a higher one.  The seeded Christoffel
symbols, metrics and potentials are exact polynomials drawn the same way
at any order, so the second chart is the same geometry known further.  A
star coefficient computed at the low order claims a validity; the same
coefficient computed at the high order must agree with it through that
validity, and must itself claim at least as much, so the claim is checked
against a run that knows more of the geometry.

The cases are the ten charts of ``PINNED``.  The seeded n = 1 cotangent
chart has the flat metric g = 1 (its three perturbation draws cancel), so
``PINNED`` also holds ``CURVED_N1``, an n = 1 lift with Gamma != 0, the
metric g = 1 + 3q + q^3 of the draw ``("cotangent", 1, 1)``.  No n = 1
lift has curvature, since its base is a curve, so that case tests Gamma
only.

A ``star`` that claimed one degree more than it computed would fail here
on eight of the ten cases, the added n = 1 lift among them.  On the
pinned n = 1 flat and cotangent charts no seeded coefficient has a term
one degree above its validity, so there the raised claim would happen to
be true.
"""

import pytest

from fedquant import sampling
from fedquant.fedosov import solve_r, star
from fedquant.suites import _CHARTS
from test_digest import CURVED_N1, PINNED

# the order raise per chart dimension n; n = 2 solves grow fastest
RAISE = {1: 4, 2: 3}
PAIRS = 3


def _solve(kind, n, order, n_hbar, tag):
    return solve_r(_CHARTS[kind](sampling.make_rng(tag), n, order), n_hbar)


def _pairs(chart, order, kind, n):
    """The seeded observable pairs, the same draws at any jet order."""
    rng = sampling.make_rng(("certify", kind, n))
    return [tuple(sampling.random_polynomial(rng, chart, order)
                  for _ in range(2)) for _ in range(PAIRS)]


@pytest.mark.parametrize("case", list(PINNED), ids=lambda c: "-".join(
    map(str, c[:4] + c[4])))
def test_star_validity_survives_an_order_raise(case):
    kind, n, order, n_hbar, tag = case
    high_order = order + RAISE[n]
    low = _solve(kind, n, order, n_hbar, tag)
    high = _solve(kind, n, high_order, n_hbar, tag)
    chart = low.geometry.chart
    assert high.geometry.chart == chart
    if case == CURVED_N1:
        assert low.geometry.gamma
    for (f, g), (fh, gh) in zip(_pairs(chart, order, kind, n),
                                _pairs(chart, high_order, kind, n)):
        assert fh.truncate(order) == f and gh.truncate(order) == g
        for k, (c, ch) in enumerate(zip(star(f, g, low).coefficients,
                                        star(fh, gh, high).coefficients)):
            assert c.valid_order <= ch.valid_order, (k, c, ch)
            assert c.agrees_with(ch), (k, c, ch)
