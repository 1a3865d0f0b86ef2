"""Parity and Hermiticity of the star product, on curved charts.

With C_k the hbar^k coefficient of f * g, a symplectic connection gives

    C_k(f, g) = (-1)^k C_k(g, f),     conj C_k(f, g) = C_k(gbar, fbar).

On Kähler charts the conjugation is the chart's (z <-> zbar with the
coefficients conjugated); on real charts it conjugates the coefficients.
Both identities are structural, so they catch sign and i-convention slips
rather than wrong curvature terms.
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fedquant import sampling
from fedquant.fedosov import solve_r, star
from fedquant.jets import Jet
from fedquant.rational import CRat
from fedquant.suites import _CHARTS

# (kind, n, jet order, N), each drawn at seed 0 as in the digest pins
CASES = [("darboux", 1, 9, 3), ("cotangent", 1, 11, 3), ("kaehler", 1, 12, 3),
         ("darboux", 2, 9, 2), ("cotangent", 2, 9, 2), ("kaehler", 2, 11, 2)]

small = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@functools.cache
def _state(case):
    kind, n, order, n_hbar = case
    rng = sampling.make_rng((kind, n, 0))
    return solve_r(_CHARTS[kind](rng, n, order), n_hbar)


@st.composite
def polynomials(draw, chart, order):
    """A complex polynomial of at most 3 terms of degree <= 2."""
    dim = chart.dim
    alphas = st.lists(st.integers(0, dim - 1), max_size=2).map(
        lambda idx: tuple(idx.count(i) for i in range(dim)))
    coeffs = draw(st.dictionaries(alphas, st.builds(CRat, small, small),
                                  min_size=1, max_size=3))
    return Jet(chart, order, order, coeffs)


def _conjugate(jet):
    if jet.chart.conj is not None:
        return jet.conjugate()
    return Jet(jet.chart, jet.valid_order, jet.valid_order,
               {a: c.conjugate() for a, c in jet.coeffs.items()})


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
@settings(max_examples=10)
@given(data=st.data())
def test_parity_and_hermiticity(case, data):
    state = _state(case)
    geom = state.geometry
    f, g = (data.draw(polynomials(geom.chart, geom.order)) for _ in range(2))
    fg, gf = star(f, g, state), star(g, f, state)
    bar = star(_conjugate(g), _conjugate(f), state)
    for k, (c, c_swapped, c_bar) in enumerate(zip(
            fg.coefficients, gf.coefficients, bar.coefficients)):
        assert c.agrees_with(c_swapped * (-1) ** k), k
        assert _conjugate(c).agrees_with(c_bar), k
