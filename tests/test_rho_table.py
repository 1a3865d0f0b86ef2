"""The per-state table of monomial operators behind ``rho_extend``.

Each operator rho(q^gamma p^beta) is built once per state and split, and a
one-term coefficient lambda q^gamma reads it with scale lambda.  The
operators must be store-identical (``==`` on every coefficient jet,
validity included) to those of the recursion with no table,
``reference.rho_extend``, and the table must stay within the monomials
the chart's order allows.
"""

from math import comb

import pytest

import reference
from fedquant import sampling
from fedquant.fedosov import solve_r
from fedquant.geometry import build_flat, lift_cotangent
from fedquant.jets import Jet
from fedquant.quantization import (config_chart, kinetic_energy_observable,
                                   rho_extend)
from fedquant.rational import CRat
from test_fedosov import fresh_copy

SPLITS = ("first", "last")


def make_state(kind, n, n_hbar):
    """A state certified through hbar^N: a flat chart, or the lift of a
    seeded metric two orders higher, as the lift spends two."""
    order = 2 * n_hbar + 3
    if kind == "flat":
        return solve_r(build_flat(n, order), n_hbar)
    rng = sampling.make_rng(("rho-table", n, n_hbar))
    metric = sampling.random_metric(rng, n, order + 2)
    return solve_r(lift_cotangent(metric, order + 2), n_hbar)


def stores(op):
    """An operator's coefficient jets keyed by (derivative index, hbar
    power), for comparison with ``==``."""
    return {(idx, k): jet for idx, series in op.terms.items()
            for k, jet in series.coeffs.items()}


def random_multi_index(rng, n, lo, hi):
    out = [0] * n
    for _ in range(rng.randint(lo, hi)):
        out[rng.randrange(n)] += 1
    return out


def random_scalar(rng):
    """A nonzero rational, or a complex one with a nonzero imaginary
    part."""
    re = sampling.random_rational(rng)
    return CRat(re, sampling.random_rational(rng)) if rng.random() < 0.5 \
        else CRat(re)


def observables(st, rng):
    """Observables with one-term pieces (scaled monomials, complex
    coefficients among them), pieces of several terms, and the kinetic
    energy, each of momentum degree at most N."""
    geom = st.geometry
    n, order, top = geom.n, geom.order, st.n_hbar
    out = []
    for _ in range(3):
        coeffs = {}
        for d in range(1, top + 1):
            beta = random_multi_index(rng, n, d, d)
            coeffs[tuple(random_multi_index(rng, n, 0, 3) + beta)] = \
                random_scalar(rng)
        out.append(Jet(geom.chart, order, order, coeffs))
    for _ in range(2):
        coeffs = {}
        beta = random_multi_index(rng, n, 1, top)
        for _ in range(3):
            coeffs[tuple(random_multi_index(rng, n, 0, 3) + beta)] = \
                random_scalar(rng)
        coeffs[tuple(random_multi_index(rng, n, 0, 2)
                     + random_multi_index(rng, n, 0, top))] = \
            random_scalar(rng)
        out.append(Jet(geom.chart, order, order, coeffs))
    out.append(kinetic_energy_observable(geom))
    return out


CASES = [(kind, n, n_hbar) for kind in ("flat", "cotangent")
         for n in (1, 2) for n_hbar in (2, 3)]


@pytest.fixture(scope="module", params=CASES,
                ids=[f"{k}-n{n}-N{N}" for k, n, N in CASES])
def state(request):
    return make_state(*request.param)


@pytest.mark.parametrize("split", SPLITS)
def test_table_equals_the_recursion_without_it(state, split):
    """Each observable is quantized twice on one state, the second time
    from the table, and both equal the untabled recursion."""
    st = fresh_copy(state)
    rng = sampling.make_rng(("rho-table-obs", state.geometry.kind,
                             state.geometry.n, state.n_hbar, split))
    for f in observables(st, rng):
        want = stores(reference.rho_extend(f, st, split))
        assert stores(rho_extend(f, st, split)) == want
        size = len(st._rho_table)
        assert stores(rho_extend(f, st, split)) == want
        assert len(st._rho_table) == size
    assert st._rho_table


def test_scaled_monomial_reads_the_unit_entry():
    """rho(lambda q p^2) is lambda times the entry of q p^2, and tabling
    it adds the unit monomial alone."""
    st = make_state("cotangent", 1, 2)
    geom = st.geometry
    lam = CRat(-3, 2)
    f = Jet(geom.chart, geom.order, geom.order, {(1, 2): lam})
    op = rho_extend(f, st)
    table = st._rho_table
    assert {key[1:] for key in table} == {((2,), "first"), ((1,), "first")}
    v = geom.order - 2
    entry = table[Jet(config_chart(geom), v, v, {(1,): 1}), (2,), "first"]
    assert stores(op) == {key: jet * lam
                          for key, jet in stores(entry).items()}
    assert stores(op) == stores(reference.rho_extend(f, st))


def test_table_is_bounded_by_the_chart():
    """After a seeded stream of observables with several-term
    coefficients, every key is a unit monomial, the table holds at most
    (q-monomials up to the order) x (fiber monomials of degree 1 ... N)
    x 2 entries, and replaying the stream adds none."""
    st = make_state("cotangent", 2, 2)
    geom = st.geometry
    n, order, top = geom.n, geom.order, st.n_hbar
    rng = sampling.make_rng("rho-table-stream")
    stream = [sampling.random_p_polynomial(rng, geom.chart, n, order,
                                           p_degree=top, q_degree=2,
                                           terms=3)
              for _ in range(200)]
    assert any(c.as_monomial() is None for f in stream
               for c in f.split(n).values())
    for f in stream:
        for split in SPLITS:
            rho_extend(f, st, split)
    table = st._rho_table
    for unit, beta, split in table:
        scale, same = unit.as_monomial()
        assert scale == 1 and same == unit
        assert 1 <= sum(beta) <= top and split in SPLITS
    q_monomials = comb(order + n, n)
    fiber_monomials = comb(top + n, n) - 1
    assert len(table) <= q_monomials * fiber_monomials * 2
    size = len(table)
    for f in stream:
        for split in SPLITS:
            rho_extend(f, st, split)
    assert len(table) == size
    assert fresh_copy(st)._rho_table == {}
