"""The per-state table of monomial operators behind ``rho_extend``.

Each operator rho(q^gamma p^beta) is built once per state and split.  A
one-term coefficient lambda q^gamma reads it with scale lambda, and a
coefficient of several terms sums the entries of its units when all of
them are tabled, and is built directly otherwise.  The operators must be
store-identical (``==`` on every coefficient jet, validity included) to
those of the recursion with no table, ``reference.rho_extend``, whatever
the table held before the call, and the table must stay within the
monomials the chart's order allows.
"""

from math import comb

import pytest
from hypothesis import given, strategies as hst

import reference
from fedquant import quantization, sampling
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


def recorded_builds(monkeypatch):
    """Patch ``_rho_build`` to record the (c, fib, split) of every call,
    nested ones included, and return the record."""
    builds = []
    build = quantization._rho_build

    def recording(c, fib, state, geom, split):
        builds.append((c, fib, split))
        return build(c, fib, state, geom, split)

    monkeypatch.setattr(quantization, "_rho_build", recording)
    return builds


def tabled(st, c, fib, split):
    """Whether every unit of c has an entry for (fib, split)."""
    return all((unit, fib, split) in st._rho_table
               for _, unit in c.monomials())


def test_table_is_bounded_by_the_chart(monkeypatch):
    """After a seeded stream of observables with several-term
    coefficients, every key is a unit monomial, the table holds at most
    (q-monomials up to the order) x (fiber monomials of degree 1 ... N)
    x 2 entries, and replaying the stream adds none and builds only the
    coefficients that have a unit missing from the table."""
    st = make_state("cotangent", 2, 2)
    geom = st.geometry
    n, order, top = geom.n, geom.order, st.n_hbar
    rng = sampling.make_rng("rho-table-stream")
    stream = [sampling.random_p_polynomial(rng, geom.chart, n, order,
                                           p_degree=top, q_degree=2,
                                           terms=3)
              for _ in range(200)]
    several = [(c, fib) for f in stream for fib, c in f.split(n).items()
               if any(fib) and c.term_count() > 1]
    assert several
    for f in stream:
        for split in SPLITS:
            rho_extend(f, st, split)
    table = st._rho_table
    for unit, beta, split in table:
        [(scale, same)] = unit.monomials()
        assert scale == 1 and same == unit
        assert 1 <= sum(beta) <= top and split in SPLITS
    q_monomials = comb(order + n, n)
    fiber_monomials = comb(top + n, n) - 1
    assert len(table) <= q_monomials * fiber_monomials * 2
    size = len(table)
    builds = recorded_builds(monkeypatch)
    for f in stream:
        for split in SPLITS:
            rho_extend(f, st, split)
    assert len(table) == size
    assert builds
    assert not any(tabled(st, c, fib, split) for c, fib, split in builds)
    assert len(builds) < 2 * len(several)
    assert fresh_copy(st)._rho_table == {}


def test_several_terms_with_a_unit_missing_build_directly(monkeypatch):
    """q p^2 + 2 q^2 p^2 with only q p^2 tabled is built from the whole
    coefficient, adds no entry and equals the recursion without a table."""
    st = make_state("cotangent", 1, 2)
    geom = st.geometry
    order = geom.order
    rho_extend(Jet(geom.chart, order, order, {(1, 2): 1}), st)
    size = len(st._rho_table)
    f = Jet(geom.chart, order, order, {(1, 2): 1, (2, 2): 2})
    c = f.split(1)[(2,)]
    assert [tabled(st, unit, (2,), "first")
            for _, unit in c.monomials()] == [True, False]
    builds = recorded_builds(monkeypatch)
    op = rho_extend(f, st)
    assert builds[0] == (c, (2,), "first")
    assert len(st._rho_table) == size
    assert stores(op) == stores(reference.rho_extend(f, st))


STATES = (("flat", 1), ("cotangent", 1), ("cotangent", 2))


@pytest.fixture(scope="module")
def shared_states():
    """One N = 2 state per chart for the termwise checks, shared by their
    examples so that each reads a table the earlier ones filled."""
    return {(kind, n): make_state(kind, n, 2) for kind, n in STATES}


def several_terms(kind, n):
    """(kind, n, split, beta, {gamma: lambda}): a fiber monomial p^beta of
    degree 1 or 2 and a coefficient of 2-4 terms lambda q^gamma,
    gamma_i <= 2, with rational or complex lambda."""
    q_index = hst.tuples(*[hst.integers(0, 2)] * n)
    beta = hst.tuples(*[hst.integers(0, 2)] * n).filter(
        lambda b: 1 <= sum(b) <= 2)
    scalar = hst.builds(
        CRat, hst.fractions(-4, 4, max_denominator=6).filter(bool),
        hst.sampled_from((0, 0, 1, -2)))
    return hst.tuples(hst.just(kind), hst.just(n),
                      hst.sampled_from(SPLITS), beta,
                      hst.dictionaries(q_index, scalar, min_size=2,
                                       max_size=4))


def check_termwise(st, f, split):
    """Table each unit of f's pieces by quantizing its term lambda q^gamma
    p^beta alone, then check that rho(f) builds nothing and equals the
    recursion without a table, store for store."""
    v = f.valid_order
    for alpha, lam in f.coeffs.items():
        rho_extend(Jet(f.chart, v, v, {alpha: lam}), st, split)
    assert all(tabled(st, c, fib, split)
               for fib, c in f.split(st.geometry.n).items() if any(fib))
    with pytest.MonkeyPatch.context() as mp:
        builds = recorded_builds(mp)
        op = rho_extend(f, st, split)
    assert builds == []
    assert stores(op) == stores(reference.rho_extend(f, st, split))


@given(hst.sampled_from(STATES).flatmap(lambda s: several_terms(*s)))
def test_several_terms_sum_their_unit_entries(shared_states, draw):
    """A coefficient of several terms whose units are all tabled is the
    sum of their entries, with the store of the direct build."""
    kind, n, split, beta, coeffs = draw
    st = shared_states[kind, n]
    geom = st.geometry
    f = Jet(geom.chart, geom.order, geom.order,
            {gamma + beta: lam for gamma, lam in coeffs.items()})
    check_termwise(st, f, split)


@pytest.mark.parametrize("kind, n", [s for s in STATES
                                     if s[0] == "cotangent"])
def test_kinetic_energy_sums_its_unit_entries(shared_states, kind, n):
    """The dense g^{ab} of the kinetic energy, read termwise on a fresh
    table of its units, has the store of the direct build."""
    st = fresh_copy(shared_states[kind, n])
    f = kinetic_energy_observable(st.geometry)
    check_termwise(st, f, "first")
