"""The flatness equation, flat sections, and the induced star product.

The connection D = nabla - delta + (i/hbar)[r, .] on fiber-polynomial forms
is flattened by solving

    delta r = Rhat + nabla r + (i/hbar) r o r,   delta_inv r = 0,

degree by degree in the doubled weight 2k + |alpha|.  Flat sections are then
built by the companion iteration, and the star product of two scalars is the
symbol of the fiberwise product of their flat sections.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from fractions import Fraction

from .jets import ChartMismatch, Jet, JetError, JetSum, product_vanishes
from .rational import HALF_I, ONE
from .weyl import (WeylForm, graded_commutator, op_delta, op_delta_inv,
                   symbol_mul, weight_truncate, weyl_mul)
from .geometry import build_rhat, nabla


class FedosovError(JetError):
    pass


def default_degree_cap(n_hbar):
    """Doubled working weight for a star product certified through hbar^N.

    ``symbol_mul`` pairs a section term hbar^ka y^alpha only with a term
    hbar^kb y^alpha and lands at hbar^(ka + kb + |alpha|), so a star
    product through hbar^N reads only the terms with k + |alpha| <= N
    (``flat_section``).  Their doubled weight 2k + |alpha| is at most 2N,
    so full sections are filled through weight 2N; that recursion consumes
    r through weight 2N + 1, and the weight-by-weight solve makes every r
    component below the cap exact, so cap = 2N + 2.
    """
    return 2 * n_hbar + 2


class StarSeries:
    """Coefficient jets of a star product, indexed by hbar power."""

    __slots__ = ("coefficients", "valid_hbar_order")

    def __init__(self, coefficients, valid_hbar_order):
        self.coefficients = tuple(coefficients)
        self.valid_hbar_order = valid_hbar_order
        if len(self.coefficients) != valid_hbar_order + 1:
            raise FedosovError("coefficient list does not match hbar order")

    def coefficient(self, k):
        if not 0 <= k <= self.valid_hbar_order:
            raise FedosovError(f"hbar power {k} outside certified range")
        return self.coefficients[k]

    def agrees_with(self, other):
        """Coefficient-wise agreement through the shared hbar order."""
        return all(a.agrees_with(b)
                   for a, b in zip(self.coefficients, other.coefficients))

    def __repr__(self):
        return f"StarSeries(through hbar^{self.valid_hbar_order})"


# sections kept per state, oldest dropped first: a section is reused within
# one associativity triple or one quantized operator, a few calls apart,
# while a stream of unrelated observables would grow the cache without end
SECTION_CACHE_SIZE = 32


class FedosovState:
    """Converged solution of the flatness equation for one geometry."""

    def __init__(self, geometry, n_hbar, degree_cap, r, r_parts, residual):
        """``r_parts`` holds the nonzero weight components of ``r``, keyed
        by doubled weight."""
        self.geometry = geometry
        self.n_hbar = n_hbar
        self.degree_cap = degree_cap
        self.r = r
        self.r_parts = r_parts
        self.residual = residual
        self.section_cap = degree_cap - 2
        self._section_cache = OrderedDict()
        self._rows = {}

    def _commutator_row(self, w, key):
        """(i/hbar)[r_w, t] for the unit-coefficient term t at ``key``.

        r is fixed, so the commutator with its weight-w part is a linear
        map over jets; each row is filled once and returned as a tuple of
        (level, output key, jet) triples, the level being k + |alpha| of
        the output key.
        """
        row = self._rows.get((w, key))
        if row is None:
            geom = self.geometry
            unit = WeylForm(geom, self.degree_cap,
                            {key: Jet.constant(geom.chart, 1, geom.order)})
            sums = graded_commutator(self.r_parts[w], unit,
                                     defaultdict(JetSum))
            row = tuple((k + sum(alpha), (k, alpha, beta), jet)
                        for (k, alpha, beta), jet in WeylForm.from_sums(
                            geom, self.degree_cap, sums).terms.items())
            self._rows[(w, key)] = row
        return row

    def __repr__(self):
        return f"FedosovState(N={self.n_hbar}, cap={self.degree_cap})"


def _geometry_validity(geom):
    orders = [geom.order]
    for row in geom.omega:
        orders.extend(j.valid_order for j in row)
    orders.extend(j.valid_order for j in geom.gamma.values())
    return min(orders)


def solve_r(geom, n_hbar):
    """Solve the flatness equation through the working degree cap.

    The weight-(w+1) component of r is determined by the weight-w data, so
    the recursion fills one weight per step, summing its right-hand side
    nabla r_w + (i/hbar) sum r_w1 o r_w2 in one map.  A final pass runs
    one full iteration r -> delta^-1 (Rhat + nabla r + (i/hbar) r o r)
    and raises ``FedosovError`` unless it gives r back below the top
    weight, which catches a broken recursion but not a flatness defect:
    the residual is kept on the state for ``check_flatness``, and a
    nonzero one is returned, not raised, until zero terms keep their
    validity.  The last chart of ``tests/test_digest.py`` (n = 2 Darboux,
    seed 0, N = 2, also the ``solve-n2`` benchmark's) has ``{4: 209}``.
    """
    cap = default_degree_cap(n_hbar)
    if _geometry_validity(geom) < 2 * n_hbar + 3:
        raise FedosovError(
            f"geometry jets need valid_order >= {2 * n_hbar + 3} "
            f"for a star product through hbar^{n_hbar}")
    rhat = build_rhat(geom, cap)
    parts = {3: op_delta_inv(rhat)}
    for w in range(3, cap):
        # every term has weight w, so delta^{-1} gives weight w + 1 only
        sums = nabla(parts[w], geom, defaultdict(JetSum))
        for w1 in range(3, w):
            weyl_mul(parts[w1], parts[w + 2 - w1], sums)
        parts[w + 1] = op_delta_inv(WeylForm.from_sums(geom, cap, sums))
    r = WeylForm(geom, cap, {key: jet for part in parts.values()
                             for key, jet in part.terms.items()})

    # full fixed-point pass over the assembled solution; the top weight of
    # the quadratic term is truncated, so stability is certified below it
    quad = WeylForm.from_sums(geom, cap, weyl_mul(r, r, defaultdict(JetSum)))
    nr = nabla(r, geom)
    refreshed = op_delta_inv(rhat + nr + quad)
    if not weight_truncate(refreshed, cap - 1).agrees_with(
            weight_truncate(r, cap - 1)):
        raise FedosovError("flatness iteration did not reach a fixed point; "
                           "the degree recursion is broken")
    return FedosovState(geom, n_hbar, cap, r,
                        {w: p for w, p in parts.items() if not p.is_zero()},
                        op_delta(r) - rhat - nr - quad)


def check_flatness(state):
    """Count nonzero residual terms of the flatness equation per weight.

    The top working weight is corrupted by truncation of the quadratic term
    and is excluded.  A flat state reports an empty map, but ``solve_r``
    returns a state whatever its residual, so the map can be nonempty
    (see ``solve_r``).
    """
    return _count_by_weight(state.residual, state.degree_cap - 1)


def _count_by_weight(form, cutoff):
    """Terms of a form per doubled weight below ``cutoff``; a WeylForm
    keeps no zero jets, so every term is a nonzero one."""
    out = {}
    for k, alpha, _ in form.terms:
        w = 2 * k + sum(alpha)
        if w < cutoff:
            out[w] = out.get(w, 0) + 1
    return out


def flat_section(f, state, n_hbar=None):
    """Lift a scalar jet to a section annihilated by the flat connection.

    With no bound the section is filled through doubled weight
    ``state.section_cap``.  With ``n_hbar`` = n (at most the state's N) it
    holds exactly the terms hbar^k y^alpha with k + |alpha| <= n, the only
    ones a star product through hbar^n reads (``default_degree_cap``), and
    each is store-equal to the same term of the full section.  That is
    because the level k + |alpha| never goes down in the recursion

        a_(s+1) = delta^-1 (nabla a_s + sum_w (i/hbar) [r_w, a_(s+2-w)]):

    nabla keeps k and alpha, and delta^-1 adds one to |alpha|; a commutator
    term of contraction order m <= |alpha_r| moves the level by
    k_r + |alpha_r| - m - 1 >= -1, which the following delta^-1 adds back.
    So a kept term gets exactly the sums the full fill gives it, and the
    bounded fill skips nabla inputs of level n or more and commutator
    terms that land above level n - 1.  It stops at weight 2n - 1: a
    weight-2n term of level <= n would be a y-free hbar^n, which delta^-1
    never makes.

    The unbounded mode is kept as the reference the bounded fill is
    tested against, and as the input of ``section_defect``, which checks
    the flatness of a section on every trusted weight.

    The sections of the last ``SECTION_CACHE_SIZE`` new jets are cached
    with the bound they were built to (None for a full section).  An entry
    serves a request for an equal or smaller bound, restricted to that
    bound, and is rebuilt for any other.
    """
    geom = state.geometry
    if f.chart != geom.chart:
        raise ChartMismatch("observable lives on a different chart")
    n = n_hbar
    if n is not None:
        if n < 0:
            raise FedosovError(f"hbar order {n} is negative")
        n = min(n, state.n_hbar)
    cache = state._section_cache
    entry = cache.get(f)
    # a full entry serves any bound, a bounded one its own and smaller
    if entry is None or not (entry[0] is None
                             or n is not None and n <= entry[0]):
        if entry is None and len(cache) >= SECTION_CACHE_SIZE:
            cache.popitem(last=False)
        entry = cache[f] = (n, _fill_section(f, state, n))
    bound, section = entry
    return section if bound == n else _restrict_level(section, n)


def _fill_section(f, state, n):
    """The section of ``flat_section``, built from scratch."""
    geom = state.geometry
    cap = state.degree_cap
    # no term's level exceeds its doubled weight, which the cap bounds
    top, lim = (state.section_cap, cap) if n is None else (2 * n - 1, n - 1)
    parts = {0: WeylForm.from_jet(geom, cap, f)}
    for s in range(top):
        # nabla a_s + sum over w of (i/hbar)[r_w, a_(s+2-w)], all of
        # weight s, in one map
        sums = defaultdict(JetSum)
        if s in parts:
            nabla(parts[s] if n is None else _restrict_level(parts[s], lim),
                  geom, sums)
        for w in state.r_parts:
            s2 = s + 2 - w
            # the weight-0 part is a plain scalar and commutes with r
            if s2 and s2 in parts:
                add_commutator(state, w, parts[s2], sums, lim)
        nxt = op_delta_inv(WeylForm.from_sums(geom, cap, sums))
        if not nxt.is_zero():
            parts[s + 1] = nxt
    return WeylForm(geom, cap, {key: jet for part in parts.values()
                                for key, jet in part.terms.items()})


def _restrict_level(form, lim):
    """The terms of ``form`` with k + |alpha| <= lim."""
    return WeylForm(form.geometry, form.degree_cap,
                    {key: jet for key, jet in form.terms.items()
                     if key[0] + sum(key[1]) <= lim})


def add_commutator(state, w, part, acc, max_level):
    """Accumulate (i/hbar)[r_w, part] from the state's rows into ``acc``,
    a ``defaultdict(JetSum)`` keyed by term; products that vanish are
    skipped, and so are terms whose level k + |alpha| exceeds
    ``max_level``."""
    for key, jet in part.terms.items():
        for level, out_key, row_jet in state._commutator_row(w, key):
            if level <= max_level and not product_vanishes(jet, row_jet):
                acc[out_key].add(jet, row_jet)


def section_defect(section, state):
    """Apply the flat connection to a section; zero on trusted weights."""
    geom = state.geometry
    sums = nabla(section, geom, defaultdict(JetSum))
    graded_commutator(state.r, section, sums)
    d = WeylForm.from_sums(geom, state.degree_cap, sums) - op_delta(section)
    return _count_by_weight(d, state.section_cap)


def star(f, g, state, n_hbar=None):
    """Star product through hbar^n (the state's N by default, and at most
    that): the symbol of f-hat o g-hat.

    The symbol pairs hbar^ka y^alpha only with hbar^kb y^alpha and lands
    at hbar^(ka + kb + |alpha|), so each section is built with only its
    terms of k + |alpha| <= n (``flat_section``), which are equal to those
    of the full sections; the coefficients and their validity are those of
    the full sections' symbol through hbar^n.
    """
    geom = state.geometry
    n = state.n_hbar if n_hbar is None else min(n_hbar, state.n_hbar)
    fhat = flat_section(f, state, n)
    ghat = flat_section(g, state, n)
    sym = symbol_mul(fhat, ghat, max_hbar=n)
    v = min(j.valid_order
            for j in list(sym.values()) + [f, g])
    zero = Jet.zero(geom.chart, v)
    return StarSeries([sym.get(k, zero) for k in range(n + 1)], n)


def moyal_reference(f, g, geom, n_hbar):
    """Direct exponential-bidifferential star product on a constant form.

    Independent of the flatness machinery; requires every entry of the
    inverse symplectic form to be a constant jet.
    """
    dim = geom.dim
    oinv = {}
    for a in range(dim):
        for b in range(dim):
            jet = geom.omega_inv[a][b]
            if jet.is_zero():
                continue
            if not jet.is_constant():
                raise FedosovError(
                    "direct reference product needs a constant inverse form")
            oinv[(a, b)] = jet.constant_term
    level = [(f, g, ONE)]
    coeffs = []
    for m in range(n_hbar + 1):
        if m:
            nxt = []
            inv_m = Fraction(1, m)
            for (fj, gj, c) in level:
                for (a, b), om in oinv.items():
                    fa = fj.partial(a)
                    if fa.is_zero():
                        continue
                    gb = gj.partial(b)
                    if gb.is_zero():
                        continue
                    nxt.append((fa, gb, c * om * HALF_I * inv_m))
            level = nxt
        acc = None
        for (fj, gj, c) in level:
            t = fj * gj * c
            acc = t if acc is None else acc + t
        if acc is None:
            v = max(min(f.valid_order, g.valid_order) - m, 0)
            acc = Jet.zero(geom.chart, v)
        coeffs.append(acc)
    return StarSeries(coeffs, n_hbar)
