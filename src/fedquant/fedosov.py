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

from .jets import ChartMismatch, Jet, JetError, JetSum
from .rational import HALF_I, ONE
from .weyl import (WeylForm, graded_commutator, op_delta, op_delta_inv,
                   op_delta_inv_sums, symbol_mul, weyl_mul)
from .geometry import build_rhat, nabla


class FedosovError(JetError):
    pass


class StarSeries:
    """Coefficient jets of a star product, indexed by hbar power."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        self.coefficients = tuple(coefficients)

    @property
    def valid_hbar_order(self):
        """The highest certified hbar power: one per coefficient jet."""
        return len(self.coefficients) - 1

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

    def __init__(self, geometry, n_hbar, r_parts, residual):
        """``r_parts`` holds the nonzero weight components of r, keyed by
        doubled weight, and r is their sum."""
        self.geometry = geometry
        self.n_hbar = n_hbar
        self.r_parts = r_parts
        self.residual = residual
        self._section_cache = OrderedDict()
        self._rows = {}
        # rho(q^gamma p^beta) by (unit monomial jet, beta, split), filled by
        # ``quantization._rho_monomial``
        self._rho_table = {}

    def add_commutator(self, w, part, acc, max_level):
        """Accumulate (i/hbar)[r_w, part] into ``acc``, a
        ``defaultdict(JetSum)`` keyed by term; terms whose level
        k + |alpha| exceeds ``max_level`` are skipped, and every other
        product is added, one that truncates to zero included.

        r is fixed, so the commutator with its weight-w part is a linear
        map over jets.  Its row at a term key, the commutator with the
        unit-coefficient term there, is filled once and kept as a tuple of
        (level, output key, jet) triples.
        """
        rows = self._rows
        for key, jet in part.terms.items():
            row = rows.get((w, key))
            if row is None:
                geom = self.geometry
                unit = WeylForm(
                    geom, {key: Jet.constant(geom.chart, 1, geom.order)})
                sums = graded_commutator(self.r_parts[w], unit,
                                         defaultdict(JetSum))
                row = rows[w, key] = tuple(
                    (k + sum(alpha), (k, alpha, beta), unit_jet)
                    for (k, alpha, beta), unit_jet
                    in WeylForm.from_sums(geom, sums).terms.items())
            for level, out_key, row_jet in row:
                if level <= max_level:
                    acc[out_key].add(jet, row_jet)

    def __repr__(self):
        return f"FedosovState(N={self.n_hbar})"


def _geometry_validity(geom):
    orders = [geom.order]
    for row in geom.omega:
        orders.extend(j.valid_order for j in row)
    orders.extend(j.valid_order for j in geom.gamma.values())
    return min(orders)


def _check_order(n):
    if n < 0:
        raise FedosovError(f"hbar order {n} is negative")


def solve_r(geom, n_hbar):
    """Solve the flatness equation for r_3 ... r_(2N+1).

    The weight-(w+1) component of r is determined by the weight-w data,
    so the recursion fills one weight per step, for w = 3 ... 2N:

        r_3 = delta^-1 Rhat,   r_(w+1) = delta^-1 X_w,
        X_w = nabla r_w + (i/hbar) sum over w1 + w2 = w + 2 of r_w1 o r_w2.

    It stops at r_(2N+1), the last weight anything reads, and every weight
    it keeps is exact.  ``symbol_mul`` pairs a section term hbar^ka y^alpha
    only with a term hbar^kb y^alpha and lands at hbar^(ka + kb + |alpha|),
    so a star product through hbar^n reads only the section terms with
    k + |alpha| <= n (``flat_section``).  A flat section through
    hbar^n <= hbar^N stops at weight 2n - 1 and reads r_w with
    w <= 2n - 1.  The flatness certificate at weight 2N reads r_(2N+1).
    Every product in X_w pairs weights w1 + w2 = w + 2 <= 2N + 2, and the
    product adds weights, so no product of higher weight is formed.

    r is a 1-form, so r_a o r_b + r_b o r_a is the graded commutator
    [r_a, r_b]: each unequal weight pair is taken once, as a commutator.
    The diagonal w1 = w2 is the square ``weyl_mul(r_w1, r_w1)``, which
    takes the same identity down to term pairs: it sums the odd
    contractions of each unordered pair of terms, doubled, since a 1-form
    term squares to zero.

    The flatness certificate comes from the same sums.  Each weight keeps
    the finished jets of its nabla map and of its product map apart, zero
    jets included, so a cancelling term still lowers the validity of the
    X_w they add up to; X_w itself is read by delta^-1 alone, so its sums
    go to it unfinished (``op_delta_inv_sums``).  Keys of different
    weights never meet, so the unions of the nabla maps and of the
    product maps are nabla r and (i/hbar) r o r through weight 2N.  With Rhat taken as X_2, the residual

        delta r - Rhat - nabla r - (i/hbar) r o r

    holds for N >= 1 exactly the weights w <= 2N, and at weight w it is
    delta r_(w+1) - X_w = -delta^-1 delta X_w, because delta delta^-1 +
    delta^-1 delta is the identity on 2-forms.  So it is nonzero exactly
    when X_w is not delta-closed.  The Bianchi identity makes X_w closed
    when the lower weights solve the equation, and for n >= 2 nothing
    makes it closed when they do not, so reusing the sums leaves the
    certificate a real test.  For n = 1 every 2-form has top
    form degree and is closed, so there the residual vanishes whatever
    the recursion summed.  The residual is kept on the state for
    ``check_flatness``, and a nonzero one is returned, not raised, until
    zero terms keep their validity.  The last chart of
    ``tests/test_digest.py`` (n = 2 Darboux, seed 0, N = 2, also the
    ``solve-n2`` benchmark's) has ``{4: 209}``.  At N = 0 no r_w is
    solved and the residual is -Rhat, at weight 2.
    """
    _check_order(n_hbar)
    if _geometry_validity(geom) < 2 * n_hbar + 3:
        raise FedosovError(
            f"geometry jets need valid_order >= {2 * n_hbar + 3} "
            f"for a star product through hbar^{n_hbar}")
    rhat = build_rhat(geom)
    parts = {3: op_delta_inv(rhat)} if n_hbar else {}
    # the finished jets of nabla r and of (i/hbar) r o r, zero ones kept
    nr, quad = {}, {}
    for w in range(3, 2 * n_hbar + 1):
        nsums = nabla(parts[w], geom, defaultdict(JetSum))
        qsums = defaultdict(JetSum)
        for w1 in range(3, w // 2 + 2):
            (graded_commutator if 2 * w1 < w + 2 else weyl_mul)(
                parts[w1], parts[w + 2 - w1], qsums)
        xsums = defaultdict(JetSum)
        for sums, done in ((nsums, nr), (qsums, quad)):
            for key, acc in sums.items():
                done[key] = jet = acc.jet()
                xsums[key].add(jet)
        # every term has weight w, so delta^{-1} gives weight w + 1 only
        parts[w + 1] = op_delta_inv_sums(geom, xsums)
    r = WeylForm(geom, {key: jet for part in parts.values()
                        for key, jet in part.terms.items()})
    nr, quad = WeylForm(geom, nr), WeylForm(geom, quad)
    return FedosovState(geom, n_hbar,
                        {w: p for w, p in parts.items() if not p.is_zero()},
                        op_delta(r) - rhat - nr - quad)


def check_flatness(state):
    """Count nonzero residual terms of the flatness equation per weight.

    The residual at weight w is -delta^-1 delta X_w (``solve_r``): zero
    exactly when the weight-w right-hand side of the recursion is
    delta-closed.  The weights counted are w <= 2N; the one at weight 2N
    reads r_(2N+1), the top weight ``solve_r`` solves.  For N >= 1 they
    are all the residual holds; at N = 0 the residual is the unbalanced
    Rhat at weight 2, which is not counted.  A flat state reports an empty
    map, but ``solve_r`` returns a state whatever its residual, so the map
    can be nonempty (see ``solve_r``).
    """
    out = {}
    for k, alpha, _ in state.residual.terms:
        w = 2 * k + sum(alpha)
        if w <= 2 * state.n_hbar:
            out[w] = out.get(w, 0) + 1
    return out


def flat_section(f, state, n_hbar=None):
    """Lift a scalar jet to a section annihilated by the flat connection,
    through hbar^n: n is the state's N by default, and at most that.

    The section holds exactly the terms hbar^k y^alpha with
    k + |alpha| <= n, the only ones a star product through hbar^n reads
    (``star``), and each is store-equal to the same term of the section
    filled through weight 2N with no level bound.  That is because
    the level k + |alpha| never goes down in the recursion

        a_(s+1) = delta^-1 (nabla a_s + sum_w (i/hbar) [r_w, a_(s+2-w)]):

    nabla keeps k and alpha, and delta^-1 adds one to |alpha|; a commutator
    term of contraction order m <= |alpha_r| moves the level by
    k_r + |alpha_r| - m - 1 >= -1, which the following delta^-1 adds back.
    So a kept term gets exactly the sums the unbounded fill gives it, and
    the fill skips nabla inputs of level n or more and commutator terms
    that land above level n - 1.  It stops at weight 2n - 1: a weight-2n
    term of level <= n would be a y-free hbar^n, which delta^-1 never
    makes.  So each commutator it forms has weight s + 2 <= 2n and reads
    an r_w with w <= 2n - 1.  The unbounded fill is kept as a test-side
    reference (``tests/reference.py``).

    The sections of the last ``SECTION_CACHE_SIZE`` new jets are cached
    with the bound they were built to.  An entry serves a request for an
    equal or smaller bound, restricted to that bound, and is rebuilt for a
    larger one.
    """
    geom = state.geometry
    if f.chart != geom.chart:
        raise ChartMismatch("observable lives on a different chart")
    n = state.n_hbar if n_hbar is None else n_hbar
    _check_order(n)
    n = min(n, state.n_hbar)
    cache = state._section_cache
    entry = cache.get(f)
    if entry is None or n > entry[0]:
        if entry is None and len(cache) >= SECTION_CACHE_SIZE:
            cache.popitem(last=False)
        entry = cache[f] = (n, _fill_section(f, state, n))
    bound, section = entry
    return section if bound == n else _restrict_level(section, n)


def _fill_section(f, state, n):
    """The section of ``flat_section`` through hbar^n, built from
    scratch.  Each weight's sums are read by delta^-1 alone, so they go
    to it unfinished (``op_delta_inv_sums``)."""
    geom = state.geometry
    parts = {0: WeylForm.from_jet(geom, f)}
    for s in range(2 * n - 1):
        # nabla a_s + sum over w of (i/hbar)[r_w, a_(s+2-w)], all of
        # weight s, in one map
        sums = defaultdict(JetSum)
        if s in parts:
            nabla(_restrict_level(parts[s], n - 1), geom, sums)
        for w in state.r_parts:
            s2 = s + 2 - w
            # the weight-0 part is a plain scalar and commutes with r
            if s2 and s2 in parts:
                state.add_commutator(w, parts[s2], sums, n - 1)
        nxt = op_delta_inv_sums(geom, sums)
        if not nxt.is_zero():
            parts[s + 1] = nxt
    return WeylForm(geom, {key: jet for part in parts.values()
                           for key, jet in part.terms.items()})


def _restrict_level(form, lim):
    """The terms of ``form`` with k + |alpha| <= lim."""
    return WeylForm(form.geometry,
                    {key: jet for key, jet in form.terms.items()
                     if key[0] + sum(key[1]) <= lim})


def star(f, g, state, n_hbar=None):
    """Star product through hbar^n (the state's N by default, and at most
    that): the symbol of f-hat o g-hat.

    The symbol pairs hbar^ka y^alpha only with hbar^kb y^alpha and lands
    at hbar^(ka + kb + |alpha|), so each section is built with only its
    terms of k + |alpha| <= n, through weight 2n - 1 (``flat_section``),
    which are equal to those of the sections filled with no level bound;
    the coefficients and their validity are those of the unbounded
    sections' symbol through hbar^n.
    """
    geom = state.geometry
    n = state.n_hbar if n_hbar is None else min(n_hbar, state.n_hbar)
    fhat = flat_section(f, state, n)
    ghat = flat_section(g, state, n)
    sym = symbol_mul(fhat, ghat, max_hbar=n)
    v = min(j.valid_order
            for j in list(sym.values()) + [f, g])
    zero = Jet.zero(geom.chart, v)
    return StarSeries([sym.get(k, zero) for k in range(n + 1)])


def moyal_reference(f, g, geom, n_hbar):
    """Direct exponential-bidifferential star product on a constant form.

    Independent of the flatness machinery; requires every entry of the
    inverse symplectic form to be a constant jet.
    """
    if f.chart != geom.chart or g.chart != geom.chart:
        raise ChartMismatch("operands live on a different chart")
    _check_order(n_hbar)
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
    return StarSeries(coeffs)
