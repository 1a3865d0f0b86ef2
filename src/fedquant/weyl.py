"""The truncated graded algebra of fiber-polynomial forms.

Elements are finite sums of terms

    hbar^k * c(x) * y^alpha * dx^beta,

where ``c`` is a jet, ``alpha`` a symmetric multidegree over the 2n fiber
generators and ``beta`` a strictly increasing subset of form indices.  The
grading weight of a term is k + |alpha|/2; it is stored doubled
(``2k + |alpha|``) so that half-integers stay integral.

The fiberwise product is the exponential contraction against the inverse
symplectic form, truncated at the element's ``degree_cap`` (also doubled).
On monomials it has the closed form

    y^alpha o y^beta = sum over gamma <= alpha, delta <= beta with
                       |gamma| = |delta| = m  of
        (i hbar/2)^m C(alpha, gamma) C(beta, delta) P(gamma, delta)
        y^(alpha - gamma + beta - delta),

where C(alpha, gamma) = prod_i binom(alpha_i, gamma_i) and P(gamma, delta)
is the sum over complete pairings of the m generators in gamma with those
in delta of the product of omega^{ij} (``_pair_contraction``).  That one
kernel serves ``weyl_mul``, ``graded_commutator`` (odd m, doubled) and
``symbol_mul`` (gamma = alpha, delta = beta).
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import product
from math import comb, prod

from .jets import (ChartMismatch, Jet, JetError, JetSum, jet_maps_agree,
                   product_vanishes)
from .rational import CRat, HALF_I

# form-index subsets are sorted tuples; fiber multidegrees are dense tuples


class GradingError(JetError):
    pass


def _wedge(beta1, beta2):
    """Merge two sorted index tuples; returns (sign, merged) or None."""
    if not beta1:
        return 1, beta2
    if not beta2:
        return 1, beta1
    if set(beta1) & set(beta2):
        return None
    merged = []
    sign = 1
    i = j = 0
    while i < len(beta1) and j < len(beta2):
        if beta1[i] < beta2[j]:
            merged.append(beta1[i])
            i += 1
        else:
            merged.append(beta2[j])
            j += 1
            # beta2[j] hops over the remaining elements of beta1
            if (len(beta1) - i) % 2:
                sign = -sign
    merged.extend(beta1[i:])
    merged.extend(beta2[j:])
    return sign, tuple(merged)


def _insert_left(b, beta):
    """dx^b wedge dx^beta; returns (sign, merged) or None."""
    if b in beta:
        return None
    smaller = sum(1 for x in beta if x < b)
    sign = -1 if smaller % 2 else 1
    out = tuple(sorted(beta + (b,)))
    return sign, out


class WeylForm:
    """A truncated element of the fiber-polynomial form algebra.

    ``terms`` maps (hbar_power, y_multidegree, form_subset) to jet
    coefficients; terms whose doubled weight exceeds ``degree_cap`` are
    dropped on construction, and so are zero jets.  A nonzero term at a
    negative hbar power raises ``GradingError``: it is what (i/hbar) leaves
    of an hbar^0 layer that should have cancelled.
    """

    __slots__ = ("geometry", "degree_cap", "terms")

    def __init__(self, geometry, degree_cap, terms):
        clean = {}
        dim = geometry.dim
        for (k, alpha, beta), jet in terms.items():
            if len(alpha) != dim:
                raise JetError("fiber multidegree does not match geometry dim")
            if list(beta) != sorted(set(beta)):
                raise JetError("form subset must be strictly increasing")
            if 2 * k + sum(alpha) > degree_cap:
                continue
            if jet.is_zero():
                continue
            if k < 0:
                raise GradingError(
                    "nonzero hbar^0 layer under (i/hbar), a graded identity "
                    "was violated upstream")
            clean[(k, alpha, beta)] = jet
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "degree_cap", degree_cap)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("WeylForm is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_jet(cls, geometry, degree_cap, jet):
        return cls(geometry, degree_cap, {(0, (0,) * geometry.dim, ()): jet})

    @classmethod
    def from_sums(cls, geometry, degree_cap, sums):
        """The form whose terms are the finished ``{key: JetSum}`` sums."""
        return cls(geometry, degree_cap,
                   {key: acc.jet() for key, acc in sums.items()})

    # -- bookkeeping ------------------------------------------------------

    def _check(self, other):
        if self.geometry is not other.geometry and self.geometry != other.geometry:
            raise ChartMismatch("operands live on different geometries")
        if self.degree_cap != other.degree_cap:
            raise GradingError("operands have different degree caps")

    def is_zero(self):
        return not self.terms

    def map_jets(self, fn):
        return WeylForm(self.geometry, self.degree_cap,
                        {key: fn(jet) for key, jet in self.terms.items()})

    def agrees_with(self, other):
        """Exact equality of retained terms, jets compared to shared order."""
        self._check(other)
        return jet_maps_agree(self.terms, other.terms)

    def __eq__(self, other):
        if not isinstance(other, WeylForm):
            return NotImplemented
        return (self.geometry == other.geometry
                and self.degree_cap == other.degree_cap
                and self.terms == other.terms)

    def __repr__(self):
        return f"WeylForm({len(self.terms)} terms, cap {self.degree_cap})"

    # -- linear structure -------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, WeylForm):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for key, jet in other.terms.items():
            prev = out.get(key)
            out[key] = jet if prev is None else prev + jet
        return WeylForm(self.geometry, self.degree_cap, out)

    def __neg__(self):
        return self.map_jets(lambda j: -j)

    def __sub__(self, other):
        return self + (-other)


# -- the fiberwise product -------------------------------------------------

def weyl_mul(a, b, into=None):
    """Fiberwise product: exponential contraction against omega^{-1}.

    With ``into``, (i/hbar) a o b is added to that map instead (see
    ``_mul_contract``).
    """
    return _mul_contract(a, b, None, into)


def _mul_contract(a, b, parity, into=None):
    """a o b, keeping only contraction orders of the given parity (or all).

    Each pair of terms adds the cached closed-form expansion of its fiber
    monomials (``_expansion``) times the product of its jets.  With parity
    1 the result is doubled, which turns it into the graded commutator:
    the antisymmetry of omega^{-1} flips each contraction's sign on
    reversal, so the even orders cancel in [a, b] and the odd orders
    appear twice.

    Given ``into``, a ``{key: JetSum}`` map, the terms of (i/hbar) times
    the product are added to it and the map is returned; the hbar^0
    layer, whose ordered pairs cancel only in the finished sums, is
    checked when the map becomes a form (``WeylForm.from_sums``).
    """
    a._check(b)
    geom = a.geometry
    cap = a.degree_cap
    # the parity doubling rides on the scalar of every emitted term, and
    # so does the i of (i/hbar)
    emit = 1 if parity is None else 2
    if into is None:
        out, lower, emit = defaultdict(JetSum), 0, CRat(emit)
    else:
        out, lower, emit = into, 1, CRat(0, emit)
    # the doubled weight of each b term, read once per call
    b_terms = [(2 * kb + sum(alpha_b), kb, alpha_b, beta_b, jet_b)
               for (kb, alpha_b, beta_b), jet_b in b.terms.items()]
    for (ka, alpha_a, beta_a), jet_a in a.terms.items():
        room = cap - 2 * ka - sum(alpha_a)
        for db, kb, alpha_b, beta_b, jet_b in b_terms:
            if db > room:
                continue
            w = _wedge(beta_a, beta_b)
            if w is None:
                continue
            sign, beta = w
            base = jet_a * jet_b
            if base.is_zero():
                continue
            s = emit if sign == 1 else -emit
            # one add per contraction term, so that a term cancelling
            # another still lowers the key's validity as its own
            for m, alpha, pairing, scale in _expansion(geom, alpha_a,
                                                       alpha_b):
                if parity is not None and m % 2 != parity:
                    continue
                if pairing is None or not product_vanishes(base, pairing):
                    out[ka + kb + m - lower, alpha, beta].add(
                        base, pairing, scale * s)
    if into is not None:
        return out
    return WeylForm.from_sums(geom, cap, out)


def _expansion(geom, alpha_a, alpha_b):
    """The terms of y^alpha_a o y^alpha_b, cached per geometry.

    Entries are (m, alpha, pairing, scale) for each pair gamma <= alpha_a,
    delta <= alpha_b with |gamma| = |delta| = m and a nonzero pairing:
    the term  scale * pairing * hbar^m * y^alpha, with ``scale`` a CRat.
    A constant pairing is folded into ``scale`` and stored as None.
    """
    key = ("expansion", alpha_a, alpha_b)
    cached = geom._cache.get(key)
    if cached is not None:
        return cached
    subs_a, subs_b = sub_degrees(alpha_a), sub_degrees(alpha_b)
    # few distinct scalars recur across entries: keep one object per value
    scales = geom._cache.setdefault("scales", {})
    out = []
    for m in range(min(len(subs_a), len(subs_b))):
        power = HALF_I ** m
        for gamma, binom_a in subs_a[m]:
            for delta, binom_b in subs_b[m]:
                pairing = _pair_contraction(geom, gamma, delta)
                if pairing.is_zero():
                    continue
                scale = power * (binom_a * binom_b)
                if pairing.is_constant():
                    pairing, scale = None, scale * pairing.constant_term
                scale = scales.setdefault(scale, scale)
                alpha = tuple(a - g + b - d for a, g, b, d
                              in zip(alpha_a, gamma, alpha_b, delta))
                out.append((m, alpha, pairing, scale))
    geom._cache[key] = out
    return out


def sub_degrees(alpha):
    """The (gamma, C(alpha, gamma)) with gamma <= alpha, listed by |gamma|."""
    out = [[] for _ in range(sum(alpha) + 1)]
    for gamma in product(*(range(e + 1) for e in alpha)):
        out[sum(gamma)].append((gamma, prod(map(comb, alpha, gamma))))
    return out


def _pair_contraction(geom, alpha_a, alpha_b):
    """P(alpha_a, alpha_b): the complete pairings through omega.

    Returns the jet  sum over bijections pi  of  prod omega^{i, pi(i)},
    cached per geometry since it depends only on the multidegrees.  Every
    contraction coefficient of the fiberwise product comes from here.
    """
    key = ("contraction", alpha_a, alpha_b)
    cached = geom._cache.get(key)
    if cached is not None:
        return cached
    if not any(alpha_a):
        out = Jet.constant(geom.chart, 1, geom.order)
    else:
        i = next(k for k, e in enumerate(alpha_a) if e)
        ra = list(alpha_a)
        ra[i] -= 1
        ra = tuple(ra)
        acc = JetSum()
        acc.add(Jet.zero(geom.chart, geom.order))
        for j, e in enumerate(alpha_b):
            if not e:
                continue
            om = geom.omega_inv[i][j]
            if om.is_zero():
                continue
            rb = list(alpha_b)
            rb[j] -= 1
            inner = _pair_contraction(geom, ra, tuple(rb))
            if inner.is_zero():
                continue
            acc.add(om, inner, e)
        out = acc.jet()
        if out.is_zero():
            # most pairings vanish on sparse omega^{-1}; every caller skips
            # them, so they share one zero jet
            out = geom._cache.setdefault("zero pairing", out)
    geom._cache[key] = out
    return out


def symbol_mul(a, b, max_hbar):
    """The y-free, form-free part of a o b through hbar^max_hbar, as a map
    hbar power -> jet.

    Only complete contractions (gamma = alpha_a, delta = alpha_b, where
    both binomial factors are 1) survive in the symbol, so this skips
    every other term of the full product.
    """
    a._check(b)
    geom = a.geometry
    out = defaultdict(JetSum)
    for (ka, alpha_a, beta_a), jet_a in a.terms.items():
        if beta_a:
            continue
        la = sum(alpha_a)
        scale = HALF_I ** la
        for (kb, alpha_b, beta_b), jet_b in b.terms.items():
            if beta_b or sum(alpha_b) != la:
                continue
            k = ka + kb + la
            if k > max_hbar:
                continue
            pairing = _pair_contraction(geom, alpha_a, alpha_b)
            if pairing.is_zero():
                continue
            if pairing.is_constant():
                if not product_vanishes(jet_a, jet_b):
                    out[k].add(jet_a, jet_b, scale * pairing.constant_term)
            else:
                ab = jet_a * jet_b
                if not product_vanishes(ab, pairing):
                    out[k].add(ab, pairing, scale)
    sym = {k: acc.jet() for k, acc in out.items()}
    return {k: jet for k, jet in sym.items() if not jet.is_zero()}


def weight_truncate(a, max_weight):
    """Drop terms whose doubled weight exceeds the bound."""
    return WeylForm(a.geometry, a.degree_cap,
                    {key: jet for key, jet in a.terms.items()
                     if 2 * key[0] + sum(key[1]) <= max_weight})


def graded_commutator(a, b, into=None):
    """[a, b] = a o b - (-1)^{pq} b o a, summed over form bidegrees.

    Computed as twice the odd-contraction part of a single product; the
    form-degree signs cancel against the contraction signs on reversal.
    With ``into``, (i/hbar) [a, b] is added to that map instead.
    """
    return _mul_contract(a, b, 1, into)


# -- the fiber (co)differentials ------------------------------------------

def op_delta(a):
    """Replace one fiber generator by the matching form generator."""
    out = defaultdict(JetSum)
    for (k, alpha, beta), jet in a.terms.items():
        for i, e in enumerate(alpha):
            if not e:
                continue
            ins = _insert_left(i, beta)
            if ins is None:
                continue
            sign, beta2 = ins
            alpha2 = list(alpha)
            alpha2[i] -= 1
            out[k, tuple(alpha2), beta2].add(jet, s=e * sign)
    return WeylForm.from_sums(a.geometry, a.degree_cap, out)


def op_delta_star(a):
    """Replace one form generator by the matching fiber generator."""
    return _delta_star(a, False)


def op_delta_inv(a):
    """Normalized homotopy: delta*/(l+p) per bidegree, zero on the scalars."""
    return _delta_star(a, True)


def _delta_star(a, normalized):
    """delta* in one pass; divided by l + p per term when ``normalized``.

    delta* keeps l + p (the fiber degree plus the form degree), so every
    output key collects terms of a single l + p.
    """
    out = defaultdict(JetSum)
    for (k, alpha, beta), jet in a.terms.items():
        if not beta:
            continue
        scale = Fraction(1, sum(alpha) + len(beta)) if normalized else 1
        for pos, i in enumerate(beta):
            alpha2 = list(alpha)
            alpha2[i] += 1
            out[k, tuple(alpha2), beta[:pos] + beta[pos + 1:]].add(
                jet, s=-scale if pos % 2 else scale)
    return WeylForm.from_sums(a.geometry, a.degree_cap, out)


def scalar_part(a):
    """The y-free, form-free component (an hbar series of jets)."""
    dim = a.geometry.dim
    zero_alpha = (0,) * dim
    return WeylForm(a.geometry, a.degree_cap,
                    {key: jet for key, jet in a.terms.items()
                     if key[1] == zero_alpha and key[2] == ()})


def pi_weight(a, doubled_degree):
    """Project onto doubled grading weight 2k + |alpha|."""
    return WeylForm(a.geometry, a.degree_cap,
                    {key: jet for key, jet in a.terms.items()
                     if 2 * key[0] + sum(key[1]) == doubled_degree})
