"""The graded algebra of fiber-polynomial forms.

Elements are finite sums of terms

    hbar^k * c(x) * y^alpha * dx^beta,

where ``c`` is a jet, ``alpha`` a symmetric multidegree over the 2n fiber
generators and ``beta`` a strictly increasing subset of form indices.  The
grading weight of a term is k + |alpha|/2; it is stored doubled
(``2k + |alpha|``) so that half-integers stay integral.

The fiberwise product is the exponential contraction against the inverse
symplectic form.  It adds grading weights, since each contraction trades
two fiber generators for one hbar, and it is kept whole: a form holds
every nonzero term it is given.  The recursions of ``fedosov.solve_r``
and ``fedosov.flat_section`` stop by weight, and that is the only
truncation.  On monomials the product has the closed form

    y^alpha o y^beta = sum over gamma <= alpha, delta <= beta with
                       |gamma| = |delta| = m  of
        (i hbar/2)^m C(alpha, gamma) C(beta, delta) P(gamma, delta)
        y^(alpha - gamma + beta - delta),

where C(alpha, gamma) = prod_i binom(alpha_i, gamma_i) and P(gamma, delta)
is the sum over complete pairings of the m generators in gamma with those
in delta of the product of omega^{ij}.  One table, ``_pairing``, holds
every P, as a constant (value, None) or a jet (1, P).  Its readers take
it as it is: ``_expansion`` folds the constant into each entry's scale
for ``weyl_mul`` and ``graded_commutator`` (odd m, doubled), and
``symbol_mul`` (gamma = alpha, delta = beta) adds each term pair's jet
product against it.

``weyl_mul(a, a)``, the same form given twice, with every term of odd form
degree is the square: each term squares to zero under the wedge, and each
unordered pair of terms gives a_s o a_t + a_t o a_s = [a_s, a_t], so the
square is the odd part of the pairs s < t, doubled.  The expansions are
cached per contraction parity, so neither a commutator nor a square builds
an even order, and a term pair with no odd contraction forms no product.

Only exact zeros are left out: a term pair whose form indices collide,
whose expansion is empty or, in the symbol, whose pairing is zero.  Every
product formed goes into its ``JetSum``, one that truncates to zero
included, so a coefficient's validity is the minimum over every product
it is given.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import product
from math import comb, prod

from .jets import ChartMismatch, Jet, JetError, JetSum, jet_maps_agree
from .rational import CRat, HALF_I, ONE

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


class WeylForm:
    """An element of the fiber-polynomial form algebra.

    ``terms`` maps (hbar_power, y_multidegree, form_subset) to jet
    coefficients; zero jets are dropped on construction.  A nonzero term
    at a negative hbar power raises ``GradingError``: it is what (i/hbar)
    leaves of an hbar^0 layer that should have cancelled.
    """

    __slots__ = ("geometry", "terms")

    def __init__(self, geometry, terms):
        clean = {}
        dim = geometry.dim
        for (k, alpha, beta), jet in terms.items():
            if len(alpha) != dim:
                raise JetError("fiber multidegree does not match geometry dim")
            if list(beta) != sorted(set(beta)):
                raise JetError("form subset must be strictly increasing")
            if jet.is_zero():
                continue
            if k < 0:
                raise GradingError(
                    "nonzero hbar^0 layer under (i/hbar), a graded identity "
                    "was violated upstream")
            clean[(k, alpha, beta)] = jet
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("WeylForm is immutable")

    def __reduce__(self):
        # rebuilt by the constructor, past the guard above
        return WeylForm, (self.geometry, self.terms)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_jet(cls, geometry, jet):
        return cls(geometry, {(0, (0,) * geometry.dim, ()): jet})

    @classmethod
    def from_sums(cls, geometry, sums):
        """The form whose terms are the finished ``{key: JetSum}`` sums."""
        return cls(geometry, {key: acc.jet() for key, acc in sums.items()})

    # -- bookkeeping ------------------------------------------------------

    def _check(self, other):
        if self.geometry is not other.geometry and self.geometry != other.geometry:
            raise ChartMismatch("operands live on different geometries")

    def is_zero(self):
        return not self.terms

    def map_jets(self, fn):
        return WeylForm(self.geometry,
                        {key: fn(jet) for key, jet in self.terms.items()})

    def agrees_with(self, other):
        """Exact equality of retained terms, jets compared to shared order."""
        self._check(other)
        return jet_maps_agree(self.terms, other.terms)

    def __eq__(self, other):
        if not isinstance(other, WeylForm):
            return NotImplemented
        return (self.geometry == other.geometry
                and self.terms == other.terms)

    def __repr__(self):
        return f"WeylForm({len(self.terms)} terms)"

    # -- linear structure -------------------------------------------------

    def __add__(self, other):
        return self._fold(other, 1)

    def __neg__(self):
        return self.map_jets(lambda j: -j)

    def __sub__(self, other):
        return self._fold(other, -1)

    def _fold(self, other, s):
        """self + s * other, s = 1 or -1, one ``JetSum`` per shared key."""
        if not isinstance(other, WeylForm):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for key, jet in other.terms.items():
            prev = out.get(key)
            if prev is None:
                out[key] = jet if s == 1 else -jet
            else:
                acc = JetSum()
                acc.add(prev)
                acc.add(jet, s=s)
                out[key] = acc.jet()
        return WeylForm(self.geometry, out)


# -- the fiberwise product -------------------------------------------------

def weyl_mul(a, b, into=None):
    """Fiberwise product: exponential contraction against omega^{-1}.

    With ``into``, (i/hbar) a o b is added to that map instead (see
    ``_mul_contract``).  Given the same form twice (``a is b``) with every
    term of odd form degree, such as the Fedosov 1-form r, the product is
    the square: it is summed over unordered term pairs (``_mul_contract``).
    """
    return _mul_contract(a, b, None, into)


def _mul_contract(a, b, parity, into=None):
    """a o b, keeping only contraction orders of the given parity (or all).

    Each pair of terms adds the cached closed-form expansion of its fiber
    monomials (``_expansion``, built for the parity alone) times the
    product of its jets.  A pair whose expansion is one entry with a
    constant pairing adds scale * jet_a * jet_b straight into that entry's
    sum; any other finishes jet_a * jet_b once and adds it per entry,
    against the pairing or times the scale alone.  Both give the sums a
    product finished first gives, store for store.  A pair whose expansion
    is empty, or whose form indices collide, forms no product; every other
    product is added, one that truncates to zero included, so that it
    caps its key's validity.
    With parity 1 the result is doubled, which turns it into the graded
    commutator: the antisymmetry of omega^{-1} flips each contraction's
    sign on reversal, so the even orders cancel in [a, b] and the odd
    orders appear twice.

    The square a o a of a form whose terms all have odd form degree takes
    the same route over the unordered pairs s < t: a_s o a_s = 0, since
    dx^beta wedge dx^beta = 0, and a_s o a_t + a_t o a_s = [a_s, a_t].
    It is exact, and each pair's even orders, which cancel in the sum,
    are never formed.

    Given ``into``, a ``{key: JetSum}`` map, the terms of (i/hbar) times
    the product are added to it and the map is returned; the hbar^0
    layer, whose ordered pairs cancel only in the finished sums, is
    checked when the map becomes a form (``WeylForm.from_sums``).
    """
    a._check(b)
    geom = a.geometry
    square = (parity is None and a is b
              and all(len(beta) % 2 for _, _, beta in a.terms))
    if square:
        parity = 1
    # the parity doubling rides on the scalar of every emitted term, and
    # so does the i of (i/hbar)
    emit = 1 if parity is None else 2
    if into is None:
        out, lower, emit = defaultdict(JetSum), 0, CRat(emit)
    else:
        out, lower, emit = into, 1, CRat(0, emit)
    b_terms = list(b.terms.items())
    for i, ((ka, alpha_a, beta_a), jet_a) in enumerate(a.terms.items()):
        for (kb, alpha_b, beta_b), jet_b in (b_terms[i + 1:] if square
                                             else b_terms):
            w = _wedge(beta_a, beta_b)
            if w is None:
                continue
            expansion = _expansion(geom, alpha_a, alpha_b, parity)
            if not expansion:
                continue
            sign, beta = w
            s = emit if sign == 1 else -emit
            if len(expansion) == 1 and expansion[0][2] is None:
                m, alpha, _, scale = expansion[0]
                out[ka + kb + m - lower, alpha, beta].add(
                    jet_a, jet_b, scale * s)
                continue
            base = jet_a * jet_b
            # one add per contraction term, so that a term cancelling
            # another, or truncating to zero, still lowers the key's
            # validity as its own
            for m, alpha, pairing, scale in expansion:
                out[ka + kb + m - lower, alpha, beta].add(
                    base, pairing, scale * s)
    if into is not None:
        return out
    return WeylForm.from_sums(geom, out)


def _expansion(geom, alpha_a, alpha_b, parity=None):
    """The terms of y^alpha_a o y^alpha_b, cached per geometry and parity.

    Entries are (m, alpha, pairing, scale) for each pair gamma <= alpha_a,
    delta <= alpha_b with |gamma| = |delta| = m and P(gamma, delta) != 0:
    the term  scale * pairing * hbar^m * y^alpha, with a constant P folded
    into the CRat ``scale`` and the pairing None (``_pairing``), and a
    jet P kept as the pairing.  Each gamma is paired only with the delta
    its ``_partners`` reach, in their sorted order; every other delta has
    P = 0.  Both tables, ``sub_degrees(alpha_a)`` and the partners, are
    cached per geometry.  With ``parity`` 0 or 1 only the
    orders m of that parity are built, in the order the full list has
    them; a commutator or a square asks for the odd ones and never builds
    an even entry.
    """
    key = ("expansion", alpha_a, alpha_b, parity)
    cached = geom._cache.get(key)
    if cached is not None:
        return cached
    subs_a = geom._cache.get(("sub_degrees", alpha_a))
    if subs_a is None:
        subs_a = geom._cache["sub_degrees", alpha_a] = sub_degrees(alpha_a)
    # few distinct scalars recur across entries: keep one object per value
    scales = geom._cache.setdefault("scales", {})
    out = []
    for m in range(parity or 0, min(len(subs_a), sum(alpha_b) + 1),
                   1 if parity is None else 2):
        power = HALF_I ** m
        for gamma, binom_a in subs_a[m]:
            for delta in _partners(geom, gamma):
                # C(alpha_b, delta) is 0 unless delta <= alpha_b
                binom_b = prod(map(comb, alpha_b, delta))
                if not binom_b:
                    continue
                scalar, pairing = _pairing(geom, gamma, delta)
                if not scalar:
                    continue
                scale = power * (binom_a * binom_b) * scalar
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


def _partners(geom, gamma):
    """The sorted delta that a complete pairing through the nonzero
    entries of omega^{-1} can reach from gamma, cached per geometry.

    Built by ``_pairing``'s recursion: the partners of gamma are those of
    gamma - e_i, with i its first generator, each raised at every j with
    omega^{ij} nonzero.  P(gamma, delta) = 0 for every other delta.
    """
    key = ("partners", gamma)
    cached = geom._cache.get(key)
    if cached is not None:
        return cached
    if not any(gamma):
        out = [gamma]
    else:
        i = next(k for k, e in enumerate(gamma) if e)
        rest = list(gamma)
        rest[i] -= 1
        reach = set()
        for delta in _partners(geom, tuple(rest)):
            for j, om in enumerate(geom.omega_inv[i]):
                if not om.is_zero():
                    reach.add(delta[:j] + (delta[j] + 1,) + delta[j + 1:])
        out = sorted(reach)
    geom._cache[key] = out
    return out


def _pairing(geom, alpha_a, alpha_b):
    """P(alpha_a, alpha_b), the complete pairings through omega, as
    (scalar, jet), cached per geometry.

    P is the sum over bijections pi of prod omega^{i, pi(i)}, built by the
    recursion P(alpha_a, alpha_b) = sum_j (alpha_b)_j omega^{ij}
    P(alpha_a - e_i, alpha_b - e_j), with i the first generator of alpha_a.
    A constant P, zero included, is (its value, None); any other P is
    (1, P).  Every contraction coefficient of the fiberwise product comes
    from here.
    """
    key = ("pairing", alpha_a, alpha_b)
    cached = geom._cache.get(key)
    if cached is not None:
        return cached
    if not any(alpha_a):
        out = ONE, None
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
            scalar, jet = _pairing(geom, ra, tuple(rb))
            if scalar:
                acc.add(om, jet, scalar * e)
        jet = acc.jet()
        out = (jet.constant_term, None) if jet.is_constant() else (ONE, jet)
    geom._cache[key] = out
    return out


def symbol_mul(a, b, max_hbar):
    """The y-free, form-free part of a o b through hbar^max_hbar, as a map
    hbar power -> jet.

    Only complete contractions (gamma = alpha_a, delta = alpha_b, where
    both binomial factors are 1) survive in the symbol, so this skips
    every other term of the full product.  Each pairing is read from
    ``_pairing``.  A term pair with a constant pairing adds its jets'
    product times that constant; one with a jet pairing adds its jets'
    product against the pairing, the three-factor add of
    ``_mul_contract``.  Only a pair with a zero pairing is left out; every
    formed product caps its sum's validity, one that truncates to zero
    included.  Every hbar power a pair reached is returned, a sum that
    cancelled or truncated to zero as a zero jet at its own validity.
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
            scalar, pairing = _pairing(geom, alpha_a, alpha_b)
            if not scalar:
                continue
            if pairing is None:
                out[k].add(jet_a, jet_b, scale * scalar)
            else:
                out[k].add(jet_a * jet_b, pairing, scale)
    return {k: acc.jet() for k, acc in out.items()}


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
            ins = _wedge((i,), beta)
            if ins is None:
                continue
            sign, beta2 = ins
            alpha2 = list(alpha)
            alpha2[i] -= 1
            out[k, tuple(alpha2), beta2].add(jet, s=e * sign)
    return WeylForm.from_sums(a.geometry, out)


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
    signs = (1, -1)
    for (k, alpha, beta), jet in a.terms.items():
        if not beta:
            continue
        if normalized:
            lp = sum(alpha) + len(beta)
            signs = (CRat.from_ints(1, 0, lp), CRat.from_ints(-1, 0, lp))
        for pos, i in enumerate(beta):
            alpha2 = list(alpha)
            alpha2[i] += 1
            out[k, tuple(alpha2), beta[:pos] + beta[pos + 1:]].add(
                jet, s=signs[pos % 2])
    return WeylForm.from_sums(a.geometry, out)


def scalar_part(a):
    """The y-free, form-free component (an hbar series of jets)."""
    dim = a.geometry.dim
    zero_alpha = (0,) * dim
    return WeylForm(a.geometry,
                    {key: jet for key, jet in a.terms.items()
                     if key[1] == zero_alpha and key[2] == ()})


def pi_weight(a, doubled_degree):
    """Project onto doubled grading weight 2k + |alpha|."""
    return WeylForm(a.geometry,
                    {key: jet for key, jet in a.terms.items()
                     if 2 * key[0] + sum(key[1]) == doubled_degree})
