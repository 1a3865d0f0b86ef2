"""The truncated graded algebra of fiber-polynomial forms.

Elements are finite sums of terms

    hbar^k * c(x) * y^alpha * dx^beta,

where ``c`` is a jet, ``alpha`` a symmetric multidegree over the 2n fiber
generators and ``beta`` a strictly increasing subset of form indices.  The
grading weight of a term is k + |alpha|/2; it is stored doubled
(``2k + |alpha|``) so that half-integers stay integral.  The fiberwise
product contracts pairs of fiber generators against the inverse symplectic
form and truncates at the element's ``degree_cap`` (also doubled).
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from operator import add as _add

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
    dropped on construction.
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
            clean[(k, alpha, beta)] = jet
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "degree_cap", degree_cap)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("WeylForm is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, geometry, degree_cap):
        return cls(geometry, degree_cap, {})

    @classmethod
    def from_jet(cls, geometry, degree_cap, jet, hbar_power=0):
        dim = geometry.dim
        return cls(geometry, degree_cap,
                   {(hbar_power, (0,) * dim, ()): jet})

    @classmethod
    def from_sums(cls, geometry, degree_cap, sums):
        """The form whose terms are the finished ``{key: JetSum}`` sums."""
        return cls(geometry, degree_cap,
                   {key: acc.jet() for key, acc in sums.items()})

    @classmethod
    def fiber_generator(cls, geometry, degree_cap, i, order=None):
        """The generator y^i with unit jet coefficient."""
        dim = geometry.dim
        alpha = tuple(1 if k == i else 0 for k in range(dim))
        order = geometry.order if order is None else order
        one = Jet.constant(geometry.chart, 1, order)
        return cls(geometry, degree_cap, {(0, alpha, ()): one})

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

    def scale(self, scalar):
        return self.map_jets(lambda j: j * scalar)

    def mul_jet(self, jet):
        """Multiply every coefficient by a scalar (y-free, form-free) jet."""
        return self.map_jets(lambda j: j * jet)

    def shift_hbar(self, delta):
        """Multiply by hbar^delta (delta >= 0)."""
        out = {}
        for (k, alpha, beta), jet in self.terms.items():
            out[(k + delta, alpha, beta)] = jet
        return WeylForm(self.geometry, self.degree_cap, out)


# -- the fiberwise product -------------------------------------------------

def _const_or_none(jet):
    """The constant value of a constant jet, else None."""
    return jet.constant_term if jet.is_constant() else None


def weyl_mul(a, b):
    """Fiberwise product: exponential contraction against omega^{-1}."""
    return _mul_contract(a, b, None)


def _mul_contract(a, b, parity):
    """a o b, keeping only contraction orders of the given parity (or all).

    With parity 1 the result is doubled, which turns it into the graded
    commutator: the antisymmetry of omega^{-1} flips each contraction's
    sign on reversal, so the even orders cancel in [a, b] and the odd
    orders appear twice.
    """
    a._check(b)
    geom = a.geometry
    cap = a.degree_cap
    dim = geom.dim
    oinv = geom.omega_inv
    oinv_const = [[_const_or_none(oinv[i][j]) for j in range(dim)]
                  for i in range(dim)]
    # the parity doubling rides on the scalar of every emitted term
    emit = 1 if parity is None else 2
    out = defaultdict(JetSum)
    scales = {}     # (i, j, ra[i] * rb[j], m) -> contraction step scalar

    for (ka, alpha_a, beta_a), jet_a in a.terms.items():
        da = 2 * ka + sum(alpha_a)
        for (kb, alpha_b, beta_b), jet_b in b.terms.items():
            if da + 2 * kb + sum(alpha_b) > cap:
                continue
            w = _wedge(beta_a, beta_b)
            if w is None:
                continue
            sign, beta = w
            base = jet_a * jet_b
            if base.is_zero():
                continue
            # m-fold contractions: each step pairs one y from a with one
            # from b through omega^{ij}, picks up a factor i*hbar/2, and is
            # divided by the running m for the 1/m! in the exponential.  A
            # state's value is jet * scalar, so steps through constant
            # entries of omega^{-1} only rescale and form no new jet.
            state = {(alpha_a, alpha_b): (base, sign)}
            m = 0
            while state:
                factor_k = ka + kb + m
                if parity is None or m % 2 == parity:
                    for (ra, rb), (jet, c) in state.items():
                        out[factor_k, tuple(map(_add, ra, rb)), beta].add(
                            jet, s=c * emit)
                m += 1
                steps = defaultdict(list)
                inv_m = Fraction(1, m)
                for (ra, rb), (jet, c) in state.items():
                    if not any(ra) or not any(rb):
                        continue
                    for i in range(dim):
                        if not ra[i]:
                            continue
                        ra2 = list(ra)
                        ra2[i] -= 1
                        ra2 = tuple(ra2)
                        for j in range(dim):
                            if not rb[j]:
                                continue
                            om = oinv[i][j]
                            if om is None or om.is_zero():
                                continue
                            rb2 = list(rb)
                            rb2[j] -= 1
                            omc = oinv_const[i][j]
                            sc = scales.get((i, j, ra[i] * rb[j], m))
                            if sc is None:
                                sc = HALF_I * (ra[i] * rb[j]) * inv_m
                                if omc is not None:
                                    sc = sc * omc
                                scales[i, j, ra[i] * rb[j], m] = sc
                            steps[ra2, tuple(rb2)].append(
                                (jet, None if omc is not None else om, c * sc))
                state = {}
                for key, terms in steps.items():
                    jet = terms[0][0]
                    if all(t[0] is jet and t[1] is None for t in terms):
                        c = sum(t[2] for t in terms)
                        if c:
                            state[key] = (jet, c)
                        continue
                    acc = JetSum()
                    for t in terms:
                        acc.add(*t)
                    jet = acc.jet()
                    if not jet.is_zero():
                        state[key] = (jet, 1)
    return WeylForm.from_sums(geom, cap, out)


def _pair_contraction(geom, alpha_a, alpha_b):
    """Sum over complete pairings of the fiber multidegrees through omega.

    Returns the jet  sum over bijections pi  of  prod omega^{i, pi(i)},
    cached per geometry since it depends only on the multidegrees.
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
    geom._cache[key] = out
    return out


def symbol_mul(a, b, max_hbar=None):
    """The y-free, form-free part of a o b, as a map hbar power -> jet.

    Only complete contractions survive in the symbol, so this skips all
    intermediate contraction states of the full product.
    """
    a._check(b)
    geom = a.geometry
    out = defaultdict(JetSum)
    for (ka, alpha_a, beta_a), jet_a in a.terms.items():
        if beta_a:
            continue
        la = sum(alpha_a)
        for (kb, alpha_b, beta_b), jet_b in b.terms.items():
            if beta_b or sum(alpha_b) != la:
                continue
            k = ka + kb + la
            if max_hbar is not None and k > max_hbar:
                continue
            pairing = _pair_contraction(geom, alpha_a, alpha_b)
            if pairing.is_zero():
                continue
            scale = HALF_I ** la
            const = _const_or_none(pairing)
            if const is not None:
                if not product_vanishes(jet_a, jet_b):
                    out[k].add(jet_a, jet_b, scale * const)
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


def graded_commutator(a, b):
    """[a, b] = a o b - (-1)^{pq} b o a, summed over form bidegrees.

    Computed as twice the odd-contraction part of a single product; the
    form-degree signs cancel against the contraction signs on reversal.
    """
    return _mul_contract(a, b, 1)


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


def symbol(a):
    """Map hbar power -> jet for the y-free, form-free part of ``a``."""
    dim = a.geometry.dim
    zero_alpha = (0,) * dim
    return {k: jet for (k, alpha, beta), jet in a.terms.items()
            if alpha == zero_alpha and beta == ()}


def pi_weight(a, doubled_degree):
    """Project onto doubled grading weight 2k + |alpha|."""
    return WeylForm(a.geometry, a.degree_cap,
                    {key: jet for key, jet in a.terms.items()
                     if 2 * key[0] + sum(key[1]) == doubled_degree})


def divide_hbar(a):
    """Shift every hbar power down by one; the hbar^0 layer must vanish."""
    out = {}
    for (k, alpha, beta), jet in a.terms.items():
        if k == 0:
            raise GradingError(
                "divide_hbar: nonzero hbar^0 layer, a graded identity was "
                "violated upstream")
        out[(k - 1, alpha, beta)] = jet
    # shifting down frees one unit of doubled weight; keep the same cap
    return WeylForm(a.geometry, a.degree_cap, out)


def mul_i_divide_hbar(a):
    """(i/hbar) * a, the recurring prefactor of graded commutators."""
    return divide_hbar(a.scale(CRat(0, 1)))
