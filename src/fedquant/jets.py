"""Truncated multivariate Taylor expansions with exact coefficients.

A :class:`Jet` stands in for a smooth function near the base point of a
coordinate chart.  Coefficients are complex rationals; ``valid_order`` tracks
how many orders of the expansion are trustworthy, and every operation reports
the correct (usually minimal) validity of its result.  Differentiation costs
one order; nothing here ever rounds.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .rational import CRat, ONE, ZERO, rational_sqrt


class JetError(ValueError):
    pass


class ChartMismatch(JetError):
    pass


class OrderExhausted(JetError):
    pass


class DomainError(JetError):
    pass


@dataclass(frozen=True)
class Chart:
    """An ordered tuple of coordinate names with base-point values.

    ``conj`` optionally pairs variables for formal complex conjugation
    (z^a <-> zbar^a); it must be an involutive permutation of indices whose
    base values are conjugate to each other.
    """

    names: tuple
    base: tuple
    conj: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "base", tuple(map(CRat, self.base)))
        if len(self.names) != len(self.base):
            raise JetError("chart names and base point differ in length")
        if self.conj is not None:
            c = tuple(self.conj)
            if sorted(c) != list(range(len(self.names))):
                raise JetError("conjugation pairing is not a permutation")
            for i, j in enumerate(c):
                if c[j] != i:
                    raise JetError("conjugation pairing is not an involution")
                if self.base[j] != self.base[i].conjugate():
                    raise JetError("base point incompatible with conjugation")
            object.__setattr__(self, "conj", c)

    @property
    def dim(self):
        return len(self.names)

    def index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise JetError(f"unknown chart variable {name!r}") from None


# the width of one field of a packed monomial key; max_order stays below
# 2**_KEY_BITS, so no field of a key or of a sum of keys carries
_KEY_BITS = 16
_KEY_MASK = (1 << _KEY_BITS) - 1


def pack_key(alpha):
    """The int key of the multi-index ``alpha``: |alpha| in the top field
    and alpha_i in field dim-1-i, so keys add as multi-indices do and
    integer order is (degree, alpha) order."""
    key = sum(alpha)
    for e in alpha:
        key = key << _KEY_BITS | e
    return key


def unpack_key(key, dim):
    """The multi-index of an int key on a chart of dimension ``dim``."""
    return tuple(key >> _KEY_BITS * i & _KEY_MASK
                 for i in range(dim - 1, -1, -1))


def _check_index(alpha, dim):
    if len(alpha) != dim:
        raise JetError("multi-index length does not match chart")
    if any(e < 0 for e in alpha):
        raise JetError(f"multi-index {tuple(alpha)} has a negative entry")


class Jet:
    """Truncated Taylor expansion about a chart's base point.

    The coefficients are stored once, as Gaussian-integer numerators over
    one positive denominator ``den``: ``terms`` is a tuple of
    ``(degree, key, re, im)`` sorted by key, each standing for
    (re + im*i)/den times the monomial alpha whose packed int key
    (``pack_key``) is ``key``.  A key holds |alpha| in its top field and
    alpha_i in field dim-1-i, 16 bits each, so the key of a product
    monomial is the sum of the keys and key order is (degree, alpha)
    order; ``max_order`` must stay below 2**16 so that no field carries.
    The store is canonical (no zero entry, no degree beyond
    ``valid_order``, and no factor common to den and all numerators), so
    equal jets have equal stores.  ``coeffs`` is a read-only
    ``{alpha: CRat}`` view of it.
    """

    __slots__ = ("chart", "max_order", "valid_order", "den", "terms",
                 "_imag")

    def __init__(self, chart, max_order, valid_order, coeffs):
        """``coeffs`` maps multi-indices to values ``CRat()`` takes;
        zeros and terms of degree beyond ``valid_order`` are dropped."""
        if not 0 <= valid_order <= max_order:
            raise JetError(f"need 0 <= valid_order <= max_order, "
                           f"got {valid_order}, {max_order}")
        clean = []
        den = 1
        dim = chart.dim
        for alpha, c in coeffs.items():
            _check_index(alpha, dim)
            d = sum(alpha)
            if d > valid_order:
                continue
            c = CRat(c)
            if c:
                clean.append((d, pack_key(alpha), c))
                den = lcm(den, c.den)
        # each value is in lowest terms, so the lcm of their denominators
        # is already coprime to the numerators jointly
        terms = sorted((d, key, c.re_num * (den // c.den),
                        c.im_num * (den // c.den)) for d, key, c in clean)
        self._init(chart, max_order, valid_order, den, tuple(terms))

    def _init(self, chart, max_order, valid_order, den, terms):
        if max_order >= 1 << _KEY_BITS:
            raise JetError(f"max_order {max_order} is not below "
                           f"2**{_KEY_BITS}, the packed key bound")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "max_order", max_order)
        object.__setattr__(self, "valid_order", valid_order)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_imag", None)

    @classmethod
    def _make(cls, chart, max_order, valid_order, den, terms):
        """Internal fast path: ``den`` and the tuple ``terms`` must already
        be a canonical store."""
        self = object.__new__(cls)
        self._init(chart, max_order, valid_order, den, terms)
        return self

    @classmethod
    def from_terms(cls, chart, max_order, valid_order, den, terms):
        """The jet of sorted, nonzero ``(degree, key, re, im)`` terms of
        degree <= valid_order over ``den``; a factor common to den and all
        numerators is divided out."""
        g = gcd(den, *[t[2] for t in terms], *[t[3] for t in terms])
        if g != 1:
            den //= g
            terms = [(d, a, re // g, im // g) for d, a, re, im in terms]
        return cls._make(chart, max_order, valid_order, den, tuple(terms))

    def __setattr__(self, name, value):
        raise AttributeError("Jet is immutable")

    @property
    def coeffs(self):
        """``{alpha: CRat}``, built from the store on each access."""
        den, dim = self.den, self.chart.dim
        return {unpack_key(key, dim): CRat.from_ints(re, im, den)
                for _, key, re, im in self.terms}

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, chart, order):
        return cls._make(chart, order, order, 1, ())

    @classmethod
    def constant(cls, chart, value, order):
        c = CRat(value)
        terms = ((0, 0, c.re_num, c.im_num),) if c else ()
        return cls._make(chart, order, order, c.den, terms)

    @classmethod
    def variable(cls, chart, var, order):
        """The coordinate function itself: base value plus first-order term."""
        i = chart.index(var) if isinstance(var, str) else var
        z = (0,) * chart.dim
        e = tuple(1 if k == i else 0 for k in range(chart.dim))
        return cls(chart, order, order, {z: chart.base[i], e: ONE})

    # -- bookkeeping ------------------------------------------------------

    def _check_chart(self, other):
        if self.chart != other.chart:
            raise ChartMismatch("jets live on different charts")

    def truncate(self, order):
        """Restrict validity (and stored terms) to the given order."""
        if order >= self.valid_order:
            return self
        if order < 0:
            raise JetError(f"cannot truncate to order {order}")
        kept = self.terms[:bisect_left(self.terms, (order + 1,))]
        return Jet.from_terms(self.chart, self.max_order, order, self.den,
                              kept)

    def is_zero(self):
        return not self.terms

    def has_imag(self):
        """Whether some coefficient has a nonzero imaginary part; the store
        is scanned on the first call only."""
        imag = self._imag
        if imag is None:
            imag = any(t[3] for t in self.terms)
            object.__setattr__(self, "_imag", imag)
        return imag

    def is_constant(self):
        """Whether no stored term has positive degree."""
        return not self.terms or self.terms[-1][0] == 0

    def coefficient(self, alpha):
        """The coefficient of the monomial ``alpha`` as a CRat."""
        _check_index(alpha, self.chart.dim)
        d = sum(alpha)
        if d > self.valid_order:
            return ZERO
        terms = self.terms
        key = pack_key(alpha)
        i = bisect_left(terms, (d, key))
        if i == len(terms) or terms[i][1] != key:
            return ZERO
        _, _, re, im = terms[i]
        return CRat.from_ints(re, im, self.den)

    @property
    def constant_term(self):
        terms = self.terms
        if terms and not terms[0][1]:  # key 0 is the empty monomial's
            return CRat.from_ints(terms[0][2], terms[0][3], self.den)
        return ZERO

    def agrees_with(self, other):
        """Exact coefficient equality up to the shared order."""
        self._check_chart(other)
        v = min(self.valid_order, other.valid_order)
        # cross-multiplied, so the two stores need not share a denominator
        da, db = self.den, other.den
        return ({k: (re * db, im * db) for d, k, re, im in self.terms
                 if d <= v}
                == {k: (re * da, im * da) for d, k, re, im in other.terms
                    if d <= v})

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return (self.valid_order == other.valid_order
                and self.den == other.den and self.terms == other.terms
                and self.chart == other.chart)

    def __hash__(self):
        return hash((self.valid_order, self.den, self.terms))

    def __repr__(self):
        terms = ", ".join(f"{a}: {c}" for a, c in sorted(self.coeffs.items()))
        return f"Jet(v={self.valid_order}, {{{terms}}})"

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CRat)):
            other = Jet.constant(self.chart, other, self.max_order)
        if not isinstance(other, Jet):
            return NotImplemented
        acc = JetSum()
        acc.add(self)
        acc.add(other)
        return acc.jet()

    __radd__ = __add__

    def __neg__(self):
        return Jet._make(self.chart, self.max_order, self.valid_order,
                         self.den, tuple((d, k, -re, -im)
                                         for d, k, re, im in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            acc = JetSum()
            acc.add(self, other)
            return acc.jet()
        if isinstance(other, (int, Fraction, CRat)):
            acc = JetSum()
            acc.add(self, s=other)
            return acc.jet()
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.invert() ** (-k)
        out = Jet.constant(self.chart, 1, self.max_order).truncate(self.valid_order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, CRat)):
            return self * (ONE / CRat(other))
        if not isinstance(other, Jet):
            return NotImplemented
        return self * other.invert()

    def partial(self, var):
        """Formal partial derivative; costs one order of validity."""
        if self.valid_order == 0:
            if self.is_zero():
                # a stored zero jet stands for an exact zero, matching the
                # convention that absent terms are exact zeros
                return self
            raise OrderExhausted("cannot differentiate a jet of valid_order 0")
        shift, step = self._field(var)
        # lowering one exponent subtracts one constant, which keeps the
        # key order
        out = []
        for d, key, re, im in self.terms:
            e = key >> shift & _KEY_MASK
            if e:
                out.append((d - 1, key - step, re * e, im * e))
        return Jet.from_terms(self.chart, self.max_order, self.valid_order - 1,
                              self.den, out)

    def mul_variable(self, var):
        """Multiply by a displacement variable; gains one order of validity.

        The variable is exact and of degree one, so each certified
        coefficient just moves up one degree: unlike a generic product,
        nothing is truncated away and the certified order rises.
        """
        _, step = self._field(var)
        out = tuple((d + 1, key + step, re, im)
                    for d, key, re, im in self.terms)
        return Jet._make(self.chart, self.max_order + 1, self.valid_order + 1,
                         self.den, out)

    def _field(self, var):
        """The shift of ``var``'s key field, and the key step that raises
        its exponent (and so the degree) by one."""
        dim = self.chart.dim
        i = self.chart.index(var) if isinstance(var, str) else var
        if not 0 <= i < dim:
            raise JetError(f"variable index {i} is outside the chart")
        shift = _KEY_BITS * (dim - 1 - i)
        return shift, (1 << _KEY_BITS * dim) + (1 << shift)

    def invert(self):
        """Multiplicative inverse as a truncated power series."""
        c0 = self.constant_term
        if not c0:
            raise DomainError("cannot invert a jet with zero constant term")
        v = self.valid_order
        inv = ONE / c0
        u = (self - c0) * inv      # u has no constant term
        t = Jet.constant(self.chart, 1, self.max_order).truncate(v)
        acc = JetSum()
        acc.add(t, s=inv)
        for _ in range(v):
            t = -(t * u)
            if t.is_zero():
                break
            acc.add(t, s=inv)
        return acc.jet()

    def conjugate(self):
        """Formal conjugation: swap paired variables, conjugate coefficients."""
        c = self.chart.conj
        if c is None:
            raise DomainError("chart has no conjugation pairing")
        swapped = self._rekeyed(self.chart, c)
        return Jet._make(self.chart, self.max_order, self.valid_order,
                         self.den, tuple((d, key, re, -im)
                                         for d, key, re, im in swapped.terms))

    def _rekeyed(self, chart, sources):
        """The same coefficients on ``chart``, whose variable j is this
        jet's variable ``sources[j]``, or one it does not depend on where
        that is None; every variable it depends on must have one place."""
        dim = self.chart.dim
        shifts = [None if i is None else _KEY_BITS * (dim - 1 - i)
                  for i in sources]
        out = []
        for d, key, re, im in self.terms:
            # the degree stays; each exponent field moves to its new place
            new = d
            for shift in shifts:
                new <<= _KEY_BITS
                if shift is not None:
                    new |= key >> shift & _KEY_MASK
            out.append((d, new, re, im))
        out.sort()
        return Jet._make(chart, self.max_order, self.valid_order, self.den,
                         tuple(out))

    # -- chart surgery ----------------------------------------------------

    def restrict(self, indices):
        """Project onto a sub-chart; fails if the jet depends on dropped vars."""
        indices = tuple(indices)
        sub = Chart(tuple(self.chart.names[i] for i in indices),
                    tuple(self.chart.base[i] for i in indices))
        keep = set(indices)
        dim = self.chart.dim
        dropped = sum(_KEY_MASK << _KEY_BITS * (dim - 1 - i)
                      for i in range(dim) if i not in keep)
        if any(key & dropped for _, key, _, _ in self.terms):
            raise DomainError("jet depends on a variable outside the sub-chart")
        return self._rekeyed(sub, indices)

    def embed(self, chart, index_map):
        """View this jet on a larger chart; index_map sends old to new indices."""
        sources = [None] * chart.dim
        for old, new in enumerate(index_map):
            if chart.base[new] != self.chart.base[old]:
                raise ChartMismatch("base point differs under embedding")
            sources[new] = old
        return self._rekeyed(chart, sources)


# -- exact accumulation ----------------------------------------------------

class JetSum:
    """Exact sum of terms s*a*b (or s*a) of jets on one chart.

    Each product is convolved in Python ints from the operands' stores and
    added into one map from packed key to [re, im] numerators over a
    common denominator; a product monomial's key is the sum of its
    factors' keys, so each coefficient pair costs one int addition (no
    field carries: degrees stay within validity, below 2**16).  The
    denominator is raised to an lcm only when a term's own does not
    divide it.  ``jet()`` sorts and reduces the map once.  ``valid_order``
    and ``max_order`` are the minimum over all terms, exactly as a left
    fold of ``*`` and ``+`` gives them, and a term is convolved only up to
    the running minimum.
    """

    __slots__ = ("chart", "max_order", "valid_order", "den", "acc")

    def __init__(self):
        self.chart = None
        self.max_order = self.valid_order = None
        self.den = 1
        self.acc = {}

    def add(self, a, b=None, s=1):
        """Add s*a*b, or s*a when ``b`` is None; s is an int or anything
        ``CRat()`` takes."""
        v, m = a.valid_order, a.max_order
        if b is not None:
            if a.chart is not b.chart and a.chart != b.chart:
                raise ChartMismatch("jets live on different charts")
            v, m = min(v, b.valid_order), min(m, b.max_order)
        acc = self.acc
        if self.chart is None:
            self.chart, self.max_order, self.valid_order = a.chart, m, v
        else:
            if a.chart is not self.chart and a.chart != self.chart:
                raise ChartMismatch("jets live on different charts")
            if m < self.max_order:
                self.max_order = m
            if v < self.valid_order:
                self.valid_order = v
                # the keys of degree above v are those from this one up
                limit = (v + 1) << _KEY_BITS * self.chart.dim
                for key in [k for k in acc if k >= limit]:
                    del acc[key]
            else:
                v = self.valid_order
        if type(s) is int:
            sr, si, sd = s, 0, 1
        else:
            s = CRat(s)
            sr, si, sd = s.re_num, s.im_num, s.den
        if not (sr or si):
            return
        left = a.terms
        if b is None:
            right, tden = None, a.den * sd
        else:
            right, tden = b.terms, a.den * b.den * sd
        # bring the term and the sum to one denominator, folding the
        # rescaling into the scalar so each pair costs integer products only
        den = self.den
        if den % tden:
            new = lcm(den, tden)
            up = new // den
            for num in acc.values():
                num[0] *= up
                num[1] *= up
            self.den = den = new
        f = den // tden
        sr *= f
        si *= f
        if right is None:
            for da, ka, ar, ai in left:
                if da > v:
                    break
                re, im = ar * sr - ai * si, ar * si + ai * sr
                prev = acc.get(ka)
                if prev is None:
                    acc[ka] = [re, im]
                else:
                    prev[0] += re
                    prev[1] += im
        elif si or a.has_imag() or b.has_imag():
            for da, ka, ar, ai in left:
                if da > v:
                    break
                rem = v - da
                ar, ai = ar * sr - ai * si, ar * si + ai * sr
                for db, kb, br, bi in right:
                    if db > rem:
                        break
                    key = ka + kb
                    prev = acc.get(key)
                    if prev is None:
                        acc[key] = [ar * br - ai * bi, ar * bi + ai * br]
                    else:
                        prev[0] += ar * br - ai * bi
                        prev[1] += ar * bi + ai * br
        else:
            for da, ka, ar, _ in left:
                if da > v:
                    break
                rem = v - da
                ar *= sr
                for db, kb, br, _ in right:
                    if db > rem:
                        break
                    key = ka + kb
                    prev = acc.get(key)
                    if prev is None:
                        acc[key] = [ar * br, 0]
                    else:
                        prev[0] += ar * br

    def jet(self, empty=None):
        """The normalized sum; ``empty`` when no term was added."""
        if self.chart is None:
            return empty
        shift = _KEY_BITS * self.chart.dim
        terms = [(key >> shift, key, re, im)
                 for key, (re, im) in sorted(self.acc.items()) if re or im]
        return Jet.from_terms(self.chart, self.max_order, self.valid_order,
                              self.den, terms)


def product_vanishes(a, b):
    """Whether the truncated product a*b is exactly zero, without forming it.

    Jets are polynomials over a field, so the lowest homogeneous part of a
    product is the product of the lowest parts: a*b vanishes exactly when
    a factor does or their lowest degrees add up past the shared validity.
    """
    if not a.terms or not b.terms:
        return True
    return a.terms[0][0] + b.terms[0][0] > min(a.valid_order, b.valid_order)


def jet_maps_agree(a, b):
    """Whether two ``{key: Jet}`` maps agree key by key, each pair to its
    shared order; a missing key stands for an exact zero, so the jet on the
    other side must have no term."""
    for key in a.keys() | b.keys():
        x, y = a.get(key), b.get(key)
        if x is None or y is None:
            if not (y if x is None else x).is_zero():
                return False
        elif not x.agrees_with(y):
            return False
    return True


# -- elementary functions --------------------------------------------------

def _compose_series(a, series_coeffs):
    """sum_k c_k * a^k truncated; a must have zero constant term."""
    v = a.valid_order
    acc = JetSum()
    acc.add(Jet.constant(a.chart, series_coeffs[0], a.max_order).truncate(v))
    p = Jet.constant(a.chart, 1, a.max_order).truncate(v)
    for k in range(1, min(v, len(series_coeffs) - 1) + 1):
        p = p * a
        if p.is_zero():
            break
        ck = series_coeffs[k]
        if ck:
            acc.add(p, s=ck)
    return acc.jet()


def jet_exp(a):
    if a.constant_term:
        raise DomainError("exp needs a zero constant term to stay rational")
    fact = [Fraction(1)]
    for k in range(1, a.valid_order + 1):
        fact.append(fact[-1] / k)
    return _compose_series(a, fact)


def jet_log(a):
    if a.constant_term != ONE:
        raise DomainError("log needs constant term 1 to stay rational")
    u = a - ONE
    coeffs = [Fraction(0)]
    for k in range(1, a.valid_order + 1):
        coeffs.append(Fraction((-1) ** (k + 1), k))
    return _compose_series(u, coeffs)


def jet_sqrt(a):
    c0 = a.constant_term
    if not c0.is_real or c0.re <= 0:
        raise DomainError("sqrt needs a positive real rational constant term")
    root = rational_sqrt(c0.re)
    if root is None:
        raise DomainError(f"constant term {c0.re} is not a rational square; "
                          "rescale coordinates to avoid irrational constants")
    u = (a - c0) / c0
    coeffs = [Fraction(1)]
    for k in range(1, a.valid_order + 1):
        # binomial(1/2, k) by the recurrence c_k = c_{k-1} * (3/2 - k) / k
        coeffs.append(coeffs[-1] * (Fraction(3, 2) - k) / k)
    return _compose_series(u, coeffs) * CRat(root)


def jet_sin(a):
    if a.constant_term:
        raise DomainError("sin needs a zero constant term to stay rational")
    coeffs = []
    f = Fraction(1)
    for k in range(a.valid_order + 1):
        if k:
            f /= k
        coeffs.append(f * (-1) ** (k // 2) if k % 2 else Fraction(0))
    return _compose_series(a, coeffs)


def jet_cos(a):
    if a.constant_term:
        raise DomainError("cos needs a zero constant term to stay rational")
    coeffs = []
    f = Fraction(1)
    for k in range(a.valid_order + 1):
        if k:
            f /= k
        coeffs.append(f * (-1) ** (k // 2) if k % 2 == 0 else Fraction(0))
    return _compose_series(a, coeffs)


_ELEM = {"exp": jet_exp, "log": jet_log, "sqrt": jet_sqrt,
         "sin": jet_sin, "cos": jet_cos}


def jet_elem(name, a):
    try:
        fn = _ELEM[name]
    except KeyError:
        raise DomainError(f"unknown elementary function {name!r}") from None
    return fn(a)
