"""Truncated multivariate Taylor expansions with exact coefficients.

A :class:`Jet` stands in for a smooth function near the base point of a
coordinate chart.  Coefficients are complex rationals; ``valid_order`` tracks
how many orders of the expansion are trustworthy, and every operation reports
the correct (usually minimal) validity of its result.  It is the one order a
jet carries, and it bounds every stored degree.  Differentiation costs one
order; nothing here ever rounds.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
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
    # index tuple -> sub-chart, so that each sub-chart is one object and
    # jets on it pass the ``is`` test of every chart check
    _subs: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

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

    def index(self, var):
        """The position of ``var``, a variable name or an index; anything
        off the chart is a ``JetError``."""
        i = var
        if isinstance(var, str):
            i = self.names.index(var) if var in self.names else -1
        if not 0 <= i < len(self.names):
            raise JetError(f"{var!r} is not a variable of the chart")
        return i

    def sub(self, indices):
        """The chart of the variables at ``indices`` (``index`` takes
        each), in that order, with no conjugation pairing; a variable
        given twice is a ``JetError``.  The same indices give the same
        object."""
        indices = tuple(self.index(i) for i in indices)
        sub = self._subs.get(indices)
        if sub is None:
            if len(set(indices)) != len(indices):
                raise JetError(f"sub-chart repeats a variable: "
                               f"{list(indices)}")
            sub = self._subs[indices] = Chart(
                tuple(self.names[i] for i in indices),
                tuple(self.base[i] for i in indices))
        return sub


# the width of one field of a packed monomial key.  A key has dim + 1
# fields, so on a chart of dimension <= 4 it is below 2**30: one CPython
# digit in every convolution pair and dict probe.  valid_order stays below
# 2**_KEY_BITS = 64 and bounds every stored degree, so no field of a key
# or of a sum of keys carries.
_KEY_BITS = 6
_KEY_MASK = (1 << _KEY_BITS) - 1
# the highest valid_order a jet can carry: a polynomial known exactly,
# such as a unit seed, is carried at it
EXACT_ORDER = _KEY_MASK


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
    alpha_i in field dim-1-i, 6 bits each, so the key of a product
    monomial is the sum of the keys and key order is (degree, alpha)
    order; up to dimension 4 a key is one CPython digit.  ``valid_order``
    is the one order a jet carries and bounds every stored degree, so it
    must stay below 2**6 = 64 for no field to carry.
    The store is canonical (no zero entry, no degree beyond
    ``valid_order``, and no factor common to den and all numerators), so
    equal jets have equal stores.  ``coeffs`` is a read-only
    ``{alpha: CRat}`` view of it.
    """

    __slots__ = ("chart", "valid_order", "den", "terms", "_imag")

    def __init__(self, chart, max_order, valid_order, coeffs):
        """``coeffs`` maps multi-indices to values ``CRat()`` takes;
        zeros and terms of degree beyond ``valid_order`` are dropped.
        ``max_order`` is only checked: 0 <= valid_order <= max_order <
        2**6 = 64, the packed key bound; the jet keeps ``valid_order``
        alone."""
        if not 0 <= valid_order <= max_order < 1 << _KEY_BITS:
            raise JetError(f"need 0 <= valid_order <= max_order < "
                           f"2**{_KEY_BITS}, the packed key bound, "
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
        self._init(chart, valid_order, den, tuple(terms))

    def _init(self, chart, valid_order, den, terms):
        # every jet passes here: an order of 2**_KEY_BITS = 64 or more
        # would let the degree field of a key carry
        if valid_order >= 1 << _KEY_BITS:
            raise JetError(f"valid_order {valid_order} is not below "
                           f"2**{_KEY_BITS}, the packed key bound")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "valid_order", valid_order)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_imag", None)

    @classmethod
    def _make(cls, chart, valid_order, den, terms):
        """Internal fast path: ``den`` and the tuple ``terms`` must already
        be a canonical store."""
        self = object.__new__(cls)
        self._init(chart, valid_order, den, terms)
        return self

    @classmethod
    def from_terms(cls, chart, valid_order, den, terms):
        """The jet of sorted, nonzero ``(degree, key, re, im)`` terms of
        degree <= valid_order over ``den``; a factor common to den and all
        numerators is divided out."""
        g = gcd(den, *[t[2] for t in terms], *[t[3] for t in terms])
        if g != 1:
            den //= g
            terms = [(d, a, re // g, im // g) for d, a, re, im in terms]
        return cls._make(chart, valid_order, den, tuple(terms))

    def __setattr__(self, name, value):
        raise AttributeError("Jet is immutable")

    def __reduce__(self):
        # rebuilt from the canonical store, past the guard above
        return Jet._make, (self.chart, self.valid_order, self.den,
                           self.terms)

    @property
    def max_order(self):
        """``valid_order``: a jet carries one order.  Read by callers that
        rebuild a jet through the public constructor, which still takes
        ``max_order`` as a checked argument."""
        return self.valid_order

    @property
    def coeffs(self):
        """``{alpha: CRat}``, built from the store on each access."""
        den, dim = self.den, self.chart.dim
        return {unpack_key(key, dim): CRat.from_ints(re, im, den)
                for _, key, re, im in self.terms}

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, chart, order):
        return cls._make(chart, order, 1, ())

    @classmethod
    def constant(cls, chart, value, order):
        c = CRat(value)
        terms = ((0, 0, c.re_num, c.im_num),) if c else ()
        return cls._make(chart, order, c.den, terms)

    @classmethod
    def variable(cls, chart, var, order):
        """The coordinate function itself: base value plus first-order term."""
        i = chart.index(var)
        z = (0,) * chart.dim
        e = tuple(1 if k == i else 0 for k in range(chart.dim))
        return cls(chart, order, order, {z: chart.base[i], e: ONE})

    # -- bookkeeping ------------------------------------------------------

    def _check_chart(self, other):
        if self.chart is not other.chart and self.chart != other.chart:
            raise ChartMismatch("jets live on different charts")

    def truncate(self, order):
        """Restrict validity (and stored terms) to the given order."""
        if order >= self.valid_order:
            return self
        if order < 0:
            raise JetError(f"cannot truncate to order {order}")
        kept = self.terms[:bisect_left(self.terms, (order + 1,))]
        return Jet.from_terms(self.chart, order, self.den, kept)

    def is_zero(self):
        return not self.terms

    def term_count(self):
        """The number of stored terms."""
        return len(self.terms)

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

    def as_monomial(self):
        """``(c, unit)`` for a jet of one stored term c x^alpha, where
        ``unit`` is x^alpha with this jet's validity; None for any other
        jet, the zero jet included."""
        if len(self.terms) != 1:
            return None
        d, key, re, im = self.terms[0]
        return (CRat.from_ints(re, im, self.den),
                Jet._make(self.chart, self.valid_order, 1,
                          ((d, key, 1, 0),)))

    def leading(self):
        """``(alpha, CRat)`` of the first stored term, the lowest in
        (degree, alpha) order, or None for a zero jet."""
        if not self.terms:
            return None
        _, key, re, im = self.terms[0]
        return (unpack_key(key, self.chart.dim),
                CRat.from_ints(re, im, self.den))

    def agrees_with(self, other):
        """Exact coefficient equality up to the shared order.

        The two stores are compared term by term up to that order: as
        they stand when their denominators match, cross-multiplied when
        they do not."""
        self._check_chart(other)
        top = (min(self.valid_order, other.valid_order) + 1,)
        a = self.terms[:bisect_left(self.terms, top)]
        b = other.terms[:bisect_left(other.terms, top)]
        da, db = self.den, other.den
        if da == db:
            return a == b
        return len(a) == len(b) and all(
            ka == kb and ar * db == br * da and ai * db == bi * da
            for (_, ka, ar, ai), (_, kb, br, bi) in zip(a, b))

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
            other = Jet.constant(self.chart, other, self.valid_order)
        if not isinstance(other, Jet):
            return NotImplemented
        acc = JetSum()
        acc.add(self)
        acc.add(other)
        return acc.jet()

    __radd__ = __add__

    def __neg__(self):
        return Jet._make(self.chart, self.valid_order, self.den,
                         tuple((d, k, -re, -im)
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
        out = Jet.constant(self.chart, 1, self.valid_order)
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
        return Jet.from_terms(self.chart, self.valid_order - 1, self.den,
                              out)

    def mul_monomial(self, alpha):
        """Multiply by the monomial x^alpha; gains |alpha| orders of
        validity.

        The monomial is exact, so each certified coefficient just moves up
        |alpha| degrees, its key by ``pack_key(alpha)``: unlike a generic
        product, nothing is truncated away and the certified order rises.
        """
        _check_index(alpha, self.chart.dim)
        d, step = sum(alpha), pack_key(alpha)
        return Jet._make(self.chart, self.valid_order + d, self.den, tuple(
            (e + d, key + step, re, im) for e, key, re, im in self.terms))

    def mul_variable(self, var):
        """``mul_monomial`` by one displacement variable."""
        _, step = self._field(var)
        return self.mul_monomial(unpack_key(step, self.chart.dim))

    def _field(self, var):
        """The shift of ``var``'s key field, and the key step that raises
        its exponent (and so the degree) by one: the ``pack_key`` of its
        unit multi-index."""
        dim = self.chart.dim
        shift = _KEY_BITS * (dim - 1 - self.chart.index(var))
        return shift, (1 << _KEY_BITS * dim) + (1 << shift)

    def invert(self):
        """Multiplicative inverse as a truncated power series."""
        c0 = self.constant_term
        if not c0:
            raise DomainError("cannot invert a jet with zero constant term")
        # 1/(c0 + u) = sum_k (-1)^k u^k / c0^(k+1)
        coeffs = [ONE / c0]
        for _ in range(self.valid_order):
            coeffs.append(coeffs[-1] / -c0)
        return _compose_series(self, coeffs)

    def conjugate(self):
        """Formal conjugation: swap paired variables, conjugate coefficients."""
        c = self.chart.conj
        if c is None:
            raise DomainError("chart has no conjugation pairing")
        swapped = self._rekeyed(self.chart, c)
        return Jet._make(self.chart, self.valid_order, self.den,
                         tuple((d, key, re, -im)
                               for d, key, re, im in swapped.terms))

    def _rekeyed(self, chart, sources):
        """The same coefficients on ``chart``, whose variable j is this
        jet's variable ``sources[j]``, or one it does not depend on where
        that is None.  A source off this jet's chart or used twice is a
        ``JetError``, and a variable the jet depends on left without a
        place a ``DomainError``."""
        dim = self.chart.dim
        sources = [None if i is None else self.chart.index(i)
                   for i in sources]
        placed = [i for i in sources if i is not None]
        if len(set(placed)) < len(placed):
            raise JetError(f"a variable has two places: {sources}")
        if len(placed) < dim:
            dropped = sum(_KEY_MASK << _KEY_BITS * (dim - 1 - i)
                          for i in range(dim) if i not in placed)
            if any(key & dropped for _, key, _, _ in self.terms):
                raise DomainError("jet depends on a variable with no place")
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
        return Jet._make(chart, self.valid_order, self.den, tuple(out))

    # -- chart surgery ----------------------------------------------------

    def split(self, head):
        """``{exponents of the variables from head on: coefficient jet on
        the first head variables}``.

        A piece of tail degree d collects the total-degree k + d
        coefficients at head degree k, so its validity drops by d: the top
        head degrees of a high-tail-degree piece fall outside this jet's
        truncation.
        """
        dim = self.chart.dim
        if not 0 <= head <= dim:
            raise JetError(f"split point {head} is outside 0 ... {dim}")
        sub = self.chart.sub(range(head))
        # the low fields of a key hold the tail; the rest, shifted down, is
        # the head key with the tail degree still in its degree field
        shift = _KEY_BITS * (dim - head)
        mask = (1 << shift) - 1
        pieces = {}
        for d, key, re, im in self.terms:
            tail = key & mask
            piece = pieces.get(tail)
            if piece is None:
                alpha = unpack_key(tail, dim - head)
                piece = pieces[tail] = (alpha, sum(alpha), [])
            td = piece[1]
            piece[2].append((d - td, (key >> shift) - (td << _KEY_BITS * head),
                             re, im))
        # a fixed tail keeps the (degree, alpha) order of the terms
        return {tail: Jet.from_terms(sub, self.valid_order - td, self.den,
                                     terms)
                for tail, td, terms in pieces.values()}

    def restrict(self, indices):
        """Project onto the sub-chart ``Chart.sub(indices)``; fails if the
        jet depends on a dropped variable."""
        indices = tuple(indices)
        return self._rekeyed(self.chart.sub(indices), indices)

    def embed(self, chart, index_map):
        """View this jet on a larger chart; index_map sends each old index
        to its own new one, with the same base value."""
        if chart.sub(index_map).base != self.chart.base:
            raise ChartMismatch("index map does not fit this jet's chart")
        sources = [None] * chart.dim
        for old, new in enumerate(index_map):
            sources[chart.index(new)] = old
        return self._rekeyed(chart, sources)


# -- exact accumulation ----------------------------------------------------

class JetSum:
    """Exact sum of terms s*a*b (or s*a) of jets on one chart.

    Each product is convolved in Python ints from the operands' stores and
    added into one map from packed key to [re, im] numerators over a
    common denominator; a product monomial's key is the sum of its
    factors' keys, so each coefficient pair costs one int addition (no
    field carries: degrees stay within validity, below 2**6 = 64).  The
    denominator is raised to an lcm only when a term's own does not
    divide it.  ``jet()`` sorts and reduces the map once, and ``merge``
    adds another sum's map as it stands, for a sum whose only reader is
    this one.  ``valid_order`` is the minimum over all terms, exactly as
    a left fold of ``*`` and ``+`` gives it, and a term is convolved only
    up to the running minimum.
    """

    __slots__ = ("chart", "valid_order", "den", "acc")

    def __init__(self):
        self.chart = None
        self.valid_order = None
        self.den = 1
        self.acc = {}

    def add(self, a, b=None, s=1):
        """Add s*a*b, or s*a when ``b`` is None; s is an int or anything
        ``CRat()`` takes."""
        v = a.valid_order
        if b is None:
            tden = a.den
        else:
            if a.chart is not b.chart and a.chart != b.chart:
                raise ChartMismatch("jets live on different charts")
            if b.valid_order < v:
                v = b.valid_order
            tden = a.den * b.den
        admitted = self._admit(a.chart, v, tden, s)
        if admitted is None:
            return
        v, sr, si = admitted
        acc, left = self.acc, a.terms
        right = None if b is None else b.terms
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

    def merge(self, other, s=1):
        """Add s times the sum ``other``, which holds at least one term,
        without finishing it: the stores come out as those of
        ``add(other.jet(), s=s)``.  The running validity drops to other's
        and only other's keys within it are added; a cancelled entry adds
        zero, and ``jet()`` drops it."""
        v = other.valid_order
        admitted = self._admit(other.chart, v, other.den, s)
        if admitted is None:
            return
        v, sr, si = admitted
        items = other.acc.items()
        if v < other.valid_order:
            limit = (v + 1) << _KEY_BITS * self.chart.dim
            items = [(key, num) for key, num in items if key < limit]
        acc = self.acc
        for key, (ar, ai) in items:
            re, im = ar * sr - ai * si, ar * si + ai * sr
            prev = acc.get(key)
            if prev is None:
                acc[key] = [re, im]
            else:
                prev[0] += re
                prev[1] += im

    def _admit(self, chart, v, tden, s):
        """Admit s times a term on ``chart`` of validity ``v`` whose
        numerators are over ``tden``.

        The running validity drops to v, and the keys above it go; the
        sum's denominator is raised until s's times tden divides it.
        Returns the running validity and s's numerators with that
        rescaling folded in, so that each coefficient pair costs integer
        products only; None when s is zero, after the validity has
        dropped as for any other term.
        """
        acc = self.acc
        if self.chart is None:
            self.chart, self.valid_order = chart, v
        else:
            if chart is not self.chart and chart != self.chart:
                raise ChartMismatch("jets live on different charts")
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
            return None
        tden *= sd
        den = self.den
        if den % tden:
            new = lcm(den, tden)
            up = new // den
            for num in acc.values():
                num[0] *= up
                num[1] *= up
            self.den = den = new
        f = den // tden
        return v, sr * f, si * f

    def is_zero(self):
        """Whether every coefficient added so far cancelled, or none was
        added: ``jet()`` would have no term."""
        return not any(re or im for re, im in self.acc.values())

    def jet(self, empty=None):
        """The normalized sum; ``empty`` when no term was added."""
        if self.chart is None:
            return empty
        shift = _KEY_BITS * self.chart.dim
        terms = [(key >> shift, key, re, im)
                 for key, (re, im) in sorted(self.acc.items()) if re or im]
        return Jet.from_terms(self.chart, self.valid_order, self.den, terms)


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

def _compose_series(a, coeffs):
    """sum_k c_k (a - a_0)^k, truncated, with a_0 the constant term of a;
    ``coeffs`` holds c_0 ... c_v for v = a.valid_order.  Every power
    series of a jet is summed here."""
    c0 = a.constant_term
    u = a - c0 if c0 else a
    v = a.valid_order
    acc = JetSum()
    acc.add(Jet.constant(a.chart, coeffs[0], v))
    p = Jet.constant(a.chart, 1, v)
    for ck in coeffs[1:]:
        p = p * u
        if p.is_zero():
            break
        if ck:
            acc.add(p, s=ck)
    return acc.jet()


def _cyclic_series(name, a, derivs):
    """sum_k d_k a^k / k! for a function whose derivatives at 0 cycle
    through ``derivs``, d_k = derivs[k % len(derivs)]."""
    if a.constant_term:
        raise DomainError(f"{name} needs a zero constant term to stay "
                          "rational")
    coeffs, f = [], Fraction(1)
    for k in range(a.valid_order + 1):
        if k:
            f /= k
        coeffs.append(f * derivs[k % len(derivs)])
    return _compose_series(a, coeffs)


def jet_exp(a):
    return _cyclic_series("exp", a, (1,))


def jet_sin(a):
    return _cyclic_series("sin", a, (0, 1, 0, -1))


def jet_cos(a):
    return _cyclic_series("cos", a, (1, 0, -1, 0))


def jet_log(a):
    if a.constant_term != ONE:
        raise DomainError("log needs constant term 1 to stay rational")
    return _compose_series(a, [Fraction(0)] + [
        Fraction((-1) ** (k + 1), k) for k in range(1, a.valid_order + 1)])


def jet_sqrt(a):
    c0 = a.constant_term
    if not c0.is_real or c0.re <= 0:
        raise DomainError("sqrt needs a positive real rational constant term")
    root = rational_sqrt(c0.re)
    if root is None:
        raise DomainError(f"constant term {c0.re} is not a rational square; "
                          "rescale coordinates to avoid irrational constants")
    # sqrt(c0 + u) = sum_k binomial(1/2, k) sqrt(c0) (u / c0)^k, with
    # binomial(1/2, k) = binomial(1/2, k - 1) * (3/2 - k) / k
    coeffs = [root]
    for k in range(1, a.valid_order + 1):
        coeffs.append(coeffs[-1] * (Fraction(3, 2) - k) / (k * c0.re))
    return _compose_series(a, coeffs)


_ELEM = {"exp": jet_exp, "log": jet_log, "sqrt": jet_sqrt,
         "sin": jet_sin, "cos": jet_cos}


def jet_elem(name, a):
    try:
        fn = _ELEM[name]
    except KeyError:
        raise DomainError(f"unknown elementary function {name!r}") from None
    return fn(a)
