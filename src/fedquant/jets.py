"""Truncated multivariate Taylor expansions with exact coefficients.

A :class:`Jet` stands in for a smooth function near the base point of a
coordinate chart.  Coefficients are complex rationals; ``valid_order`` tracks
how many orders of the expansion are trustworthy, and every operation reports
the correct (usually minimal) validity of its result.  Differentiation costs
one order; nothing here ever rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add as _add

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
        object.__setattr__(self, "base", tuple(self.base))
        if len(self.names) != len(self.base):
            raise JetError("chart names and base point differ in length")
        object.__setattr__(self, "base", tuple(
            v if isinstance(v, CRat) else CRat(v) for v in self.base))
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


def _int_scaled(coeffs):
    """(den, sorted [(degree, key, re_int, im_int)], has_imaginary)."""
    den = 1
    for c in coeffs.values():
        den = lcm(den, c.re.denominator, c.im.denominator)
    cplx = False
    terms = []
    for a, c in coeffs.items():
        im = c.im.numerator * (den // c.im.denominator)
        if im:
            cplx = True
        terms.append((sum(a), a,
                      c.re.numerator * (den // c.re.denominator), im))
    terms.sort()
    return den, terms, cplx


def _as_crat(value):
    return value if isinstance(value, CRat) else CRat(value)


class Jet:
    """Truncated Taylor expansion about a chart's base point.

    ``coeffs`` maps dense exponent tuples to nonzero CRat values; multi-indices
    of total degree beyond ``valid_order`` are dropped on construction.
    """

    __slots__ = ("chart", "max_order", "valid_order", "coeffs", "_scaled")

    def __init__(self, chart, max_order, valid_order, coeffs):
        if not 0 <= valid_order <= max_order:
            raise JetError(f"need 0 <= valid_order <= max_order, "
                           f"got {valid_order}, {max_order}")
        clean = {}
        dim = chart.dim
        for alpha, c in coeffs.items():
            if len(alpha) != dim:
                raise JetError("multi-index length does not match chart")
            if sum(alpha) > valid_order:
                continue
            c = _as_crat(c)
            if c:
                clean[alpha] = c
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "max_order", max_order)
        object.__setattr__(self, "valid_order", valid_order)
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "_scaled", None)

    @classmethod
    def _make(cls, chart, max_order, valid_order, coeffs, scaled=None):
        """Internal fast path: ``coeffs`` must already be clean, i.e.
        nonzero CRat values at multi-indices of degree <= valid_order;
        ``scaled``, if given, is their integer form (see ``_int_rep``)."""
        self = object.__new__(cls)
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "max_order", max_order)
        object.__setattr__(self, "valid_order", valid_order)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_scaled", scaled)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Jet is immutable")

    def _int_rep(self):
        """Cached integer form: (den, sorted (degree, key, re, im), cplx)."""
        rep = self._scaled
        if rep is None:
            rep = _int_scaled(self.coeffs)
            object.__setattr__(self, "_scaled", rep)
        return rep

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, chart, order):
        return cls(chart, order, order, {})

    @classmethod
    def constant(cls, chart, value, order):
        z = (0,) * chart.dim
        return cls(chart, order, order, {z: _as_crat(value)})

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
        return Jet(self.chart, self.max_order, order, self.coeffs)

    def is_zero(self):
        return not self.coeffs

    @property
    def constant_term(self):
        return self.coeffs.get((0,) * self.chart.dim, ZERO)

    def agrees_with(self, other, order=None):
        """Exact coefficient equality up to the shared (or given) order."""
        self._check_chart(other)
        v = min(self.valid_order, other.valid_order)
        if order is not None:
            if order > v:
                raise OrderExhausted(
                    f"comparison order {order} exceeds shared validity {v}")
            v = order
        keys = set(self.coeffs) | set(other.coeffs)
        for a in keys:
            if sum(a) > v:
                continue
            if self.coeffs.get(a, ZERO) != other.coeffs.get(a, ZERO):
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return (self.chart == other.chart
                and self.valid_order == other.valid_order
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.chart, self.valid_order,
                     frozenset(self.coeffs.items())))

    def __repr__(self):
        terms = ", ".join(f"{a}: {c}" for a, c in sorted(self.coeffs.items()))
        return f"Jet(v={self.valid_order}, {{{terms}}})"

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CRat)):
            other = Jet.constant(self.chart, other, self.max_order)
        if not isinstance(other, Jet):
            return NotImplemented
        self._check_chart(other)
        v = min(self.valid_order, other.valid_order)
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, ZERO) + c
        return Jet(self.chart, min(self.max_order, other.max_order), v, out)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.chart, self.max_order, self.valid_order,
                   {a: -c for a, c in self.coeffs.items()})

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
            s = _as_crat(other)
            if not s:
                raise ZeroDivisionError("division of jet by zero scalar")
            return self * (ONE / s)
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
        i = self.chart.index(var) if isinstance(var, str) else var
        out = {}
        for a, c in self.coeffs.items():
            e = a[i]
            if e == 0:
                continue
            b = list(a)
            b[i] = e - 1
            out[tuple(b)] = CRat._make(c.re * e, c.im * e)
        return Jet._make(self.chart, self.max_order, self.valid_order - 1,
                         out)

    def mul_variable(self, var):
        """Multiply by a displacement variable; gains one order of validity.

        The variable is exact and of degree one, so each certified
        coefficient just moves up one degree: unlike a generic product,
        nothing is truncated away and the certified order rises.
        """
        i = self.chart.index(var) if isinstance(var, str) else var
        out = {}
        for a, c in self.coeffs.items():
            b = list(a)
            b[i] += 1
            out[tuple(b)] = c
        return Jet(self.chart, self.max_order + 1, self.valid_order + 1, out)

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
        out = {}
        for a, coef in self.coeffs.items():
            b = [0] * len(a)
            for i, e in enumerate(a):
                b[c[i]] = e
            out[tuple(b)] = coef.conjugate()
        return Jet(self.chart, self.max_order, self.valid_order, out)

    # -- chart surgery ----------------------------------------------------

    def restrict(self, indices):
        """Project onto a sub-chart; fails if the jet depends on dropped vars."""
        indices = tuple(indices)
        sub = Chart(tuple(self.chart.names[i] for i in indices),
                    tuple(self.chart.base[i] for i in indices))
        keep = set(indices)
        out = {}
        for a, c in self.coeffs.items():
            if any(e and i not in keep for i, e in enumerate(a)):
                raise DomainError("jet depends on a variable outside the sub-chart")
            out[tuple(a[i] for i in indices)] = c
        return Jet(sub, self.max_order, self.valid_order, out)

    def embed(self, chart, index_map=None):
        """View this jet on a larger chart; index_map sends old to new indices."""
        if index_map is None:
            index_map = tuple(chart.index(nm) for nm in self.chart.names)
        for old, new in enumerate(index_map):
            if chart.base[new] != self.chart.base[old]:
                raise ChartMismatch("base point differs under embedding")
        out = {}
        for a, c in self.coeffs.items():
            b = [0] * chart.dim
            for old, e in enumerate(a):
                b[index_map[old]] = e
            out[tuple(b)] = c
        return Jet(chart, self.max_order, self.valid_order, out)


# -- exact accumulation ----------------------------------------------------

_FRAC_ZERO = Fraction(0)


def _scalar_ints(s):
    """(re, im, den) integers with s == (re + im*i) / den."""
    if type(s) is int:
        return s, 0, 1
    s = _as_crat(s)
    re, im = s.re, s.im
    den = lcm(re.denominator, im.denominator)
    return (re.numerator * (den // re.denominator),
            im.numerator * (den // im.denominator), den)


class JetSum:
    """Exact sum of terms s*a*b (or s*a) of jets on one chart.

    Each product is convolved in Python ints from the operands' cached
    integer forms and added into one map of [re, im] numerators over a
    common denominator; the denominator is raised to an lcm only when a
    term's own does not divide it.  ``jet()`` normalizes each output
    coefficient once.  ``valid_order`` and ``max_order`` are the minimum
    over all terms, exactly as a left fold of ``*`` and ``+`` gives them,
    and a term is convolved only up to the running minimum.
    """

    __slots__ = ("chart", "max_order", "valid_order", "den", "acc")

    def __init__(self):
        self.chart = None
        self.max_order = self.valid_order = None
        self.den = 1
        self.acc = {}

    def add(self, a, b=None, s=1):
        """Add s*a*b, or s*a when ``b`` is None; s is int, Fraction or CRat."""
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
                for key in [k for k in acc if sum(k) > v]:
                    del acc[key]
            else:
                v = self.valid_order
        sr, si, sd = _scalar_ints(s)
        if not (sr or si):
            return
        d1, left, cplx = a._int_rep()
        if b is None:
            right, d2 = None, 1
        else:
            d2, right, cplx2 = b._int_rep()
            cplx = cplx or cplx2
        # bring the term and the sum to one denominator, folding the
        # rescaling into the scalar so each pair costs integer products only
        tden = d1 * d2 * sd
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
        if si:
            cplx = True
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
        elif cplx:
            for da, ka, ar, ai in left:
                if da > v:
                    break
                rem = v - da
                ar, ai = ar * sr - ai * si, ar * si + ai * sr
                for db, kb, br, bi in right:
                    if db > rem:
                        break
                    key = tuple(map(_add, ka, kb))
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
                    key = tuple(map(_add, ka, kb))
                    prev = acc.get(key)
                    if prev is None:
                        acc[key] = [ar * br, 0]
                    else:
                        prev[0] += ar * br

    def jet(self, empty=None):
        """The normalized sum; ``empty`` when no term was added."""
        if self.chart is None:
            return empty
        # one gcd pass reduces the common denominator to the lcm of the
        # output denominators, which is the cached integer form's
        acc = self.acc
        g = gcd(self.den, *chain.from_iterable(acc.values()))
        den = self.den // g
        out = {}
        terms = []
        cplx = False
        for key, (re, im) in acc.items():
            if re or im:
                re //= g
                im //= g
                out[key] = CRat._make(
                    Fraction(re, den) if re else _FRAC_ZERO,
                    Fraction(im, den) if im else _FRAC_ZERO)
                terms.append((sum(key), key, re, im))
                if im:
                    cplx = True
        terms.sort()
        return Jet._make(self.chart, self.max_order, self.valid_order, out,
                         (den, terms, cplx))


def product_vanishes(a, b):
    """Whether the truncated product a*b is exactly zero, without forming it.

    Jets are polynomials over a field, so the lowest homogeneous part of a
    product is the product of the lowest parts: a*b vanishes exactly when
    a factor does or their lowest degrees add up past the shared validity.
    """
    if not a.coeffs or not b.coeffs:
        return True
    return a._int_rep()[1][0][0] + b._int_rep()[1][0][0] \
        > min(a.valid_order, b.valid_order)


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
