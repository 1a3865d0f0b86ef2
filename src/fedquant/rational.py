"""Exact complex-rational scalars.

All coefficients in the engine live in Q(i).  A :class:`CRat` holds one as
three ints (re + im*i)/den in lowest terms with den > 0, the form a single
coefficient of a jet store takes (see ``jets.Jet``).  Closed under +, -, *,
and / by nonzero values; equality is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _ratio(x):
    """The reduced (numerator, denominator) of an exact rational input."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, str):
        return _ratio(Fraction(x))
    raise TypeError(f"CRat takes an int, a Fraction or an exact string, "
                    f"not {type(x).__name__}")


class CRat:
    """A complex number with rational real and imaginary parts, stored as
    the ints ``re_num``, ``im_num`` and ``den`` of (re_num + im_num*i)/den,
    in lowest terms (no factor common to all three) with den > 0, so equal
    values have equal ints."""

    __slots__ = ("re_num", "im_num", "den")

    def __new__(cls, re=0, im=0):
        """``re`` and ``im`` are ints, Fractions or exact strings ("1/3");
        a CRat ``re`` with no ``im`` is returned as it is."""
        if type(re) is CRat and not im:
            return re
        rn, rd = _ratio(re)
        inum, idn = _ratio(im)
        # the lcm of reduced denominators is coprime to the numerators
        # jointly, so this is already in lowest terms
        den = rd * idn // math.gcd(rd, idn)
        return _make(rn * (den // rd), inum * (den // idn), den)

    @staticmethod
    def from_ints(re, im, den):
        """(re + im*i)/den for ints with den > 0, put in lowest terms."""
        g = math.gcd(re, im, den)
        return _make(re // g, im // g, den // g)

    def __setattr__(self, name, value):
        raise AttributeError("CRat is immutable")

    @property
    def re(self):
        return Fraction(self.re_num, self.den)

    @property
    def im(self):
        return Fraction(self.im_num, self.den)

    # -- predicates -------------------------------------------------------

    def __bool__(self):
        return bool(self.re_num or self.im_num)

    @property
    def is_real(self):
        return not self.im_num

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = _ints(other)
        if o is None:
            return NotImplemented
        br, bi, bd = o
        ad = self.den
        return CRat.from_ints(self.re_num * bd + br * ad,
                              self.im_num * bd + bi * ad, ad * bd)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return _make(-self.re_num, -self.im_num, self.den)

    def __mul__(self, other):
        o = _ints(other)
        if o is None:
            return NotImplemented
        br, bi, bd = o
        ar, ai = self.re_num, self.im_num
        return CRat.from_ints(ar * br - ai * bi, ar * bi + ai * br,
                              self.den * bd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _ints(other)
        if o is None:
            return NotImplemented
        br, bi, bd = o
        if not (br or bi):
            raise ZeroDivisionError("division by zero CRat")
        # z/w = z * conj(w) * bd / (br^2 + bi^2)
        ar, ai = self.re_num, self.im_num
        return CRat.from_ints((ar * br + ai * bi) * bd,
                              (ai * br - ar * bi) * bd,
                              self.den * (br * br + bi * bi))

    def __rtruediv__(self, other):
        return CRat(other) / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return ONE / self ** -k
        out, base = ONE, self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def conjugate(self):
        return _make(self.re_num, -self.im_num, self.den)

    # -- comparison / hashing --------------------------------------------

    def __eq__(self, other):
        o = _ints(other)
        if o is None:
            return NotImplemented
        return (self.re_num, self.im_num, self.den) == o

    def __hash__(self):
        if self.im_num:
            return hash((self.re_num, self.im_num, self.den))
        # a real value hashes like the int or Fraction it equals
        return hash(self.re)

    def __repr__(self):
        return f"CRat({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return f"{im}*i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}*i"


def _make(re, im, den):
    """The CRat of ints already in lowest terms with den > 0."""
    self = object.__new__(CRat)
    object.__setattr__(self, "re_num", re)
    object.__setattr__(self, "im_num", im)
    object.__setattr__(self, "den", den)
    return self


def _ints(x):
    """The (re, im, den) ints of a CRat, int or Fraction, else None."""
    if type(x) is CRat:
        return x.re_num, x.im_num, x.den
    if isinstance(x, int):
        return int(x), 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    return None


ZERO = CRat(0)
ONE = CRat(1)
I = CRat(0, 1)
HALF_I = CRat(0, Fraction(1, 2))


def rational_sqrt(x: Fraction):
    """Exact square root of a nonnegative rational, or None if irrational."""
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return Fraction(rn, rd)
