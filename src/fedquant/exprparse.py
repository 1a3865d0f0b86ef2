"""A small expression language for entering metrics, potentials and observables.

Grammar (standard precedence; ``^`` binds tightest and does not chain, so
``2^3^2`` is a ParseError and ``(2^3)^2`` is not):

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | atom ("^" integer)?
    atom   := number | "i" | symbol | "(" expr ")" | func "(" expr ")"
    func   := "exp" | "log" | "sqrt" | "sin" | "cos"

Numbers are integers or finite decimals, both converted exactly.  The
parser evaluates as it reads: each rule returns the jet of the text it
consumed, so symbols resolve against the chart while parsing.  An evaluation
error is raised where it occurs: before a syntax error further right, after
an unexpected character anywhere.  A power whose coefficients would pass
``MAX_POWER_BITS`` bits is refused before it is computed.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .jets import Jet, jet_elem
from .rational import CRat

FUNCTIONS = ("exp", "log", "sqrt", "sin", "cos")

# bound on the estimated coefficient size of a^k, in bits; without it an
# exponent of a few digits makes coefficients of millions of bits
MAX_POWER_BITS = 1 << 14


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# a number, a symbol, an operator, or any other non-space character
_TOKEN = re.compile(r"(\d+\.\d+|\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()])|(\S)")


def _tokenize(src):
    tokens = []
    for m in _TOKEN.finditer(src):
        if m.lastindex == 4:
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((("num", "sym", "op")[m.lastindex - 1], m.group(),
                       m.start()))
    return tokens


def _int(digits, pos):
    try:
        return int(digits)
    except ValueError:
        # only Python's limit on the length of an int literal lands here
        raise ParseError("number literal too long", pos) from None


class _Parser:
    """Recursive descent over the token list; each rule returns a Jet."""

    def __init__(self, src, chart, order):
        self.src, self.chart, self.order = src, chart, order
        self.tokens = _tokenize(src)
        self.k = 0

    def peek(self):
        return self.tokens[self.k] if self.k < len(self.tokens) else (None, None, len(self.src))

    def next(self):
        tok = self.peek()
        self.k += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self):
        e = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise ParseError(f"trailing input {val!r}", pos)
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                e = e + rhs if val == "+" else e - rhs
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.factor()
                e = e * rhs if val == "*" else e / rhs
            else:
                return e

    def factor(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return -self.factor()
        a = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, pos = self.next()
            if kind != "num" or "." in val:
                raise ParseError("exponent must be an integer literal", pos)
            k = _int(val, pos)
            # a^k has about k times the bits of a's denominator or of the
            # numerators of its constant term, whichever are longer
            c = a.constant_term * a.den   # its numerators over a.den
            if (k * max(a.den, abs(c.re_num), abs(c.im_num)).bit_length()
                    > MAX_POWER_BITS):
                raise ParseError(f"power too large: coefficients would pass "
                                 f"{MAX_POWER_BITS} bits", pos)
            return a ** k
        return a

    def atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            whole, _, frac = val.partition(".")
            value = Fraction(_int(whole + frac, pos), 10 ** len(frac))
            return Jet.constant(self.chart, CRat(value), self.order)
        if kind == "sym":
            if val == "i":
                return Jet.constant(self.chart, CRat(0, 1), self.order)
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return jet_elem(val, arg)
            return Jet.variable(self.chart, val, self.order)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind is None:
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected token {val!r}", pos)


def jet_of(src, chart, order):
    """The jet of the expression ``src`` about the chart's base point,
    truncated at ``order``."""
    parser = _Parser(src, chart, order)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nested too deeply",
                         parser.peek()[2]) from None
