"""Expression parsing straight into jets."""

import json
import operator
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import reference
from fedquant.cli import main
from fedquant.exprparse import FUNCTIONS, MAX_POWER_BITS, ParseError, jet_of
from fedquant.jets import Chart, DomainError, Jet, JetError, jet_elem
from fedquant.rational import CRat, I


CH = Chart(("q1", "p1"), (0, 0))


def test_arithmetic_elaboration():
    f = jet_of("q1^2*p1 - 3*q1 + 1/2", CH, 5)
    q = Jet.variable(CH, 0, 5)
    p = Jet.variable(CH, 1, 5)
    assert f == q * q * p - q * 3 + Fraction(1, 2)


def test_precedence_and_parentheses():
    a = jet_of("q1 + p1*q1^2", CH, 5)
    b = jet_of("q1 + (p1*(q1^2))", CH, 5)
    assert a == b
    c = jet_of("(q1 + p1)*q1^2", CH, 5)
    assert a != c


@pytest.mark.parametrize("base", ["q1", "5 + q1/7", "1/3 + p1", "-12 + q1",
                                  "(3 + 4*i)/5 + q1", "2*i + q1/9"])
def test_power_bound_reads_the_constant_numerators_over_the_denominator(
        base):
    """The largest exponent the bound lets through is the one the packed
    numerators give, and one more is refused before it is computed."""
    top = MAX_POWER_BITS // reference.power_bits(jet_of(base, CH, 2))
    jet_of(f"({base})^{top}", CH, 2)
    with pytest.raises(ParseError, match="power too large"):
        jet_of(f"({base})^{top + 1}", CH, 2)


def test_unary_minus_binds_correctly():
    f = jet_of("-q1^2", CH, 4)
    q = Jet.variable(CH, 0, 4)
    assert f == -(q * q)


def test_imaginary_unit():
    f = jet_of("i*q1", CH, 3)
    assert f.coeffs[(1, 0)] == CRat(0, 1)


def test_division_and_functions():
    f = jet_of("1/(1 + q1^2)", CH, 6)
    g = jet_of("1 + q1^2", CH, 6)
    assert (f * g).agrees_with(Jet.constant(CH, 1, 6))
    h = jet_of("exp(q1)*exp(-q1)", CH, 6)
    assert h.agrees_with(Jet.constant(CH, 1, 6))
    s2c2 = jet_of("sin(q1)^2 + cos(q1)^2", CH, 6)
    assert s2c2.agrees_with(Jet.constant(CH, 1, 6))


def test_sqrt_of_perfect_square():
    f = jet_of("sqrt(4 + q1)", CH, 5)
    assert f.constant_term == CRat(2)


def test_unknown_symbol_rejected():
    with pytest.raises(JetError):
        jet_of("q1 + w", CH, 4)


def test_syntax_error_has_position():
    with pytest.raises(ParseError) as err:
        jet_of("q1 + * p1", CH, 4)
    assert err.value.pos == 5


@pytest.mark.parametrize("src", ["q1+", "", "(", "-", "exp(", "q1 * ("])
def test_input_that_stops_short_names_its_end(src):
    with pytest.raises(ParseError, match="unexpected end of input") as err:
        jet_of(src, CH, 4)
    assert err.value.pos == len(src)


def test_fractional_power_rejected():
    with pytest.raises(ParseError):
        jet_of("q1^(1/2)", CH, 4)


def test_log_away_from_domain_fails():
    with pytest.raises(DomainError):
        jet_of("log(q1)", CH, 4)


# -- reference: the parser against direct Jet arithmetic ------------------

ORDER = 4
NUMBERS = st.one_of(st.integers(0, 99).map(str),
                    st.sampled_from(["0.5", "1.25", "2.0", "0.125"]))
LEAVES = st.one_of(NUMBERS.map(lambda s: ("num", s)), st.just(("i",)),
                   st.sampled_from(["q1", "p1"]).map(lambda s: ("sym", s)))
BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv}
# binding strength of each node; leaves and function calls are atoms (5)
LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def trees(depth):
    """Expression trees of at most ``depth`` operator levels; exponents
    stay small enough that no power reaches the parser's size bound."""
    if depth == 0:
        return LEAVES
    sub = trees(depth - 1)
    return st.one_of(
        LEAVES,
        st.tuples(st.just("neg"), sub),
        st.tuples(st.sampled_from(sorted(BINARY)), sub, sub),
        st.tuples(st.just("^"), sub, st.integers(0, 3)),
        st.tuples(st.sampled_from(FUNCTIONS), sub))


def render(tree, need=0):
    """Source text with only the parentheses that precedence needs."""
    head = tree[0]
    if head in ("num", "sym"):
        text = tree[1]
    elif head == "i":
        text = "i"
    elif head in FUNCTIONS:
        text = f"{head}({render(tree[1])})"
    elif head == "neg":
        text = "-" + render(tree[1], LEVEL["neg"])
    elif head == "^":
        text = f"{render(tree[1], 5)}^{tree[2]}"
    else:
        # left-associative: only the right operand needs a tighter binding
        level = LEVEL[head]
        text = f"{render(tree[1], level)} {head} {render(tree[2], level + 1)}"
    return f"({text})" if LEVEL.get(head, 5) < need else text


def direct(tree):
    head = tree[0]
    if head == "num":
        return Jet.constant(CH, Fraction(tree[1]), ORDER)
    if head == "i":
        return Jet.constant(CH, I, ORDER)
    if head == "sym":
        return Jet.variable(CH, tree[1], ORDER)
    if head in FUNCTIONS:
        return jet_elem(head, direct(tree[1]))
    if head == "neg":
        return -direct(tree[1])
    if head == "^":
        return direct(tree[1]) ** tree[2]
    return BINARY[head](direct(tree[1]), direct(tree[2]))


@given(trees(4))
def test_parser_matches_direct_jet_arithmetic(tree):
    src = render(tree)
    try:
        want = direct(tree)
    except JetError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            jet_of(src, CH, ORDER)
    else:
        assert jet_of(src, CH, ORDER) == want


# -- fuzz: any text over the grammar's alphabet ----------------------------

ALPHABET = "0123456789. +-*/^()iqpwzbexlogsqrtnc_"
TOKENS = ["q1", "p1", "i", "w", *FUNCTIONS, "(", ")", "+", "-", "*", "/",
          "^", "0", "0.5", "1.000000000000000000001"]


def _nested_power(base, exponents):
    return "(" * len(exponents) + base + "".join(f")^{k}" for k in exponents)


def _deep(depth, opener):
    return opener * depth + "q1" + (")" * depth if "(" in opener else "")


FUZZ = st.one_of(
    st.text(ALPHABET, max_size=40),
    st.lists(st.one_of(st.sampled_from(TOKENS),
                       st.integers(0, 10 ** 12).map(str)),
             max_size=30).map(" ".join),
    st.builds(_nested_power,
              st.sampled_from(["2", "1.001", "1 + q1", "0.5 - p1", "q1",
                               "1.000000000000000000001"]),
              st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=4)),
    st.builds(_deep, st.integers(0, 3000), st.sampled_from(["(", "-", "sin("])),
    st.sampled_from(["9" * 5000, "0." + "1" * 5000, "2^" + "9" * 5000]))


@pytest.fixture(scope="module")
def geometry_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "darboux.json"


@given(src=FUZZ)
def test_any_text_gives_a_jet_or_an_input_error(geometry_path, src):
    try:
        jet = jet_of(src, CH, ORDER)
    except (ParseError, JetError):
        jet = None
    else:
        assert isinstance(jet, Jet)
    geometry_path.write_text(json.dumps(
        {"kind": "darboux", "n": 1, "order": ORDER, "gamma": {"111": src}}))
    code = main(["validate", str(geometry_path), "--quiet"])
    assert code == 2 if jet is None else code in (0, 2)


@pytest.mark.parametrize("src,message", [
    ("q1 $", "unexpected character"),
    ("9" * 5000, "number literal too long"),
    ("(q1", "expected ')'"),
    ("q1)", "trailing input"),
    ("(" * 3000 + "q1" + ")" * 3000, "nested too deeply"),
], ids=["bad-character", "long-number", "unclosed", "trailing", "deep"])
def test_parse_errors_name_their_cause(geometry_path, capsys, src, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        jet_of(src, CH, ORDER)
    geometry_path.write_text(json.dumps(
        {"kind": "darboux", "n": 1, "order": ORDER, "gamma": {"111": src}}))
    assert main(["validate", str(geometry_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
