"""Test-side references for the fiber pairing and the flat connection,
built straight from the equations.

The engine builds each pairing of omega^{-1} by a cached recursion; it
fills flat sections only through a level bound, from cached commutator
rows, and certifies r from the recursion's own sums.  The functions here
take none of those shortcuts: ``pairing`` sums the products over every
bijection, ``expansion`` pairs each gamma with every delta of the same
degree (the engine reaches only the delta its ``_partners`` table lists),
``symbol_mul_by_pairs`` folds the symbol of a product one term
pair at a time, ``contract_by_products`` finishes every term pair's jet
product before it adds the pair's expansion entries, ``full_section``
fills a section through doubled weight 2N with ``graded_commutator``
applied directly, ``section_defect`` applies the whole flat connection to
a section, ``full_pass`` recomputes the flatness recursion on the whole of
r, and ``rho_extend`` builds every monomial operator by star
factorization with no per-state table.

A Weyl form keeps every term of a product, so the connection and the full
pass form only the products of weight at most 2N + 2.  Lowered by
(i/hbar), those reach weight 2N, the highest weight the tests read them
at; the products above it would cost many times more.

The jet layer owns its packed store, and it sums every power series
through one composition.  The functions at the end are the older forms of
those reads, straight on the store: the fiber split loop, the geometric
series of an inverse, the five elementary series as they were written
one by one, the sign rule that interns curvature entries up to sign, the
parser's power bound and the comparison of two jets up to their shared
order.
"""

from collections import defaultdict
from fractions import Fraction
from itertools import permutations

from fedquant.fedosov import star
from fedquant.geometry import build_rhat, nabla
from fedquant.jets import (Chart, DomainError, Jet, JetSum, pack_key,
                           unpack_key)
from fedquant.quantization import (DiffOp, _diffop_sum, _embed_config,
                                   config_chart, diffop_compose,
                                   fiber_decompose, gq_cotangent)
from fedquant.rational import CRat, HALF_I, ONE, rational_sqrt
from fedquant.weyl import (WeylForm, _expansion, _pairing, _wedge,
                           graded_commutator, op_delta, op_delta_inv,
                           sub_degrees, weyl_mul)


def pairing(geom, alpha_a, alpha_b):
    """P(alpha_a, alpha_b) from its definition: the sum, over bijections
    pi from the generators of alpha_a to those of alpha_b, of
    prod_i omega^{i, pi(i)}.  A product with a zero factor is skipped, as
    it adds nothing."""
    left = [i for i, e in enumerate(alpha_a) for _ in range(e)]
    right = [j for j, e in enumerate(alpha_b) for _ in range(e)]
    out = Jet.zero(geom.chart, geom.order)
    if len(left) != len(right):
        return out
    for pi in permutations(right):
        factors = [geom.omega_inv[i][j] for i, j in zip(left, pi)]
        if any(om.is_zero() for om in factors):
            continue
        term = Jet.constant(geom.chart, 1, geom.order)
        for om in factors:
            term = term * om
        out = out + term
    return out


def expansion(geom, alpha_a, alpha_b, parity=None):
    """``weyl._expansion`` over every (gamma, delta) of one degree m: each
    gamma <= alpha_a meets each delta <= alpha_b with |delta| = m, and a
    zero pairing is dropped after it is read.  Uncached; the pairings are
    the engine's table."""
    subs_a, subs_b = sub_degrees(alpha_a), sub_degrees(alpha_b)
    out = []
    for m in range(parity or 0, min(len(subs_a), len(subs_b)),
                   1 if parity is None else 2):
        for gamma, binom_a in subs_a[m]:
            for delta, binom_b in subs_b[m]:
                scalar, pairing = _pairing(geom, gamma, delta)
                if scalar:
                    alpha = tuple(a - g + b - d for a, g, b, d
                                  in zip(alpha_a, gamma, alpha_b, delta))
                    out.append((m, alpha, pairing,
                                HALF_I ** m * (binom_a * binom_b) * scalar))
    return out


def symbol_mul_by_pairs(a, b, max_hbar):
    """The symbol of a o b as one fold per term pair: each nonconstant
    pairing, from ``pairing``, is convolved with the pair's own jet
    product.  Only a zero pairing leaves its pair out; a product that
    truncates to zero is still added, and caps its sum's validity, and a
    sum that comes to zero is kept as a zero jet at that validity.  The
    pairings are kept for the length of one call."""
    geom = a.geometry
    pairings = {}
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
            p = pairings.get((alpha_a, alpha_b))
            if p is None:
                p = pairings[alpha_a, alpha_b] = pairing(geom, alpha_a,
                                                         alpha_b)
            if p.is_zero():
                continue
            if p.is_constant():
                out[k].add(jet_a, jet_b, scale * p.constant_term)
            else:
                out[k].add(jet_a * jet_b, p, scale)
    return {k: acc.jet() for k, acc in out.items()}


def contract_by_products(a, b, parity=None, into=None):
    """``weyl._mul_contract`` with every term pair's jet product finished
    first: each pair forms ``jet_a * jet_b`` once, and every entry of its
    expansion adds that product, against the pairing or scaled by it.
    The pairs, parities, signs, (i/hbar) lowering and square are the
    engine's; only the order of the two multiplications differs."""
    geom = a.geometry
    square = (parity is None and a is b
              and all(len(beta) % 2 for _, _, beta in a.terms))
    if square:
        parity = 1
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
            base = jet_a * jet_b
            s = emit if w[0] == 1 else -emit
            for m, alpha, pairing, scale in expansion:
                out[ka + kb + m - lower, alpha, w[1]].add(
                    base, pairing, scale * s)
    return out if into is not None else WeylForm.from_sums(geom, out)


def r_union(state):
    """r as one form, the sum of the state's weight parts."""
    return WeylForm(state.geometry,
                    {key: jet for part in state.r_parts.values()
                     for key, jet in part.terms.items()})


def weight_at_most(form, w):
    """The terms of ``form`` of doubled weight 2k + |alpha| <= w."""
    return WeylForm(form.geometry,
                    {key: jet for key, jet in form.terms.items()
                     if 2 * key[0] + sum(key[1]) <= w})


def full_section(f, state):
    """The flat section of f through doubled weight 2N, with no level
    bound: for s < 2N,

        a_(s+1) = delta^-1 (nabla a_s + sum_w (i/hbar) [r_w, a_(s+2-w)]).
    """
    geom = state.geometry
    parts = [WeylForm.from_jet(geom, f)]
    for s in range(2 * state.n_hbar):
        sums = nabla(parts[s], geom, defaultdict(JetSum))
        for w, rw in state.r_parts.items():
            if w <= s + 2:
                graded_commutator(rw, parts[s + 2 - w], sums)
        parts.append(op_delta_inv(WeylForm.from_sums(geom, sums)))
    return WeylForm(geom, {key: jet for part in parts
                           for key, jet in part.terms.items()})


def connection(section, state):
    """D a = nabla a - delta a + (i/hbar) [r, a], the flat connection,
    with the commutator [r_w, a_s] taken for w + s <= 2N + 2 only: its
    terms have weight w + s - 2 <= 2N, the highest weight r holds an
    equation for."""
    geom = state.geometry
    sums = nabla(section, geom, defaultdict(JetSum))
    top = 2 * state.n_hbar + 2
    for w, rw in state.r_parts.items():
        graded_commutator(rw, weight_at_most(section, top - w), sums)
    return WeylForm.from_sums(geom, sums) - op_delta(section)


def count_by_weight(form, cutoff):
    """Terms of a form per doubled weight below ``cutoff``; a WeylForm
    keeps no zero jets, so every term is a nonzero one."""
    out = {}
    for k, alpha, _ in form.terms:
        w = 2 * k + sum(alpha)
        if w < cutoff:
            out[w] = out.get(w, 0) + 1
    return out


def section_defect(section, state):
    """Terms of D applied to a full section, per weight below 2N, the
    weights that section is trusted on; a flat section gives ``{}``."""
    return count_by_weight(connection(section, state), 2 * state.n_hbar)


def full_pass(state):
    """delta^-1 (Rhat + nabla r + (i/hbar) r o r) and the flatness
    residual, recomputed from scratch on the whole of r, with r o r summed
    over the ordered weight pairs w1 + w2 <= 2N + 2: their products,
    lowered by (i/hbar), are the weights w <= 2N that r_(w+1) and the
    residual read."""
    geom = state.geometry
    r = r_union(state)
    rhat = build_rhat(geom)
    nr = nabla(r, geom)
    sums = defaultdict(JetSum)
    for w1, r1 in state.r_parts.items():
        for w2, r2 in state.r_parts.items():
            if w1 + w2 <= 2 * state.n_hbar + 2:
                # an equal copy of r2, so that the product takes every
                # ordered term pair instead of the square's unordered ones
                weyl_mul(r1, WeylForm(geom, dict(r2.terms)), sums)
    quad = WeylForm.from_sums(geom, sums)
    return op_delta_inv(rhat + nr + quad), op_delta(r) - rhat - nr - quad


def rho_extend(f, state, split="first"):
    """rho(f) on a flat or cotangent state, each fiber piece c p^I built
    by ``rho_monomial``; the argument checks of the engine's
    ``rho_extend`` are left out."""
    geom = state.geometry
    return _diffop_sum(config_chart(geom),
                       ((rho_monomial(c, fib, state, geom, split), 1, 0)
                        for fib, c in fiber_decompose(f, geom).items()))


def rho_monomial(c, fib, state, geom, split):
    """rho(c p^I) by star factorization, rebuilt on every call: c p^I is
    (c p_i1) * p^(I - e_i1) minus the quantized hbar corrections."""
    sub = config_chart(geom)
    d = sum(fib)
    if d == 0:
        return DiffOp.mult(c)
    nz = [a for a, e in enumerate(fib) if e]
    i1 = nz[0] if split == "first" else nz[-1]
    u = _embed_config(c, geom).mul_variable(geom.n + i1)
    first = gq_cotangent(u, geom)
    if d == 1:
        return first
    rest = list(fib)
    rest[i1] -= 1
    rest = tuple(rest)
    order = geom.order
    w = Jet.constant(geom.chart, 1, order).mul_monomial((0,) * geom.n + rest)
    s = star(u, w, state, n_hbar=d)
    parts = [(diffop_compose(first,
                             rho_monomial(Jet.constant(sub, 1, order), rest,
                                          state, geom, split)), 1, 0)]
    for j in range(1, d + 1):
        sj = s.coefficient(j)
        if not sj.is_zero():
            parts.extend((rho_monomial(cc, fb, state, geom, split), -1, j)
                         for fb, cc in fiber_decompose(sj, geom).items())
    return _diffop_sum(sub, parts)


# -- reads of the packed jet store ------------------------------------------

def split_by_keys(f, head):
    """{tail exponents: head jet}, one packed term at a time: a piece of
    tail degree d keeps f's validity minus d."""
    sub = Chart(f.chart.names[:head], f.chart.base[:head])
    dim = f.chart.dim
    pieces = {}
    for d, key, re, im in f.terms:
        alpha = unpack_key(key, dim)
        fib = alpha[head:]
        pieces.setdefault(fib, []).append(
            (d - sum(fib), pack_key(alpha[:head]), re, im))
    return {fib: Jet.from_terms(sub, f.valid_order - sum(fib), f.den, terms)
            for fib, terms in pieces.items()}


def agrees_with(a, b):
    """Equality up to the shared order, as two dicts of cross-multiplied
    numerators keyed by packed monomial."""
    v = min(a.valid_order, b.valid_order)
    da, db = a.den, b.den
    return ({k: (re * db, im * db) for d, k, re, im in a.terms if d <= v}
            == {k: (re * da, im * da) for d, k, re, im in b.terms
                if d <= v})


def first_term(f):
    """(alpha, CRat) of the first packed term, or None."""
    if not f.terms:
        return None
    return (unpack_key(f.terms[0][1], f.chart.dim),
            CRat.from_ints(f.terms[0][2], f.terms[0][3], f.den))


def power_bits(a):
    """The bit length the parser's power bound multiplies by the
    exponent: that of a's denominator or of the numerators of its constant
    term, whichever is longer."""
    c = a.terms[0][2:] if a.terms and not a.terms[0][0] else (0, 0)
    return max(a.den, *map(abs, c)).bit_length()


def interning_sign(g):
    """-1 when the first packed numerator that is nonzero, real part
    first, is negative; 1 otherwise."""
    t = g.terms
    return -1 if t and (t[0][2] or t[0][3]) < 0 else 1


def invert(a):
    """1/a as the geometric series sum_k (-u)^k / c0, u = (a - c0) / c0."""
    c0 = a.constant_term
    if not c0:
        raise DomainError("cannot invert a jet with zero constant term")
    v = a.valid_order
    inv = ONE / c0
    u = (a - c0) * inv
    t = Jet.constant(a.chart, 1, v)
    acc = JetSum()
    acc.add(t, s=inv)
    for _ in range(v):
        t = -(t * u)
        if t.is_zero():
            break
        acc.add(t, s=inv)
    return acc.jet()


def _compose_series(a, series_coeffs):
    """sum_k c_k * a^k truncated; a must have zero constant term."""
    v = a.valid_order
    acc = JetSum()
    acc.add(Jet.constant(a.chart, series_coeffs[0], v))
    p = Jet.constant(a.chart, 1, v)
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
