"""Named check suites over seeded random inputs.

Each suite has fixed sample counts and hbar orders and takes only a jet
order and a seed.  It builds its own geometries from the seed
(``associativity`` and ``correspondence`` can take one geometry instead
and solve it at their own hbar order), runs an exact property battery,
and returns a geometry.CheckReport; the command line and the test suite
both call these entry points through ``SUITES``.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import comb

from .jets import Jet, JetSum
from .rational import CRat, I, HALF_I
from .weyl import (WeylForm, graded_commutator, op_delta, op_delta_inv,
                   op_delta_star, pi_weight, scalar_part, symbol_mul)
from .geometry import (CheckReport, build_darboux, build_flat, build_kaehler,
                       build_rhat, complex_chart, covariant_dv,
                       hamiltonian_vf, lift_cotangent, nabla, omega_pair,
                       poisson)
from .fedosov import flat_section, moyal_reference, solve_r, star
from .quantization import (DiffOp, QuantizationError, _diffop_sum,
                           diffop_compose, kinetic_alpha, polarization,
                           rho_extend)
from . import sampling


# the seeded chart of each kind, drawn from rng = make_rng((kind, n, seed))
_CHARTS = {
    "flat": lambda rng, n, order: build_flat(n, order),
    "darboux": lambda rng, n, order: build_darboux(
        n, sampling.random_darboux_gamma(rng, n, order), order),
    "cotangent": lambda rng, n, order: lift_cotangent(
        sampling.random_metric(rng, n, order), order),
    "kaehler": lambda rng, n, order: build_kaehler(
        sampling.random_kaehler_potential(rng, n, order), order),
}

# the chart dimension n of each of the five base metrics (cotangent
# batteries) and potentials (kaehler-orders), in turn
_BATTERY_DIMS = (1, 1, 2, 1, 2)


def _state(kind, n, order, n_hbar, seed=None):
    """Converged state of the seeded chart of ``kind``; every suite call
    solves its own, so a suite's cost does not depend on earlier calls."""
    rng = sampling.make_rng((kind, n, seed))
    return solve_r(_CHARTS[kind](rng, n, order), n_hbar)


# -- flat Moyal equality ---------------------------------------------------

def moyal_flat_suite(order=11, seed=0):
    """star == direct exponential product on flat charts, exact, through
    hbar^4 on 50 samples."""
    rep = CheckReport()
    rng = sampling.make_rng(("moyal-flat", seed))
    states = {}
    for t in range(50):
        n = 1 + t % 2
        if n not in states:
            states[n] = _state("flat", n, order, 4)
        state = states[n]
        chart = state.geometry.chart
        f = sampling.random_polynomial(rng, chart, order, degree=4)
        g = sampling.random_polynomial(rng, chart, order, degree=4)
        got = star(f, g, state)
        want = moyal_reference(f, g, state.geometry, 4)
        rep.add("flat star equals direct product", got.agrees_with(want),
                f"sample {t} (n={n})")
    return rep


# -- explicit low-order coefficients ---------------------------------------

def second_order_suite(order=9, seed=0):
    """hbar^1 and hbar^2 star coefficients against contracted oracles, on
    10 samples.

    hbar^1 = -(i/2) omega(X_f, X_g); hbar^2 = (1/8)(nabla_j X_f)^b
    (nabla_b X_g)^j, the normalization fixed by the flat limit.
    """
    rep = CheckReport()
    rng = sampling.make_rng(("second-order", seed))
    for t in range(10):
        state = _state("darboux", 1, order, 2, (seed, t))
        geom = state.geometry
        dim = geom.dim
        f = sampling.random_polynomial(rng, geom.chart, order, degree=3)
        g = sampling.random_polynomial(rng, geom.chart, order, degree=3)
        ss = star(f, g, state)
        rep.add("hbar^0 = fg", ss.coefficient(0).agrees_with(f * g),
                f"sample {t}")
        xf = hamiltonian_vf(f, geom)
        xg = hamiltonian_vf(g, geom)
        w1 = omega_pair(xf, xg, geom) * (-HALF_I)
        rep.add("hbar^1 = -(i/2) omega(Xf, Xg)",
                ss.coefficient(1).agrees_with(w1), f"sample {t}")
        dxf = covariant_dv(xf, geom)
        dxg = covariant_dv(xg, geom)
        acc = geom.zero_jet()
        for j in range(dim):
            for b in range(dim):
                a_ = dxf.get((b, j))
                b_ = dxg.get((j, b))
                if a_ is not None and b_ is not None:
                    acc = acc + a_ * b_
        rep.add("hbar^2 = (1/8)(nabla Xf)(nabla Xg)",
                ss.coefficient(2).agrees_with(acc * Fraction(1, 8)),
                f"sample {t}")
    return rep


# -- r-series closed forms -------------------------------------------------

def _r3_oracle(geom):
    curv = geom.curvature()
    dim = 2 * geom.n
    terms = {}
    for (i, j, k, l), jet in list(curv.r_low.items()):
        jet = jet * Fraction(-1, 8)
        if jet.is_zero():
            continue
        alpha = [0] * dim
        alpha[i] += 1
        alpha[j] += 1
        alpha[k] += 1
        key = (0, tuple(alpha), (l,))
        terms[key] = terms[key] + jet if key in terms else jet
    return WeylForm(geom, terms)


def _cov_rlow(geom, m, i, j, k, l):
    curv = geom.curvature()
    zero = geom.zero_jet()

    def rlow(*idx):
        return curv.r_low.get(tuple(idx), zero)

    acc = rlow(i, j, k, l).partial(m)
    for a in range(2 * geom.n):
        for pos, idx in enumerate((i, j, k, l)):
            g = geom.gamma.get((a, m, idx))
            if g is None:
                continue
            slots = [i, j, k, l]
            slots[pos] = a
            acc = acc - g * rlow(*slots)
    return acc


def _r4_oracle(geom):
    dim = 2 * geom.n
    terms = {}
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                for l in range(dim):
                    for m in range(dim):
                        jet = _cov_rlow(geom, m, i, j, k, l) * Fraction(-1, 40)
                        if jet.is_zero():
                            continue
                        alpha = [0] * dim
                        for idx in (i, j, k, m):
                            alpha[idx] += 1
                        key = (0, tuple(alpha), (l,))
                        terms[key] = terms[key] + jet if key in terms else jet
    return WeylForm(geom, terms)


def r_terms_suite(order=9, seed=0):
    """First two curvature terms of the flatness solution, exact, on 3
    samples."""
    rep = CheckReport()
    for t in range(3):
        state = _state("darboux", 1, order, 3, (seed, "r", t))
        geom = state.geometry
        r3, r4 = (state.r_parts.get(w, WeylForm(geom, {})) for w in (3, 4))
        rep.add("r_(3) = -(1/8) R y^3 dx",
                r3.agrees_with(_r3_oracle(geom)), f"sample {t}")
        rep.add("r_(4) = -(1/40) nabla R y^4 dx",
                r4.agrees_with(_r4_oracle(geom)), f"sample {t}")
    return rep


# -- associativity and the correspondence principle ------------------------

def _assoc_coefficients(f, g, h, state, left):
    """Coefficients of (f*g)*h (left) or f*(g*h) through the state order."""
    n = state.n_hbar
    inner = star(f, g, state) if left else star(g, h, state)
    out = []
    for m in range(n + 1):
        acc = JetSum()
        for k in range(m + 1):
            ck = inner.coefficient(k)
            if ck.is_zero():
                continue
            outer = star(ck, h, state, n - k) if left \
                else star(f, ck, state, n - k)
            acc.add(outer.coefficient(m - k))
        out.append(acc.jet(state.geometry.zero_jet()))
    return out


def _kind_states(order, seed, n_hbar):
    """One n = 1 state per kind; the curved charts need a higher jet order."""
    least = {"cotangent": 11, "kaehler": 12}
    return [_state(k, 1, max(order, least.get(k, 0)), n_hbar, seed)
            for k in ("flat", "darboux", "cotangent", "kaehler")]


def associativity_suite(order=9, seed=0, geometry=None):
    """(f*g)*h == f*(g*h) through hbar^3 on 25 triples per geometry kind,
    or on ``geometry`` alone."""
    rep = CheckReport()
    states = [solve_r(geometry, 3)] if geometry is not None else \
        _kind_states(order, seed, 3)
    for st in states:
        chart = st.geometry.chart
        kind = st.geometry.kind
        rng = sampling.make_rng(("assoc", kind, seed))
        for t in range(25):
            f = sampling.random_polynomial(rng, chart, order, degree=2,
                                           terms=3)
            g = sampling.random_polynomial(rng, chart, order, degree=2,
                                           terms=3)
            h = sampling.random_polynomial(rng, chart, order, degree=2,
                                           terms=3)
            lhs = _assoc_coefficients(f, g, h, st, True)
            rhs = _assoc_coefficients(f, g, h, st, False)
            ok = all(a.agrees_with(b) for a, b in zip(lhs, rhs))
            rep.add(f"{kind} associativity", ok, f"sample {t}")
    return rep


def correspondence_suite(order=9, seed=0, geometry=None):
    """f*g - g*f = i hbar {f, g} + O(hbar^2) on 25 pairs per geometry kind,
    or on ``geometry`` alone."""
    rep = CheckReport()
    states = [solve_r(geometry, 1)] if geometry is not None else \
        _kind_states(order, seed, 1)
    for st in states:
        geom = st.geometry
        chart = geom.chart
        rng = sampling.make_rng(("corr", geom.kind, seed))
        for t in range(25):
            f = sampling.random_polynomial(rng, chart, order, degree=3,
                                           terms=4)
            g = sampling.random_polynomial(rng, chart, order, degree=3,
                                           terms=4)
            fg = star(f, g, st, 1)
            gf = star(g, f, st, 1)
            ok0 = (fg.coefficient(0) - gf.coefficient(0)).is_zero()
            pb = poisson(f, g, geom) * I
            ok1 = (fg.coefficient(1) - gf.coefficient(1)).agrees_with(pb)
            rep.add(f"{geom.kind} correspondence", ok0 and ok1,
                    f"sample {t}")
    return rep


# -- cotangent suites ------------------------------------------------------

def _cotangent_battery(order, seed):
    """Converged states for five seeded base metrics, one per entry of
    ``_BATTERY_DIMS``."""
    return [_state("cotangent", n, order, 3, (seed, t))
            for t, n in enumerate(_BATTERY_DIMS)]


def _star_closes(x, y, state, first_order):
    """Whether the star coefficients of x * y are xy, then (i/2){x, y} if
    ``first_order``, and zero at every later hbar power."""
    s = star(x, y, state)
    want = [x * y]
    if first_order:
        want.append(poisson(x, y, state.geometry) * HALF_I)
    return (all(s.coefficient(k).agrees_with(w) for k, w in enumerate(want))
            and all(s.coefficient(k).is_zero()
                    for k in range(len(want), s.valid_hbar_order + 1)))


def kompi_suite(order=11, seed=0):
    """Polarization-compatibility star conditions on lifted connections.

    For polarized f, g (momentum-free) and h affine in the momenta:
    f*g = fg exactly, and f*h, h*f close at first order in hbar.
    """
    rep = CheckReport()
    for t, state in enumerate(_cotangent_battery(order, seed)):
        rng = sampling.make_rng(("kompi", seed, t))
        n = state.geometry.n
        chart = state.geometry.chart
        f, g = (sampling.random_p_polynomial(rng, chart, n, order, p_degree=0,
                                             q_degree=3, terms=3)
                for _ in range(2))
        h = sampling.random_p_polynomial(rng, chart, n, order, p_degree=1,
                                         q_degree=2, terms=3)
        rep.add("polarized f*g = fg", _star_closes(f, g, state, False),
                f"metric {t}")
        for (x, y, nm) in ((f, h, "f*h"), (h, f, "h*f")):
            rep.add(f"{nm} closes at first order",
                    _star_closes(x, y, state, True), f"metric {t}")
    return rep


def _p_euler(f, geom):
    """p_i df/dp_i, the fiber-scaling derivation on a phase-space jet."""
    n = geom.n
    acc = JetSum()
    for i in range(n):
        d = f.partial(n + i)
        if not d.is_zero():
            acc.add(d.mul_variable(n + i))
    return acc.jet(Jet.zero(geom.chart, max(f.valid_order - 1, 0)))


def cotangent_homogeneity_suite(order=11, seed=0):
    """H = p_i d/dp_i + hbar d/dhbar is a derivation of the star product."""
    rep = CheckReport()
    for t, state in enumerate(_cotangent_battery(order, seed)):
        rng = sampling.make_rng(("homog", seed, t))
        geom = state.geometry
        f, g = (sampling.random_p_polynomial(rng, geom.chart, geom.n, order,
                                             p_degree=2, q_degree=2, terms=3)
                for _ in range(2))
        s = star(f, g, state)
        s1 = star(_p_euler(f, geom), g, state)
        s2 = star(f, _p_euler(g, geom), state)
        rep.expect("H is a star derivation", (
            (f"metric {t}, hbar^{k}",
             (_p_euler(s.coefficient(k), geom) + s.coefficient(k) * k)
             .agrees_with(s1.coefficient(k) + s2.coefficient(k)))
            for k in range(state.n_hbar + 1)))
    return rep


# -- kaehler orders --------------------------------------------------------

def _kaehler_third_order_jet(geom, a, m):
    """(1/64) R^a_{b c dbar} R_{m nbar k lbar} A^{dbar k} A^{nbar b} A^{lbar c}.

    The common magnitude of the two cancelling third-order contributions to
    z^a * (-i d_m K).
    """
    n = geom.n
    curv = geom.curvature()
    a_inv = geom.source["A_inv"]
    zero = geom.zero_jet()
    acc = JetSum()
    for b in range(n):
        for c in range(n):
            for d in range(n):
                r1 = curv.r_up.get((a, b, c, n + d))
                if r1 is None:
                    continue
                for k in range(n):
                    for l in range(n):
                        for nn in range(n):
                            r2 = curv.r_low.get((m, n + nn, k, n + l))
                            if r2 is None:
                                continue
                            acc.add(r1 * r2 * a_inv[d][k] * a_inv[nn][b],
                                    a_inv[l][c], Fraction(1, 64))
    return acc.jet(zero)


def _third_order(fhat, hhat, wf, wh, zero):
    """The hbar^3 coefficient of the weight-wf part of fhat times the
    weight-wh part of hhat."""
    c = symbol_mul(pi_weight(fhat, wf), pi_weight(hhat, wh), max_hbar=3)
    return c.get(3, zero)


def kaehler_orders_suite(order=12, seed=0):
    """Order-by-order behaviour of the star product on complex charts.

    For each linear holomorphic f = z^a and each h = -i d_m K: the hbar^2
    and hbar^3 coefficients vanish, with the two third-order contributions
    (section weights 3+3 and 5+1 / 1+5) individually matching the curvature
    contraction that cancels between them; a holomorphic pair multiplies
    pointwise.
    """
    rep = CheckReport()
    for t, n in enumerate(_BATTERY_DIMS):
        state = _state("kaehler", n, order, 3, (seed, t))
        geom = state.geometry
        zero = geom.zero_jet()
        potential = geom.source["potential"]
        for a in range(n):
            f = Jet.variable(geom.chart, a, order)
            for m in range(n):
                where = f"potential {t}, (a,m)=({a},{m})"
                h = potential.partial(m) * (-I)
                rep.add("z^a * (-i dK) closes at first order",
                        _star_closes(f, h, state, True), where)
                # every pairing landing at hbar^3 reads terms with
                # k + |alpha| <= 3 only
                fhat = flat_section(f, state, 3)
                hhat = flat_section(h, state, 3)
                contraction = _kaehler_third_order_jet(geom, a, m)
                rep.add("weight (3,3) third-order contribution",
                        _third_order(fhat, hhat, 3, 3, zero).agrees_with(
                            -contraction), where)
                cross = _third_order(fhat, hhat, 5, 1, zero) \
                    + _third_order(fhat, hhat, 1, 5, zero)
                rep.add("weight (5,1)+(1,5) third-order contribution",
                        cross.agrees_with(contraction), where)
        rng = sampling.make_rng(("kaehler-orders", seed, t))
        coeffs = {}
        for _ in range(3):
            alpha = [0] * (2 * n)
            for _ in range(rng.randint(1, 3)):
                alpha[rng.randrange(n)] += 1
            key = tuple(alpha)
            coeffs[key] = coeffs.get(key, 0) + sampling.random_rational(rng)
        hol = Jet(geom.chart, order, order, coeffs)
        rep.add("holomorphic f*g = fg",
                _star_closes(Jet.variable(geom.chart, 0, order), hol, state,
                             False), f"potential {t}")
    return rep


# -- kinetic energy --------------------------------------------------------

def kinetic_alpha_suite(order=9, seed=0):
    """The half-form scalar-curvature coefficient is exactly 1/4, on the
    round sphere and three random metrics.  A kinetic residual that
    ``kinetic_alpha`` rejects fails its entry, which names the chart and
    the error."""
    rep = CheckReport()
    cases = [("round sphere alpha", "", sampling.sphere_metric(order))]
    for t in range(3):
        rng = sampling.make_rng(("kinetic", seed, t))
        cases.append(("random metric alpha", f"sample {t}",
                      sampling.random_metric(rng, 2, order)))
    for name, where, metric in cases:
        geom = lift_cotangent(metric, order)
        try:
            ok = kinetic_alpha(geom, solve_r(geom, 2)) == Fraction(1, 4)
        except QuantizationError as exc:
            ok, where = False, f"{where or 'round sphere'}: {exc}"
        rep.add(name, ok, where)
    return rep


# -- flat representations --------------------------------------------------

def _mccoy(chart, order, var, m, k, base_op):
    """Symmetrized operator for x^m y^k with [x, y-op] canonical.

    (1/2^m) sum_j C(m,j) x^j (y-op)^k x^(m-j), the standard fully
    symmetrized ordering for a single conjugate pair.
    """
    x = Jet.variable(chart, var, order)
    powers = [DiffOp.identity(chart, order)]
    for _ in range(m):
        powers.append(diffop_compose(DiffOp.mult(x), powers[-1]))
    opk = DiffOp.identity(chart, order)
    for _ in range(k):
        opk = diffop_compose(base_op, opk)
    return _diffop_sum(chart, (
        (diffop_compose(powers[j], diffop_compose(opk, powers[m - j])),
         Fraction(comb(m, j), 2 ** m), 0)
        for j in range(m + 1)))


def weyl_quantize(geom, fib_coeffs, base_ops):
    """Symmetrized quantization of monomials q^beta p^I on a flat chart.

    ``base_ops[i]`` is the operator representing the i-th fiber variable;
    distinct coordinate pairs commute, so the symmetrization factorizes
    into per-pair symmetrized products.
    """
    n = geom.n
    sub = base_ops[0].chart
    order = geom.order
    terms = []
    for (beta, fib), coeff in fib_coeffs.items():
        term = DiffOp.mult(Jet.constant(sub, coeff, order))
        for i in range(n):
            if beta[i] or fib[i]:
                term = diffop_compose(
                    term, _mccoy(sub, order, i, beta[i], fib[i],
                                 base_ops[i]))
        terms.append((term, 1, 0))
    return _diffop_sum(sub, terms)


def _as_monomials(jet, geom):
    """Exact monomial expansion {(beta, fib): coefficient} of a jet."""
    n = geom.n
    if any(b for b in geom.chart.base):
        raise QuantizationError("monomial expansion needs a centered chart")
    return {(alpha[:n], alpha[n:]): c for alpha, c in jet.coeffs.items()}


def flat_reps_suite(order=11, seed=0):
    """Representation homomorphisms and factorization independence.

    The position and Fock representations of six seeded monomial pairs
    are checked against the direct exponential product through hbar^3 on
    their flat charts, and ``rho_extend`` against its two splitting rules
    on 10 momentum polynomials.
    """
    rep = CheckReport()
    rng = sampling.make_rng(("flat-reps", seed))
    monomials = []
    for _ in range(6):
        m1 = ((rng.randint(0, 2),), (rng.randint(0, 3),))
        m2 = ((rng.randint(0, 2),), (rng.randint(0, 3),))
        monomials.append((m1, m2))
    geom_real = build_flat(1, order)
    geom_fock = build_kaehler(
        Jet.variable(complex_chart(1), 0, order)
        * Jet.variable(complex_chart(1), 1, order), order)
    # position: q multiplies, p = -i hbar d_q; Fock: z multiplies,
    # zbar = hbar d_z; each scale is its polarization's
    for tag, geom in (("position", geom_real), ("Fock", geom_fock)):
        pol = polarization(geom)
        sub = pol.chart
        base_ops = [DiffOp.deriv(sub, 0, Jet.constant(sub, pol.scale, order),
                                 1)]
        for mono1, mono2 in monomials:
            # q^beta p^fib for each (beta, fib)
            f, g = (Jet.constant(geom.chart, 1, order).mul_monomial(b + p)
                    for b, p in (mono1, mono2))
            of = weyl_quantize(geom, {mono1: CRat(1)}, base_ops)
            og = weyl_quantize(geom, {mono2: CRat(1)}, base_ops)
            lhs = diffop_compose(of, og)
            s = moyal_reference(f, g, geom, 3)
            rhs = _diffop_sum(sub, (
                (weyl_quantize(geom, _as_monomials(ck, geom), base_ops), 1, k)
                for k, ck in enumerate(s.coefficients) if not ck.is_zero()))
            rep.add(f"{tag} homomorphism on monomials",
                    lhs.truncate_hbar(3).agrees_with(rhs.truncate_hbar(3)),
                    f"{mono1} x {mono2}")
    state = _state("flat", 1, order, 3)
    for t in range(10):
        f = sampling.random_p_polynomial(rng, state.geometry.chart, 1, order,
                                         p_degree=3, q_degree=3)
        a = rho_extend(f, state, split="first")
        b = rho_extend(f, state, split="last")
        rep.add("factorization independence", a.agrees_with(b),
                f"sample {t}")
    return rep


# -- structural identities -------------------------------------------------

def _random_form(rng, geom, order, terms=6):
    dim = 2 * geom.n
    out = {}
    for _ in range(terms):
        k = rng.randint(0, 1)
        alpha = [0] * dim
        for _ in range(rng.randint(0, 3)):
            alpha[rng.randrange(dim)] += 1
        beta = tuple(sorted(rng.sample(range(dim), rng.randint(0, 2))))
        key = (k, tuple(alpha), beta)
        jet = sampling.random_polynomial(rng, geom.chart, order, degree=2,
                                         terms=2)
        out[key] = out[key] + jet if key in out else jet
    return WeylForm(geom, out)


def _number_op(a):
    terms = {}
    for (k, alpha, beta), jet in a.terms.items():
        w = sum(alpha) + len(beta)
        if w:
            terms[(k, alpha, beta)] = jet * w
    return WeylForm(a.geometry, terms)


def structural_suite(order=6, seed=0):
    """Chain identities of delta, its adjoint, and the curvature square."""
    rep = CheckReport()
    rng = sampling.make_rng(("structural", seed))
    geoms = [
        build_darboux(1, sampling.random_darboux_gamma(rng, 1, order), order),
        lift_cotangent(sampling.random_metric(rng, 1, order), order),
        lift_cotangent(sampling.random_metric(rng, 2, order), order),
        build_kaehler(sampling.random_kaehler_potential(rng, 1, order),
                      order),
    ]
    for geom in geoms:
        kind = geom.kind + f" n={geom.n}"
        rep.add(f"{kind} connection validation", geom.validation().passed)
        rhat = build_rhat(geom)
        for t in range(4):
            a = _random_form(rng, geom, order)
            rep.add(f"{kind} delta^2 = 0", op_delta(op_delta(a)).is_zero(),
                    f"sample {t}")
            rep.add(f"{kind} delta*^2 = 0",
                    op_delta_star(op_delta_star(a)).is_zero(), f"sample {t}")
            anti = op_delta(op_delta_star(a)) + op_delta_star(op_delta(a))
            rep.add(f"{kind} delta delta* + delta* delta = (l+p) id",
                    anti.agrees_with(_number_op(a)), f"sample {t}")
            dec = op_delta(op_delta_inv(a)) + op_delta_inv(op_delta(a)) \
                + scalar_part(a)
            rep.add(f"{kind} homotopy decomposition", dec.agrees_with(a),
                    f"sample {t}")
        a = _random_form(rng, geom, order, terms=3)
        lhs = nabla(nabla(a, geom), geom)
        rhs = WeylForm.from_sums(geom, graded_commutator(
            rhat, a, defaultdict(JetSum)))
        rep.add(f"{kind} nabla^2 = (i/hbar)[Rhat, .]", lhs.agrees_with(rhs))
    return rep


SUITES = {
    "moyal-flat": moyal_flat_suite,
    "associativity": associativity_suite,
    "correspondence": correspondence_suite,
    "r-terms": r_terms_suite,
    "cotangent-homogeneity": cotangent_homogeneity_suite,
    "kompi": kompi_suite,
    "kaehler-orders": kaehler_orders_suite,
    "kinetic-alpha": kinetic_alpha_suite,
    "flat-reps": flat_reps_suite,
    "second-order": second_order_suite,
    "structural": structural_suite,
}

