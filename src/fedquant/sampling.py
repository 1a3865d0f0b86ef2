"""Seeded random inputs for the check suites.

Everything here is driven by ``random.Random`` so a seed pins the whole
sample; coefficients are small rationals to keep the exact arithmetic fast.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .jets import Chart, Jet
from .geometry import complex_chart, phase_chart


def make_rng(seed):
    return random.Random(repr(seed))


def random_rational(rng, num=4, den=3):
    """A small nonzero rational."""
    n = 0
    while n == 0:
        n = rng.randint(-num, num)
    return Fraction(n, rng.randint(1, den))


def random_polynomial(rng, chart, order, degree=4, terms=6):
    """Sparse polynomial jet with small rational coefficients.

    Coefficients are Taylor data about the chart base point, so the sample
    is a polynomial in the displacement variables.
    """
    dim = chart.dim
    coeffs = {}
    for _ in range(terms):
        alpha = [0] * dim
        for _ in range(rng.randint(0, degree)):
            alpha[rng.randrange(dim)] += 1
        key = tuple(alpha)
        c = coeffs.get(key, 0) + random_rational(rng)
        coeffs[key] = c
    if not any(coeffs.values()):
        coeffs[(0,) * dim] = Fraction(1)
    return Jet(chart, order, order, coeffs)


def random_p_polynomial(rng, chart, n, order, p_degree=3, q_degree=3,
                        terms=5):
    """Polynomial on a phase chart with bounded momentum degree."""
    coeffs = {}
    for _ in range(terms):
        alpha = [0] * (2 * n)
        for _ in range(rng.randint(0, q_degree)):
            alpha[rng.randrange(n)] += 1
        for _ in range(rng.randint(0, p_degree)):
            alpha[n + rng.randrange(n)] += 1
        key = tuple(alpha)
        coeffs[key] = coeffs.get(key, 0) + random_rational(rng)
    if not any(coeffs.values()):
        coeffs[(0,) * 2 * n] = Fraction(1)
    return Jet(chart, order, order, coeffs)


def random_darboux_gamma(rng, n, order):
    """Fully symmetric lowered Christoffel jets on a Darboux chart.

    Generated as third partials of one random scalar of 8 draws of degree
    at most 5, which makes the total symmetry automatic.
    """
    chart = phase_chart(n)
    s = random_polynomial(rng, chart, order + 3, degree=5, terms=8)
    dim = 2 * n
    out = {}
    for i in range(dim):
        for j in range(i, dim):
            dij = s.partial(i).partial(j)
            for k in range(j, dim):
                jet = dij.partial(k)
                if jet.is_zero():
                    continue
                for key in {(i, j, k), (i, k, j), (j, i, k), (j, k, i),
                            (k, i, j), (k, j, i)}:
                    out[key] = jet
    return out


def random_metric(rng, n, order):
    """Identity plus a sparse symmetric perturbation vanishing at the base.

    The base point is q_k = k/(k + 2), k = 1 ... n, and each entry draws 3
    monomials of degree 1 to 3.  The perturbation has no constant term, so
    the matrix is invertible at the base point regardless of the draw.
    """
    chart = Chart(tuple(f"q{i+1}" for i in range(n)),
                  tuple(Fraction(k + 1, k + 3) for k in range(n)))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            coeffs = {}
            if i == j:
                coeffs[(0,) * n] = Fraction(1)
            for _ in range(3):
                alpha = [0] * n
                for _ in range(rng.randint(1, 3)):
                    alpha[rng.randrange(n)] += 1
                key = tuple(alpha)
                coeffs[key] = coeffs.get(key, 0) + \
                    random_rational(rng, num=2, den=3)
            jet = Jet(chart, order, order, coeffs)
            rows[i][j] = jet
            rows[j][i] = jet
    return rows


def sphere_metric(order):
    """Round-sphere metric 4 delta_ij / (1 + x^2 + y^2)^2 about the point
    (1/2, 1/3)."""
    chart = Chart(("q1", "q2"), (Fraction(1, 2), Fraction(1, 3)))
    x = Jet.variable(chart, 0, order)
    y = Jet.variable(chart, 1, order)
    conf = Jet.constant(chart, 1, order) + x * x + y * y
    fac = (conf * conf).invert() * 4
    zero = Jet.zero(chart, order)
    return [[fac, zero], [zero, fac]]


def random_kaehler_potential(rng, n, order):
    """Real potential: flat part plus sparse conjugation-symmetric terms.

    There are max(3, n) perturbation monomials, of total degree 3 or 4,
    which keeps the mixed Hessian invertible at the base point, and the
    first draw is forced to mix a variable with its conjugate so the
    curvature is nonzero.  For n > 1 each monomial stays within one
    conjugate pair: that keeps the inverse Hessian sparse enough for exact
    arithmetic at the top working orders, while the n = 1 draws remain
    generic.
    """
    chart = complex_chart(n)
    coeffs = {}
    for a in range(n):
        key = tuple(1 if k in (a, n + a) else 0 for k in range(2 * n))
        coeffs[key] = Fraction(1)

    def add(alpha, beta):
        c = random_rational(rng, num=2, den=4)
        key = tuple(alpha) + tuple(beta)
        conj_key = tuple(beta) + tuple(alpha)
        coeffs[key] = coeffs.get(key, 0) + c
        coeffs[conj_key] = coeffs.get(conj_key, 0) + c

    for t in range(max(3, n)):
        alpha = [0] * n
        beta = [0] * n
        block = t % n if n > 1 else 0
        alpha[block] += 1
        beta[block] += 1
        extra = rng.randint(1, 2)
        for _ in range(extra):
            if n > 1:
                slot = block
            else:
                slot = rng.randrange(n)
            if rng.random() < 0.5:
                alpha[slot] += 1
            else:
                beta[slot] += 1
        add(alpha, beta)
    return Jet(chart, order, order, coeffs)
