"""rho is a representation of the star algebra on curved cotangent lifts.

On each chart one seeded pair f, g of momentum degree exactly 2 is
quantized by ``rho_extend``, and the operator product must agree with the
quantized star product through hbar^4, under both split rules:

    rho(f) rho(g) = sum_k hbar^k rho(C_k(f, g)).

The charts are lifts at order 13 solved through N = 4, the momentum degree
of f g: the round sphere and the seeded draw of the n = 2 cotangent
digest chart.  This catches a ``_rho_build`` that leaves out its hbar^2 correction.  It
does not catch a ``_first_order`` with the log-volume term dropped: that
term enters rho(f) rho(g) and the quantized C_k alike, and the identity
still holds for the coordinate volume.  The ``kinetic-alpha`` suite is the
check for that term, since it compares rho of the kinetic energy with the
Laplace-Beltrami operator of the metric volume.
"""

import pytest

from fedquant import sampling
from fedquant.fedosov import solve_r, star
from fedquant.geometry import lift_cotangent
from fedquant.jets import Jet
from fedquant.quantization import (_diffop_sum, config_chart,
                                   diffop_compose, fiber_decompose,
                                   rho_extend)
from fedquant.suites import _CHARTS

ORDER, N = 13, 4

CHARTS = {
    "sphere": lambda: lift_cotangent(sampling.sphere_metric(ORDER), ORDER),
    "cotangent": lambda: _CHARTS["cotangent"](
        sampling.make_rng(("cotangent", 2, 0)), 2, ORDER),
}


def draw(rng, geom):
    """One seeded term of momentum degree at most 1, plus one
    c q^gamma p_a p_b with |gamma| <= 2, so the momentum degree is
    exactly 2."""
    n, order = geom.n, geom.order
    top = [0] * (2 * n)
    for _ in range(rng.randint(0, 2)):
        top[rng.randrange(n)] += 1
    for _ in range(2):
        top[n + rng.randrange(n)] += 1
    return (sampling.random_p_polynomial(rng, geom.chart, n, order,
                                         p_degree=1, q_degree=1, terms=1)
            + Jet(geom.chart, order, order,
                  {tuple(top): sampling.random_rational(rng)}))


@pytest.mark.parametrize("name", list(CHARTS))
def test_rho_of_a_star_product_is_the_operator_product(name):
    state = solve_r(CHARTS[name](), N)
    geom = state.geometry
    rng = sampling.make_rng(("curved-reps", name))
    f, g = draw(rng, geom), draw(rng, geom)
    for h in (f, g):
        assert max(sum(fib) for fib in fiber_decompose(h, geom)) == 2
    s = star(f, g, state)
    for split in ("first", "last"):
        lhs = diffop_compose(rho_extend(f, state, split),
                             rho_extend(g, state, split))
        rhs = _diffop_sum(config_chart(geom), (
            (rho_extend(s.coefficient(k), state, split), 1, k)
            for k in range(N + 1)))
        assert lhs.truncate_hbar(N).agrees_with(rhs.truncate_hbar(N)), split
