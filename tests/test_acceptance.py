"""End-to-end acceptance battery.

Nine exact property suites at desk scale: n <= 2, hbar order <= 3 (the
flat comparison runs through hbar^4), jet order <= 12.  Every comparison
is exact rational equality; seeded generators make each run reproducible.
"""

import time

from fedquant import suites


SEED = 2026


def _run(fn, budget=None, **kw):
    t0 = time.time()
    rep = fn(seed=SEED, **kw)
    elapsed = time.time() - t0
    assert rep.passed, "\n" + str(rep)
    if budget is not None:
        assert elapsed < budget, f"took {elapsed:.1f}s, budget {budget}s"
    return rep


def test_flat_star_equals_direct_product():
    """50 random polynomial pairs on flat charts, exact through hbar^4."""
    rep = _run(suites.moyal_flat_suite, budget=30, samples=50, n_hbar=4)
    assert len(rep.checks) == 50


def test_second_order_star_coefficients():
    """10 random symplectic connections: the hbar^1 and hbar^2 terms.

    hbar^1 = -(i/2) omega(X_f, X_g) and hbar^2 = (1/8)(nabla_j X_f)^b
    (nabla_b X_g)^j; the 1/8 normalization is the one consistent with the
    flat exponential product and the pair contraction, which the flat
    suite pins down independently.
    """
    _run(suites.second_order_suite, budget=60, samples=10)


def test_r_series_closed_forms():
    """Leading curvature terms of the flatness solution, exact."""
    _run(suites.r_terms_suite, samples=3)


def test_associativity_and_correspondence():
    """25 seeded triples per geometry kind, through hbar^3."""
    t0 = time.time()
    rep = suites.associativity_suite(seed=SEED, samples=25)
    assert rep.passed, "\n" + str(rep)
    rep = suites.correspondence_suite(seed=SEED, samples=25)
    assert rep.passed, "\n" + str(rep)
    elapsed = time.time() - t0
    assert elapsed < 120, f"took {elapsed:.1f}s, budget 120s"


def test_cotangent_homogeneity_and_compatibility():
    """5 lifted base metrics (n = 1, 2): derivation property and the
    polarization compatibility conditions, through hbar^3."""
    _run(suites.cotangent_homogeneity_suite, metrics=5)
    _run(suites.kompi_suite, metrics=5)


def test_kinetic_energy_coefficient():
    """alpha = 1/4 on the round sphere and three random analytic metrics."""
    _run(suites.kinetic_alpha_suite, budget=120, metrics=3)


def test_kaehler_order_structure():
    """5 random potentials (n = 1, 2): vanishing hbar^2/hbar^3 mixed
    coefficients with the third-order contributions matched individually,
    and pointwise products of holomorphic pairs."""
    _run(suites.kaehler_orders_suite, potentials=5)


def test_representation_homomorphisms():
    """Position and Fock representations against the exponential product,
    plus factorization independence on 10 random momentum polynomials."""
    _run(suites.flat_reps_suite, polynomials=10)


def test_structural_identities():
    """Differential chain rules, the homotopy decomposition, the number
    operator identity, and the curvature square, on random inputs."""
    _run(suites.structural_suite)
