"""End-to-end acceptance battery.

Every suite of ``suites.SUITES`` at desk scale: n <= 2, hbar order <= 3
(the flat comparison runs through hbar^4), jet order <= 12.  Every
comparison is exact rational equality; seeded generators make each run
reproducible, and each report's entries are pinned by digest.
"""

import hashlib
import json
import time

from fedquant import suites


SEED = 2026

# per suite: wall-clock budget in seconds (None for none), and the sha256
# of json.dumps of the report's [name, passed, location] entries
RUNS = {
    "moyal-flat": (
        30,
        "729fd6316e9ef9a61aea24e73a6392ed0cded8fe0b1dcddda4227b78a9b79f9b"),
    "second-order": (
        60,
        "ca7f9057bee8c976406aae2ce71a0f6f0d6c43fc7a84fcf4fa509577406dd1de"),
    "r-terms": (
        None,
        "fa1a564700a1fa774dd1863c1dea81a1effc8a0daded8c4771a6b0da76c50e0f"),
    "associativity": (
        60,
        "38faad4aac6b36a689dabe5d6722f96fe246a05dfea58d4904a054237599caea"),
    "correspondence": (
        60,
        "ed43fc461ec0d8cc2ffd6f1837352acce245415c0c6e22db78c637dd394e8179"),
    "cotangent-homogeneity": (
        None,
        "722282a6d78c2b13c3dd080406b990c20f978e983887d85f2cd345c6c2041eb9"),
    "kompi": (
        None,
        "cec76dcea95b00215d41616196d18c19a750f83bc11a211591c4a619d114c515"),
    "kinetic-alpha": (
        120,
        "aba56a10df4d02368517e5712fa3b788840f5d32a39ed3a8086e96575072585a"),
    "kaehler-orders": (
        None,
        "0365f3bc265554ec31b01f481599df13a72164202d21276488c775f758eb4377"),
    "flat-reps": (
        None,
        "8953cee9f466e5b1183ccbd1c7e2b8588e72709ddf3672f8f269aa5ee950efa8"),
    "structural": (
        None,
        "1ae8233611f41fcc241dccd9feaf1ce896271bf41b0f9489a63f8af9b3a75036"),
}


def _run(name):
    budget, digest = RUNS[name]
    t0 = time.time()
    rep = suites.SUITES[name](seed=SEED)
    elapsed = time.time() - t0
    assert rep.passed, "\n" + str(rep)
    if budget is not None:
        assert elapsed < budget, f"took {elapsed:.1f}s, budget {budget}s"
    entries = [[c["name"], c["passed"], c["location"]] for c in rep.checks]
    assert hashlib.sha256(json.dumps(entries).encode()).hexdigest() == digest
    return rep


def test_the_battery_covers_every_suite():
    assert RUNS.keys() == suites.SUITES.keys()


def test_flat_star_equals_direct_product():
    """50 random polynomial pairs on flat charts, exact through hbar^4."""
    assert len(_run("moyal-flat").checks) == 50


def test_second_order_star_coefficients():
    """10 random symplectic connections: the hbar^1 and hbar^2 terms.

    hbar^1 = -(i/2) omega(X_f, X_g) and hbar^2 = (1/8)(nabla_j X_f)^b
    (nabla_b X_g)^j; the 1/8 normalization is the one consistent with the
    flat exponential product and the pair contraction, which the flat
    suite pins down independently.
    """
    _run("second-order")


def test_r_series_closed_forms():
    """Leading curvature terms of the flatness solution, exact."""
    _run("r-terms")


def test_associativity_and_correspondence():
    """25 seeded triples per geometry kind, through hbar^3."""
    _run("associativity")
    _run("correspondence")


def test_cotangent_homogeneity_and_compatibility():
    """5 lifted base metrics (n = 1, 2): derivation property and the
    polarization compatibility conditions, through hbar^3."""
    _run("cotangent-homogeneity")
    _run("kompi")


def test_kinetic_energy_coefficient():
    """alpha = 1/4 on the round sphere and three random analytic metrics."""
    _run("kinetic-alpha")


def test_kaehler_order_structure():
    """5 random potentials (n = 1, 2): vanishing hbar^2/hbar^3 mixed
    coefficients with the third-order contributions matched individually,
    and pointwise products of holomorphic pairs."""
    _run("kaehler-orders")


def test_representation_homomorphisms():
    """Position and Fock representations against the exponential product,
    plus factorization independence on 10 random momentum polynomials."""
    _run("flat-reps")


def test_structural_identities():
    """Differential chain rules, the homotopy decomposition, the number
    operator identity, and the curvature square, on random inputs."""
    _run("structural")
