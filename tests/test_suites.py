"""Check suites keep no solved state between calls, take no size
options, and their closed forms see a wrong covariant derivative."""

import inspect
from fractions import Fraction

import pytest

from fedquant import quantization, suites
from fedquant.cli import main


def test_suite_cost_does_not_depend_on_earlier_suites(monkeypatch):
    calls = []
    original = suites.solve_r

    def counting(geom, n_hbar, *args):
        calls.append(n_hbar)
        return original(geom, n_hbar, *args)

    monkeypatch.setattr(suites, "solve_r", counting)
    assert suites.kompi_suite().passed
    fresh = len(calls)
    assert suites.cotangent_homogeneity_suite().passed
    calls.clear()
    assert suites.kompi_suite().passed
    assert fresh == len(calls)


@pytest.mark.parametrize("name", sorted(suites.SUITES))
def test_suites_take_only_order_seed_and_geometry(name):
    params = tuple(inspect.signature(suites.SUITES[name]).parameters)
    assert params in (("order", "seed"), ("order", "seed", "geometry"))


def test_a_rejected_kinetic_residual_fails_the_suite(monkeypatch, capsys):
    """With the log-volume term left out of the first-order operators,
    ``kinetic_alpha`` rejects the kinetic residual: each entry it rejects
    fails, naming its chart and the error, and the command exits 1 on a
    FAIL line instead of a traceback."""
    def without_log_volume(sums, u, j, pol):
        n = pol.chart.dim
        sums[tuple(int(k == j) for k in range(n)), 1].add(u, s=pol.scale)
        sums[(0,) * n, 1].add(u.partial(j), s=pol.scale * Fraction(1, 2))

    monkeypatch.setattr(quantization, "_first_order", without_log_volume)
    rep = suites.kinetic_alpha_suite()
    assert not rep.passed
    failed = [c["location"].split(": ", 1) for c in rep.checks
              if not c["passed"]]
    assert [chart for chart, _ in failed] \
        == ["round sphere", "sample 0", "sample 1", "sample 2"]
    assert all(error.startswith("kinetic residual contains")
               for _, error in failed)
    assert main(["check", "kinetic-alpha"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "kinetic residual contains" in out


@pytest.mark.parametrize("connection", [
    lambda gamma: {},
    lambda gamma: {key: g * 2 for key, g in gamma.items()}],
    ids=["no-Gamma", "doubled-Gamma"])
def test_the_closed_forms_see_a_wrong_covariant_derivative(connection,
                                                           monkeypatch):
    """With ``covariant_entry`` reading no Gamma, or 2 Gamma, the r_4
    oracle of ``r-terms`` and the hbar^2 closed form of ``second-order``
    fail on every sample, and no other check does."""
    original = suites.covariant_entry

    def mutant(tensor, gamma, *args, **kwargs):
        return original(tensor, connection(gamma), *args, **kwargs)

    monkeypatch.setattr(suites, "covariant_entry", mutant)
    for suite, name, samples in (
            (suites.r_terms_suite, "r_(4) = -(1/40) nabla R y^4 dx", 3),
            (suites.second_order_suite, "hbar^2 = (1/8)(nabla Xf)(nabla Xg)",
             10)):
        assert [(c["name"], c["location"]) for c in suite().checks
                if not c["passed"]] \
            == [(name, f"sample {t}") for t in range(samples)]
