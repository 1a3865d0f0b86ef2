"""Check suites keep no solved state between calls, and take no size
options."""

import inspect

import pytest

from fedquant import suites


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
