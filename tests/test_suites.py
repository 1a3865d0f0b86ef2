"""Check suites keep no solved state between calls."""

from fedquant import suites


def test_suite_cost_does_not_depend_on_earlier_suites(monkeypatch):
    calls = []
    original = suites.solve_r

    def counting(geom, n_hbar, *args):
        calls.append(n_hbar)
        return original(geom, n_hbar, *args)

    monkeypatch.setattr(suites, "solve_r", counting)
    assert suites.kompi_suite(metrics=1).passed
    fresh = len(calls)
    assert suites.cotangent_homogeneity_suite(metrics=1).passed
    calls.clear()
    assert suites.kompi_suite(metrics=1).passed
    assert fresh == len(calls) == 1
