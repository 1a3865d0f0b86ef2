"""The benchmark's workloads: chart descriptions, query streams and checks.

A workload turns chart descriptions (seeded sampled jets, or a committed
geometry file) into solved ``FedosovState`` objects through fedquant's
public constructors, then issues queries against those states in a closed
loop with one caller.  Every query group ends in an exact check.

Inputs come from ``fedquant.sampling`` driven by the run's seed; generating
them is never timed.  The first ``prefix`` query groups of a run are fixed
by the seed alone: their outputs feed the digest and their time feeds
``total_s``, so both compare across commits whatever the machine's speed.
"""

from __future__ import annotations

import gc
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from time import perf_counter
from typing import Callable

from fedquant import sampling
from fedquant.cli import load_geometry
from fedquant.fedosov import check_flatness, solve_r, star
from fedquant.geometry import (build_darboux, build_kaehler, lift_cotangent,
                               phase_chart, poisson)
from fedquant.jets import Jet
from fedquant.quantization import kinetic_alpha, rho_extend
from fedquant.rational import I

SPHERE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "geometries", "round_sphere.json")


@dataclass(frozen=True)
class ChartSpec:
    """One chart description: ``make`` is untimed, ``build`` is timed."""

    make: Callable[[], object]
    build: Callable[[object], object]
    n_hbar: int


@dataclass(frozen=True)
class Workload:
    name: str
    charts: Callable[[int], list]          # seed -> [ChartSpec]
    groups: Callable[[int, list], object]  # seed, states -> iterator
    setup_reps: int                        # setups per untraced run
    prefix: int                            # fixed query groups per run


class _Draws:
    """Seeded inputs whose monomial structure does not depend on the seed.

    Each input is first drawn by ``fedquant.sampling`` from a shape stream
    fixed per workload, then every coefficient is redrawn from the seed's
    stream.  The seed therefore changes every exact value while the amount
    of work per query stays put: costs in exact arithmetic follow the
    monomial structure, and runs at different seeds must be comparable.
    """

    def __init__(self, workload, seed, tag):
        self.shape = sampling.make_rng(("bench-shape", workload, tag))
        self.values = sampling.make_rng(("bench", workload, seed, tag))

    def reseed(self, jet, keep=lambda alpha: False, num=4, den=3):
        return Jet(jet.chart, jet.max_order, jet.valid_order,
                   {a: c if keep(a)
                    else sampling.random_rational(self.values, num, den)
                    for a, c in sorted(jet.coeffs.items())})

    def polynomial(self, chart, order, **kw):
        return self.reseed(
            sampling.random_polynomial(self.shape, chart, order, **kw))

    def p_polynomial(self, chart, n, order, **kw):
        return self.reseed(
            sampling.random_p_polynomial(self.shape, chart, n, order, **kw))

    def kaehler_potential(self, n, order):
        """Flat part kept; conjugate monomials share one real coefficient."""
        shape = sampling.random_kaehler_potential(self.shape, n, order)
        coeffs = {}
        for a, c in sorted(shape.coeffs.items()):
            if sum(a) == 2:
                coeffs[a] = c
            elif a not in coeffs:
                coeffs[a] = coeffs[a[n:] + a[:n]] = \
                    sampling.random_rational(self.values, num=2, den=4)
        return Jet(shape.chart, order, order, coeffs)

    def metric(self, n, order):
        """Identity kept; the perturbation still vanishes at the base."""
        shape = sampling.random_metric(self.shape, n, order)
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = self.reseed(
                    shape[i][j], keep=lambda a: not sum(a), num=2, den=3)
        return rows

    def darboux_gamma(self, n, order):
        """Third partials of one scalar, as ``random_darboux_gamma``."""
        scalar = self.polynomial(phase_chart(n), order + 3, degree=5,
                                 terms=8)
        out = {}
        for i in range(2 * n):
            for j in range(i, 2 * n):
                dij = scalar.partial(i).partial(j)
                for k in range(j, 2 * n):
                    jet = dij.partial(k)
                    if not jet.is_zero():
                        for key in set(permutations((i, j, k))):
                            out[key] = jet
        return out


# -- assoc-kaehler-n1 ------------------------------------------------------

def _kaehler_charts(seed):
    return [ChartSpec(
        lambda: _Draws("assoc-kaehler-n1", seed, "potential")
        .kaehler_potential(1, 12),
        lambda potential: build_kaehler(potential, 12),
        3)]


def _assoc_side(f, g, h, state, left):
    """Coefficients of (f*g)*h (left) or f*(g*h) through the state order.

    One ``star`` per distinct product: the inner one, then the outer
    product with each nonzero inner coefficient c_k, truncated at N - k.
    """
    n = state.n_hbar
    inner = star(f, g, state) if left else star(g, h, state)
    out = [state.geometry.zero_jet()] * (n + 1)
    for k in range(n + 1):
        ck = inner.coefficient(k)
        if ck.is_zero():
            continue
        outer = star(ck, h, state, n - k) if left \
            else star(f, ck, state, n - k)
        for j in range(n - k + 1):
            out[k + j] = out[k + j] + outer.coefficient(j)
    return tuple(out)


def _assoc_triple(f, g, h, state):
    """One query: both sides of (f*g)*h = f*(g*h), about ten star calls.

    Timing single star calls instead would give a latency sample split
    half and half between cached calls under 20 ms and fresh ones over
    45 ms, whose median jumps between the two from run to run.
    """
    return (_assoc_side(f, g, h, state, True),
            _assoc_side(f, g, h, state, False))


def _kaehler_groups(seed, states):
    state = states[0]
    chart = state.geometry.chart
    draws = _Draws("assoc-kaehler-n1", seed, "triples")
    while True:
        f, g, h = (draws.polynomial(chart, 12, degree=2, terms=3)
                   for _ in range(3))

        def group(rec, f=f, g=g, h=h):
            lhs, rhs = rec.op(_assoc_triple, f, g, h, state)
            rec.check("(f*g)*h == f*(g*h) through hbar^3",
                      lambda: all(a.agrees_with(b)
                                  for a, b in zip(lhs, rhs)))
        yield group


# -- solve-n2 --------------------------------------------------------------

def _solve_charts(seed):
    def draws(tag):
        return _Draws("solve-n2", seed, tag)
    return [
        ChartSpec(lambda: draws("metric").metric(2, 11),
                  lambda metric: lift_cotangent(metric, 11), 3),
        ChartSpec(lambda: draws("potential").kaehler_potential(2, 12),
                  lambda potential: build_kaehler(potential, 12), 3),
        ChartSpec(lambda: draws("gamma").darboux_gamma(2, 9),
                  lambda gamma: build_darboux(2, gamma, 9), 2),
    ]


def _solve_groups(seed, states):
    draws = _Draws("solve-n2", seed, "pairs")
    first = True
    while True:
        for state in states:
            geom = state.geometry
            f, g = (draws.polynomial(geom.chart, geom.order, degree=3,
                                     terms=4) for _ in range(2))

            def group(rec, f=f, g=g, state=state, geom=geom,
                      flatness=first):
                fg = rec.op(star, f, g, state, 1)
                gf = rec.op(star, g, f, state, 1)
                rec.check(f"{geom.kind}: f*g - g*f = i hbar {{f, g}}",
                          lambda: (fg.coefficient(0)
                                   - gf.coefficient(0)).is_zero()
                          and (fg.coefficient(1) - gf.coefficient(1))
                          .agrees_with(poisson(f, g, geom) * I))
                if flatness:
                    # known defect: on the Darboux n=2 chart at N=2 the
                    # weight-4 residual is nonzero in the top two certified
                    # jet orders (see README); it is digested, not checked
                    residual = check_flatness(state)
                    rec.output(residual)
                    if geom.kind != "darboux":
                        rec.check(f"{geom.kind}: flatness residual is zero",
                                  lambda: residual == {})
            yield group
        first = False


# -- quantize-cotangent-n2 -------------------------------------------------

def _quantize_charts(seed):
    def metric(t):
        return lambda: _Draws("quantize-cotangent-n2", seed,
                              f"metric {t}").metric(2, 9)
    sphere = ChartSpec(lambda: SPHERE_FILE, lambda path: load_geometry(path),
                       2)
    return [sphere] + [ChartSpec(metric(t), lambda m: lift_cotangent(m, 9), 2)
                       for t in range(2)]


def _quantize_groups(seed, states):
    draws = _Draws("quantize-cotangent-n2", seed, "observables")
    for state in states:
        def group(rec, state=state):
            alpha = rec.op(kinetic_alpha, state.geometry, state)
            rec.check(f"{state.geometry.kind}: kinetic alpha == 1/4",
                      lambda: alpha == Fraction(1, 4))
        yield group
    while True:
        for state in states:
            f = draws.p_polynomial(state.geometry.chart, 2, 9, p_degree=2,
                                   q_degree=2, terms=3)

            def group(rec, f=f, state=state):
                a, b = rec.op(_both_splits, f, state)
                rec.check("rho_extend: split first == split last",
                          lambda: a.agrees_with(b))
            yield group


def _both_splits(f, state):
    """One quantization query: rho(f) under both star factorizations."""
    return (rho_extend(f, state, split="first"),
            rho_extend(f, state, split="last"))


# setup_reps and prefix give each untraced run 15-60 s of measured work on
# a 2-core box: enough samples for steady medians, and under 2 minutes for
# one run of every workload even when the host runs at half speed; one
# solve-n2 setup alone takes 13-25 s, so it is repeated only twice
WORKLOADS = {w.name: w for w in (
    Workload("assoc-kaehler-n1", _kaehler_charts, _kaehler_groups,
             setup_reps=5, prefix=10),
    Workload("solve-n2", _solve_charts, _solve_groups,
             setup_reps=2, prefix=9),
    Workload("quantize-cotangent-n2", _quantize_charts, _quantize_groups,
             setup_reps=3, prefix=12),
)}


def setup(workload, seed):
    """(start, end, states): build and solve every chart of the workload.

    Only building (parse, construct, validate) and ``solve_r`` fall between
    start and end; the chart descriptions are sampled first.
    """
    specs = workload.charts(seed)
    inputs = [spec.make() for spec in specs]
    gc.collect()
    t0 = perf_counter()
    states = [solve_r(spec.build(x), spec.n_hbar)
              for spec, x in zip(specs, inputs)]
    return t0, perf_counter(), states
