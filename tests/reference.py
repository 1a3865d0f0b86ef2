"""Test-side references for the flat connection, built straight from the
equations.

The engine fills flat sections only through a level bound, from cached
commutator rows, and certifies r from the recursion's own sums.  The
functions here take none of those shortcuts: ``full_section`` fills a
section through doubled weight 2N with ``graded_commutator`` applied
directly, ``section_defect`` applies the whole flat connection to a
section, and ``full_pass`` recomputes the flatness recursion on the whole
of r.
"""

from collections import defaultdict

from fedquant.geometry import build_rhat, nabla
from fedquant.jets import JetSum
from fedquant.weyl import (WeylForm, graded_commutator, op_delta,
                           op_delta_inv, weyl_mul)


def r_union(state):
    """r as one form, the sum of the state's weight parts."""
    return WeylForm(state.geometry, state.degree_cap,
                    {key: jet for part in state.r_parts.values()
                     for key, jet in part.terms.items()})


def full_section(f, state):
    """The flat section of f through doubled weight 2N, with no level
    bound: for s < 2N,

        a_(s+1) = delta^-1 (nabla a_s + sum_w (i/hbar) [r_w, a_(s+2-w)]).
    """
    geom, cap = state.geometry, state.degree_cap
    parts = [WeylForm.from_jet(geom, cap, f)]
    for s in range(2 * state.n_hbar):
        sums = nabla(parts[s], geom, defaultdict(JetSum))
        for w, rw in state.r_parts.items():
            if w <= s + 2:
                graded_commutator(rw, parts[s + 2 - w], sums)
        parts.append(op_delta_inv(WeylForm.from_sums(geom, cap, sums)))
    return WeylForm(geom, cap, {key: jet for part in parts
                                for key, jet in part.terms.items()})


def connection(section, state):
    """D a = nabla a - delta a + (i/hbar) [r, a], the flat connection."""
    geom = state.geometry
    sums = nabla(section, geom, defaultdict(JetSum))
    graded_commutator(r_union(state), section, sums)
    return WeylForm.from_sums(geom, state.degree_cap, sums) \
        - op_delta(section)


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
    residual, recomputed from scratch on the whole of r."""
    geom, cap = state.geometry, state.degree_cap
    r = r_union(state)
    rhat = build_rhat(geom, cap)
    nr = nabla(r, geom)
    # an equal copy of r, so that the product takes every ordered term
    # pair instead of the square's unordered ones
    twin = WeylForm(geom, cap, dict(r.terms))
    quad = WeylForm.from_sums(geom, cap,
                              weyl_mul(r, twin, defaultdict(JetSum)))
    return op_delta_inv(rhat + nr + quad), op_delta(r) - rhat - nr - quad
