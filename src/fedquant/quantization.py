"""Polarized quantization operators.

Wave functions are jets in the configuration block only (positions for
cotangent charts, the holomorphic block for complex charts).  Operators are
finite-order differential operators whose coefficients are polynomials in
hbar with jet coefficients; the half-form correction appears as the familiar
(1/4) g^{bc} d_a g_{bc} terms rather than as a separate object.

Each geometry has one ``Polarization``, built on first use by
``polarization(geom)`` and kept on the geometry.  It holds the
configuration chart; ``decompose``, which splits an observable into
configuration jets by fiber multidegree (the momenta for the vertical
polarization of flat and cotangent charts, the dK block for the
holomorphic polarization of Kaehler charts); the first-order volume term,
the metric's log-gradient on cotangent lifts and none on flat and Kaehler
charts; the first-order scale, -i (vertical) or 1 (holomorphic); and
whether star factorization (``rho_extend``) applies, which it does on the
vertical polarization.  Darboux charts have no polarization.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from fractions import Fraction
from functools import partial
from itertools import product

from .jets import (ChartMismatch, DomainError, Jet, JetError, JetSum,
                   jet_maps_agree)
from .rational import I
from .weyl import sub_degrees
from .geometry import christoffels, _curvature_of
from .fedosov import FedosovError, star


class QuantizationError(JetError):
    pass


# -- hbar-graded jet series ------------------------------------------------

class HbarSeries:
    """A polynomial in hbar with jet coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = {k: j for k, j in coeffs.items() if not j.is_zero()}
        for k in self.coeffs:
            if k < 0:
                raise QuantizationError("negative hbar power")

    def is_zero(self):
        return not self.coeffs

    def agrees_with(self, other):
        return jet_maps_agree(self.coeffs, other.coeffs)

    def __repr__(self):
        return f"HbarSeries({sorted(self.coeffs)})"


# -- differential operators ------------------------------------------------

class DiffOp:
    """Finite-order operator sum_I c_I(hbar, x) d^I on configuration jets.

    Sums of operators go through ``_diffop_sum``, one JetSum per
    coefficient.
    """

    __slots__ = ("chart", "terms")

    def __init__(self, chart, terms):
        self.chart = chart
        clean = {}
        for idx, series in terms.items():
            if len(idx) != chart.dim:
                raise QuantizationError("derivative index does not match chart")
            if min(idx, default=0) < 0:
                raise QuantizationError(
                    f"derivative index {tuple(idx)} has a negative entry")
            if not series.is_zero():
                clean[tuple(idx)] = series
        self.terms = clean

    @classmethod
    def mult(cls, jet):
        z = (0,) * jet.chart.dim
        return cls(jet.chart, {z: HbarSeries({0: jet})})

    @classmethod
    def deriv(cls, chart, i, coeff, hbar_power):
        if not 0 <= i < chart.dim:
            raise QuantizationError(f"derivative variable {i} is outside "
                                    f"the chart")
        e = tuple(1 if k == i else 0 for k in range(chart.dim))
        return cls(chart, {e: HbarSeries({hbar_power: coeff})})

    @classmethod
    def identity(cls, chart, order):
        return cls.mult(Jet.constant(chart, 1, order))

    def order(self):
        return max((sum(idx) for idx in self.terms), default=0)

    def __add__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        if self.chart != other.chart:
            raise ChartMismatch("operators on different charts")
        return _diffop_sum(self.chart, ((self, 1, 0), (other, 1, 0)))

    def __neg__(self):
        return _diffop_sum(self.chart, ((self, -1, 0),))

    def __sub__(self, other):
        return self + (-other)

    def truncate_hbar(self, n):
        """Drop every coefficient beyond hbar^n."""
        out = {}
        for idx, s in self.terms.items():
            kept = {k: j for k, j in s.coeffs.items() if k <= n}
            if kept:
                out[idx] = HbarSeries(kept)
        return DiffOp(self.chart, out)

    def agrees_with(self, other):
        return self.chart == other.chart and jet_maps_agree(
            self._flat_terms(), other._flat_terms())

    def _flat_terms(self):
        """The coefficient jets keyed by (derivative index, hbar power)."""
        return {(idx, k): jet for idx, series in self.terms.items()
                for k, jet in series.coeffs.items()}

    def __repr__(self):
        return f"DiffOp(order {self.order()}, {len(self.terms)} terms)"


def _diffop_of(chart, sums):
    """The operator of finished ``{(derivative index, hbar power): JetSum}``
    sums."""
    terms = {}
    for (idx, k), acc in sums.items():
        terms.setdefault(idx, {})[k] = acc.jet()
    return DiffOp(chart, {idx: HbarSeries(coeffs)
                          for idx, coeffs in terms.items()})


def _diffop_sum(chart, parts):
    """Sum of s * hbar^shift * op over (op, s, shift) triples, with one
    JetSum per coefficient."""
    sums = defaultdict(JetSum)
    for op, s, shift in parts:
        for idx, series in op.terms.items():
            for k, jet in series.coeffs.items():
                sums[idx, k + shift].add(jet, s=s)
    return _diffop_of(chart, sums)


def _iter_partial(jet, idx):
    out = jet
    for i, e in enumerate(idx):
        for _ in range(e):
            out = out.partial(i)
    return out


def diffop_apply(op, psi):
    """Apply to a configuration jet; returns an hbar series of jets."""
    if psi.chart != op.chart:
        raise ChartMismatch("wave function lives on a different chart")
    sums = defaultdict(JetSum)
    for idx, series in op.terms.items():
        d = _iter_partial(psi, idx)
        if d.is_zero():
            continue
        for k, jet in series.coeffs.items():
            sums[k].add(jet, d)
    return HbarSeries({k: acc.jet() for k, acc in sums.items()})


def diffop_compose(a, b):
    """Operator product a(b(psi)), expanding coefficients by Leibniz."""
    if a.chart != b.chart:
        raise ChartMismatch("operators on different charts")
    sums = defaultdict(JetSum)
    for ia, sa in a.terms.items():
        # d^{ia} (c_b d^{ib} psi): distribute each of the ia derivatives
        # between c_b and psi
        splits = [(onto_coeff, mult, tuple(x - y for x, y in
                                           zip(ia, onto_coeff)))
                  for level in sub_degrees(ia) for onto_coeff, mult in level]
        for ib, sb in b.terms.items():
            for onto_coeff, mult, onto_psi in splits:
                idx = tuple(x + y for x, y in zip(onto_psi, ib))
                for kb, jb in sb.coeffs.items():
                    d = _iter_partial(jb, onto_coeff)
                    if d.is_zero():
                        continue
                    for ka, ja in sa.coeffs.items():
                        sums[idx, ka + kb].add(ja, d, mult)
    return _diffop_of(a.chart, sums)


# -- the polarization -----------------------------------------------------

# chart: the configuration chart; decompose(f): {fiber multidegree:
# configuration jet}; volume: the log-density gradient g_j of the volume
# half-forms are taken against, None for the coordinate volume; scale: the
# factor of every first-order operator; factorizes: whether ``rho_extend``
# applies
Polarization = namedtuple("Polarization",
                          "chart decompose volume scale factorizes")


def polarization(geom):
    """The geometry's ``Polarization``, built on first use and kept on the
    geometry: vertical on flat and cotangent charts, holomorphic on
    Kaehler charts.  A Darboux chart has none and raises
    ``QuantizationError``."""
    if "polarization" not in geom._cache:
        if geom.kind == "darboux":
            raise QuantizationError(
                "a Darboux chart has no polarization: quantization needs a "
                "flat, cotangent or Kaehler geometry")
        volume = None
        if geom.kind == "cotangent":
            volume = _log_vol_gradient(geom.source["metric"],
                                       geom.source["metric_inv"])
        vertical = geom.kind != "kaehler"
        geom._cache["polarization"] = Polarization(
            config_chart(geom), partial(
                fiber_decompose if vertical else _holomorphic_pieces,
                geom=geom), volume, -I if vertical else 1, vertical)
    return geom._cache["polarization"]


def config_chart(geom):
    """The configuration sub-chart (first block) of a phase-space chart."""
    return geom.chart.sub(range(geom.n))


def fiber_decompose(f, geom):
    """Split a jet on the geometry's chart into {momentum multidegree:
    configuration jet}.

    A piece of fiber degree d collects the total-degree k + d coefficients
    of f at base degree k, so its certified order drops by d: the top base
    degrees of a high-fiber-degree piece fall outside f's truncation.
    """
    if f.chart != geom.chart:
        raise ChartMismatch("observable lives on a different chart")
    return f.split(geom.n)


def _holomorphic_pieces(f, geom):
    """Write f = u^a(z) d_a K + v(z) with holomorphic u, v and return
    {e_a: u^a, 0: v} on the configuration chart, leaving out zero pieces;
    an f of any other form is a ``DomainError``."""
    n = geom.n
    pieces, v = {}, f
    for a in range(n):
        # u^a = (d_bbar f) A^{bbar a}
        acc = JetSum()
        for b in range(n):
            acc.add(f.partial(n + b), geom.source["A_inv"][b][a])
        u = acc.jet()
        if not u.is_zero():
            pieces[tuple(int(k == a) for k in range(n))] = u
            v = v - u * geom.source["potential"].partial(a)
    pieces[(0,) * n] = v
    try:
        return {fib: c.restrict(range(n)) for fib, c in pieces.items()
                if not c.is_zero()}
    except DomainError:
        raise DomainError(
            "observable is not affine in the dK block with holomorphic "
            "coefficients") from None


def _embed_config(jet, geom):
    return jet.embed(geom.chart, tuple(range(geom.n)))


def base_metric(geom):
    """Metric and inverse on the configuration chart of the vertical
    polarization: the matrices ``lift_cotangent`` stored, or the identity
    where the polarization takes the coordinate volume (a flat chart)."""
    pol = polarization(geom)
    if pol.scale != -I:
        raise QuantizationError("only flat and cotangent geometries have a "
                                "base metric")
    if pol.volume is not None:
        return geom.source["metric"], geom.source["metric_inv"]
    eye = tuple(tuple(Jet.constant(pol.chart, int(a == b), geom.order)
                      for b in range(geom.n)) for a in range(geom.n))
    return eye, eye


def _log_vol_gradient(g, ginv):
    """(1/2) g^{bc} d_a g_{bc} for each a, the exact gradient of
    log sqrt(det g)."""
    grad = []
    for a in range(len(g)):
        acc = JetSum()
        for b, c in product(range(len(g)), repeat=2):
            acc.add(ginv[b][c], g[b][c].partial(a), Fraction(1, 2))
        grad.append(acc.jet())
    return tuple(grad)


# -- first-order operators -------------------------------------------------

def _first_order(sums, u, j, pol):
    """Add scale * hbar (u d_j + (1/2) d_j u + (1/2) u g_j) into ``sums``,
    a ``{(derivative index, hbar power): JetSum}`` map, with the
    polarization's scale and volume term g_j.

    This is the half-form-corrected operator of the vector field u d_j:
    (1/2)(d_j u + u g_j) is half its divergence for the volume the
    half-forms are taken against, and g_j is the gradient of that volume's
    log density.  Cotangent charts take the metric volume; flat charts and
    the holomorphic polarization take the coordinate volume, whose g_j
    vanishes and is left out.  A zero d_j u is still added, so that it
    caps the validity of the sum.
    """
    n = pol.chart.dim
    half = pol.scale * Fraction(1, 2)
    sums[tuple(int(k == j) for k in range(n)), 1].add(u, s=pol.scale)
    sums[(0,) * n, 1].add(u.partial(j), s=half)
    if pol.volume is not None:
        sums[(0,) * n, 1].add(u, pol.volume[j], half)


def _gq_affine(f, geom, scale, refusal):
    """The operator of an observable of fiber degree <= 1 under the
    geometry's polarization, which must have first-order ``scale`` (else
    ``QuantizationError(refusal)``): each degree-1 piece is
    ``_first_order`` and the degree-0 piece multiplies, with no hbar."""
    pol = polarization(geom)
    if pol.scale != scale:
        raise QuantizationError(refusal)
    sums = defaultdict(JetSum)
    for fib, c in pol.decompose(f).items():
        if sum(fib) > 1:
            raise DomainError("observable is not affine in the momenta")
        if any(fib):
            _first_order(sums, c, fib.index(1), pol)
        else:
            sums[fib, 0].add(c)
    return _diffop_of(pol.chart, sums)


def gq_cotangent(f, geom):
    """Quantize an observable affine in the momenta (vertical
    polarization).

    For f = a^j(q) p_j + b(q) the operator is
    -i hbar (a^j d_j + (1/2) div a) + b, with the divergence taken with
    respect to the metric volume on a cotangent chart.
    """
    return _gq_affine(f, geom, -I, "vertical polarization needs a "
                      "cotangent or flat geometry")


def gq_kaehler(f, geom):
    """Quantize an observable affine in the dK block (holomorphic
    polarization).

    Writes f = u^a(z) d_a K + v(z) with holomorphic u, v and returns
    hbar (u^a d_a + (1/2) d_a u^a) + v on holomorphic jets, with the
    coordinate volume.
    """
    return _gq_affine(f, geom, 1, "holomorphic polarization needs a "
                      "complex chart geometry")


# -- the star-homomorphism extension ---------------------------------------

def rho_extend(f, state, split="first"):
    """Extend quantization to momentum polynomials through star factorization.

    A monomial c(q) p^I is split as (c p_{i1}) * p^{I - e_{i1}}; the star
    product of the factors equals the monomial plus hbar corrections of
    lower momentum degree, so the operator is defined recursively by
    rho(u) rho(w) minus the quantized corrections, where rho(u) of the
    first-order factor u = c p_{i1} is ``gq_cotangent(u)``.  Requires the
    star product's homogeneity in (p, hbar), which holds for flat charts
    and lifted cotangent connections.  The state keeps each monomial
    operator it builds (``_rho_monomial``).

    Each piece enters the one operator sum as parts (operator, scale): a
    table entry T of q^gamma p^beta is summed as T's jets times the
    coefficient lambda of q^gamma.  For one term that is store-identical
    to summing the jets of lambda T: the exact values are the same, each
    jet keeps T's validity, and lambda != 0 leaves no jet zero that was
    not, so no scaled copy of an entry is built.  For several terms it is
    the termwise sum ``_rho_monomial`` argues for.
    """
    geom = state.geometry
    pol = polarization(geom)
    if not pol.factorizes:
        raise QuantizationError(
            "star factorization is supported on flat and cotangent "
            "geometries only")
    if split not in ("first", "last"):
        raise QuantizationError(f"unknown split rule {split!r}")
    pieces = pol.decompose(f)
    deg = max((sum(fib) for fib in pieces), default=0)
    if deg > state.n_hbar:
        raise FedosovError(
            f"momentum degree {deg} needs a state certified through "
            f"hbar^{deg}")
    return _diffop_sum(pol.chart,
                      ((op, scale, 0) for fib, c in pieces.items()
                       for op, scale in _rho_monomial(c, fib, state, geom,
                                                      split)))


def _rho_monomial(c, fib, state, geom, split):
    """rho(c p^fib) as a list of parts (operator, scale), whose sum it
    is; the operators are read from the state's table when they can be.

    Write c = sum lambda_gamma q^gamma, each unit monomial q^gamma a jet
    key that carries c's validity (``Jet.monomials``).  A one-term c reads
    the entry of its unit, building it with ``_rho_build`` on a miss, and
    comes back as one part with scale lambda.  A c of several terms comes
    back as the parts (T_gamma, lambda_gamma) when every unit's entry is
    already in the table, and otherwise as its direct build with scale 1,
    which adds no entry: tabling the units of a dense g^{ab} would
    multiply the entries and the build time.  A zero c is built directly
    too.  The table holds at most one entry per q^gamma of degree within
    the chart's order, validity, fiber multidegree of degree 1 ... N and
    split, a bound set by the chart and not by the length of the query
    stream.  Degree 0 is the multiplication operator and is not tabled.

    Why the parts give c's own store: every step of ``_rho_build`` is
    linear in c, and each intermediate jet's validity follows from c's
    validity and the operations alone, not from its values.  So each jet
    of the parts' sum has the exact value of the direct build's and the
    validity of the jets summed into it.  The two can part only where a
    zero jet is skipped or dropped.  Scaling by lambda != 0 zeroes no jet,
    so lambda times the entry of q^gamma has the store of
    rho(lambda q^gamma p^beta).  A sum, though, can cancel exactly in
    some intermediate jet, which the direct build then skips with its
    validity cap while the parts still carry it.  The tests hold the
    parts to the direct build store for store, on drawn coefficients and
    on the kinetic g^{ab}.
    """
    if not any(fib):
        return [(DiffOp.mult(c), 1)]
    terms = c.monomials()
    table = state._rho_table
    keys = [(unit, fib, split) for _, unit in terms]
    if len(keys) == 1 and keys[0] not in table:
        table[keys[0]] = _rho_build(terms[0][1], fib, state, geom, split)
    if keys and all(key in table for key in keys):
        return [(table[key], lam) for key, (lam, _) in zip(keys, terms)]
    return [(_rho_build(c, fib, state, geom, split), 1)]


def _rho_build(c, fib, state, geom, split):
    """rho(c p^fib) for |fib| >= 1 by star factorization
    (``rho_extend``); each lower operator's parts enter the sum with
    their scales, negated at hbar^j for the corrections."""
    pol = polarization(geom)
    d = sum(fib)
    nz = [a for a, e in enumerate(fib) if e]
    i1 = nz[0] if split == "first" else nz[-1]
    # u = c p_i1 is affine in the momenta: rho(u) is its quantization
    u = _embed_config(c, geom).mul_variable(geom.n + i1)
    first = gq_cotangent(u, geom)
    if d == 1:
        return first
    rest = tuple(e - (a == i1) for a, e in enumerate(fib))
    order = geom.order
    w = Jet.constant(geom.chart, 1, order).mul_monomial((0,) * geom.n + rest)
    s = star(u, w, state, n_hbar=d)
    # rho(u) rho(w) minus the quantized hbar^j corrections; w's
    # coefficient is one term, so it comes back as one part
    [(op, scale)] = _rho_monomial(Jet.constant(pol.chart, 1, order), rest,
                                  state, geom, split)
    parts = [(diffop_compose(first, op), scale, 0)]
    for j in range(1, d + 1):
        sj = s.coefficient(j)
        if sj.is_zero():
            continue
        sub_pieces = pol.decompose(sj)
        if max(sum(fb) for fb in sub_pieces) >= d:
            raise QuantizationError(
                "star correction does not lower the momentum degree; the "
                "connection is not homogeneous")
        for fb, cc in sub_pieces.items():
            parts.extend((op, -scale, j) for op, scale in
                         _rho_monomial(cc, fb, state, geom, split))
    return _diffop_sum(pol.chart, parts)


# -- independent oracles for the kinetic operator --------------------------

def laplace_beltrami(geom):
    """Delta = g^{ab} d_a d_b + (d_a g^{ab} + g^{ab} (1/2) g^{kl} d_a g_kl) d_b.

    Built directly from the metric jets; no star-product machinery.  The
    last term is the polarization's volume term, which vanishes on a flat
    chart.
    """
    _, ginv = base_metric(geom)
    volume = polarization(geom).volume
    n = geom.n
    sums = defaultdict(JetSum)
    for a, b in product(range(n), repeat=2):
        if not ginv[a][b].is_zero():
            sums[tuple((k == a) + (k == b) for k in range(n)), 0].add(
                ginv[a][b])
    for b in range(n):
        e = tuple(1 if k == b else 0 for k in range(n))
        for a in range(n):
            sums[e, 0].add(ginv[a][b].partial(a))
            if volume is not None:
                sums[e, 0].add(ginv[a][b], volume[a])
    return _diffop_of(config_chart(geom), sums)


def scalar_curvature(geom):
    """g^{jl} R^i_{jil} of the base metric, from the metric jets alone."""
    g, ginv = base_metric(geom)
    n = geom.n
    gamma = christoffels(g, ginv)
    riem = _curvature_of(gamma, n)
    sub = config_chart(geom)
    acc = Jet.zero(sub, min(e.valid_order for row in g for e in row) - 2)
    for j, l, i in product(range(n), repeat=3):
        r = riem.get((i, j, i, l))
        if r is not None:
            acc = acc + ginv[j][l] * r
    return acc


def kinetic_energy_observable(geom):
    """g^{ab} p_a p_b as a jet on the phase-space chart of a flat or
    cotangent geometry."""
    n = geom.n
    _, ginv = base_metric(geom)
    acc = JetSum()
    for a, b in product(range(n), repeat=2):
        acc.add(_embed_config(ginv[a][b], geom).mul_monomial(
            [0] * n + [(k == a) + (k == b) for k in range(n)]))
    return acc.jet()


def kinetic_alpha(geom, state):
    """The curvature coefficient in rho(g^{ab} p_a p_b) = -h^2 (Delta - a R).

    Delta and the scalar curvature come from independent metric-jet oracles;
    the residual after removing -h^2 Delta must be a pure hbar^2
    multiplication operator proportional to the scalar curvature.
    """
    if state.geometry != geom:
        raise QuantizationError("the state was solved on another geometry")
    ke = kinetic_energy_observable(geom)
    op = rho_extend(ke, state)
    # op + hbar^2 Delta
    resid = _diffop_sum(op.chart, ((op, 1, 0), (laplace_beltrami(geom), 1, 2)))
    zero_idx = (0,) * geom.n
    # DiffOp and HbarSeries drop zero entries, so every one left is nonzero
    for idx, series in resid.terms.items():
        if idx != zero_idx:
            raise QuantizationError(
                f"kinetic residual contains a derivative term at {idx}")
        for k in series.coeffs:
            if k != 2:
                raise QuantizationError(
                    f"kinetic residual contains an hbar^{k} term")
    series = resid.terms.get(zero_idx)
    curv = scalar_curvature(geom)
    if series is None:
        if curv.is_zero():
            return None  # flat metric: coefficient undetermined
        raise QuantizationError("kinetic residual vanishes but the scalar "
                                "curvature does not")
    jet = series.coeffs[2]
    shared = min(jet.valid_order, curv.valid_order)
    # the lowest-degree term of the curvature, if it is certified
    lead = curv.leading()
    if lead is None or sum(lead[0]) > shared:
        raise QuantizationError("scalar curvature vanishes through the "
                                "certified order; cannot normalize")
    pivot = lead[0]
    alpha = jet.coefficient(pivot) / curv.coefficient(pivot)
    if not alpha.is_real:
        raise QuantizationError("curvature coefficient is not real")
    if not jet.agrees_with(curv * alpha.re):
        raise QuantizationError(
            "kinetic residual is not proportional to the scalar curvature")
    return alpha.re
