"""Charts with symplectic structure and compatible connections.

Builders produce validated :class:`ChartGeometry` values for four chart
kinds: flat, Darboux (constant symplectic form, user connection), cotangent
lifts of a base metric, and complex charts built from a real potential.
The same downstream machinery consumes all of them; only the jets differ.

Index conventions, fixed once and verified by the validation suite:
  * coordinates are ordered (q^1..q^n, p_1..p_n); index a < n is a position,
    n + a the conjugate momentum (for complex charts: z then zbar),
  * omega_{n+i,i} = 1 = -omega_{i,n+i}, so {q, p} = omega^{ab} d_a q d_b p = 1,
  * omega_{ab} omega^{bc} = delta_a^c,
  * R^i_{jkl} = d_k Gamma^i_{lj} - d_l Gamma^i_{kj}
                + Gamma^i_{km} Gamma^m_{lj} - Gamma^i_{lm} Gamma^m_{kj}.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

from .jets import Chart, ChartMismatch, Jet, JetError, JetSum
from .rational import CRat, I
from .weyl import WeylForm, _insert_left

KINDS = ("flat", "darboux", "cotangent", "kaehler")


class GeometryError(JetError):
    pass


class ValidationFailure(GeometryError):
    def __init__(self, report):
        super().__init__("geometry validation failed:\n" + str(report))
        self.report = report


class CheckReport:
    """Ordered check verdicts from validation and the check suites.

    Each entry in ``checks`` is a dict with ``name``, ``passed`` and
    ``location``; the report passes when every entry does.
    """

    def __init__(self):
        self.checks = []

    def add(self, name, passed, location=""):
        self.checks.append({"name": name, "passed": bool(passed),
                            "location": location})

    def expect(self, name, cases):
        """Add one entry from ``(location, passed)`` cases, read lazily in
        order: it fails at the first case that fails, naming its location,
        and passes with location "" if none does."""
        where = next((loc for loc, ok in cases if not ok), None)
        self.add(name, where is None, where or "")

    @property
    def passed(self):
        return all(c["passed"] for c in self.checks)

    def __str__(self):
        lines = []
        for c in self.checks:
            status = "ok" if c["passed"] else "FAIL"
            loc = f": {c['location']}" if c["location"] else ""
            lines.append(f"  [{status}] {c['name']}{loc}")
        return "\n".join(lines)


class ChartGeometry:
    """A chart with symplectic form, inverse, and connection, all as jets.

    Treat instances as immutable after construction.
    """

    def __init__(self, kind, n, chart, order, omega, omega_inv, gamma,
                 source=None):
        if kind not in KINDS:
            raise GeometryError(f"unknown geometry kind {kind!r}")
        self.kind = kind
        self.n = n
        self.chart = chart
        self.order = order
        self.omega = tuple(tuple(row) for row in omega)
        self.omega_inv = tuple(tuple(row) for row in omega_inv)
        self.gamma = {k: v for k, v in gamma.items() if not v.is_zero()}
        self.source = dict(source or {})
        self.gamma_low = self._lower_gamma()
        # Gamma^u_{xb} grouped by its upper index: u -> ((x, b, jet), ...)
        by_upper = {}
        for (u, x, b), g in self.gamma.items():
            by_upper.setdefault(u, []).append((x, b, g))
        self.gamma_up = {u: tuple(v) for u, v in by_upper.items()}
        self._cache = {}

    @property
    def dim(self):
        return 2 * self.n

    def _lower_gamma(self):
        low = defaultdict(JetSum)
        for (u, a, b), G in self.gamma.items():
            for i in range(self.dim):
                om = self.omega[i][u]
                if not om.is_zero():
                    low[i, a, b].add(om, G)
        return _nonzero(low)

    def gamma_at(self, u, a, b):
        return self.gamma.get((u, a, b), self.zero_jet())

    def zero_jet(self):
        return Jet.zero(self.chart, self.order)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, ChartGeometry):
            return NotImplemented
        return (self.kind == other.kind and self.n == other.n
                and self.chart == other.chart and self.order == other.order
                and self.omega == other.omega and self.gamma == other.gamma)

    def __repr__(self):
        return f"ChartGeometry({self.kind}, n={self.n}, order={self.order})"

    # -- derived data (memoized) -----------------------------------------

    def curvature(self):
        if "curvature" not in self._cache:
            self._cache["curvature"] = curvature(self)
        return self._cache["curvature"]

    def validation(self):
        """The ``validate_connection`` report, computed once."""
        if "validation" not in self._cache:
            self._cache["validation"] = validate_connection(self)
        return self._cache["validation"]


@dataclass
class CurvatureData:
    r_up: dict      # (i, j, k, l) -> Jet, index i raised
    r_low: dict     # (i, j, k, l) -> Jet, all indices down

    def up(self, i, j, k, l, zero):
        return self.r_up.get((i, j, k, l), zero)

    def low(self, i, j, k, l, zero):
        return self.r_low.get((i, j, k, l), zero)


# -- helpers ---------------------------------------------------------------

def _nonzero(sums):
    """The nonzero finished jets of a ``{key: JetSum}`` map."""
    out = {key: acc.jet() for key, acc in sums.items()}
    return {key: jet for key, jet in out.items() if not jet.is_zero()}


def invert_jet_matrix(m):
    """Inverse of a square matrix of jets by Gaussian elimination."""
    n = len(m)
    a = [list(row) for row in m]
    chart = a[0][0].chart
    order = min(e.valid_order for row in a for e in row)
    eye = [[Jet.constant(chart, 1 if i == j else 0, order)
            for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n)
                    if a[r][col].constant_term), None)
        if piv is None:
            raise GeometryError("matrix of jets is singular at the base point")
        a[col], a[piv] = a[piv], a[col]
        eye[col], eye[piv] = eye[piv], eye[col]
        inv = a[col][col].invert()
        a[col] = [e * inv for e in a[col]]
        eye[col] = [e * inv for e in eye[col]]
        for r in range(n):
            if r == col or a[r][col].is_zero():
                continue
            f = a[r][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
            eye[r] = [x - f * y for x, y in zip(eye[r], eye[col])]
    return [tuple(row) for row in eye]


def _darboux_omega(chart, n, order):
    zero = Jet.zero(chart, order)
    one = Jet.constant(chart, 1, order)
    omega = [[zero] * (2 * n) for _ in range(2 * n)]
    omega_inv = [[zero] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        omega[n + i][i] = one
        omega[i][n + i] = -one
        omega_inv[i][n + i] = one
        omega_inv[n + i][i] = -one
    return omega, omega_inv


def phase_chart(n, base_q=None):
    base_q = tuple(base_q or (0,) * n)
    names = tuple(f"q{i+1}" for i in range(n)) + \
        tuple(f"p{i+1}" for i in range(n))
    base = base_q + (0,) * n
    return Chart(names, base)


# -- builders --------------------------------------------------------------

def build_flat(n, order):
    """Standard symplectic vector space: constant omega, zero connection."""
    chart = phase_chart(n)
    omega, omega_inv = _darboux_omega(chart, n, order)
    geom = ChartGeometry("flat", n, chart, order, omega, omega_inv, {})
    _require_valid(geom)
    return geom


def build_darboux(n, gamma_low, order, base_q=None):
    """Constant Darboux omega with a user-supplied lowered connection.

    ``gamma_low`` maps (i, j, k) to jets for the fully lowered Christoffel
    data; total symmetry is validated.  The raised coefficients follow by
    contraction with omega^{-1}.
    """
    chart = phase_chart(n, base_q)
    omega, omega_inv = _darboux_omega(chart, n, order)
    dim = 2 * n
    gl = {}
    for (i, j, k), jet in gamma_low.items():
        if not jet.is_zero():
            gl[(i, j, k)] = jet
    gamma = defaultdict(JetSum)
    for (i, j, k), jet in gl.items():
        for u in range(dim):
            om = omega_inv[u][i]
            if not om.is_zero():
                gamma[u, j, k].add(om, jet)
    gamma = {key: acc.jet() for key, acc in gamma.items()}
    geom = ChartGeometry("darboux", n, chart, order, omega, omega_inv, gamma)
    _require_valid(geom)
    return geom


def christoffels(metric, metric_inv):
    """Levi-Civita symbols of a metric given as a jet matrix."""
    n = len(metric)
    out = {}
    half = Fraction(1, 2)
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                acc = JetSum()
                for l in range(n):
                    g = metric_inv[k][l]
                    acc.add(metric[l][i].partial(j), g, half)
                    acc.add(metric[l][j].partial(i), g, half)
                    acc.add(metric[i][j].partial(l), g, -half)
                acc = acc.jet()
                if not acc.is_zero():
                    out[(k, i, j)] = acc
                    if i != j:
                        out[(k, j, i)] = acc
    return out


def _curvature_of(gamma, dim):
    """R^i_{jkl} from raised Christoffel data.

    R^i_{jkl} = d_k G^i_{lj} - d_l G^i_{kj}
                + sum_m (G^i_{km} G^m_{lj} - G^i_{lm} G^m_{kj}),

    summed over the stored entries of ``gamma`` only, so the cost follows
    the connection's support; keys come out in (i, j, k, l) order.
    """
    by_upper = defaultdict(list)     # m -> [(x, j, G^m_{xj})]
    for (m, x, j), g in gamma.items():
        by_upper[m].append((x, j, g))
    sums = defaultdict(JetSum)       # (i, j, k, l) with k < l
    for (i, x, j), g in gamma.items():
        for k in range(x):
            sums[i, j, k, x].add(g.partial(k))
        for l in range(x + 1, dim):
            sums[i, j, x, l].add(g.partial(l), s=-1)
    for (i, x, m), g1 in gamma.items():
        for y, j, g2 in by_upper.get(m, ()):
            if x < y:
                sums[i, j, x, y].add(g1, g2)
            elif y < x:
                sums[i, j, y, x].add(g1, g2, -1)
    out = {}
    for (i, j, k, l) in sorted(sums):
        acc = sums[i, j, k, l].jet()
        if not acc.is_zero():
            out[(i, j, k, l)] = acc
            out[(i, j, l, k)] = -acc
    return out


def lift_cotangent(metric, order):
    """Lift the Levi-Civita connection of a base metric to phase space.

    ``metric`` is an n x n matrix of jets on a base chart in the position
    variables only.  The result is a 2n-chart with Darboux omega whose
    connection is torsion-free, symplectic, and reproduces the base
    connection on position indices; its momentum-valued block is exactly
    linear in p.
    """
    n = len(metric)
    base_chart = metric[0][0].chart
    if base_chart.dim != n:
        raise GeometryError("metric must live on an n-variable base chart")
    chart = Chart(base_chart.names + tuple(f"p{i+1}" for i in range(n)),
                  base_chart.base + (CRat(0),) * n)
    emb = tuple(range(n))

    ginv_base = invert_jet_matrix(metric)
    gt_base = christoffels(metric, ginv_base)
    rt_base = _curvature_of(gt_base, n)

    def up(jet):
        return jet.embed(chart, emb)

    g_full = [[up(e) for e in row] for row in metric]
    ginv_full = [[up(e) for e in row] for row in ginv_base]
    gt = {k: up(v) for k, v in gt_base.items()}
    rt = {k: up(v) for k, v in rt_base.items()}

    omega, omega_inv = _darboux_omega(chart, n, order)
    zero = Jet.zero(chart, order)
    gamma = {}

    def gt_at(k, i, j):
        return gt.get((k, i, j), zero)

    for (k, i, j), jet in gt.items():
        gamma[(k, i, j)] = jet
    # Gamma with a momentum-valued upper index and one momentum lower index
    for a in range(n):
        for b in range(n):
            for c in range(n):
                val = gt.get((c, a, b))
                if val is None:
                    continue
                gamma[(n + a, b, n + c)] = -val
                gamma[(n + a, n + c, b)] = -val
    # p-linear block, cyclically symmetrized over (i, j, k)
    third = Fraction(1, 3)
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                acc = JetSum()
                for a in range(n):
                    pa = Jet.variable(chart, n + a, order)
                    inner = JetSum()
                    for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
                        for l in range(n):
                            inner.add(gt_at(a, y, l), gt_at(l, z, x), 2)
                        d = gt.get((a, z, x))
                        if d is not None:
                            inner.add(d.partial(y), s=-1)
                    inner = inner.jet()
                    if not inner.is_zero():
                        acc.add(pa, inner, third)
                acc = acc.jet()
                if acc is not None and not acc.is_zero():
                    gamma[(n + k, i, j)] = acc
                    if i != j:
                        gamma[(n + k, j, i)] = acc
    source = {"metric": tuple(tuple(r) for r in g_full),
              "metric_inv": tuple(tuple(r) for r in ginv_full),
              "gamma_base": gt,
              "curvature_base": rt}
    geom = ChartGeometry("cotangent", n, chart, order, omega, omega_inv,
                         gamma, source)
    _require_valid(geom)
    return geom


def build_kaehler(potential, order):
    """Geometry of a complex chart from a real potential jet.

    The chart must carry a conjugation pairing (z-block first, zbar-block
    second); the potential must be real under it and have an invertible
    mixed Hessian at the base point.
    """
    chart = potential.chart
    if chart.conj is None:
        raise GeometryError("potential must live on a chart with conjugation")
    dim = chart.dim
    n = dim // 2
    for i in range(n):
        if chart.conj[i] != n + i:
            raise GeometryError("chart conjugation must pair i <-> n+i")
    if not potential.conjugate().agrees_with(potential):
        raise GeometryError("potential is not real under conjugation")

    a_mat = [[potential.partial(j).partial(n + k) for k in range(n)]
             for j in range(n)]
    a_inv = invert_jet_matrix(a_mat)   # a_inv[k][l] = A^{kbar l}

    zero = Jet.zero(chart, order)
    omega = [[zero] * dim for _ in range(dim)]
    omega_inv = [[zero] * dim for _ in range(dim)]
    for j in range(n):
        for k in range(n):
            omega[j][n + k] = a_mat[j][k] * I
            omega[n + k][j] = -(a_mat[j][k] * I)
            omega_inv[j][n + k] = a_inv[k][j] * I
            omega_inv[n + k][j] = -(a_inv[k][j] * I)

    gamma = {}
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                acc = JetSum()
                for l in range(n):
                    acc.add(a_inv[l][k], a_mat[i][l].partial(j))
                acc = acc.jet()
                if not acc.is_zero():
                    gamma[(k, i, j)] = acc
                    if i != j:
                        gamma[(k, j, i)] = acc
                conj = acc.conjugate()
                if not conj.is_zero():
                    gamma[(n + k, n + i, n + j)] = conj
                    if i != j:
                        gamma[(n + k, n + j, n + i)] = conj
    source = {"potential": potential,
              "A": tuple(tuple(r) for r in a_mat),
              "A_inv": tuple(tuple(r) for r in a_inv)}
    geom = ChartGeometry("kaehler", n, chart, order, omega, omega_inv,
                         gamma, source)
    _require_valid(geom)
    return geom


def complex_chart(n, base_z=None):
    """Chart (z^1..z^n, zbar^1..zbar^n) with conjugation pairing."""
    base_z = tuple(map(CRat, base_z or (0,) * n))
    names = tuple(f"z{i+1}" for i in range(n)) + \
        tuple(f"zb{i+1}" for i in range(n))
    base = base_z + tuple(b.conjugate() for b in base_z)
    conj = tuple(range(n, 2 * n)) + tuple(range(n))
    return Chart(names, base, conj)


# -- curvature -------------------------------------------------------------

def curvature(geom):
    dim = geom.dim
    r_up = _curvature_of(geom.gamma, dim)
    r_low = defaultdict(JetSum)
    for (m, j, k, l), jet in r_up.items():
        for i in range(dim):
            om = geom.omega[i][m]
            if not om.is_zero():
                r_low[i, j, k, l].add(om, jet)
    return CurvatureData(r_up, _nonzero(r_low))


def build_rhat(geom, degree_cap):
    """-1/4 R_{ijkl} y^i y^j dx^k wedge dx^l as a WeylForm."""
    curv = geom.curvature()
    dim = geom.dim
    quarter = Fraction(-1, 4)
    terms = defaultdict(JetSum)
    for (i, j, k, l), jet in curv.r_low.items():
        if k >= l:
            continue  # antisymmetric pair counted once, doubled below
        alpha = [0] * dim
        alpha[i] += 1
        alpha[j] += 1
        terms[0, tuple(alpha), (k, l)].add(jet, s=quarter * 2)
    return WeylForm.from_sums(geom, degree_cap, terms)


# -- scalar calculus -------------------------------------------------------

def hamiltonian_vf(f, geom):
    """Components X^a = omega^{ab} d_b f."""
    if f.chart != geom.chart:
        raise ChartMismatch("observable lives on a different chart")
    dim = geom.dim
    out = []
    for a in range(dim):
        acc = JetSum()
        for b in range(dim):
            om = geom.omega_inv[a][b]
            if not om.is_zero():
                acc.add(om, f.partial(b))
        out.append(acc.jet(geom.zero_jet()))
    return tuple(out)


def omega_pair(x_vec, y_vec, geom):
    """omega(X, Y) for component tuples of jets."""
    acc = JetSum()
    dim = geom.dim
    for a in range(dim):
        if x_vec[a].is_zero():
            continue
        for b in range(dim):
            om = geom.omega[a][b]
            if om.is_zero() or y_vec[b].is_zero():
                continue
            acc.add(om * x_vec[a], y_vec[b])
    return acc.jet(geom.zero_jet())


def poisson(f, g, geom):
    """omega^{ab} d_a f d_b g."""
    if f.chart != geom.chart or g.chart != geom.chart:
        raise ChartMismatch("operands live on a different chart")
    acc = JetSum()
    dim = geom.dim
    for a in range(dim):
        fa = f.partial(a)
        if fa.is_zero():
            continue
        for b in range(dim):
            om = geom.omega_inv[a][b]
            if not om.is_zero():
                acc.add(om * fa, g.partial(b))
    v = min(f.valid_order, g.valid_order) - 1
    return acc.jet(Jet.zero(geom.chart, max(v, 0)))


def covariant_dv(vec, geom):
    """(nabla_b X)^a for a component tuple of jets; returns dict (a,b)->Jet."""
    dim = geom.dim
    out = {}
    for a in range(dim):
        for b in range(dim):
            acc = JetSum()
            acc.add(vec[a].partial(b))
            for m in range(dim):
                g = geom.gamma.get((a, b, m))
                if g is not None and not vec[m].is_zero():
                    acc.add(g, vec[m])
            acc = acc.jet()
            if not acc.is_zero():
                out[(a, b)] = acc
    return out


# -- the connection on fiber-polynomial forms ------------------------------

def nabla(a, geom, into=None):
    """Exterior covariant derivative on a WeylForm.

    Acts as d on coefficients, by the connection on fiber generators, and
    inserts the new form index on the left.  Costs one order of jet
    validity through the d-part.  With ``into``, a ``{key: JetSum}`` map,
    the terms are added to it and the map is returned.
    """
    if a.geometry != geom:
        raise ChartMismatch("form does not live on this geometry")
    dim = geom.dim
    out = defaultdict(JetSum) if into is None else into
    for (k, alpha, beta), jet in a.terms.items():
        for b in range(dim):
            dj = jet.partial(b)
            if dj.is_zero():
                continue
            ins = _insert_left(b, beta)
            if ins is None:
                continue
            sign, beta2 = ins
            out[k, alpha, beta2].add(dj, s=sign)
        for i, e in enumerate(alpha):
            if not e:
                continue
            for x, b, g in geom.gamma_up.get(i, ()):
                ins = _insert_left(b, beta)
                if ins is None:
                    continue
                sign, beta2 = ins
                alpha2 = list(alpha)
                alpha2[i] -= 1
                alpha2[x] += 1
                out[k, tuple(alpha2), beta2].add(g, jet, -e * sign)
    if into is not None:
        return out
    return WeylForm.from_sums(geom, a.degree_cap, out)


# -- validation ------------------------------------------------------------

def _require_valid(geom):
    report = geom.validation()
    if not report.passed:
        raise ValidationFailure(report)


def validate_connection(geom):
    """Run every structural identity; failures become report entries."""
    rep = CheckReport()
    dim = geom.dim
    omega, omega_inv = geom.omega, geom.omega_inv
    zero = geom.zero_jet()
    pairs = list(product(range(dim), repeat=2))

    rep.expect("omega antisymmetric", (
        (f"(a,b)=({a},{b})", omega[a][b].agrees_with(-omega[b][a]))
        for a, b in pairs))

    def identity():
        for a, c in pairs:
            acc = JetSum()
            for b in range(dim):
                acc.add(omega[a][b], omega_inv[b][c])
            acc = acc.jet()
            want = Jet.constant(geom.chart, 1 if a == c else 0,
                                acc.valid_order)
            yield f"(a,c)=({a},{c})", acc.agrees_with(want)
    rep.expect("omega * omega_inv = identity", identity())

    rep.expect("connection torsion-free", (
        (f"Gamma^{u}_({a},{b})", g.agrees_with(geom.gamma_at(u, b, a)))
        for (u, a, b), g in geom.gamma.items()))

    # the stored Gamma^d_(c,a) grouped by lower pair: (c, a) -> [(d, jet)]
    by_lower = defaultdict(list)
    for (d, c, a), g in geom.gamma.items():
        by_lower[c, a].append((d, g))

    def symplectic():
        for c, a in pairs:
            for b in range(a + 1, dim):
                acc = JetSum()
                acc.add(omega[a][b].partial(c))
                for d, g in by_lower.get((c, a), ()):
                    acc.add(g, omega[d][b], -1)
                for d, g in by_lower.get((c, b), ()):
                    acc.add(omega[a][d], g, -1)
                yield f"(c,a,b)=({c},{a},{b})", acc.jet().is_zero()
    rep.expect("connection symplectic (nabla omega = 0)", symplectic())

    if all(omega[a][b].is_constant() for a, b in pairs):
        low = geom.gamma_low
        rep.expect("lowered Gamma totally symmetric", (
            (f"indices {key} vs {perm}",
             low[key].agrees_with(low.get(perm, zero)))
            for key in set(low) for perm in permutations(key)))

    curv = geom.curvature()
    rep.expect("lowered curvature symmetric in first pair", (
        (f"indices {(i, j, k, l)}",
         jet.agrees_with(curv.r_low.get((j, i, k, l), zero)))
        for (i, j, k, l), jet in curv.r_low.items()))

    if geom.kind == "kaehler":
        _kaehler_checks(geom, curv, rep)
    if geom.kind == "cotangent":
        _cotangent_checks(geom, curv, rep)
    return rep


def _kaehler_checks(geom, curv, rep):
    n = geom.n
    zero = geom.zero_jet()
    quads = list(product(range(n), repeat=4))

    rep.expect("curvature components mixed-index only", (
        (f"non-mixed component {(i, j, k, l)}",
         (i < n) != (j < n) and (k < n) != (l < n))
        for (i, j, k, l) in curv.r_low))

    a_mat = geom.source["A"]
    a_inv = geom.source["A_inv"]

    def hessian_formula():
        for k, l, i, j in quads:
            # i d_i d_lbar A_{k jbar} - i A^{nbar m} d_i A_{k nbar}
            #   d_lbar A_{m jbar}
            want = JetSum()
            want.add(a_mat[k][j].partial(i).partial(n + l), s=I)
            for m, nn in product(range(n), repeat=2):
                want.add(a_inv[nn][m] * a_mat[k][nn].partial(i),
                         a_mat[m][j].partial(n + l), -I)
            got = curv.low(k, n + l, i, n + j, zero)
            yield f"(k,l,i,j)=({k},{l},{i},{j})", got.agrees_with(want.jet())
    rep.expect("curvature matches potential Hessian formula",
               hessian_formula())

    def exchange():
        low = curv.low
        for k, l, i, j in quads:
            where = f"(k,l,i,j)=({k},{l},{i},{j})"
            yield where, low(k, n + l, i, n + j, zero).agrees_with(
                low(k, n + j, i, n + l, zero))
            yield "barred " + where, low(n + k, l, n + i, j, zero).agrees_with(
                low(n + k, j, n + i, l, zero))
    rep.expect("curvature exchange symmetries", exchange())


def _cotangent_checks(geom, curv, rep):
    n = geom.n
    zero = geom.zero_jet()
    rt = geom.source["curvature_base"]
    gt = geom.source["gamma_base"]
    third = Fraction(1, 3)
    quads = list(product(range(n), repeat=4))

    rep.expect("lifted curvature restricts to the base", (
        (f"(l,k,i,j)=({l},{k},{i},{j})",
         curv.up(l, k, i, j, zero).agrees_with(rt.get((l, k, i, j), zero)))
        for l, k, i, j in quads))

    rep.expect("mixed lifted curvature identity", (
        (f"(l,k,i,j)=({l},{k},{i},{j})",
         curv.up(n + l, k, i, n + j, zero).agrees_with(
             (rt.get((j, l, k, i), zero) + rt.get((j, k, l, i), zero))
             * third))
        for l, k, i, j in quads))

    # the p-linear curvature block of the published display
    def cov_rt(acc, i, a, j, l, k):
        """Add the covariant derivative nabla_i R^a_{jlk} into ``acc``."""
        acc.add(rt.get((a, j, l, k), zero).partial(i))
        g = gt
        for m in range(n):
            if (a, i, m) in g:
                acc.add(g[(a, i, m)], rt.get((m, j, l, k), zero))
            if (m, i, j) in g:
                acc.add(g[(m, i, j)], rt.get((a, m, l, k), zero), -1)
            if (m, i, l) in g:
                acc.add(g[(m, i, l)], rt.get((a, j, m, k), zero), -1)
            if (m, i, k) in g:
                acc.add(g[(m, i, k)], rt.get((a, j, l, m), zero), -1)

    def p_linear():
        for ii, j, k, l in quads:
            acc = JetSum()
            for a in range(n):
                pa = Jet.variable(geom.chart, n + a, geom.order)
                inner = JetSum()
                for (x, y) in ((ii, j), (j, ii)):
                    cov_rt(inner, x, a, y, l, k)
                    for m in range(n):
                        if (a, x, m) in gt:
                            inner.add(gt[(a, x, m)],
                                      rt.get((m, y, l, k), zero), -3)
                        if (a, l, m) in gt:
                            inner.add(gt[(a, l, m)],
                                      rt.get((m, x, y, k), zero), -1)
                        if (a, k, m) in gt:
                            inner.add(gt[(a, k, m)],
                                      rt.get((m, x, y, l), zero))
                acc.add(pa, inner.jet(), third)
            got = curv.up(n + ii, j, k, l, zero)
            yield f"(i,j,k,l)=({ii},{j},{k},{l})", got.agrees_with(acc.jet())
    rep.expect("p-linear curvature display cross-check", p_linear())
