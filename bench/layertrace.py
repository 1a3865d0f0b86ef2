"""Outside-in layer tracer for the benchmark.

Wraps the public functions of fedquant's layers from outside the library:
each wrapper is rebound in every module namespace that holds the original
function object (``fedquant.fedosov.nabla``, ``fedquant.quantization.star``,
the defining module, the package namespace, ...), so calls made inside the
library are seen as well as calls made by the benchmark.

Two kinds of instrument:

- spans (name, start, end, parent) at the ``cli``, ``exprparse``,
  ``geometry``, ``weyl``, ``fedosov`` and ``quantization`` boundaries; a
  layer's self time is its spans' duration minus the time covered by child
  spans;
- aggregate counters on ``Jet.__mul__`` / ``Jet.__add__`` (calls,
  convolved coefficient pairs, output terms, time) and on the bit sizes of
  the rationals those operations produce.  These see tens of thousands of
  calls per second, so they keep no per-call records.

Everything is kept in memory; ``metrics()`` folds it into flat per-layer
numbers and ``spans`` can be written out when the run ends.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# span name -> (module, function names); several functions may share a name
SPAN_LAYERS = {
    "cli.load_geometry": ("fedquant.cli", ("load_geometry",)),
    "exprparse.jet_of": ("fedquant.exprparse", ("jet_of",)),
    "geometry.build": ("fedquant.geometry",
                       ("lift_cotangent", "build_kaehler", "build_darboux")),
    "geometry.validate_connection": ("fedquant.geometry",
                                     ("validate_connection",)),
    "geometry.nabla": ("fedquant.geometry", ("nabla",)),
    "weyl.weyl_mul": ("fedquant.weyl", ("weyl_mul",)),
    "weyl.graded_commutator": ("fedquant.weyl", ("graded_commutator",)),
    "weyl.op_delta_inv": ("fedquant.weyl", ("op_delta_inv",)),
    "weyl.symbol_mul": ("fedquant.weyl", ("symbol_mul",)),
    "fedosov.solve_r": ("fedquant.fedosov", ("solve_r",)),
    "fedosov.flat_section": ("fedquant.fedosov", ("flat_section",)),
    "fedosov.star": ("fedquant.fedosov", ("star",)),
    "quantization.rho_extend": ("fedquant.quantization", ("rho_extend",)),
    "quantization.gq_cotangent": ("fedquant.quantization", ("gq_cotangent",)),
    "quantization.diffop_compose": ("fedquant.quantization",
                                    ("diffop_compose",)),
    "quantization.kinetic_alpha": ("fedquant.quantization",
                                   ("kinetic_alpha",)),
}

COUNTER_METRICS = (
    ("rational.den_bits_max", "bits"),
    ("rational.num_bits_max", "bits"),
    ("jets.mul.calls", "count"),
    ("jets.mul.pairs", "count"),
    ("jets.mul.out_terms", "count"),
    ("jets.mul.self_s", "s"),
    ("jets.add.calls", "count"),
    ("jets.add.self_s", "s"),
    ("fedosov.flat_section.reuse_ratio", "ratio"),
)


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = dict(COUNTER_METRICS)
    for name in SPAN_LAYERS:
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
        out[f"{name}.total_s"] = "s"
    return out


def _degree_histogram(jet, v):
    hist = Counter()
    for alpha in jet.coeffs:
        d = sum(alpha)
        if d <= v:
            hist[d] += 1
    return hist


def _convolved_pairs(a, b):
    """Coefficient pairs Jet.__mul__ visits: degrees summing to <= valid."""
    v = min(a.valid_order, b.valid_order)
    ha = _degree_histogram(a, v)
    hb = _degree_histogram(b, v)
    return sum(ca * cb for da, ca in ha.items()
               for db, cb in hb.items() if da + db <= v)


class LayerTrace:
    """Install with ``with LayerTrace() as tr:``; read ``tr.metrics()``."""

    def __init__(self, extra_namespaces=()):
        self.extra_namespaces = tuple(extra_namespaces)
        self.spans = []          # [name, start, end, parent index or -1]
        self._stack = []
        self.count = Counter()
        self.time = Counter()
        self.num_bits = 0
        self.den_bits = 0
        self.section_calls = 0
        self.section_reuse = 0
        self._seen_sections = {}  # id(state) -> (state, set of input jets)
        self._undo = []

    # -- installation -----------------------------------------------------

    def _namespaces(self):
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "fedquant" or name.startswith("fedquant.")]
        return mods + list(self.extra_namespaces)

    def _rebind(self, original, wrapper):
        for mod in self._namespaces():
            ns = vars(mod)
            for attr, value in list(ns.items()):
                if value is original:
                    self._undo.append((ns, attr, original))
                    ns[attr] = wrapper

    def __enter__(self):
        import fedquant.jets
        for span, (modname, funcs) in SPAN_LAYERS.items():
            mod = sys.modules[modname]
            for fname in funcs:
                original = getattr(mod, fname)
                self._rebind(original, self._span_wrapper(span, original))
        flat = sys.modules["fedquant.fedosov"].flat_section
        self._rebind(flat, self._section_wrapper(flat))
        jet = fedquant.jets.Jet
        mul, add = jet.__mul__, jet.__add__
        wrapped_mul = self._jet_wrapper("mul", mul)
        wrapped_add = self._jet_wrapper("add", add)
        for attr, fn in (("__mul__", wrapped_mul), ("__rmul__", wrapped_mul),
                         ("__add__", wrapped_add), ("__radd__", wrapped_add)):
            self._undo.append((jet, attr, getattr(jet, attr)))
            setattr(jet, attr, fn)
        return self

    def __exit__(self, *exc):
        for target, attr, original in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._undo.clear()
        return False

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), None,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
        return wrapper

    def _section_wrapper(self, inner):
        # sits inside the span wrapper already bound to the same names
        @functools.wraps(inner)
        def wrapper(f, state, *args, **kwargs):
            entry = self._seen_sections.setdefault(id(state), (state, set()))
            self.section_calls += 1
            if f in entry[1]:
                self.section_reuse += 1
            else:
                entry[1].add(f)
            return inner(f, state, *args, **kwargs)
        return wrapper

    def _jet_wrapper(self, op, fn):
        count, time = self.count, self.time

        def wrapper(a, b):
            t0 = perf_counter()
            out = fn(a, b)
            time[op] += perf_counter() - t0
            if out is NotImplemented:
                return out
            count[op + ".calls"] += 1
            if op == "mul":
                if hasattr(b, "coeffs"):
                    count["mul.pairs"] += _convolved_pairs(a, b)
                else:
                    count["mul.pairs"] += len(a.coeffs)
                count["mul.out_terms"] += len(out.coeffs)
            self._record_bits(out)
            return out
        return wrapper

    def _record_bits(self, jet):
        num, den = self.num_bits, self.den_bits
        for c in jet.coeffs.values():
            for q in (c.re, c.im):
                n = q.numerator.bit_length()
                d = q.denominator.bit_length()
                if n > num:
                    num = n
                if d > den:
                    den = d
        self.num_bits, self.den_bits = num, den

    # -- reporting ----------------------------------------------------------

    def layer_times(self):
        """{span name: (calls, self seconds, total seconds)}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0, 0.0, 0.0] for name in SPAN_LAYERS}
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            rec = out[name]
            rec[0] += 1
            rec[1] += dur - child[i]
            # total time counts only the outermost span of a name, so a
            # layer that re-enters itself is not counted twice
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                rec[2] += dur
        return out

    def metrics(self):
        """Flat {metric name: value} over every name of ``metric_units``."""
        out = {
            "rational.den_bits_max": self.den_bits,
            "rational.num_bits_max": self.num_bits,
            "jets.mul.calls": self.count["mul.calls"],
            "jets.mul.pairs": self.count["mul.pairs"],
            "jets.mul.out_terms": self.count["mul.out_terms"],
            "jets.mul.self_s": self.time["mul"],
            "jets.add.calls": self.count["add.calls"],
            "jets.add.self_s": self.time["add"],
            "fedosov.flat_section.reuse_ratio":
                self.section_reuse / self.section_calls
                if self.section_calls else 0.0,
        }
        for name, (calls, self_s, total_s) in self.layer_times().items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.total_s"] = total_s
        return out
