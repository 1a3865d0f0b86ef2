"""Command-line surface: geometry files, star products, check suites.

Geometry files are JSON:

    { "kind": "flat" | "darboux" | "cotangent" | "kaehler",
      "n": 1, "order": 9,
      "base_point": ["1/2", "1/3"],                 (ints, or strings of an
                                                    int, p/q or a decimal)
      "metric": [["4/(1+q1^2+q2^2)^2", "0"], ...]   (cotangent)
      "potential": "z1*zb1"                          (kaehler)
      "gamma": {"111": "q1", ...}                    (darboux, 1-based) }

Reports go to stdout as an aligned table plus optional JSON (--json PATH).
Exit codes: 0 all checks pass, 1 check failure, 2 input error.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import re
import sys
from fractions import Fraction

from . import __version__
from .exprparse import ParseError, jet_of
from .jets import Chart, JetError
from .geometry import (CheckReport, GeometryError, ValidationFailure,
                       build_darboux, build_flat, build_kaehler, complex_chart,
                       lift_cotangent, phase_chart)
from .fedosov import FedosovError, solve_r, star
from .quantization import (gq_kaehler, kinetic_energy_observable,
                           polarization, rho_extend)
from .suites import SUITES


# limits on geometry files and on `check --order`; the cost of every
# command grows steeply in both
MAX_N = 16
MAX_ORDER = 16
# longest base-point entry, in characters: the number enters every jet of
# the chart, and Fraction would expand "1e3000000" to 10 million bits
MAX_NUMBER_CHARS = 100

# an integer, p/q or a finite decimal
_NUMBER = re.compile(r"[-+]?\d+(/\d+|\.\d+)?")


class InputError(Exception):
    pass


def _rational(value):
    """A base-point entry: a JSON int, or a string holding an integer, p/q
    or a finite decimal, of at most ``MAX_NUMBER_CHARS`` characters."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise InputError(f"bad rational {value!r}: give an int, or a string "
                         "holding an int, p/q or a decimal")
    text = str(value)
    if len(text) > MAX_NUMBER_CHARS:
        raise InputError(f"rational of {len(text)} characters; the limit is "
                         f"{MAX_NUMBER_CHARS}")
    if not _NUMBER.fullmatch(text):
        raise InputError(f"bad rational {text!r}: give an int, p/q or a "
                         "decimal")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise InputError(f"bad rational {text!r}: {exc}") from None


def _jet_table(jet):
    """Coefficients keyed 'e1,e2,...'; values are CRat strings 'p/q' or
    'p/q+r/s*i', deterministic and float-free."""
    return {",".join(str(e) for e in key): str(c)
            for key, c in sorted(jet.coeffs.items())}


def load_geometry(path):
    """Parse and validate a geometry file into a ChartGeometry."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        # JSONDecodeError, or an int literal past Python's digit limit
        raise InputError(f"{path}: invalid JSON: {exc}") from None
    try:
        kind = doc["kind"]
        n, order = doc["n"], doc["order"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"{path}: missing or bad field: {exc}") from None
    for field, value in (("n", n), ("order", order)):
        # a JSON integer only: bool is an int subclass, and int() would
        # truncate a float or parse a string
        if type(value) is not int:
            raise InputError(
                f"{path}: {field} must be an integer, got {value!r}")
    if not 1 <= n <= MAX_N:
        raise InputError(f"{path}: n must be >= 1 and <= {MAX_N}, got {n}")
    if not 0 <= order <= MAX_ORDER:
        raise InputError(
            f"{path}: order must be >= 0 and <= {MAX_ORDER}, got {order}")
    base = doc.get("base_point", [0] * n)
    if not isinstance(base, list):
        raise InputError(f"{path}: base_point must be a list")
    base = tuple(_rational(b) for b in base)
    if len(base) != n:
        raise InputError(f"{path}: base_point needs {n} entries")

    def elaborate(src, chart):
        if not isinstance(src, str):
            raise InputError(f"{path}: expression {src!r} must be a string")
        try:
            return jet_of(src, chart, order)
        except (ParseError, JetError) as exc:
            raise InputError(f"{path}: in {src!r}: {exc}") from None

    try:
        if kind == "flat":
            return build_flat(n, order, base)
        if kind == "darboux":
            chart = phase_chart(n, base)
            gamma = doc.get("gamma", {})
            if not isinstance(gamma, dict):
                raise InputError(f"{path}: gamma must be an object")
            gl = {}
            for key, src in gamma.items():
                if len(key) != 3 or not key.isdigit():
                    raise InputError(
                        f"{path}: gamma key {key!r} is not three 1-based "
                        "indices")
                idx = tuple(int(ch) - 1 for ch in key)
                if any(not 0 <= i < 2 * n for i in idx):
                    raise InputError(f"{path}: gamma index {key!r} out of "
                                     "range")
                gl[idx] = elaborate(src, chart)
            return build_darboux(n, gl, order, base)
        if kind == "cotangent":
            chart = Chart(tuple(f"q{i+1}" for i in range(n)), base)
            rows = doc["metric"]
            if not isinstance(rows, list) or len(rows) != n or any(
                    not isinstance(r, list) or len(r) != n for r in rows):
                raise InputError(
                    f"{path}: metric must be a list of {n} lists of {n}")
            metric = [[elaborate(src, chart) for src in row] for row in rows]
            return lift_cotangent(metric, order)
        if kind == "kaehler":
            chart = complex_chart(n, base)
            return build_kaehler(elaborate(doc["potential"], chart), order)
    except KeyError as exc:
        raise InputError(f"{path}: missing field {exc}") from None
    except ValidationFailure as exc:
        raise InputError(f"{path}: geometry fails validation:\n{exc}") \
            from None
    except (GeometryError, JetError) as exc:
        raise InputError(f"{path}: {exc}") from None
    raise InputError(f"{path}: unknown kind {kind!r}")


def _digest(path):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()[:16]
    except OSError:
        return ""


def _emit(args, command, report, geometry="", coefficients=None):
    """Print the check table and write the JSON report; return the exit code.

    The JSON document has the keys command, engine, geometry, checks (name,
    passed, location per entry) and coefficients.
    """
    coefficients = coefficients or {}
    engine = f"fedquant {__version__}"
    if not args.quiet:
        lines = [engine + "  " + command]
        if geometry:
            lines.append(f"geometry {geometry}")
        width = max((len(c["name"]) for c in report.checks), default=0)
        for c in report.checks:
            mark = "ok  " if c["passed"] else "FAIL"
            loc = f"  {c['location']}" if c["location"] else ""
            lines.append(f"  {mark} {c['name']:<{width}}{loc}")
        for label, tab in coefficients.items():
            lines.append(label)
            for key in tab:
                lines.append(f"  [{key}] {tab[key]}")
        print("\n".join(lines))
    if args.json:
        doc = {"command": command, "engine": engine, "geometry": geometry,
               "checks": [{k: c[k] for k in ("name", "passed", "location")}
                          for c in report.checks],
               "coefficients": coefficients}
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if report.passed else 1


def cmd_validate(args):
    # the builders inside load_geometry have validated already; print the
    # report they computed
    geom = load_geometry(args.geometry)
    return _emit(args, f"validate {args.geometry}", geom.validation(),
                 _digest(args.geometry))


def _order(args, default):
    """--order: an hbar power (star, quantize) or a jet order (check), >= 0."""
    if args.order is None:
        return default
    if args.order < 0:
        raise InputError(f"--order must be >= 0, got {args.order}")
    return args.order


def cmd_star(args):
    n = _order(args, 2)
    geom = load_geometry(args.geometry)
    try:
        f = jet_of(args.f, geom.chart, geom.order)
        g = jet_of(args.g, geom.chart, geom.order)
        state = solve_r(geom, n)
    except (ParseError, JetError) as exc:
        raise InputError(str(exc)) from None
    series = star(f, g, state)
    report = CheckReport()
    report.add("star series computed", True)
    coefficients = {f"hbar^{k}": _jet_table(series.coefficient(k))
                    for k in range(series.valid_hbar_order + 1)}
    return _emit(args, f"star {args.geometry} f={args.f!r} g={args.g!r} N={n}",
                 report, _digest(args.geometry), coefficients)


def cmd_check(args):
    runner = SUITES.get(args.suite)
    if runner is None:
        raise InputError(f"unknown suite {args.suite!r}; choose from "
                         + ", ".join(sorted(SUITES)))
    kwargs = {"seed": args.seed}
    order = _order(args, None)
    if order is not None:
        if order > MAX_ORDER:
            raise InputError(
                f"--order must be >= 0 and <= {MAX_ORDER}, got {order}")
        kwargs["order"] = order
    if args.geometry:
        if "geometry" not in inspect.signature(runner).parameters:
            raise InputError(
                f"suite {args.suite!r} builds its own seeded geometries; "
                "omit the geometry file")
        if order is not None:
            raise InputError(
                f"--order {order} conflicts with --geometry "
                f"{args.geometry}: the geometry file sets the jet order")
        kwargs["geometry"] = load_geometry(args.geometry)
    try:
        report = runner(**kwargs)
    except JetError as exc:
        # a geometry file can be too short for the suite's hbar order; on
        # its own geometries at its own order a JetError is a library fault
        if args.geometry and isinstance(exc, FedosovError):
            raise InputError(f"{args.geometry}: {exc}") from None
        if order is None:
            raise
        raise InputError(f"suite {args.suite!r} cannot run at --order "
                         f"{order}: {exc}") from None
    return _emit(args, f"check {args.suite} seed={args.seed}", report,
                 _digest(args.geometry) if args.geometry else "")


def cmd_quantize(args):
    n = _order(args, 3)
    geom = load_geometry(args.geometry)
    try:
        pol = polarization(geom)
        if not pol.factorizes and args.order is not None:
            # the holomorphic operator is exact at first order in hbar
            raise InputError(f"--order {args.order} does not apply to "
                             f"{args.geometry}: its operator needs no star "
                             "product")
        # the kinetic energy of a geometry with no base metric raises
        # QuantizationError
        f = (kinetic_energy_observable(geom) if args.f.strip() == "kinetic"
             else jet_of(args.f, geom.chart, geom.order))
        op = (rho_extend(f, solve_r(geom, n)) if pol.factorizes
              else gq_kaehler(f, geom))
    except (ParseError, JetError) as exc:
        raise InputError(str(exc)) from None
    report = CheckReport()
    report.add("operator computed", True)
    coefficients = {}
    for idx in sorted(op.terms):
        label = "d^(" + ",".join(str(e) for e in idx) + ")"
        series = op.terms[idx]
        coefficients[label] = {f"hbar^{k}": _jet_table(series.coeffs[k])
                               for k in sorted(series.coeffs)}
    return _emit(args, f"quantize {args.geometry} f={args.f!r}", report,
                 _digest(args.geometry), coefficients)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="fedquant",
        description="exact star products and quantization operators on "
                    "symplectic charts")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, order_help=None):
        if order_help:
            p.add_argument("--order", type=int, default=None,
                           help=order_help)
        p.add_argument("--json", metavar="PATH",
                       help="also write the report as JSON")
        p.add_argument("--quiet", action="store_true",
                       help="suppress the stdout table")

    p = sub.add_parser("validate", help="validate a geometry file")
    p.add_argument("geometry", help="geometry JSON file")
    common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("star", help="star product coefficient dump")
    p.add_argument("geometry", help="geometry JSON file")
    common(p, "hbar order of the series (default 2)")
    p.add_argument("--f", required=True, help="first factor expression")
    p.add_argument("--g", required=True, help="second factor expression")
    p.set_defaults(fn=cmd_star)

    p = sub.add_parser("check", help="run a named check suite")
    p.add_argument("suite", help="one of: " + ", ".join(sorted(SUITES)))
    p.add_argument("--geometry", default=None,
                   help="optional geometry file, for a suite that takes one")
    p.add_argument("--seed", type=int, default=0)
    common(p, "jet order of the suite's geometries (default: the "
              "suite's own)")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("quantize", help="polarization operator dump")
    p.add_argument("geometry", help="geometry JSON file")
    common(p, "hbar order of the operator (default 3; not for a kaehler "
              "file)")
    p.add_argument("--f", required=True,
                   help="observable expression, or 'kinetic'")
    p.set_defaults(fn=cmd_quantize)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
