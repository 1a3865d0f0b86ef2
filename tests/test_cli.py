"""Command-line surface: geometry files, reports, exit codes."""

import argparse
import hashlib
import json
import os
import shlex
import sys

import pytest

import fedquant.geometry
from fedquant.cli import (MAX_N, MAX_NUMBER_CHARS, MAX_ORDER, _emit,
                          _jet_table, load_geometry, main)
from fedquant.exprparse import jet_of
from fedquant.geometry import CheckReport

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPHERE = os.path.join(ROOT, "bench", "geometries", "round_sphere.json")


FLAT = '{"kind": "flat", "n": 1, "order": 11}'
DARBOUX_BAD = ('{"kind": "darboux", "n": 1, "order": 6,'
               ' "base_point": ["0"],'
               ' "gamma": {"112": "q1", "121": "2*q1"}}')
KAEHLER = ('{"kind": "kaehler", "n": 1, "order": 8, "base_point": ["0"],'
           ' "potential": "z1*zb1 + (z1*zb1)^2/3"}')


@pytest.fixture
def flat_file(tmp_path):
    path = tmp_path / "flat.json"
    path.write_text(FLAT)
    return str(path)


def test_validate_flat(flat_file, capsys):
    assert main(["validate", flat_file]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "FAIL" not in out


def test_validate_kaehler(tmp_path):
    path = tmp_path / "k.json"
    path.write_text(KAEHLER)
    assert main(["validate", str(path)]) == 0


def test_asymmetric_gamma_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(DARBOUX_BAD)
    assert main(["validate", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_asymmetric_metric_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "cotangent", "n": 2, "order": 7,'
                    ' "metric": [["1", "q1"], ["0", "1"]]}')
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert "metric is not symmetric" in captured.err
    assert captured.out == ""      # a builder precondition, not a report


def test_non_real_metric_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "cotangent", "n": 1, "order": 5,'
                    ' "metric": [["1+i*q1"]]}')
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert "metric has a non-real coefficient" in captured.err
    assert captured.out == ""


def test_broken_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["validate", str(path)]) == 2


def test_star_coefficient_dump(flat_file, capsys):
    assert main(["star", flat_file, "--f", "q1", "--g", "p1",
                 "--order", "1"]) == 0
    out = capsys.readouterr().out
    assert "hbar^1" in out
    assert "1/2*i" in out


def test_star_order_too_high_for_file(tmp_path, capsys):
    path = tmp_path / "small.json"
    path.write_text('{"kind": "flat", "n": 1, "order": 5}')
    assert main(["star", str(path), "--f", "q1", "--g", "p1",
                 "--order", "3"]) == 2


def test_star_at_hbar_order_0_is_the_pointwise_product(tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main(["star", SPHERE, "--f", "q1*p1", "--g", "p2^2",
                 "--order", "0", "--json", str(out)]) == 0
    assert "hbar^0" in capsys.readouterr().out
    geom = load_geometry(SPHERE)
    fg = jet_of("q1*p1", geom.chart, geom.order) \
        * jet_of("p2^2", geom.chart, geom.order)
    assert json.loads(out.read_text())["coefficients"] \
        == {"hbar^0": _jet_table(fg)}


def test_quantize_at_hbar_order_0(capsys):
    assert main(["quantize", SPHERE, "--f", "q1*p1", "--order", "0"]) == 2
    assert "momentum degree 1 needs a state certified through hbar^1" \
        in capsys.readouterr().err
    assert main(["quantize", SPHERE, "--f", "q1^2", "--order", "0",
                 "--quiet"]) == 0


def test_quantize_momentum_square(flat_file, capsys):
    assert main(["quantize", flat_file, "--f", "p1^2"]) == 0
    out = capsys.readouterr().out
    assert "d^(2)" in out and "-1" in out


def test_quantize_kinetic_needs_cotangent(tmp_path, capsys):
    path = tmp_path / "k.json"
    path.write_text(KAEHLER)
    assert main(["quantize", str(path), "--f", "kinetic"]) == 2


def test_quantize_kinetic_on_a_flat_chart_is_p_squared(flat_file, tmp_path):
    coefficients = []
    for f in ("kinetic", "p1^2"):
        out = tmp_path / "out.json"
        assert main(["quantize", flat_file, "--f", f, "--quiet",
                     "--json", str(out)]) == 0
        coefficients.append(json.loads(out.read_text())["coefficients"])
    assert coefficients[0] == coefficients[1]
    assert coefficients[0] == {"d^(2)": {"hbar^2": {"0": "-1"}}}


def test_quantize_on_a_darboux_chart_is_input_error(tmp_path, capsys):
    """A Darboux chart has no polarization, and the command says so before
    it solves the chart."""
    path = tmp_path / "d.json"
    path.write_text(FLAT_OFF_ORIGIN % "darboux")
    assert main(["quantize", str(path), "--f", "q1*p1", "--quiet"]) == 2
    assert "has no polarization" in capsys.readouterr().err


def test_quantize_order_on_kaehler_is_input_error(tmp_path, capsys):
    # the holomorphic operator is computed without a star product, so an
    # --order would be ignored
    path = tmp_path / "k.json"
    path.write_text(KAEHLER)
    assert main(["quantize", str(path), "--f", "z1", "--quiet"]) == 0
    assert main(["quantize", str(path), "--f", "z1", "--order", "2",
                 "--quiet"]) == 2
    assert "--order 2 does not apply" in capsys.readouterr().err


def test_check_unknown_suite(capsys):
    assert main(["check", "no-such-suite"]) == 2


# the r-terms --seed 5 report, byte for byte
R_TERMS_SEED5_JSON = """\
{
  "checks": [
    {
      "location": "sample 0",
      "name": "r_(3) = -(1/8) R y^3 dx",
      "passed": true
    },
    {
      "location": "sample 0",
      "name": "r_(4) = -(1/40) nabla R y^4 dx",
      "passed": true
    },
    {
      "location": "sample 1",
      "name": "r_(3) = -(1/8) R y^3 dx",
      "passed": true
    },
    {
      "location": "sample 1",
      "name": "r_(4) = -(1/40) nabla R y^4 dx",
      "passed": true
    },
    {
      "location": "sample 2",
      "name": "r_(3) = -(1/8) R y^3 dx",
      "passed": true
    },
    {
      "location": "sample 2",
      "name": "r_(4) = -(1/40) nabla R y^4 dx",
      "passed": true
    }
  ],
  "coefficients": {},
  "command": "check r-terms seed=5",
  "engine": "fedquant 0.1.0",
  "geometry": ""
}
"""


def test_check_suite_runs_and_json_deterministic(tmp_path, capsys):
    j1 = tmp_path / "a.json"
    j2 = tmp_path / "b.json"
    assert main(["check", "r-terms", "--seed", "5", "--quiet",
                 "--json", str(j1)]) == 0
    assert main(["check", "r-terms", "--seed", "5", "--quiet",
                 "--json", str(j2)]) == 0
    assert j1.read_bytes() == j2.read_bytes()
    doc = json.loads(j1.read_text())
    assert doc["checks"] and all(c["passed"] for c in doc["checks"])
    assert j1.read_bytes() == R_TERMS_SEED5_JSON.encode()


def test_quiet_suppresses_table(flat_file, capsys):
    assert main(["validate", flat_file, "--quiet"]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("suite,order", [("associativity", 6),
                                         ("correspondence", 4)])
def test_check_geometry_too_short_is_input_error(tmp_path, capsys, suite,
                                                 order):
    # hbar^3 (associativity) needs valid_order 9, hbar^1 needs 5
    path = tmp_path / "short.json"
    path.write_text(f'{{"kind": "flat", "n": 1, "order": {order}}}')
    assert main(["check", suite, "--geometry", str(path), "--quiet"]) == 2
    assert "valid_order" in capsys.readouterr().err


@pytest.mark.parametrize("order", ["-1", "-3"])
def test_negative_hbar_order_is_input_error(flat_file, capsys, order):
    assert main(["star", flat_file, "--f", "q1", "--g", "p1",
                 "--order", order]) == 2
    assert main(["quantize", flat_file, "--f", "p1^2",
                 "--order", order]) == 2
    captured = capsys.readouterr()
    assert "ok" not in captured.out
    assert "--order must be >= 0" in captured.err


@pytest.mark.parametrize("suite,order", [("moyal-flat", "-1"),
                                         ("r-terms", "2"),
                                         ("kinetic-alpha",
                                          str(MAX_ORDER + 1))])
def test_check_unusable_order_is_input_error(capsys, suite, order):
    assert main(["check", suite, "--order", order, "--quiet"]) == 2
    assert "--order" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["validate", "--order", "3"],
    ["validate", "--seed", "9"],
    ["star", "--f", "q1", "--g", "p1", "--seed", "9"],
    ["quantize", "--f", "p1^2", "--seed", "9"],
], ids=["validate-order", "validate-seed", "star-seed", "quantize-seed"])
def test_option_the_command_does_not_read_is_rejected(flat_file, capsys,
                                                      argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], flat_file, *argv[1:]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


ORDER_BOUND = f"order must be >= 0 and <= {MAX_ORDER}, got"
N_BOUND = f"n must be >= 1 and <= {MAX_N}, got"


@pytest.mark.parametrize("doc,message", [
    ('{"kind": "flat", "n": 1, "order": -3}', f"{ORDER_BOUND} -3"),
    ('{"kind": "flat", "n": 0, "order": 9}', f"{N_BOUND} 0"),
    ('{"kind": "cotangent", "n": 0, "order": 9, "metric": []}',
     f"{N_BOUND} 0"),
    ('{"kind": "flat", "n": 1, "order": %d}' % (MAX_ORDER + 1),
     f"{ORDER_BOUND} {MAX_ORDER + 1}"),
    ('{"kind": "flat", "n": 1, "order": 200}', f"{ORDER_BOUND} 200"),
    ('{"kind": "flat", "n": %d, "order": 1}' % (MAX_N + 1),
     f"{N_BOUND} {MAX_N + 1}"),
    ('{"kind": "cotangent", "n": %d, "order": 9, "metric": []}' % (MAX_N + 1),
     f"{N_BOUND} {MAX_N + 1}"),
    ('{"kind": "flat", "n": true, "order": 9.7}',
     "n must be an integer, got True"),
    ('{"kind": "flat", "n": 1, "order": 9.7}',
     "order must be an integer, got 9.7"),
    ('{"kind": "flat", "n": 1, "order": "9"}',
     "order must be an integer, got '9'"),
], ids=["negative-order", "zero-n", "zero-n-cotangent", "order-above-limit",
        "order-200", "n-above-limit", "n-above-limit-cotangent", "n-true",
        "order-float", "order-string"])
def test_geometry_dimensions_are_bounded(tmp_path, capsys, doc, message):
    path = tmp_path / "bounds.json"
    path.write_text(doc)
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("n,order", [(1, MAX_ORDER), (MAX_N, 1)],
                         ids=["order-at-limit", "n-at-limit"])
def test_geometry_at_the_bounds_is_accepted(tmp_path, capsys, n, order):
    path = tmp_path / "bounds.json"
    path.write_text(f'{{"kind": "flat", "n": {n}, "order": {order}}}')
    assert main(["validate", str(path), "--quiet"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("entry,message", [
    ("0.1", "bad rational 0.1"),
    ("true", "bad rational True"),
    ('"1e3000000"', "bad rational '1e3000000'"),
    ("1" * 5000, "invalid JSON"),
    ('"%s"' % ("1" * (MAX_NUMBER_CHARS + 1)),
     f"the limit is {MAX_NUMBER_CHARS}"),
    ('"1/0"', "bad rational '1/0'"),
], ids=["float", "bool", "exponent", "int-past-digit-limit", "long-string",
        "zero-denominator"])
def test_base_point_numbers_are_exact_and_bounded(tmp_path, capsys, entry,
                                                  message):
    path = tmp_path / "base.json"
    path.write_text('{"kind": "flat", "n": 1, "order": 3, '
                    f'"base_point": [{entry}]}}')
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("doc,message", [
    ('{"kind": "cotangent", "n": 1, "order": 9, "metric": 5}',
     "metric must be a list of 1 lists of 1"),
    ('{"kind": "cotangent", "n": 2, "order": 9, "metric": [[3]]}',
     "metric must be a list of 2 lists of 2"),
    ('{"kind": "cotangent", "n": 1, "order": 9, "metric": [[3]]}',
     "expression 3 must be a string"),
    ('{"kind": "cotangent", "n": 1, "order": 9, "metric": ["1"]}',
     "metric must be a list of 1 lists of 1"),
    ('{"kind": "darboux", "n": 1, "order": 9, "gamma": ["q1"]}',
     "gamma must be an object"),
    ('{"kind": "darboux", "n": 1, "order": 9, "gamma": {"111": 2}}',
     "expression 2 must be a string"),
    ('{"kind": "kaehler", "n": 1, "order": 9, "potential": 7}',
     "expression 7 must be a string"),
    ("[1, 2]", "missing or bad field"),
    ('{"kind": "flat"}', "missing or bad field: 'n'"),
    ('{"kind": "flat", "n": 1, "order": 3, "base_point": "0"}',
     "base_point must be a list"),
    ('{"kind": "flat", "n": 2, "order": 3, "base_point": [0]}',
     "base_point needs 2 entries"),
    ('{"kind": "darboux", "n": 1, "order": 3, "gamma": {"11": "q1"}}',
     "is not three 1-based indices"),
    ('{"kind": "darboux", "n": 1, "order": 3, "gamma": {"113": "q1"}}',
     "out of range"),
    ('{"kind": "cotangent", "n": 1, "order": 3}', "missing field 'metric'"),
    ('{"kind": "kaehler", "n": 1, "order": 3}', "missing field 'potential'"),
    ('{"kind": "cotangent", "n": 1, "order": 3, "metric": [["0"]]}',
     "singular at the base point"),
    ('{"kind": "weird", "n": 1, "order": 3}', "unknown kind 'weird'"),
    (None, "cannot read"),
], ids=["metric-int", "metric-short", "metric-entry-int", "metric-row-string",
        "gamma-list", "gamma-entry-int", "potential-int", "top-level-list",
        "no-n", "base-point-string", "base-point-short", "gamma-key-short",
        "gamma-index-out-of-range", "no-metric", "no-potential",
        "singular-metric", "unknown-kind", "no-file"])
def test_geometry_field_types_are_checked(tmp_path, capsys, doc, message):
    # doc None: the file is never written
    path = tmp_path / "types.json"
    if doc is not None:
        path.write_text(doc)
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("entry", ["3", '"-7"', '"-1/2"', '"0.25"',
                                   '"%s"' % ("1" * MAX_NUMBER_CHARS)],
                         ids=["int", "int-string", "fraction", "decimal",
                              "longest-string"])
def test_base_point_accepts_ints_fractions_and_decimals(tmp_path, capsys,
                                                        entry):
    path = tmp_path / "base.json"
    path.write_text('{"kind": "darboux", "n": 1, "order": 3, '
                    f'"base_point": [{entry}], "gamma": {{}}}}')
    assert main(["validate", str(path), "--quiet"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv,message", [
    (["star", "--f", "q1 $", "--g", "p1"], "unexpected character"),
    (["quantize", "--f", "(q1"], "expected ')'"),
    (["star", "--f", "", "--g", "p1"],
     "unexpected end of input (at position 0)"),
    (["star", "--f", "q1", "--g", "p1 +"],
     "unexpected end of input (at position 4)"),
], ids=["star", "quantize", "star-empty", "star-cut-short"])
def test_unparsable_observable_is_input_error(flat_file, capsys, argv,
                                              message):
    assert main([argv[0], flat_file, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


FLAT_OFF_ORIGIN = '{"kind": "%s", "n": 1, "order": 5, "base_point": ["1/2"]}'


def test_flat_file_keeps_its_base_point(tmp_path):
    """A flat file and a connection-free Darboux file about the same base
    point give the same star product, expanded about that point."""
    tables = []
    for kind in ("flat", "darboux"):
        path = tmp_path / f"{kind}.json"
        path.write_text(FLAT_OFF_ORIGIN % kind)
        out = tmp_path / f"{kind}-star.json"
        assert main(["star", str(path), "--f", "q1", "--g", "q1",
                     "--order", "1", "--quiet", "--json", str(out)]) == 0
        tables.append(json.loads(out.read_text())["coefficients"])
    assert tables[0] == tables[1]
    assert tables[0]["hbar^0"] == {"0,0": "1/4", "1,0": "1", "2,0": "1"}


def test_failing_entry_prints_fail_and_exits_1(capsys):
    report = CheckReport()
    report.add("identity", True)
    report.add("cross-check", False, "sample 0")
    args = argparse.Namespace(quiet=False, json=None)
    assert _emit(args, "demo", report) == 1
    assert "FAIL cross-check  sample 0" in capsys.readouterr().out


@pytest.fixture
def validation_calls(monkeypatch):
    """The geometries ``validate_connection`` runs on, in call order."""
    calls = []
    original = fedquant.geometry.validate_connection

    def counting(geom):
        calls.append(geom)
        return original(geom)

    # rebind every module-level reference, as an import may hold its own
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("fedquant") \
                and getattr(mod, "validate_connection", None) is original:
            monkeypatch.setattr(mod, "validate_connection", counting)
    return calls


def test_validate_runs_validation_once(flat_file, validation_calls):
    assert main(["validate", flat_file, "--quiet"]) == 0
    assert len(validation_calls) == 1


def test_structural_check_validates_each_geometry_once(validation_calls):
    """The builders validate the four charts; the suite reads their
    reports."""
    assert main(["check", "structural", "--quiet"]) == 0
    assert len(validation_calls) == len(set(map(id, validation_calls))) == 4


@pytest.mark.parametrize("suite", ["second-order", "structural"])
def test_every_acceptance_suite_runs_from_the_command_line(capsys, suite):
    assert main(["check", suite, "--quiet"]) == 0
    assert capsys.readouterr().err == ""


def test_check_geometry_for_a_seeded_suite_is_input_error(flat_file, capsys):
    assert main(["check", "kompi", "--geometry", flat_file]) == 2
    assert "omit the geometry file" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["associativity", "correspondence"])
def test_check_order_with_geometry_is_input_error(flat_file, capsys, suite):
    # the geometry file fixes the jet order, so --order would be ignored
    assert main(["check", suite, "--geometry", flat_file,
                 "--order", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--order 3 conflicts with --geometry" in captured.err


def test_readme_quantize_command_runs_on_sphere(capsys):
    with open(os.path.join(ROOT, "README.md")) as fh:
        line = next(ln for ln in fh
                    if ln.startswith("fedquant quantize sphere.json"))
    argv = [SPHERE if a == "sphere.json" else a
            for a in shlex.split(line)[1:]]
    assert main(argv) == 0
    assert "operator computed" in capsys.readouterr().out


KAEHLER_CURVED = ('{"kind": "kaehler", "n": 1, "order": 12,'
                  ' "base_point": ["1/3"], "potential":'
                  ' "z1*zb1 + 1/3*z1^2*zb1^2 - 1/5*z1^3*zb1^3"}')

KAEHLER_PLAIN = ('{"kind": "kaehler", "n": 1, "order": 8, "potential":'
                 ' "z1*zb1 + (z1*zb1)^2/3"}')
ELEMENTARY = ('{"kind": "cotangent", "n": 1, "order": 10, "metric":'
              ' [["exp(q1^2/4) + sin(q1)^2 + sqrt(1 + q1^2/3) - 1'
              ' + log(1 + q1^2) + cos(q1) - 1"]]}')
CUBIC = ('{"kind": "cotangent", "n": 1, "order": 11,'
         ' "metric": [["1 + q1^2/3"]]}')
COTANGENT_N3 = (
    '{"kind": "cotangent", "n": 3, "order": 9, "metric":'
    ' [["1 + q1^2/3 + q2*q3/5", "q1*q2/4", "q3^2/6"],'
    ' ["q1*q2/4", "1 + q2^2/2 - q1*q3/7", "q1/3 + q2*q3/8"],'
    ' ["q3^2/6", "q1/3 + q2*q3/8", "1 + q3^2 + q1^3/9"]]}')
TORIC = ('{"kind": "kaehler", "n": 2, "order": 12,'
         ' "potential": "z1*zb1 + z2*zb2 + z1*zb1*z2*zb2/2"}')
KAEHLER_N1 = ('{"kind": "kaehler", "n": 1, "order": 12, "potential":'
              ' "z1*zb1 + (z1*zb1)^2/3 + z1^2*zb1/5 + z1*zb1^2/5"}')

# sha256 of json.dumps(doc["coefficients"], sort_keys=True); only the
# coefficients are hashed, because the command line names the file's path.
# A geometry is the sphere file or a JSON text written to a file; the last
# nine cases are the pins of the CI entry-point step, same inputs
GOLDEN_COEFFICIENTS = [
    # an n = 1, N = 3 state: the operator table, 1 x 2 terms summed by pairs
    (KAEHLER_CURVED, ["star", "--f", "z1^2*zb1", "--g", "zb1 + z1*zb1^2",
                 "--order", "3"],
     "22398994cc91aa1ce9691d78bc1de270d86b6861205796d141adea8eef843fb6"),
    (SPHERE, ["star", "--f", "p1*q2 + q1^2", "--g", "p2^2 + p1*q1",
              "--order", "2"],
     "1643b031c44219b0868a9a59c6557cb336a2031b2a58ff58f5a4b00deef4f44e"),
    (SPHERE, ["quantize", "--f", "kinetic", "--order", "2"],
     "d90b3df1499ebb6a0d0241b86ebebaaf5ff3512cd2b71c599f33722a42a051d7"),
    # u = z1, v = z1^2: the first-order rule on the holomorphic side
    (KAEHLER_CURVED, ["quantize", "--f",
                 "z1*(zb1 + 2/3*z1*zb1^2 - 3/5*z1^2*zb1^3) + z1^2"],
     "188a8685b068951cd1d0377c4448042055e1d2b85f3f8b1902cdd584b2f9c2d7"),
    # affine in p: the first-order rule with the metric volume, through rho
    (SPHERE, ["quantize", "--f", "q1*p2 + p1 + q2^2", "--order", "2"],
     "5d7ed849ced8d6783072e873867bc03927dcbef94aa2115c3bbc27edd46e708d"),
    (SPHERE, ["quantize", "--f", "q1*p2 + p1", "--order", "1"],
     "a936a90d211fac18d8870b600eddd7270a45fda7fddfb1875566dcca74db20a7"),
    (CUBIC, ["quantize", "--f", "q1*p1^3 + 2/3*p1^3 + q1^2*p1^2 - p1",
             "--order", "3"],
     "2fc3e502e2da661a5848b7d03591909815b939c7e400482d91def204b53248a1"),
    (KAEHLER_PLAIN, ["quantize", "--f", "z1*(zb1 + 2/3*z1*zb1^2) + z1^2"],
     "325bed05964f5e6216bf483aaa69f37d16eee894c2b6f155fb1ead0d00dcffe5"),
    (ELEMENTARY, ["star", "--f", "q1*p1", "--g", "p1^2", "--order", "2"],
     "e37670181b4aec1a19e62c812ab57bf034f99e73005bcc04a1fa0320355595b5"),
    (SPHERE, ["star", "--f", "q1*p1", "--g", "p2^2", "--order", "2"],
     "90c2d977ae19ca3b84e6470b3dedb43f1501f146ad4ce673401db5c471a6607c"),
    (COTANGENT_N3, ["star", "--f", "q1*p2 + q3*p1^2", "--g", "p3*q2 + p1",
                    "--order", "1"],
     "af12b8c9228e029f6c618cf01a8bc3541cb9efb55680ad0385923a20ce097eda"),
    (TORIC, ["star", "--f", "z1*zb2 + zb1^2*z2", "--g", "z2*zb2^2 + zb1",
             "--order", "3"],
     "7c944f95c7864cd3c225ad29882ffcd68591e8012601851f89b0ba20db529628"),
    # the operator table of an n = 1, N = 3 state, 17 (k, multi-index)
    # groups through hbar^3: 2 x 2 terms are summed by pairs of terms,
    # 5 x 5 by the bidifferential groups
    (KAEHLER_N1, ["star", "--f", "z1*zb1^2 + zb1", "--g", "z1^2*zb1 + z1",
                  "--order", "3"],
     "c7f0b7d9ed1a6c1694ebbaaf7cd506442e6896ab8dd09c287aae4ec9b9d632ef"),
    (KAEHLER_N1, ["star", "--f", "z1*zb1^2 + zb1 + z1^2 + 2*z1*zb1 - zb1^3",
                  "--g", "z1^2*zb1 + z1 + zb1^2/3 + z1^3*zb1 - 1/2*z1*zb1",
                  "--order", "3"],
     "660f80f44a9a9dee82af230774b3a119d5e3e864f25e94a0ec3216763ff5ed8a"),
]


@pytest.mark.parametrize("geometry,argv,digest", GOLDEN_COEFFICIENTS,
                         ids=["kaehler-star", "sphere-star",
                              "sphere-quantize-kinetic", "kaehler-quantize",
                              "sphere-quantize-affine", "rho-sphere-affine",
                              "rho-cubic", "rho-kaehler", "star-elementary",
                              "star-sphere", "star-cotangent-n3",
                              "star-toric", "star-kaehler-n1",
                              "star-kaehler-n1-groups"])
def test_curved_chart_coefficients_are_pinned(tmp_path, geometry, argv,
                                              digest):
    if geometry.startswith("{"):
        text, geometry = geometry, tmp_path / "geometry.json"
        geometry.write_text(text)
    out = tmp_path / "out.json"
    assert main([argv[0], str(geometry), *argv[1:], "--quiet",
                 "--json", str(out)]) == 0
    coefficients = json.loads(out.read_text())["coefficients"]
    got = hashlib.sha256(
        json.dumps(coefficients, sort_keys=True).encode()).hexdigest()
    assert got == digest
