"""Checks of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

Every case runs ``bench/run.py`` in fresh interpreters with ``--seconds 0``
(the fixed query prefix only), so the module takes several minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from layertrace import metric_units  # noqa: E402
from run import END_TO_END, WORKLOAD_NAMES, parse_run  # noqa: E402

ALL = set(WORKLOAD_NAMES)
KAEHLER, SOLVE, QUANTIZE = WORKLOAD_NAMES

# per-layer metric prefix -> workloads on which that layer must be busy;
# the README's layer map names the end-to-end metric each should move
LAYER_WORKLOADS = {
    "jets.mul": ALL,
    "jets.add": ALL,
    "exprparse.jet_of": {QUANTIZE},
    "cli.load_geometry": {QUANTIZE},
    "weyl.weyl_mul": {SOLVE},
    "weyl.graded_commutator": {KAEHLER},
    "weyl.op_delta_inv": {KAEHLER},
    "weyl.symbol_mul": {KAEHLER, QUANTIZE},
    "geometry.build": {SOLVE},
    "geometry.validate_connection": {SOLVE},
    "geometry.nabla": {SOLVE, KAEHLER},
    "fedosov.solve_r": {SOLVE},
    "fedosov.flat_section": {KAEHLER, QUANTIZE},
    "fedosov.star": {KAEHLER, QUANTIZE},
    "quantization.rho_extend": {QUANTIZE},
    "quantization.gq_cotangent": {QUANTIZE},
    "quantization.diffop_compose": {QUANTIZE},
    "quantization.kinetic_alpha": {QUANTIZE},
}

# deterministic work counters; times are left out
COUNTER_SUFFIXES = (".calls", ".pairs", ".out_terms", "_bits_max",
                    ".reuse_ratio")


def bench_run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0", "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
    extras, result = parse_run(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return extras, {k: m["value"] for k, m in result["metrics"].items()}


def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == metric_units()
    assert {name.rsplit(".", 1)[0] for name in metric_units()} \
        == set(LAYER_WORKLOADS) | {"rational"}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_runs_repeat_and_match_untraced(workload):
    extras1, traced1 = bench_run(workload, 0, 1)
    extras2, traced2 = bench_run(workload, 0, 1)
    extras0, untraced = bench_run(workload, 0, 0)

    assert set(untraced) == set(END_TO_END)
    assert set(traced1) == set(metric_units())
    counters = {k for k in traced1 if k.endswith(COUNTER_SUFFIXES)}
    assert {k: traced1[k] for k in counters} \
        == {k: traced2[k] for k in counters}
    # tracing must not change a single output coefficient
    assert extras1["digest"] == extras2["digest"] == extras0["digest"]
    assert extras0["digest_status"] == "matches seed 0"

    assert traced1["rational.den_bits_max"] > 0
    assert traced1["rational.num_bits_max"] > 0
    for layer, busy_on in LAYER_WORKLOADS.items():
        if workload in busy_on:
            assert traced1[f"{layer}.calls"] > 0, layer


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_held_out_seed_passes_every_check(workload):
    extras, _ = bench_run(workload, 1, 1)
    assert extras["fail_frac"] == 0
