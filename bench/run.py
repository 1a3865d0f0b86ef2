"""Benchmark for fedquant: exact star products and quantization operators.

One run is one workload in this fresh interpreter, closed loop, one caller:

    python3 bench/run.py --workload assoc-kaehler-n1 --seed 0 --seconds 5 \
        --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  ``--workload all`` (untraced only) runs
every workload in its own fresh interpreter and prints one row of
end-to-end metrics each.
The last line of a single run's standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 1 when an exact check fails or the output digest differs from the
one recorded for the seed, 2 when the checkout has no ``src/fedquant``.
See ``bench/README.md`` for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(BENCH, "digests.json")
SPANS_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("assoc-kaehler-n1", "solve-n2", "quantize-cotangent-n2")

END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "total_s": "s",
    "peak_rss_mb": "MB",
}


def import_fedquant():
    """Import fedquant from this checkout's ``src``, never from elsewhere."""
    pkg = os.path.join(SRC, "fedquant")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        print(f"bench: no fedquant package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import fedquant
    if os.path.dirname(os.path.realpath(fedquant.__file__)) \
            != os.path.realpath(pkg):
        print(f"bench: imported fedquant from {fedquant.__file__}, not "
              f"from {pkg}", file=sys.stderr)
        sys.exit(2)


def canonical(value):
    """Exact text form of an output: rationals as p/q, keys sorted."""
    if hasattr(value, "coeffs") and hasattr(value, "valid_order"):  # Jet
        terms = ";".join(f"{','.join(map(str, a))}:{c}"
                         for a, c in sorted(value.coeffs.items()))
        return f"J{value.valid_order}[{terms}]"
    if hasattr(value, "coefficients"):                          # StarSeries
        return "S[" + "|".join(map(canonical, value.coefficients)) + "]"
    if hasattr(value, "terms"):                                     # DiffOp
        return "D[" + "|".join(f"{idx}:{canonical(s)}"
                               for idx, s in sorted(value.terms.items())) \
            + "]"
    if hasattr(value, "coeffs"):                                # HbarSeries
        return "H[" + "|".join(f"{k}:{canonical(j)}"
                               for k, j in sorted(value.coeffs.items())) + "]"
    if isinstance(value, tuple):
        return "(" + ",".join(map(canonical, value)) + ")"
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{canonical(v)}"
                              for k, v in sorted(value.items())) + "}"
    return str(value)


class Recorder:
    """Times queries, runs checks and hashes outputs for one run.

    Queries and checks are kept as wall intervals (start, end) and turned
    into seconds only when the run is over; ``busy_s`` is a running total
    in the seconds of ``clock(start, end)``.
    """

    def __init__(self, clock):
        self.clock = clock
        self.ops = []
        self.checks = []
        self.busy_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()
        self.prefix_ops = self.prefix_checks = self.prefix_rss_mb = None

    def op(self, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        t1 = perf_counter()
        self.ops.append((t0, t1))
        self.busy_s += self.clock(t0, t1)
        self.output(out)
        return out

    def output(self, value):
        """Hash an exact output into the digest while it is open."""
        if self.digest is not None:
            self.digest.update(canonical(value).encode())
            self.digest.update(b"\n")

    def check(self, label, predicate):
        self.attempted += 1
        t0 = perf_counter()
        try:
            ok = bool(predicate())
        except Exception:
            traceback.print_exc()
            ok = False
        t1 = perf_counter()
        self.checks.append((t0, t1))
        self.busy_s += self.clock(t0, t1)
        if not ok:
            self.failed += 1
            print(f"bench: check failed: {label}", file=sys.stderr)


def run_queries(workload, seed, states, seconds, traced, clock):
    """Closed loop: the fixed prefix, then (untraced) until ``seconds``.

    ``seconds`` counts in ``clock`` seconds, so how many queries a run
    makes does not follow the host's speed.  Returns the recorder and the
    digest of the prefix's outputs.
    """
    rec = Recorder(clock)
    groups = workload.groups(seed, states)
    done = 0
    digest = None
    while done < workload.prefix or (not traced and rec.busy_s < seconds):
        group = next(groups)
        try:
            group(rec)
        except Exception:
            traceback.print_exc()
            rec.attempted += 1
            rec.failed += 1
        done += 1
        if done == workload.prefix:
            rec.prefix_ops, rec.prefix_checks = len(rec.ops), len(rec.checks)
            # peak memory of the fixed work only: how many more queries
            # fit in ``seconds`` depends on the host's speed
            rec.prefix_rss_mb = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            digest = rec.digest.hexdigest()
            rec.digest = None
    return rec, digest


def end_to_end(seconds, setups, rec):
    """Time metrics, with ``seconds(start, end)`` measuring each interval."""
    lat = [seconds(*iv) for iv in rec.ops]
    checks = [seconds(*iv) for iv in rec.checks]
    setup_s = statistics.median(seconds(*iv) for iv in setups)
    return {
        "setup_s": setup_s,
        "op_ms_p50": statistics.median(lat) * 1e3,
        "op_ms_p90": statistics.quantiles(lat, n=10)[-1] * 1e3,
        "ops_per_s": len(lat) / (sum(lat) + sum(checks)),
        "total_s": setup_s + sum(lat[:rec.prefix_ops])
        + sum(checks[:rec.prefix_checks]),
    }


def wall(t0, t1):
    return t1 - t0


def check_digest(rec, workload, seed, digest):
    """Compare with the digest recorded for this seed, if there is one."""
    with open(DIGESTS) as fh:
        recorded = json.load(fh)
    if seed != recorded["seed"] or workload.name not in recorded["digests"]:
        return "not recorded for this seed"
    rec.attempted += 1
    want = recorded["digests"][workload.name]
    if digest == want:
        return f"matches seed {seed}"
    rec.failed += 1
    print(f"bench: digest {digest} differs from {want} recorded for seed "
          f"{seed}", file=sys.stderr)
    return "DIFFERS"


def run_one(name, seed, seconds, traced):
    import workloads
    from layertrace import LayerTrace, metric_units
    from speedprobe import SpeedProbe

    workload = workloads.WORKLOADS[name]
    setups = []
    with SpeedProbe() as probe:
        if traced:
            with LayerTrace(extra_namespaces=[workloads]) as tracer:
                t0, t1, states = workloads.setup(workload, seed)
                setups.append((t0, t1))
                rec, digest = run_queries(workload, seed, states, seconds,
                                          True, probe.seconds)
        else:
            for _ in range(workload.setup_reps):
                t0, t1, states = workloads.setup(workload, seed)
                setups.append((t0, t1))
            rec, digest = run_queries(workload, seed, states, seconds,
                                      False, probe.seconds)
    reference = end_to_end(probe.seconds, setups, rec)
    if traced:
        values = tracer.metrics()
        units = metric_units()
        os.makedirs(SPANS_DIR, exist_ok=True)
        with open(os.path.join(SPANS_DIR, f"{name}-seed{seed}.spans.json"),
                  "w") as fh:
            json.dump(tracer.spans, fh)
    else:
        values = dict(reference, peak_rss_mb=rec.prefix_rss_mb)
        units = END_TO_END
    status = check_digest(rec, workload, seed, digest)
    extras = {"workload": name, "seed": seed, "trace": int(traced),
              "digest": digest, "digest_status": status,
              "op_samples": len(rec.ops),
              "fail_frac": rec.failed / rec.attempted,
              "reference": reference, "wall": end_to_end(wall, setups, rec),
              "probe_chunk_ms": probe.chunk_median() * 1e3}
    print(f"workload {name}  seed {seed}  trace {int(traced)}  "
          f"closed loop, 1 caller")
    for key, unit in units.items():
        note = f"  (wall {extras['wall'][key]:.6g})" \
            if key in extras["wall"] and not traced else ""
        print(f"  {key:<40} {values[key]:>16.6g} {unit}{note}")
    print(f"  {'op_samples':<40} {len(rec.ops):>16d} count")
    print(f"  {'fail_frac':<40} {extras['fail_frac']:>16.6g} "
          f"({rec.failed}/{rec.attempted} checks)")
    print(f"  digest {digest} ({status})")
    print("extras " + json.dumps(extras))
    print(json.dumps({"correct": rec.failed == 0,
                      "attempted": rec.attempted,
                      "failed": rec.failed,
                      "metrics": {k: {"value": values[k], "unit": u}
                                  for k, u in units.items()}}))
    return 0 if rec.failed == 0 else 1


def parse_run(stdout):
    """(extras, result) from a single run's standard output."""
    lines = stdout.strip().splitlines()
    extras = next(json.loads(line[len("extras "):]) for line in lines
                  if line.startswith("extras "))
    return extras, json.loads(lines[-1])


def run_all(seed, seconds):
    """Every workload in its own fresh interpreter, one row each."""
    cols = list(END_TO_END.items()) + [("op_samples", "count"),
                                      ("fail_frac", "share")]
    print(f"{'workload':<24}" + "".join(f"{f'{k} [{u}]':>20}"
                                        for k, u in cols))
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1):
            print(f"{name:<24} run failed with exit code {proc.returncode}")
            code = max(code, 1)
            continue
        extras, result = parse_run(proc.stdout)
        code = max(code, proc.returncode)
        row = {k: m["value"] for k, m in result["metrics"].items()}
        row.update(op_samples=extras["op_samples"],
                   fail_frac=extras["fail_frac"])
        print(f"{name:<24}" + "".join(f"{row[k]:>20.6g}" for k, _ in cols))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all" and args.trace:
        parser.error("--workload all reports end-to-end metrics only; "
                     "trace one workload at a time")
    import_fedquant()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
