#!/usr/bin/env python3
"""Runs sets of benchmark runs; started by run.sh, which builds first.

    suite.py BIN              every workload untraced, then traced + drills
    suite.py BIN --smoke      5 s windows, untraced only (for CI to wire in)
    suite.py BIN --aa K       K interleaved A/A pairs of untraced sets on
                              this one build: prints median and quartiles
                              per (metric, workload), fails if the two
                              sides disagree beyond a metric's bound, and
                              writes calibrated bounds to BENCHMARK.json
"""

import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(HERE, "..", "BENCHMARK.json")

# A bound never goes below the issue's initial regression bound for its
# metric, and never above what the benchmark contract allows.
INITIAL_BOUND = {
    "setup_s": 0.25,
    "throughput_rps": 0.08,
    "latency_p50_ms": 0.10,
    "latency_p95_ms": 0.15,
    "cpu_ms_per_req": 0.05,
    "peak_rss_mb": 0.15,
}
MAX_BOUND = 0.25
# A spread should stay below a third of its bound.
BOUND_OVER_SPREAD = 3.0

# Readings that make a run's numbers suspect rather than slow.
LAG_LIMIT_MS = 2.0
OVERHEAD_LIMIT = 0.10
ACCOUNTED_FLOOR = 0.90


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def run(binary, workload, seed, seconds, trace):
    """One benchmark run; returns the metrics of its result line."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"suite: {' '.join(cmd)} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"suite: {workload} seed {seed}: correct={result['correct']} "
                 f"failed={result['failed']} of {result['attempted']}")
    return {name: m["value"] for name, m in result["metrics"].items()}, result


def show(title, spec_metrics, values):
    print(f"\n== {title}")
    for m in spec_metrics:
        print(f"{m['name']:<46} {values[m['name']]:>16.6f} {m['unit']}")


def full_set(binary, spec, seconds, traced):
    flags = []
    for w in spec["workloads"]:
        name = w["name"]
        values, result = run(binary, name, 1, seconds, 0)
        show(f"{name}: end to end ({result['attempted']} requests, "
             f"{result['failed']} failed)", spec["end_to_end"], values)
        if not traced:
            continue
        layers, _ = run(binary, name, 1, seconds, 1)
        show(f"{name}: per layer", spec["per_layer"], layers)
        if layers["loadgen.lag_p95_ms"] > LAG_LIMIT_MS:
            flags.append(f"{name}: LATE, the client waited for a CPU "
                         f"(lag p95 {layers['loadgen.lag_p95_ms']:.2f} ms)")
        if layers["obs.trace_overhead_share"] >= OVERHEAD_LIMIT:
            flags.append(f"{name}: traced numbers FLAGGED, tracing cost "
                         f"{layers['obs.trace_overhead_share']:.1%} of CPU in this run "
                         "(single readings scatter by 10 points; see README)")
        if layers["ledger.cpu_accounted_share"] < ACCOUNTED_FLOOR:
            flags.append(f"{name}: ledger accounts for only "
                         f"{layers['ledger.cpu_accounted_share']:.1%} of CPU")
    print()
    for flag in flags:
        print(f"!! {flag}")
    print("every run passed its correctness gate")


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(metric, first, second):
    """Share of `first` by which `second` is worse (negative: better)."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def a_a(binary, spec, pairs):
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    sides = {"A": {}, "B": {}}
    seed = 0
    for pair in range(pairs):
        # Alternate which side goes first, so drift hits both alike.
        for side in ("AB" if pair % 2 == 0 else "BA"):
            for w in workloads:
                seed += 1
                values, _ = run(binary, w, seed, seconds, 0)
                for name, v in values.items():
                    sides[side].setdefault((name, w), []).append(v)
                print(f"pair {pair + 1}/{pairs} side {side} {w} seed {seed}: "
                      + " ".join(f"{n}={v:.4g}" for n, v in values.items()),
                      flush=True)

    print(f"\n{'metric':<16} {'workload':<13} {'A q1':>9} {'A med':>9} {'A q3':>9}"
          f" {'B q1':>9} {'B med':>9} {'B q3':>9} {'spread':>7} {'B vs A':>7}")
    failures = []
    worst_spread = {}
    for m in spec["end_to_end"]:
        for w in workloads:
            a, b = sides["A"][(m["name"], w)], sides["B"][(m["name"], w)]
            both = a + b
            if len(a) < 2:
                qa, qb = (a[0],) * 3, (b[0],) * 3
                spread = 0.0
            else:
                qa, qb = quartiles(a), quartiles(b)
                q1, med, q3 = quartiles(both)
                spread = (q3 - q1) / med
            drift = worse_by(m, qa[1], qb[1])
            worst_spread[m["name"]] = max(worst_spread.get(m["name"], 0.0), spread)
            print(f"{m['name']:<16} {w:<13} " + " ".join(f"{v:>9.4g}" for v in qa + qb)
                  + f" {spread:>7.1%} {drift:>+7.1%}")
            # Either side may be the worse one: it is the same build.
            if abs(drift) > m["bound"]:
                failures.append(f"{m['name']} on {w}: sides differ by {drift:+.1%}, "
                                f"bound {m['bound']:.0%}")
            if m["name"] != "setup_s" and spread > m["bound"]:
                failures.append(f"{m['name']} on {w}: spread {spread:.1%} exceeds "
                                f"bound {m['bound']:.0%}")

    print("\ncalibrated bounds (max of initial bound and "
          f"{BOUND_OVER_SPREAD:g} x worst spread, at most {MAX_BOUND}):")
    for m in spec["end_to_end"]:
        wanted = max(INITIAL_BOUND[m["name"]], BOUND_OVER_SPREAD * worst_spread[m["name"]])
        m["bound"] = min(MAX_BOUND, math.ceil(wanted * 100) / 100)
        print(f"  {m['name']:<16} worst spread {worst_spread[m['name']]:.1%} -> bound {m['bound']}")
    with open(SPEC_PATH, "w") as f:
        json.dump(spec, f, indent=2)
        f.write("\n")
    print(f"wrote {os.path.normpath(SPEC_PATH)}")
    if failures:
        print()
        for failure in failures:
            print(f"!! {failure}")
        sys.exit(1)
    print("A/A sides agree within every bound")


def main():
    binary, args = sys.argv[1], sys.argv[2:]
    spec = load_spec()
    if args[:1] == ["--aa"]:
        a_a(binary, spec, int(args[1]))
    elif args[:1] == ["--smoke"]:
        full_set(binary, spec, 5, traced=False)
    elif not args:
        full_set(binary, spec, spec["run_seconds"], traced=True)
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main()
