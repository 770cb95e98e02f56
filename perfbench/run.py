#!/usr/bin/env python3
"""Benchmark of the ResEx simulator: host time and memory per workload.

Run from the repository root:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --pin

The first call builds perfbench/ (a CMake project that compiles the
simulator's src/) into .bench_build/. A run then repeats whole trials of
workload W with seed N, each in a fresh process, until S seconds have passed,
and prints one JSON line last: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, medians over the run's trials:
  sim_s_per_wall_s  simulated seconds per host second of the measured run
  trial_wall_s      host seconds of a whole trial: set-up, run, collection,
                    teardown
  setup_s           host seconds before the measured run starts
  peak_rss_mb       peak resident memory of one trial's process
  ok_pct            share of trials that passed every check

A trial fails when it throws, hangs past TIMEOUT_S, reports a failed
health check (QP errors, a stalled closed loop, too few operations), or when
its simulated results (the fingerprint) differ from the pinned ones for this
seed or from the run's first trial. Any failure makes "correct" false.

--trace 1 reports the per-layer metrics: metrics-registry counts from a
trial run with the simulator's tracer on, host ns per call of each layer's
probe (probes.cpp), and obs.trace_overhead_pct, the traced trials' median
wall time against the untraced trials' median. It also prints a report
estimating each layer's share of trial_wall_s as count x probe ns.

--pin re-pins the fingerprints of PINNED_SEEDS into fingerprints.json;
--selftest checks this script's own fingerprint check and output format.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "resex_perfbench")
PINNED_FILE = os.path.join(HERE, "fingerprints.json")

WORKLOADS = ("testbed_ioshares", "incast_pfc", "fattree_cluster")
PINNED_SEEDS = tuple(range(0, 11))
TIMEOUT_S = 120  # per trial or probe process
MIN_TRIALS = 3

END_TO_END = {
    "sim_s_per_wall_s": "s/s",
    "trial_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_pct": "%",
}

COUNTS = (
    "sim.events", "fabric.transfers", "fabric.switch_hops",
    "fabric.packets_sent", "fabric.buf_drops", "fabric.ecn_marks",
    "fabric.pfc_pauses", "fabric.retransmits", "fabric.qp_fatal_errors",
    "qos.vl_grants", "congestion.cnps", "congestion.rate_cuts",
    "hv.cap_changes", "ibmon.samples", "core.intervals",
    "core.cap_adjustments", "cluster.migrations", "cluster.migration_bytes",
)
PROBES = (
    "sim.event_ns_p50", "sim.event_ns_p99", "sim.queue_ns.d64",
    "sim.queue_ns.d4096", "sim.resume_ns", "fabric.pkt_ns.lossless",
    "fabric.pkt_ns.pfc", "fabric.pkt_ns.ecn", "fabric.pkt_ns.qos",
    "fabric.pkt_ns.flows16", "fabric.write_ns.4k", "fabric.write_ns.2m",
    "routing.lookup_ns.ecmp", "hv.set_cap_ns", "ibmon.sample_ns",
    "core.on_interval_ns", "finance.quote_ns", "cluster.decide_ns",
    "mem.domain_ns", "mem.reg_mr_ns",
)
PER_LAYER = {**{c: "count" for c in COUNTS}, **{p: "ns" for p in PROBES},
             "obs.trace_overhead_pct": "%"}

# Layer share estimates for the traced report: (layer, operation count,
# probe ns per operation). Every fabric probe includes kernel and HCA work,
# so shares overlap. IBMon is left out: its probe scans full rings, while a
# 100 us sample of the testbed finds a few CQEs.
SHARES = {
    "testbed_ioshares": (
        ("fabric", "fabric.packets_sent", "fabric.pkt_ns.lossless"),
        ("hv", "hv.cap_changes", "hv.set_cap_ns"),
        ("core", "core.intervals", "core.on_interval_ns"),
        ("finance", "benchex.requests", "finance.quote_ns"),
    ),
    "incast_pfc": (
        ("event queue", "sim.events", "sim.queue_ns.d64"),
        ("fabric", "fabric.packets_sent", "fabric.pkt_ns.pfc"),
        ("fabric writes", "fabric.transfers", "fabric.write_ns.4k"),
    ),
    "fattree_cluster": (
        ("fabric", "fabric.packets_sent", "fabric.pkt_ns.qos"),
        ("routing", "fabric.switch_hops", "routing.lookup_ns.ecmp"),
        ("finance", "benchex.requests", "finance.quote_ns"),
    ),
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build the benchmark binary into BUILD."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "resex_perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=900).returncode != 0:
                with open(log_path) as f:
                    tail = f.read()[-2000:]
                fail("build failed (%s):\n%s" % (log_path, tail))


def run_binary(args):
    """Run the benchmark binary; its last stdout line parsed, or an error."""
    try:
        p = subprocess.run([BINARY] + args, capture_output=True, text=True,
                           timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": "hung past %d s" % TIMEOUT_S}
    if p.returncode != 0:
        return {"error": "exit %d: %s" %
                (p.returncode, p.stderr.strip()[-300:])}
    try:
        return json.loads(p.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return {"error": "unparsable output"}


def trial(workload, seed, trace_file=None):
    args = ["trial", workload, str(seed)]
    if trace_file:
        args.append(trace_file)
    return run_binary(args)


def load_pinned():
    with open(PINNED_FILE) as f:
        return json.load(f)


def diff(got, want):
    keys = sorted(set(got) | set(want))
    return ", ".join("%s %r != %r" % (k, got.get(k), want.get(k))
                     for k in keys if got.get(k) != want.get(k))


def failures(result, pinned, reference):
    """Why one trial failed; empty when it passed.

    `pinned` is the pinned fingerprint for the trial's seed (None when the
    seed is not pinned), `reference` the fingerprint of the run's first
    trial (None for the first trial itself).
    """
    if "error" in result:
        return [result["error"]]
    out = list(result["problems"])
    fp = result["fingerprint"]
    if pinned is not None and fp != pinned:
        out.append("fingerprint differs from pinned: " + diff(fp, pinned))
    if reference is not None and fp != reference:
        out.append("fingerprint differs between trials: " + diff(fp, reference))
    return out


def judge(results, pinned):
    """Failure reasons per trial, in order."""
    reference = next((r["fingerprint"] for r in results if "error" not in r),
                     None)
    return [failures(r, pinned, None if r is results[0] else reference)
            for r in results]


def values(results, fn):
    return [fn(r) for r in results if "error" not in r] or [0.0]


def median(results, fn):
    return statistics.median(values(results, fn))


def end_to_end(results, reasons):
    """Run-level metrics: medians over the trials that passed."""
    ok = [r for r, why in zip(results, reasons) if not why]
    basis = ok or results
    return {
        "sim_s_per_wall_s": median(basis, lambda r: r["sim_s"] / r["run_s"]),
        "trial_wall_s": median(basis, lambda r: r["trial_wall_s"]),
        "setup_s": median(basis, lambda r: r["setup_s"]),
        "peak_rss_mb": median(basis, lambda r: r["peak_rss_mb"]),
        "ok_pct": 100.0 * len(ok) / len(results),
    }


def result_line(attempted, failed, metrics, units):
    """The benchmark's last output line."""
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def count_failed(reasons):
    """Log each failed trial's reasons to stderr; the number that failed."""
    for why in reasons:
        for w in why:
            print("perfbench: trial failed: " + w, file=sys.stderr)
    return sum(1 for why in reasons if why)


def run_until(deadline, fn):
    """Call fn() until MIN_TRIALS results exist and the deadline passed."""
    out = []
    while len(out) < MIN_TRIALS or time.monotonic() < deadline:
        out.append(fn())
    return out


def report(workload, metrics, counts, wall_s):
    print("per-layer report: %s (traced trial %.3f s)" % (workload, wall_s))
    for name in COUNTS:
        print("  %-28s %16.0f count" % (name, metrics[name]))
    for name in PROBES:
        print("  %-28s %16.1f ns" % (name, metrics[name]))
    print("  %-28s %16.2f %%" % ("obs.trace_overhead_pct",
                                  metrics["obs.trace_overhead_pct"]))
    print("  estimated share of trial_wall_s (count x probe ns; overlapping):")
    for layer, count, probe in SHARES[workload]:
        n = counts.get(count, 0.0)
        share = 100.0 * n * metrics[probe] / 1e9 / wall_s if wall_s else 0.0
        print("    %-24s %12.0f x %9.1f ns = %6.1f %%" %
              (layer, n, metrics[probe], share))


def traced_run(workload, seed, seconds, pinned):
    start = time.monotonic()
    probes = run_binary(["probes", str(seed)])
    trace_file = os.path.join(BUILD, "trace-%s.jsonl" % workload)

    def pair():
        plain = trial(workload, seed)
        traced = trial(workload, seed, trace_file)
        if os.path.exists(trace_file):
            os.remove(trace_file)
        return plain, traced

    pairs = run_until(start + seconds, pair)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    results = plain + traced
    reasons = judge(results, pinned)
    if "error" in probes:
        reasons.append(["probes: " + probes["error"]])
    failed = count_failed(reasons)

    counts = next((r["counts"] for r in traced if "error" not in r), {})
    plain_wall = median(plain, lambda r: r["trial_wall_s"])
    traced_wall = median(traced, lambda r: r["trial_wall_s"])
    metrics = {name: float(counts.get(name, 0.0)) for name in COUNTS}
    metrics.update({name: float(probes.get(name, 0.0)) for name in PROBES})
    metrics["obs.trace_overhead_pct"] = (
        100.0 * (traced_wall / plain_wall - 1.0) if plain_wall else 0.0)
    report(workload, metrics, counts, traced_wall)
    print(result_line(len(results) + 1, failed, metrics, PER_LAYER))


def plain_run(workload, seed, seconds, pinned):
    results = run_until(time.monotonic() + seconds,
                        lambda: trial(workload, seed))
    reasons = judge(results, pinned)
    failed = count_failed(reasons)
    print(result_line(len(results), failed, end_to_end(results, reasons),
                      END_TO_END))


def pin():
    build()
    pinned = {}
    for w in WORKLOADS:
        pinned[w] = {}
        for s in PINNED_SEEDS:
            r = trial(w, s)
            if "error" in r or r["problems"]:
                fail("cannot pin %s seed %d: %s" %
                     (w, s, r.get("error") or r["problems"]))
            pinned[w][str(s)] = r["fingerprint"]
            print("pinned %s seed %d" % (w, s))
    with open(PINNED_FILE, "w") as f:
        json.dump(pinned, f, indent=1, sort_keys=True)
        f.write("\n")


def selftest():
    """The fingerprint check rejects perturbed results; output parses."""
    pinned = load_pinned()
    fp = pinned["incast_pfc"]["1"]
    good = {"fingerprint": dict(fp), "problems": []}
    assert failures(good, fp, fp) == []
    for key in fp:
        bad = {"fingerprint": dict(fp), "problems": []}
        bad["fingerprint"][key] = math.nextafter(fp[key], math.inf)
        assert failures(bad, fp, None), "perturbed %s passed" % key
        assert failures(bad, None, fp), "perturbed %s passed" % key
    missing = {"fingerprint": {k: v for k, v in fp.items() if k != "writes"},
               "problems": []}
    assert failures(missing, fp, None)
    assert failures({"fingerprint": fp, "problems": ["stalled"]}, fp, None)
    assert failures({"error": "hung past 120 s"}, fp, None)
    results = [good, dict(good), {"error": "exit 1"}]
    reasons = judge(results, fp)
    assert [bool(w) for w in reasons] == [False, False, True]

    for units in (END_TO_END, PER_LAYER):
        values = {k: 1.5 for k in units}
        line = json.loads(result_line(3, 1, values, units))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is False and line["attempted"] == 3
        assert set(line["metrics"]) == set(units)
        for k, m in line["metrics"].items():
            assert m == {"value": 1.5, "unit": units[k]}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

    # A real trial of a pinned seed matches its pin, and fails once perturbed.
    build()
    r = trial("incast_pfc", 1)
    assert failures(r, fp, None) == [], failures(r, fp, None)
    r["fingerprint"]["p99_us"] += 1e-9
    assert failures(r, fp, None)
    print("perfbench selftest: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.pin:
        return pin()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    build()
    pinned = load_pinned()[args.workload].get(str(args.seed))
    run = traced_run if args.trace else plain_run
    run(args.workload, args.seed, args.seconds, pinned)


if __name__ == "__main__":
    main()
