#!/usr/bin/env python3
"""Compare a fresh BENCH_engine.json against the checked-in snapshot.

Usage: check_bench_engine.py BASELINE FRESH [--tolerance FRAC]

Prints per-thread-count deltas so the engine's throughput trajectory is
visible in every PR's CI log. Absolute cases/s moves with the runner
hardware, so what *fails* the check is:

  - structural drift: a missing field, a malformed file, an empty
    thread sweep, or p50 > p99;
  - a 1-thread throughput drop beyond --tolerance (default 0.10) vs the
    snapshot — meaningful when baseline and fresh run on the same class
    of machine (the container snapshot vs a container re-run); CI
    passes a loose tolerance because its runners differ from the
    snapshot machine;
  - scaling collapse: on a clearly multi-core runner (>= 4 hardware
    threads) the max-thread sweep must beat 1-thread by >= 1.5x — the
    lock-free result path's whole reason to exist. (The 2x acceptance
    figure holds on dedicated multi-core hardware; 1.5 leaves margin
    for shared CI vCPUs.)
"""

import argparse
import json
import sys

MIN_MULTICORE_SCALING = 1.5
MULTICORE_THREADS = 4


def fail(msg):
    print(f"check_bench_engine: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def per_thread(doc):
    return {e["threads"]: e["cases_per_s"] for e in doc["threads"]}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed fractional 1-thread throughput drop "
                             "vs the snapshot (default 0.10)")
    opts = parser.parse_args()

    try:
        with open(opts.baseline) as f:
            base = json.load(f)
        with open(opts.fresh) as f:
            fresh = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load inputs: {e}")
    tolerance = opts.tolerance

    for key in ("bench", "cases", "hardware_threads", "push_p50_ns",
                "push_p99_ns", "threads", "speedup_max_vs_1"):
        if key not in fresh:
            fail(f"fresh output lost the '{key}' field")
    if fresh["bench"] != "micro_engine":
        fail(f"unexpected bench '{fresh['bench']}'")
    if not fresh["threads"]:
        fail("empty thread sweep")
    for entry in fresh["threads"]:
        for key in ("threads", "cases_per_s"):
            if key not in entry:
                fail(f"thread entry lost the '{key}' field")
        if entry["cases_per_s"] <= 0:
            fail(f"non-positive cases/s at {entry['threads']} threads")
    if fresh["push_p50_ns"] > fresh["push_p99_ns"]:
        fail("push p50 > p99: latency percentiles are malformed")

    if "reorder" not in fresh:
        fail("fresh output lost the 'reorder' probe")
    reorder = fresh["reorder"]
    for key in ("block", "cases", "cases_per_s"):
        if key not in reorder:
            fail(f"reorder probe lost the '{key}' field")
    if reorder["cases_per_s"] <= 0:
        fail("non-positive reorder probe throughput")

    b, f = per_thread(base), per_thread(fresh)
    print("[engine cases/s]")
    for threads in sorted(f):
        ref = b.get(threads)
        delta = "" if ref in (None, 0) else \
            f"  {100.0 * (f[threads] - ref) / ref:+6.1f}% vs snapshot"
        print(f"  threads {threads:>3}: {f[threads]:12.0f} cases/s{delta}")
    print(f"[push] p50 {fresh['push_p50_ns']:.0f} ns, "
          f"p99 {fresh['push_p99_ns']:.0f} ns "
          f"(snapshot {base['push_p50_ns']:.0f}/{base['push_p99_ns']:.0f})")
    print(f"[scaling] max-vs-1: {fresh['speedup_max_vs_1']:.2f}x on "
          f"{fresh['hardware_threads']} hardware threads "
          f"(snapshot {base['speedup_max_vs_1']:.2f}x)")
    print(f"[reorder] {reorder['cases_per_s']:.0f} cases/s through a "
          f"{reorder['block']}-case window")

    if 1 in f and 1 in b and b[1] > 0:
        drop = (b[1] - f[1]) / b[1]
        if drop > tolerance:
            fail(f"1-thread throughput regressed {100 * drop:.1f}% "
                 f"(> {100 * tolerance:.0f}% tolerance): "
                 "the result path got slower")
    if fresh["hardware_threads"] >= MULTICORE_THREADS and \
            fresh["speedup_max_vs_1"] < MIN_MULTICORE_SCALING:
        fail(f"only {fresh['speedup_max_vs_1']:.2f}x scaling on "
             f"{fresh['hardware_threads']} hardware threads "
             f"(< {MIN_MULTICORE_SCALING}x): workers are serialising "
             "somewhere on the result path")
    print("check_bench_engine: OK")


if __name__ == "__main__":
    main()
