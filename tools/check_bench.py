#!/usr/bin/env python3
"""Check a fresh BENCH_*.json against its checked-in snapshot.

Usage: check_bench.py BASELINE FRESH [--tolerance F]
       check_bench.py --self-test REPO_ROOT

The fresh file's "bench" field picks a rule table from BENCHES: the
top-level keys the file must carry, then rules checked in order. The
first rule that fails ends the run with exit 1. Absolute timings move
with the runner hardware, so only one rule compares them with the
snapshot, within a --tolerance (engine 1-thread cases/s, default 0.10).
One more compares a count that does not depend on the host (daemon
datagrams per session). The others hold the bench's own contract.

Before the rules run, every number is printed with its change vs the
snapshot, then both files' host fingerprints and whether they match.
That part is informational: no rule reads it.

--self-test REPO_ROOT loads every BENCH_*.json there. Each must pass
against itself, and for each rule a copy mutated in memory to break it
must fail with that rule's message.
"""

import argparse
import collections
import copy
import glob
import json
import os
import sys

# check(base, fresh, tolerance) -> a failure message, or a falsy value
# when the rule holds. mutate(doc) breaks the rule in a copy of a passing
# file, for the self-test.
Rule = collections.namedtuple("Rule", "check mutate")
Bench = collections.namedtuple("Bench", "keys tolerance rules")


def lost(entries, keys, what):
    """The message for the first key missing from any of `entries`."""
    for entry in entries:
        for key in keys:
            if key not in entry:
                return f"{what} lost the '{key}' field"
    return None


def first(entries, bad, message):
    """message(entry) for the first entry where bad(entry), else None."""
    return next((message(e) for e in entries if bad(e)), None)


def drop(ref, value):
    """Fractional drop of `value` below a positive `ref`."""
    return (ref - value) / ref


def is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def report(base, fresh, path=""):
    """Print every number in `fresh` with its change vs the snapshot's
    number at the same place. List entries pair up by their first field (a
    kernel's name, a thread count)."""
    if isinstance(fresh, dict):
        for key, value in fresh.items():
            if key != "host":
                ref = base.get(key) if isinstance(base, dict) else None
                report(ref, value, f"{path}.{key}" if path else key)
    elif isinstance(fresh, list):
        refs = base if isinstance(base, list) else []
        for entry in fresh:
            if not isinstance(entry, dict) or not entry:
                continue
            id_key, id_value = next(iter(entry.items()))
            ref = next((e for e in refs if isinstance(e, dict)
                        and e.get(id_key) == id_value), None)
            rest = {k: v for k, v in entry.items() if k != id_key}
            report(ref, rest, f"{path}[{id_value}]")
    elif is_number(fresh):
        change = ""
        if is_number(base) and base:
            change = f"  {100.0 * (fresh - base) / base:+7.1f}% vs snapshot"
        print(f"  {path:<34} {fresh!r:>14}{change}")


# ------------------------------------------------------------------ gf
# The SIMD dispatch is the whole point of the kernel layer; even the
# slowest runner shows the best kernel well over 2x scalar at 1 KiB
# (container reference: ~38x). Below this, dispatch is broken.
MIN_BEST_VS_SCALAR = 2.0


def gf_missing_kernels(base, fresh, _tolerance):
    for section in ("kernels", "mad_multi", "dot_multi"):
        names = {e["name"] for e in fresh[section]}
        missing = sorted({e["name"] for e in base[section]} - names)
        if missing:
            return (f"{section}: kernels missing from fresh run: {missing} "
                    "(registered-kernel regression)")
    return None


GF = Bench(
    keys=("kernels", "mad_multi", "dot_multi", "speedup_1k_best_vs_scalar",
          "fused_encode", "fused_gather"),
    tolerance=None,
    rules=[
        Rule(gf_missing_kernels, lambda d: d["dot_multi"].pop()),
        Rule(lambda b, f, t: f["speedup_1k_best_vs_scalar"] < MIN_BEST_VS_SCALAR
             and (f"best kernel only {f['speedup_1k_best_vs_scalar']:.2f}x "
                  f"scalar at 1 KiB (< {MIN_BEST_VS_SCALAR}x): SIMD "
                  "dispatch regressed"),
             lambda d: d.update(speedup_1k_best_vs_scalar=1.5)),
    ])

# -------------------------------------------------------------- engine
# On a clearly multi-core runner the max-thread sweep must beat 1 thread
# by this much: the lock-free result path's whole reason to exist. (The
# 2x acceptance figure holds on dedicated hardware; 1.5 leaves margin for
# shared CI vCPUs.)
MIN_MULTICORE_SCALING = 1.5
MULTICORE_THREADS = 4


def engine_one_thread_drop(base, fresh, tolerance):
    b, f = ({e["threads"]: e["cases_per_s"] for e in doc["threads"]}
            for doc in (base, fresh))
    if 1 in f and 1 in b and b[1] > 0 and drop(b[1], f[1]) > tolerance:
        return (f"1-thread throughput regressed {100 * drop(b[1], f[1]):.1f}% "
                f"(> {100 * tolerance:.0f}% tolerance): the result path got "
                "slower")
    return None


ENGINE = Bench(
    keys=("cases", "hardware_threads", "push_p50_ns", "push_p99_ns",
          "threads", "speedup_max_vs_1", "reorder"),
    tolerance=0.10,
    rules=[
        Rule(lambda b, f, t: not f["threads"] and "empty thread sweep",
             lambda d: d["threads"].clear()),
        Rule(lambda b, f, t: lost(f["threads"], ("threads", "cases_per_s"),
                                  "thread entry"),
             lambda d: d["threads"][0].pop("cases_per_s")),
        Rule(lambda b, f, t: first(
                 f["threads"], lambda e: e["cases_per_s"] <= 0,
                 lambda e: f"non-positive cases/s at {e['threads']} threads"),
             lambda d: d["threads"][0].update(cases_per_s=0)),
        Rule(lambda b, f, t: f["push_p50_ns"] > f["push_p99_ns"]
             and "push p50 > p99: latency percentiles are malformed",
             lambda d: d.update(push_p50_ns=d["push_p99_ns"] + 1)),
        Rule(lambda b, f, t: lost([f["reorder"]],
                                  ("block", "cases", "cases_per_s"),
                                  "reorder probe"),
             lambda d: d["reorder"].pop("block")),
        Rule(lambda b, f, t: f["reorder"]["cases_per_s"] <= 0
             and "non-positive reorder probe throughput",
             lambda d: d["reorder"].update(cases_per_s=0)),
        Rule(engine_one_thread_drop,
             lambda d: d["threads"][0].update(
                 cases_per_s=d["threads"][0]["cases_per_s"] * 0.5)),
        Rule(lambda b, f, t: f["hardware_threads"] >= MULTICORE_THREADS
             and f["speedup_max_vs_1"] < MIN_MULTICORE_SCALING
             and (f"only {f['speedup_max_vs_1']:.2f}x scaling on "
                  f"{f['hardware_threads']} hardware threads "
                  f"(< {MIN_MULTICORE_SCALING}x): workers are serialising "
                  "somewhere on the result path"),
             lambda d: d.update(hardware_threads=MULTICORE_THREADS,
                                speedup_max_vs_1=1.0)),
    ])

# -------------------------------------------------------------- daemon
# micro_daemon exits nonzero unless every session agreed on its key. CI
# runs 50 sessions against the 1000-session snapshot, so its times and
# rates are for reading only. Datagrams per session depend on neither the
# session count nor the host (7 at 50 and at 1000 sessions with batched
# frames, 20 with one frame per datagram), so they are gated.
MAX_DATAGRAM_GROWTH = 0.25


def daemon_datagrams_per_session(base, fresh, _tolerance):
    if not (base["completed"] and fresh["completed"]):
        return None  # the completion rule speaks for an empty run
    b, f = (doc["datagrams_in"] / doc["completed"] for doc in (base, fresh))
    if f > b * (1 + MAX_DATAGRAM_GROWTH):
        return (f"{f:.1f} datagrams in per completed session vs {b:.1f} in "
                f"the snapshot (> +{100 * MAX_DATAGRAM_GROWTH:.0f}%): the "
                "wire stopped batching frames")
    return None


DAEMON = Bench(
    keys=("sessions", "requested_sessions", "completed",
          "with_nonzero_secret", "p50_time_to_key_ms", "p99_time_to_key_ms",
          "sessions_per_s", "wall_s", "datagrams_in", "frames_relayed",
          "epoll"),
    tolerance=None,
    rules=[
        Rule(lambda b, f, t: not (f["completed"] == f["sessions"]
                                  == f["requested_sessions"])
             and (f"only {f['completed']}/{f['sessions']} sessions completed "
                  f"({f['requested_sessions']} requested)"),
             lambda d: d.update(completed=d["completed"] - 1)),
        Rule(lambda b, f, t: f["p50_time_to_key_ms"] > f["p99_time_to_key_ms"]
             and "time-to-key p50 > p99: percentiles are malformed",
             lambda d: d.update(
                 p50_time_to_key_ms=d["p99_time_to_key_ms"] + 1)),
        Rule(daemon_datagrams_per_session,
             lambda d: d.update(datagrams_in=d["datagrams_in"] * 2)),
    ])

BENCHES = {"micro_gf": GF, "micro_engine": ENGINE, "micro_daemon": DAEMON}


def fingerprint(doc):
    host = doc.get("host")
    if not isinstance(host, dict):
        return "unknown host"
    return ", ".join(str(host.get(k, "?")) for k in
                     ("cpu_model", "nproc", "gf_kernel", "compiler"))


def print_hosts(base, fresh):
    fresh_host, base_host = fingerprint(fresh), fingerprint(base)
    print(f"[host] fresh:    {fresh_host}")
    print(f"[host] snapshot: {base_host}")
    if "unknown host" in (fresh_host, base_host):
        print("[host] cannot tell whether the hosts match")
    elif fresh_host == base_host:
        print("[host] fingerprints match")
    else:
        print("[host] fingerprints differ: absolute numbers are not like for "
              "like")


def verdict(base, fresh, tolerance):
    """The first failing rule's message, or None when every rule holds."""
    bench = fresh.get("bench")
    spec = BENCHES.get(bench)
    if spec is None:
        return f"unknown bench {bench!r}"
    missing = [k for k in spec.keys if k not in fresh]
    if missing:
        return f"fresh output lost the '{missing[0]}' field"
    for rule in spec.rules:
        message = rule.check(base, fresh,
                             spec.tolerance if tolerance is None else tolerance)
        if message:
            return message
    return None


def safe_verdict(base, fresh):
    """verdict() at the bench's own tolerance, a crash (a rule reading a
    field an earlier rule failed to require) turned into a message."""
    try:
        return verdict(base, fresh, None)
    except (KeyError, IndexError, TypeError) as e:
        return f"crashed: {e!r}"


def mutations(doc):
    """(what, fresh, expected message) for every rule of doc's bench: a
    copy of doc broken so that, checked against doc, that rule fails
    first."""
    spec = BENCHES[doc["bench"]]

    def broken(mutate):
        out = copy.deepcopy(doc)
        mutate(out)
        return out

    last = spec.keys[-1]
    yield ("unknown bench", broken(lambda d: d.update(bench="micro_nonesuch")),
           "unknown bench 'micro_nonesuch'")
    yield ("keys", broken(lambda d: d.pop(last)),
           f"fresh output lost the '{last}' field")
    for i, rule in enumerate(spec.rules):
        fresh = broken(rule.mutate)
        yield f"rule {i}", fresh, rule.check(doc, fresh, spec.tolerance)


def self_test(root):
    paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    failures, cases, seen = [], 0, set()
    for path in paths:
        name = os.path.basename(path)
        with open(path) as f:
            doc = json.load(f)
        if doc.get("bench") not in BENCHES:
            failures.append(f"{name}: unknown bench {doc.get('bench')!r}")
            continue
        seen.add(doc["bench"])
        cases += 1
        got = safe_verdict(doc, doc)
        if got is not None:
            failures.append(f"{name} fails against itself: {got}")
        for what, fresh, expected in mutations(doc):
            cases += 1
            got = safe_verdict(doc, fresh)
            if not expected or got != expected:
                failures.append(f"{name} {what}: want {expected!r}, "
                                f"got {got!r}")
    for bench in sorted(set(BENCHES) - seen):
        failures.append(f"no snapshot exercises the {bench} rules")
    for failure in failures:
        print(f"check_bench self-test: FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"check_bench self-test: {len(paths)} snapshots, {cases} cases OK")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("fresh", nargs="?")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="allowed fractional throughput drop vs the "
                             "snapshot (default: the bench's own)")
    parser.add_argument("--self-test", metavar="REPO_ROOT")
    opts = parser.parse_args()
    if opts.self_test is not None:
        if opts.baseline is not None:
            parser.error("--self-test takes no BASELINE/FRESH")
        return self_test(opts.self_test)
    if opts.fresh is None:
        parser.error("BASELINE and FRESH are required")

    try:
        with open(opts.baseline) as f:
            base = json.load(f)
        with open(opts.fresh) as f:
            fresh = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench: FAIL: cannot load inputs: {e}", file=sys.stderr)
        return 1
    report(base, fresh)
    print_hosts(base, fresh)
    message = verdict(base, fresh, opts.tolerance)
    if message:
        print(f"check_bench: FAIL: {message}", file=sys.stderr)
        return 1
    print(f"check_bench: {fresh['bench']} OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
