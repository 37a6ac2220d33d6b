#!/usr/bin/env python3
"""The end-to-end benchmark: one workload run, checked, as one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload fig2 --seed 7 --seconds 20 --trace 0

It builds the program from source into .bench_build/ (the first run
compiles; later runs only check that the build is current), runs the
workload's runner binary and prints, as the last line of stdout,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the timed binary (perfbench) runs and the metrics are
BENCHMARK.json's end_to_end list; with --trace 1 the traced binary
(perfbench_traced) runs and they are its per_layer list, 0 for any layer
the workload does not reach. The traced run writes its spans to
.bench_build/traces/. The line before the result carries the host
fingerprint and the context of the run (sample counts, host.ref_ms,
netd.timer_sends, ...). The exit code is nonzero when any output check
fails or the run cannot be made; then no result is printed unless the
runner got far enough to report which check failed.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
# The NDJSON digests tests/golden_ndjson_test.cpp pins hold at this seed.
GOLDEN_SEED = 42
GOLDEN_FILE = os.path.join(ROOT, "tests", "golden_ndjson_test.cpp")
GOLDEN_SCENARIO = {"fig1": "fig1", "fig2": "fig2", "headline_mt": "headline"}
BUILD_TIMEOUT_S = 840
RUN_SLACK_S = 120


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def build():
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench",
         "perfbench_traced", "thinair_cli"],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def golden_digest(workload):
    """The pinned full-run digest of the workload's scenario at seed 42."""
    with open(GOLDEN_FILE, encoding="utf-8") as f:
        text = f.read()
    pinned = dict(re.findall(r'\{"(\w+)",\s*"([0-9a-f]{64})"\}', text))
    scenario = GOLDEN_SCENARIO[workload]
    if scenario not in pinned:
        raise RuntimeError(f"no golden digest for {scenario} in {GOLDEN_FILE}")
    return pinned[scenario]


def run_binary(cmd, timeout):
    """Run a runner binary; return (exit code, its report or None)."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    report = None
    if lines:
        try:
            report = json.loads(lines[-1])
        except json.JSONDecodeError:
            report = None
    return proc.returncode, report


def main():
    args = parse_args()
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("no program sources next to perfbench/ (expected CMakeLists.txt "
            "and src/ at", ROOT + ")")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        log("unknown workload", args.workload)
        return 2
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    build()
    binary = os.path.join(BUILD_DIR,
                          "perfbench_traced" if args.trace else "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--thinair", os.path.join(BUILD_DIR, "thinair", "thinair")]
    if args.seed == GOLDEN_SEED and args.workload in GOLDEN_SCENARIO:
        cmd += ["--golden", golden_digest(args.workload)]
    trace_path = None
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        trace_path = os.path.join(
            TRACE_DIR, f"{args.workload}-seed{args.seed}.json")
        cmd += ["--trace-out", trace_path]

    code, report = run_binary(cmd, args.seconds + RUN_SLACK_S)
    if report is None:
        log("runner exited with code", code, "and no report")
        return code or 1
    metrics = report["metrics"]
    correct = bool(report["correct"]) and code == 0
    if args.trace:
        # A layer the workload does not reach from the benchmark's side.
        for name in units:
            metrics.setdefault(name, 0)
    if set(metrics) != set(units):
        log("runner metrics", sorted(metrics), "do not match BENCHMARK.json",
            sorted(units))
        correct = False

    context = dict(report.get("context", {}))
    context["workload"] = args.workload
    context["seed"] = args.seed
    if trace_path:
        context["spans"] = os.path.relpath(trace_path, ROOT)
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": correct,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, subprocess.SubprocessError) as e:
        log("error:", e)
        sys.exit(2)
