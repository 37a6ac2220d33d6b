#!/usr/bin/env python3
"""Compare two commits on one perfbench workload, in alternating pairs.

Usage: perf_pairs.py --against REV --workload W --pairs K [--change REV]
       perf_pairs.py --self-test

Run from the repository root. Each side is checked out with `git worktree
add --detach` under .bench_build/pairs/ (kept, so a later comparison with
the same commit reuses its build); the change side is the working tree
unless --change names a commit. Each side runs its own
`perfbench/run.py --trace 0` for BENCHMARK.json's run_seconds, so the
benchmark code under comparison is each side's own. Both runs of a pair
use the same seed (42, the seed whose NDJSON digests the golden suite
pins, so every sweep run also checks its bytes), and the side that runs
first alternates from pair to pair. One short untimed run per side
builds its tree and checks that it runs before the first pair.

For each end-to-end metric in BENCHMARK.json it prints both medians, the
parent's quartiles, the change's wins out of K (ties count for neither
side), the median change/parent ratio over pairs, and each side's mean
and standard deviation (two passes: the mean, then the squared
deviations from it). Then a verdict:

  better      wins in at least 0.9 K pairs and the medians differ, the
              right way, by more than the parent's interquartile range
  worse       the change's median is worse than the parent's by more
              than the metric's bound
  unresolved  the parent's interquartile range, over its median, is
              wider than the bound
  unchanged   none of the above

It prints failed/attempted operations for each side and exits 1 if any
run was incorrect (a failed output check, or no result). It warns when
perfbench/ or BENCHMARK.json differ between the two sides.

--self-test checks the statistics and the verdicts on canned numbers.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS_DIR = os.path.join(ROOT, ".bench_build", "pairs")
SEED = 42
BENCH_FILES = ("perfbench", "BENCHMARK.json")


# ---------------------------------------------------------------- stats

def median(xs):
    return statistics.median(xs)


def quartiles(xs):
    """(q1, q3) by linear interpolation between order statistics."""
    if len(xs) == 1:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def mean_and_sd(xs):
    """Mean, then the population standard deviation from a second pass
    over the deviations: steadier than a one-pass sum of squares."""
    mean = sum(xs) / len(xs)
    return mean, math.sqrt(sum((x - mean) ** 2 for x in xs) / len(xs))


def gain(parent, change, better):
    """How much better `change` is than `parent`, as a share of `parent`
    (negative when worse)."""
    delta = change - parent if better == "higher" else parent - change
    return delta / parent if parent else 0.0


def compare(parent, change, better, bound):
    """Statistics and verdict for one metric over paired runs: parent[i]
    and change[i] ran as pair i."""
    k = len(parent)
    wins = sum(1 for p, c in zip(parent, change) if gain(p, c, better) > 0)
    losses = sum(1 for p, c in zip(parent, change) if gain(p, c, better) < 0)
    p_med, c_med = median(parent), median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    ratios = [c / p for p, c in zip(parent, change) if p]
    if wins >= 0.9 * k and gain(p_med, c_med, better) > 0 and \
            abs(c_med - p_med) > iqr:
        verdict = "better"
    elif gain(p_med, c_med, better) < -bound:
        verdict = "worse"
    elif p_med and iqr / abs(p_med) > bound:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {
        "parent_median": p_med, "change_median": c_med,
        "parent_q1": q1, "parent_q3": q3,
        "wins": wins, "losses": losses, "pairs": k,
        "median_ratio": median(ratios) if ratios else float("nan"),
        "parent_mean_sd": mean_and_sd(parent),
        "change_mean_sd": mean_and_sd(change),
        "verdict": verdict,
    }


# ---------------------------------------------------------------- sides

def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def checkout(rev):
    """A detached worktree of `rev` under PAIRS_DIR, reused when it is
    already at that commit."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    path = os.path.join(PAIRS_DIR, sha[:12])
    if os.path.isdir(path):
        try:
            if git("rev-parse", "HEAD", cwd=path) == sha:
                return path, sha
        except subprocess.CalledProcessError:
            pass
        shutil.rmtree(path)
        git("worktree", "prune")
    os.makedirs(PAIRS_DIR, exist_ok=True)
    git("worktree", "add", "--detach", path, sha)
    return path, sha


def run_side(path, workload, seconds):
    """One perfbench run in the tree at `path`: (correct, result line)."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", repr(seconds),
         "--trace", "0"],
        cwd=path, text=True, stdout=subprocess.PIPE)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        return False, None
    return proc.returncode == 0 and bool(result.get("correct")), result


def bench_files_differ(against_sha, change_sha):
    """True when perfbench/ or BENCHMARK.json differ between the sides
    (change_sha None: the working tree)."""
    revs = [against_sha] + ([change_sha] if change_sha else [])
    return subprocess.run(["git", "diff", "--quiet", *revs, "--", *BENCH_FILES],
                          cwd=ROOT).returncode != 0


def fmt(x):
    return f"{x:.4g}"


def report(name, unit, s):
    (pm, psd), (cm, csd) = s["parent_mean_sd"], s["change_mean_sd"]
    print(f"{name} ({unit}): parent median {fmt(s['parent_median'])} "
          f"[q1 {fmt(s['parent_q1'])}, q3 {fmt(s['parent_q3'])}], "
          f"change median {fmt(s['change_median'])}")
    print(f"  wins {s['wins']}/{s['pairs']} (losses {s['losses']}), median "
          f"pair ratio {s['median_ratio']:.3f}, mean±sd parent "
          f"{fmt(pm)}±{fmt(psd)}, change {fmt(cm)}±{fmt(csd)}: "
          f"{s['verdict'].upper()}")


def run_pairs(opts):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    if opts.workload not in [w["name"] for w in bench["workloads"]]:
        print(f"perf_pairs: unknown workload {opts.workload!r}",
              file=sys.stderr)
        return 2
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    parent_path, parent_sha = checkout(opts.against)
    if opts.change is None:
        change_path, change_sha, change_name = ROOT, None, "working tree"
    else:
        change_path, change_sha = checkout(opts.change)
        change_name = change_sha[:12]
    print(f"parent {parent_sha[:12]} vs change {change_name}: "
          f"{opts.workload}, {opts.pairs} pairs of {seconds} s runs, "
          f"seed {SEED}")
    if bench_files_differ(parent_sha, change_sha):
        print("WARNING: perfbench/ or BENCHMARK.json differ between the "
              "sides; each side runs its own", file=sys.stderr)

    sides = {"parent": parent_path, "change": change_path}
    incorrect = 0
    for side, path in sides.items():  # builds each tree; not timed
        correct, _ = run_side(path, opts.workload, 1)
        if not correct:
            print(f"perf_pairs: the {side} side fails its short run",
                  file=sys.stderr)
            incorrect += 1
    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    ops = {side: [0, 0] for side in sides}  # failed, attempted
    for pair in range(opts.pairs):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        row = {}
        for side in order:
            correct, result = run_side(sides[side], opts.workload, seconds)
            if not correct:
                incorrect += 1
            if result is None:
                print(f"pair {pair + 1}: the {side} run gave no result",
                      file=sys.stderr)
                return 1
            ops[side][0] += int(result["failed"])
            ops[side][1] += int(result["attempted"])
            row[side] = {m: result["metrics"][m]["value"]
                         for m in values[side]}
            for m, v in row[side].items():
                values[side][m].append(v)
        print(f"pair {pair + 1} ({order[0]} first): " + ", ".join(
            f"{m} {fmt(row['parent'][m])}->{fmt(row['change'][m])}"
            for m in values["parent"]), flush=True)

    print()
    for m in metrics:
        report(m["name"], m["unit"],
               compare(values["parent"][m["name"]],
                       values["change"][m["name"]], m["better"], m["bound"]))
    for side in sides:
        failed, attempted = ops[side]
        print(f"{side}: {failed}/{attempted} operations failed")
    if incorrect:
        print(f"perf_pairs: {incorrect} incorrect run(s)", file=sys.stderr)
        return 1
    return 0


# ------------------------------------------------------------ self-test

def self_test():
    failures = []

    def expect(what, got, want):
        if got != want:
            failures.append(f"{what}: want {want!r}, got {got!r}")

    def close(what, got, want):
        if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12):
            failures.append(f"{what}: want {want!r}, got {got!r}")

    mean, sd = mean_and_sd([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
    close("mean", mean, 5.0)
    close("population sd", sd, 2.0)
    # Two passes keep the digits a one-pass sum of squares cancels away.
    _, sd = mean_and_sd([1e9 + 4, 1e9 + 7, 1e9 + 13, 1e9 + 16])
    close("sd of large values", sd, math.sqrt(22.5))
    expect("quartiles", quartiles([1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 4.0))
    expect("quartiles of one", quartiles([3.0]), (3.0, 3.0))

    parent = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
    # A 2.5x rate that wins every pair.
    s = compare(parent, [2.5 * p for p in parent], "higher", 0.24)
    expect("better: verdict", s["verdict"], "better")
    expect("better: wins", s["wins"], 10)
    close("better: ratio", s["median_ratio"], 2.5)
    # Lower is better for times: the same numbers halved are better.
    expect("lower better", compare(parent, [p / 2 for p in parent], "lower",
                                   0.24)["verdict"], "better")
    # 8 of 10 wins is short of 0.9 K, however large the gap.
    change = [p * 1.5 for p in parent]
    change[0], change[1] = parent[0] * 0.9, parent[1] * 0.9
    s = compare(parent, change, "higher", 0.24)
    expect("8/10 wins: verdict", s["verdict"], "unchanged")
    expect("8/10 wins: losses", s["losses"], 2)
    # Ties count for neither side.
    s = compare(parent, list(parent), "higher", 0.24)
    expect("ties: wins", (s["wins"], s["losses"]), (0, 0))
    expect("ties: verdict", s["verdict"], "unchanged")
    # Every pair a win, but by less than the parent's own spread.
    noisy = [100.0, 130.0, 80.0, 120.0, 90.0, 110.0, 85.0, 125.0, 95.0, 105.0]
    s = compare(noisy, [p + 1 for p in noisy], "higher", 0.24)
    expect("inside IQR: wins", s["wins"], 10)
    expect("inside IQR: verdict", s["verdict"], "unresolved")
    # 30% slower against a 24% bound.
    expect("worse", compare(parent, [0.7 * p for p in parent], "higher",
                            0.24)["verdict"], "worse")
    expect("worse time", compare(parent, [1.3 * p for p in parent], "lower",
                                 0.24)["verdict"], "worse")
    # 10% slower is within the bound.
    expect("within bound", compare(parent, [0.9 * p for p in parent],
                                   "higher", 0.24)["verdict"], "unchanged")
    # A parent spread wider than a 10% bound cannot resolve a 5% change.
    expect("unresolved", compare(noisy, [0.95 * p for p in noisy], "lower",
                                 0.10)["verdict"], "unresolved")

    for failure in failures:
        print(f"perf_pairs self-test: FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("perf_pairs self-test: OK")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--against", metavar="REV")
    parser.add_argument("--change", metavar="REV")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    if opts.self_test:
        return self_test()
    if opts.against is None or opts.workload is None or opts.pairs is None:
        parser.error("--against, --workload and --pairs are required")
    if opts.pairs < 1:
        parser.error("--pairs must be at least 1")
    return run_pairs(opts)


if __name__ == "__main__":
    sys.exit(main())
