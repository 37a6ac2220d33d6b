#!/usr/bin/env bash
# `thinair run` through the real binary: three cut-down sweeps must give
# the expected line counts and byte-identical NDJSON at --threads 1 and
# --threads 4, the retired distributed-sweep and kernel-override surfaces
# must be rejected with the usage text, an oversized spec must fail at
# compile time, a value outside its key's domain must fail before any
# NDJSON line, and output that cannot be written must fail the run.
#
#   usage: cli_run_smoke.sh /path/to/thinair
set -u

THINAIR=${1:?usage: cli_run_smoke.sh /path/to/thinair}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

# fig1 cut down to 8 quick cases: 2 n-values x 2 p-values x 2 repeats.
SPEC=(fig1 --set session.x_packets=30 --set session.rounds=1
      --set 'topology.n=[2,3]' --set 'sweep.p=[0.2,0.5]'
      --set sweep.repeats=2)

# same_bytes NAME LINES ARGS...: run ARGS at --threads 1 and 4, require
# LINES NDJSON lines and identical bytes. The output stays in
# $WORK/NAME-1.ndjson for further checks.
same_bytes() {
  local name=$1 lines=$2 t
  shift 2
  for t in 1 4; do
    "$THINAIR" run "$@" --seed 21 --quiet --threads "$t" \
      --out "$WORK/$name-$t.ndjson" 2>"$WORK/$name-$t.err" ||
      { cat "$WORK/$name-$t.err" >&2; fail "$name --threads $t exited nonzero"; }
  done
  [ "$(wc -l <"$WORK/$name-1.ndjson")" -eq "$lines" ] ||
    fail "$name: expected $lines NDJSON lines"
  cmp -s "$WORK/$name-1.ndjson" "$WORK/$name-4.ndjson" ||
    fail "$name: --threads 4 bytes differ from --threads 1"
  echo "$name: $lines lines, byte-identical at 1 and 4 threads"
}

same_bytes cut-fig1 8 "${SPEC[@]}"

# fig2 by name (testbed channel, 3-estimator axis), kept short by
# --limit: the truncation footer ends the stream.
same_bytes fig2 31 fig2 --limit 30
[ "$(tail -n 1 "$WORK/fig2-1.ndjson")" = \
  '{"scenario":"fig2","truncated":true,"cases":30,"plan_cases":567}' ] ||
  fail "fig2: missing or wrong truncation footer"

# The generic sweep.key axis: one spec variant per value.
same_bytes keyed 16 "${SPEC[@]}" --set sweep.key=session.x_packets \
  --set 'sweep.values=[20,30]'

# expect_exit CODE TEXT ARGS...: thinair ARGS must exit CODE with TEXT
# on stderr, and write nothing to stdout.
expect_exit() {
  local code=$1 text=$2 status
  shift 2
  "$THINAIR" "$@" >"$WORK/out" 2>"$WORK/err"
  status=$?
  [ "$status" -eq "$code" ] || fail "thinair $* exited $status, want $code"
  grep -qF -- "$text" "$WORK/err" || fail "thinair $*: no '$text' on stderr"
  [ ! -s "$WORK/out" ] || fail "thinair $*: wrote to stdout"
  echo "thinair $*: exit $code"
}

# The distributed sweep is gone: its flag and subcommands are usage errors.
expect_exit 2 "usage: $THINAIR list" run fig1 --workers 2
expect_exit 2 "usage: $THINAIR list" sweep-master fig1
expect_exit 2 "usage: $THINAIR list" sweep-worker

# CPUID dispatch is the only kernel selector: the override flag is gone.
expect_exit 2 "usage: $THINAIR list" run fig1 --kernel scalar

# 567 cases x 20000 repeats would be built as 11.3M explicit points; the
# compiler rejects the plan before any is built.
expect_exit 1 "invalid spec:" run fig2 --set sweep.repeats=20000 --limit 1

# 2^32 x-packets per round would fail in the run with std::bad_alloc; the
# compiler bounds the session sizes.
expect_exit 1 "invalid spec:" run fig1 --set session.x_packets=4294967296 \
  --limit 1

# A NaN frame gap once ran to exit 0 with "secret_rate_bps":nan in the
# NDJSON, which is not JSON; every double key must be finite.
expect_exit 1 "mac.inter_frame_gap_s: nan" run fig2 \
  --set mac.inter_frame_gap_s=nan --out -

# A full device takes no NDJSON byte: the run must say so and exit 1,
# whether --out names it or stdout is redirected to it.
if [ -w /dev/full ]; then
  expect_exit 1 "cannot write /dev/full" run fig1 --limit 2 \
    --out /dev/full --quiet
  "$THINAIR" run fig1 --limit 2 --out - >/dev/full 2>"$WORK/err"
  status=$?
  [ "$status" -eq 1 ] || fail "run --out - >/dev/full exited $status, want 1"
  grep -qF -- "cannot write -" "$WORK/err" ||
    fail "run --out - >/dev/full: no 'cannot write -' on stderr"
  echo "thinair run --out - >/dev/full: exit 1"
  # The sweep stops at the first write the device refuses, with the same
  # message, instead of computing its 567 cases first.
  expect_exit 1 "cannot write /dev/full" run fig2 --threads 4 \
    --out /dev/full --quiet
else
  echo "skip: /dev/full is not writable here"
fi

echo "PASS"
