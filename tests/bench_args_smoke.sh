#!/usr/bin/env bash
# Strict flags on every micro_* bench: a missing, malformed, negative,
# non-finite or meaningless (zero) value must exit 2 with the usage line
# before any work starts, never run with a wrapped or zeroed setting.
#
#   usage: bench_args_smoke.sh /path/to/bench/binaries
set -u

DIR=$(cd "${1:?usage: bench_args_smoke.sh /path/to/bench/binaries}" && pwd) || exit 1
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK" || exit 1  # a bench that wrongly runs writes its JSON here

failures=0
expect_usage() {
  local bench=$1
  shift
  local out status
  # A bad value that slips through starts the real bench; the timeout
  # turns that into a failure instead of a hang.
  out=$(timeout 20 "$DIR/$bench" "$@" 2>&1)
  status=$?
  if [ "$status" -ne 2 ] || [[ "$out" != *"usage: $bench"* ]]; then
    echo "FAIL: $bench $* exited $status (want 2 and the usage line)" >&2
    failures=$((failures + 1))
  fi
}

expect_usage micro_engine --reps 0
expect_usage micro_engine --reps abc
expect_usage micro_engine --reps
expect_usage micro_engine --cases -1
expect_usage micro_engine --cases 0
expect_usage micro_engine --push-samples 0
expect_usage micro_engine --push-samples 10x
expect_usage micro_engine --threads 2

expect_usage micro_sessions --sessions 0
expect_usage micro_sessions --packets -3
expect_usage micro_sessions --payload 0
expect_usage micro_sessions --rss-tol abc
expect_usage micro_sessions --rss-tol -0.1
expect_usage micro_sessions --rss-tol nan

expect_usage micro_daemon --sessions 0
expect_usage micro_daemon --sessions 1000001
expect_usage micro_daemon --packets abc
expect_usage micro_daemon --deadline 0
expect_usage micro_daemon --deadline -1
expect_usage micro_daemon --deadline inf
expect_usage micro_daemon --deadline 1e300

expect_usage micro_dist --cases 0
expect_usage micro_dist --cases 1e3
expect_usage micro_dist --binary

expect_usage micro_gf --reps 3

[ "$failures" -eq 0 ] || exit 1
echo "bench_args_smoke: every bad flag value exited 2"
