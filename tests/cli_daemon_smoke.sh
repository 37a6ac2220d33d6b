#!/usr/bin/env bash
# Two-process (and four-process) key agreement through the thinair CLI:
# start thinaird on an ephemeral port, run one `thinair client` process per
# terminal, and require every process to print the identical key. One
# group runs fig1's N = 200, whose announcements need datagrams far past
# 8 KiB.
#
#   usage: cli_daemon_smoke.sh /path/to/thinair
set -u

THINAIR=${1:?usage: cli_daemon_smoke.sh /path/to/thinair}
WORK=$(mktemp -d)
SERVE_PID=
cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null
  wait 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

"$THINAIR" serve --port 0 --seed 2026 >"$WORK/serve.log" 2>&1 &
SERVE_PID=$!

PORT=
for _ in $(seq 50); do
  PORT=$(grep -oE 'listening on [0-9.]+:[0-9]+' "$WORK/serve.log" 2>/dev/null |
         grep -oE '[0-9]+$')
  [ -n "$PORT" ] && break
  kill -0 "$SERVE_PID" 2>/dev/null || fail "daemon exited during startup"
  sleep 0.1
done
[ -n "$PORT" ] || fail "daemon never reported its port"

# run_group SESSION MEMBERS [CLIENT FLAGS...]
run_group() {
  local session=$1 members=$2
  shift 2
  local pids=() node rc=0
  for node in $(seq 0 $((members - 1))); do
    "$THINAIR" client --port "$PORT" --session "$session" --node "$node" \
      --members "$members" --quiet "$@" \
      >"$WORK/key_${session}_${node}.txt" 2>"$WORK/err_${session}_${node}.txt" &
    pids+=($!)
  done
  for node in $(seq 0 $((members - 1))); do
    wait "${pids[$node]}" || {
      echo "client $node (session $session) failed:" >&2
      cat "$WORK/err_${session}_${node}.txt" >&2
      rc=1
    }
  done
  [ "$rc" -eq 0 ] || fail "a client of session $session exited nonzero"
  for node in $(seq 1 $((members - 1))); do
    cmp -s "$WORK/key_${session}_0.txt" "$WORK/key_${session}_${node}.txt" ||
      fail "session $session: node $node derived a different key"
  done
  [ -s "$WORK/key_${session}_0.txt" ] || fail "session $session: empty key"
  # A key line is hex plus newline; require a real secret, not just "\n".
  [ "$(wc -c <"$WORK/key_${session}_0.txt")" -gt 16 ] ||
    fail "session $session: key too short"
  echo "session $session: $members clients agree" \
       "($(($(wc -c <"$WORK/key_${session}_0.txt") / 2)) bytes)"
}

run_group 21 2
run_group 41 4
run_group 61 2 --packets 200

echo "PASS"
