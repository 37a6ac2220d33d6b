#!/usr/bin/env bash
# Two-process (and four-process) key agreement through the thinair CLI:
# start thinaird on an ephemeral port, run one `thinair client` process per
# terminal, and require every process to print the identical key. One
# group runs fig1's N = 200, whose announcements need datagrams far past
# 8 KiB. The daemon's readiness line must keep the shape perfbench's
# daemon workload parses, and SIGINT and SIGTERM must each end a daemon
# with exit status 0.
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

# start_daemon LOG: serve on an ephemeral port, logging to LOG; sets
# SERVE_PID and PORT. The readiness line is the log's first line,
# "thinaird listening on HOST:PORT", read as the port after its last ':'.
start_daemon() {
  local log=$1 ready
  "$THINAIR" serve --port 0 --seed 2026 >"$log" 2>&1 &
  SERVE_PID=$!
  for _ in $(seq 50); do
    [ "$(wc -l <"$log")" -gt 0 ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || fail "daemon exited during startup"
    sleep 0.1
  done
  ready=$(head -n 1 "$log")
  [ -n "$ready" ] || fail "daemon never reported its port"
  [[ "$ready" =~ ^thinaird\ listening\ on\ [^\ ]+:[0-9]+$ ]] ||
    fail "readiness line is not 'thinaird listening on HOST:PORT': $ready"
  PORT=${ready##*:}
}

# stop_daemon SIGNAL LOG: the daemon must exit 0 and report its counters.
stop_daemon() {
  local rc=0
  kill -"$1" "$SERVE_PID"
  wait "$SERVE_PID" || rc=$?
  SERVE_PID=
  [ "$rc" -eq 0 ] || fail "daemon exited with status $rc on SIG$1"
  grep -qE '^thinaird: [0-9]+ datagrams' "$2" ||
    fail "daemon reported no counters on SIG$1"
}

start_daemon "$WORK/serve.log"

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
stop_daemon INT "$WORK/serve.log"

start_daemon "$WORK/serve_term.log"
stop_daemon TERM "$WORK/serve_term.log"

echo "PASS"
