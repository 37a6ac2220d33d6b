#!/usr/bin/env bash
# Every program in examples/ runs with its documented arguments, exits 0
# and prints the property it exists to show:
#   quickstart         the group agrees on a secret of more than 0 bits;
#   testbed_demo 4     the 8-terminal testbed experiment yields secret bits;
#   multi_antenna_eve  defending against all 3 of Eve's antennas (k = 3)
#                      keeps reliability at 1;
#   key_refresh        every message is verified with its own one-time key
#                      (the program itself exits 1 on a failed MAC check).
#
#   usage: examples_smoke.sh /path/to/example/binaries
set -u

DIR=${1:?usage: examples_smoke.sh /path/to/example/binaries}
failures=0

fail() {
  echo "FAIL: $1" >&2
  failures=$((failures + 1))
}

# run NAME ARGS...: the example's stdout in $out; fail on a nonzero exit.
run() {
  local name=$1
  shift
  out=$(timeout 60 "$DIR/$name" "$@")
  local status=$?
  [ "$status" -eq 0 ] || fail "$name${*:+ $*} exited $status"
}

run quickstart
bits=$(sed -n 's/^group secret: \([0-9]*\) bits.*/\1/p' <<<"$out")
[ "${bits:-0}" -gt 0 ] || fail "quickstart: no 'group secret: N bits' with N > 0"

run testbed_demo 4
bits=$(sed -n 's/^secret *: \([0-9]*\) bits.*/\1/p' <<<"$out")
[ "${bits:-0}" -gt 0 ] || fail "testbed_demo 4: no 'secret : N bits' with N > 0"

run multi_antenna_eve
rel=$(sed -n 's/^3 antennas, defend k=3 *\([0-9.]*\).*/\1/p' <<<"$out")
[ "$rel" = "1.000" ] ||
  fail "multi_antenna_eve: defend k=3 reliability is '$rel', not 1.000"

run key_refresh
grep -Eq '^([1-9][0-9]*) messages protected with \1 one-time keys' <<<"$out" ||
  fail "key_refresh: no 'N messages protected with N one-time keys' line"

[ "$failures" -eq 0 ] || exit 1
echo "examples_smoke: 4 examples ran and showed their property"
