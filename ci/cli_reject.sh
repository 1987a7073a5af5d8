#!/usr/bin/env bash
# Flag-rejection check (ctest targets cli.*): runs a binary with a bad flag
# value and asserts that it
#   * exits with status 1 (not 0, and not an abort's 134),
#   * prints exactly one line on stderr, matching the expected message,
#   * prints nothing on stdout, i.e. it stopped before doing any work.
#
# Usage: cli_reject.sh <expected-message-regex> <binary> [args...]
set -uo pipefail

EXPECT=${1:?usage: cli_reject.sh <expected-message-regex> <binary> [args...]}
shift
CMD="$*"

OUT_FILE=$(mktemp)
ERR_FILE=$(mktemp)
trap 'rm -f "$OUT_FILE" "$ERR_FILE"' EXIT

"$@" > "$OUT_FILE" 2> "$ERR_FILE"
STATUS=$?

fail() {
  echo "FAIL: $*" >&2
  echo "--- command: $CMD" >&2
  echo "--- stdout:" >&2
  cat "$OUT_FILE" >&2
  echo "--- stderr:" >&2
  cat "$ERR_FILE" >&2
  exit 1
}

[ "$STATUS" -eq 1 ] || fail "exit status $STATUS, expected 1"
[ ! -s "$OUT_FILE" ] || fail "wrote to stdout before rejecting the flag"
LINES=$(wc -l < "$ERR_FILE")
[ "$LINES" -eq 1 ] || fail "stderr has $LINES lines, expected 1"
grep -Eq -- "$EXPECT" "$ERR_FILE" ||
  fail "stderr does not match '$EXPECT'"
echo "rejected as expected: $(cat "$ERR_FILE")"
