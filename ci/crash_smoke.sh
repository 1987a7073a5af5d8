#!/usr/bin/env bash
# Failure-diagnostics smoke pass (ctest target obs.crash_smoke): proves the
# postmortem pillar actually works at failure time, not just in unit tests.
#
#   1. crash_probe segv  — an induced SIGSEGV mid-run must kill the process
#      with the real signal AND leave a parseable pmpr-crash-<pid>.json
#      (kind "signal", SIGSEGV identity, counter snapshot, >=1 retained
#      flight-recorder event).
#   2. crash_probe stall — an injected sink sleep must make the watchdog
#      fire within its detection budget and write pmpr-watchdog-<pid>.json
#      naming the stalled phase (batch.sink).
#   3. pmpr_run with and without --flight-recorder on one thread must print
#      bit-identical checksums: the recorder observes, never perturbs.
set -euo pipefail

PROBE=${1:?usage: crash_smoke.sh <crash_probe binary> <pmpr_run binary> [out_dir]}
RUN=${2:?usage: crash_smoke.sh <crash_probe binary> <pmpr_run binary> [out_dir]}
OUT=${3:-.}

WORK="$OUT/crash_smoke"
rm -rf "$WORK"
mkdir -p "$WORK/segv" "$WORK/stall"

# --- 1. Induced SIGSEGV -> crash report ------------------------------------
rc=0
"$PROBE" segv "$WORK/segv" || rc=$?
if [ "$rc" -eq 0 ] || [ "$rc" -eq 7 ]; then
  echo "crash_smoke: segv probe did not die by signal (rc=$rc)" >&2
  exit 1
fi

python3 - "$WORK/segv" <<'EOF'
import glob
import json
import sys

reports = glob.glob(sys.argv[1] + "/pmpr-crash-*.json")
assert len(reports) == 1, f"crash: expected one report, got {reports}"
with open(reports[0]) as f:
    crash = json.load(f)
assert crash["schema"] == "pmpr-crash-v1", "crash: bad schema tag"
assert crash["kind"] == "signal", "crash: bad kind"
assert crash["signal_name"] == "SIGSEGV", f"crash: wrong signal {crash}"
assert crash["pid"] > 0 and crash["t_ns"] >= 0
counters = crash["counters"]
assert counters, "crash: no counter snapshot"
assert counters["windows_processed"] > 0, \
    "crash: no windows processed before the fault"
assert crash["threads"], "crash: no thread table"
events = crash["events"]
assert len(events) >= 1, "crash: no flight-recorder events retained"
kinds = {ev["kind"] for ev in events}
assert "window_done" in kinds or "span_begin" in kinds, \
    f"crash: no run breadcrumbs in the ring; got {kinds}"
assert "heartbeats" in crash
print(f"crash_smoke segv OK: {reports[0]} with {len(events)} ring events")
EOF

# --- 2. Induced stall -> watchdog dump -------------------------------------
WATCHDOG_MS=300
"$PROBE" stall "$WORK/stall" "$WATCHDOG_MS"

python3 - "$WORK/stall" "$WATCHDOG_MS" <<'EOF'
import glob
import json
import sys

dumps = glob.glob(sys.argv[1] + "/pmpr-watchdog-*.json")
assert len(dumps) == 1, f"stall: expected one dump, got {dumps}"
with open(dumps[0]) as f:
    dump = json.load(f)
assert dump["schema"] == "pmpr-crash-v1", "stall: bad schema tag"
assert dump["kind"] == "watchdog_stall", "stall: bad kind"
assert dump["stalled_phase"] == "batch.sink", \
    f"stall: wrong phase {dump['stalled_phase']!r}"
threshold_ns = int(sys.argv[2]) * 1_000_000
assert dump["threshold_ns"] == threshold_ns, f"stall: wrong threshold {dump}"
# Detection budget: threshold + check interval (threshold/4 by default),
# asserted against the acceptance bound of 2x the threshold.
assert threshold_ns < dump["stall_age_ns"] < 2 * threshold_ns, \
    f"stall: fire outside the detection budget ({dump['stall_age_ns']} ns)"
assert dump["events"], "stall: no flight-recorder events in the dump"
hb = dump["heartbeats"]
assert any(b["phase"] == "batch.sink" for b in hb), \
    f"stall: heartbeat table does not show the stalled phase; got {hb}"
print(f"crash_smoke stall OK: {dumps[0]} fired at "
      f"{dump['stall_age_ns'] / 1e6:.0f} ms on {dump['stalled_phase']}")
EOF

# --- 3. Recorder on/off ranks must be bit-identical ------------------------
ARGS=(--model postmortem --dataset wiki-talk --scale 0.002 --max-windows 16)
PMPR_THREADS=1 "$RUN" "${ARGS[@]}" > "$WORK/plain.txt"
PMPR_THREADS=1 "$RUN" "${ARGS[@]}" \
  --flight-recorder "$WORK/blackbox.json" > "$WORK/recorded.txt"
PLAIN=$(grep '^checksum' "$WORK/plain.txt")
RECORDED=$(grep '^checksum' "$WORK/recorded.txt")
if [ "$PLAIN" != "$RECORDED" ]; then
  echo "crash_smoke: flight recorder perturbed the ranks" >&2
  echo "  off: $PLAIN" >&2
  echo "  on : $RECORDED" >&2
  exit 1
fi
echo "crash_smoke differential OK: recorder on/off agree ($PLAIN)"
echo "crash smoke OK"
