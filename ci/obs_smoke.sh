#!/usr/bin/env bash
# Telemetry smoke pass (ctest target obs.smoke): runs the documented
# pmpr_run example on a tiny surrogate with --trace, --metrics, and
# --flight-recorder, then validates the emitted JSON shapes — the Chrome
# trace-event file that ui.perfetto.dev loads (X spans, M process/thread
# metadata), the pmpr-metrics-v5 run record (counters, per-phase latency
# histograms, paging residency, diagnostics), and the pmpr-blackbox-v1
# flight-recorder dump. Keeps the observability layer's export formats
# from silently rotting.
set -euo pipefail

BIN=${1:?usage: obs_smoke.sh <pmpr_run binary> [out_dir]}
OUT=${2:-.}

TRACE="$OUT/OBS_trace.json"
METRICS="$OUT/OBS_metrics.json"
BLACKBOX="$OUT/OBS_blackbox.json"

"$BIN" --model postmortem --dataset wiki-talk --scale 0.002 \
  --max-windows 16 --trace "$TRACE" --metrics "$METRICS" \
  --flight-recorder "$BLACKBOX"

python3 - "$TRACE" "$METRICS" "$BLACKBOX" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    trace = json.load(f)

assert trace.get("displayTimeUnit") == "ms", "trace: bad displayTimeUnit"
events = trace["traceEvents"]
assert isinstance(events, list) and events, "trace: no events"
names = set()
thread_names = set()
for ev in events:
    assert ev["ph"] in ("X", "M"), f"trace: unexpected phase {ev}"
    assert isinstance(ev["name"], str) and ev["name"], f"trace: no name {ev}"
    if ev["ph"] == "X":
        assert ev["cat"] == "pmpr", f"trace: unexpected category {ev}"
        assert ev["ts"] >= 0 and ev["dur"] >= 0, f"trace: bad timing {ev}"
        assert isinstance(ev["tid"], int) and isinstance(ev["pid"], int)
        names.add(ev["name"])
    else:  # M
        if ev["name"] == "thread_name":
            thread_names.add(ev["args"]["name"])
        else:
            assert ev["name"] == "process_name", f"trace: odd metadata {ev}"
            assert ev["args"]["name"] == "pmpr"
for required in ("postmortem.build_representation", "postmortem.run"):
    assert required in names, f"trace: missing span {required}; got {names}"
# Metadata must label the tracks Perfetto renders: the process and the
# main thread.
assert "main" in thread_names, \
    f"trace: missing thread_name main; got {thread_names}"
# Metadata events precede the payload so tracks are labelled on load.
phases = [ev["ph"] for ev in events]
assert phases.index("M") < phases.index("X"), "trace: metadata after spans"

with open(sys.argv[2]) as f:
    metrics = json.load(f)

assert metrics["schema"] == "pmpr-metrics-v5", "metrics: bad schema tag"
for field in ("build_seconds", "compute_seconds", "total_seconds"):
    assert metrics[field] >= 0, f"metrics: bad {field}"
assert metrics["num_windows"] > 0, "metrics: no windows"
assert metrics["total_iterations"] > 0, "metrics: no iterations"
assert metrics["peak_memory_bytes"] > 0, "metrics: no memory estimate"
counters = metrics["counters"]
assert counters["edges_traversed"] > 0, "metrics: no edges counted"
assert counters["windows_processed"] == metrics["num_windows"]
assert counters["histogram_records"] > 0, "metrics: no histogram records"

# SIMD dispatch: the run must record which ISA its compiled SpMM sweeps
# resolved to, and the matching per-ISA sweep counter must have fired
# (the postmortem model defaults to compiled SpMM kernels).
assert metrics["simd_isa"] in ("scalar", "avx2", "avx512"), \
    f"metrics: bad simd_isa {metrics.get('simd_isa')!r}"
for isa in ("scalar", "avx2", "avx512"):
    assert f"simd_sweep_{isa}" in counters, \
        f"metrics: simd_sweep_{isa} counter missing"
assert counters[f"simd_sweep_{metrics['simd_isa']}"] > 0, \
    "metrics: no sweeps counted on the resolved ISA"

# v2: per-phase latency histograms. Every processed window passed through
# build/iterate/sink; percentiles are ordered and bounded by the max.
histograms = metrics["histograms"]
for phase in ("build", "iterate", "sink"):
    h = histograms[phase]
    assert h["count"] > 0, f"metrics: empty {phase} histogram"
    assert h["sum_ns"] > 0, f"metrics: zero {phase} sum"
    assert h["p50_ns"] <= h["p90_ns"] <= h["p99_ns"], \
        f"metrics: unordered {phase} percentiles {h}"
    assert h["max_ns"] >= h["p99_ns"] * 8 / 9, \
        f"metrics: {phase} max below p99's bucket {h}"
    assert h["mean_ns"] > 0, f"metrics: zero {phase} mean"

# Paging residency and read amplification. This in-RAM run pages and
# decodes nothing, so every field is 0, but each must exist.
memory = metrics["memory"]
assert set(memory) == {"oocore_resident_peak_charged_bytes",
                       "oocore_resident_peak_measured_bytes",
                       "oocore_residency_delta_bytes",
                       "read_amplification"}, \
    f"metrics: unexpected memory fields {sorted(memory)}"
assert memory["read_amplification"] >= 0, "metrics: bad read amplification"

# v4: failure-diagnostics section. --flight-recorder keeps the recorder on,
# so it must have recorded events from at least the main thread; no
# watchdog ran and no crash handler was installed here.
diag = metrics["diagnostics"]
fr = diag["flight_recorder"]
assert fr["enabled"] is True, "metrics: flight recorder not enabled"
assert fr["records"] > 0, "metrics: flight recorder recorded nothing"
assert fr["threads"] >= 1, "metrics: no recorder threads"
assert fr["dropped"] >= 0 and fr["drains"] >= 0
wd = diag["watchdog"]
for field in ("arms", "fires", "max_heartbeat_age_ns", "last_stalled_phase"):
    assert field in wd, f"metrics: watchdog section missing {field}"
assert wd["fires"] == 0, "metrics: watchdog fired on a healthy run"
assert diag["crash_handler_installed"] is False
assert isinstance(diag["heartbeats"], list)

windows = metrics["windows"]
assert len(windows) == metrics["num_windows"], "metrics: windows mismatch"
for w in windows:
    assert w["iterations"] > 0, f"metrics: window without iterations {w}"
    assert w["final_residual"] >= 0, f"metrics: bad residual {w}"
    assert len(w["residuals"]) == w["iterations"], \
        f"metrics: trajectory length mismatch {w}"

# pmpr-blackbox-v1: the flight recorder's retained events. The serial
# smoke run records window phase spans on the main thread at minimum.
with open(sys.argv[3]) as f:
    box = json.load(f)
assert box["schema"] == "pmpr-blackbox-v1", "blackbox: bad schema tag"
assert box["ring_capacity"] > 0, "blackbox: bad ring capacity"
stats = box["stats"]
assert stats["records"] > 0, "blackbox: nothing recorded"
assert stats["threads"] >= 1, "blackbox: no threads"
assert isinstance(box["last_error"], str)
assert box["threads"], "blackbox: empty thread table"
for t in box["threads"]:
    for field in ("tid", "label", "records"):
        assert field in t, f"blackbox: thread entry missing {field} {t}"
assert box["events"], "blackbox: no retained events"
kinds = set()
for ev in box["events"]:
    for field in ("t_ns", "tid", "kind", "name", "a", "b"):
        assert field in ev, f"blackbox: event missing {field} {ev}"
    kinds.add(ev["kind"])
assert "span_begin" in kinds and "span_end" in kinds, \
    f"blackbox: no phase spans retained; got {kinds}"
assert "window_done" in kinds, f"blackbox: no window_done events; got {kinds}"

print(f"obs smoke OK: {len(events)} trace events, "
      f"{metrics['num_windows']} windows, "
      f"{len(box['events'])} blackbox events in {sys.argv[2]}")
EOF
