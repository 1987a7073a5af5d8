#!/usr/bin/env bash
# Perf-regression gate (ctest target bench.regression): runs the curated
# suite (`pmpr_bench suite`) at a tiny scale, then validates the whole
# gate machinery end-to-end on this machine's own numbers — absolute
# timings do not transfer between boxes, so the always-on test never diffs
# against the committed baseline. It proves instead that:
#   1. bench_compare.py's band logic passes its fabricated self-test,
#   2. BENCH_suite.json has the expected records with sane values,
#   3. a run compared against itself passes, and
#   4. a fabricated regression (doubled timings) fails.
# The committed ci/bench_baseline.json serves the fixed-box dev workflow:
#   python3 ci/bench_compare.py build/BENCH_suite.json ci/bench_baseline.json
set -euo pipefail

BIN=${1:?usage: bench_regression.sh <pmpr_bench binary> [out_dir]}
OUT=${2:-.}
CI_DIR=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
SUITE="$OUT/BENCH_suite.json"

# 1. Band logic self-test (no files needed).
python3 "$CI_DIR/bench_compare.py" --self-test

# 2. Run the suite small and validate the emitted shape.
"$BIN" suite --scale=0.002 --max-windows=16 --micro-iters=20 \
  --json="$SUITE" >/dev/null

python3 - "$SUITE" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    suite = json.load(f)

required = {
    "meta": ["schema_version", "scale", "repeats", "max_windows"],
    "fig5.offline": ["seconds", "ns_per_window"],
    "fig5.streaming": ["seconds", "ns_per_window"],
    "fig5.postmortem": ["seconds", "ns_per_window", "iterate_p50_ns",
                        "iterate_p99_ns", "edges_per_second",
                        "total_iterations"],
    "fig6.partial_on": ["seconds"],
    "fig6.partial_off": ["seconds"],
    "fig8.y2": ["compute_seconds"],
    "fig8.y8": ["compute_seconds"],
    "micro.spmv_ref": ["ns_per_iteration"],
    "micro.spmv_compiled": ["ns_per_iteration"],
    "micro.spmm16_compiled": ["ns_per_iteration"],
    "micro.spmm64_compiled": ["ns_per_iteration", "ns_per_lane"],
    "micro.decode_varint": ["ns_per_entry", "entries_per_second"],
    "io.compress_ratio": ["ratio", "bits_per_entry"],
    "io.oocore_paging": ["seconds", "resident_peak_bytes",
                         "read_amplification"],
}
for record, fields in required.items():
    assert record in suite, f"missing record {record}"
    for field in fields:
        assert field in suite[record], f"missing {record}.{field}"
        value = suite[record][field]
        assert value >= 0, f"negative {record}.{field}: {value}"
for record, fields in required.items():
    if record == "meta":
        continue
    for field in fields:
        if field.endswith("seconds") or field == "ns_per_iteration":
            assert suite[record][field] > 0, f"zero timing {record}.{field}"
# Histogram percentiles must be ordered and below the run's wall time.
pm = suite["fig5.postmortem"]
assert pm["iterate_p50_ns"] <= pm["iterate_p99_ns"], "p50 > p99"
assert pm["iterate_p99_ns"] <= pm["seconds"] * 1e9, "p99 above wall time"
# Memory records: a paged run holds a real residency charge, and its
# compile passes decode more encoded bytes than the ranks they deliver
# amortize only when windows are few — either way the ratio is positive.
oo = suite["io.oocore_paging"]
assert oo["resident_peak_bytes"] > 0, "paged run charged no residency"
assert oo["read_amplification"] > 0, "paged run decoded nothing"
print(f"suite shape OK: {len(suite) - 1} records in {sys.argv[1]}")
EOF

# 3. Self-comparison must report no regressions.
python3 "$CI_DIR/bench_compare.py" "$SUITE" "$SUITE" >/dev/null

# 4. Doubling every timing metric must trip the gate.
DOUBLED="$OUT/BENCH_suite_doubled.json"
python3 - "$SUITE" "$DOUBLED" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    suite = json.load(f)
for record, fields in suite.items():
    if record == "meta" or not isinstance(fields, dict):
        continue
    for metric, value in fields.items():
        if isinstance(value, (int, float)) and (
            metric.endswith("seconds") or metric.endswith("_ns")
            or "ns_per_" in metric
        ):
            fields[metric] = value * 2.0
with open(sys.argv[2], "w") as f:
    json.dump(suite, f, indent=2)
EOF

if python3 "$CI_DIR/bench_compare.py" "$DOUBLED" "$SUITE" >/dev/null 2>&1; then
  echo "bench regression gate FAILED: doubled timings were not flagged" >&2
  exit 1
fi

# 5. A fabricated memory blowup (2x the charged residency peak) must trip
# the footprint band even though every timing is untouched.
BLOATED="$OUT/BENCH_suite_bloated.json"
python3 - "$SUITE" "$BLOATED" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    suite = json.load(f)
suite["io.oocore_paging"]["resident_peak_bytes"] *= 2.0
with open(sys.argv[2], "w") as f:
    json.dump(suite, f, indent=2)
EOF

if python3 "$CI_DIR/bench_compare.py" "$BLOATED" "$SUITE" >/dev/null 2>&1; then
  echo "bench regression gate FAILED: doubled residency was not flagged" >&2
  exit 1
fi

echo "bench regression gate OK: self-test, shape, self-compare, fabricated" \
     "timing and memory regressions all behave"
