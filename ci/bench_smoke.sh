#!/usr/bin/env bash
# Fast sanity pass over the kernel timings (ctest target bench.smoke): runs
# `pmpr_bench micro` on a tiny surrogate, emits BENCH_kernels.json, and
# validates the JSON shape — the SpMV/SpMM reference and compiled records
# present with positive timings and the compiled entries carrying
# speedup_vs_reference. Keeps the --json plumbing and the compiled kernels'
# timings from silently rotting without paying for a full run in the plain
# suite.
set -euo pipefail

BIN=${1:?usage: bench_smoke.sh <pmpr_bench binary> [out.json]}
OUT=${2:-BENCH_kernels.json}

"$BIN" micro --scale=0.002 --micro-iters=20 --json="$OUT"

python3 - "$OUT" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    data = json.load(f)

required = [
    "micro.spmv_ref",
    "micro.spmv_compiled",
    "micro.spmm16_ref",
    "micro.spmm16_compiled",
    "micro.spmm64_compiled",
]
for name in required:
    assert name in data, f"missing record {name}"
    assert data[name]["ns_per_iteration"] > 0, f"{name}: bad timing"
    assert data[name]["items_per_second"] > 0, f"{name}: bad throughput"
for name in ("micro.spmv_compiled", "micro.spmm16_compiled"):
    assert "speedup_vs_reference" in data[name], f"{name}: missing speedup"
# --json turns the counters on: every kernel record must carry the
# telemetry counter object with real per-iteration work attributed to it.
for name in required:
    counters = data[name].get("counters")
    assert counters, f"{name}: missing counters object"
    assert counters["edges_traversed"] > 0, f"{name}: no edges counted"
print(f"bench smoke OK: {len(data)} records in {sys.argv[1]}")
EOF
