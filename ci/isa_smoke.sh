#!/usr/bin/env bash
# ISA smoke pass (ctest target pagerank.isa_smoke): runs one postmortem
# workload through pmpr_run with each forced sweep ISA — scalar, AVX2 and
# AVX-512 — on 3 workers and asserts that every checksum line is
# BYTE-identical to the scalar run's. The unit tests check the sweeps and
# dangling scans batch by batch; this checks the same equality end to end,
# through nested-mode parallelism, partial init across batches and the leaf
# grid.
# An ISA the binary or host lacks is rejected by pmpr_run ("... does not
# support it") and skipped; any other failure fails the pass.
set -euo pipefail

BIN=${1:?usage: isa_smoke.sh <pmpr_run binary> [out_dir]}
OUT=${2:-.}

# The 6-part, 500-window input of ci/oocore_smoke.sh's 3-worker pair:
# leaves that straddle parts, 16-lane batches with 4-lane tails.
RUN=(--model postmortem --dataset wiki-talk --scale 1.0 --max-windows 500
     --parts 6)

ref=""
for isa in scalar avx2 avx512; do
  out="$OUT/ISA_$isa.txt"
  err="$OUT/ISA_$isa.err"
  if ! PMPR_THREADS=3 "$BIN" "${RUN[@]}" --simd "$isa" > "$out" 2> "$err"
  then
    if grep -q "does not support it" "$err"; then
      echo "isa smoke: skipping $isa: $(cat "$err")"
      continue
    fi
    echo "isa smoke: the $isa run failed:" >&2
    cat "$err" >&2
    exit 1
  fi
  sum=$(grep '^checksum' "$out" || true)
  if [[ -z "$sum" ]]; then
    echo "isa smoke: no checksum line in the $isa run ($out)" >&2
    exit 1
  fi
  if [[ -z "$ref" ]]; then
    ref=$sum
  elif [[ "$sum" != "$ref" ]]; then
    echo "isa smoke: $isa ranks diverge from scalar: '$sum' vs '$ref'" >&2
    exit 1
  fi
  echo "isa smoke OK: $isa ($sum)"
done
