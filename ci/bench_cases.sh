#!/usr/bin/env bash
# Every-case smoke (ctest target bench.cases): runs each case that
# `pmpr_bench --list` names once, tiny — --scale 0.002 and the case's
# window flag set small (--max-windows 4, --windows 16, or --events 4000)
# — and asserts that it exits 0 and prints a table. Skips exactly four
# cases: suite and micro have their own gates (bench.regression,
# bench.smoke), and fig7/fig10 run the same granularity sweep as fig9.
set -euo pipefail

BIN=${1:?usage: bench_cases.sh <pmpr_bench binary>}
SKIP=(suite micro fig7 fig10)

ran=0
skipped=0
for name in $("$BIN" --list | awk '{print $1}'); do
  if [[ " ${SKIP[*]} " == *" ${name} "* ]]; then
    skipped=$((skipped + 1))
    continue
  fi
  # The flags a case reads are the ones its --help lists.
  help=$("$BIN" "$name" --help)
  args=()
  if grep -q -- '--scale ' <<< "$help"; then args+=(--scale 0.002); fi
  if grep -q -- '--max-windows ' <<< "$help"; then args+=(--max-windows 4); fi
  if grep -q -- '  --windows ' <<< "$help"; then args+=(--windows 16); fi
  if grep -q -- '--events ' <<< "$help"; then args+=(--events 4000); fi
  if ! out=$("$BIN" "$name" "${args[@]}"); then
    echo "FAIL: pmpr_bench $name ${args[*]} exited non-zero" >&2
    exit 1
  fi
  if ! grep -q '^== .* ==$' <<< "$out" || ! grep -q '^---' <<< "$out"; then
    echo "FAIL: pmpr_bench $name ${args[*]} printed no table" >&2
    exit 1
  fi
  echo "ok: pmpr_bench $name ${args[*]}"
  ran=$((ran + 1))
done

if [[ "$skipped" -ne "${#SKIP[@]}" ]]; then
  echo "FAIL: skipped $skipped cases, expected ${#SKIP[@]} (${SKIP[*]})" >&2
  exit 1
fi
echo "bench cases OK: $ran cases ran, $skipped skipped"
