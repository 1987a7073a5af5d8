#!/usr/bin/env bash
# check_all: every static gate in one run, with a summary table.
#
#   format            ci/format.sh (clang-format conformance)
#   pmpr-lint         ci/pmpr_lint.py over src/ and tests/oracle/ + its
#                     fixture self-test
#   analyze.layers    ci/pmpr_analyze.py --pass layers (module DAG)
#   analyze.locks     ci/pmpr_analyze.py --pass locks (lock-order model)
#   analyze.hygiene   ci/pmpr_analyze.py --pass hygiene (header discipline)
#   analyze.fixtures  tests/analyze/run_fixture_tests.py
#   clang-tidy        ci/lint.sh (which re-runs pmpr-lint cheaply first)
#   obs.smoke         ci/obs_smoke.sh (trace/metrics/blackbox JSON shapes)
#   crash.smoke       ci/crash_smoke.sh (crash report, watchdog, recorder
#                     differential)
#
# Every gate runs even after a failure, so one invocation reports the full
# damage; the exit status is non-zero if any gate failed. Gates whose tool
# is missing (clang-format / clang-tidy) report SKIP, matching the
# individual scripts' graceful degradation; the two runtime smokes report
# SKIP when the build dir has no binaries (static gates never require a
# build).
#
# Usage: ci/check_all.sh [build-dir]
#   build-dir (default <repo>/build-lint) supplies compile_commands.json
#   for clang-tidy and the analyzer's freshness cross-check.
#
# Registered as the opt-in ctest target `ci.check_all` when CMake runs
# with -DPMPR_ENABLE_CHECK_ALL=ON.
set -uo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-${ROOT}/build-lint}"
PYTHON="$(command -v python3 || command -v python || true)"

NAMES=()
STATUSES=()
TIMES=()
FAILED=0

run_gate() {
  local name="$1"
  shift
  echo
  echo "=== ${name} ==="
  local start end status out rc
  start=$(date +%s)
  out="$("$@" 2>&1)"
  rc=$?
  end=$(date +%s)
  echo "${out}"
  if [[ ${rc} -ne 0 ]]; then
    status="FAIL"
    FAILED=1
  elif grep -q "SKIP" <<< "${out}"; then
    status="SKIP"
  else
    status="PASS"
  fi
  NAMES+=("${name}")
  STATUSES+=("${status}")
  TIMES+=("$((end - start))")
}

run_gate "format" bash "${ROOT}/ci/format.sh"

if [[ -n "${PYTHON}" ]]; then
  run_gate "pmpr-lint" "${PYTHON}" "${ROOT}/ci/pmpr_lint.py" \
    --root "${ROOT}" --verbose "${ROOT}/src" "${ROOT}/tests/oracle"
  run_gate "lint.fixtures" "${PYTHON}" \
    "${ROOT}/tests/lint/run_fixture_tests.py" --root "${ROOT}"
  for pass in layers locks hygiene; do
    run_gate "analyze.${pass}" "${PYTHON}" "${ROOT}/ci/pmpr_analyze.py" \
      --root "${ROOT}" --pass "${pass}" \
      --compile-commands "${BUILD_DIR}/compile_commands.json" \
      --json "${BUILD_DIR}/ANALYZE_${pass}.json"
  done
  run_gate "analyze.fixtures" "${PYTHON}" \
    "${ROOT}/tests/analyze/run_fixture_tests.py" --root "${ROOT}"
else
  echo "check_all: SKIP python gates (no interpreter found)" >&2
fi

run_gate "clang-tidy" bash "${ROOT}/ci/lint.sh" "${BUILD_DIR}"

# Runtime smokes ride along when the build tree has the binaries: an
# export format or crash report that stops parsing is a lint-class
# regression even though catching it needs a run.
smoke_or_skip() {
  local name="$1" script="$2"
  shift 2
  local bin
  for bin in "$@"; do
    if [[ ! -x "${bin}" ]]; then
      run_gate "${name}" echo \
        "${name}: SKIP (${bin} not built; configure+build ${BUILD_DIR})"
      return
    fi
  done
  run_gate "${name}" bash "${script}" "$@" "${BUILD_DIR}"
}

if [[ -n "${PYTHON}" ]]; then
  smoke_or_skip "obs.smoke" "${ROOT}/ci/obs_smoke.sh" \
    "${BUILD_DIR}/examples/pmpr_run"
  smoke_or_skip "crash.smoke" "${ROOT}/ci/crash_smoke.sh" \
    "${BUILD_DIR}/tests/crash_probe" "${BUILD_DIR}/examples/pmpr_run"
fi

echo
echo "== check_all summary =="
printf '%-18s %-6s %8s\n' "gate" "result" "seconds"
printf '%-18s %-6s %8s\n' "----" "------" "-------"
for i in "${!NAMES[@]}"; do
  printf '%-18s %-6s %8s\n' "${NAMES[$i]}" "${STATUSES[$i]}" "${TIMES[$i]}"
done

if [[ ${FAILED} -ne 0 ]]; then
  echo "check_all: FAILED (see table above)"
  exit 1
fi
echo "check_all: all gates passed (SKIPs are missing optional tools)"
