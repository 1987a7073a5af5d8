#!/usr/bin/env bash
# Static-analysis gate (DESIGN.md "Static analysis"):
#
#   1. pmpr-lint (ci/pmpr_lint.py): project-specific concurrency rules —
#      ordering-rationale comments on non-seq_cst atomics, no raw
#      std::mutex/std::thread outside src/par/, reinterpret_cast confined
#      to binary IO, no naked new/delete outside ws_deque.hpp.
#   2. clang-tidy over every src/ translation unit, driven by the
#      compile_commands.json of a build tree (configured here if absent).
#      Fails on any diagnostic (.clang-tidy sets WarningsAsErrors: '*').
#
# Degrades gracefully: when clang-tidy (or a Clang-configured build) is
# unavailable the tidy stage is SKIPPED with a message rather than failed,
# so the gate is usable on GCC-only boxes while still biting in CI images
# that carry Clang. pmpr-lint always runs (pure Python).
#
# Usage: ci/lint.sh [build-dir]     (default: <repo>/build-lint)
# Registered as ctest target `ci.lint` when CMake runs with
# -DPMPR_ENABLE_LINT=ON.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-${ROOT}/build-lint}"
JOBS="${PMPR_LINT_JOBS:-$(nproc)}"

# ---- 1. pmpr-lint -----------------------------------------------------------
PYTHON="$(command -v python3 || command -v python || true)"
if [[ -z "${PYTHON}" ]]; then
  echo "lint: SKIP pmpr-lint (no python interpreter found)" >&2
else
  echo "=== [1/2] pmpr-lint over src/ and tests/oracle/ ==="
  "${PYTHON}" "${ROOT}/ci/pmpr_lint.py" --root "${ROOT}" "${ROOT}/src" \
    "${ROOT}/tests/oracle"
fi

# ---- 2. clang-tidy ----------------------------------------------------------
CLANG_TIDY="$(command -v clang-tidy || true)"
if [[ -z "${CLANG_TIDY}" ]]; then
  for v in 21 20 19 18 17 16 15 14; do
    if command -v "clang-tidy-${v}" > /dev/null 2>&1; then
      CLANG_TIDY="$(command -v "clang-tidy-${v}")"
      break
    fi
  done
fi
if [[ -z "${CLANG_TIDY}" ]]; then
  echo "lint: SKIP clang-tidy (not installed; install clang-tidy to enable" \
       "the full gate)"
  echo "lint: pmpr-lint gate passed"
  exit 0
fi

if [[ ! -f "${BUILD_DIR}/compile_commands.json" ]]; then
  echo "=== [2/2] configuring ${BUILD_DIR} for compile_commands.json ==="
  cmake -S "${ROOT}" -B "${BUILD_DIR}" \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    -DPMPR_BUILD_BENCH=OFF \
    -DPMPR_BUILD_EXAMPLES=OFF \
    -DPMPR_WERROR=ON \
    > "${BUILD_DIR}-configure.log" 2>&1 || {
      cat "${BUILD_DIR}-configure.log"; exit 1; }
fi

echo "=== [2/2] clang-tidy over src/ (this may take a while) ==="
mapfile -t SOURCES < <(find "${ROOT}/src" -name '*.cpp' | sort)
if command -v run-clang-tidy > /dev/null 2>&1; then
  run-clang-tidy -clang-tidy-binary "${CLANG_TIDY}" -p "${BUILD_DIR}" \
    -j "${JOBS}" -quiet "${SOURCES[@]}"
else
  "${CLANG_TIDY}" -p "${BUILD_DIR}" --quiet "${SOURCES[@]}"
fi

echo "lint: all gates passed"
