#!/usr/bin/env bash
# Counted lines of src/, per top-level module and in total: the non-blank
# lines of every .cpp and .hpp whose first non-space characters are not
# `//`. This is the measure ROADMAP.md and CHANGES.md quote when a change
# deletes code.
#
# Usage: ci/count_lines.sh [src_dir]   (default: the src/ next to ci/)
set -euo pipefail

src="${1:-$(cd "$(dirname "$0")/.." && pwd)/src}"

count() {
  find "$@" -type f \( -name '*.cpp' -o -name '*.hpp' \) -print0 |
    xargs -0 -r cat | grep -cvE '^[[:space:]]*(//|$)' || true
}

for dir in "$src"/*/; do
  printf '%-12s %6d\n' "$(basename "$dir")" "$(count "$dir")"
done
# Files directly under src/ (pmpr.hpp) count toward the total only.
printf '%-12s %6d\n' total "$(count "$src")"
