#!/usr/bin/env bash
# Non-test line count of each library crate (every crate with a src/lib.rs):
# for each .rs file under the crate's src/, the lines before its first
# `#[cfg(test)]` (the whole file when it has none). Informational only.
# Run from anywhere: ./scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for lib in crates/*/src/lib.rs; do
  src=$(dirname "$lib")
  n=$(find "$src" -name '*.rs' -print0 | sort -z \
    | xargs -0 awk 'FNR == 1 { live = 1 } /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 } live { n++ } END { print n + 0 }' \
    | awk '{ s += $1 } END { print s + 0 }')
  printf '%-28s %6d\n' "$src" "$n"
  total=$((total + n))
done
printf '%-28s %6d\n' total "$total"
