#!/usr/bin/env bash
# Count non-test lines per crate: for every `crates/*/src/**/*.rs` file, the
# lines before its first column-0 `#[cfg(test)]` (the whole file when it has
# none). Shims, benches, integration tests and examples live outside
# `crates/*/src` and are not counted.
#
# Usage:
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for src in crates/*/src; do
  n=$(find "$src" -name '*.rs' -print0 | sort -z |
    xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }')
  printf '%6d  %s\n' "$n" "$src"
  total=$((total + n))
done
printf '%6d  total\n' "$total"
