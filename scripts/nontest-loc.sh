#!/usr/bin/env bash
# Non-test lines of Rust per crate: for each crates/*/src/**/*.rs, the lines
# above the file's first `#[cfg(test)]` (the whole file if it has none).
#
#   scripts/nontest-loc.sh            one total per crate, then the sum
#   scripts/nontest-loc.sh --files    every file's count as well
#
# ROADMAP item 8 accepts a simplicity PR on "net-negative non-test LoC";
# this is how that is counted, so that every such PR counts the same way.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

find crates/*/src -name '*.rs' | sort | while read -r file; do
    crate=${file#crates/}
    awk -v crate="${crate%%/*}" -v file="$file" \
        '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print crate, file, n + 0 }' "$file"
done | awk -v files="${1:-}" '
    { total[$1] += $3; all += $3; if (files == "--files") printf "%7d  %s\n", $3, $2 }
    END {
        for (c in total) printf "%7d  %s\n", total[c], c | "sort -k2"
        close("sort -k2")
        printf "%7d  total\n", all
    }'
