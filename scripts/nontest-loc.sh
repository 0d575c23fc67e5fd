#!/usr/bin/env bash
# Non-test lines of Rust per crate: for each crates/*/src/**/*.rs, the lines
# above the file's first `#[cfg(test)]` module with a body (`mod tests {`;
# the whole file if it has none), less every other `#[cfg(test)]` item or
# statement above it, from its attribute to its end. A `#[cfg(test)]` on a
# module declared without a body (`mod name;`) does not end the count; the
# file it declares is test code and counts nothing.
#
#   scripts/nontest-loc.sh            one total per crate, then the sum
#   scripts/nontest-loc.sh --files    every file's count as well
#
# ROADMAP item 8 accepts a simplicity PR on "net-negative non-test LoC";
# this is how that is counted, so that every such PR counts the same way.
# scripts/nontest-loc-selftest.sh checks it against fixtures.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

mapfile -t sources < <(find crates/*/src -name '*.rs' | sort)
awk '
    # the change in bracket depth over `text`, and whether an item ends there
    function depth_of(text) { return gsub(/[{([]/, "&", text) - gsub(/[]})]/, "&", text) }
    function ends(text) { return depth <= 0 && text ~ /[;,}][[:space:]]*$/ }
    FNR == 1 { files[++nf] = FILENAME; done = held = skipping = 0 }
    done { next }
    skipping {
        depth += depth_of($0)
        if (ends($0)) skipping = 0
        next
    }
    held || /^[[:space:]]*#\[cfg\(test\)\]/ {
        line = $0
        sub(/^[[:space:]]*#\[cfg\(test\)\][[:space:]]*/, "", line)
        if (line == "" && !held) { held = 1; next }
        held = 0
        mod = "^[[:space:]]*(pub(\\([a-z]+\\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+[[:space:]]*"
        if (line ~ (mod ";")) {
            sub(/^[^;]*mod[[:space:]]+/, "", line)
            sub(/[[:space:]]*;.*/, "", line)
            dir = FILENAME
            if (dir ~ /\/(lib|main|mod)\.rs$/) sub(/\/[^\/]*$/, "", dir); else sub(/\.rs$/, "", dir)
            test_file[dir "/" line ".rs"] = test_file[dir "/" line "/mod.rs"] = 1
            next
        }
        if (line ~ (mod "\\{")) { done = 1; next }
        # any other item or statement is test code up to its end
        depth = depth_of(line)
        skipping = !ends(line)
        next
    }
    { n[FILENAME]++ }
    END {
        for (i = 1; i <= nf; i++) {
            f = files[i]
            if (f in test_file) continue
            crate = f
            sub(/^crates\//, "", crate)
            sub(/\/.*/, "", crate)
            print crate, f, n[f] + 0
        }
    }' "${sources[@]}" | awk -v files="${1:-}" '
    { total[$1] += $3; all += $3; if (files == "--files") printf "%7d  %s\n", $3, $2 }
    END {
        for (c in total) printf "%7d  %s\n", total[c], c | "sort -k2"
        close("sort -k2")
        printf "%7d  total\n", all
    }'
