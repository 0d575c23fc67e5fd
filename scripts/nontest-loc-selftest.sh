#!/usr/bin/env bash
# Checks scripts/nontest-loc.sh against fixtures: a copy of the script
# counts a crate of hand-counted files, and every count must be the one
# written beside it.
#
#   scripts/nontest-loc-selftest.sh
#
# The fixtures: a `#[cfg(test)]` item in the middle of a file (left out, the
# code after it counted), a `#[cfg(test)]` statement in a function body, a
# `#[cfg(test)] mod helper;` (its file counts nothing, the count goes on) and
# a `#[cfg(test)] mod tests {` (the count ends), on one line or two.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
tree=$(mktemp -d "${TMPDIR:-/tmp}/nontest-loc.XXXXXX")
trap 'rm -rf "$tree"' EXIT
mkdir -p "$tree/scripts" "$tree/crates/fixture/src"
cp "$here/nontest-loc.sh" "$tree/scripts/"
src="$tree/crates/fixture/src"

# 7 lines count: the ones marked `// 1` .. `// 7`
cat >"$src/lib.rs" <<'EOF'
pub fn a() {} // 1
#[cfg(test)]
thread_local! {
    static HOOK: std::cell::Cell<u8> = const { std::cell::Cell::new(0) };
}
pub fn b() -> u8 { // 2
    #[cfg(test)]
    if HOOK.get() > 0 {
        HOOK.set(0);
    }
    let x = (1, [2]); // 3
    x.0 // 4
} // 5
#[cfg(test)] use std::fmt;
#[cfg(test)]
mod helper;
#[cfg(test)]
pub(crate) fn only_in_tests(
    a: u8,
) -> u8 {
    a
}
pub fn c() {} // 6
pub mod other; // 7
#[cfg(test)]
mod tests {
    #[test]
    fn t() {}
}
pub fn after_the_tests() {}
EOF

# test code throughout: counts nothing
cat >"$src/helper.rs" <<'EOF'
pub fn helper() {}
EOF

# 2 lines count
cat >"$src/other.rs" <<'EOF'
pub struct S { // 1
} // 2
#[cfg(test)] mod tests {
    fn t() {}
}
EOF

got=$("$tree/scripts/nontest-loc.sh" --files)
failed=0
expect() {
    local line
    line=$(awk -v what="$2" '$2 == what { print $1 }' <<<"$got")
    if [[ "$line" != "$1" ]]; then
        echo "FAIL  $2: counted ${line:-nothing}, want $1" >&2
        failed=1
    fi
}
expect 7 crates/fixture/src/lib.rs
expect 2 crates/fixture/src/other.rs
expect "" crates/fixture/src/helper.rs
expect 9 fixture
expect 9 total
if ((failed)); then
    echo "$got" >&2
    exit 1
fi
echo "nontest-loc.sh counts every fixture as written"
