#!/usr/bin/env bash
# The mutation catalogue: each *.patch here breaks the engine on purpose in a
# few lines, and its header names what it proves and the one command that
# must fail once it is applied:
#
#   Mutation: <what the patch breaks>
#   Proves: <the ROADMAP item, or the check, it keeps honest>
#   Command: <the command that must fail on the mutated tree>
#   Survives: <why>   (only for a known survivor: its command passes today)
#
#   scripts/mutations/run.sh              every patch
#   scripts/mutations/run.sh NAME...      the patches named (without .patch)
#   scripts/mutations/run.sh --check      only that every patch still applies
#
# A run copies the working tree (tracked and untracked files, not ignored
# ones) to a temporary directory, runs each command there once unmutated
# (it must pass, or a failure would prove nothing), then applies each patch,
# runs its command under a 30-minute timeout and takes the patch back out. The run fails on a mutation whose command
# passes, on a listed survivor whose command now fails (take it off the list),
# on a command that times out, and on a patch that no longer applies — a
# refactor carries its mutations forward.
set -uo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
timeout_s=1800

field() { sed -n "s/^$2: //p" "$1" | head -n 1; }

check_only=0
if [[ "${1:-}" == "--check" ]]; then
    check_only=1
    shift
fi
if (($# > 0)); then
    patches=()
    for name in "$@"; do patches+=("$here/$name.patch"); done
else
    patches=("$here"/*.patch)
fi

failed=0
for p in "${patches[@]}"; do
    if [[ ! -f "$p" ]]; then
        echo "missing: $p" >&2
        failed=1
    elif [[ -z "$(field "$p" Command)" ]]; then
        echo "no Command: line: $(basename "$p")" >&2
        failed=1
    elif ! git -C "$root" apply --check "$p"; then
        echo "does not apply: $(basename "$p")" >&2
        failed=1
    fi
done
if ((failed || check_only)); then
    ((failed)) || echo "all ${#patches[@]} patches apply"
    exit "$failed"
fi

tree=$(mktemp -d "${TMPDIR:-/tmp}/mutations.XXXXXX")
trap 'rm -rf "$tree"' EXIT
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do [[ -e "$f" ]] && printf '%s\0' "$f"; done |
    tar --null -T - -cf -) | tar -xf - -C "$tree"
git -C "$tree" init -q # so that `git apply` works from the copy's root wherever TMPDIR is
export CARGO_TARGET_DIR="$tree/target"

run() { (cd "$tree" && timeout "$timeout_s" bash -c "$1") >"$tree/.log" 2>&1; }

declare -A clean
for p in "${patches[@]}"; do
    cmd=$(field "$p" Command)
    [[ -n "${clean[$cmd]:-}" ]] && continue
    if run "$cmd"; then
        clean[$cmd]=1
    else
        echo "FAIL  unmutated tree already fails: $cmd" >&2
        tail -n 20 "$tree/.log" >&2
        exit 1
    fi
done

for p in "${patches[@]}"; do
    name=$(basename "$p" .patch)
    cmd=$(field "$p" Command)
    survives=$(field "$p" Survives)
    git -C "$tree" apply "$p" || { echo "FAIL  $name: does not apply" >&2; failed=1; continue; }
    run "$cmd"
    status=$?
    git -C "$tree" apply -R "$p"
    if ((status == 124)); then
        echo "FAIL  $name: timed out after ${timeout_s}s: $cmd"
        failed=1
    elif ((status != 0)) && [[ -z "$survives" ]]; then
        echo "kill  $name: $cmd exits $status: $(grep -m 1 -E '^(error|test .* FAILED|thread .* panicked)' "$tree/.log")"
    elif ((status != 0)); then
        echo "FAIL  $name: a listed survivor is now killed ($cmd exits $status); take its Survives: line out"
        failed=1
    elif [[ -n "$survives" ]]; then
        echo "surv  $name (listed): $survives"
    else
        echo "FAIL  $name: survives: $cmd passes with the mutation applied"
        failed=1
    fi
done
exit "$failed"
