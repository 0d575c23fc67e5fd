#!/usr/bin/env bash
# Checks the checker, as `benchmark/run.sh --inject-wrong` checks the oracle:
# one field of each fresh report is doctored, and scripts/bench-check.py must
# exit nonzero naming it when the doctored report is checked against the
# report it was made from (same size, same host: every kind is compared).
#
#   scripts/bench-check-selftest.sh HOTPATH.json SERVING.json FEEDS.json
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# doctored REPORT JQ-EDIT PATH-THE-CHECKER-MUST-NAME
doctored() {
    jq "$2" "$1" >"$tmp/doctored.json"
    if out=$("$here/bench-check.py" "$tmp/doctored.json" "$1"); then
        echo "bench-check.py accepted $1 after '$2'" >&2
        exit 1
    fi
    if ! grep -qF "$3: " <<<"$out"; then
        echo "bench-check.py rejected $1 after '$2' without naming $3:" >&2
        echo "$out" >&2
        exit 1
    fi
    echo "caught: $2"
}

# a count off by one
doctored "$1" '.compaction.foreground.merges += 1' 'compaction.foreground.merges'
# a pool that merged otherwise than the caller
doctored "$1" '.compaction.background.merges += 1' 'compaction.background.merges'
# a throughput a tenth of what it was
doctored "$2" '.points[0].qps /= 10' 'points[0].qps'
# a lossless policy that lost a record
doctored "$3" '.policies[2].ingested -= 1' 'policies[2].ingested'
