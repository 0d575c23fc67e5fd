#!/usr/bin/env bash
# The benchmark's one command. Builds the harness (and the engine it links)
# from source, then runs it:
#
#   benchmark/run.sh                         all four workloads, untraced
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh --smoke                 tiny sizes, same checks, < 15 s
#   benchmark/run.sh --inject-wrong          must exit nonzero
#   benchmark/run.sh --calibrate [SETS [SEED]]  repeat run-sets, write CALIBRATION.md
#   benchmark/run.sh --compare A.json B.json exit nonzero if B is worse than A
#
# Run it from the repository root or from anywhere else; it reads and writes
# only under benchmark/ and the cargo target directory.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)

case "${1:-}" in
--calibrate | --compare)
    exec python3 "$here/calibrate.py" "$@"
    ;;
esac

# relative to the caller's directory, as cargo reads it
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$here/target}
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/asterix-benchmark" --out "$here/out" "$@"
