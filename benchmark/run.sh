#!/usr/bin/env bash
# The command BENCHMARK.json names: builds the benchmark from source (into
# CARGO_TARGET_DIR when set, else benchmark/target) and runs it with the
# arguments given.
#
# There are two builds. End-to-end metrics are measured by the plain one,
# where the simulator's metrics are compiled out; per-layer metrics (`--trace
# 1` and the `trace` subcommand) by the `traced` one, which is also handed
# the plain one to measure its own overhead against. Both are brought up to
# date on every call, in directories of their own, so whichever call comes
# first in a checkout pays for both and no later one builds.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
build() {
    cargo build --quiet --release --offline --manifest-path "$here/Cargo.toml" "$@"
}
build --target-dir "$target"
build --target-dir "$target/traced" --features traced

traced=0
previous=""
for arg in "$@"; do
    if [[ "$previous" == "--trace" && "$arg" == "1" ]] || [[ -z "$previous" && "$arg" == "trace" ]]; then
        traced=1
    fi
    previous="$arg"
done
if [[ "$traced" == 1 ]]; then
    exec "$target/traced/release/rtr-benchmark" "$@" --untraced-exe "$target/release/rtr-benchmark"
fi
exec "$target/release/rtr-benchmark" "$@"
