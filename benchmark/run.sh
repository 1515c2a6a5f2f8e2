#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json): builds the benchmark package
# offline, then runs one workload.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of a checkout. The end-to-end binary and the traced
# binary are separate targets: if the traced one no longer builds (a pass
# changed shape under it), `--trace 0` still runs.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"
target="${CARGO_TARGET_DIR:-$here/target}"

build() { cargo build --release --offline --quiet --manifest-path "$manifest" "$@" >&2; }
build --bins || build --bin benchmark

exec "$target/release/benchmark" "$@"
