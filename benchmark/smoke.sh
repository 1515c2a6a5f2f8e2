#!/usr/bin/env bash
# Smoke test of the benchmark: builds offline, checks that BENCHMARK.json
# is `benchmark manifest` byte for byte, runs every workload for 2 s
# untraced and traced, and validates each result line.
#
#   bash benchmark/smoke.sh        (from the repository root)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins
bin="$target/release/benchmark"

"$bin" manifest | cmp - BENCHMARK.json
echo "smoke: BENCHMARK.json matches the manifest"

check() { # <trace> <result line>: keys, correctness, every metric of the manifest
  python3 - "$1" "$2" <<'PY'
import json, sys
trace, line = sys.argv[1], sys.argv[2]
spec = json.load(open("BENCHMARK.json"))
r = json.loads(line)
assert sorted(r) == ["attempted", "correct", "failed", "metrics"], sorted(r)
assert r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1, line
want = spec["per_layer"] if trace == "1" else spec["end_to_end"]
assert sorted(r["metrics"]) == sorted(m["name"] for m in want), "metric names differ"
for m in want:
    got = r["metrics"][m["name"]]
    assert got["unit"] == m["unit"], (m["name"], got)
    assert isinstance(got["value"], (int, float)), (m["name"], got)
    if trace == "0":
        assert got["value"] > 0, (m["name"], got)
PY
}

for w in kernels corpus serve edit; do
  for trace in 0 1; do
    line="$(bash benchmark/run.sh --workload "$w" --seed 7 --seconds 2 --trace "$trace" 2>/dev/null | tail -n 1)"
    check "$trace" "$line"
    echo "smoke: $w --trace $trace ok"
  done
  test -s "benchmark/out/trace-$w.json"
done
echo "smoke: pass"
