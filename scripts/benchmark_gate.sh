#!/usr/bin/env bash
# CI gate on the benchmark's layer ledger (ROADMAP item 1): the smoke test,
# then 5 s traced `serve`, `kernels` and `edit` runs, then **ratios** read
# from the traces. A ratio of two layers measured in one run on one pinned
# CPU holds on a shared runner where absolute microseconds do not. A 5 s run's ratios
# still wander by a few percent on a busy host, so the gate passes when any
# of three attempts meets every limit, and prints them all.
#
#   bash scripts/benchmark_gate.sh        (from the repository root)
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

bash benchmark/smoke.sh

for attempt in 1 2 3; do
  for workload in serve kernels edit; do
    bash benchmark/run.sh --workload "$workload" --seed "$attempt" --seconds 5 --trace 1 >/dev/null
  done
  if python3 - "$attempt" <<'PY'
import json, sys

def metrics(workload):
    return json.load(open(f"benchmark/out/trace-{workload}.json"))["metrics"]

serve, kernels, edit = metrics("serve"), metrics("kernels"), metrics("edit")
gates = [
    # What a served cold compile costs over the compile it wraps, before
    # any cache or socket: the module split and its chunk fingerprints,
    # the render, the sim. (2.2-2.7 before the structural fingerprints,
    # 1.3-1.55 after; 1.4-1.5 on a 30 s run since the compile it is divided
    # by lost a third, then another sixth of set-up, and the wrapper did
    # not; 1.56 since it lost a fifth more to the parser and subset
    # elimination, 1.6-1.7 since placement's tables took another sixth;
    # 1.45 since the cold path stopped fingerprinting its AST and IR, which
    # only the query engine's dropped pass memos read.)
    ("serve: cold_payload_us / compile_us",
     serve["serve.cold_payload_us"] / serve["core.compile_us"], 1.9),
    # What an installed gcomm-obs registry costs a compile. (serve 1.22,
    # kernels 2.4-2.5 before the allocation-free ticks; 1.08, 1.57 after;
    # kernels 1.05 since the redundancy sweep stopped ticking per rescanned
    # pair, 1.07 once the `dep.query` timer wrapped a query a fifth as
    # long.)
    ("serve: obs.on_over_off_ratio", serve["obs.on_over_off_ratio"], 1.15),
    ("kernels: obs.on_over_off_ratio", kernels["obs.on_over_off_ratio"], 1.15),
    # Redundancy elimination's share of a kernel compile: 0.28 while the
    # dense fixpoint rescanned every pair after every absorption, 0.02 as
    # one sparse sweep. A dense rescan cannot come back unnoticed.
    ("kernels: redundancy_us / compile_us",
     kernels["core.redundancy_us"] / kernels["core.compile_us"], 0.10),
    # Lowering a schedule to a simulator program over building dominators
    # and SSA (serve's compile ladder is the 400 corpus programs): 1.85-1.9
    # while `lower_to_sim` rebuilt the analysis it is divided by, about 1.0
    # now that it needs only the section cache. A second SSA build per op
    # cannot come back unnoticed. (0.6 → 0.9 when the analysis it is
    # divided by lost its hashed tables; a rebuild would now read 1.9.)
    ("serve: lower_to_sim_us / analysis_us",
     serve["core.lower_to_sim_us"] / serve["core.analysis_us"], 1.4),
    # Per-compile set-up — lowering, dominators, SSA — as a share of the
    # compile, same ladder: 0.26 while `lower` deep-copied every right-hand
    # side and condition, cloned a `String` per name and probed two SipHash
    # maps, and the SSA builder kept three more; 0.18 with shared
    # `Arc<Expr>`s, interned names and dense tables. Re-based twice with
    # the numerator unmoved, each time the compile it is divided by lost
    # time elsewhere: the parser and subset elimination (30 s readings:
    # 0.179 → 0.211), then placement's tables (4.93 + 4.60 of 44.85 us =
    # 0.212 → 4.85 + 4.62 of 37.19 us = 0.255). The 7.3 us a deep `rhs`
    # copy and hashed SSA tables cost would now read 0.38, and the limit
    # sits midway. Neither can come back unnoticed.
    ("serve: (lower_us + analysis_us) / compile_us",
     (serve["ir.lower_us"] + serve["core.analysis_us"]) / serve["core.compile_us"], 0.31),
    # The front end — lexing, parsing, `validate` — as a share of the
    # compile, same ladder: 0.277 (13.5 of 48.6 us) while every identifier
    # occurrence was string-compared against a B-tree node's keys and the
    # declarations, every atom returned through six expression productions
    # and every token carried a `Cow`; 0.224 (8.7 of 38.6 us) after. Re-based
    # when placement's tables took 7.7 us out of the compile, the numerator
    # unmoved (30 s readings of both commits: 9.93 of 44.85 us = 0.221 →
    # 9.98 of 37.19 us = 0.268): the old front end (a parse 1.5x as long)
    # over the new compile would read 0.35, and the limit sits midway. A
    # tree probe per identifier or a six-deep expression chain cannot come
    # back unnoticed.
    ("serve: parse_us / compile_us",
     serve["lang.parse_us"] / serve["core.compile_us"], 0.31),
    # Placement's candidate phase — `Latest`, `Earliest` and the windows —
    # as a share of the compile, same ladder: 0.225 (10.08 of 44.85 us)
    # while every ask re-ran a direction analysis that rebuilt its windows
    # through `Affine::new` and the windows were `BTreeSet`s; 0.117 (4.35
    # of 37.19 us) with one analysis per (definition, use) pair and dense
    # rows (30 s readings of both commits; the limit sits midway). A
    # per-ask re-analysis, or B-tree / SipHash tables on the path, cannot
    # come back unnoticed.
    ("serve: candidates_us / compile_us",
     serve["core.candidates_us"] / serve["core.compile_us"], 0.17),
    # Two stops of a served one-routine edit that no routine's compile
    # needs, over the in-process edit: chunking the 64-routine module
    # (0.25 while every line was `trim_start`ed and every chunk walked
    # again for its name, 0.13 as one byte scan) and parsing its 13 KB JSON
    # request (0.46 while each ~22-byte run between two `\n` escapes was
    # re-validated and pushed into a string grown from zero, 0.18 since).
    # Re-based when the in-process edit they are divided by lost a fifth
    # to the engine's bookkeeping for untouched routines, the numerators
    # about unmoved (30 s readings of both commits: split 0.122-0.138 →
    # 0.163-0.174, JSON 0.15-0.18 → 0.22-0.24): the old splitter and
    # string scanner over the new denominator would read ~0.33 and ~0.56,
    # and each limit sits midway again.
    ("edit: incr_split_us / edit_inproc_us",
     edit["core.incr_split_us"] / edit["serve.edit_inproc_us"], 0.25),
    ("edit: json_parse_us / edit_inproc_us",
     edit["serve.json_parse_us"] / edit["serve.edit_inproc_us"], 0.39),
    # An incremental one-routine edit of a 64-routine module over one
    # routine's compile: 4.10-4.15 (35.2-38.1 of 8.6-9.2 us) while every
    # untouched routine's hit re-keyed a B-tree recency index, hashed with
    # SipHash and cloned and downcast `Arc`s, 2.89-3.01 (25.5-29.5 of
    # 8.7-9.8 us) with an intrusive recency list, the seeded fold and a
    # borrowed presentation (30 s readings of both commits; the limit sits
    # midway). B-tree or SipHash bookkeeping back on the per-routine path
    # cannot come back unnoticed.
    ("edit: incr_module_edit_us / compile_us",
     edit["core.incr_module_edit_us"] / edit["core.compile_us"], 3.55),
]
ok = True
for name, got, limit in gates:
    ok &= got <= limit
    print(f"attempt {sys.argv[1]}: {'ok  ' if got <= limit else 'OVER'} {name} = {got:.3f} (limit {limit})")
raise SystemExit(0 if ok else 1)
PY
  then
    exit 0
  fi
done
echo "benchmark gate: three attempts over a limit" >&2
exit 1
