#!/usr/bin/env bash
# Tier-1 verification gate. Everything runs --offline: the repo has zero
# external dependencies (randomness, property testing and benchmarking all
# come from the in-tree picachu-testkit crate), so a clean checkout must
# build and test without network access.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, offline) =="
cargo build --release --offline

echo "== clippy (all targets, warnings are errors) =="
# picachu-{compiler,core,runtime,faults} additionally deny
# clippy::unwrap_used / clippy::expect_used in-source (crate attributes in
# each lib.rs), so a new unwrap on the compile/serve path fails this stage.
cargo clippy --all-targets --offline -- -D warnings

echo "== test (workspace, offline) =="
cargo test -q --offline

echo "== backend parity (Accelerator contract across all six devices) =="
cargo test -q -p picachu --test backends --offline

echo "== differential oracle (smoke grid) =="
PICACHU_ORACLE_SMOKE=1 cargo test -q -p picachu-oracle --test differential --offline

echo "== fault oracle (smoke sweep: dead PEs/links + seeded plans) =="
PICACHU_FAULT_SMOKE=1 cargo test -q -p picachu-oracle --test faults --offline

echo "== test (workspace, offline, PICACHU_THREADS=4) =="
PICACHU_THREADS=4 cargo test -q --offline

echo "== serve smoke (short seeded trace: invariants + JSON emission) =="
cargo run --release -q -p picachu-bench --bin serve_bench --offline -- --smoke

echo "== soak smoke (chaos: crash/retry/preempt/shed invariants, thread-invariant artifact) =="
# The chaos soak's --smoke mode replays a short trace under the full chaos
# schedule (in-binary: audit + replay bit-exactness + event floor). On top
# of that the gate checks the artifact schema, the availability floor, and
# that the artifact is byte-identical at 1 and 4 compile threads. Runs from
# a scratch directory so the committed full-run artifact stays untouched.
REPO_ROOT=$(pwd)
SOAK_SCRATCH=$(mktemp -d)
(cd "$SOAK_SCRATCH" && PICACHU_THREADS=1 "$REPO_ROOT/target/release/serve_soak" --smoke)
mv "$SOAK_SCRATCH/results/BENCH_soak.json" "$SOAK_SCRATCH/soak.t1.json"
(cd "$SOAK_SCRATCH" && PICACHU_THREADS=4 "$REPO_ROOT/target/release/serve_soak" --smoke)
cmp "$SOAK_SCRATCH/results/BENCH_soak.json" "$SOAK_SCRATCH/soak.t1.json" \
  || { echo "soak smoke: FAILED (artifact differs between 1 and 4 threads)"; exit 1; }
python3 - "$SOAK_SCRATCH/results/BENCH_soak.json" <<'EOF'
import json, sys
required = {"mode", "seed", "shards", "requests", "events", "horizon_ns",
            "chaos_crashes", "chaos_degradations", "chaos_compile_outages",
            "completed", "rejected", "shed", "abandoned", "retries",
            "preemptions", "killed_batches", "wasted_ns", "availability",
            "shed_rate", "retry_amplification", "p50_latency_ns",
            "p99_latency_ns", "p99_ttft_ns", "slo_attainment",
            "throughput_tokens_per_s", "audit_ok"}
rows = [json.loads(l) for l in open(sys.argv[1]) if l.strip().startswith("{")]
if len(rows) != 1:
    sys.exit(f"soak smoke: expected 1 artifact row, got {len(rows)}")
r = rows[0]
missing = required - r.keys()
if missing:
    sys.exit(f"soak smoke: row missing keys {sorted(missing)}")
if not r["audit_ok"]:
    sys.exit("soak smoke: scheduler audit violated under chaos")
if r["availability"] < 0.6:
    sys.exit(f"soak smoke: availability {r['availability']:.3f} below the 0.6 floor")
print(f"soak smoke: OK ({r['events']} events, availability {r['availability']:.3f}, "
      f"{r['preemptions']} preemptions, {r['shed']} shed, thread-count invariant)")
EOF
rm -rf "$SOAK_SCRATCH"

echo "== bench smoke (one call per benchmark, offline) =="
cargo bench -p picachu-bench --offline -- --smoke

echo "== parallel-compile microbench (serial vs parallel @4 threads, median/p95) =="
mkdir -p results
PICACHU_THREADS=4 cargo bench -p picachu-bench --bench compile --offline \
  | tee results/BENCH_compile.json

echo "== compile speedup gate (cold parallel vs cold serial) =="
# The flat grouped compile pass must make cold compiles measurably faster
# than the serial path when real parallelism exists. Thresholds scale with
# the machine: skipped on 1 core (the pool cannot help), >=1.2x on 2-3
# cores, >=2.0x on 4+ (the ISSUE acceptance bar).
python3 - <<'EOF'
import json, os, sys
cores = os.cpu_count() or 1
rows = {}
with open("results/BENCH_compile.json") as f:
    for line in f:
        line = line.strip()
        if not line.startswith("{"):
            continue
        r = json.loads(line)
        if "bench" in r and "median_ns" in r:
            rows[r["bench"]] = r["median_ns"]
serial = rows.get("kernel_library_cold_serial")
parallel = rows.get("kernel_library_cold_parallel")
if not serial or not parallel:
    sys.exit("speedup gate: cold serial/parallel rows missing from BENCH_compile.json")
speedup = serial / parallel
print(f"cold compile speedup: {speedup:.2f}x on {cores} cores")
if cores < 2:
    print("speedup gate: SKIPPED (single-core machine, the pool cannot help)")
elif cores < 4 and speedup < 1.2:
    sys.exit(f"speedup gate: FAILED ({speedup:.2f}x < 1.2x on {cores} cores)")
elif cores >= 4 and speedup < 2.0:
    sys.exit(f"speedup gate: FAILED ({speedup:.2f}x < 2.0x on {cores} cores)")
else:
    print("speedup gate: OK")
EOF

echo "== mapstore round-trip smoke (cold compile -> store -> warm, bit-identical) =="
cargo test -q -p picachu --test mapstore_store_roundtrip --offline

echo "== bitstream round-trip smoke (16x16 export -> fresh cache -> zero mapper calls) =="
cargo test -q -p picachu --test bitstream_roundtrip --offline

echo "== pnr smoke (staged P&R: paper-scale bit-identity + 16x16 payoff, thread-invariant) =="
# pnr_scaling --smoke maps softmax on 4x4 (greedy fast path) and 16x16
# (annealed Place->Route->Fold). The gate checks the artifact schema, that
# Auto==Greedy stays bit-identical at paper scale, that the annealed engine
# demonstrates a payoff at 16x16, and that the artifact is byte-identical at
# 1 and 4 compile threads. Scratch directory keeps the committed full-run
# artifact untouched.
PNR_SCRATCH=$(mktemp -d)
(cd "$PNR_SCRATCH" && PICACHU_THREADS=1 "$REPO_ROOT/target/release/pnr_scaling" --smoke)
mv "$PNR_SCRATCH/results/BENCH_pnr.json" "$PNR_SCRATCH/pnr.t1.json"
(cd "$PNR_SCRATCH" && PICACHU_THREADS=4 "$REPO_ROOT/target/release/pnr_scaling" --smoke)
cmp "$PNR_SCRATCH/results/BENCH_pnr.json" "$PNR_SCRATCH/pnr.t1.json" \
  || { echo "pnr smoke: FAILED (artifact differs between 1 and 4 threads)"; exit 1; }
python3 - "$PNR_SCRATCH/results/BENCH_pnr.json" <<'EOF'
import json, sys
case_keys = {"kind", "loop", "uf", "rows", "cols", "tiles", "mode", "ok", "ii",
             "area", "chan_util", "folded_hops", "congestion_free"}
rows = [json.loads(l) for l in open(sys.argv[1]) if l.strip().startswith("{")]
cases = [r for r in rows if r.get("kind") == "case"]
idents = [r for r in rows if r.get("kind") == "identity"]
summaries = [r for r in rows if r.get("kind") == "summary"]
if not cases:
    sys.exit("pnr smoke: no case rows")
for r in cases:
    missing = case_keys - r.keys()
    if missing:
        sys.exit(f"pnr smoke: case row missing keys {sorted(missing)}")
if not idents:
    sys.exit("pnr smoke: no paper-scale identity rows")
for r in idents:
    if not r["bit_identical"]:
        sys.exit(f"pnr smoke: Auto != Greedy at {r['rows']}x{r['cols']} (paper-scale regression)")
if len(summaries) != 1:
    sys.exit(f"pnr smoke: expected 1 summary row, got {len(summaries)}")
s = summaries[0]
if s["payoff_kind"] == "none":
    sys.exit("pnr smoke: annealed engine shows no payoff at the largest fabric")
print(f"pnr smoke: OK ({len(cases)} cases, identity at paper scale, "
      f"payoff {s['payoff_kind']} on {s['payoff_kernel']}, thread-count invariant)")
EOF
rm -rf "$PNR_SCRATCH"

echo "== artifact freshness (mapper- and scheduler-fed artifacts regenerate byte-identically) =="
# BENCH_pnr.json (full run), fig7a.json and fig7b.json record mappings of
# both placement engines at every fabric size, so any change that moves a
# mapping moves one of them. BENCH_soak.json (the full chaos soak) and
# BENCH_serve.json (the load sweep) record what the serving scheduler did,
# so any change that moves an event, batch or placement moves one of them.
# Regenerate all five in a scratch directory and compare each with the
# committed copy.
FRESH_SCRATCH=$(mktemp -d)
for bin in pnr_scaling fig7a_kernel_speedup fig7b_scalability serve_soak serve_bench; do
  (cd "$FRESH_SCRATCH" && "$REPO_ROOT/target/release/$bin" > /dev/null)
done
for artifact in BENCH_pnr fig7a fig7b BENCH_soak BENCH_serve; do
  cmp "$FRESH_SCRATCH/results/$artifact.json" "results/$artifact.json" \
    || { echo "freshness: FAILED (results/$artifact.json differs from a fresh run)"; exit 1; }
done
rm -rf "$FRESH_SCRATCH"
echo "freshness: OK (BENCH_pnr.json, fig7a.json, fig7b.json, BENCH_soak.json, BENCH_serve.json byte-identical)"

echo "== dse smoke (seeded mini-search: artifact schema + thread-count invariance) =="
# The co-design search must emit a non-empty, schema-valid results/pareto.json
# and the artifact must be bit-identical at 1 and 4 worker threads (the search
# parallelizes candidate evaluation but is seeded and submission-ordered).
PICACHU_THREADS=1 cargo run --release -q -p picachu-bench --bin dse_pareto --offline -- --smoke
cp results/pareto.json results/pareto.t1.json
PICACHU_THREADS=4 cargo run --release -q -p picachu-bench --bin dse_pareto --offline -- --smoke
cmp results/pareto.json results/pareto.t1.json \
  || { echo "dse smoke: FAILED (pareto.json differs between 1 and 4 threads)"; exit 1; }
rm -f results/pareto.t1.json
python3 - <<'EOF'
import json, sys
required = {"model", "cgra_rows", "cgra_cols", "fabric", "buffer_kb", "format",
            "lean_unroll", "incremental_repair", "latency", "energy_nj",
            "area_mm2", "resilience", "utilization"}
rows = 0
with open("results/pareto.json") as f:
    for line in f:
        line = line.strip()
        if not line.startswith("{"):
            continue
        r = json.loads(line)
        missing = required - r.keys()
        if missing:
            sys.exit(f"dse smoke: row missing keys {sorted(missing)}")
        rows += 1
if rows == 0:
    sys.exit("dse smoke: results/pareto.json has no frontier rows")
print(f"dse smoke: OK ({rows} frontier rows, thread-count invariant)")
EOF

echo "verify: OK"
