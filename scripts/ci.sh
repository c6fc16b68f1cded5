#!/usr/bin/env bash
# Hermetic CI gate for the RSE workspace.
#
# Everything here must pass with zero network access: the workspace has
# no external crate dependencies (see DESIGN.md, "Hermetic dependency
# policy"), so --offline is load-bearing, not an optimisation.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Scratch space for every replayed artifact; removed on any exit.
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "== cargo fmt --check"
cargo fmt --check

echo "== one machine builder: no hand-wired Pipeline::new"
# Every simulation is built by rse_sys::Machine::build (DESIGN.md,
# "Building a machine"). Only the pipeline itself, the engine's and the
# modules' isolation tests, the builder, and the two pipeline-only runs
# on NullCoProcessor may construct a Pipeline directly.
if grep -rn --include='*.rs' 'Pipeline::new(' crates tests examples \
    | grep -Ev '^(crates/(pipeline|core|modules)/|crates/sys/src/machine\.rs:|tests/common/mod\.rs:|crates/workloads/src/instrument\.rs:)'; then
  echo "FAIL: build the machines above with rse_sys::Machine::build"; exit 1
fi

echo "== cargo clippy --workspace --offline -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc --workspace --no-deps --offline (warnings as errors)"
# A broken or ambiguous intra-doc link (e.g. to an item a change
# deleted) fails the build here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo build --release --offline"
cargo build --release --offline

echo "== cargo test -q --offline (workspace)"
cargo test -q --offline --workspace

echo "== examples (each asserts its own outcome)"
# `cargo test` only builds the examples; running them is what checks
# the outcome each one asserts.
for example in quickstart attack_demo ddt_server_recovery heartbeat_monitor mlr_randomize; do
  cargo run --release --offline -q --example "$example" >/dev/null \
    || { echo "FAIL: example $example exited non-zero"; exit 1; }
done
echo "examples: all five ran to their asserted outcome"

echo "== fault-injection smoke campaign (64 runs, fixed seed)"
# The campaign is a pure function of the seed: two invocations must be
# byte-identical, and both must match the pinned golden histogram. A
# diff here means an intentional behavior change — regenerate with:
#   cargo run --release --offline -p rse-bench --bin campaign -- \
#     --smoke --no-table --out tests/golden/campaign_smoke.jsonl
cargo run --release --offline -q -p rse-bench --bin campaign -- \
  --smoke --no-table --out "$TMP/smoke_a" 2>/dev/null
cargo run --release --offline -q -p rse-bench --bin campaign -- \
  --smoke --no-table --out "$TMP/smoke_b" 2>/dev/null
cmp "$TMP/smoke_a" "$TMP/smoke_b" \
  || { echo "FAIL: smoke campaign is nondeterministic"; exit 1; }
diff -u tests/golden/campaign_smoke.jsonl "$TMP/smoke_a" \
  || { echo "FAIL: smoke campaign diverges from pinned golden"; exit 1; }
echo "smoke campaign: deterministic and matches golden (64 runs)"

echo "== fault-injection control campaign (zero faults => 100% masked)"
cargo run --release --offline -q -p rse-bench --bin campaign -- \
  --control --runs 2 --no-table >/dev/null

echo "== quarantine campaign (module-targeted faults, fixed seed)"
# Same double-replay + pinned-golden discipline as the smoke campaign.
# Regenerate with:
#   cargo run --release --offline -p rse-bench --bin campaign -- \
#     --quarantine --runs 4 --no-table --out tests/golden/campaign_quarantine.jsonl
cargo run --release --offline -q -p rse-bench --bin campaign -- \
  --quarantine --runs 4 --no-table --out "$TMP/quar_a" 2>/dev/null
cargo run --release --offline -q -p rse-bench --bin campaign -- \
  --quarantine --runs 4 --no-table --out "$TMP/quar_b" 2>/dev/null
cmp "$TMP/quar_a" "$TMP/quar_b" \
  || { echo "FAIL: quarantine campaign is nondeterministic"; exit 1; }
diff -u tests/golden/campaign_quarantine.jsonl "$TMP/quar_a" \
  || { echo "FAIL: quarantine campaign diverges from pinned golden"; exit 1; }
echo "quarantine campaign: deterministic and matches golden (28 runs)"

echo "== adversarial attack smoke campaign (100 runs, fixed seed)"
# Same double-replay + pinned-golden discipline as the fault campaigns,
# and sharding may not change a byte. Regenerate with:
#   cargo run --release --offline -p rse-bench --bin attack_campaign -- \
#     --smoke --no-table --out tests/golden/attack_smoke.jsonl
cargo run --release --offline -q -p rse-bench --bin attack_campaign -- \
  --smoke --no-table --out "$TMP/atk_a" 2>/dev/null
cargo run --release --offline -q -p rse-bench --bin attack_campaign -- \
  --smoke --no-table --out "$TMP/atk_b" 2>/dev/null
cmp "$TMP/atk_a" "$TMP/atk_b" \
  || { echo "FAIL: attack campaign is nondeterministic"; exit 1; }
diff -u tests/golden/attack_smoke.jsonl "$TMP/atk_a" \
  || { echo "FAIL: attack campaign diverges from pinned golden"; exit 1; }
cargo run --release --offline -q -p rse-bench --bin attack_campaign -- \
  --smoke --no-table --threads 4 --out "$TMP/atk_s" 2>/dev/null
diff -u tests/golden/attack_smoke.jsonl "$TMP/atk_s" \
  || { echo "FAIL: 4-thread attack campaign diverges from pinned golden"; exit 1; }
echo "attack campaign: deterministic (plain/sharded) and matches golden (100 runs)"

echo "== adaptive attack campaign (66 runs: chains, recovery strikes, DSM)"
# The adaptive spec (multi-stage chains + the instruction-stream models
# against the DSM twins) gets the same double-replay + pinned-golden
# discipline, and sharding may not change a byte.
# Regenerate with:
#   cargo run --release --offline -p rse-bench --bin attack_campaign -- \
#     --adaptive --no-table --out tests/golden/attack_adaptive.jsonl
cargo run --release --offline -q -p rse-bench --bin attack_campaign -- \
  --adaptive --no-table --out "$TMP/adp_a" 2>/dev/null
cargo run --release --offline -q -p rse-bench --bin attack_campaign -- \
  --adaptive --no-table --out "$TMP/adp_b" 2>/dev/null
cmp "$TMP/adp_a" "$TMP/adp_b" \
  || { echo "FAIL: adaptive campaign is nondeterministic"; exit 1; }
diff -u tests/golden/attack_adaptive.jsonl "$TMP/adp_a" \
  || { echo "FAIL: adaptive campaign diverges from pinned golden"; exit 1; }
cargo run --release --offline -q -p rse-bench --bin attack_campaign -- \
  --adaptive --no-table --threads 4 --out "$TMP/adp_s" 2>/dev/null
diff -u tests/golden/attack_adaptive.jsonl "$TMP/adp_s" \
  || { echo "FAIL: 4-thread adaptive campaign diverges from pinned golden"; exit 1; }
# The tentpole claim, gated directly on the artifact: the DSM-guarded
# twin never loses an inst-skip run (the ICM-only blind spot), and no
# defended adaptive run ends in a silent compromise.
if grep '"victim":"seq_guard"' "$TMP/adp_a" | grep '"model":"inst-skip"' \
    | grep -qv '"outcome":"detected:DSM"'; then
  echo "FAIL: a seq_guard inst-skip run was not detected by the DSM"; exit 1
fi
if grep '"defended":true' "$TMP/adp_a" | grep -q '"outcome":"compromised"'; then
  echo "FAIL: a defended adaptive run was silently compromised"; exit 1
fi
grep -q '"recovery":"recovered:retry' "$TMP/adp_a" \
  || { echo "FAIL: no adaptive run exercised the bounded retry path"; exit 1; }
grep -q '"recovery":"failed-safe-halt"' "$TMP/adp_a" \
  || { echo "FAIL: no adaptive run escalated past the retry budget"; exit 1; }
echo "adaptive campaign: deterministic (plain/sharded), DSM closes inst-skip (66 runs)"

echo "== attack control campaign (zero attacks => 100% prevented)"
# The attack_campaign binary itself exits non-zero unless every control
# record is prevented/not-needed/attack=none — including the DSM twins,
# whose sequence monitor must stay silent on a fault-free run.
cargo run --release --offline -q -p rse-bench --bin attack_campaign -- \
  --control --runs 2 --no-table >/dev/null

echo "== randomization entropy study (4-victim corpus, success vs rerand period)"
# Regenerates the committed BENCH_attack.json (one JSON line per victim
# kind) and gates the paper's §4.1 claim two ways: the binary exits
# non-zero unless the success count falls strictly at every period step
# of every victim's sweep, and an independent awk pass re-checks the
# committed artifact for the per-victim monotone decrease.
# Regenerate with:
#   cargo run --release --offline -p rse-bench --bin attack_campaign -- \
#     --entropy --out BENCH_attack.json
cargo run --release --offline -q -p rse-bench --bin attack_campaign -- \
  --entropy --out "$TMP/ent_a" 2>/dev/null \
  || { echo "FAIL: entropy study failed its strict-decrease gate"; exit 1; }
diff -u BENCH_attack.json "$TMP/ent_a" \
  || { echo "FAIL: entropy study diverges from committed BENCH_attack.json"; exit 1; }
# Each line is one victim's sweep; the strict decrease must hold within
# every line independently (the count resets to the static baseline at
# the start of the next victim).
awk '{
    n = 0; line = $0
    while (match(line, /"successes":[0-9]+/)) {
      v = substr(line, RSTART + 12, RLENGTH - 12) + 0
      if (n > 0 && v >= prev) bad = 1
      prev = v; n++
      line = substr(line, RSTART + RLENGTH)
    }
    if (n < 2) short = 1
  } END {
    if (NR < 4) { print "FAIL: entropy study is missing victim kinds"; exit 1 }
    if (short) { print "FAIL: an entropy sweep has too few points"; exit 1 }
    if (bad) { print "FAIL: attack success not strictly decreasing for every victim"; exit 1 }
  }' BENCH_attack.json || exit 1
echo "entropy study: randomization strictly cuts attack success on all 4 victims; artifact matches"

echo "== fleet soak smoke campaign (52 runs, 5 nodes, fixed seed)"
# The fleet history is a pure function of (config, seed, fault): two
# invocations must be byte-identical and match the pinned golden. Every
# soak also replays the zero-fault guest on the golden interpreter and
# panics unless it reaches the fleet profile's digest.
# Regenerate with:
#   cargo run --release --offline -p rse-bench --bin fleet_soak -- \
#     --smoke --no-table --out tests/golden/fleet_soak_smoke.jsonl
cargo run --release --offline -q -p rse-bench --bin fleet_soak -- \
  --smoke --no-table --out "$TMP/fleet_a" 2>/dev/null
cargo run --release --offline -q -p rse-bench --bin fleet_soak -- \
  --smoke --no-table --out "$TMP/fleet_b" 2>/dev/null
cmp "$TMP/fleet_a" "$TMP/fleet_b" \
  || { echo "FAIL: fleet soak is nondeterministic"; exit 1; }
diff -u tests/golden/fleet_soak_smoke.jsonl "$TMP/fleet_a" \
  || { echo "FAIL: fleet soak diverges from pinned golden"; exit 1; }
if grep -q '"outcome":"split-brain"' "$TMP/fleet_a"; then
  echo "FAIL: fleet soak observed split-brain"; exit 1
fi
if grep -q '"outcome":"false-suspicion"' "$TMP/fleet_a"; then
  echo "FAIL: fleet soak observed false suspicion"; exit 1
fi
echo "fleet soak: deterministic, matches golden, no split-brain/false-suspicion (52 runs)"

echo "== fleet control soak (zero faults => 0 failovers, 0 false suspicions)"
# The fleet_soak binary itself exits non-zero unless every control run
# is masked with zero failovers and zero false suspicions.
cargo run --release --offline -q -p rse-bench --bin fleet_soak -- \
  --control --runs 2 --no-table >/dev/null

echo "== sharded smoke campaign (must be byte-identical to golden)"
# Run-level sharding (--threads) may not change a single output byte:
# the sharded merge is ordered by run index, so it must match the same
# pinned golden as the sequential smoke campaign above.
cargo run --release --offline -q -p rse-bench --bin campaign -- \
  --smoke --no-table --threads 4 --out "$TMP/shard_a" 2>/dev/null
diff -u tests/golden/campaign_smoke.jsonl "$TMP/shard_a" \
  || { echo "FAIL: 4-thread smoke campaign diverges from pinned golden"; exit 1; }
echo "sharded smoke campaign: byte-identical to pinned golden"

echo "== lockstep fleet soak (equivalence shim, same golden)"
# The event-driven scheduler is the default engine; --lockstep replays
# the same smoke spec on the legacy per-cycle engine. Both must match
# the SAME pinned golden byte-for-byte — the discrete-event refactor's
# standing equivalence proof.
cargo run --release --offline -q -p rse-bench --bin fleet_soak -- \
  --smoke --no-table --lockstep --out "$TMP/fleet_l" 2>/dev/null
diff -u tests/golden/fleet_soak_smoke.jsonl "$TMP/fleet_l" \
  || { echo "FAIL: lockstep engine diverges from the event-driven golden"; exit 1; }
echo "lockstep fleet soak: byte-identical to the event-driven golden"

echo "== 1k-node churn smoke campaign (chaos engine, fixed seed)"
# Three 1,000-node runs: the availability control, a correlated rack
# partition, and full weather (rolling restarts + rack cut + cascading
# failure). Double-replayed and diffed against the pinned golden under
# a wall-clock budget; any split-brain completion fails the gate, and
# the weather runs must actually fail over.
# Regenerate the golden with:
#   cargo run --release --offline -p rse-bench --bin fleet_soak -- \
#     --churn --no-table --out tests/golden/churn_smoke.jsonl
timeout 300 cargo run --release --offline -q -p rse-bench --bin fleet_soak -- \
  --churn --no-table --out "$TMP/churn_a" 2>/dev/null \
  || { echo "FAIL: churn smoke failed or blew the 300s wall-clock budget"; exit 1; }
timeout 300 cargo run --release --offline -q -p rse-bench --bin fleet_soak -- \
  --churn --no-table --out "$TMP/churn_b" 2>/dev/null \
  || { echo "FAIL: churn replay failed or blew the 300s wall-clock budget"; exit 1; }
cmp "$TMP/churn_a" "$TMP/churn_b" \
  || { echo "FAIL: churn campaign is nondeterministic"; exit 1; }
diff -u tests/golden/churn_smoke.jsonl "$TMP/churn_a" \
  || { echo "FAIL: churn campaign diverges from pinned golden"; exit 1; }
if grep -Eq '"split_brain":[1-9]' "$TMP/churn_a"; then
  echo "FAIL: churn campaign observed a split-brain completion"; exit 1
fi
grep -q '"model":"full-weather"' "$TMP/churn_a" \
  || { echo "FAIL: churn smoke is missing the full-weather run"; exit 1; }
if grep '"model":"full-weather"' "$TMP/churn_a" | grep -q '"failovers":0,'; then
  echo "FAIL: full-weather run executed no failovers"; exit 1
fi
echo "churn smoke: deterministic 1k-node weather, matches golden, zero split-brain"

echo "== Table 4 reproduction (results/table4.txt)"
# The paper's Table 4 (framework and framework+ICM overhead on VPR-Place,
# VPR-Route and kMeans) is a pure function of the simulator: the
# committed table must come back byte for byte. The step runs 12
# full-size simulations one after another, about 45-90 s on a 2-core
# host. After an intentional timing change, regenerate with:
#   cargo run --release --offline -p rse-bench --bin table4_framework \
#     > results/table4.txt
cargo run --release --offline -q -p rse-bench --bin table4_framework \
  > "$TMP/table4" 2>/dev/null
diff -u results/table4.txt "$TMP/table4" \
  || { echo "FAIL: table4_framework diverges from results/table4.txt"; exit 1; }
echo "table 4: byte-identical to results/table4.txt"

echo "== Tables 5 and 6, Figure 9 and the ablations (results/*.txt)"
# The MLR, AHBM and DDT evaluations and the ablation study are pure
# functions of the simulator too; together they add about 12 s
# (fig9_ddt ~9 s, ablations ~3 s). After an intentional change,
# regenerate the file with the same command, e.g.:
#   cargo run --release --offline -p rse-bench --bin fig9_ddt > results/fig9_ddt.txt
for table in table5_mlr table6_ahbm fig9_ddt ablations; do
  cargo run --release --offline -q -p rse-bench --bin "$table" \
    > "$TMP/$table" 2>/dev/null
  diff -u "results/$table.txt" "$TMP/$table" \
    || { echo "FAIL: $table diverges from results/$table.txt"; exit 1; }
done
echo "tables 5 and 6, figure 9, ablations: byte-identical to results/"

echo "== benchmark pin tests (perfbench: campaign digests, kernel cycles, fleet digests)"
# The benchmark's own workspace pins what its workloads compute: the
# campaign record digests, kernel-sim's simulated cycles and the churn
# record digests, at the default and held-out seeds. A simulator
# speedup must leave every one of them unchanged.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
# The traced per-layer run (perfbench/traced) calls into the crates
# directly, so an API change can break it; building the package above
# does not compile it. It builds into perfbench's own target directory.
cargo build --release --offline --manifest-path perfbench/traced/Cargo.toml
# Its tests check that a traced run reproduces the untraced records, so
# a change to which module callbacks fire shows here.
cargo test --release --offline --manifest-path perfbench/traced/Cargo.toml

echo "== tier 3: bounded model checking (rse-mc)"
# Four theorem binaries drive the REAL production types (ModuleHealth,
# Ioq, NodeProtocol) through every schedule of a bounded adversary and
# exit non-zero on any counterexample, printing the shrunk event trace.
# Depth bounds are fixed here for CI; RSE_MC_DEPTH overrides the
# exhaustive runs and RSE_MC_SWEEP_DEPTH the unbounded-window fleet
# sweep for deeper offline sessions. Each line reports the explored
# state count and whether the run closed the full reachable space
# (exhaustive=true).
cargo test -q --offline --release -p rse-mc
cargo run --release --offline -q -p rse-mc --bin mc_health
cargo run --release --offline -q -p rse-mc --bin mc_ioq
cargo run --release --offline -q -p rse-mc --bin mc_liveness
cargo run --release --offline -q -p rse-mc --bin mc_fleet
# The standing self-test that the theorems have teeth: removing the
# contact lease must produce a printed split-brain counterexample and
# a non-zero exit.
if RSE_MC_MUTATE=no-self-fence cargo run --release --offline -q \
    -p rse-mc --bin mc_fleet >"$TMP/mc_mutate.out" 2>&1; then
  echo "FAIL: seeded no-self-fence mutation was not caught"; exit 1
fi
grep -q "counterexample: invariant 'split-brain'" "$TMP/mc_mutate.out" \
  || { echo "FAIL: mutation run printed no counterexample trace"; exit 1; }
# Likewise for the health ladder the quarantine-evade attack leans on: a
# forged ErrorBurst storm that could jump straight to Disabled must be a
# printed legal-edge counterexample, not a pass.
if RSE_MC_MUTATE=forged-burst-disable cargo run --release --offline -q \
    -p rse-mc --bin mc_health >"$TMP/mc_mutate.out" 2>&1; then
  echo "FAIL: seeded forged-burst-disable mutation was not caught"; exit 1
fi
grep -q "counterexample: invariant 'legal-edge'" "$TMP/mc_mutate.out" \
  || { echo "FAIL: health mutation run printed no counterexample trace"; exit 1; }
echo "model checking: four theorem groups verified; seeded mutations caught"

echo "CI OK"
