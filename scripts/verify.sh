#!/usr/bin/env bash
# Hermetic verification gate: build, test and lint the whole workspace
# with the network disabled, then audit the dependency graph to prove
# nothing outside the workspace is linked in.
#
# Usage: scripts/verify.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --workspace --release --offline

echo "==> cargo test -q --offline"
cargo test -q --workspace --offline

echo "==> cargo clippy --offline -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc --offline -- -D warnings: every intra-doc link resolves"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> structure gate: one run loop, one shard pool, one transition pipeline;"
echo "    deleted paths stay deleted; code-line and public-item ceilings"
scripts/structure_gate.sh

echo "==> kernel tiers: the GEMM and SLS property suite (f32 and 8-bit bag loops),"
echo "    the model-level FC/SLS oracle and the runtime smoke (predictions bit-exact"
echo "    across worker counts, blocked GEMM >= 3x the naive reference, the AVX2 and"
echo "    AVX-512 pools' GEMMs counted on their own tier and no other;"
echo "    tier checks skip on hosts without the tier) once per exact dispatch tier:"
echo "    scalar, AVX2, and unset = the widest the host runs"
for simd in off avx2 ""; do
  echo "--> DLRM_SIMD=${simd:-<unset>}"
  DLRM_SIMD="$simd" cargo test -q --offline -p dlrm-tensor --test kernel_properties
  DLRM_SIMD="$simd" cargo test -q --offline -p dlrm-model --test packed_fc_oracle
  DLRM_SIMD="$simd" cargo run --release --offline -p dlrm-bench --bin runtime_smoke
done

echo "==> frontend smoke: open-loop serving must be bit-exact, account"
echo "    exactly, hold its SLA band under light load with no request held on"
echo "    a timer, ride a burst in full batches, and shed under overload"
cargo run --release --offline -p dlrm-bench --bin frontend_smoke

echo "==> chaos smoke: replica crashes must not dent availability or change"
echo "    answers; a total outage must degrade, not fail; same seed, same counts"
cargo run --release --offline -p dlrm-bench --bin chaos_smoke

echo "==> net smoke: real control-plane + shard-server processes over TCP;"
echo "    killing one replica host mid-run must hold availability >= 99%"
echo "    with bit-exact predictions and an orchestrated shutdown"
cargo run --release --offline -p dlrm-bench --bin net_smoke

echo "==> tenant smoke: 3 colocated tenants under a tight DRAM budget and a"
echo "    tenant-A admission burst; A sheds alone, B/C hold availability >= 99%"
echo "    and their SLA band, >= 1 demotion + 1 promotion, all dual-read"
echo "    verified, all-DRAM footprint restored bit-exact"
cargo run --release --offline -p dlrm-bench --bin tenant_smoke

echo "==> sysbench: the benchmark builds against these crates, passes its unit"
echo "    tests, and every workload (TCP shards, the hot-row cache over threads,"
echo "    the in-process dense lane, the tenants under tier churn) passes its"
echo "    output check against Model::run (exit code only; a 4 s run measures"
echo "    nothing)"
# Cargo rewrites sysbench/Cargo.lock whenever the workspace's crate
# graph differs from the committed lock; put the committed lock back on
# exit, so a run leaves no tracked file modified.
lock_snapshot=$(mktemp)
cp sysbench/Cargo.lock "$lock_snapshot"
trap 'cp "$lock_snapshot" sysbench/Cargo.lock; rm -f "$lock_snapshot"' EXIT
# Same target directory as run.sh, so the crates compile once. The
# benchmark refuses to run under a DLRM_SIMD override (it measures the
# default dispatch), so drop one this script was started with.
CARGO_TARGET_DIR="$PWD/target" cargo test -q --offline --manifest-path sysbench/Cargo.toml
for workload in rm1_dram_tcp rm2_zipf_cache_threaded rm3_dense_inproc coloc2_rm2_churn; do
  env -u DLRM_SIMD bash sysbench/run.sh --workload "$workload" --seed 1 --seconds 4 --trace 0 >/dev/null
done

echo "==> dependency audit: cargo tree must list only workspace members"
# --edges all includes dev- and build-dependencies; every line of the
# tree (any depth) must name a dlrm-* crate rooted in this workspace.
bad=$(cargo tree --workspace --offline --edges all --prefix none \
  | sed 's/ (\*)$//' \
  | sort -u \
  | grep -v -E '^dlrm-[a-z-]+ (v[0-9.]+ \(/.*\)|feature ".*"( \(command-line\))?)$' || true)
if [ -n "$bad" ]; then
  echo "FAIL: non-workspace crates in the dependency graph:" >&2
  echo "$bad" >&2
  exit 1
fi

echo "==> OK: hermetic build, 0 test failures, 0 lints, workspace-only deps"
