#!/usr/bin/env bash
# Structure gate for the serving control path: there is one run loop,
# one shard pool and one epoch-transition pipeline, and the code that
# was deleted to get there stays deleted. Prints the current counts and
# fails when a deleted symbol reappears, when non-test code under
# crates/serving/src grows a second thread::scope or a second
# Arc::try_unwrap drain site, when a batcher thread or a read of the
# retired batch_timeout knob comes back, when a second shard service or
# slicer appears, when a per-request scheduler or the FMA kernel tier
# comes back, when a bench other than benches/kernels.rs writes a
# BENCH_*.json or verify.sh runs a *_bench binary, or when a size
# ceiling is exceeded.
#
# Usage: scripts/structure_gate.sh

set -euo pipefail
cd "$(dirname "$0")/.."

# Ceilings (measured at PR 12: 9 184 / 286 / 4 103; the parent had
# 9 541 / 316 / 4 238). Lower them when code goes; raising one needs a
# reason in CHANGES.md. PR 13 raised the bench ceiling by 10 for the
# serving-shape FC rows of benches/kernels.rs (measured 4 157); PR 14
# by 58 for the serving-shape SLS rows (measured 4 215) and lowered the
# serving ceiling by the 6 lines the shared slice range check removed.
# PR 15 dropped the fc_*_percall rows and still raised the bench ceiling
# by 40, exactly the lines added (measured 4 258): the per-tier FC rows
# with their exact-peak ceiling in benches/kernels.rs and runtime_smoke's
# AVX-512 gate; it lowered the serving ceiling by the 3 lines the
# exact-size merge removed. PR 16 (batches form at worker pickup)
# lowered the serving ceilings to what it measured, 9 191 → 8 973 code
# lines and 295 → 283 public items (286 measured before it): the
# batcher loop, the ready queue and the channel's try_send went. It
# raised the bench ceiling by the 29 lines frontend_smoke's burst phase
# and no-hold gates added (measured 4 287). PR 21 (one shard service)
# lowered the serving ceilings to what it measured, 8 973 → 8 257 code
# lines and 283 → 248 public items (the tiered service and client, the
# in-tree channel and PagedTable's move), and added the combined ceiling
# over serving + sharding + compress so a move between the three cannot
# read as a deletion (13 688 at its parent, 13 007 measured). PR 23 (the
# overlap schedule compiled at build, the FMA tier deleted) lowered the
# bench ceiling by the 20 lines the FMA rows and runtime_smoke's FMA
# branch removed (4 287 -> 4 267) and added two ceilings at what it
# measured: model + sharding (7 413 at its parent: the per-request
# scheduler, both validates and the partitioner's re-validate loop went,
# the compile, the walker and their tests came) and tensor + runtime
# (2 285 at its parent); the combined serving + sharding + compress
# ceiling follows sharding down, 13 007 -> 12 984.
# The bag-fused cold tiers raised four ceilings to what they measured,
# each by code they added and nothing else: tensor + runtime 2 205 ->
# 2 270 is the 8-bit bag loop's net lines in simd.rs (U8Rows, sls_bags_u8
# and its AVX2 body, minus decode_accumulate_u8 and its AVX2 body);
# sharding's +45 (serving + sharding + compress 12 984 -> 13 031, model
# + sharding 7 410 -> 7 455) is the paged slab read (the read planner,
# the per-slice read loop, the spill buffer; minus row_into and the
# per-lookup loop: +21) and its read-count and error-value unit tests
# (+24); compress is +2; bench 4 267 -> 4 276 is runtime_smoke's counter
# check of the AVX-512 tier that replaced its ratio band.
# Static placement over TCP lowered four ceilings to what it measured:
# plan versioning (epoch, generations, plan-text v3, the epoch-checked
# seat install) and the unread routes text format went, serving
# 8 257 -> 8 170 code lines and 248 -> 245 public items, serving +
# sharding + compress 13 031 -> 12 768, model + sharding 7 455 -> 7 279.
# Deleting what no gate ran lowered four ceilings to what it measured:
# bench 4 276 -> 3 275 (five legacy bench bins, two duplicated smokes,
# the QPS sweep), serving + sharding + compress 12 768 -> 12 569 and
# tensor + runtime 2 270 -> 2 144 (the pruned table and the 4-bit tier),
# model + sharding 7 279 -> 7 278 (the quantized tier's front check).
MAX_SERVING_CODE_LINES=8170
MAX_SERVING_PUB_ITEMS=245
MAX_BENCH_CODE_LINES=3275
MAX_ROW_SERVING_CODE_LINES=12569
MAX_GRAPH_CODE_LINES=7278
MAX_KERNEL_CODE_LINES=2144

fail=0
flunk() {
  echo "FAIL: $*" >&2
  fail=1
}

# Source text of every file under $1 with `#[cfg(test)]` modules (which
# close each file here) and `//` comment lines dropped.
non_test_code() {
  find "$1" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && !/^[[:space:]]*\/\// { print FILENAME ":" FNR ":" $0 }'
}

code_lines() {
  find "$1" -name '*.rs' -print0 | xargs -0 cat | grep -vcE '^\s*(//|$)'
}

deleted='ThreadedShardPool|worker_loop_live|tenant_worker_loop|BatchRanker|rank_request_parallel|run_sweep|mod local\b|batcher_loop|FormedBatch|QuantizedShardService|QuantizedClient|TieredClient|TierTable|mod channel|collect_in_flight|in_flight_producer|Avx2Fma|forced_fma|panel_fma|decode_accumulate_u8|decode_u8_accumulate_avx2|install_seats_epoch|with_versioning|HEADER_V3|dlrm-plan v3|fn succeed|plan_epoch|routes_to_text|routes_from_text|next_epoch|Pruned[T]able|prune_by_[m]agnitude|decode_accumulate_u[4]|decode_row_u[4]|pool_bags_u[4]|decode_u[4]_'
if hits=$(grep -rnE "$deleted" crates src tests examples); then
  flunk "deleted symbols are back:"
  echo "$hits" >&2
fi

# The cold tiers pool through bag loops: the paged tier reads a slice's
# rows into a slab for simd::sls_bags, so PagedTable's per-row read
# stays deleted (QuantizedTable::row_into is the 8-bit decode and
# stays).
if hits=$(grep -rn 'fn row_into' crates/sharding/src); then
  flunk "a per-row paged read is back:"
  echo "$hits" >&2
fi

# Only the kernel microbenches write a tracked BENCH_*.json, and
# verify.sh runs gates, not benches: a run leaves no tracked file
# rewritten.
bench_writers=$(grep -rn 'write_bench_json(' crates src tests examples | grep -v 'pub fn write_bench_json' || true)
[ "$(grep -c . <<<"$bench_writers")" -eq 1 ] && grep -q '^crates/bench/benches/kernels.rs:' <<<"$bench_writers" \
  || flunk "write_bench_json callers (want exactly one, crates/bench/benches/kernels.rs):" $bench_writers
if hits=$(grep -nE -- '--bin [a-z_]*_bench\b' scripts/verify.sh); then
  flunk "verify.sh runs a bench binary:"
  echo "$hits" >&2
fi

# FC weights are packed once at model build: the per-call pack loop of
# the old A·Bᵀ kernel and its k×8 scratch must not come back.
if hits=$(grep -rn 'transb_rows_simd' crates src tests examples); then
  flunk "transb_rows_simd is back:"
  echo "$hits" >&2
fi
if hits=$(grep -nF 'vec![0.0f32; k * 8]' crates/tensor/src/simd.rs); then
  flunk "per-call k x 8 pack scratch is back in simd.rs:"
  echo "$hits" >&2
fi

# One f32 SLS inner loop: the free per-row `add_assign(level, out, row)`
# the fused gather replaced stays deleted (methods — Matrix::add_assign,
# the AddAssign impls — and calls to them are not it), and the
# bag-parallel fork threshold lives beside Pool::par_bags only.
if hits=$(grep -rnE '(^|[^.])add_assign\(' crates/*/src | grep -v 'fn add_assign(&mut self'); then
  flunk "a per-row add_assign SLS loop is back:"
  echo "$hits" >&2
fi
sls_min_defs=$(grep -rn 'const SLS_PAR_MIN_LOOKUPS' crates src | wc -l)
[ "$sls_min_defs" -le 1 ] || flunk "SLS_PAR_MIN_LOOKUPS defined $sls_min_defs times (want 1: runtime/src/pool.rs)"
prefetch_sites=$(grep -rn '_mm_prefetch::<' crates/*/src | wc -l)

# One audited home for unsafe and for the AVX-512 decision: no source
# file but tensor/src/simd.rs holds an unsafe block, fn or impl or
# re-allows the lint (comments may say the word), the CPU is asked
# about avx512f in one place, and the AVX-512 tier stays exact (no
# fused intrinsic).
unsafe_files=$(grep -rlE '^[^/]*(\bunsafe[[:space:]]*(\{|fn\b|impl\b|trait\b|extern\b)|allow\(unsafe_code\))' crates/*/src \
  | grep -v '^crates/tensor/src/simd.rs$' || true)
[ -z "$unsafe_files" ] || flunk "unsafe outside crates/tensor/src/simd.rs:" $unsafe_files
avx512_sites=$( (grep -rn 'is_x86_feature_detected!("avx512f")' crates src || true) | wc -l)
[ "$avx512_sites" -eq 1 ] || flunk "$avx512_sites avx512f detection sites (want 1: runtime/src/dispatch.rs)"
zmm_fused=$( (grep -rn '_mm512_fmadd' crates src sysbench/src || true) | wc -l)
[ "$zmm_fused" -eq 0 ] || flunk "$zmm_fused _mm512_fmadd uses (the AVX-512 tier is exact)"

# One shard service: the modulus-layout slicer is written once
# (sharding/src/store.rs), and ShardService::execute is the only
# inherent `execute` over a ShardRequest — the others are the
# SparseShardClient impls that carry a request to it.
slicers=$(grep -rn 'j \* parts + part' crates/*/src | grep -vcE '^[^:]*:[0-9]+:[[:space:]]*//' || true)
[ "$slicers" -eq 1 ] || flunk "$slicers 'j * parts + part' slicer sites in crates/*/src code (want 1: sharding/src/store.rs)"
executes=$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
  /^impl/ { client = /SparseShardClient for/ }
  !client && /pub fn execute\(&self, request: &ShardRequest\)/ { n++ }
  END { print n + 0 }')
[ "$executes" -eq 1 ] || flunk "$executes shard-service execute definitions (want 1: ShardService)"

serving_non_test=$(non_test_code crates/serving/src)
scopes=$(grep -c 'thread::scope' <<<"$serving_non_test" || true)
drains=$(grep -c 'Arc::try_unwrap' <<<"$serving_non_test" || true)
[ "$scopes" -eq 1 ] || flunk "$scopes thread::scope sites in non-test serving code (want 1: frontend::serve)"
[ "$drains" -eq 1 ] || flunk "$drains Arc::try_unwrap sites in non-test serving code (want 1: DrainQueue::poll)"

# The only sleeps in the run loop are the generator's (to the next
# arrival); the pressure tick waits on a condvar.
sleeps=$(non_test_code crates/serving/src/frontend | grep 'sleep(' | grep -vc 'frontend/arrival.rs' || true)
tenancy_sleeps=$(non_test_code crates/serving/src/tenancy | grep -c 'sleep(' || true)
[ "$sleeps" -eq 0 ] || flunk "$sleeps sleep( sites in frontend/ outside the load generator"
[ "$tenancy_sleeps" -eq 0 ] || flunk "$tenancy_sleeps sleep( sites in tenancy/"

# Batches form at worker pickup: the run loop spawns workers and one
# load generator per lane, nothing else (no batcher thread), and no
# non-test code reads the retired `batch_timeout` knob — its two field
# declarations and their `Default`s, kept only while sysbench/ builds
# the structs field by field, are the only mentions.
serve_spawns=$(non_test_code crates/serving/src/frontend/mod.rs | grep -c 'spawn(' || true)
[ "$serve_spawns" -eq 2 ] || flunk "$serve_spawns spawn( sites in frontend/mod.rs (want 2: workers, generators)"
if hits=$(for d in crates/*/src; do non_test_code "$d"; done | grep -F '.batch_timeout'); then
  flunk "non-test code reads the retired batch_timeout knob:"
  echo "$hits" >&2
fi

# One scheduler, at build time: graph.rs keeps its maps for the
# workspace (blobs, consumer counts), the group-timing observer,
# consumer_counts_of, external_input_blobs and Schedule::compile; the
# per-request walker builds none.
graph_maps=$(non_test_code crates/model/src/graph.rs | grep -cE 'HashSet|HashMap' || true)
walker_maps=$(non_test_code crates/model/src/graph.rs | awk '/pub fn walk\(/ { on = 1 } on; on && /:    }$/ { on = 0 }' \
  | grep -cE 'HashSet|HashMap|\.inputs\(\)|\.outputs\(\)' || true)
[ "$walker_maps" -eq 0 ] || flunk "$walker_maps set/map/inputs()/outputs() mentions inside Schedule::walk (want 0)"
overlap_entries=$(grep -rn 'fn run_overlapped' crates | wc -l)
[ "$overlap_entries" -eq 2 ] || flunk "$overlap_entries 'fn run_overlapped' definitions (want 2: Model, DistributedModel)"

serving_lines=$(code_lines crates/serving/src)
bench_lines=$(code_lines crates/bench)
sharding_lines=$(code_lines crates/sharding/src)
row_serving_lines=$((serving_lines + sharding_lines + $(code_lines crates/compress/src)))
graph_lines=$(($(code_lines crates/model/src) + sharding_lines))
kernel_lines=$(($(code_lines crates/tensor/src) + $(code_lines crates/runtime/src)))
pub_items=$(grep -rhE '^\s*pub (fn|struct|enum|trait|type|const) ' crates/serving/src | wc -l)
echo "crates/serving/src: $serving_lines code lines (ceiling $MAX_SERVING_CODE_LINES), $pub_items public items (ceiling $MAX_SERVING_PUB_ITEMS)"
echo "crates/{serving,sharding,compress}/src: $row_serving_lines code lines (ceiling $MAX_ROW_SERVING_CODE_LINES)"
echo "crates/bench: $bench_lines code lines (ceiling $MAX_BENCH_CODE_LINES)"
echo "crates/{model,sharding}/src: $graph_lines code lines (ceiling $MAX_GRAPH_CODE_LINES)"
echo "crates/{tensor,runtime}/src: $kernel_lines code lines (ceiling $MAX_KERNEL_CODE_LINES)"
echo "overlap schedule: $overlap_entries run_overlapped entry points, $graph_maps HashSet|HashMap mentions in non-test graph.rs, $walker_maps inside the walker (expect 2, the build-time ones, and 0)"
echo "shard service: $slicers slicer site, $executes execute definition outside client impls (expect 1 and 1)"
echo "non-test serving code: $scopes thread::scope, $drains Arc::try_unwrap, $serve_spawns spawn( in frontend/mod.rs (expect 1, 1 and 2)"
echo "f32 SLS: $sls_min_defs SLS_PAR_MIN_LOOKUPS definition, $prefetch_sites _mm_prefetch site (expect 1 and 1)"
echo "simd: $(grep -c . <<<"$unsafe_files" || true) files with unsafe outside tensor/src/simd.rs, $avx512_sites avx512f detection site, $zmm_fused _mm512_fmadd (expect 0, 1 and 0)"
[ "$serving_lines" -le "$MAX_SERVING_CODE_LINES" ] || flunk "crates/serving/src code lines over the ceiling"
[ "$pub_items" -le "$MAX_SERVING_PUB_ITEMS" ] || flunk "crates/serving/src public items over the ceiling"
[ "$row_serving_lines" -le "$MAX_ROW_SERVING_CODE_LINES" ] || flunk "serving + sharding + compress code lines over the combined ceiling"
[ "$bench_lines" -le "$MAX_BENCH_CODE_LINES" ] || flunk "crates/bench code lines over the ceiling"
[ "$graph_lines" -le "$MAX_GRAPH_CODE_LINES" ] || flunk "model + sharding code lines over the ceiling"
[ "$kernel_lines" -le "$MAX_KERNEL_CODE_LINES" ] || flunk "tensor + runtime code lines over the ceiling"

[ "$fail" -eq 0 ] || exit 1
echo "OK: one run loop, one pool, one transition pipeline, one shard service; sizes under their ceilings"
