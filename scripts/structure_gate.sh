#!/usr/bin/env bash
# Structure gate for the serving control path: there is one run loop,
# one shard pool and one epoch-transition pipeline, and the code that
# was deleted to get there stays deleted. Prints the current counts and
# fails when a deleted symbol reappears, when non-test code under
# crates/serving/src grows a second thread::scope or any Arc::try_unwrap
# drain site (a retired epoch is freed by its last holder), when a
# batcher thread or a read of the retired batch_timeout knob comes
# back, when a second shard service or slicer appears, when a
# per-request scheduler or the FMA kernel tier comes back, when a bench
# other than benches/kernels.rs writes a BENCH_*.json or verify.sh runs
# a *_bench binary, when an RpcCompletion
# impl grows a second wait method, when the engine (dlrm-serving) and the
# simulator (dlrm-cluster) depend on each other or a simulator definition
# reappears in the engine, when the frontend report grows a dedupe map
# again, when the hot-row cache keeps counters again or something calls
# the attach_cache shim, when an RPC is reported through more than the
# one on_rpc hook or a failure cause is parsed back out of error text,
# when the shard client grows a second send to implement (execute or
# begin_execute defined by an impl), when a transport copies its request
# in begin_shared, when the per-call ledger is written outside the
# replica seat, when a shard's seat list or a shard server's seat map
# takes a lock again (both are fixed once built), when the pressure
# controller rebuilds a tenant's whole model for a ladder step, when
# 64-byte alignment arithmetic appears outside the shared AlignedSlab or
# an embedding table holds a Matrix again, when the serving + sharding
# clock-site count rises, or when a size ceiling is exceeded.
#
# Usage: scripts/structure_gate.sh

set -euo pipefail
cd "$(dirname "$0")/.."

# Ceilings, each at its measured value. Lower one when code goes;
# raising one needs a reason in CHANGES.md, which keeps their history.
# Code lines are non-blank, non-comment lines, unit tests included.
# - SERVING: crates/serving/src, the engine (frontend, tenancy,
#   transports, replica seats, epochs, shard server); and its pub items.
# - CLUSTER: crates/cluster/src, the calibrated simulator and planners.
# - BENCH: crates/bench, the kernel benches and the smoke gates.
# - ROW_SERVING: serving + sharding + compress, so a move between the
#   three cannot read as a deletion.
# - GRAPH: model + sharding, the executor, operators, partitioner, RPC op.
# - KERNEL: tensor + runtime, the SIMD kernels, fork-join and buffer pools.
# - CLOCK_SITES: Instant::now|sleep( in non-test serving + sharding code.
MAX_SERVING_CODE_LINES=5761
MAX_SERVING_PUB_ITEMS=166
MAX_CLUSTER_CODE_LINES=1712
MAX_BENCH_CODE_LINES=3089
MAX_ROW_SERVING_CODE_LINES=10125
MAX_GRAPH_CODE_LINES=7310
MAX_KERNEL_CODE_LINES=2388
MAX_CLOCK_SITES=35

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

deleted='ThreadedShardPool|worker_loop_live|tenant_worker_loop|BatchRanker|rank_request_parallel|run_sweep|mod local\b|batcher_loop|FormedBatch|QuantizedShardService|QuantizedClient|TieredClient|TierTable|mod channel|collect_in_flight|in_flight_producer|Avx2Fma|forced_fma|panel_fma|decode_accumulate_u8|decode_u8_accumulate_avx2|install_seats_epoch|with_versioning|HEADER_V3|dlrm-plan v3|fn succeed|plan_epoch|routes_to_text|routes_from_text|next_epoch|Pruned[T]able|prune_by_[m]agnitude|decode_accumulate_u[4]|decode_row_u[4]|pool_bags_u[4]|decode_u[4]_|Wait[O]utcome|wait_[d]eadline|Race[R]esult|Local[S]plit|build_request_[a]nd_split|route_bags_[g]lobal|Streaming[Q]uantile|fn with_[p]ool|weights_[m]ut|max_table_[g]ib|Tenant[B]reakdown|RequestRec[o]rd|batch_closed_[m]s|Histogra[m]|record_latenc[y]|LATENCY_SUB_BUCKET[S]|cache_retire[d]|cache_refreshe[s]|retired_cach[e]|on_rpc_issue[d]|on_rpc_collecte[d]|on_rpc_outcom[e]|kind_i[n]\(|(fn |\.)(rpc_retrie[s]|rpc_hedge[s]|degraded_rpc[s]|cache_hit[s]|cache_misse[s]|cache_local_row[s])\(|Rebalance[r]|RebalanceConfi[g]|MigrationRecor[d]|ScaleEven[t]|fn scale_u[p]|fn scale_dow[n]|shard_row[s]|add_sea[t]|remove_sea[t]|mod rebalanc[e]|PollSeat[s]|reseat_standb[y]|poll_seat[s]|STANDBY_POL[L]|build_epoch_servin[g]|absorb_retire[d]|take_spars[e]|take_blo[b]|routed_slic[e]|Drain[Q]ueue|tiers: Mute[x]|cutovers: Atomi[c]|(demotions|promotions): Atomi[c]|cutover[s]\(|run_lan[e]'
if hits=$(grep -rnE "$deleted" crates src tests examples); then
  flunk "deleted symbols are back:"
  echo "$hits" >&2
fi

# The hot-row cache is immutable: each op's cache split is counted once,
# in its RpcOutcome, so non-test cache.rs holds no atomic counter, and
# ShardPool::attach_cache is an empty shim kept only for sysbench/ —
# nothing under the workspace's own sources calls it.
cache_atomics=$(non_test_code crates/sharding/src/cache.rs | grep -c 'Atomic' || true)
[ "$cache_atomics" -eq 0 ] || flunk "$cache_atomics Atomic mentions in non-test sharding/src/cache.rs (want 0: the cache counts nothing)"
if hits=$(grep -rn 'attach_cache(' crates src tests examples | grep -v 'fn attach_cache('); then
  flunk "attach_cache( is called (it is an empty shim for sysbench/):"
  echo "$hits" >&2
fi

# One record per RPC: the executor's observer has two hooks, on_op for
# an operator run to completion and on_rpc once per collected RPC
# (failed ones included), so nothing reports an RPC a second way.
observer_hooks=$(awk '/^pub trait ExecutionObserver/ { on = 1 } on && /^}/ { on = 0 } on && /^    fn /' crates/model/src/graph.rs | wc -l)
[ "$observer_hooks" -eq 2 ] || flunk "ExecutionObserver declares $observer_hooks methods (want 2: on_op, on_rpc)"

# One wait method: a completion implements wait_until, and wait is the
# trait's wrapper around it, so no non-test RpcCompletion impl defines
# its own wait.
completion_waits=$(for d in crates/*/src; do non_test_code "$d"; done | awk '
  /:[0-9]+:[^ }]/ { completion = /:[0-9]+:impl.* RpcCompletion for / }
  completion && /fn wait\(/')
if [ -n "$completion_waits" ]; then
  flunk "an RpcCompletion impl defines wait( (implement wait_until only):"
  echo "$completion_waits" >&2
fi

# The engine and the simulator are two crates that share no code:
# neither dependency tree names the other, and no simulator definition
# comes back under crates/serving/src (the names live in crates/cluster).
for pair in dlrm-serving:dlrm-cluster dlrm-cluster:dlrm-serving; do
  tree=$(cargo tree --offline -p "${pair%%:*}" --prefix none)
  if grep -q "^${pair#*:} " <<<"$tree"; then
    flunk "${pair%%:*} depends on ${pair#*:}"
  fi
done
if hits=$(grep -rnE 'fn simulate\b|struct CostModel\b|struct PlatformSpec\b|ConfigOptions|PagingModel|fn plan_replication\b|fn max_qps_under_sla\b' crates/serving/src); then
  flunk "a simulator definition is back in the engine:"
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

# One aligned store: every weight row the kernels stream (FC panels,
# embedding rows, the hot-row cache) lives in tensor/src/slab.rs's
# AlignedSlab, so no other non-test source does `% 64` alignment
# arithmetic, and an embedding table holds no Matrix of weights.
align_sites=$(for d in crates/*/src; do non_test_code "$d"; done | grep -E '% 64\b|align_offset' \
  | grep -v '^crates/tensor/src/slab.rs:' || true)
[ -z "$align_sites" ] || flunk "64-byte alignment arithmetic outside tensor/src/slab.rs:" "$align_sites"
if hits=$(grep -nE '^ *(pub )?weights: Matrix,' crates/model/src/embedding.rs); then
  flunk "an embedding table holds a Matrix again:"
  echo "$hits" >&2
fi

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
# inherent `execute` over a ShardRequest.
slicers=$(grep -rn 'j \* parts + part' crates/*/src | grep -vcE '^[^:]*:[0-9]+:[[:space:]]*//' || true)
[ "$slicers" -eq 1 ] || flunk "$slicers 'j * parts + part' slicer sites in crates/*/src code (want 1: sharding/src/store.rs)"
executes=$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
  /^impl/ { client = /SparseShardClient for/ }
  !client && /pub fn execute\(&self, request: &ShardRequest\)/ { n++ }
  END { print n + 0 }')
[ "$executes" -eq 1 ] || flunk "$executes shard-service execute definitions (want 1: ShardService)"

# A shard client is one send: the SparseShardClient trait declares
# exactly two methods without a body (shard_id and begin_shared), and no
# impl of it — tests included — defines execute or begin_execute, the
# trait's wrappers around begin_shared. So a client that wraps another
# cannot forward one send form and miss the one the RPC operator uses.
bodiless=$(awk '
  /^pub trait SparseShardClient/ { on = 1; next }
  on && /^}/ { on = 0 }
  on && /^    fn / { sig = ""; match($0, /fn [a-z_]+/); name = substr($0, RSTART + 3, RLENGTH - 3) }
  on && name != "" { sig = sig $0 }
  on && name != "" && /[;{][[:space:]]*$/ { if (sig ~ /;[[:space:]]*$/) print name; name = "" }' crates/sharding/src/rpc.rs | sort | tr '\n' ' ')
[ "$bodiless" = "begin_shared shard_id " ] || flunk "SparseShardClient methods without a body: '$bodiless' (want begin_shared and shard_id)"
if hits=$(find crates src tests examples -name '*.rs' -print0 | sort -z | xargs -0 awk '
  FNR == 1 { on = 0 }
  /impl.* SparseShardClient for / { on = 1; match($0, /^ */); closing = substr($0, 1, RLENGTH) "}"; next }
  on && /fn (execute|begin_execute)\(/ { print FILENAME ":" FNR ":" $0 }
  on && $0 == closing { on = 0 }' | grep .); then
  flunk "a SparseShardClient impl defines execute or begin_execute (implement begin_shared only):"
  echo "$hits" >&2
fi

# One call ledger: a seat's in-flight gauge, watermark, calls and rows
# are written only by the replica seat layer (ReplicatedClient::issue_on
# for a send that succeeds, TrackedCompletion for a settle or an
# unsettled drop), never by a transport.
ledger_re='\.(on_issue|add_rows_sent|on_settle|on_abandon)\('
if hits=$( { grep -rnE "$ledger_re" crates src tests examples | grep -v '^crates/serving/src/replica.rs:'
  awk -v re="$ledger_re" '/^#\[cfg\(test\)\]/ { t = 1 } t && $0 ~ re { print FILENAME ":" FNR ":" $0 }' crates/serving/src/replica.rs
  } | grep -vE '^[^:]*:[0-9]+:[[:space:]]*//'); then
  flunk "the call ledger is written outside non-test crates/serving/src/replica.rs:"
  echo "$hits" >&2
fi

# The RPC operator shares its request with every transmission, retries
# and hedges included, so no transport under crates/serving/src copies
# a request in its send, begin_shared. (A borrowed request is copied
# once, by the trait's begin_execute.)
send_clones=$(non_test_code crates/serving/src | awk '
  { line = $0; sub(/^[^:]*:[0-9]+:/, "", line) }
  line ~ /fn begin_shared\(/ { on = 1; match(line, /^ */); closing = substr(line, 1, RLENGTH) "}" }
  on && line ~ /request[^,;]*\.clone\(\)|ShardRequest::clone/ { print }
  on && line == closing { on = 0 }')
if [ -n "$send_clones" ]; then
  flunk "a transport under crates/serving/src copies its request in its send path (share it through begin_shared):"
  echo "$send_clones" >&2
fi

# A shard's seat list is fixed once its pool is built: ReplicatedClients
# share the slice and read it without a lock, so non-test replica.rs
# holds no RwLock (a live add or remove would need one back).
seat_locks=$(non_test_code crates/serving/src/replica.rs | grep -c 'RwLock' || true)
[ "$seat_locks" -eq 0 ] || flunk "$seat_locks RwLock mentions in non-test serving/src/replica.rs (want 0: the seat list is fixed once built)"
# So is a shard server's seat map: installed once into a OnceLock, it is
# read by every request without a lock, so non-test shard_server.rs
# holds no Mutex or RwLock.
server_seat_locks=$(non_test_code crates/serving/src/shard_server.rs | grep -cE 'Mutex|RwLock' || true)
[ "$server_seat_locks" -eq 0 ] || flunk "$server_seat_locks Mutex|RwLock mentions in non-test serving/src/shard_server.rs (want 0: the seat map is installed once)"

# A ladder step derives its candidate from the serving epoch and
# rebuilds only the moved table: non-test tenancy/pressure.rs never
# draws a whole model, directly or through build_tiered_epoch.
rebuilds=$(non_test_code crates/serving/src/tenancy/pressure.rs | grep -cE '\b(build_model|build_tiered_epoch)\b' || true)
[ "$rebuilds" -eq 0 ] || flunk "$rebuilds build_model|build_tiered_epoch mentions in non-test tenancy/pressure.rs (want 0: a step derives from the serving epoch)"

# Wall-clock reads and sleeps in the serving and sharding control paths:
# each is a loop only a wall-clock test can drive, so the count may only
# fall.
clock_sites=$( { non_test_code crates/serving/src; non_test_code crates/sharding/src; } | grep -cE 'Instant::now|sleep\(' || true)
[ "$clock_sites" -le "$MAX_CLOCK_SITES" ] || flunk "$clock_sites Instant::now|sleep( sites in non-test serving + sharding code (ceiling $MAX_CLOCK_SITES)"

serving_non_test=$(non_test_code crates/serving/src)
scopes=$(grep -c 'thread::scope' <<<"$serving_non_test" || true)
drains=$(grep -c 'Arc::try_unwrap' <<<"$serving_non_test" || true)
[ "$scopes" -eq 1 ] || flunk "$scopes thread::scope sites in non-test serving code (want 1: frontend::serve)"
[ "$drains" -eq 0 ] || flunk "$drains Arc::try_unwrap sites in non-test serving code (want 0: a retired epoch is freed by its last holder)"

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

# A run records each batch once, so the report folds batch records
# directly: non-test frontend/sla.rs keeps no dedupe map.
sla_maps=$(non_test_code crates/serving/src/frontend/sla.rs | grep -c 'HashMap' || true)
[ "$sla_maps" -eq 0 ] || flunk "$sla_maps HashMap mentions in non-test frontend/sla.rs (want 0: one record per batch)"

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
cluster_lines=$(code_lines crates/cluster/src)
bench_lines=$(code_lines crates/bench)
sharding_lines=$(code_lines crates/sharding/src)
row_serving_lines=$((serving_lines + sharding_lines + $(code_lines crates/compress/src)))
graph_lines=$(($(code_lines crates/model/src) + sharding_lines))
kernel_lines=$(($(code_lines crates/tensor/src) + $(code_lines crates/runtime/src)))
pub_items=$(grep -rhE '^\s*pub (fn|struct|enum|trait|type|const) ' crates/serving/src | wc -l)
echo "crates/serving/src: $serving_lines code lines (ceiling $MAX_SERVING_CODE_LINES), $pub_items public items (ceiling $MAX_SERVING_PUB_ITEMS)"
echo "crates/cluster/src: $cluster_lines code lines (ceiling $MAX_CLUSTER_CODE_LINES)"
echo "crates/{serving,sharding,compress}/src: $row_serving_lines code lines (ceiling $MAX_ROW_SERVING_CODE_LINES)"
echo "crates/bench: $bench_lines code lines (ceiling $MAX_BENCH_CODE_LINES)"
echo "crates/{model,sharding}/src: $graph_lines code lines (ceiling $MAX_GRAPH_CODE_LINES)"
echo "crates/{tensor,runtime}/src: $kernel_lines code lines (ceiling $MAX_KERNEL_CODE_LINES)"
echo "overlap schedule: $overlap_entries run_overlapped entry points, $graph_maps HashSet|HashMap mentions in non-test graph.rs, $walker_maps inside the walker (expect 2, the build-time ones, and 0)"
echo "observer: $observer_hooks ExecutionObserver methods (expect 2: on_op, on_rpc)"
echo "shard client: methods without a body: $bodiless(expect begin_shared shard_id)"
echo "shard service: $slicers slicer site, $executes execute definition outside client impls (expect 1 and 1)"
echo "clock: $clock_sites Instant::now|sleep( sites in non-test serving + sharding code (ceiling $MAX_CLOCK_SITES); seat list: $seat_locks RwLock in non-test replica.rs, seat map: $server_seat_locks Mutex|RwLock in non-test shard_server.rs (expect 0 and 0)"
echo "non-test serving code: $scopes thread::scope, $drains Arc::try_unwrap, $serve_spawns spawn( in frontend/mod.rs (expect 1, 0 and 2)"
echo "ladder step: $rebuilds build_model|build_tiered_epoch mentions in non-test tenancy/pressure.rs (expect 0)"
echo "f32 SLS: $sls_min_defs SLS_PAR_MIN_LOOKUPS definition, $prefetch_sites _mm_prefetch sites (expect 1 and 2: the gather's and the GEMM tiles')"
echo "simd: $(grep -c . <<<"$unsafe_files" || true) files with unsafe outside tensor/src/simd.rs, $avx512_sites avx512f detection site, $zmm_fused _mm512_fmadd (expect 0, 1 and 0)"
[ "$serving_lines" -le "$MAX_SERVING_CODE_LINES" ] || flunk "crates/serving/src code lines over the ceiling"
[ "$pub_items" -le "$MAX_SERVING_PUB_ITEMS" ] || flunk "crates/serving/src public items over the ceiling"
[ "$cluster_lines" -le "$MAX_CLUSTER_CODE_LINES" ] || flunk "crates/cluster/src code lines over the ceiling"
[ "$row_serving_lines" -le "$MAX_ROW_SERVING_CODE_LINES" ] || flunk "serving + sharding + compress code lines over the combined ceiling"
[ "$bench_lines" -le "$MAX_BENCH_CODE_LINES" ] || flunk "crates/bench code lines over the ceiling"
[ "$graph_lines" -le "$MAX_GRAPH_CODE_LINES" ] || flunk "model + sharding code lines over the ceiling"
[ "$kernel_lines" -le "$MAX_KERNEL_CODE_LINES" ] || flunk "tensor + runtime code lines over the ceiling"

[ "$fail" -eq 0 ] || exit 1
echo "OK: one run loop, one pool with fixed seat lists, one transition pipeline, one shard service; engine and simulator apart; sizes under their ceilings"
