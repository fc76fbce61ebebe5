//! A steady-state batch costs a fixed number of heap allocations,
//! whatever the table count: the frontend's worker recycles each
//! batch's inputs, the workspace keeps its blob names, the RPC operator
//! routes into recycled vectors and the shards pool into recycled
//! stores. Its own test binary, because it counts every allocation in
//! the process through a counting global allocator.

use dlrm_model::graph::NoopObserver;
use dlrm_model::{
    build_model, ModelSpec, NetId, NetSpec, RuntimeCtx, TableId, TableSpec, Workspace,
};
use dlrm_serving::fault::FaultPlan;
use dlrm_serving::frontend::{
    materialize_frontend_requests, merge_inputs, run_frontend, split_rows, FrontendConfig,
    FrontendRequest,
};
use dlrm_serving::replica::{HealthPolicy, ReplicatedShardPool};
use dlrm_sharding::{partition, plan, DistributedModel, ShardingStrategy};
use dlrm_workload::{ArrivalSchedule, PoolingProfile, TraceDb};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Counts every allocation and reallocation, on every thread.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: forwards every call to `System` unchanged; only counts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Two nets with `tables` tables between them, every table small enough
/// that the two-shard plan places all of them remotely.
fn spec(tables: usize) -> ModelSpec {
    let nets = (0..2)
        .map(|i| NetSpec {
            id: NetId(i),
            name: format!("net{i}"),
            bottom_mlp: vec![16, 8],
            top_mlp: vec![16, 1],
            takes_prev_output: i > 0,
        })
        .collect();
    let tables: Vec<TableSpec> = (0..tables)
        .map(|t| TableSpec {
            id: TableId(t),
            name: format!("t{t}"),
            rows: 256,
            dim: 8,
            net: NetId(t % 2),
            pooling_factor: 3.0 + (t % 5) as f64,
        })
        .collect();
    ModelSpec {
        name: format!("alloc{}", tables.len()),
        dense_features: 13,
        tables,
        nets,
        default_batch_size: 64,
        mean_items_per_request: 6.0,
    }
}

/// Allocations and batches of one frontend run of `n` backlogged
/// requests (every arrival at once) on one worker. Every request has one
/// shape, and every batch holds exactly one request: with a larger cap,
/// how many requests a pickup merges depends on when the worker wakes,
/// and that grouping moved the count by a couple of allocations per
/// batch from run to run. One request per batch fixes the composition,
/// so the count repeats.
fn run(dist: &DistributedModel, n: usize) -> (u64, u64) {
    let db = TraceDb::generate(&dist.spec, 1, 17);
    let shape = materialize_frontend_requests(&dist.spec, &db, 23).remove(0);
    let inputs = (0..n)
        .map(|id| FrontendRequest {
            id: id as u64,
            ..shape.clone()
        })
        .collect();
    let schedule = ArrivalSchedule::poisson(n, 1e9, 29);
    let cfg = FrontendConfig {
        queue_capacity: n,
        max_batch_requests: 1,
        workers: 1,
        ..FrontendConfig::default()
    };
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = run_frontend(dist, inputs, &schedule, &cfg);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(report.completed, n as u64, "every request completes");
    assert_eq!(report.batches, n as u64, "one request per batch");
    (allocations, report.batches)
}

/// Steady-state allocations per batch: the difference between a long
/// and a short run (each warms its own worker up), per extra batch.
fn per_batch(dist: &DistributedModel) -> f64 {
    let (short, short_batches) = run(dist, 48);
    let (long, long_batches) = run(dist, 240);
    (long - short) as f64 / (long_batches - short_batches) as f64
}

/// Steady-state allocations per merged batch: a worker-shaped loop (one
/// context and workspace kept across batches, consumer counts
/// installed, the merged prediction's store handed back, every blob
/// recycled) over the same four requests merged with `merge_inputs`,
/// each batch. `run_frontend` merges only what a pickup finds queued,
/// so it cannot fix a merged batch's composition.
fn merged_per_batch(dist: &DistributedModel) -> f64 {
    const WARM: u64 = 16;
    const BATCHES: u64 = 64;
    let db = TraceDb::generate(&dist.spec, 4, 17);
    let requests = materialize_frontend_requests(&dist.spec, &db, 23);
    let parts: Vec<_> = requests.iter().map(|r| &r.inputs).collect();
    let counts = Arc::new(dist.consumer_counts());
    let mut ws = Workspace::with_ctx(RuntimeCtx::sequential());
    let mut before = 0;
    for i in 0..WARM + BATCHES {
        if i == WARM {
            before = ALLOCATIONS.load(Ordering::Relaxed);
        }
        let (merged, rows) = merge_inputs(&parts, ws.ctx());
        ws.set_consumer_counts(Arc::clone(&counts));
        merged.load_owned(&dist.spec, &mut ws);
        let out = dist
            .run_overlapped(&mut ws, &mut NoopObserver)
            .expect("merged run");
        assert_eq!(split_rows(&out, &rows).len(), parts.len());
        ws.ctx().buffers.release(out.into_vec());
        ws.recycle_all();
    }
    (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / BATCHES as f64
}

#[test]
fn steady_state_batches_allocate_a_fixed_count_whatever_the_table_count() {
    let (mut rows, mut merged_rows) = (Vec::new(), Vec::new());
    for tables in [10, 60] {
        let spec = spec(tables);
        let profile = PoolingProfile::from_spec(&spec);
        let p = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(2)).expect("plan");
        let in_process = partition(build_model(&spec, 5).expect("build"), &p).expect("partition");
        let (threaded, pool) = ReplicatedShardPool::assemble(&spec, &p, 5, |services| {
            Ok(ReplicatedShardPool::spawn(
                services,
                1,
                Duration::ZERO,
                &FaultPlan::none(),
                HealthPolicy::default(),
            ))
        })
        .expect("threaded pool");
        let counts = (per_batch(&in_process), per_batch(&threaded));
        let merged = (merged_per_batch(&in_process), merged_per_batch(&threaded));
        pool.shutdown();
        println!(
            "{tables} tables: {:.1} allocations per steady-state batch in process, {:.1} threaded; \
             merged batches of four: {:.1} and {:.1}",
            counts.0, counts.1, merged.0, merged.1
        );
        rows.push(counts);
        merged_rows.push(merged);
    }
    println!(
        "(before batches recycled their buffers, this test read 111.3 and 364.6 per \
         batch in process and 141.6 and 495.7 threaded: about 5 and 7 per table)"
    );
    for (transport, ten, sixty) in [
        ("in-process", rows[0].0, rows[1].0),
        ("threaded", rows[0].1, rows[1].1),
        ("merged in-process", merged_rows[0].0, merged_rows[1].0),
        ("merged threaded", merged_rows[0].1, merged_rows[1].1),
    ] {
        assert!(
            ten <= 64.0 && sixty <= 64.0,
            "{transport}: {ten:.1} and {sixty:.1} per batch (want <= 64)"
        );
        // Amortized growth of the run's records moves the count by a
        // fraction; one allocation per table would move it by 50.
        assert!(
            (ten - sixty).abs() < 2.0,
            "{transport}: {ten:.1} per batch on 10 tables but {sixty:.1} on 60: a table costs allocations"
        );
    }
}
