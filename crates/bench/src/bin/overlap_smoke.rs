//! Overlap smoke test: proves shard RPCs overlap under the real
//! engine's dependency-aware scheduler.
//!
//! One batch runs against ≥2 thread-backed sparse shards, each with an
//! injected per-request service delay D. A serial executor pays
//! `rpcs × D`; the overlap scheduler issues every shard RPC before
//! blocking, so wall-clock must come in well under that sum (the
//! asserted bound is 0.8 × Σ delays). Predictions are simultaneously
//! checked bit-exact against the sequential executor, and the captured
//! trace is rendered as a Gantt chart so the overlap is visible.
//!
//! Exits non-zero on any violated bound — invoked from
//! `scripts/verify.sh` as the CI overlap gate.

use dlrm_bench::harness::{replicated_cluster, smoke_spec};
use dlrm_core::model::graph::NoopObserver;
use dlrm_core::model::{rm, Workspace};
use dlrm_core::serving::engine_trace::RpcTracingObserver;
use dlrm_core::serving::fault::FaultPlan;
use dlrm_core::sharding::{plan, ShardingStrategy};
use dlrm_core::trace::{gantt, TraceId};
use dlrm_core::workload::{materialize_request, PoolingProfile, TraceDb};
use std::time::{Duration, Instant};

/// Injected per-shard service delay. Chosen large against the model's
/// dense compute at this batch size, so the serial-vs-overlap gap is
/// dominated by the delays and the 0.8 bound has real slack.
const DELAY_MS: u64 = 60;
/// Overlap bound from the acceptance criteria: wall-clock must be below
/// this fraction of the serial sum of delays.
const BOUND_FRACTION: f64 = 0.8;

fn main() {
    let spec = smoke_spec(rm::rm1(), 2 << 20, 8.0, 4);
    let profile = PoolingProfile::from_spec(&spec);
    let p = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(2)).expect("plan");
    let delay = Duration::from_millis(DELAY_MS);
    let (dist, pool) = replicated_cluster(&spec, &p, 7, 1, delay, &FaultPlan::none());
    assert!(pool.len() >= 2, "smoke needs ≥2 shards");

    let db = TraceDb::generate(&spec, 1, 5);
    let batch = &materialize_request(&spec, db.get(0), 4, 5)[0];

    // Reference: the strictly sequential executor on the same inputs.
    let mut ws_seq = Workspace::new();
    batch.load_into(&spec, &mut ws_seq);
    let mut ws_ovl = ws_seq.clone();
    let sequential_start = Instant::now();
    let expected = dist.run(&mut ws_seq, &mut NoopObserver).expect("sequential run");
    let sequential_wall = sequential_start.elapsed();

    // Measured: the overlap scheduler, traced.
    let mut obs = RpcTracingObserver::new(TraceId(0));
    let overlapped_start = Instant::now();
    let got = dist.run_overlapped(&mut ws_ovl, &mut obs).expect("overlapped run");
    let overlapped_wall = overlapped_start.elapsed();
    let rpcs = obs.rpc_count() as usize;
    let collector = obs.finish();

    let summaries = pool.replica_rpc_summaries();
    pool.shutdown();

    println!("{}", gantt::render(&collector, TraceId(0), 64));
    println!("per-shard RPC instrumentation:");
    for s in &summaries {
        println!("  {s}");
    }
    assert_eq!(rpcs, dist.rpc_ops_per_inference(), "all RPC ops traced");

    let serial_floor = delay * rpcs as u32;
    let bound = serial_floor.mul_f64(BOUND_FRACTION);
    println!(
        "\n{rpcs} RPCs × {DELAY_MS} ms injected delay: serial floor {:.1} ms, \
         bound {:.1} ms\n  sequential executor: {:.1} ms\n  overlap scheduler:   {:.1} ms",
        serial_floor.as_secs_f64() * 1e3,
        bound.as_secs_f64() * 1e3,
        sequential_wall.as_secs_f64() * 1e3,
        overlapped_wall.as_secs_f64() * 1e3,
    );

    if got != expected {
        eprintln!("FAIL: overlapped predictions differ from sequential");
        std::process::exit(1);
    }
    if rpcs < 2 {
        eprintln!("FAIL: expected ≥2 RPC ops, got {rpcs}");
        std::process::exit(1);
    }
    if overlapped_wall >= bound {
        eprintln!(
            "FAIL: overlap not demonstrated: {:.1} ms ≥ {:.1} ms bound",
            overlapped_wall.as_secs_f64() * 1e3,
            bound.as_secs_f64() * 1e3
        );
        std::process::exit(1);
    }
    let max_in_flight = summaries.iter().map(|s| s.max_in_flight).max().unwrap_or(0);
    let total_calls: u64 = summaries.iter().map(|s| s.calls).sum();
    if total_calls != (rpcs * 2) as u64 {
        // Each RPC op ran twice: once sequential, once overlapped.
        eprintln!("FAIL: expected {} shard calls, instrumentation saw {total_calls}", rpcs * 2);
        std::process::exit(1);
    }
    if max_in_flight < 1 {
        eprintln!("FAIL: in-flight instrumentation recorded nothing");
        std::process::exit(1);
    }
    println!("\nOK: shard RPCs overlap (bit-exact with sequential execution)");
}
