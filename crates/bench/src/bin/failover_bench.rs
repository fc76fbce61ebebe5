//! Failover benchmark: what hedging buys under a slow replica.
//!
//! One sparse shard served by 2 replicas, one of which stalls every
//! fourth request it serves (an intermittent straggler — the
//! tail-at-scale failure shape). A closed loop drives single-request
//! inferences through the replicated transport twice — once with
//! retries only, once with straggler hedging — and reports the e2e
//! latency p50/p99 of each. Without hedging, every RPC unlucky enough
//! to hit a stall eats the full delay, so the tail absorbs it; with
//! hedging, the duplicate attempt races the straggler and the healthy
//! replica wins the tail back while the median stays put (the
//! tail-at-scale recipe the paper's §VII serving tier assumes).
//!
//! Emits `BENCH_chaos.json` at the repo root — one record per
//! (config, percentile) — alongside a human-readable comparison. Not a
//! verify gate: numbers here are wall-clock and machine-dependent.

use dlrm_bench::harness::{replicated_cluster, smoke_spec};
use dlrm_bench::report::{write_bench_json, BenchRecord};
use dlrm_core::model::graph::NoopObserver;
use dlrm_core::model::{rm, ModelSpec, Workspace};
use dlrm_core::serving::fault::{FaultAction, FaultPlan, ReplicaFaultSchedule};
use dlrm_core::serving::frontend::materialize_whole;
use dlrm_core::sharding::{plan, RpcPolicy, ShardingStrategy};
use dlrm_core::workload::{PoolingProfile, TraceDb};
use std::time::{Duration, Instant};

const SEED: u64 = 31;
const REQUESTS: usize = 80;
/// The injected stall on replica 0's straggling requests.
const STALL_MS: u64 = 20;
/// Replica 0 stalls every `STALL_PERIOD`-th request it serves.
const STALL_PERIOD: u64 = 4;

fn spec() -> ModelSpec {
    smoke_spec(rm::rm1(), 1 << 20, 4.0, 4)
}

/// Runs `REQUESTS` closed-loop inferences under `policy` against a
/// 2-replica shard whose replica 0 stalls periodically. Returns
/// per-request e2e nanoseconds.
fn run_config(policy: RpcPolicy) -> Vec<f64> {
    let spec = spec();
    let profile = PoolingProfile::from_spec(&spec);
    let p = plan(&spec, &profile, ShardingStrategy::OneShard).expect("plan");
    let mut schedule = ReplicaFaultSchedule::none();
    let mut ordinal = 0;
    // Enough stall points to cover every request replica 0 could see,
    // hedges included.
    while ordinal < (REQUESTS as u64) * 16 {
        schedule = schedule.with(ordinal, FaultAction::Delay(Duration::from_millis(STALL_MS)));
        ordinal += STALL_PERIOD;
    }
    let faults = FaultPlan::none().with(0, 0, schedule);
    let (mut dist, pool) = replicated_cluster(&spec, &p, SEED, 2, Duration::ZERO, &faults);
    assert!(dist.set_rpc_policy(policy) >= 1);

    let db = TraceDb::generate(&spec, REQUESTS, SEED);
    let mut samples = Vec::with_capacity(REQUESTS);
    for i in 0..REQUESTS {
        let inputs = materialize_whole(&spec, db.get(i), SEED ^ 7);
        let mut ws = Workspace::new();
        inputs.load_into(&spec, &mut ws);
        let start = Instant::now();
        dist.run_overlapped(&mut ws, &mut NoopObserver)
            .expect("request under a slow-but-alive replica");
        samples.push(start.elapsed().as_secs_f64() * 1e9);
    }
    pool.shutdown();
    samples
}

/// The p-th percentile (nearest-rank) of `samples`.
fn percentile(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.saturating_sub(1).min(samples.len() - 1)]
}

fn main() {
    // Retries only: a stalled reply is still a reply, so every RPC that
    // lands on a stall point eats the full delay.
    let no_hedge = RpcPolicy::resilient();
    // Hedged: duplicate the attempt if no reply within a tenth of the
    // stall; the healthy replica's answer wins the race.
    let hedged = RpcPolicy::resilient().with_hedge_from_p99_ms(STALL_MS as f64 * 0.1);

    let mut records = Vec::new();
    println!("==== chaos: straggling-replica failover, {REQUESTS} closed-loop requests ====");
    println!(
        "(replica 0 of 2 stalls +{STALL_MS} ms on every {STALL_PERIOD}th request it serves)\n"
    );
    for (label, policy) in [("no_hedge", no_hedge), ("with_hedge", hedged)] {
        let mut samples = run_config(policy);
        let p50 = percentile(&mut samples, 50.0);
        let p99 = percentile(&mut samples, 99.0);
        println!(
            "{label:<12} p50 {:8.3} ms   p99 {:8.3} ms",
            p50 / 1e6,
            p99 / 1e6
        );
        records.push(BenchRecord::tail(
            format!("chaos_slow_replica_{label}"),
            p50,
            p99,
        ));
    }

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_chaos.json");
    write_bench_json(&path, &records).expect("write BENCH_chaos.json");
    println!("\nwrote {}", path.display());
}
