//! Rebalance benchmark: what a live cutover costs.
//!
//! A closed request loop runs against an [`EpochSwitch`] while a
//! [`Rebalancer`] profiles the traffic, warms a successor plan, and
//! cuts over. Each request is timestamped and attributed to the epoch
//! that served it, so the run splits cleanly into *steady state* and
//! the *migration window* (the `total_ms` preceding the first
//! new-epoch response). Reported per model scale:
//!
//! - request e2e p50/p99 in steady state vs inside the migration
//!   window — the latency tax of warming + dual-reading while serving;
//! - availability inside the migration window (completed / attempted);
//! - migration phase timings (warm, dual-read, total) against the
//!   bytes of embedding capacity the cutover re-homed — since shards
//!   rebuild statelessly from the seed, this is the *capacity
//!   re-homing rate*, the paper's scale-out cost knob (§III-A1).
//!
//! Emits `BENCH_rebalance.json` at the repo root. Not a verify gate:
//! numbers here are wall-clock and machine-dependent.

use dlrm_bench::report::{write_bench_json, BenchRecord};
use dlrm_core::model::graph::NoopObserver;
use dlrm_core::model::{rm, ModelSpec, Workspace};
use dlrm_core::serving::rebalance::{
    build_epoch_serving, EpochSwitch, RebalanceConfig, Rebalancer,
};
use dlrm_core::sharding::rpc::RpcPolicy;
use dlrm_core::sharding::{plan, HotRowConfig, ShardingStrategy};
use dlrm_core::workload::{
    materialize_request_with, BatchInputs, IndexDist, OnlineProfiler, PoolingProfile, TraceDb,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 91;
const SHARDS: usize = 2;
const INPUTS: usize = 48;
const MIN_SAMPLES: usize = 400;
const MAX_SAMPLES: usize = 1600;
const SKEW: f64 = 1.2;

fn spec_at(bytes: u64) -> ModelSpec {
    let mut spec = rm::rm1().scaled_to_bytes(bytes);
    spec.mean_items_per_request = 6.0;
    spec.default_batch_size = 4;
    spec
}

fn deterministic_policy() -> RpcPolicy {
    RpcPolicy {
        attempt_timeout: None,
        max_attempts: 4,
        backoff_base: Duration::from_micros(100),
        backoff_cap: Duration::from_millis(1),
        hedge_after: None,
        degraded_fallback: true,
    }
}

fn skewed_inputs(spec: &ModelSpec) -> Vec<BatchInputs> {
    let db = TraceDb::generate(spec, INPUTS, SEED);
    (0..INPUTS)
        .map(|i| {
            materialize_request_with(spec, db.get(i), usize::MAX, SEED ^ 3, IndexDist::Zipf(SKEW))
                .into_iter()
                .next()
                .expect("one engine batch per request")
        })
        .collect()
}

struct ScaleResult {
    steady_ns: Vec<f64>,
    cutover_ns: Vec<f64>,
    cutover_attempted: usize,
    cutover_completed: usize,
    warm_ms: f64,
    dual_read_ms: f64,
    total_ms: f64,
    moved_bytes: u64,
}

/// One scale: serve a closed loop through one live migration, split the
/// samples at the migration window, and return the timings.
fn run_scale(bytes: u64) -> ScaleResult {
    let spec = spec_at(bytes);
    let profile = PoolingProfile::from_spec(&spec);
    let initial =
        plan(&spec, &profile, ShardingStrategy::CapacityBalanced(SHARDS)).expect("initial plan");
    let cfg = RebalanceConfig {
        profile_min_accesses: 200,
        dual_read_requests: 3,
        dual_read_seed: SEED ^ 17,
        hot_rows: HotRowConfig {
            coverage: 0.95,
            budget_fraction: 0.5,
        },
        cooldown_ticks: 0,
        max_migrations: 1,
        // Autoscaling off: this bench isolates the migration cost.
        scale_up_rows_per_tick: u64::MAX,
        scale_down_rows_per_tick: 0,
        rpc_policy: Some(deterministic_policy()),
        ..RebalanceConfig::default()
    };
    let epoch0 = build_epoch_serving(&spec, &initial, SEED, 1, &cfg).expect("build epoch 0");
    let switch = Arc::new(EpochSwitch::new(epoch0));
    let profiler = Arc::new(OnlineProfiler::for_spec(&spec));
    let rebalancer = Rebalancer::new(
        spec.clone(),
        SEED,
        Arc::clone(&switch),
        Arc::clone(&profiler),
        cfg,
    )
    .spawn(Duration::from_millis(5));

    let inputs = skewed_inputs(&spec);
    let origin = Instant::now();
    // (offset_ms, e2e_ns, epoch, ok) per attempted request.
    let mut samples: Vec<(f64, f64, u64, bool)> = Vec::with_capacity(MIN_SAMPLES);
    let mut i = 0usize;
    loop {
        let inp = &inputs[i % inputs.len()];
        profiler.observe(inp);
        let started = Instant::now();
        let current = switch.current();
        let mut ws = Workspace::new();
        inp.load_into(&spec, &mut ws);
        let ok = current.model.run_overlapped(&mut ws, &mut NoopObserver).is_ok();
        samples.push((
            started.duration_since(origin).as_secs_f64() * 1e3,
            started.elapsed().as_nanos() as f64,
            current.epoch,
            ok,
        ));
        drop(current);
        i += 1;
        let migrated = samples.last().is_some_and(|s| s.2 >= 1);
        if (migrated && i >= MIN_SAMPLES) || i >= MAX_SAMPLES {
            break;
        }
    }
    let report = rebalancer.stop();
    let m = report
        .migrations
        .iter()
        .find(|m| !m.aborted)
        .expect("bench run must complete one migration");

    // The migration window: `total_ms` ending at the first response
    // served by the new epoch.
    let cut_at = samples
        .iter()
        .find(|s| s.2 >= 1)
        .map(|s| s.0)
        .expect("loop ran until cutover");
    let window = (cut_at - m.total_ms, cut_at);
    let mut steady_ns = Vec::new();
    let mut cutover_ns = Vec::new();
    let mut cutover_attempted = 0usize;
    let mut cutover_completed = 0usize;
    for &(at, ns, _, ok) in &samples {
        if at >= window.0 && at < window.1 {
            cutover_attempted += 1;
            cutover_completed += usize::from(ok);
            if ok {
                cutover_ns.push(ns);
            }
        } else if ok {
            steady_ns.push(ns);
        }
    }
    ScaleResult {
        steady_ns,
        cutover_ns,
        cutover_attempted,
        cutover_completed,
        warm_ms: m.warm_ms,
        dual_read_ms: m.dual_read_ms,
        total_ms: m.total_ms,
        moved_bytes: m.moved_bytes,
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let scales: [(u64, &str); 2] = [(1 << 20, "1mib"), (1 << 22, "4mib")];
    let mut records = Vec::new();
    for (bytes, label) in scales {
        let mut r = run_scale(bytes);
        r.steady_ns.sort_by(|a, b| a.total_cmp(b));
        r.cutover_ns.sort_by(|a, b| a.total_cmp(b));
        let steady_p50 = percentile(&r.steady_ns, 0.50);
        let steady_p99 = percentile(&r.steady_ns, 0.99);
        let cut_p50 = percentile(&r.cutover_ns, 0.50);
        let cut_p99 = percentile(&r.cutover_ns, 0.99);
        let availability = if r.cutover_attempted == 0 {
            100.0
        } else {
            100.0 * r.cutover_completed as f64 / r.cutover_attempted as f64
        };
        let rehome_rate = r.moved_bytes as f64 / (r.total_ms / 1e3).max(1e-9);

        println!("==== rebalance bench @ {label} ====");
        println!(
            "steady:   {} samples, p50 {:.1} us, p99 {:.1} us",
            r.steady_ns.len(),
            steady_p50 / 1e3,
            steady_p99 / 1e3
        );
        println!(
            "cutover:  {} samples, p50 {:.1} us, p99 {:.1} us, availability {:.2}%",
            r.cutover_ns.len(),
            cut_p50 / 1e3,
            cut_p99 / 1e3,
            availability
        );
        println!(
            "migration: warm {:.1} ms + dual-read {:.1} ms = {:.1} ms total | \
             {:.2} MiB re-homed ({:.1} MiB/s)",
            r.warm_ms,
            r.dual_read_ms,
            r.total_ms,
            r.moved_bytes as f64 / (1 << 20) as f64,
            rehome_rate / (1 << 20) as f64
        );

        records.push(BenchRecord::tail(
            format!("rebalance_request_steady_{label}"),
            steady_p50,
            steady_p99,
        ));
        records.push(BenchRecord::tail(
            format!("rebalance_request_cutover_{label}"),
            cut_p50,
            cut_p99,
        ));
        records.push(BenchRecord::scalar(
            format!("rebalance_availability_cutover_{label}"),
            availability,
            "percent",
        ));
        records.push(BenchRecord::scalar(
            format!("rebalance_migration_warm_{label}"),
            r.warm_ms,
            "ms",
        ));
        records.push(BenchRecord::scalar(
            format!("rebalance_migration_dual_read_{label}"),
            r.dual_read_ms,
            "ms",
        ));
        records.push(BenchRecord::scalar(
            format!("rebalance_migration_total_{label}"),
            r.total_ms,
            "ms",
        ));
        records.push(BenchRecord::scalar(
            format!("rebalance_moved_bytes_{label}"),
            r.moved_bytes as f64,
            "bytes",
        ));
        records.push(BenchRecord::scalar(
            format!("rebalance_rehome_rate_{label}"),
            rehome_rate,
            "bytes_per_sec",
        ));
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_rebalance.json");
    write_bench_json(&path, &records).expect("write BENCH_rebalance.json");
    println!("\nwrote {}", path.display());
}
