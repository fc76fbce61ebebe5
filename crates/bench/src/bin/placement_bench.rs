//! Placement benchmark: what statistics-driven sharding buys.
//!
//! For RM1/RM2/RM3 under two Zipf skews, the same open-loop frontend
//! traffic runs against three 2-shard placements — capacity-balanced,
//! load-balanced, and hot-row-aware (whole-table LPT by residual access
//! weight plus a client-side hot-row cache tier) — over the threaded
//! replica transport. Reported per configuration:
//!
//! - end-to-end latency p50/p99 and latency-bounded QPS (DeepRecSys
//!   figure of merit), and
//! - RPC fan-out as embedding rows sent over the wire per offered
//!   request — the quantity the cache tier exists to shrink.
//!
//! Emits `BENCH_placement.json` at the repo root. Latencies are
//! wall-clock and machine-dependent; the row counts are deterministic.
//! The correctness side (bit-exactness, hit-rate band, conservation)
//! is gated by `cache_smoke` in `scripts/verify.sh`; this bin measures.

use dlrm_bench::harness::{replicated_cluster, smoke_spec};
use dlrm_bench::report::{write_bench_json, BenchRecord};
use dlrm_core::model::{rm, ModelSpec};
use dlrm_core::serving::fault::FaultPlan;
use dlrm_core::serving::frontend::{run_frontend, FrontendConfig, FrontendRequest};
use dlrm_core::sharding::{plan, plan_with_stats, HotRowConfig, ShardingPlan, ShardingStrategy};
use dlrm_core::workload::{
    materialize_request_with, ArrivalSchedule, IndexDist, PoolingProfile, RowStats, TraceDb,
};
use std::time::Duration;

const SEED: u64 = 71;
const SHARDS: usize = 2;
const REQUESTS: usize = 24;
const SKEWS: [f64; 2] = [0.8, 1.2];

fn specs() -> Vec<ModelSpec> {
    [rm::rm1(), rm::rm2(), rm::rm3()]
        .into_iter()
        .map(|m| smoke_spec(m, 1 << 20, 4.0, 8))
        .collect()
}

/// Zipf-skewed frontend requests (one engine batch each).
fn skewed_requests(spec: &ModelSpec, skew: f64) -> Vec<FrontendRequest> {
    let db = TraceDb::generate(spec, REQUESTS, SEED ^ 2);
    (0..REQUESTS)
        .map(|i| FrontendRequest {
            id: i as u64,
            inputs: materialize_request_with(
                spec,
                db.get(i),
                usize::MAX,
                SEED ^ 3,
                IndexDist::Zipf(skew),
            )
            .into_iter()
            .next()
            .expect("one engine batch per request"),
        })
        .collect()
}

struct Measured {
    p50_ns: f64,
    p99_ns: f64,
    qps: f64,
    rows_per_req: f64,
    cache_hit_rate: Option<f64>,
}

/// One open-loop frontend pass of `requests` over a replicated
/// deployment of `p`.
fn run_config(spec: &ModelSpec, p: &ShardingPlan, requests: Vec<FrontendRequest>) -> Measured {
    let (dist, pool) = replicated_cluster(spec, p, SEED, 1, Duration::ZERO, &FaultPlan::none());

    let n = requests.len();
    let schedule = ArrivalSchedule::poisson(n, 600.0, SEED ^ 4);
    let cfg = FrontendConfig {
        queue_capacity: n,
        max_batch_requests: 4,
        sla: Duration::from_millis(250),
        workers: 2,
        ..FrontendConfig::default()
    };
    let mut report = run_frontend(&dist, requests, &schedule, &cfg);
    let summary = pool.transport_summary();
    pool.shutdown();

    let tail = report.tail();
    Measured {
        p50_ns: tail.p50 * 1e6,
        p99_ns: tail.p99 * 1e6,
        qps: report.latency_bounded_qps(),
        rows_per_req: summary.rows_sent as f64 / report.offered.max(1) as f64,
        cache_hit_rate: (!summary.cache.is_zero()).then(|| summary.cache.hit_rate()),
    }
}

fn main() {
    let mut records = Vec::new();
    println!("==== placement: capacity vs load-balanced vs hot-row-aware ({SHARDS} shards) ====");
    for spec in specs() {
        let profile = PoolingProfile::from_spec(&spec);
        for skew in SKEWS {
            let stats = RowStats::for_spec(&spec, 4_000, skew, SEED);
            let plans: Vec<(&str, ShardingPlan)> = vec![
                (
                    "cb2",
                    plan(&spec, &profile, ShardingStrategy::CapacityBalanced(SHARDS))
                        .expect("capacity plan"),
                ),
                (
                    "lb2",
                    plan(&spec, &profile, ShardingStrategy::LoadBalanced(SHARDS))
                        .expect("load plan"),
                ),
                (
                    "hra2",
                    plan_with_stats(
                        &spec,
                        &profile,
                        ShardingStrategy::HotRowAware(SHARDS),
                        &stats,
                        &HotRowConfig {
                            coverage: 0.95,
                            budget_fraction: 0.5,
                        },
                    )
                    .expect("hot-row plan"),
                ),
            ];
            println!("\n-- {} Zipf({skew}) --", spec.name);
            for (label, p) in plans {
                let m = run_config(&spec, &p, skewed_requests(&spec, skew));
                let name = format!("placement_{}_z{skew}_{label}", spec.name.to_lowercase());
                println!(
                    "{label:<5} p50 {:8.2} ms  p99 {:8.2} ms  {:7.1} qps  {:9.1} rows/req{}",
                    m.p50_ns / 1e6,
                    m.p99_ns / 1e6,
                    m.qps,
                    m.rows_per_req,
                    m.cache_hit_rate
                        .map(|h| format!("  (cache hit rate {h:.3})"))
                        .unwrap_or_default(),
                );
                let mut rec = BenchRecord::tail(&name, m.p50_ns, m.p99_ns);
                rec.throughput = Some(("qps".into(), m.qps));
                records.push(rec);
                records.push(BenchRecord::scalar(
                    format!("{name}_wire_rows"),
                    m.rows_per_req,
                    "rows/request",
                ));
            }
        }
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_placement.json");
    write_bench_json(&path, &records).expect("write BENCH_placement.json");
    println!("\nwrote {}", path.display());
}
