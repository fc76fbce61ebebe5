//! QPS sweep over the open-loop serving frontend: latency-bounded
//! throughput in the DeepRecSys sense.
//!
//! Sweeps the offered Poisson arrival rate against a fixed 2-shard
//! distributed RM1 and reports, per point: SLA hit rate, latency-bounded
//! QPS (SLA-meeting completions per second), shed count, the
//! queueing/batching/compute delay breakdown, and the e2e latency tail
//! (p50/p90/p99/p99.9). The paper-style story: as offered load
//! approaches capacity, queueing delay — not compute — takes over the
//! tail, and past saturation admission control sheds the difference.
//!
//! Measured wall-clock latencies vary machine to machine; the *shape*
//! (hit-rate cliff, shed onset, queue-wait blow-up) is the reproducible
//! part.

use dlrm_bench::harness::{replicated_cluster, smoke_spec};
use dlrm_core::model::rm;
use dlrm_core::serving::fault::FaultPlan;
use dlrm_core::serving::frontend::{
    materialize_frontend_requests, run_frontend, FrontendConfig,
};
use dlrm_core::sharding::{plan, ShardingStrategy};
use dlrm_core::workload::{ArrivalSchedule, PoolingProfile, TraceDb};
use std::time::Duration;

const SEED: u64 = 23;
const REQUESTS: usize = 48;

fn main() {
    println!("frontend QPS sweep: open-loop Poisson vs 2-shard RM1, SLA 150 ms");
    println!("(latency-bounded QPS counts only SLA-meeting completions)\n");

    let spec = smoke_spec(rm::rm1(), 1 << 20, 4.0, 8);
    let profile = PoolingProfile::from_spec(&spec);
    let p = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(2)).expect("plan");
    let (dist, pool) = replicated_cluster(&spec, &p, SEED, 1, Duration::ZERO, &FaultPlan::none());
    let db = TraceDb::generate(&dist.spec, REQUESTS, SEED);
    let cfg = FrontendConfig {
        queue_capacity: 16,
        max_batch_requests: 4,
        sla: Duration::from_millis(150),
        workers: 2,
        ..FrontendConfig::default()
    };

    println!(
        "{:>8} | {:>8} {:>10} {:>5} | {:>9} {:>9} {:>9} | e2e tail (ms)",
        "offered", "hit rate", "lat-bnd", "shed", "q-wait", "b-wait", "compute"
    );
    for qps in [10.0, 30.0, 60.0, 120.0, 300.0] {
        let requests = materialize_frontend_requests(&dist.spec, &db, SEED ^ 1);
        let schedule = ArrivalSchedule::poisson(requests.len(), qps, SEED ^ 2);
        let mut report = run_frontend(&dist, requests, &schedule, &cfg);
        let tail = report.tail();
        println!(
            "{:>6.0}/s | {:>8.4} {:>8.1}/s {:>5} | {:>7.2}ms {:>7.2}ms {:>7.2}ms | {}",
            qps,
            report.sla_hit_rate(),
            report.latency_bounded_qps(),
            report.shed,
            report.queue_wait_ms.mean(),
            report.batch_wait_ms.mean(),
            report.compute_ms.mean(),
            tail,
        );
    }
    println!("\ndiurnal trace-replay at the knee (same mean rate, ±25% rate swing):");
    {
        let requests = materialize_frontend_requests(&dist.spec, &db, SEED ^ 1);
        let schedule =
            ArrivalSchedule::trace_replay(requests.len(), 60.0, 0.25, 5.0, SEED ^ 3);
        let mut report = run_frontend(&dist, requests, &schedule, &cfg);
        let tail = report.tail();
        println!(
            "  60/s diurnal | hit rate {:.4} | lat-bnd {:.1}/s | shed {} | {}",
            report.sla_hit_rate(),
            report.latency_bounded_qps(),
            report.shed,
            tail,
        );
    }
    pool.shutdown();
}
