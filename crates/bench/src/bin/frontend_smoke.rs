//! Frontend smoke test: the open-loop serving frontend end to end.
//!
//! Two phases against 2 thread-backed sparse shards:
//!
//! 1. **Light load** — Poisson arrivals the pipeline can absorb, queue
//!    sized to admit everything. Asserts: zero prediction mismatches
//!    against solo per-request runs (batching is semantically
//!    invisible), exact admission accounting
//!    (`offered == admitted + shed`, `completed + failed == admitted`),
//!    SLA hit rate inside a pinned band, and a Gantt render showing the
//!    new queue-wait/batch rows next to the executor's RPC rows.
//! 2. **Overload** — injected shard delay, tiny admission queue, and an
//!    arrival rate far above service capacity. Asserts load shedding
//!    actually engages and the accounting identities still close.
//!
//! Wall-clock latencies vary run to run, so the gates pin identities
//! and generous bands, never exact times. Exits non-zero on any
//! violation — invoked from `scripts/verify.sh` as the frontend gate.

use dlrm_bench::harness::{fail, predictions_on, replicated_cluster, smoke_spec};
use dlrm_core::model::rm;
use dlrm_core::serving::fault::FaultPlan;
use dlrm_core::serving::frontend::{materialize_frontend_requests, run_frontend, FrontendConfig};
use dlrm_core::serving::replica::ReplicatedShardPool;
use dlrm_core::sharding::{plan, DistributedModel, ShardingStrategy};
use dlrm_core::trace::{gantt, SpanKind, TraceId};
use dlrm_core::workload::{ArrivalSchedule, PoolingProfile, TraceDb};
use std::time::Duration;

const SEED: u64 = 17;
/// Pinned SLA hit-rate band for the light-load phase. The SLA (250 ms)
/// is enormous against this model's per-batch compute, so anything
/// below 0.9 means the pipeline itself is broken, not noisy.
const LIGHT_HIT_RATE_MIN: f64 = 0.9;

fn build(delay: Duration) -> (DistributedModel, ReplicatedShardPool, TraceDb) {
    // ~36 ms/request at this scale (measured in release): light load at
    // 30 qps sits well inside two workers' capacity, and the 500 ms SLA
    // leaves an order of magnitude of headroom for CI noise.
    let spec = smoke_spec(rm::rm1(), 1 << 20, 4.0, 8);
    let profile = PoolingProfile::from_spec(&spec);
    let p = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(2)).expect("plan");
    let (dist, pool) = replicated_cluster(&spec, &p, SEED, 1, delay, &FaultPlan::none());
    assert!(pool.len() >= 2, "smoke needs ≥2 shards");
    let db = TraceDb::generate(&dist.spec, 24, SEED);
    (dist, pool, db)
}

fn main() {
    // ---- Phase 1: light load, everything admitted, bit-exactness. ----
    let (dist, pool, db) = build(Duration::ZERO);
    let requests = materialize_frontend_requests(&dist.spec, &db, SEED ^ 1);
    let expected = predictions_on(&dist, &requests);
    let n = requests.len();
    let schedule = ArrivalSchedule::poisson(n, 30.0, SEED ^ 2);
    let cfg = FrontendConfig {
        queue_capacity: n, // everything fits: shed must be zero
        max_batch_requests: 4,
        // Long enough that consecutive 30-qps arrivals (mean 33 ms gap)
        // actually co-batch; the 500 ms SLA still dwarfs it.
        batch_timeout: Duration::from_millis(50),
        sla: Duration::from_millis(500),
        workers: 2,
    };
    let report = run_frontend(&dist, requests, &schedule, &cfg);
    pool.shutdown();

    println!("== phase 1: light load ({n} requests, Poisson 30 qps) ==");
    print!("{report}");

    if report.offered != n as u64 || report.offered != report.admitted + report.shed {
        fail("offered != admitted + shed");
    }
    if report.completed + report.failed != report.admitted {
        fail("completed + failed != admitted");
    }
    if report.shed != 0 {
        fail("light load shed requests despite a full-size queue");
    }
    if report.failed != 0 {
        fail("engine failures under light load");
    }
    let mut mismatches = 0;
    for (id, pred) in &report.predictions {
        let (_, want) = expected.iter().find(|(e, _)| e == id).expect("known id");
        if pred != want {
            mismatches += 1;
        }
    }
    if mismatches != 0 {
        fail(&format!("{mismatches} batched predictions differ from solo runs"));
    }
    let hit_rate = report.sla_hit_rate();
    if !(LIGHT_HIT_RATE_MIN..=1.0).contains(&hit_rate) {
        fail(&format!(
            "SLA hit rate {hit_rate:.4} outside pinned band [{LIGHT_HIT_RATE_MIN}, 1.0]"
        ));
    }
    // Some batch must have actually grouped requests, else the batcher
    // degenerated to one-request batches throughout.
    if report.max_batch_requests < 2 {
        fail("no batch ever held ≥2 requests under light load");
    }

    // A lead request's Gantt shows the frontend rows next to the
    // executor's RPC rows.
    let lead = report
        .trace
        .spans()
        .iter()
        .find(|s| matches!(s.kind, SpanKind::RpcOutstanding(_)))
        .map(|s| s.trace)
        .unwrap_or(TraceId(report.predictions[0].0));
    let chart = gantt::render(&report.trace, lead, 64);
    println!("{chart}");
    for needle in ["queue wait", "batch assembly", "batch execute"] {
        if !chart.contains(needle) {
            fail(&format!("Gantt render missing {needle:?} row:\n{chart}"));
        }
    }

    // ---- Phase 2: overload — shedding must engage. ----
    let (dist, pool, db) = build(Duration::from_millis(20));
    let requests = materialize_frontend_requests(&dist.spec, &db, SEED ^ 1);
    let n = requests.len();
    let schedule = ArrivalSchedule::poisson(n, 5000.0, SEED ^ 3);
    let cfg = FrontendConfig {
        queue_capacity: 2,
        max_batch_requests: 2,
        batch_timeout: Duration::from_millis(1),
        sla: Duration::from_millis(25),
        workers: 1,
    };
    let report = run_frontend(&dist, requests, &schedule, &cfg);
    pool.shutdown();

    println!("== phase 2: overload ({n} requests, Poisson 5000 qps, 20 ms shard delay) ==");
    print!("{report}");

    if report.offered != n as u64 || report.offered != report.admitted + report.shed {
        fail("overload: offered != admitted + shed");
    }
    if report.completed + report.failed != report.admitted {
        fail("overload: completed + failed != admitted");
    }
    if report.shed == 0 {
        fail("overload never shed: admission control is not engaging");
    }
    if report.sla_hit_rate() >= 1.0 {
        fail("overload met its SLA perfectly: the gate is not stressing anything");
    }

    println!("\nOK: frontend batching bit-exact, accounting closed, shedding engages under overload");
}
