//! Frontend smoke test: the open-loop serving frontend end to end.
//!
//! Three phases against 2 thread-backed sparse shards:
//!
//! 1. **Light load** — Poisson arrivals the pipeline can absorb, queue
//!    sized to admit everything. Asserts: zero prediction mismatches
//!    against solo per-request runs (batching is semantically
//!    invisible), exact admission accounting
//!    (`offered == admitted + shed`, `completed + failed == admitted`),
//!    SLA hit rate inside a pinned band, **no request held for
//!    company** (batching is work-conserving: a batch closes at the
//!    one instant its record says it was picked up, and the run ends two orders of magnitude
//!    before the 60 s `batch_timeout` it is configured with could
//!    fire), and a Gantt render showing the queue-wait/batch rows next
//!    to the executor's RPC rows.
//! 2. **Burst** — the same requests offered at ≥ 100× the service rate
//!    into a queue that holds them all. Asserts the backlog rides in
//!    full batches (mean batch ≥ cap − 1) with bit-exact predictions:
//!    batches grow exactly when the workers are the bottleneck.
//! 3. **Overload** — injected shard delay, tiny admission queue, and an
//!    arrival rate far above service capacity. Asserts load shedding
//!    actually engages and the accounting identities still close.
//!
//! Wall-clock latencies vary run to run, so the gates pin identities
//! and generous bands, never exact times. Exits non-zero on any
//! violation — invoked from `scripts/verify.sh` as the frontend gate.

use dlrm_bench::harness::{fail, predictions_on, replicated_cluster, smoke_spec};
use dlrm_core::model::rm;
use dlrm_core::serving::fault::FaultPlan;
use dlrm_core::serving::frontend::{
    materialize_frontend_requests, run_frontend, serve, EpochSource, FrontendConfig,
    FrontendReport, Lane,
};
use dlrm_core::serving::replica::ReplicatedShardPool;
use dlrm_core::sharding::{plan, DistributedModel, ShardingStrategy};
use dlrm_core::tensor::Matrix;
use dlrm_core::trace::{gantt, SpanKind, TraceId};
use dlrm_core::workload::{ArrivalSchedule, PoolingProfile, TraceDb};
use std::time::Duration;

const SEED: u64 = 17;
/// Pinned SLA hit-rate band for the light-load phase. The SLA (250 ms)
/// is enormous against this model's per-batch compute, so anything
/// below 0.9 means the pipeline itself is broken, not noisy.
const LIGHT_HIT_RATE_MIN: f64 = 0.9;
/// The light-load schedule spans ~0.8 s; a frontend that held any
/// request for its (60 s) `batch_timeout` would overshoot this 30-fold.
const LIGHT_WALL_MAX_MS: f64 = 2_000.0;

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
        // Nothing may wait on this: see LIGHT_WALL_MAX_MS.
        batch_timeout: Duration::from_secs(60),
        sla: Duration::from_millis(500),
        workers: 2,
    };
    let lane = Lane::new(EpochSource::Pinned(&dist), requests.clone(), &schedule, &cfg);
    let run = serve(vec![lane], cfg.max_batch_requests, cfg.workers, None)
        .pop()
        .expect("one lane in, one run out");
    if run.batches.iter().any(|b| b.members.iter().any(|m| m.enqueued_ms > b.picked_ms)) {
        fail("a batch closed at a pickup before one of its members was admitted");
    }
    let report = run.into_report();

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
    let mismatches = |report: &FrontendReport| {
        let differs = |(id, pred): &&(u64, Matrix)| {
            let (_, want) = expected.iter().find(|(e, _)| e == id).expect("known id");
            pred != want
        };
        report.predictions.iter().filter(differs).count()
    };
    if mismatches(&report) != 0 {
        fail("batched predictions differ from solo runs");
    }
    let hit_rate = report.sla_hit_rate();
    if !(LIGHT_HIT_RATE_MIN..=1.0).contains(&hit_rate) {
        fail(&format!(
            "SLA hit rate {hit_rate:.4} outside pinned band [{LIGHT_HIT_RATE_MIN}, 1.0]"
        ));
    }
    if report.wall_ms > LIGHT_WALL_MAX_MS {
        fail("light load overran its wall-clock ceiling: something held requests on a timer");
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

    // ---- Phase 2: burst — a backlog rides in full batches. ----
    let schedule = ArrivalSchedule::poisson(n, 100_000.0, SEED ^ 4);
    let cfg = FrontendConfig { workers: 1, ..cfg };
    let report = run_frontend(&dist, requests, &schedule, &cfg);
    pool.shutdown();

    println!("== phase 2: burst ({n} requests, Poisson 100k qps, 1 worker) ==");
    print!("{report}");

    if report.shed != 0 || report.failed != 0 || report.completed != n as u64 {
        fail("burst: not every request completed despite a full-size queue");
    }
    if mismatches(&report) != 0 {
        fail("burst: merged predictions differ from solo runs");
    }
    if report.mean_batch_requests < (cfg.max_batch_requests - 1) as f64 {
        fail("burst: mean batch below cap - 1: pickups left queued requests behind");
    }

    // ---- Phase 3: overload — shedding must engage. ----
    let (dist, pool, db) = build(Duration::from_millis(20));
    let requests = materialize_frontend_requests(&dist.spec, &db, SEED ^ 1);
    let n = requests.len();
    let schedule = ArrivalSchedule::poisson(n, 5000.0, SEED ^ 3);
    let cfg = FrontendConfig {
        queue_capacity: 2,
        max_batch_requests: 2,
        sla: Duration::from_millis(25),
        workers: 1,
        ..FrontendConfig::default()
    };
    let report = run_frontend(&dist, requests, &schedule, &cfg);
    pool.shutdown();

    println!("== phase 3: overload ({n} requests, Poisson 5000 qps, 20 ms shard delay) ==");
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

    println!(
        "\nOK: frontend batching bit-exact and work-conserving (no hold under light load, \
         full batches under backlog), accounting closed, shedding engages under overload"
    );
}
