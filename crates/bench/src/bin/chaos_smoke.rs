//! Chaos smoke test: the fault-tolerant transport end to end, gated in
//! `scripts/verify.sh`.
//!
//! Three phases against 3 sparse shards × 2 replicas each:
//!
//! 1. **Replica faults** — a seeded [`FaultPlan`] crashes one replica
//!    of every shard mid-run and makes one surviving replica slow.
//!    Under the resilient retry policy with hedging, the frontend must
//!    hold availability ≥ 99% with *zero* degraded responses, and every
//!    completed prediction must be bit-exact against a fault-free solo
//!    run — failover may change which replica answers, never the
//!    answer.
//! 2. **Total shard outage** — every replica of every shard is crashed
//!    from the first request. Degraded-mode serving must engage: all
//!    admitted requests complete (as degraded, zero-embedding
//!    responses), none fail.
//! 3. **Determinism** — rerunning phase 2 with the same seeds must
//!    reproduce identical outcome counts (offered / admitted / shed /
//!    completed / failed / degraded).
//!
//! Wall-clock latencies vary run to run; the gates pin accounting
//! identities, availability floors and bit-exactness, never times.

use dlrm_bench::harness::{check_identities, fail, replicated_cluster, smoke_spec, solo_predictions};
use dlrm_core::model::{rm, ModelSpec};
use dlrm_core::serving::fault::{FaultAction, FaultPlan, ReplicaFaultSchedule};
use dlrm_core::serving::frontend::{
    materialize_frontend_requests, run_frontend, FrontendConfig, FrontendReport,
};
use dlrm_core::sharding::{plan, RpcPolicy, ShardingStrategy};
use dlrm_core::workload::{ArrivalSchedule, PoolingProfile, TraceDb};
use std::time::Duration;

const SEED: u64 = 23;
const SHARDS: usize = 3;
const REPLICAS: usize = 2;
const AVAILABILITY_FLOOR: f64 = 0.99;

fn spec() -> ModelSpec {
    smoke_spec(rm::rm1(), 1 << 20, 4.0, 8)
}

/// Builds the replicated cluster under `faults` and runs one open-loop
/// frontend pass, attaching the pool's transport summary to the report.
fn run_cluster(faults: &FaultPlan, policy: RpcPolicy, qps: f64) -> (FrontendReport, usize) {
    let spec = spec();
    let profile = PoolingProfile::from_spec(&spec);
    let p = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(SHARDS)).expect("plan");
    let (mut dist, pool) = replicated_cluster(&spec, &p, SEED, REPLICAS, Duration::ZERO, faults);
    if dist.set_rpc_policy(policy) == 0 {
        fail("no SparseRpc operator accepted the policy");
    }

    let db = TraceDb::generate(&spec, 24, SEED);
    let requests = materialize_frontend_requests(&spec, &db, SEED ^ 1);
    let n = requests.len();
    let schedule = ArrivalSchedule::poisson(n, qps, SEED ^ 2);
    let cfg = FrontendConfig {
        queue_capacity: n, // everything fits: shed must be zero
        max_batch_requests: 4,
        sla: Duration::from_millis(500),
        workers: 2,
        ..FrontendConfig::default()
    };
    let mut report = run_frontend(&dist, requests, &schedule, &cfg);
    report.transport = Some(pool.transport_summary());
    pool.shutdown();
    (report, n)
}

/// Phase-1 baseline: the same trace on a fault-free in-process
/// partition of the same plan.
fn baseline(spec: &ModelSpec) -> Vec<(u64, dlrm_core::tensor::Matrix)> {
    let profile = PoolingProfile::from_spec(spec);
    let p = plan(spec, &profile, ShardingStrategy::CapacityBalanced(SHARDS)).expect("plan");
    let db = TraceDb::generate(spec, 24, SEED);
    let requests = materialize_frontend_requests(spec, &db, SEED ^ 1);
    solo_predictions(spec, &p, SEED, &requests)
}

fn main() {
    // ---- Phase 1: one replica of each shard crashes mid-run, one
    // ---- surviving replica is slow; availability must hold. ----
    let mut faults = FaultPlan::none();
    for shard in 0..SHARDS {
        faults = faults.with(shard, 0, ReplicaFaultSchedule::crash_at(2 + shard as u64));
    }
    // Shard 0's surviving replica answers, but slowly: the straggler
    // tail the hedge is for.
    faults = faults.with(
        0,
        1,
        ReplicaFaultSchedule::none().with_every(FaultAction::Delay(Duration::from_millis(2))),
    );
    let policy = RpcPolicy::resilient().with_hedge_from_p99_ms(1.0);
    let (report, n) = run_cluster(&faults, policy, 60.0);

    println!("== phase 1: replica crashes + slow replica ({n} requests) ==");
    print!("{report}");

    check_identities(&report, n, "phase 1");
    let availability = report.availability();
    if availability < AVAILABILITY_FLOOR {
        fail(&format!(
            "availability {availability:.4} under replica faults (floor {AVAILABILITY_FLOOR})"
        ));
    }
    if report.degraded != 0 {
        fail(&format!(
            "{} degraded responses with a healthy replica per shard",
            report.degraded
        ));
    }
    let expected = baseline(&spec());
    let mut mismatches = 0;
    for (id, pred) in &report.predictions {
        let (_, want) = expected.iter().find(|(e, _)| e == id).expect("known id");
        if pred != want {
            mismatches += 1;
        }
    }
    if mismatches != 0 {
        fail(&format!(
            "{mismatches} predictions differ from fault-free solo runs"
        ));
    }
    let transport = report.transport.as_ref().expect("transport summary");
    if transport.failovers == 0 {
        fail("no failovers recorded despite crashed replicas");
    }

    // ---- Phase 2: total outage — degraded-mode serving engages. ----
    let mut outage = FaultPlan::none();
    for shard in 0..SHARDS {
        for replica in 0..REPLICAS {
            outage = outage.with(shard, replica, ReplicaFaultSchedule::crash_at(0));
        }
    }
    let (report, n) = run_cluster(&outage, RpcPolicy::resilient(), 200.0);

    println!("\n== phase 2: total shard outage ({n} requests) ==");
    print!("{report}");

    check_identities(&report, n, "phase 2");
    if report.failed != 0 {
        fail(&format!(
            "{} requests failed during a total outage: degraded fallback did not engage",
            report.failed
        ));
    }
    if report.degraded != report.completed || report.degraded == 0 {
        fail(&format!(
            "expected every completion degraded, got {}/{}",
            report.degraded, report.completed
        ));
    }
    if report.sla_hit_count != 0 {
        fail("degraded responses must not count as SLA hits");
    }

    // ---- Phase 3: same seeds, same outcome counts. ----
    let (rerun, _) = run_cluster(&outage, RpcPolicy::resilient(), 200.0);
    let counts = |r: &FrontendReport| {
        (
            r.offered, r.admitted, r.shed, r.completed, r.failed, r.degraded,
        )
    };
    if counts(&report) != counts(&rerun) {
        fail(&format!(
            "same-seed rerun diverged: {:?} vs {:?}",
            counts(&report),
            counts(&rerun)
        ));
    }
    println!("\n== phase 3: same-seed rerun reproduced {:?} ==", counts(&rerun));

    println!(
        "\nOK: availability {availability:.4} under replica faults, degraded-mode serving on total outage, deterministic outcome counts"
    );
}
