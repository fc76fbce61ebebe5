//! The chaos properties every replicated transport must keep, written
//! once over the pool they run on ([`Spawn`]), with the helpers they
//! share. `chaos_properties` runs each over worker threads and channels
//! (`ReplicatedShardPool`), `net_properties` over loopback sockets
//! (`TcpShardPool`):
//!
//! 1. **Bit-exactness** — completions that did not degrade are
//!    bit-identical to a fault-free run. Failover, retries and crashed
//!    replicas may change *which* replica answers, never *what* it
//!    answers (every replica of a shard serves the same
//!    [`ShardService`]).
//! 2. **Determinism** — the same fault seed reproduces the same
//!    per-request outcome sequence, run to run, with wall-clock-sensitive
//!    knobs (attempt deadlines, hedging, ejection) disabled.
//! 3. **Accounting** — the frontend's identities close under faults:
//!    `offered == admitted + shed`, `completed + failed == admitted`,
//!    one prediction per completion (retries and hedges never
//!    double-count), and the degraded/availability figures are
//!    consistent with the counts they summarize.
//! 4. **Hedging** — a hedge sent while the primary sits on a slow
//!    replica wins the race.

use dlrm_model::graph::{RpcAttemptKind, RpcOutcome, SparseInput};
use dlrm_model::{build_model, Blob, ModelSpec, NetId, TableId, Workspace};
use dlrm_serving::engine_trace::{RpcTally, RpcTracingObserver};
use dlrm_serving::fault::{FaultPlan, FaultSpec, ReplicaFaultSchedule};
use dlrm_serving::frontend::{
    materialize_frontend_requests, run_frontend, FrontendConfig, FrontendReport,
};
use dlrm_serving::replica::{HealthPolicy, ShardPool, TransportSummary};
use dlrm_sharding::rpc::{RpcFetch, SparseRpc, SparseShardClient};
use dlrm_sharding::{
    partition, plan, DistributedModel, RpcPolicy, ShardService, ShardingPlan, ShardingStrategy,
};
use dlrm_tensor::Matrix;
use dlrm_trace::TraceId;
use dlrm_workload::{materialize_request, ArrivalSchedule, BatchInputs, PoolingProfile, TraceDb};
use std::sync::Arc;
use std::time::Duration;

pub const SEED: u64 = 41;

/// Stands up two replicas of every service, each under its schedule in
/// the fault plan, with the given health knobs.
pub type Spawn<B> = fn(Vec<Arc<ShardService>>, &FaultPlan, HealthPolicy) -> ShardPool<B>;

pub fn chaos_spec() -> ModelSpec {
    let mut spec = dlrm_model::rm::rm1().scaled_to_bytes(1 << 20);
    spec.mean_items_per_request = 6.0;
    spec.default_batch_size = 4;
    spec
}

pub fn capacity_plan(spec: &ModelSpec, shards: usize) -> ShardingPlan {
    let profile = PoolingProfile::from_spec(spec);
    plan(spec, &profile, ShardingStrategy::CapacityBalanced(shards)).expect("plan")
}

/// `spec`'s capacity-balanced plan over `shards` and one service per
/// shard, drawn from [`SEED`].
pub fn services_for(spec: &ModelSpec, shards: usize) -> (ShardingPlan, Vec<Arc<ShardService>>) {
    let p = capacity_plan(spec, shards);
    let model = build_model(spec, SEED).expect("build");
    let services = p
        .shards()
        .map(|s| Arc::new(ShardService::build(&model.tables, &p, s)))
        .collect();
    (p, services)
}

/// `p` over `spawn`'s pool under faults sampled from
/// `fault_seed`/`fault_spec`, with `policy` on every RPC operator.
pub fn faulted_cluster<B>(
    spawn: Spawn<B>,
    spec: &ModelSpec,
    p: &ShardingPlan,
    (fault_seed, fault_spec): (u64, &FaultSpec),
    health: HealthPolicy,
    policy: RpcPolicy,
) -> (DistributedModel, ShardPool<B>) {
    let faults = FaultPlan::sample(fault_seed, p.num_shards(), 2, fault_spec);
    let (mut dist, pool) =
        ShardPool::assemble(spec, p, SEED, |services| Ok(spawn(services, &faults, health)))
            .expect("assemble");
    assert!(dist.set_rpc_policy(policy) >= 1);
    (dist, pool)
}

/// A policy whose outcomes depend only on the fault schedule, never the
/// wall clock: no per-attempt deadline, no hedging, fallback on.
pub fn deterministic_policy() -> RpcPolicy {
    RpcPolicy {
        attempt_timeout: None,
        max_attempts: 4,
        backoff_base: Duration::from_micros(100),
        backoff_cap: Duration::from_millis(1),
        hedge_after: None,
        degraded_fallback: true,
    }
}

/// Health knobs that never eject: ejection/probe timing is wall-clock,
/// so the determinism properties pin rotation to pure round-robin.
pub fn no_ejection() -> HealthPolicy {
    HealthPolicy {
        eject_after: u32::MAX,
        probe_after: Duration::from_secs(3600),
    }
}

pub fn request_inputs(spec: &ModelSpec, n: usize) -> Vec<BatchInputs> {
    let db = TraceDb::generate(spec, n, SEED);
    (0..n)
        .map(|i| {
            materialize_request(spec, db.get(i), usize::MAX, SEED ^ 9)
                .into_iter()
                .next()
                .expect("one engine batch per request")
        })
        .collect()
}

/// One closed-loop pass: each request run to completion in order.
/// Returns `(prediction, RPC tally)` per request.
pub fn closed_loop(
    dist: &DistributedModel,
    inputs: &[BatchInputs],
) -> Vec<(Option<Matrix>, RpcTally)> {
    inputs
        .iter()
        .enumerate()
        .map(|(i, inputs)| {
            let mut ws = Workspace::new();
            inputs.load_into(&dist.spec, &mut ws);
            let mut obs = RpcTracingObserver::new(TraceId(i as u64));
            let out = dist.run_overlapped(&mut ws, &mut obs).ok();
            (out, obs.tally())
        })
        .collect()
}

/// One RPC for table 0 through `client`, allowed one hedge after 2 ms
/// and no deadline: how it settled.
fn hedged_rpc(spec: &ModelSpec, client: Arc<dyn SparseShardClient>) -> RpcOutcome {
    let fetch = RpcFetch {
        table: TableId(0),
        input_blob: "in".into(),
        output_blob: "out".into(),
        parts: 1,
        part: 0,
        dim: spec.table(TableId(0)).dim as usize,
    };
    let mut op = SparseRpc::new("hedged", NetId(0), client, vec![fetch]);
    op.set_policy(RpcPolicy {
        max_attempts: 2,
        hedge_after: Some(Duration::from_millis(2)),
        ..RpcPolicy::default()
    });
    let mut ws = Workspace::new();
    ws.put("in", Blob::Sparse(SparseInput::new(vec![0, 1], vec![2])));
    let (outcome, result) = op.begin(&ws).expect("the input is loaded").collect(&mut ws);
    result.expect("a reply");
    outcome
}

/// Property 1 over 16 requests, two replicas per shard and a sampled
/// fault plan with a deliberately high crash rate. Returns the pool's
/// transport summary, read before the pool stops.
pub fn non_degraded_completions_are_bit_exact<B>(spawn: Spawn<B>) -> TransportSummary {
    let spec = chaos_spec();
    let inputs = request_inputs(&spec, 16);

    // Fault-free baseline through the in-process transport.
    let p = capacity_plan(&spec, 2);
    let baseline_dist = partition(build_model(&spec, SEED).expect("build"), &p).expect("partition");
    let baseline: Vec<Matrix> = closed_loop(&baseline_dist, &inputs)
        .into_iter()
        .map(|(out, _)| out.expect("fault-free run"))
        .collect();

    let fault_spec = FaultSpec {
        crash_prob: 0.5,
        ..FaultSpec::default()
    };
    let (dist, pool) = faulted_cluster(
        spawn,
        &spec,
        &p,
        (SEED ^ 0xC4A0, &fault_spec),
        no_ejection(),
        deterministic_policy(),
    );
    let outcomes = closed_loop(&dist, &inputs);
    let summary = pool.transport_summary();
    pool.shutdown();

    let mut clean = 0;
    for (i, (out, tally)) in outcomes.iter().enumerate() {
        let Some(out) = out else { continue };
        if tally.degraded > 0 {
            // Zero-embedding fallback: allowed to differ.
            continue;
        }
        assert_eq!(out, &baseline[i], "request {i} diverged without degrading");
        clean += 1;
    }
    // The plan must not have degraded everything, or the property is
    // vacuous — with 2 replicas per shard most requests survive.
    assert!(clean >= 8, "only {clean}/16 non-degraded completions");
    summary
}

/// Property 2: two runs of 12 requests under one sampled fault plan give
/// the same `(completed, degraded RPCs, retries)` per request; returns
/// the first run's. Without `count_retries` the retry counts are left
/// out (reported as 0): over sockets a reply can narrowly beat a crashing
/// server, and refused-at-connect and dropped-after-accept both cost one
/// retry, so only completion and degradation are reproducible there.
pub fn same_fault_seed_reproduces_outcomes<B>(
    spawn: Spawn<B>,
    count_retries: bool,
) -> Vec<(bool, u64, u64)> {
    let spec = chaos_spec();
    let inputs = request_inputs(&spec, 12);
    let run = || {
        let fault_spec = FaultSpec {
            crash_prob: 0.4,
            transient_prob: 0.1,
            drop_prob: 0.05,
            ..FaultSpec::default()
        };
        let (dist, pool) = faulted_cluster(
            spawn,
            &spec,
            &capacity_plan(&spec, 2),
            (SEED ^ 0xFA11, &fault_spec),
            no_ejection(),
            deterministic_policy(),
        );
        let outcomes: Vec<(bool, u64, u64)> = closed_loop(&dist, &inputs)
            .into_iter()
            .map(|(out, tally)| {
                let retries = if count_retries { tally.retries } else { 0 };
                (out.is_some(), tally.degraded, retries)
            })
            .collect();
        pool.shutdown();
        outcomes
    };

    let first = run();
    let second = run();
    assert_eq!(
        first, second,
        "same fault seed must reproduce the same outcome sequence"
    );
    first
}

/// Property 3 over an open-loop frontend run of 20 requests. Returns the
/// report, with the pool's transport summary attached.
pub fn frontend_identities_hold_under_faults<B>(spawn: Spawn<B>) -> FrontendReport {
    let spec = chaos_spec();
    let fault_spec = FaultSpec {
        crash_prob: 0.5,
        transient_prob: 0.05,
        ..FaultSpec::default()
    };
    let (dist, pool) = faulted_cluster(
        spawn,
        &spec,
        &capacity_plan(&spec, 2),
        (SEED ^ 0xACC7, &fault_spec),
        HealthPolicy::default(),
        RpcPolicy::resilient(),
    );

    let db = TraceDb::generate(&spec, 20, SEED ^ 4);
    let requests = materialize_frontend_requests(&spec, &db, SEED ^ 5);
    let n = requests.len();
    let schedule = ArrivalSchedule::poisson(n, 1500.0, SEED ^ 6);
    let cfg = FrontendConfig {
        queue_capacity: n,
        max_batch_requests: 4,
        sla: Duration::from_millis(250),
        workers: 2,
        ..FrontendConfig::default()
    };
    let mut report = run_frontend(&dist, requests, &schedule, &cfg);
    report.transport = Some(pool.transport_summary());
    pool.shutdown();

    assert_eq!(report.offered, n as u64);
    assert_eq!(report.offered, report.admitted + report.shed);
    assert_eq!(report.completed + report.failed, report.admitted);
    // Retries/hedges add attempts, never completions: exactly one
    // prediction per completed request, all ids distinct.
    assert_eq!(report.predictions.len(), report.completed as usize);
    let mut ids: Vec<u64> = report.predictions.iter().map(|(id, _)| *id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), report.completed as usize, "duplicate completions");
    assert!(report.degraded <= report.completed);
    assert!(report.sla_hit_count <= report.completed - report.degraded);
    assert_eq!(report.failed_by_cause.total(), report.failed);
    let availability = report.availability();
    assert!((0.0..=1.0).contains(&availability));
    assert!(
        (availability - report.completed as f64 / report.offered as f64).abs() < 1e-12,
        "availability must be completed/offered"
    );
    // The report renders, including the transport summary line.
    let text = report.to_string();
    assert!(text.contains("availability"), "{text}");
    assert!(text.contains("transport:"), "{text}");
    report
}

/// Property 4: one shard, round robin sending the primary to a replica
/// that answers after 100 ms and the hedge to its healthy twin.
pub fn hedge_wins_against_a_slow_primary<B>(spawn: Spawn<B>) {
    let spec = chaos_spec();
    let (_p, services) = services_for(&spec, 1);
    let faults = FaultPlan::none().with(
        0,
        0,
        ReplicaFaultSchedule::always_slow(Duration::from_millis(100)),
    );
    let pool = spawn(services, &faults, no_ejection());
    let outcome = hedged_rpc(&spec, pool.clients().remove(0));
    pool.shutdown();
    let winner = outcome.attempts.iter().find(|a| a.winner).expect("a winner");
    assert_eq!(winner.kind, RpcAttemptKind::Hedge, "{outcome:?}");
    assert_eq!(outcome.hedges, 1);
}
