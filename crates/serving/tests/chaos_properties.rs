//! Chaos properties: the fault-tolerant transport under seeded fault
//! plans must stay *correct*, not merely available.
//!
//! Three properties, each driven by deterministic [`FaultPlan`]s:
//!
//! 1. **Bit-exactness** — completions that did not degrade are
//!    bit-identical to a fault-free run. Failover, retries and crashed
//!    replicas may change *which* replica answers, never *what* it
//!    answers (every replica of a shard serves the same
//!    [`ShardService`]).
//! 2. **Determinism** — the same fault seed reproduces the same
//!    per-request outcome sequence (completed / degraded / retry
//!    counts), run to run, with wall-clock-sensitive knobs (attempt
//!    deadlines, hedging, ejection) disabled.
//! 3. **Accounting** — the frontend's identities close under faults:
//!    `offered == admitted + shed`, `completed + failed == admitted`,
//!    one prediction per completion (retries and hedges never
//!    double-count), and the degraded/availability figures are
//!    consistent with the counts they summarize.
//! 4. **Attribution** — an RPC that fails its request is recorded like
//!    any other: its attempts are counted and traced, and the frontend
//!    files the failure under the RPC's own error kind.

use dlrm_model::graph::{NoopObserver, RpcAttemptKind, RpcOutcome, SparseInput};
use dlrm_model::{build_model, Blob, ModelSpec, NetId, TableId, Workspace};
use dlrm_serving::engine_trace::{RpcTally, RpcTracingObserver};
use dlrm_serving::fault::{FaultPlan, FaultSpec, ReplicaFaultSchedule};
use dlrm_serving::frontend::{
    materialize_frontend_requests, run_frontend, FrontendConfig, FrontendReport,
};
use dlrm_serving::replica::{HealthPolicy, ReplicatedShardPool};
use dlrm_sharding::rpc::{
    ReadyResponse, RpcCompletion, RpcFetch, ShardRequest, SparseRpc, SparseShardClient,
};
use dlrm_sharding::{
    partition, partition_with_clients, plan, DistributedModel, RpcError, RpcPolicy, ShardId,
    ShardService, ShardingPlan, ShardingStrategy,
};
use dlrm_tensor::Matrix;
use dlrm_trace::{SpanKind, TraceId};
use dlrm_workload::{materialize_request, ArrivalSchedule, BatchInputs, PoolingProfile, TraceDb};
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 41;

fn chaos_spec() -> ModelSpec {
    let mut spec = dlrm_model::rm::rm1().scaled_to_bytes(1 << 20);
    spec.mean_items_per_request = 6.0;
    spec.default_batch_size = 4;
    spec
}

fn capacity_plan(spec: &ModelSpec, shards: usize) -> ShardingPlan {
    let profile = PoolingProfile::from_spec(spec);
    plan(spec, &profile, ShardingStrategy::CapacityBalanced(shards)).expect("plan")
}

/// `p` served by two replicas per shard under faults sampled from
/// `fault_seed`/`fault_spec`, with `policy` on every RPC operator.
fn faulted_cluster(
    spec: &ModelSpec,
    p: &ShardingPlan,
    (fault_seed, fault_spec): (u64, &FaultSpec),
    health: HealthPolicy,
    policy: RpcPolicy,
) -> (DistributedModel, ReplicatedShardPool) {
    let faults = FaultPlan::sample(fault_seed, p.num_shards(), 2, fault_spec);
    let (mut dist, pool) = ReplicatedShardPool::assemble(spec, p, SEED, |services| {
        Ok(ReplicatedShardPool::spawn(
            services,
            2,
            Duration::ZERO,
            &faults,
            health,
        ))
    })
    .expect("assemble");
    assert!(dist.set_rpc_policy(policy) >= 1);
    (dist, pool)
}

/// A policy whose outcomes depend only on the fault schedule, never the
/// wall clock: no per-attempt deadline, no hedging, fallback on.
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

/// Health knobs that never eject: ejection/probe timing is wall-clock,
/// so the determinism properties pin rotation to pure round-robin.
fn no_ejection() -> HealthPolicy {
    HealthPolicy {
        eject_after: u32::MAX,
        probe_after: Duration::from_secs(3600),
    }
}

fn request_inputs(spec: &ModelSpec, n: usize) -> Vec<BatchInputs> {
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
fn closed_loop(dist: &DistributedModel, inputs: &[BatchInputs]) -> Vec<(Option<Matrix>, RpcTally)> {
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

#[test]
fn non_degraded_completions_are_bit_exact_under_faults() {
    let spec = chaos_spec();
    let inputs = request_inputs(&spec, 16);

    // Fault-free baseline through the in-process transport.
    let p = capacity_plan(&spec, 2);
    let baseline_dist = partition(build_model(&spec, SEED).expect("build"), &p).expect("partition");
    let baseline: Vec<Matrix> = inputs
        .iter()
        .map(|inp| {
            let mut ws = Workspace::new();
            inp.load_into(&spec, &mut ws);
            baseline_dist
                .run_overlapped(&mut ws, &mut NoopObserver)
                .expect("fault-free run")
        })
        .collect();

    // Chaos run: 2 replicas per shard under a sampled fault plan with
    // a deliberately high crash rate.
    let fault_spec = FaultSpec {
        crash_prob: 0.5,
        ..FaultSpec::default()
    };
    let (dist, pool) = faulted_cluster(
        &spec,
        &p,
        (SEED ^ 0xC4A0, &fault_spec),
        no_ejection(),
        deterministic_policy(),
    );

    let outcomes = closed_loop(&dist, &inputs);
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
}

#[test]
fn same_fault_seed_reproduces_per_request_outcomes() {
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
            &spec,
            &capacity_plan(&spec, 2),
            (SEED ^ 0xFA11, &fault_spec),
            no_ejection(),
            deterministic_policy(),
        );
        let outcomes: Vec<(bool, u64, u64)> = closed_loop(&dist, &inputs)
            .into_iter()
            .map(|(out, tally)| (out.is_some(), tally.degraded, tally.retries))
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
    // The schedule must actually bite, or determinism is trivial.
    assert!(
        first.iter().any(|(_, d, r)| *d > 0 || *r > 0),
        "fault plan injected nothing observable: {first:?}"
    );
}

#[test]
fn frontend_accounting_identities_hold_under_faults() {
    let spec = chaos_spec();
    let fault_spec = FaultSpec {
        crash_prob: 0.5,
        transient_prob: 0.05,
        ..FaultSpec::default()
    };
    let (dist, pool) = faulted_cluster(
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
}

// ---------------------------------------------------------------------
// Hedging
// ---------------------------------------------------------------------

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

/// The threaded twin of `net_properties::tcp_hedge_wins_against_a_slow_primary`.
#[test]
fn hedge_wins_against_a_slow_primary() {
    let spec = chaos_spec();
    let p = capacity_plan(&spec, 1);
    let model = build_model(&spec, SEED).expect("build");
    let services = p
        .shards()
        .map(|s| Arc::new(ShardService::build(&model.tables, &p, s)))
        .collect();
    // Round robin sends the primary to the slow replica 0 and the hedge
    // to replica 1.
    let faults = FaultPlan::none().with(
        0,
        0,
        ReplicaFaultSchedule::always_slow(Duration::from_millis(100)),
    );
    let pool = ReplicatedShardPool::spawn(services, 2, Duration::ZERO, &faults, no_ejection());
    let outcome = hedged_rpc(&spec, pool.clients().remove(0));
    pool.shutdown();
    let winner = outcome.attempts.iter().find(|a| a.winner).expect("a winner");
    assert_eq!(winner.kind, RpcAttemptKind::Hedge, "{outcome:?}");
    assert_eq!(outcome.hedges, 1);
}

// ---------------------------------------------------------------------
// Hot-row cache tier under chaos
// ---------------------------------------------------------------------

/// A `HotRowAware` plan for `chaos_spec` with a budget generous enough
/// that skewed traffic reliably serves whole bags from the cache.
fn hot_plan_for(spec: &ModelSpec, shards: usize, skew: f64) -> dlrm_sharding::ShardingPlan {
    let profile = PoolingProfile::from_spec(spec);
    let stats = dlrm_workload::RowStats::for_spec(spec, 4_000, skew, SEED);
    dlrm_sharding::plan_with_stats(
        spec,
        &profile,
        ShardingStrategy::HotRowAware(shards),
        &stats,
        &dlrm_sharding::HotRowConfig {
            coverage: 0.95,
            budget_fraction: 0.5,
        },
    )
    .expect("hot-row plan")
}

fn skewed_chaos_inputs(spec: &ModelSpec, n: usize, skew: f64) -> Vec<BatchInputs> {
    let db = TraceDb::generate(spec, n, SEED ^ 2);
    (0..n)
        .map(|i| {
            dlrm_workload::materialize_request_with(
                spec,
                db.get(i),
                usize::MAX,
                SEED ^ 9,
                dlrm_workload::IndexDist::Zipf(skew),
            )
            .into_iter()
            .next()
            .expect("one engine batch per request")
        })
        .collect()
}

#[test]
fn hot_row_cache_survives_replica_crashes() {
    let spec = chaos_spec();
    let skew = 1.2;
    let inputs = skewed_chaos_inputs(&spec, 16, skew);
    let p = hot_plan_for(&spec, 2, skew);
    assert!(p.has_hot_rows());

    // Fault-free run: baseline predictions and each request's cache
    // split.
    let dist = partition(build_model(&spec, SEED).expect("build"), &p).expect("partition");
    let (baseline, clean): (Vec<Matrix>, Vec<RpcTally>) = closed_loop(&dist, &inputs)
        .into_iter()
        .map(|(out, tally)| (out.expect("fault-free run"), tally))
        .unzip();
    let clean_hits: u64 = clean.iter().map(|t| t.cache.hits).sum();
    assert!(clean_hits > 0, "skewed traffic must hit the hot set");

    // Chaos run: same traffic, same plan, replicas crashing underneath.
    let fault_spec = FaultSpec {
        crash_prob: 0.5,
        ..FaultSpec::default()
    };
    let (dist, pool) = faulted_cluster(
        &spec,
        &p,
        (SEED ^ 0xCAC4E, &fault_spec),
        no_ejection(),
        deterministic_policy(),
    );
    assert!(dist.cache.is_some(), "cache installed");

    let outcomes = closed_loop(&dist, &inputs);
    pool.shutdown();

    // Cache serving happens before any wire attempt, so crashing
    // replicas cannot change what the cache absorbs: every request that
    // completes reports the fault-free run's hits, misses and local
    // rows.
    for (i, (out, tally)) in outcomes.iter().enumerate() {
        if out.is_some() {
            assert_eq!(
                tally.cache, clean[i].cache,
                "request {i}: faults leaked into the cache tier"
            );
        }
    }

    // Cache-served rows are never part of the degraded fallback: a
    // request that reports zero degraded RPCs is bit-exact, cached bags
    // included.
    let mut clean = 0;
    for (i, (out, tally)) in outcomes.iter().enumerate() {
        let Some(out) = out else { continue };
        if tally.degraded > 0 {
            continue; // zero-embedding fallback on the *remote* slices
        }
        assert_eq!(out, &baseline[i], "request {i} diverged without degrading");
        clean += 1;
    }
    assert!(clean >= 8, "only {clean}/16 non-degraded completions");
}

#[test]
fn frontend_identities_hold_with_cache_under_faults() {
    let spec = chaos_spec();
    let skew = 1.2;
    let p = hot_plan_for(&spec, 2, skew);
    let fault_spec = FaultSpec {
        crash_prob: 0.5,
        transient_prob: 0.05,
        ..FaultSpec::default()
    };
    let (dist, pool) = faulted_cluster(
        &spec,
        &p,
        (SEED ^ 0xFACADE, &fault_spec),
        HealthPolicy::default(),
        RpcPolicy::resilient(),
    );
    assert!(dist.cache.is_some(), "cache installed");

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

    // The PR-5 identities are untouched by the cache tier.
    assert_eq!(report.offered, n as u64);
    assert_eq!(report.offered, report.admitted + report.shed);
    assert_eq!(report.completed + report.failed, report.admitted);
    assert_eq!(report.predictions.len(), report.completed as usize);
    assert!(report.degraded <= report.completed);
    assert_eq!(report.failed_by_cause.total(), report.failed);

    // The cache counts flowed once per batch, in each batch's RPC
    // tally, into the report: the one place they are counted.
    assert!(report.cache_hits > 0, "no cache hits surfaced in the report");
    let text = report.to_string();
    assert!(text.contains("cache hits"), "{text}");
}

// ---------------------------------------------------------------------
// Failed RPCs
// ---------------------------------------------------------------------

/// A shard that fails every call with `error`: at send when `at_send`,
/// otherwise in the reply.
#[derive(Debug)]
struct FailingShard {
    error: RpcError,
    at_send: bool,
}

impl SparseShardClient for FailingShard {
    fn shard_id(&self) -> ShardId {
        self.error.shard()
    }
    fn begin_shared(
        &self,
        _request: &Arc<ShardRequest>,
    ) -> Result<Box<dyn RpcCompletion>, RpcError> {
        if self.at_send {
            return Err(self.error.clone());
        }
        Ok(Box::new(ReadyResponse(Err(self.error.clone()))))
    }
}

/// `spec` on one shard reached through `client`, under `policy`.
fn one_shard_model(spec: &ModelSpec, client: FailingShard, policy: RpcPolicy) -> DistributedModel {
    let p = plan(spec, &PoolingProfile::from_spec(spec), ShardingStrategy::OneShard).expect("plan");
    let model = build_model(spec, SEED).expect("build");
    let services = p
        .shards()
        .map(|s| Arc::new(ShardService::build(&model.tables, &p, s)))
        .collect();
    let mut dist =
        partition_with_clients(model, &p, services, vec![Arc::new(client)]).expect("partition");
    assert!(dist.set_rpc_policy(policy) >= 1);
    dist
}

/// Six requests through one worker, one request per batch; with
/// `drop_input`, each request lacks its last table's sparse input.
fn frontend_run(spec: &ModelSpec, dist: &DistributedModel, drop_input: bool) -> FrontendReport {
    let db = TraceDb::generate(spec, 6, SEED ^ 4);
    let mut requests = materialize_frontend_requests(spec, &db, SEED ^ 5);
    if drop_input {
        for r in &mut requests {
            r.inputs.sparse.pop();
        }
    }
    let n = requests.len();
    let schedule = ArrivalSchedule::poisson(n, 500.0, SEED ^ 6);
    let cfg = FrontendConfig {
        queue_capacity: n,
        max_batch_requests: 1,
        workers: 1,
        ..FrontendConfig::default()
    };
    run_frontend(dist, requests, &schedule, &cfg)
}

/// Every request failed, and every failure is filed under `cause`.
fn assert_all_failed_as(report: &FrontendReport, cause: &str) {
    assert_eq!((report.completed, report.failed), (0, report.admitted));
    let causes: Vec<(&str, u64)> = report.failed_by_cause.iter().collect();
    assert_eq!(causes, [(cause, report.failed)], "{report}");
}

#[test]
fn a_failed_rpc_is_counted_traced_and_names_its_cause() {
    let spec = chaos_spec();
    // A transport error whose detail names another kind: the cause must
    // come from the error, not from its text.
    let shard = FailingShard {
        error: RpcError::Transport {
            shard: ShardId(0),
            message: "could not arm read timeout".into(),
        },
        at_send: false,
    };
    let policy = RpcPolicy {
        max_attempts: 3,
        backoff_base: Duration::from_micros(10),
        backoff_cap: Duration::from_micros(40),
        degraded_fallback: false,
        ..RpcPolicy::default()
    };
    let dist = one_shard_model(&spec, shard, policy);

    let mut ws = Workspace::new();
    request_inputs(&spec, 1)[0].load_into(&spec, &mut ws);
    let mut obs = RpcTracingObserver::new(TraceId(0));
    assert!(dist.run_overlapped(&mut ws, &mut obs).is_err());
    let tally = obs.tally();
    assert_eq!((tally.retries, tally.failure), (2, Some("transport")), "{tally:?}");
    assert_eq!(obs.rpc_count(), 1, "the failed RPC is recorded, once");
    let trace = obs.finish();
    let count = |kind: fn(&SpanKind) -> bool| trace.spans().iter().filter(|s| kind(&s.kind)).count();
    assert_eq!(count(|k| matches!(k, SpanKind::RpcOutstanding(_))), 1);
    assert_eq!(count(|k| matches!(k, SpanKind::RpcRetry(_))), 2);

    let report = frontend_run(&spec, &dist, false);
    assert_all_failed_as(&report, "transport");
    assert_eq!(report.rpc_retries, 2 * report.batches, "two retries per failed batch");
}

#[test]
fn failure_causes_come_from_the_failed_rpc_or_the_engine() {
    let spec = chaos_spec();
    // A send that fails under the default fail-hard policy settles at
    // collect, as a transport failure.
    let unsendable = FailingShard {
        error: RpcError::Transport {
            shard: ShardId(0),
            message: "connection refused".into(),
        },
        at_send: true,
    };
    let dist = one_shard_model(&spec, unsendable, RpcPolicy::default());
    assert_all_failed_as(&frontend_run(&spec, &dist, false), "transport");

    // A panic message that names another kind.
    let poisoned = FailingShard {
        error: RpcError::Poisoned {
            shard: ShardId(0),
            message: "timeout on the lock".into(),
        },
        at_send: false,
    };
    let dist = one_shard_model(&spec, poisoned, RpcPolicy::default());
    assert_all_failed_as(&frontend_run(&spec, &dist, false), "poisoned");

    // No RPC failed: a request missing an input fails in the engine.
    let dist = partition(build_model(&spec, SEED).expect("build"), &capacity_plan(&spec, 1))
        .expect("partition");
    assert_all_failed_as(&frontend_run(&spec, &dist, true), "engine");
}
