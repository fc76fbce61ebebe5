//! Chaos properties: the fault-tolerant transport under seeded fault
//! plans must stay *correct*, not merely available.
//!
//! The four properties every replicated transport keeps (bit-exactness,
//! determinism, frontend accounting, hedging; see `chaos/mod.rs`) run
//! here over worker threads and channels, and `net_properties` runs them
//! over sockets. On top of them, this file pins:
//!
//! - **The hot-row cache under faults** — crashing replicas change
//!   neither what the cache absorbs nor the bits of a non-degraded
//!   completion, and the frontend identities hold with a cache.
//! - **Attribution** — an RPC that fails its request is recorded like
//!   any other: its attempts are counted and traced, and the frontend
//!   files the failure under the RPC's own error kind.

mod chaos;

use chaos::{
    capacity_plan, chaos_spec, closed_loop, deterministic_policy, faulted_cluster, no_ejection,
    request_inputs, SEED,
};
use dlrm_model::{build_model, ModelSpec, Workspace};
use dlrm_serving::engine_trace::{RpcTally, RpcTracingObserver};
use dlrm_serving::fault::{FaultPlan, FaultSpec};
use dlrm_serving::frontend::{
    materialize_frontend_requests, run_frontend, FrontendConfig, FrontendReport,
};
use dlrm_serving::replica::{HealthPolicy, ReplicatedShardPool};
use dlrm_sharding::rpc::{ReadyResponse, RpcCompletion, ShardRequest, SparseShardClient};
use dlrm_sharding::{
    partition, partition_with_clients, plan, DistributedModel, RpcError, RpcPolicy, ShardId,
    ShardService, ShardingStrategy,
};
use dlrm_tensor::Matrix;
use dlrm_trace::{SpanKind, TraceId};
use dlrm_workload::{ArrivalSchedule, BatchInputs, PoolingProfile, TraceDb};
use std::sync::Arc;
use std::time::Duration;

/// Two worker threads per shard.
fn threaded(
    services: Vec<Arc<ShardService>>,
    faults: &FaultPlan,
    health: HealthPolicy,
) -> ReplicatedShardPool {
    ReplicatedShardPool::spawn(services, 2, Duration::ZERO, faults, health)
}

#[test]
fn non_degraded_completions_are_bit_exact_under_faults() {
    chaos::non_degraded_completions_are_bit_exact(threaded);
}

#[test]
fn same_fault_seed_reproduces_per_request_outcomes() {
    let first = chaos::same_fault_seed_reproduces_outcomes(threaded, true);
    // The schedule must actually bite, or determinism is trivial.
    assert!(
        first.iter().any(|&(_, d, r)| d > 0 || r > 0),
        "fault plan injected nothing observable: {first:?}"
    );
}

#[test]
fn frontend_accounting_identities_hold_under_faults() {
    chaos::frontend_identities_hold_under_faults(threaded);
}

/// The threaded twin of `net_properties::tcp_hedge_wins_against_a_slow_primary`.
#[test]
fn hedge_wins_against_a_slow_primary() {
    chaos::hedge_wins_against_a_slow_primary(threaded);
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
        threaded,
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
        threaded,
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
