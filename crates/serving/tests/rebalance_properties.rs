//! Rebalance properties: online resharding and replica autoscaling must
//! preserve the paper's core invariant — predictions depend only on the
//! seeded weights, never on the sharding plan — while the tier keeps
//! serving. Pinned here:
//!
//! - **Cutover correctness** — a controller-driven migration publishes
//!   a successor epoch whose predictions are bit-exact with the
//!   predecessor's, and the vacated epoch drains to zero.
//! - **Abort safety** — a warmed epoch that fails dual-read
//!   verification (a replica crash during the window) is abandoned:
//!   the serving epoch is untouched and keeps answering bit-exactly.
//! - **Stability** — traffic matching the serving plan produces no
//!   migration (the controller resets its window instead of flapping).
//! - **Autoscaling** — sustained per-replica pressure adds replicas,
//!   sustained idleness removes them, never below the floor.
//! - **Chaos** — a serving-epoch replica crash *mid-migration* is
//!   covered by failover: the migration completes, no request fails,
//!   nothing degrades, every completed request is attributed to exactly
//!   one epoch, and all predictions stay bit-exact.

use dlrm_model::graph::NoopObserver;
use dlrm_model::{build_model, ModelSpec, Workspace};
use dlrm_serving::fault::{FaultPlan, ReplicaFaultSchedule};
use dlrm_serving::frontend::{
    materialize_frontend_requests, run_lane, EpochSource, FrontendConfig, Lane,
};
use dlrm_serving::rebalance::{
    build_epoch_serving, probe_all, probe_inputs, DrainQueue, EpochServing, EpochSwitch,
    ProbeCheck, RebalanceConfig, Rebalancer, ScaleDirection,
};
use dlrm_sharding::rpc::RpcPolicy;
use dlrm_sharding::{partition, plan, plan_with_stats, ShardingStrategy};
use dlrm_tensor::Matrix;
use dlrm_workload::{
    materialize_request, ArrivalSchedule, BatchInputs, OnlineProfiler, PoolingProfile, TraceDb,
};
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 33;

fn rebalance_spec() -> ModelSpec {
    let mut spec = dlrm_model::rm::rm1().scaled_to_bytes(1 << 20);
    spec.mean_items_per_request = 6.0;
    spec.default_batch_size = 4;
    spec
}

/// Outcomes must depend only on fault schedules, never the wall clock.
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

/// Closed-loop run of every input through `model`; panics on any error.
fn run_all(
    spec: &ModelSpec,
    model: &dlrm_sharding::DistributedModel,
    inputs: &[BatchInputs],
) -> Vec<Matrix> {
    inputs
        .iter()
        .map(|inp| {
            let mut ws = Workspace::new();
            inp.load_into(spec, &mut ws);
            model
                .run_overlapped(&mut ws, &mut NoopObserver)
                .expect("closed-loop run")
        })
        .collect()
}

#[test]
fn controller_cutover_is_bit_exact_and_drains_the_old_epoch() {
    let spec = rebalance_spec();
    let profile = PoolingProfile::from_spec(&spec);
    let initial = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(2)).expect("plan");
    let cfg = RebalanceConfig {
        profile_min_accesses: 1,
        dual_read_requests: 3,
        cooldown_ticks: 0,
        rpc_policy: Some(deterministic_policy()),
        ..RebalanceConfig::default()
    };
    let epoch0 = build_epoch_serving(&spec, &initial, SEED, 1, &cfg).expect("epoch 0");
    let switch = Arc::new(EpochSwitch::new(epoch0));
    let profiler = Arc::new(OnlineProfiler::for_spec(&spec));

    let inputs = request_inputs(&spec, 12);
    for inp in &inputs {
        profiler.observe(inp);
    }
    assert!(profiler.min_table_accesses() >= 1, "profiler saw nothing");

    let before = {
        let current = switch.current();
        run_all(&spec, &current.model, &inputs)
    };

    let mut rb = Rebalancer::new(
        spec.clone(),
        SEED,
        Arc::clone(&switch),
        Arc::clone(&profiler),
        cfg,
    );
    rb.tick();

    // The serving plan was capacity-balanced (no hot rows); profiled
    // traffic always produces a hot-row-aware successor, so one tick
    // must cut over.
    assert_eq!(switch.epoch(), 1, "migration did not publish epoch 1");
    {
        let current = switch.current();
        assert!(current.model.plan.has_hot_rows(), "successor lost hot rows");
        let after = run_all(&spec, &current.model, &inputs);
        assert_eq!(after, before, "predictions changed across cutover");
    }

    let report = rb.finish();
    assert_eq!(report.cutovers, 1);
    assert_eq!(report.completed_migrations(), 1);
    assert_eq!(report.aborted_migrations(), 0);
    assert_eq!(report.final_epoch, 1);
    assert_eq!(report.undrained, 0, "old epoch never drained");
    let m = &report.migrations[0];
    assert_eq!((m.from_epoch, m.to_epoch), (0, 1));
    assert!(m.moved_tables >= 1, "cutover moved no tables");
    assert!(m.moved_bytes > 0, "cutover moved no capacity");
    // The drained epoch's transport activity was absorbed — it served
    // the closed-loop run and the dual-read probes.
    assert!(
        report.retired_transport.rows_sent > 0,
        "retired epoch's transport vanished: {}",
        report.retired_transport
    );
}

#[test]
fn migration_aborts_cleanly_when_a_warmed_replica_crashes() {
    let spec = rebalance_spec();
    let profile = PoolingProfile::from_spec(&spec);
    let initial = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(2)).expect("plan");
    let clean = RebalanceConfig {
        rpc_policy: Some(deterministic_policy()),
        ..RebalanceConfig::default()
    };
    let epoch0 = build_epoch_serving(&spec, &initial, SEED, 1, &clean).expect("epoch 0");
    let switch = Arc::new(EpochSwitch::new(epoch0));
    let profiler = Arc::new(OnlineProfiler::for_spec(&spec));

    let inputs = request_inputs(&spec, 10);
    for inp in &inputs {
        profiler.observe(inp);
    }
    let before = {
        let current = switch.current();
        run_all(&spec, &current.model, &inputs)
    };

    // Warmed pools crash their only replica of shard 0 on first use:
    // the dual-read window must catch it and abandon the attempt.
    let chaotic = RebalanceConfig {
        profile_min_accesses: 1,
        dual_read_requests: 3,
        cooldown_ticks: 0,
        warm_faults: FaultPlan::none().with(0, 0, ReplicaFaultSchedule::crash_at(0)),
        rpc_policy: Some(deterministic_policy()),
        ..RebalanceConfig::default()
    };
    let mut rb = Rebalancer::new(
        spec.clone(),
        SEED,
        Arc::clone(&switch),
        Arc::clone(&profiler),
        chaotic,
    );
    rb.tick();

    assert_eq!(switch.epoch(), 0, "aborted migration must not cut over");
    {
        let current = switch.current();
        let after = run_all(&spec, &current.model, &inputs);
        assert_eq!(after, before, "serving epoch disturbed by the abort");
    }
    let report = rb.finish();
    assert_eq!(report.cutovers, 0);
    assert_eq!(report.completed_migrations(), 0);
    assert_eq!(report.aborted_migrations(), 1);
    let m = &report.migrations[0];
    assert!(m.aborted);
    let reason = m.abort_reason.as_deref().expect("abort carries a reason");
    assert!(
        reason.contains("warmed epoch") || reason.contains("dual read"),
        "unexpected abort reason: {reason}"
    );
    assert_eq!(report.final_epoch, 0);
}

#[test]
fn matching_traffic_produces_no_migration() {
    let spec = rebalance_spec();
    let profile = PoolingProfile::from_spec(&spec);
    let profiler = Arc::new(OnlineProfiler::for_spec(&spec));
    let inputs = request_inputs(&spec, 10);
    for inp in &inputs {
        profiler.observe(inp);
    }
    let stats = profiler.snapshot().expect("every table observed");

    // Serve the exact plan the profiled traffic implies.
    let cfg = RebalanceConfig {
        profile_min_accesses: 1,
        cooldown_ticks: 0,
        rpc_policy: Some(deterministic_policy()),
        ..RebalanceConfig::default()
    };
    let initial = plan_with_stats(
        &spec,
        &profile,
        ShardingStrategy::HotRowAware(cfg.strategy_shards),
        &stats,
        &cfg.hot_rows,
    )
    .expect("stats plan");
    let epoch0 = build_epoch_serving(&spec, &initial, SEED, 1, &cfg).expect("epoch 0");
    let switch = Arc::new(EpochSwitch::new(epoch0));

    let mut rb = Rebalancer::new(
        spec.clone(),
        SEED,
        Arc::clone(&switch),
        Arc::clone(&profiler),
        cfg,
    );
    rb.tick();

    assert_eq!(switch.epoch(), 0, "matching traffic must not migrate");
    assert_eq!(
        profiler.total_accesses(),
        0,
        "no-op decision must reset the profile window"
    );
    let report = rb.finish();
    assert!(report.migrations.is_empty());
    assert_eq!(report.cutovers, 0);
}

#[test]
fn autoscaler_adds_and_removes_replicas_under_sustained_pressure() {
    let spec = rebalance_spec();
    let profile = PoolingProfile::from_spec(&spec);
    let initial = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(2)).expect("plan");
    let cfg = RebalanceConfig {
        // Migration disabled: this test isolates the autoscaler.
        profile_min_accesses: u64::MAX,
        scale_up_rows_per_tick: 5,
        scale_down_rows_per_tick: 0,
        sustain_ticks: 1,
        min_replicas: 1,
        max_replicas: 2,
        rpc_policy: Some(deterministic_policy()),
        ..RebalanceConfig::default()
    };
    let epoch0 = build_epoch_serving(&spec, &initial, SEED, 1, &cfg).expect("epoch 0");
    let switch = Arc::new(EpochSwitch::new(epoch0));
    let profiler = Arc::new(OnlineProfiler::for_spec(&spec));
    let mut rb = Rebalancer::new(
        spec.clone(),
        SEED,
        Arc::clone(&switch),
        Arc::clone(&profiler),
        cfg,
    );

    let inputs = request_inputs(&spec, 10);
    let current = switch.current();
    let pool = current.pool.as_ref().expect("serving pool");
    assert_eq!(pool.replica_counts(), vec![1, 1]);

    rb.tick(); // baseline tick: records current row totals only

    // Sustained pressure: every shard sees well over 5 rows/replica.
    let _ = run_all(&spec, &current.model, &inputs);
    rb.tick();
    assert_eq!(
        pool.replica_counts(),
        vec![2, 2],
        "pressure did not add replicas"
    );

    // Sustained idleness: zero row delta per tick scales back down,
    // stopping at the floor.
    rb.tick();
    assert_eq!(
        pool.replica_counts(),
        vec![1, 1],
        "idleness did not remove replicas"
    );
    rb.tick();
    assert_eq!(pool.replica_counts(), vec![1, 1], "scaled below the floor");

    drop(current);
    let report = rb.finish();
    let (up, down) = report.scale_counts();
    assert_eq!(up, 2, "one scale-up per shard");
    assert_eq!(down, 2, "one scale-down per shard");
    assert!(report
        .scale_events
        .iter()
        .all(|e| (1..=2).contains(&e.replicas_after)));
    assert!(report
        .scale_events
        .iter()
        .any(|e| e.direction == ScaleDirection::Up && e.rows_per_tick >= 5));
}

/// The autoscaler reads rows, so how the frontend happened to batch a
/// stream does not change what it decides: the same three bursts served
/// one request per call and up to eight per call trip the same scale
/// events at the same ticks on the same row deltas — while the call
/// counts the signal used to compare differ by the merge factor.
#[test]
fn scale_decisions_do_not_depend_on_the_batch_cap() {
    let spec = rebalance_spec();
    let profile = PoolingProfile::from_spec(&spec);
    let initial = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(2)).expect("plan");
    let db = TraceDb::generate(&spec, 24, SEED);
    let requests = materialize_frontend_requests(&spec, &db, SEED ^ 5);
    // Each burst lands within about a millisecond; one worker behind
    // 2 ms shard round trips is still on its first batch by then, so
    // the rest of the burst is queued when it comes back.
    let burst = ArrivalSchedule::poisson(8, 1e6, SEED);

    let decide = |max_batch_requests: usize| {
        let cfg = RebalanceConfig {
            profile_min_accesses: u64::MAX,
            scale_up_rows_per_tick: 100,
            scale_down_rows_per_tick: 0,
            sustain_ticks: 1,
            min_replicas: 1,
            max_replicas: 2,
            worker_delay: Duration::from_millis(2),
            rpc_policy: Some(deterministic_policy()),
            ..RebalanceConfig::default()
        };
        let epoch0 = build_epoch_serving(&spec, &initial, SEED, 1, &cfg).expect("epoch 0");
        let switch = Arc::new(EpochSwitch::new(epoch0));
        let profiler = Arc::new(OnlineProfiler::for_spec(&spec));
        let mut rb = Rebalancer::new(spec.clone(), SEED, Arc::clone(&switch), profiler, cfg);
        let frontend = FrontendConfig {
            queue_capacity: 8,
            max_batch_requests,
            workers: 1,
            ..FrontendConfig::default()
        };
        rb.tick(); // baseline
        for chunk in requests.chunks(8) {
            let lane = Lane::new(EpochSource::Switch(&switch), chunk.to_vec(), &burst, &frontend);
            assert_eq!(run_lane(lane, &frontend).completed, 8);
            rb.tick();
        }
        rb.tick(); // idle
        let current = switch.current();
        let pool = current.pool.as_ref().expect("serving pool");
        let calls: u64 = pool.replica_rpc_summaries().iter().map(|s| s.calls).sum();
        drop(current);
        let events: Vec<_> = (rb.finish().scale_events.iter())
            .map(|e| (e.epoch, e.shard, e.direction, e.replicas_after, e.rows_per_tick))
            .collect();
        (events, calls)
    };

    let (lone, lone_calls) = decide(1);
    let (merged, merged_calls) = decide(8);
    assert_eq!(lone, merged, "the batch cap changed a scale decision");
    let ups = lone.iter().filter(|e| e.2 == ScaleDirection::Up).count();
    assert_eq!((ups, lone.len() - ups), (2, 2), "one up and one down per shard: {lone:?}");
    assert!(
        merged_calls < lone_calls,
        "nothing merged ({merged_calls} vs {lone_calls} calls): the case proves nothing"
    );
}

#[test]
fn mid_migration_replica_crash_is_covered_by_failover() {
    let spec = rebalance_spec();
    let profile = PoolingProfile::from_spec(&spec);
    let initial = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(2)).expect("plan");

    // The serving epoch runs 2 replicas per shard; replica (0, 0)
    // crashes at its 30th request — mid-run, while the controller is
    // migrating off this epoch.
    let init_cfg = RebalanceConfig {
        warm_faults: FaultPlan::none().with(0, 0, ReplicaFaultSchedule::crash_at(30)),
        rpc_policy: Some(deterministic_policy()),
        ..RebalanceConfig::default()
    };
    let epoch0 = build_epoch_serving(&spec, &initial, SEED, 2, &init_cfg).expect("epoch 0");
    let switch = Arc::new(EpochSwitch::new(epoch0));
    let profiler = Arc::new(OnlineProfiler::for_spec(&spec));

    let ctrl_cfg = RebalanceConfig {
        profile_min_accesses: 60,
        dual_read_requests: 3,
        cooldown_ticks: 2,
        min_replicas: 2,
        // Autoscaling disabled: replicas pinned at 2 for this test.
        scale_up_rows_per_tick: u64::MAX,
        scale_down_rows_per_tick: 0,
        rpc_policy: Some(deterministic_policy()),
        ..RebalanceConfig::default()
    };
    let rb = Rebalancer::new(
        spec.clone(),
        SEED,
        Arc::clone(&switch),
        Arc::clone(&profiler),
        ctrl_cfg,
    )
    .spawn(Duration::from_millis(5));

    let db = TraceDb::generate(&spec, 60, SEED ^ 4);
    let requests = materialize_frontend_requests(&spec, &db, SEED ^ 5);
    let n = requests.len();

    // Static baseline on the initial plan: the invariant says every
    // epoch must reproduce exactly these predictions.
    let baseline_dist =
        partition(build_model(&spec, SEED).expect("build"), &initial).expect("partition");
    let baseline: Vec<(u64, Matrix)> = requests
        .iter()
        .map(|r| {
            let mut ws = Workspace::new();
            r.inputs.load_into(&spec, &mut ws);
            let out = baseline_dist
                .run_overlapped(&mut ws, &mut NoopObserver)
                .expect("baseline run");
            (r.id, out)
        })
        .collect();

    let schedule = ArrivalSchedule::poisson(n, 1500.0, SEED ^ 6);
    let cfg = FrontendConfig {
        queue_capacity: n,
        max_batch_requests: 4,
        sla: Duration::from_millis(250),
        workers: 2,
        ..FrontendConfig::default()
    };
    let mut lane = Lane::new(EpochSource::Switch(&switch), requests, &schedule, &cfg);
    lane.profiler = Some(&profiler);
    let report = run_lane(lane, &cfg);
    // Give the controller a post-traffic tick: the profile threshold is
    // guaranteed met by now, so at least one migration must land even
    // if every in-traffic tick raced the warm phase.
    std::thread::sleep(Duration::from_millis(60));
    let rb_report = rb.stop();

    // The migration completed despite the mid-flight crash.
    assert!(
        rb_report.completed_migrations() >= 1,
        "no migration completed: {rb_report}"
    );
    assert!(rb_report.cutovers >= 1);
    assert_eq!(rb_report.undrained, 0, "an epoch never drained");

    // Availability: nothing shed (queue sized for the run), nothing
    // failed, nothing degraded — failover absorbed the crash.
    assert_eq!(report.offered, n as u64);
    assert_eq!(report.shed, 0);
    assert_eq!(report.failed, 0, "crash leaked into failures");
    assert_eq!(report.degraded, 0, "crash degraded a request");
    assert_eq!(report.completed, n as u64);

    // Every completed request was served by exactly one epoch.
    let attributed: u64 = report.epochs_served.iter().map(|(_, c)| c).sum();
    assert_eq!(
        attributed, report.completed,
        "epoch attribution does not cover completions: {:?}",
        report.epochs_served
    );

    // Bit-exactness across epochs: every prediction matches the static
    // baseline regardless of which epoch executed it.
    for (id, pred) in &report.predictions {
        let (_, expect) = baseline
            .iter()
            .find(|(b, _)| b == id)
            .expect("baseline covers every request");
        assert_eq!(pred, expect, "request {id} diverged from the static plan");
    }
}

/// The transition pipeline's abort paths — the successor failed to
/// warm, its probe outputs diverge, or a probe came back degraded —
/// each leave the serving epoch, `cutovers()` and the drain queue as
/// they were, shut the candidate's pool down, and name the reason; the
/// same candidate shape built cleanly then publishes and the retiree
/// drains.
#[test]
fn transition_aborts_leave_serving_untouched_and_stop_the_candidate() {
    let spec = rebalance_spec();
    let profile = PoolingProfile::from_spec(&spec);
    let p = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(2)).expect("plan");
    let cfg = RebalanceConfig {
        rpc_policy: Some(deterministic_policy()),
        ..RebalanceConfig::default()
    };
    let switch = EpochSwitch::new(build_epoch_serving(&spec, &p, SEED, 1, &cfg).expect("epoch 0"));
    let inputs = probe_inputs(&spec, 3, SEED ^ 5);
    let expected = probe_all(&spec, &switch.current().model, &inputs).expect("serving probes");
    let check = ProbeCheck {
        spec: &spec,
        inputs: &inputs,
        expected: &expected,
        tolerance: 0.0,
    };
    let mut drain = DrainQueue::default();
    let request = dlrm_sharding::rpc::ShardRequest {
        net: dlrm_model::NetId(0),
        slices: vec![],
    };

    // A replica that crashes on first use degrades the first probe
    // (the deterministic policy falls back to zero embeddings).
    let crashing = RebalanceConfig {
        warm_faults: FaultPlan::none().with(0, 0, ReplicaFaultSchedule::crash_at(0)),
        ..cfg.clone()
    };
    let aborts: [(&str, Result<EpochServing, String>); 3] = [
        ("warm failed", Err("no capacity".to_string())),
        // Same plan, different weights: every probe answers, none matches.
        (
            "diverges",
            build_epoch_serving(&spec, &p, SEED + 1, 1, &cfg),
        ),
        (
            "degraded",
            build_epoch_serving(&spec, &p, SEED, 1, &crashing),
        ),
    ];
    for (reason, candidate) in aborts {
        let clients = candidate
            .as_ref()
            .ok()
            .map(|c| c.pool.as_ref().expect("candidate pool").clients());
        let err = switch
            .transition(candidate, &check, &mut drain)
            .unwrap_err();
        assert!(err.contains(reason), "expected {reason:?} in {err:?}");
        assert_eq!(
            (switch.epoch(), switch.cutovers()),
            (0, 0),
            "{reason}: cut over anyway"
        );
        assert_eq!(
            drain.finish(std::time::Instant::now()),
            0,
            "{reason}: something retired"
        );
        for client in clients.iter().flatten() {
            // The last shard's worker never crashed; only a pool
            // shutdown takes it down.
            let down = client.execute(&request).unwrap_err().to_string();
            assert!(
                down.contains("down"),
                "{reason}: candidate pool still serving: {down}"
            );
        }
        // The serving epoch still answers, bit for bit.
        let again = probe_all(&spec, &switch.current().model, &inputs).expect("serving probes");
        assert_eq!(again, expected, "{reason}: serving epoch disturbed");
    }

    let clean =
        build_epoch_serving(&spec, &p, SEED, 1, &cfg).map(|e| EpochServing { epoch: 1, ..e });
    switch
        .transition(clean, &check, &mut drain)
        .expect("clean successor publishes");
    assert_eq!((switch.epoch(), switch.cutovers()), (1, 1));
    assert_eq!(
        drain.finish(std::time::Instant::now()),
        0,
        "retiree never drained"
    );
    assert!(
        drain.transport().rows_sent > 0,
        "retiree's transport summary lost"
    );
}
