//! Property-style tests on the serving frontend's batching: merging N
//! requests into one engine batch and splitting the predictions back
//! must be *semantically invisible* — bit-identical to running each
//! request alone — across randomly drawn model specs, shardings, batch
//! groupings, and transports (deterministic [`SimRng`] streams, the
//! in-tree replacement for proptest). A full open-loop frontend run
//! must preserve the same property end to end, plus its accounting
//! identities.

// Only `deterministic_policy` is shared with the chaos suites.
#[allow(dead_code)]
mod chaos;

use chaos::deterministic_policy;
use dlrm_model::graph::NoopObserver;
use dlrm_model::{build_model, ModelSpec, NetId, NetSpec, TableId, TableSpec, Workspace};
use dlrm_serving::epoch::{probe_all, probe_inputs, EpochServing, EpochSwitch, ProbeCheck};
use dlrm_serving::fault::{FaultPlan, ReplicaFaultSchedule};
use dlrm_serving::frontend::{
    materialize_frontend_requests, merge_inputs, run_frontend, serve, split_rows, EpochSource,
    FrontendConfig, FrontendRequest, Lane, LaneRun,
};
use dlrm_serving::replica::{HealthPolicy, ReplicatedShardPool};
use dlrm_sharding::{partition, plan, DistributedModel, ShardingPlan, ShardingStrategy};
use dlrm_sim::SimRng;
use dlrm_tensor::Matrix;
use dlrm_workload::{
    materialize_request, ArrivalSchedule, BatchInputs, OnlineProfiler, PoolingProfile, TraceDb,
};
use std::collections::HashMap;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Draws a small but structurally varied model spec: 1–2 nets, 1–3
/// tables per net, 1–2 MLP layers per stack (same generator family as
/// `overlap_properties.rs`).
fn random_spec(rng: &mut SimRng, case: usize) -> ModelSpec {
    let num_nets = 1 + rng.next_index(2);
    let random_mlp = |rng: &mut SimRng| -> Vec<usize> {
        (0..1 + rng.next_index(2))
            .map(|_| 2 + rng.next_index(8))
            .collect()
    };
    let nets: Vec<NetSpec> = (0..num_nets)
        .map(|i| NetSpec {
            id: NetId(i),
            name: format!("net{i}"),
            bottom_mlp: random_mlp(rng),
            top_mlp: random_mlp(rng),
            takes_prev_output: i > 0,
        })
        .collect();
    let mut tables = Vec::new();
    for i in 0..num_nets {
        for _ in 0..1 + rng.next_index(3) {
            let id = TableId(tables.len());
            tables.push(TableSpec {
                id,
                name: format!("t{}", id.0),
                rows: 16 + rng.next_u64_below(64),
                dim: 2 + rng.next_u64_below(6) as u32,
                net: NetId(i),
                pooling_factor: 2.0 + rng.next_f64() * 6.0,
            });
        }
    }
    ModelSpec {
        name: format!("fprop{case}"),
        dense_features: 3 + rng.next_index(6),
        tables,
        nets,
        default_batch_size: 1 + rng.next_index(6),
        mean_items_per_request: 6.0,
    }
}

fn random_strategy(rng: &mut SimRng) -> ShardingStrategy {
    match rng.next_index(5) {
        0 => ShardingStrategy::Singular,
        1 => ShardingStrategy::OneShard,
        2 => ShardingStrategy::CapacityBalanced(1 + rng.next_index(3)),
        3 => ShardingStrategy::LoadBalanced(1 + rng.next_index(3)),
        _ => ShardingStrategy::NetSpecificBinPacking(1 + rng.next_index(3)),
    }
}

/// `p` over one worker thread per shard, each sleeping `delay` per
/// request under its schedule in `faults`.
fn threaded_cluster(
    spec: &ModelSpec,
    p: &ShardingPlan,
    seed: u64,
    delay: Duration,
    faults: &FaultPlan,
) -> (DistributedModel, ReplicatedShardPool) {
    ReplicatedShardPool::assemble(spec, p, seed, |services| {
        Ok(ReplicatedShardPool::spawn(
            services,
            1,
            delay,
            faults,
            HealthPolicy::default(),
        ))
    })
    .unwrap()
}

/// Runs each request alone through the overlapped executor.
fn sequential_predictions(dist: &DistributedModel, inputs: &[BatchInputs]) -> Vec<Matrix> {
    inputs
        .iter()
        .map(|b| {
            let mut ws = Workspace::new();
            b.load_into(&dist.spec, &mut ws);
            dist.run_overlapped(&mut ws, &mut NoopObserver).unwrap()
        })
        .collect()
}

/// Runs a group of requests as ONE merged engine batch and splits back.
fn batched_predictions(dist: &DistributedModel, inputs: &[BatchInputs]) -> Vec<Matrix> {
    let parts: Vec<&BatchInputs> = inputs.iter().collect();
    let mut ws = Workspace::new();
    let (merged, counts) = merge_inputs(&parts, ws.ctx());
    merged.load_into(&dist.spec, &mut ws);
    let out = dist.run_overlapped(&mut ws, &mut NoopObserver).unwrap();
    split_rows(&out, &counts)
}

/// Merged-batch execution ≡ per-request execution, bit for bit, across
/// random specs, shardings, and random batch-group sizes.
#[test]
fn batched_bit_identical_to_sequential_across_random_specs() {
    let mut rng = SimRng::seed_from(0xf0e_4d11).fork(11);
    let mut batched_cases = 0;
    for case in 0..30 {
        let spec = random_spec(&mut rng, case);
        let seed = rng.next_u64();
        let db = TraceDb::generate(&spec, 2 + rng.next_index(4), seed ^ 1);
        let strategy = random_strategy(&mut rng);
        let profile = db.pooling_profile(db.len());
        let Ok(p) = plan(&spec, &profile, strategy) else {
            continue;
        };
        let dist = partition(build_model(&spec, seed).unwrap(), &p).unwrap();

        // Whole requests as the frontend batches them (one engine batch
        // per request), grouped into a random batch size.
        let inputs: Vec<BatchInputs> = (0..db.len())
            .map(|i| {
                materialize_request(&spec, db.get(i), usize::MAX, seed ^ 2)
                    .into_iter()
                    .next()
                    .unwrap()
            })
            .collect();
        let group = 2 + rng.next_index(inputs.len().max(2));
        let expected = sequential_predictions(&dist, &inputs);
        for (chunk_i, chunk) in inputs.chunks(group).enumerate() {
            let got = batched_predictions(&dist, chunk);
            for (j, m) in got.iter().enumerate() {
                let want = &expected[chunk_i * group + j];
                assert_eq!(
                    m, want,
                    "case {case} ({strategy}): request {} diverged in a batch of {}",
                    chunk_i * group + j,
                    chunk.len()
                );
            }
        }
        batched_cases += 1;
    }
    assert!(
        batched_cases >= 10,
        "only {batched_cases} batched cases exercised"
    );
}

/// The same invisibility property through the thread-backed transport:
/// real shard concurrency must not perturb a single bit.
#[test]
fn batched_bit_identical_over_threaded_transport() {
    let mut rng = SimRng::seed_from(0x0ba7_c4ed).fork(5);
    for case in 0..6 {
        let spec = random_spec(&mut rng, case);
        let seed = rng.next_u64();
        let db = TraceDb::generate(&spec, 3, seed);
        let profile = db.pooling_profile(db.len());
        let shards = 1 + rng.next_index(3);
        let Ok(p) = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(shards)) else {
            continue;
        };
        let (dist, pool) = threaded_cluster(&spec, &p, seed, Duration::ZERO, &FaultPlan::none());

        let inputs: Vec<BatchInputs> = (0..db.len())
            .map(|i| {
                materialize_request(&spec, db.get(i), usize::MAX, seed ^ 3)
                    .into_iter()
                    .next()
                    .unwrap()
            })
            .collect();
        let expected = sequential_predictions(&dist, &inputs);
        let got = batched_predictions(&dist, &inputs);
        assert_eq!(got, expected, "case {case}");
        pool.shutdown();
    }
}

/// A full open-loop frontend run: every completed request's predictions
/// must match its solo run bit for bit — under a batch cap of 1, of 8
/// and of a drawn value alike — and the admission accounting identities
/// must hold exactly.
#[test]
fn full_frontend_run_is_bit_exact_and_accounts_exactly() {
    let mut rng = SimRng::seed_from(0x00f0_7e57).fork(2);
    for case in 0..4 {
        let spec = random_spec(&mut rng, case);
        let seed = rng.next_u64();
        let db = TraceDb::generate(&spec, 10, seed ^ 1);
        let profile = db.pooling_profile(db.len());
        let strategy = random_strategy(&mut rng);
        let Ok(p) = plan(&spec, &profile, strategy) else {
            continue;
        };
        let dist = partition(build_model(&spec, seed).unwrap(), &p).unwrap();
        let requests = materialize_frontend_requests(&spec, &db, seed ^ 2);
        let expected: Vec<(u64, Matrix)> = requests
            .iter()
            .map(|r| {
                let mut ws = Workspace::new();
                r.inputs.load_into(&spec, &mut ws);
                (r.id, dist.run_overlapped(&mut ws, &mut NoopObserver).unwrap())
            })
            .collect();

        let schedule = ArrivalSchedule::poisson(requests.len(), 20_000.0, seed ^ 4);
        let drawn = 1 + rng.next_index(6);
        let workers = 1 + rng.next_index(3);
        // Cap 1 takes the batch-of-one path for every request (inputs
        // moved in, the prediction matrix handed over); 8 merges
        // whatever queued up. Both must equal the solo runs, hence
        // each other.
        for max_batch_requests in [1, drawn, 8] {
            let cfg = FrontendConfig {
                queue_capacity: 64,
                max_batch_requests,
                sla: Duration::from_millis(500),
                workers,
                ..FrontendConfig::default()
            };
            let ctx = format!("case {case}, cap {max_batch_requests}");
            let report = run_frontend(&dist, requests.clone(), &schedule, &cfg);

            assert_eq!(report.offered, report.admitted + report.shed, "{ctx}");
            assert_eq!(report.completed + report.failed, report.admitted, "{ctx}");
            assert_eq!(report.shed, 0, "{ctx}: queue sized for everything");
            assert_eq!(report.failed, 0, "{ctx}");
            assert_eq!(report.predictions.len(), expected.len(), "{ctx}");
            if max_batch_requests == 1 {
                assert_eq!(report.batches, report.completed, "{ctx}");
            }
            for (id, pred) in &report.predictions {
                let (_, want) = expected.iter().find(|(e, _)| e == id).unwrap();
                assert_eq!(pred, want, "{ctx}: request {id} batched != solo");
            }
        }
    }
}

// ---------------------------------------------------------------------
// The one run loop: lanes × epoch sources, backpressure, shutdown
// ---------------------------------------------------------------------

fn lane_spec() -> ModelSpec {
    let mut spec = dlrm_model::rm::rm1().scaled_to_bytes(1 << 20);
    spec.mean_items_per_request = 4.0;
    spec.default_batch_size = 4;
    spec
}

/// Checks one lane's run: the admission identities, one record per
/// pickup (each holding the one epoch its batch ran on), and every
/// prediction bit-exact with its solo run.
fn check_lane(run: &LaneRun, offered: usize, expected: &HashMap<u64, Matrix>, ctx: &str) {
    assert_eq!(run.queue.offered, offered as u64, "{ctx}");
    assert_eq!(
        run.queue.offered,
        run.queue.admitted + run.queue.shed,
        "{ctx}"
    );
    // One member per admitted request, completed or failed, and one
    // batch record per pickup.
    let members: Vec<_> = run.batches.iter().flat_map(|b| &b.members).collect();
    assert_eq!(members.len() as u64, run.queue.admitted, "{ctx}");
    let mut seqs: Vec<u64> = run.batches.iter().map(|b| b.seq).collect();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), run.batches.len(), "{ctx}: a pickup recorded twice");
    for m in members {
        let got = m
            .prediction
            .as_ref()
            .unwrap_or_else(|| panic!("{ctx}: request {} failed", m.id));
        assert_eq!(
            got, &expected[&m.id],
            "{ctx}: request {} batched != solo",
            m.id
        );
    }
}

/// lanes ∈ {1, 2, 3} × pinned/switch sources × seeds, with a publisher
/// cutting every switch lane over mid-run: each lane accounts exactly,
/// every batch runs on one epoch, predictions stay bit-exact with
/// sequential `run_overlapped`, traffic after the cutover lands on the
/// new epoch, and the retired epoch is freed once its last batch is
/// done.
#[test]
fn lanes_of_every_source_account_exactly_and_stay_bit_exact_across_a_cutover() {
    let spec = lane_spec();
    let profile = PoolingProfile::from_spec(&spec);
    let p = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(2)).unwrap();
    let cfg = FrontendConfig {
        queue_capacity: 64,
        max_batch_requests: 3,
        sla: Duration::from_millis(500),
        workers: 2,
        ..FrontendConfig::default()
    };
    for seed in [3u64, 11] {
        let pinned = partition(build_model(&spec, seed).unwrap(), &p).unwrap();
        for lanes in 1..=3usize {
            // Lane i is a switch lane when i + seed is odd, so every
            // lane count sees both kinds (and their mixes).
            let is_switch = |i: usize| (i as u64 + seed) % 2 == 1;
            let streams: Vec<(Vec<FrontendRequest>, ArrivalSchedule)> = (0..lanes)
                .map(|i| {
                    let lane_seed = seed * 31 + i as u64;
                    let db = TraceDb::generate(&spec, 24, lane_seed);
                    // The first half arrives at once, the rest spread
                    // over ~120 ms: the cutover (published as soon as
                    // the first batch is picked up) lands in between.
                    let schedule =
                        ArrivalSchedule::poisson_burst(24, 100.0, 500.0, 0.0, 0.5, lane_seed);
                    (
                        materialize_frontend_requests(&spec, &db, lane_seed ^ 1),
                        schedule,
                    )
                })
                .collect();
            let expected: Vec<HashMap<u64, Matrix>> = streams
                .iter()
                .map(|(requests, _)| {
                    let inputs: Vec<BatchInputs> =
                        requests.iter().map(|r| r.inputs.clone()).collect();
                    requests
                        .iter()
                        .map(|r| r.id)
                        .zip(sequential_predictions(&pinned, &inputs))
                        .collect()
                })
                .collect();
            // Every epoch serves over its own worker threads; the pools
            // live here and stop when the lane count's run is over.
            let mut pools = Vec::new();
            let mut epoch_state = |epoch: u64| {
                let (model, pool) =
                    threaded_cluster(&spec, &p, seed, Duration::ZERO, &FaultPlan::none());
                pools.push(pool);
                EpochServing { epoch, model }
            };
            let switches: Vec<EpochSwitch> =
                (0..lanes).map(|_| EpochSwitch::new(epoch_state(0))).collect();
            let profilers: Vec<OnlineProfiler> = (0..lanes)
                .map(|_| OnlineProfiler::for_spec(&spec))
                .collect();

            let (runs, retirees) = std::thread::scope(|s| {
                let mut publishers = Vec::new();
                for i in (0..lanes).filter(|&i| is_switch(i)) {
                    let (switch, profiler) = (&switches[i], &profilers[i]);
                    let next = epoch_state(1);
                    publishers.push(s.spawn(move || {
                        let deadline = Instant::now() + Duration::from_secs(30);
                        while profiler.total_accesses() == 0 {
                            assert!(Instant::now() < deadline, "lane {i} never served");
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        let retiree = switch.publish(next).expect("epoch 0 still serves");
                        Arc::downgrade(&retiree)
                    }));
                }
                let lane_list = streams
                    .iter()
                    .enumerate()
                    .map(|(i, (requests, schedule))| {
                        let source = if is_switch(i) {
                            EpochSource::Switch(&switches[i])
                        } else {
                            EpochSource::Pinned(&pinned)
                        };
                        let mut lane = Lane::new(source, requests.clone(), schedule, &cfg);
                        lane.profiler = Some(&profilers[i]);
                        lane
                    })
                    .collect();
                let runs = serve(lane_list, cfg.max_batch_requests, cfg.workers, None);
                let retirees: Vec<Weak<EpochServing>> = publishers
                    .into_iter()
                    .map(|p| p.join().expect("publisher"))
                    .collect();
                (runs, retirees)
            });

            // Every batch is done, so nothing holds a retired epoch.
            assert!(
                retirees.iter().all(|r| r.upgrade().is_none()),
                "seed {seed}, {lanes} lanes: a retired epoch outlived its batches"
            );
            assert_eq!(runs.len(), lanes);
            for (i, run) in runs.iter().enumerate() {
                let ctx = format!("seed {seed}, {lanes} lanes, lane {i}");
                check_lane(run, 24, &expected[i], &ctx);
                assert_eq!(run.queue.shed, 0, "{ctx}: queue sized for everything");
                let last = run
                    .batches
                    .iter()
                    .max_by(|a, b| a.exec_start_ms.total_cmp(&b.exec_start_ms))
                    .expect("batches");
                if is_switch(i) {
                    assert_eq!(switches[i].epoch(), 1, "{ctx}");
                    assert_eq!(last.epoch, 1, "{ctx}: tail missed the cutover");
                } else {
                    assert!(
                        run.batches.iter().all(|b| b.epoch == 0),
                        "{ctx}: pinned is epoch 0"
                    );
                }
            }
        }
    }
}

/// The transition pipeline's abort paths — the successor failed to
/// warm, its probe outputs diverge, or a probe came back degraded —
/// each leave the serving epoch (its number and its state) as it was
/// and name the reason; the same candidate shape built cleanly then
/// publishes as epoch 1, and the retiree is freed with it.
#[test]
fn transition_aborts_leave_serving_untouched() {
    const SEED: u64 = 33;
    let mut spec = dlrm_model::rm::rm1().scaled_to_bytes(1 << 20);
    spec.mean_items_per_request = 6.0;
    spec.default_batch_size = 4;
    let profile = PoolingProfile::from_spec(&spec);
    let p = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(2)).expect("plan");
    // Every epoch serves over its own worker threads; the pools live
    // here and stop at the end of the test.
    let mut pools = Vec::new();
    let mut build = |seed: u64, faults: &FaultPlan| {
        let (mut model, pool) = threaded_cluster(&spec, &p, seed, Duration::ZERO, faults);
        model.set_rpc_policy(deterministic_policy());
        pools.push(pool);
        // Every candidate succeeds epoch 0.
        EpochServing { epoch: 1, model }
    };
    let switch = EpochSwitch::new(EpochServing {
        epoch: 0,
        ..build(SEED, &FaultPlan::none())
    });
    let inputs = probe_inputs(&spec, 3, SEED ^ 5);
    let expected = probe_all(&spec, &switch.current().model, &inputs).expect("serving probes");
    let check = ProbeCheck {
        spec: &spec,
        inputs: &inputs,
        expected: &expected,
        tolerance: 0.0,
    };
    let serving = switch.current();

    // A replica that crashes on first use degrades the first probe
    // (the deterministic policy falls back to zero embeddings once its
    // retries run out).
    let crashing = FaultPlan::none().with(0, 0, ReplicaFaultSchedule::crash_at(0));
    let aborts: [(&str, Result<EpochServing, String>); 3] = [
        ("warm failed", Err("no capacity".to_string())),
        // Same plan, different weights: every probe answers, none matches.
        ("diverges", Ok(build(SEED + 1, &FaultPlan::none()))),
        ("degraded", Ok(build(SEED, &crashing))),
    ];
    for (reason, candidate) in aborts {
        let err = switch.transition(candidate, &check).unwrap_err();
        assert!(err.contains(reason), "expected {reason:?} in {err:?}");
        assert_eq!(switch.epoch(), 0, "{reason}: cut over anyway");
        assert!(
            Arc::ptr_eq(&switch.current(), &serving),
            "{reason}: the serving epoch was replaced"
        );
        // The serving epoch still answers, bit for bit.
        let again = probe_all(&spec, &switch.current().model, &inputs).expect("serving probes");
        assert_eq!(again, expected, "{reason}: serving epoch disturbed");
    }

    // The same candidate shape, built cleanly.
    let clean = build(SEED, &FaultPlan::none());
    let retired = Arc::downgrade(&serving);
    drop(serving);
    switch
        .transition(Ok(clean), &check)
        .expect("clean successor publishes");
    assert_eq!(switch.epoch(), 1);
    assert!(retired.upgrade().is_none(), "the retiree outlived its last holder");
    drop(switch);
    for pool in pools {
        pool.shutdown();
    }
}

/// A lane with nothing to offer terminates beside a busy one and
/// reports zeros.
#[test]
fn a_lane_with_zero_requests_terminates() {
    let spec = lane_spec();
    let profile = PoolingProfile::from_spec(&spec);
    let p = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(2)).unwrap();
    let dist = partition(build_model(&spec, 5).unwrap(), &p).unwrap();
    let db = TraceDb::generate(&spec, 8, 5);
    let requests = materialize_frontend_requests(&spec, &db, 6);
    let busy = ArrivalSchedule::poisson(requests.len(), 5_000.0, 7);
    let idle = ArrivalSchedule::poisson(0, 5_000.0, 7);
    let cfg = FrontendConfig::default();
    let lanes = vec![
        Lane::new(EpochSource::Pinned(&dist), requests, &busy, &cfg),
        Lane::new(EpochSource::Pinned(&dist), Vec::new(), &idle, &cfg),
    ];
    let runs = serve(lanes, cfg.max_batch_requests, cfg.workers, None);
    let served: usize = runs[0].batches.iter().map(|b| b.members.len()).sum();
    assert_eq!(served, 8);
    assert_eq!(runs[1].queue.offered, 0);
    assert!(runs[1].batches.is_empty());
    let report = runs.into_iter().nth(1).unwrap().into_report();
    assert_eq!((report.completed, report.batches), (0, 0));
}

/// Regression (the lane queue is the shed point): under *sustained*
/// overload the bounded queue must shed, and what is behind it stays
/// structurally bounded. The run also ends with the generator finished
/// long before the backlog drains, which must terminate with every
/// admitted request served.
#[test]
fn sustained_overload_sheds_at_admission_and_bounds_the_pipeline() {
    let spec = lane_spec();
    let profile = PoolingProfile::from_spec(&spec);
    let p = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(2)).unwrap();
    // 5 ms per shard RPC caps one worker well under 200 requests/s;
    // 400/s are offered.
    let (dist, pool) =
        threaded_cluster(&spec, &p, 9, Duration::from_millis(5), &FaultPlan::none());
    let cfg = FrontendConfig {
        queue_capacity: 4,
        max_batch_requests: 2,
        sla: Duration::from_millis(50),
        workers: 1,
        ..FrontendConfig::default()
    };
    for seed in [1u64, 2, 3] {
        let db = TraceDb::generate(&spec, 80, seed);
        let requests = materialize_frontend_requests(&spec, &db, seed ^ 5);
        let schedule = ArrivalSchedule::poisson(requests.len(), 400.0, seed);
        let lane = Lane::new(EpochSource::Pinned(&dist), requests, &schedule, &cfg);
        let run = serve(vec![lane], cfg.max_batch_requests, cfg.workers, None)
            .pop()
            .unwrap();

        assert_eq!(run.queue.offered, 80);
        assert_eq!(run.queue.offered, run.queue.admitted + run.queue.shed);
        // (enqueued, completed) per admitted request.
        let spans: Vec<(f64, f64)> = run
            .batches
            .iter()
            .flat_map(|b| b.members.iter().map(|m| (m.enqueued_ms, b.exec_end_ms)))
            .collect();
        assert_eq!(spans.len() as u64, run.queue.admitted);
        assert!(
            run.queue.shed > 0,
            "seed {seed}: sustained 2x overload never shed"
        );

        // In the system at any instant: the lane queue (capacity) and
        // one batch per worker executing — nothing else holds a
        // request. One more for the request in the generator's hand:
        // `enqueued` is stamped just before the offer.
        let bound = cfg.queue_capacity + cfg.workers * cfg.max_batch_requests + 1;
        for &(_, at) in &spans {
            let admitted = spans.iter().filter(|&&(enq, _)| enq <= at).count();
            let completed = spans.iter().filter(|&&(_, end)| end <= at).count();
            assert!(
                admitted - completed <= bound,
                "seed {seed}: {} in the system at {at:.1} ms, bound {bound}",
                admitted - completed
            );
        }
    }
    pool.shutdown();
}

/// Pull semantics through the whole run loop, no timer anywhere: a
/// burst lands while the one worker is busy with its first pickup, so
/// every later pickup finds the rest queued and takes a full batch —
/// FIFO within and across batches — until the remainder. The generator
/// is long done while the queue is still non-empty; every admitted
/// request is served all the same.
#[test]
fn a_burst_behind_a_busy_worker_rides_in_full_fifo_batches() {
    let spec = lane_spec();
    let profile = PoolingProfile::from_spec(&spec);
    let p = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(2)).unwrap();
    let (dist, pool) =
        threaded_cluster(&spec, &p, 9, Duration::from_millis(5), &FaultPlan::none());
    let cfg = FrontendConfig {
        queue_capacity: 32,
        max_batch_requests: 4,
        sla: Duration::from_millis(500),
        workers: 1,
        ..FrontendConfig::default()
    };
    for seed in [1u64, 2] {
        let db = TraceDb::generate(&spec, 22, seed);
        let requests = materialize_frontend_requests(&spec, &db, seed ^ 5);
        let offered: Vec<u64> = requests.iter().map(|r| r.id).collect();
        // 22 arrivals about a microsecond apart: all in well before the
        // first batch's 5 ms shard round trip returns.
        let schedule = ArrivalSchedule::poisson(requests.len(), 1e6, seed);
        let lane = Lane::new(EpochSource::Pinned(&dist), requests, &schedule, &cfg);
        let run = serve(vec![lane], cfg.max_batch_requests, cfg.workers, None)
            .pop()
            .unwrap();

        assert_eq!((run.queue.offered, run.queue.shed), (22, 0), "seed {seed}");
        let members: Vec<_> = run.batches.iter().flat_map(|b| &b.members).collect();
        assert_eq!(members.len() as u64, run.queue.admitted, "seed {seed}");
        assert!(members.iter().all(|m| m.prediction.is_some()), "seed {seed}");
        // One worker: completion order is batch order.
        assert!(run.batches.windows(2).all(|w| w[0].seq < w[1].seq));
        let served: Vec<u64> = members.iter().map(|m| m.id).collect();
        assert_eq!(served, offered, "seed {seed}: not FIFO");
        let sizes: Vec<usize> = run.batches.iter().map(|b| b.members.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 22, "seed {seed}");
        assert!(
            sizes[1..sizes.len() - 1].iter().all(|&s| s == 4),
            "seed {seed}: a pickup behind the first left queued requests behind: {sizes:?}"
        );
    }
    pool.shutdown();
}

/// Every worker dies mid-run (a merge of two requests that disagree on
/// their table count panics): the generator must not wedge on a queue
/// nobody drains — it sheds the rest, closes its lane, and `serve`
/// ends by propagating the panic instead of hanging.
#[test]
fn a_run_whose_workers_all_panic_terminates() {
    let spec = lane_spec();
    let profile = PoolingProfile::from_spec(&spec);
    let p = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(2)).unwrap();
    let (dist, pool) =
        threaded_cluster(&spec, &p, 9, Duration::from_millis(5), &FaultPlan::none());
    let db = TraceDb::generate(&spec, 40, 4);
    let mut requests = materialize_frontend_requests(&spec, &db, 5);
    // A trailing sparse input no table consumes: harmless alone, fatal
    // to merge with a request that lacks it — and any two neighbours
    // differ.
    for r in requests.iter_mut().step_by(2) {
        let extra = r.inputs.sparse[0].clone();
        r.inputs.sparse.push(extra);
    }
    let schedule = ArrivalSchedule::poisson(requests.len(), 2_000.0, 4);
    let cfg = FrontendConfig {
        queue_capacity: 4,
        workers: 1,
        ..FrontendConfig::default()
    };
    let tick = || ();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let lane = Lane::new(EpochSource::Pinned(&dist), requests, &schedule, &cfg);
        let tick = Some((Duration::from_millis(1), &tick as &dyn Fn()));
        serve(vec![lane], cfg.max_batch_requests, cfg.workers, tick)
    }));
    assert!(outcome.is_err(), "no two requests ever merged");
    pool.shutdown();
}
