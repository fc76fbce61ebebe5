//! Property-style tests on the overlap scheduler: for randomly drawn
//! model specs, shardings and inputs (deterministic [`SimRng`] streams —
//! the in-tree replacement for proptest), the dependency-aware executor
//! must produce bit-identical predictions to the strictly sequential
//! reference ([`NetDef::run`] in net order, which moves no blob),
//! through in-process and thread-backed transports alike,
//! with every RPC of every net on the wire before the first reply is
//! waited for; and a shard failure while other RPCs are in flight must propagate as
//! an error, not a hang or a wrong answer.

use dlrm_model::graph::NoopObserver;
use dlrm_model::{
    build_model, ModelSpec, NetDef, NetId, NetSpec, OpGroup, TableId, TableSpec, Workspace,
};
use dlrm_serving::fault::FaultPlan;
use dlrm_serving::replica::{HealthPolicy, ReplicatedShardPool};
use dlrm_sharding::rpc::{
    ReadyResponse, RpcCompletion, RpcError, ShardRequest, ShardResponse, SparseShardClient,
};
use dlrm_sharding::{
    partition_with_clients, plan, DistributedModel, InProcessClient, ShardId, ShardService,
    ShardingPlan, ShardingStrategy,
};
use dlrm_sim::SimRng;
use dlrm_tensor::Matrix;
use dlrm_workload::{materialize_request, BatchInputs, TraceDb};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Draws a small but structurally varied model spec: 1–2 nets, 1–3
/// tables per net, 1–2 MLP layers per stack.
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
        name: format!("prop{case}"),
        dense_features: 3 + rng.next_index(6),
        tables,
        nets,
        default_batch_size: 1 + rng.next_index(6),
        mean_items_per_request: 8.0,
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

/// What the [`CountingClient`]s of one model saw: how many requests
/// were sent, and how many of them had been sent when the first reply
/// was handed back.
#[derive(Debug, Default)]
struct IssueTally {
    issued: AtomicUsize,
    /// 0 until a `wait` returns.
    issued_at_first_wait: AtomicUsize,
}

/// A shard client that forwards to `inner` and records the issue order
/// in a tally shared by all clients of the model.
#[derive(Debug)]
struct CountingClient {
    inner: Arc<dyn SparseShardClient>,
    tally: Arc<IssueTally>,
}

struct CountingCompletion {
    inner: Box<dyn RpcCompletion>,
    tally: Arc<IssueTally>,
}

impl SparseShardClient for CountingClient {
    fn shard_id(&self) -> ShardId {
        self.inner.shard_id()
    }
    fn begin_shared(
        &self,
        request: &Arc<ShardRequest>,
    ) -> Result<Box<dyn RpcCompletion>, RpcError> {
        self.tally.issued.fetch_add(1, Ordering::SeqCst);
        Ok(Box::new(CountingCompletion {
            inner: self.inner.begin_shared(request)?,
            tally: Arc::clone(&self.tally),
        }))
    }
}

impl RpcCompletion for CountingCompletion {
    fn wait_until(&mut self, deadline: Option<Instant>) -> Option<Result<ShardResponse, RpcError>> {
        let reply = self.inner.wait_until(deadline)?;
        let issued = self.tally.issued.load(Ordering::SeqCst);
        let first = &self.tally.issued_at_first_wait;
        let _ = first.compare_exchange(0, issued, Ordering::SeqCst, Ordering::SeqCst);
        Some(reply)
    }
}

/// Partitions a freshly built model onto `clients`, each wrapped in a
/// [`CountingClient`].
fn partition_counted(
    spec: &ModelSpec,
    p: &ShardingPlan,
    seed: u64,
    services: Vec<Arc<ShardService>>,
    clients: Vec<Arc<dyn SparseShardClient>>,
) -> (DistributedModel, Arc<IssueTally>) {
    let tally = Arc::new(IssueTally::default());
    let counted = clients
        .into_iter()
        .map(|inner| {
            let tally = Arc::clone(&tally);
            Arc::new(CountingClient { inner, tally }) as Arc<dyn SparseShardClient>
        })
        .collect();
    let model = build_model(spec, seed).unwrap();
    let dist = partition_with_clients(model, p, services, counted).unwrap();
    (dist, tally)
}

fn shard_services(spec: &ModelSpec, p: &ShardingPlan, seed: u64) -> Vec<Arc<ShardService>> {
    let model = build_model(spec, seed).unwrap();
    p.shards()
        .map(|s| Arc::new(ShardService::build(&model.tables, p, s)))
        .collect()
}

/// The sequential oracle: `batch` through every net in order with
/// [`NetDef::run`] on a workspace with no consumer counts, so no blob
/// moves; returns that workspace and the prediction.
fn sequential(
    nets: &[NetDef],
    output: &str,
    spec: &ModelSpec,
    batch: &BatchInputs,
) -> (Workspace, Matrix) {
    let mut ws = Workspace::new();
    batch.load_into(spec, &mut ws);
    for net in nets {
        net.run(&mut ws, &mut NoopObserver).unwrap();
    }
    let out = ws.dense(output, "oracle").unwrap().clone();
    (ws, out)
}

/// Every activation's single-reader input has moved out of `ws` and is
/// still in the no-move `oracle`: a walk on a workspace no caller
/// installed counts on (what a dual-read probe builds) moves it anyway.
fn assert_moved(nets: &[NetDef], oracle: &Workspace, ws: &Workspace, what: &str) {
    let ops = || nets.iter().flat_map(NetDef::ops);
    let readers = |blob: &String| ops().flat_map(|op| op.inputs()).filter(|i| i == blob).count();
    let taken: Vec<String> = ops()
        .filter(|op| op.group() == OpGroup::Activation)
        .map(|op| op.inputs().remove(0))
        .filter(|blob| readers(blob) == 1)
        .collect();
    assert!(!taken.is_empty(), "{what}: no single-reader activation input");
    for blob in &taken {
        assert!(oracle.blob(blob).is_some(), "{what}: the oracle moved {blob}");
        assert!(ws.blob(blob).is_none(), "{what}: {blob} was copied, not moved");
    }
}

/// Runs `batch` sequentially and overlapped; the predictions must agree
/// bit for bit, the overlapped run must have moved its single-reader
/// blobs, and it must have sent every RPC of every net before it waited
/// for the first reply.
fn assert_overlap_exact_and_all_issued_first(
    dist: &DistributedModel,
    tally: &IssueTally,
    batch: &BatchInputs,
    what: &str,
) {
    let (oracle, a) = sequential(&dist.nets, &dist.output_blob, &dist.spec, batch);
    let mut ws_ovl = Workspace::new();
    batch.load_into(&dist.spec, &mut ws_ovl);
    tally.issued.store(0, Ordering::SeqCst);
    tally.issued_at_first_wait.store(0, Ordering::SeqCst);
    let b = dist.run_overlapped(&mut ws_ovl, &mut NoopObserver).unwrap();
    assert_eq!(a, b, "{what}");
    assert_moved(&dist.nets, &oracle, &ws_ovl, what);
    let rpcs = dist.rpc_ops_per_inference();
    assert_eq!(tally.issued.load(Ordering::SeqCst), rpcs, "{what}");
    assert_eq!(
        tally.issued_at_first_wait.load(Ordering::SeqCst),
        rpcs,
        "{what}: an RPC was still unsent when the first wait returned"
    );
}

/// Overlap scheduler ≡ sequential executor, bit for bit, across random
/// specs — singular models (`Model::run`, the same walk) and
/// in-process-partitioned models.
#[test]
fn overlapped_bit_identical_to_sequential_across_random_specs() {
    let mut rng = SimRng::seed_from(0x5e_41a9).fork(7);
    let mut distributed_cases = 0;
    for case in 0..40 {
        let spec = random_spec(&mut rng, case);
        let seed = rng.next_u64();
        let model = build_model(&spec, seed).unwrap();
        let db = TraceDb::generate(&spec, 2, seed ^ 1);
        let batches = materialize_request(&spec, db.get(0), spec.default_batch_size, seed ^ 2);

        for batch in &batches {
            let (oracle, want) = sequential(&model.nets, &model.output_blob, &spec, batch);
            let mut ws = Workspace::new();
            batch.load_into(&spec, &mut ws);
            let got = model.run(&mut ws, &mut NoopObserver).unwrap();
            assert_eq!(got, want, "case {case}: singular");
            assert_moved(&model.nets, &oracle, &ws, &format!("case {case}: singular"));
        }

        // Distributed model under a random strategy (skip plans the
        // strategy cannot produce for this spec shape).
        let strategy = random_strategy(&mut rng);
        let profile = db.pooling_profile(db.len());
        let Ok(p) = plan(&spec, &profile, strategy) else {
            continue;
        };
        let services = shard_services(&spec, &p, seed);
        let clients = services
            .iter()
            .map(|s| Arc::new(InProcessClient::new(Arc::clone(s))) as Arc<dyn SparseShardClient>)
            .collect();
        let (dist, tally) = partition_counted(&spec, &p, seed, services, clients);
        distributed_cases += 1;
        for batch in &batches {
            let what = format!("case {case}: distributed under {strategy}");
            assert_overlap_exact_and_all_issued_first(&dist, &tally, batch, &what);
        }
    }
    assert!(
        distributed_cases >= 10,
        "only {distributed_cases} distributed cases exercised"
    );
}

/// One fault-free worker thread per shard, each sleeping `delay` per
/// request.
fn threaded_pool(services: Vec<Arc<ShardService>>, delay: Duration) -> ReplicatedShardPool {
    ReplicatedShardPool::spawn(
        services,
        1,
        delay,
        &FaultPlan::none(),
        HealthPolicy::default(),
    )
}

/// Same property through the thread-backed transport: real concurrency
/// must not change a single bit of the predictions. Odd cases give each
/// shard worker a 2 ms service delay, so replies arrive while other RPCs
/// are still outstanding; in every case the pool's RPC instrumentation
/// must count each call of both runs and have seen every RPC of an
/// overlapped run in flight at once.
#[test]
fn overlapped_bit_identical_over_threaded_transport() {
    let mut rng = SimRng::seed_from(0x7472_616e).fork(3);
    for case in 0..8 {
        let spec = random_spec(&mut rng, case);
        let seed = rng.next_u64();
        let db = TraceDb::generate(&spec, 1, seed);
        let profile = db.pooling_profile(db.len());
        let shards = 1 + rng.next_index(3);
        let Ok(p) = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(shards)) else {
            continue;
        };
        let services = shard_services(&spec, &p, seed);
        let delay = Duration::from_millis(2 * (case % 2) as u64);
        let pool = threaded_pool(services.clone(), delay);
        let (dist, tally) = partition_counted(&spec, &p, seed, services, pool.clients());
        let batches = materialize_request(&spec, db.get(0), spec.default_batch_size, seed ^ 5);
        for batch in &batches {
            let what = format!("case {case}");
            assert_overlap_exact_and_all_issued_first(&dist, &tally, batch, &what);
        }
        let summaries = pool.replica_rpc_summaries();
        // Every batch ran each RPC op twice: sequentially, then overlapped.
        let calls: u64 = summaries.iter().map(|s| s.calls).sum();
        let want = 2 * dist.rpc_ops_per_inference() * batches.len();
        assert_eq!(calls, want as u64, "case {case}: RPC calls counted");
        // A seat counts a call in flight from its send to its settle, and
        // the overlapped run sends every RPC before it waits: each seat's
        // watermark is the number of RPC ops routed to it, so the
        // watermarks sum to the ops per inference.
        let watermarks: usize = summaries.iter().map(|s| s.max_in_flight).sum();
        assert_eq!(
            watermarks,
            dist.rpc_ops_per_inference(),
            "case {case}: RPCs in flight at once"
        );
        pool.shutdown();
    }
}

/// A client whose shard always fails — either at send time or
/// shard-side. Both settle at collect: a failed send is the RPC's first
/// failed attempt.
#[derive(Debug)]
struct FailingClient {
    shard: ShardId,
    fail_at_send: bool,
}

impl SparseShardClient for FailingClient {
    fn shard_id(&self) -> ShardId {
        self.shard
    }
    fn begin_shared(
        &self,
        _request: &Arc<ShardRequest>,
    ) -> Result<Box<dyn RpcCompletion>, RpcError> {
        if self.fail_at_send {
            return Err(RpcError::Transport {
                shard: self.shard,
                message: "injected transport failure".to_string(),
            });
        }
        // A deterministic shard-side rejection, deferred to collect like
        // a real one: not retryable, so the default policy surfaces it
        // directly.
        Ok(Box::new(ReadyResponse(Err(RpcError::ShardFault {
            shard: self.shard,
            message: "injected shard failure".to_string(),
        }))))
    }
}

/// One shard failing while the other shards' RPCs are in flight must
/// surface as `OpFailed` from the overlap scheduler — no hang, no
/// partial-result success.
#[test]
fn shard_failure_propagates_while_other_rpcs_in_flight() {
    let mut spec = dlrm_model::rm::rm1().scaled_to_bytes(2 << 20);
    spec.mean_items_per_request = 8.0;
    spec.default_batch_size = 8;
    let db = TraceDb::generate(&spec, 1, 3);
    let profile = db.pooling_profile(db.len());
    let p = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(3)).unwrap();
    let services = shard_services(&spec, &p, 3);

    for fail_at_send in [false, true] {
        // Shard 1 fails; shards 0 and 2 answer in-process.
        let clients: Vec<Arc<dyn SparseShardClient>> = services
            .iter()
            .map(|s| {
                if s.shard_id() == ShardId(1) {
                    Arc::new(FailingClient {
                        shard: ShardId(1),
                        fail_at_send,
                    }) as Arc<dyn SparseShardClient>
                } else {
                    Arc::new(InProcessClient::new(Arc::clone(s))) as Arc<dyn SparseShardClient>
                }
            })
            .collect();
        let model = build_model(&spec, 3).unwrap();
        let dist = partition_with_clients(model, &p, services.clone(), clients).unwrap();

        let batch = &materialize_request(&spec, db.get(0), 8, 3)[0];
        let mut ws = Workspace::new();
        batch.load_into(&spec, &mut ws);
        let err = dist.run_overlapped(&mut ws, &mut NoopObserver).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("injected"), "fail_at_send={fail_at_send}: {msg}");
    }
}

/// The same failure also propagates through the threaded transport with
/// real RPCs genuinely outstanding on the healthy shards.
#[test]
fn shard_failure_propagates_over_threaded_transport() {
    let mut spec = dlrm_model::rm::rm1().scaled_to_bytes(2 << 20);
    spec.mean_items_per_request = 8.0;
    spec.default_batch_size = 8;
    let db = TraceDb::generate(&spec, 1, 9);
    let profile = db.pooling_profile(db.len());
    let p = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(2)).unwrap();
    let model = build_model(&spec, 9).unwrap();
    let services = shard_services(&spec, &p, 9);
    let pool = threaded_pool(services.clone(), Duration::from_millis(10));
    // Shard 0 is threaded (slow → genuinely in flight); shard 1 fails.
    let clients: Vec<Arc<dyn SparseShardClient>> = vec![
        pool.clients()[0].clone(),
        Arc::new(FailingClient {
            shard: ShardId(1),
            fail_at_send: false,
        }),
    ];
    let dist = partition_with_clients(model, &p, services, clients).unwrap();
    let batch = &materialize_request(&spec, db.get(0), 8, 9)[0];
    let mut ws = Workspace::new();
    batch.load_into(&spec, &mut ws);
    let err = dist.run_overlapped(&mut ws, &mut NoopObserver).unwrap_err();
    assert!(err.to_string().contains("injected"), "{err}");
    pool.shutdown();
}
