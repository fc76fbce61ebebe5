//! Thread-backed sparse-shard transport.
//!
//! "Each shard runs a full service handler and ML framework instance"
//! (§III-A2). This module realizes that deployment shape in-process:
//! every [`ShardService`] runs on its own long-lived worker thread with
//! a request queue, and [`ThreadedClient`] is the connection object the
//! partitioned graph's `SparseRpc` operators call. Requests cross a real
//! thread boundary (channel send → remote execution → channel receive),
//! so concurrent batch execution (the frontend's workers) genuinely
//! overlaps shard work — the asynchronous parallelism of Fig. 3 with
//! actual OS concurrency rather than a simulator. This module is the
//! channel *transport* only; the pool that owns the workers is
//! [`ReplicatedShardPool`](crate::replica::ReplicatedShardPool).
//!
//! Workers are fault-aware: each consults a
//! [`ReplicaFaultSchedule`] by
//! request ordinal (latency spikes, dropped replies, injected transient
//! errors, panics, hard crashes), and panics while serving are caught
//! and surfaced as [`RpcError::Poisoned`] instead of killing the worker.

use crate::fault::{serve_under_fault, ReplicaFaultSchedule, Served};
use dlrm_sharding::rpc::{RpcCompletion, RpcError, ShardRequest, ShardResponse, SparseShardClient};
use dlrm_sharding::{ShardId, ShardService};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-client wire-level accounting: frames and bytes crossing the
/// transport, plus time spent encoding/decoding them. An in-process
/// transport moves no bytes, so its totals stay zero; the TCP transport
/// pays (and records) real serde and socket traffic — the serialization
/// cost layer the paper's cross-layer breakdown calls out (§IV-B).
///
/// Serde time is kept in integer nanoseconds so summaries stay `Eq`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireTotals {
    /// Frames written to the transport.
    pub frames_sent: u64,
    /// Frames read from the transport.
    pub frames_received: u64,
    /// Bytes written (headers + payloads).
    pub bytes_sent: u64,
    /// Bytes read (headers + payloads).
    pub bytes_received: u64,
    /// Nanoseconds spent encoding requests and decoding replies.
    pub serde_ns: u64,
}

impl WireTotals {
    /// Whether any wire activity was recorded.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == Self::default()
    }

    /// Serde time in milliseconds.
    #[must_use]
    pub fn serde_ms(&self) -> f64 {
        self.serde_ns as f64 / 1e6
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &WireTotals) {
        self.frames_sent += other.frames_sent;
        self.frames_received += other.frames_received;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.serde_ns += other.serde_ns;
    }
}

impl std::fmt::Display for WireTotals {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frames tx/rx={}/{} bytes tx/rx={}/{} serde={:.3}ms",
            self.frames_sent,
            self.frames_received,
            self.bytes_sent,
            self.bytes_received,
            self.serde_ms()
        )
    }
}

/// One in-flight RPC: the request, shared with the caller, plus the
/// reply channel.
pub(crate) struct Envelope {
    request: Arc<ShardRequest>,
    reply: SyncSender<Result<ShardResponse, RpcError>>,
}

/// A message to a shard worker: a call, or an orderly stop.
pub(crate) enum WorkerMsg {
    Call(Envelope),
    Stop,
}

/// Per-seat RPC instrumentation: the call ledger (in flight, watermark,
/// settled calls, rows), which only the replica seat layer
/// ([`crate::replica`]) writes, and the wire totals, which only the TCP
/// transport writes. Round-trip windows are not kept here: the engine's
/// trace spans (`RpcOutstanding`, `RpcRetry`, `RpcHedge`) record them.
#[derive(Debug, Default)]
pub(crate) struct RpcStats {
    /// RPCs currently issued and not yet collected.
    in_flight: AtomicUsize,
    /// High-watermark of `in_flight` — >1 proves calls overlapped.
    max_in_flight: AtomicUsize,
    /// Round trips settled by a reply or an error (abandoned calls are
    /// not counted).
    calls: AtomicU64,
    /// Wire accounting (stays zero for in-process transports).
    frames_sent: AtomicU64,
    frames_received: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    serde_ns: AtomicU64,
    /// Embedding-row lookups shipped in requests through this seat —
    /// the fan-out quantity the hot-row cache exists to shrink. Tracked
    /// outside [`WireTotals`] because it counts on every transport,
    /// including in-process ones that move no bytes.
    rows_sent: AtomicU64,
}

impl RpcStats {
    /// One call sent.
    pub(crate) fn on_issue(&self) {
        let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        self.max_in_flight.fetch_max(now, Ordering::SeqCst);
    }

    /// One call settled by a reply or an error.
    pub(crate) fn on_settle(&self) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    /// One call dropped before it settled.
    pub(crate) fn on_abandon(&self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    /// One frame of `bytes` written to the wire.
    pub(crate) fn on_wire_sent(&self, bytes: usize) {
        self.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// One frame of `bytes` read from the wire.
    pub(crate) fn on_wire_received(&self, bytes: usize) {
        self.frames_received.fetch_add(1, Ordering::Relaxed);
        self.bytes_received.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Time spent encoding or decoding frames.
    pub(crate) fn add_serde(&self, elapsed: Duration) {
        self.serde_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Row lookups carried by one issued request.
    pub(crate) fn add_rows_sent(&self, rows: u64) {
        self.rows_sent.fetch_add(rows, Ordering::Relaxed);
    }

    /// Row lookups shipped through this client so far.
    pub(crate) fn rows_sent(&self) -> u64 {
        self.rows_sent.load(Ordering::Relaxed)
    }

    /// Snapshot of the wire accounting.
    pub(crate) fn wire_totals(&self) -> WireTotals {
        WireTotals {
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            frames_received: self.frames_received.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            serde_ns: self.serde_ns.load(Ordering::Relaxed),
        }
    }

    /// Snapshot as a [`ShardRpcSummary`] for `shard`.
    pub(crate) fn summarize(&self, shard: ShardId) -> ShardRpcSummary {
        ShardRpcSummary {
            shard,
            calls: self.calls.load(Ordering::Relaxed),
            rows: self.rows_sent(),
            max_in_flight: self.max_in_flight.load(Ordering::SeqCst),
            wire: self.wire_totals(),
        }
    }
}

/// A snapshot of one shard's RPC instrumentation, surfaced in run
/// summaries (see
/// [`ShardPool::replica_rpc_summaries`](crate::replica::ShardPool::replica_rpc_summaries)).
#[derive(Debug, Clone)]
pub struct ShardRpcSummary {
    /// The shard.
    pub shard: ShardId,
    /// Round trips settled by a reply or an error.
    pub calls: u64,
    /// Embedding rows requested over those (and any still in flight):
    /// the load signal that does not depend on how requests were
    /// batched into calls.
    pub rows: u64,
    /// High-watermark of concurrently outstanding RPCs to this shard.
    pub max_in_flight: usize,
    /// Wire accounting (zero for in-process transports).
    pub wire: WireTotals,
}

impl std::fmt::Display for ShardRpcSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: calls={} rows={} max_in_flight={}",
            self.shard, self.calls, self.rows, self.max_in_flight
        )?;
        if !self.wire.is_zero() {
            write!(f, " wire[{}]", self.wire)?;
        }
        Ok(())
    }
}

/// Spawns one shard worker thread serving `service` with the given
/// injected base `delay` and fault schedule — one per replica of each
/// shard in the replicated pool.
pub(crate) fn spawn_worker(
    service: Arc<ShardService>,
    delay: Duration,
    faults: ReplicaFaultSchedule,
    thread_name: String,
) -> (Sender<WorkerMsg>, JoinHandle<()>) {
    let (tx, rx) = channel::<WorkerMsg>();
    let handle = std::thread::Builder::new()
        .name(thread_name)
        .spawn(move || worker_loop(&service, &rx, delay, &faults))
        .expect("spawn shard worker");
    (tx, handle)
}

/// The shard worker's service loop: serve calls until a stop arrives or
/// every client is gone, then drain what is already queued. Faults from
/// `faults` are injected by request ordinal; a
/// [`FaultAction::Crash`](crate::fault::FaultAction::Crash) kills the worker outright (queued and future
/// requests fail as transport errors). Panics while serving — injected
/// or organic — are caught and returned as [`RpcError::Poisoned`].
fn worker_loop(
    service: &ShardService,
    rx: &Receiver<WorkerMsg>,
    delay: Duration,
    faults: &ReplicaFaultSchedule,
) {
    let mut ordinal: u64 = 0;
    // Serves one envelope; `false` means the worker crashed (the
    // envelope's reply sender drops, so the caller sees a transport
    // loss, and every later send to this replica fails too).
    let mut serve = |Envelope { request, reply }: Envelope| -> bool {
        let action = faults.action_at(ordinal);
        ordinal += 1;
        let served = serve_under_fault(service, &request, delay, action);
        // Let go of the request before replying, so the caller that
        // collects the reply holds it alone and can recycle its vectors.
        drop(request);
        match served {
            Served::Crashed => false,
            Served::Dropped => true,
            Served::Reply(result) => {
                // A dropped reply channel means the caller gave up;
                // nothing to do (stateless).
                let _ = reply.send(result);
                true
            }
        }
    };
    loop {
        match rx.recv() {
            Ok(WorkerMsg::Call(envelope)) => {
                if !serve(envelope) {
                    return; // crashed: no drain, queued envelopes die
                }
            }
            // Stop: drain envelopes that raced in behind the stop
            // message so issued-but-uncollected RPCs still complete.
            Ok(WorkerMsg::Stop) => break,
            // Every client is gone; the queue is already empty.
            Err(_) => return,
        }
    }
    while let Ok(WorkerMsg::Call(envelope)) = rx.try_recv() {
        if !serve(envelope) {
            return;
        }
    }
}

/// A connection to one shard worker thread.
#[derive(Debug, Clone)]
pub struct ThreadedClient {
    shard: ShardId,
    tx: Sender<WorkerMsg>,
}

impl ThreadedClient {
    pub(crate) fn new(shard: ShardId, tx: Sender<WorkerMsg>) -> Self {
        Self { shard, tx }
    }
}

/// An RPC sent to a shard worker whose reply has not been received yet.
struct ThreadedCompletion {
    shard: ShardId,
    reply_rx: Receiver<Result<ShardResponse, RpcError>>,
}

impl RpcCompletion for ThreadedCompletion {
    fn wait_until(&mut self, deadline: Option<Instant>) -> Option<Result<ShardResponse, RpcError>> {
        let received = match deadline {
            None => self.reply_rx.recv().ok(),
            Some(deadline) => {
                let left = deadline.saturating_duration_since(Instant::now());
                match self.reply_rx.recv_timeout(left) {
                    Err(RecvTimeoutError::Timeout) => return None,
                    received => received.ok(),
                }
            }
        };
        Some(received.unwrap_or_else(|| {
            Err(RpcError::Transport {
                shard: self.shard,
                message: "worker dropped the request".to_string(),
            })
        }))
    }
}

impl SparseShardClient for ThreadedClient {
    fn shard_id(&self) -> ShardId {
        self.shard
    }

    /// Hands the shared request to the worker thread: no copy per send.
    fn begin_shared(
        &self,
        request: &Arc<ShardRequest>,
    ) -> Result<Box<dyn RpcCompletion>, RpcError> {
        let (reply_tx, reply_rx) = sync_channel(1);
        self.tx
            .send(WorkerMsg::Call(Envelope {
                request: Arc::clone(request),
                reply: reply_tx,
            }))
            .map_err(|_| RpcError::Transport {
                shard: self.shard,
                message: "worker is down".to_string(),
            })?;
        Ok(Box::new(ThreadedCompletion {
            shard: self.shard,
            reply_rx,
        }))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fault::{FaultAction, FaultPlan};
    use crate::replica::{HealthPolicy, ReplicatedShardPool};
    use dlrm_model::graph::NoopObserver;
    use dlrm_model::{build_model, rm, ModelSpec, Workspace};
    use dlrm_sharding::{partition, plan, ShardingStrategy};
    use dlrm_workload::{materialize_request, PoolingProfile, TraceDb};

    pub(crate) fn toy_spec() -> ModelSpec {
        let mut s = rm::rm1().scaled_to_bytes(2 << 20);
        s.mean_items_per_request = 12.0;
        s.default_batch_size = 6;
        s
    }

    /// One worker per shard: un-replicated serving is `replicas = 1`.
    fn spawn_pool(
        services: Vec<Arc<ShardService>>,
        delay: Duration,
        faults: &FaultPlan,
    ) -> ReplicatedShardPool {
        ReplicatedShardPool::spawn(services, 1, delay, faults, HealthPolicy::default())
    }

    fn build_threaded(
        spec: &ModelSpec,
        strategy: ShardingStrategy,
        seed: u64,
    ) -> (dlrm_sharding::DistributedModel, ReplicatedShardPool) {
        let profile = PoolingProfile::from_spec(spec);
        let p = plan(spec, &profile, strategy).unwrap();
        ReplicatedShardPool::assemble(spec, &p, seed, |services| {
            Ok(spawn_pool(services, Duration::ZERO, &FaultPlan::none()))
        })
        .unwrap()
    }

    pub(crate) fn one_shard_services() -> Vec<Arc<ShardService>> {
        let spec = toy_spec();
        let profile = PoolingProfile::from_spec(&spec);
        let p = plan(&spec, &profile, ShardingStrategy::OneShard).unwrap();
        let model = build_model(&spec, 1).unwrap();
        p.shards()
            .map(|s| Arc::new(ShardService::build(&model.tables, &p, s)))
            .collect()
    }

    fn one_shard_pool_with_faults(faults: &FaultPlan) -> (ReplicatedShardPool, ShardRequest) {
        let pool = spawn_pool(one_shard_services(), Duration::ZERO, faults);
        let request = ShardRequest {
            net: dlrm_model::NetId(0),
            slices: vec![],
        };
        (pool, request)
    }

    #[test]
    fn threaded_matches_in_process_bit_for_bit() {
        let spec = toy_spec();
        let strategy = ShardingStrategy::LoadBalanced(4);
        let (threaded, pool) = build_threaded(&spec, strategy, 7);

        let profile = PoolingProfile::from_spec(&spec);
        let p = plan(&spec, &profile, strategy).unwrap();
        let in_process = partition(build_model(&spec, 7).unwrap(), &p).unwrap();

        let db = TraceDb::generate(&spec, 2, 3);
        for batch in materialize_request(&spec, db.get(0), 6, 3) {
            let mut ws_a = Workspace::new();
            batch.load_into(&spec, &mut ws_a);
            let mut ws_b = ws_a.clone();
            let a = threaded.run_overlapped(&mut ws_a, &mut NoopObserver).unwrap();
            let b = in_process.run_overlapped(&mut ws_b, &mut NoopObserver).unwrap();
            assert_eq!(a, b);
        }
        pool.shutdown();
    }

    #[test]
    fn concurrent_batches_share_the_workers() {
        let spec = toy_spec();
        let (threaded, pool) =
            build_threaded(&spec, ShardingStrategy::CapacityBalanced(2), 9);
        let db = TraceDb::generate(&spec, 1, 11);
        let batches = materialize_request(&spec, db.get(0), 4, 11);
        let sequential: Vec<_> = batches
            .iter()
            .map(|b| {
                let mut ws = Workspace::new();
                b.load_into(&spec, &mut ws);
                threaded.run_overlapped(&mut ws, &mut NoopObserver).unwrap()
            })
            .collect();
        // Every batch on its own thread, all sharing the shard workers.
        let parallel: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = batches
                .iter()
                .map(|b| {
                    s.spawn(|| {
                        let mut ws = Workspace::new();
                        b.load_into(&spec, &mut ws);
                        threaded.run_overlapped(&mut ws, &mut NoopObserver).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(sequential, parallel);
        pool.shutdown();
    }

    #[test]
    fn client_reports_dead_worker() {
        let (pool, request) = one_shard_pool_with_faults(&FaultPlan::none());
        let clients = pool.clients();
        pool.shutdown();
        let err = clients[0].execute(&request).unwrap_err();
        assert!(matches!(err, RpcError::Transport { .. }), "{err}");
        assert!(err.is_retryable());
        let msg = err.to_string();
        assert!(msg.contains("down") || msg.contains("dropped"), "{msg}");
    }

    #[test]
    fn pool_drop_joins_workers() {
        let spec = toy_spec();
        let (dist, pool) = build_threaded(&spec, ShardingStrategy::OneShard, 3);
        drop(dist); // clients dropped first
        drop(pool); // must not hang
    }

    #[test]
    fn shutdown_drains_issued_but_uncollected_requests() {
        // Regression: an RPC issued via begin_execute before shutdown
        // must still produce its reply — the worker drains queued
        // envelopes behind the stop message instead of abandoning them.
        // A service delay widens the race window: the stop message is
        // queued while the request is still unserved.
        let pool = spawn_pool(
            one_shard_services(),
            Duration::from_millis(20),
            &FaultPlan::none(),
        );
        let clients = pool.clients();
        let request = dlrm_sharding::rpc::ShardRequest {
            net: dlrm_model::NetId(0),
            slices: vec![],
        };
        let pending_a = clients[0].begin_execute(&request).unwrap();
        let pending_b = clients[0].begin_execute(&request).unwrap();
        pool.shutdown();
        // Both issued calls completed despite the shutdown.
        assert!(pending_a.wait().is_ok());
        assert!(pending_b.wait().is_ok());
        // New calls after shutdown fail cleanly.
        let err = clients[0].execute(&request).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("down") || msg.contains("dropped"), "{msg}");
    }

    #[test]
    fn rpc_summaries_report_calls_and_concurrency() {
        let spec = toy_spec();
        let (threaded, pool) = build_threaded(&spec, ShardingStrategy::CapacityBalanced(2), 5);
        let db = TraceDb::generate(&spec, 1, 3);
        for batch in materialize_request(&spec, db.get(0), 6, 3) {
            let mut ws = Workspace::new();
            batch.load_into(&spec, &mut ws);
            threaded.run_overlapped(&mut ws, &mut NoopObserver).unwrap();
        }
        let summaries = pool.replica_rpc_summaries();
        assert_eq!(summaries.len(), 2);
        for s in &summaries {
            assert!(s.calls > 0, "{s}");
            assert!(s.rows > 0, "{s}");
            assert!(s.max_in_flight >= 1, "{s}");
            // Display formatting exercised (surfaced in run summaries).
            assert!(format!("{s}").contains("calls="));
        }
        pool.shutdown();
    }

    #[test]
    fn worker_panic_is_caught_as_poisoned_error() {
        // Regression: a panic inside the shard worker must not kill the
        // worker or poison the pool — it surfaces as a typed
        // RpcError::Poisoned carrying the shard id, and the worker keeps
        // serving subsequent requests.
        use crate::fault::ReplicaFaultSchedule;
        let plan = FaultPlan::none()
            .with(0, 0, ReplicaFaultSchedule::none().with(0, FaultAction::Panic));
        let (pool, request) = one_shard_pool_with_faults(&plan);
        let clients = pool.clients();
        let err = clients[0].execute(&request).unwrap_err();
        match &err {
            RpcError::Poisoned { shard, message } => {
                assert_eq!(*shard, clients[0].shard_id());
                assert!(message.contains("injected worker panic"), "{message}");
            }
            other => panic!("expected Poisoned, got {other}"),
        }
        assert!(err.is_retryable());
        assert_eq!(err.kind(), "poisoned");
        // The worker survived the panic and serves the next call.
        assert!(clients[0].execute(&request).is_ok());
        pool.shutdown();
    }

    #[test]
    fn crashed_worker_fails_queued_and_future_calls() {
        let plan = FaultPlan::none().with(0, 0, ReplicaFaultSchedule::crash_at(0));
        let (pool, request) = one_shard_pool_with_faults(&plan);
        let clients = pool.clients();
        // The crash victim's reply is lost: transport error, retryable.
        let err = clients[0].execute(&request).unwrap_err();
        assert!(matches!(err, RpcError::Transport { .. }), "{err}");
        assert!(err.is_retryable());
        // Wait for the worker thread to die, then sends fail outright.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match clients[0].execute(&request) {
                Err(RpcError::Transport { message, .. }) if message.contains("down") => break,
                Err(_) | Ok(_) => {
                    assert!(Instant::now() < deadline, "worker never died");
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
        drop(pool); // must not hang joining the dead worker
    }

    #[test]
    fn injected_transient_fault_then_recovery() {
        let plan = FaultPlan::none().with(
            0,
            0,
            ReplicaFaultSchedule::none().with(0, FaultAction::TransientError),
        );
        let (pool, request) = one_shard_pool_with_faults(&plan);
        let clients = pool.clients();
        let err = clients[0].execute(&request).unwrap_err();
        assert_eq!(err.kind(), "transport");
        assert!(err.to_string().contains("injected transient fault"));
        assert!(clients[0].execute(&request).is_ok());
        pool.shutdown();
    }

    #[test]
    fn dropped_reply_surfaces_as_transport_loss() {
        let plan = FaultPlan::none().with(
            0,
            0,
            ReplicaFaultSchedule::none().with(0, FaultAction::DropReply),
        );
        let (pool, request) = one_shard_pool_with_faults(&plan);
        let clients = pool.clients();
        let err = clients[0].execute(&request).unwrap_err();
        assert!(matches!(err, RpcError::Transport { .. }), "{err}");
        assert!(err.to_string().contains("dropped"), "{err}");
        assert!(clients[0].execute(&request).is_ok());
        pool.shutdown();
    }

    #[test]
    fn wait_until_returns_none_then_the_reply() {
        let plan = FaultPlan::none().with(
            0,
            0,
            ReplicaFaultSchedule::none().with(0, FaultAction::Delay(Duration::from_millis(50))),
        );
        let (pool, request) = one_shard_pool_with_faults(&plan);
        let clients = pool.clients();
        let mut completion = clients[0].begin_execute(&request).unwrap();
        // Deadline now: the slow reply cannot be there yet.
        if let Some(r) = completion.wait_until(Some(Instant::now())) {
            panic!("50ms reply arrived instantly: {r:?}");
        }
        // A generous deadline settles it.
        let settled = completion.wait_until(Some(Instant::now() + Duration::from_secs(10)));
        let r = settled.expect("reply never arrived");
        assert!(r.is_ok(), "{r:?}");
        pool.shutdown();
    }
}
