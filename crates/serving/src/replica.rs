//! Live replica groups with failover, health tracking, and probing.
//!
//! §VII-C of the paper plans *replication* for sparse shards: a QPS
//! target is met by running each shard on several servers. The
//! simulator's `dlrm_cluster::replication` sizes those replica sets on
//! paper; this module makes them real. [`ShardPool`] is the one pool type —
//! replica groups plus the backend running their seats; its thread
//! instantiation [`ReplicatedShardPool`] spawns one worker thread per
//! (shard, replica), every replica of a shard serving the same
//! [`ShardService`] — and [`ReplicatedClient`] is the
//! connection the partitioned graph sees: one logical client per shard
//! that round-robins across healthy replicas, fails over when a replica
//! errors or its worker dies, ejects replicas after consecutive
//! failures, and probes ejected replicas back to health. Together with
//! the retry/hedge policy in `dlrm_sharding::rpc`, this is the
//! transport that keeps availability up when individual replicas crash.

use crate::fault::FaultPlan;
use crate::threaded::{spawn_worker, RpcStats, ShardRpcSummary, ThreadedClient, WireTotals, WorkerMsg};
use dlrm_metrics::CauseCounts;
use dlrm_model::{build_model, ModelSpec};
use dlrm_sharding::rpc::{RpcCompletion, RpcError, ShardRequest, ShardResponse, SparseShardClient};
use dlrm_sharding::{
    partition_with_clients, DistributedModel, HotRowCache, ShardId, ShardService, ShardingPlan,
};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// When a replica is ejected from rotation and when it is probed back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Consecutive retryable failures before the replica is ejected.
    pub eject_after: u32,
    /// How long an ejected replica sits out before one probe request is
    /// allowed through (half-open circuit).
    pub probe_after: Duration,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        Self {
            eject_after: 3,
            probe_after: Duration::from_millis(50),
        }
    }
}

/// Mutable health state of one replica.
#[derive(Debug, Default)]
struct HealthState {
    consecutive_failures: u32,
    /// `Some` while ejected; the instant the ejection (or last failed
    /// probe) happened, which starts the probe timer.
    ejected_at: Option<Instant>,
}

/// Shared per-replica health record.
#[derive(Debug, Default)]
struct ReplicaHealth {
    state: Mutex<HealthState>,
}

/// What the selection pass decided about a replica.
#[derive(Debug, PartialEq, Eq)]
enum Selection {
    /// In rotation.
    Healthy,
    /// Ejected, but its probe timer expired: let one request through.
    Probe,
    /// Ejected and not yet due for a probe.
    Skip,
}

impl ReplicaHealth {
    fn try_select(&self, now: Instant, policy: &HealthPolicy) -> Selection {
        let mut s = self.state.lock().expect("replica health lock");
        match s.ejected_at {
            None => Selection::Healthy,
            Some(at) if now.duration_since(at) >= policy.probe_after => {
                // Restart the timer so concurrent callers don't
                // stampede an unhealthy replica with probes.
                s.ejected_at = Some(now);
                Selection::Probe
            }
            Some(_) => Selection::Skip,
        }
    }

    fn record_success(&self, counters: &TransportCounters) {
        let mut s = self.state.lock().expect("replica health lock");
        s.consecutive_failures = 0;
        if s.ejected_at.take().is_some() {
            counters.recoveries.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn record_failure(&self, policy: &HealthPolicy, counters: &TransportCounters) {
        let mut s = self.state.lock().expect("replica health lock");
        s.consecutive_failures = s.consecutive_failures.saturating_add(1);
        if s.ejected_at.is_none() && s.consecutive_failures >= policy.eject_after {
            s.ejected_at = Some(Instant::now());
            counters.ejections.fetch_add(1, Ordering::Relaxed);
        } else if s.ejected_at.is_some() {
            // A failed probe: restart the sit-out timer.
            s.ejected_at = Some(Instant::now());
        }
    }

    fn is_ejected(&self) -> bool {
        self.state
            .lock()
            .expect("replica health lock")
            .ejected_at
            .is_some()
    }
}

/// Shared failover/health counters for the whole pool.
#[derive(Debug, Default)]
struct TransportCounters {
    failovers: AtomicU64,
    ejections: AtomicU64,
    probes: AtomicU64,
    recoveries: AtomicU64,
    errors: Mutex<CauseCounts>,
}

impl TransportCounters {
    fn record_error(&self, kind: &str) {
        self.errors.lock().expect("transport counters lock").record(kind);
    }
}

/// A snapshot of the pool's failover and health activity, attached to
/// serving reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransportSummary {
    /// Requests that were issued to a later candidate because earlier
    /// replicas in rotation were ejected or refused the send.
    pub failovers: u64,
    /// Replicas ejected from rotation after consecutive failures.
    pub ejections: u64,
    /// Probe requests let through to ejected replicas.
    pub probes: u64,
    /// Ejected replicas restored to rotation by a successful reply.
    pub recoveries: u64,
    /// Replica-level errors observed, by [`RpcError::kind`].
    pub errors_by_kind: CauseCounts,
    /// Wire-level accounting summed over every replica client (zero for
    /// in-process transports; real frames/bytes/serde time over TCP).
    pub wire: WireTotals,
    /// Embedding-row lookups shipped in requests, summed over every
    /// replica client — the per-request fan-out quantity hot-row-aware
    /// placement reduces. Counts on every transport, including ones
    /// whose [`WireTotals`] stay zero.
    pub rows_sent: u64,
}

impl std::fmt::Display for TransportSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "failovers={} ejections={} probes={} recoveries={} errors: {}",
            self.failovers, self.ejections, self.probes, self.recoveries, self.errors_by_kind
        )?;
        if self.rows_sent > 0 {
            write!(f, " rows_sent={}", self.rows_sent)?;
        }
        if !self.wire.is_zero() {
            write!(f, " wire: {}", self.wire)?;
        }
        Ok(())
    }
}

/// One replica seat as seen from the client side: the transport client,
/// its instrumentation, and its health record. Transport-agnostic — the
/// client may be a [`ThreadedClient`] (in-process worker thread) or a
/// [`crate::tcp::TcpShardClient`] (socket to a shard-server process).
/// The seat, not the transport, keeps the call ledger in `stats`: a
/// send that succeeds is issued and its rows counted
/// ([`ReplicatedClient::issue_on`]), and its [`TrackedCompletion`]
/// settles it or, dropped unsettled, abandons it.
#[derive(Debug)]
pub(crate) struct SeatConn {
    client: Arc<dyn SparseShardClient>,
    stats: Arc<RpcStats>,
    health: Arc<ReplicaHealth>,
}

/// One shard's replica group.
#[derive(Debug)]
struct ShardGroup {
    shard: ShardId,
    /// The seats, fixed once the group is built: [`ReplicatedClient`]s
    /// share the slice and read it without a lock, and fail over past a
    /// dead seat for good.
    seats: Arc<[SeatConn]>,
}

/// Replica groups for every shard behind one shared health policy and
/// one shared counter set: the transport-agnostic core of replicated
/// serving. Every [`ShardPool`] instantiation — worker threads,
/// loopback servers, a remote cluster — builds one of these and hands
/// out its [`ReplicatedClient`]s, so failover,
/// ejection, half-open probing, and wire accounting behave identically
/// whether a replica is a thread or a process across a socket.
#[derive(Debug)]
pub(crate) struct ReplicaGroupSet {
    policy: HealthPolicy,
    counters: Arc<TransportCounters>,
    /// One group per shard, in [`ShardId`] order.
    groups: Vec<ShardGroup>,
}

impl ReplicaGroupSet {
    /// An empty set under `policy`.
    pub(crate) fn new(policy: HealthPolicy) -> Self {
        Self {
            policy,
            counters: Arc::new(TransportCounters::default()),
            groups: Vec::new(),
        }
    }

    /// Adds one shard's replica set: per-replica `(client, stats)`
    /// pairs in replica order. Groups must be added in [`ShardId`]
    /// order (the partitioner indexes clients by shard).
    pub(crate) fn add_group(
        &mut self,
        shard: ShardId,
        seats: Vec<(Arc<dyn SparseShardClient>, Arc<RpcStats>)>,
    ) {
        let seats = seats
            .into_iter()
            .map(|(client, stats)| SeatConn {
                client,
                stats,
                health: Arc::new(ReplicaHealth::default()),
            })
            .collect();
        self.groups.push(ShardGroup { shard, seats });
    }
}

/// The one shard pool: replica groups, one per shard and fixed once
/// built, plus whatever runs their seats — the *backend* `B`. Every accessor the
/// serving stack needs is implemented here once; the three
/// instantiations differ only in their constructor and backend:
///
/// | alias | backend | seats are |
/// |---|---|---|
/// | [`ReplicatedShardPool`] | [`WorkerThreads`] | in-process worker threads over channels |
/// | [`TcpShardPool`](crate::shard_server::TcpShardPool) | `Vec<TcpShardServer>` | in-process servers behind loopback sockets |
/// | [`TcpCluster`](crate::control::TcpCluster) | cluster metadata only | remote processes this side does not own |
///
/// Dropping the backend stops the seats it owns (workers drain their
/// queues and join; servers stop listening), so dropping the pool — or
/// calling [`shutdown`](Self::shutdown) — is an orderly stop.
#[derive(Debug)]
pub struct ShardPool<B> {
    set: ReplicaGroupSet,
    pub(crate) backend: B,
}

impl<B> ShardPool<B> {
    pub(crate) fn new(set: ReplicaGroupSet, backend: B) -> Self {
        Self { set, backend }
    }

    /// The cluster-assembly block every bench, smoke and epoch build
    /// shares: deterministic model weights from `seed`, one stateless
    /// [`ShardService`] per plan shard, the pool `spawn` stands up over
    /// them, and the model partitioned onto the pool's clients.
    ///
    /// # Errors
    ///
    /// The builder's, `spawn`'s or the partitioner's error message.
    pub fn assemble(
        spec: &ModelSpec,
        plan: &ShardingPlan,
        seed: u64,
        spawn: impl FnOnce(Vec<Arc<ShardService>>) -> Result<Self, String>,
    ) -> Result<(DistributedModel, Self), String> {
        let model = build_model(spec, seed).map_err(|e| e.to_string())?;
        let services: Vec<Arc<ShardService>> = plan
            .shards()
            .map(|s| Arc::new(ShardService::build(&model.tables, plan, s)))
            .collect();
        let pool = spawn(services.clone())?;
        let dist = partition_with_clients(model, plan, services, pool.clients())
            .map_err(|e| e.to_string())?;
        Ok((dist, pool))
    }

    /// One [`ReplicatedClient`] per shard for the partitioner, ordered
    /// by [`ShardId`].
    #[must_use]
    pub fn clients(&self) -> Vec<Arc<dyn SparseShardClient>> {
        self.set
            .groups
            .iter()
            .map(|g| {
                Arc::new(ReplicatedClient {
                    shard: g.shard,
                    seats: Arc::clone(&g.seats),
                    next: AtomicUsize::new(0),
                    policy: self.set.policy,
                    counters: Arc::clone(&self.set.counters),
                }) as Arc<dyn SparseShardClient>
            })
            .collect()
    }

    /// Replica counts per shard, in [`ShardId`] order.
    #[must_use]
    pub fn replica_counts(&self) -> Vec<usize> {
        self.set.groups.iter().map(|g| g.seats.len()).collect()
    }

    /// Snapshot of failover/ejection/probe/recovery activity plus the
    /// summed wire accounting of every replica client.
    #[must_use]
    pub fn transport_summary(&self) -> TransportSummary {
        let mut wire = WireTotals::default();
        let mut rows_sent = 0u64;
        for seat in self.set.groups.iter().flat_map(|g| g.seats.iter()) {
            rows_sent += seat.stats.rows_sent();
            wire.merge(&seat.stats.wire_totals());
        }
        TransportSummary {
            failovers: self.set.counters.failovers.load(Ordering::Relaxed),
            ejections: self.set.counters.ejections.load(Ordering::Relaxed),
            probes: self.set.counters.probes.load(Ordering::Relaxed),
            recoveries: self.set.counters.recoveries.load(Ordering::Relaxed),
            errors_by_kind: self
                .set
                .counters
                .errors
                .lock()
                .expect("transport counters lock")
                .clone(),
            wire,
            rows_sent,
        }
    }

    /// Per-replica RPC instrumentation of the seats, flattened in
    /// (shard, replica) order; the `shard` field repeats for each
    /// replica of a shard.
    #[must_use]
    pub fn replica_rpc_summaries(&self) -> Vec<ShardRpcSummary> {
        self.set
            .groups
            .iter()
            .flat_map(|g| g.seats.iter().map(|seat| seat.stats.summarize(g.shard)))
            .collect()
    }

    /// Current ejection state per replica: `(shard, replica index,
    /// ejected)` in (shard, replica) order.
    #[must_use]
    pub fn replica_states(&self) -> Vec<(ShardId, usize, bool)> {
        self.set
            .groups
            .iter()
            .flat_map(|g| {
                g.seats
                    .iter()
                    .enumerate()
                    .map(|(r, seat)| (g.shard, r, seat.health.is_ejected()))
            })
            .collect()
    }

    /// Does nothing: the cache counts nothing, and each op's cache split
    /// travels in its `RpcTally`. Kept only while `sysbench/` calls it;
    /// ROADMAP item 4 (a), which unpins `sysbench/`, deletes it.
    pub fn attach_cache(&self, _cache: Arc<HotRowCache>) {}

    /// Total seats (worker threads / servers) across all replica sets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.replica_counts().iter().sum()
    }

    /// Whether the pool has no seats.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stops every seat the backend owns and joins it. Envelopes
    /// already queued on (or in flight at) a worker thread when the stop
    /// lands are *drained* first, so an RPC sent (through
    /// [`SparseShardClient::begin_shared`]) but not yet collected still
    /// completes. Safe to call while clients are still alive: their
    /// subsequent calls fail with a "worker is down" transport error
    /// instead of hanging.
    pub fn shutdown(self) {
        drop(self.backend);
    }
}

/// One live worker thread: its control sender and join handle.
type WorkerHandle = (Sender<WorkerMsg>, JoinHandle<()>);

/// The thread backend: `replicas ≥ 1` worker threads per shard, every
/// replica of a shard serving the same (shared, stateless)
/// [`ShardService`] over the channel transport in [`crate::threaded`].
#[derive(Debug)]
pub struct WorkerThreads {
    /// Every (shard, replica) worker, in seat order.
    workers: Vec<WorkerHandle>,
}

impl Drop for WorkerThreads {
    fn drop(&mut self) {
        // Stop everyone first, then join, so the queues drain in
        // parallel.
        for (tx, _) in &self.workers {
            let _ = tx.send(WorkerMsg::Stop);
        }
        for (_, handle) in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The thread-backed [`ShardPool`]; un-replicated serving is
/// `replicas_per_shard = 1`.
pub type ReplicatedShardPool = ShardPool<WorkerThreads>;

impl ShardPool<WorkerThreads> {
    /// Spawns `replicas_per_shard` workers (at least one) for every
    /// service. Fault schedules are looked up in `faults` by `(service
    /// index, replica index)`; `delay` is a uniform injected service
    /// delay standing in for network + remote compute time (a serial
    /// executor pays `shards × delay`, the overlap scheduler ≈ one).
    #[must_use]
    pub fn spawn(
        services: Vec<Arc<ShardService>>,
        replicas_per_shard: usize,
        delay: Duration,
        faults: &FaultPlan,
        policy: HealthPolicy,
    ) -> Self {
        let replicas = replicas_per_shard.max(1);
        let mut set = ReplicaGroupSet::new(policy);
        let mut workers = Vec::with_capacity(services.len() * replicas);
        for (index, service) in services.iter().enumerate() {
            let shard = service.shard_id();
            let mut seats: Vec<(Arc<dyn SparseShardClient>, Arc<RpcStats>)> =
                Vec::with_capacity(replicas);
            for r in 0..replicas {
                let schedule = faults.schedule(index, r).cloned().unwrap_or_default();
                let (tx, handle) =
                    spawn_worker(Arc::clone(service), delay, schedule, format!("{shard}r{r}"));
                seats.push((
                    Arc::new(ThreadedClient::new(shard, tx.clone())),
                    Arc::default(),
                ));
                workers.push((tx, handle));
            }
            set.add_group(shard, seats);
        }
        Self::new(set, WorkerThreads { workers })
    }
}

/// The logical per-shard client: round-robins requests across healthy
/// replicas, fails over past ejected or refusing replicas, and feeds
/// reply outcomes back into the health records. Retry/backoff and
/// hedging live one layer up, in the `SparseRpc` policy — each
/// `begin_shared` here issues exactly one attempt to one replica, and
/// because the round-robin pointer advances per call, a retry or hedge
/// naturally lands on a *different* replica. The seat list is its
/// pool's, shared and fixed once the pool is built.
#[derive(Debug)]
pub struct ReplicatedClient {
    shard: ShardId,
    seats: Arc<[SeatConn]>,
    next: AtomicUsize,
    policy: HealthPolicy,
    counters: Arc<TransportCounters>,
}

impl SparseShardClient for ReplicatedClient {
    fn shard_id(&self) -> ShardId {
        self.shard
    }

    /// Sends one attempt to the next replica the rotation and the
    /// health records allow.
    fn begin_shared(
        &self,
        request: &Arc<ShardRequest>,
    ) -> Result<Box<dyn RpcCompletion>, RpcError> {
        let seats = &self.seats;
        let n = seats.len();
        if n == 0 {
            return Err(RpcError::Transport {
                shard: self.shard,
                message: "replica group is empty".to_string(),
            });
        }
        let start = self.next.fetch_add(1, Ordering::Relaxed) % n;
        let now = Instant::now();
        let mut bypassed: u64 = 0;
        let mut last_err: Option<RpcError> = None;
        for i in 0..n {
            let idx = (start + i) % n;
            let conn = &seats[idx];
            match conn.health.try_select(now, &self.policy) {
                Selection::Skip => {
                    bypassed += 1;
                    continue;
                }
                Selection::Probe => {
                    self.counters.probes.fetch_add(1, Ordering::Relaxed);
                }
                Selection::Healthy => {}
            }
            match self.issue_on(conn, request, bypassed) {
                Ok(tracked) => return Ok(tracked),
                Err(e) => {
                    last_err = Some(e);
                    bypassed += 1;
                }
            }
        }
        if last_err.is_none() {
            // Every replica is ejected and none is due for a probe.
            // Force one anyway: with the whole set down, sitting out
            // the probe timer only converts requests that might succeed
            // into guaranteed failures.
            let conn = &seats[start];
            self.counters.probes.fetch_add(1, Ordering::Relaxed);
            match self.issue_on(conn, request, bypassed) {
                Ok(tracked) => return Ok(tracked),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.expect("at least one issue attempt was made"))
    }
}

impl ReplicatedClient {
    /// Issues one attempt on `conn`; on success enters it in the seat's
    /// call ledger and wraps the completion so the reply outcome feeds
    /// the replica's health record. A send-side refusal (worker dead) is
    /// charged to the replica immediately and never enters the ledger.
    fn issue_on(
        &self,
        conn: &SeatConn,
        request: &Arc<ShardRequest>,
        bypassed: u64,
    ) -> Result<Box<dyn RpcCompletion>, RpcError> {
        match conn.client.begin_shared(request) {
            Ok(inner) => {
                if bypassed > 0 {
                    self.counters.failovers.fetch_add(bypassed, Ordering::Relaxed);
                }
                conn.stats.on_issue();
                conn.stats.add_rows_sent(request.total_lookups() as u64);
                Ok(Box::new(TrackedCompletion {
                    inner,
                    health: Arc::clone(&conn.health),
                    policy: self.policy,
                    counters: Arc::clone(&self.counters),
                    ledger: Ledger {
                        stats: Arc::clone(&conn.stats),
                        settled: false,
                    },
                }))
            }
            Err(e) => {
                conn.health.record_failure(&self.policy, &self.counters);
                self.counters.record_error(e.kind());
                Err(e)
            }
        }
    }
}

/// Wraps a replica's completion so the eventual reply (or its absence)
/// updates that replica's health record, the pool counters and the
/// seat's call ledger.
struct TrackedCompletion {
    inner: Box<dyn RpcCompletion>,
    health: Arc<ReplicaHealth>,
    policy: HealthPolicy,
    counters: Arc<TransportCounters>,
    ledger: Ledger,
}

/// One issued call's entry in its seat's ledger: settled when a wait
/// returns its result, abandoned when dropped before that (a losing
/// hedge, a timed-out call), which debits the in-flight gauge without
/// counting a call.
struct Ledger {
    stats: Arc<RpcStats>,
    settled: bool,
}

impl Drop for Ledger {
    fn drop(&mut self) {
        if !self.settled {
            self.stats.on_abandon();
        }
    }
}

impl TrackedCompletion {
    fn observe(&self, result: &Result<ShardResponse, RpcError>) {
        match result {
            Ok(_) => self.health.record_success(&self.counters),
            Err(e) => {
                // A ShardFault is a deterministic application-level
                // rejection — the replica itself is healthy.
                if e.is_retryable() {
                    self.health.record_failure(&self.policy, &self.counters);
                }
                self.counters.record_error(e.kind());
            }
        }
    }
}

impl RpcCompletion for TrackedCompletion {
    fn wait_until(&mut self, deadline: Option<Instant>) -> Option<Result<ShardResponse, RpcError>> {
        let result = self.inner.wait_until(deadline)?;
        self.ledger.stats.on_settle();
        self.ledger.settled = true;
        self.observe(&result);
        Some(result)
    }

    fn abandon_timed_out(self: Box<Self>) {
        // The caller's deadline passed with no reply: charge the
        // replica, unlike dropping a losing hedge (plain drop).
        self.health.record_failure(&self.policy, &self.counters);
        self.counters.record_error("timeout");
        self.inner.abandon_timed_out();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultAction, ReplicaFaultSchedule};
    use crate::threaded::tests::one_shard_services;

    /// The one-shard services under `replicas` workers each.
    fn pool(replicas: usize, faults: &FaultPlan, policy: HealthPolicy) -> ReplicatedShardPool {
        ReplicatedShardPool::spawn(
            one_shard_services(),
            replicas,
            Duration::ZERO,
            faults,
            policy,
        )
    }

    fn eject_after(eject_after: u32, probe_after: Duration) -> HealthPolicy {
        HealthPolicy {
            eject_after,
            probe_after,
        }
    }

    fn empty_request() -> ShardRequest {
        ShardRequest {
            net: dlrm_model::NetId(0),
            slices: vec![],
        }
    }

    fn three_lookups() -> ShardRequest {
        ShardRequest {
            net: dlrm_model::NetId(0),
            slices: vec![dlrm_sharding::rpc::TableSlice {
                table: dlrm_model::TableId(0),
                indices: vec![0, 1, 2],
                lengths: vec![3],
            }],
        }
    }

    /// Two calls in flight, one settled and one dropped unsettled, then
    /// two more settled, through `pool`'s one seat: its ledger summary.
    fn exercise_seat_ledger<B>(pool: &ShardPool<B>) -> ShardRpcSummary {
        let request = three_lookups();
        let client = &pool.clients()[0];
        let ledger = || pool.replica_rpc_summaries().remove(0);
        let kept = client.begin_execute(&request).unwrap();
        let dropped = client.begin_execute(&request).unwrap();
        assert_eq!(ledger().max_in_flight, 2);
        kept.wait().unwrap();
        drop(dropped);
        assert_eq!(ledger().calls, 1, "an abandoned call is not a call");
        let more = [(); 2].map(|()| client.begin_execute(&request).unwrap());
        for pending in more {
            pending.wait().unwrap();
        }
        let s = ledger();
        // A watermark of 3 would mean the abandoned call was never debited.
        assert_eq!((s.max_in_flight, s.calls), (2, 3), "{s}");
        assert_eq!(s.rows, 4 * request.total_lookups() as u64, "rows count at the send: {s}");
        s
    }

    #[test]
    fn the_seat_keeps_the_call_ledger_on_both_transports() {
        let threaded = pool(1, &FaultPlan::none(), HealthPolicy::default());
        exercise_seat_ledger(&threaded);
        threaded.shutdown();
        let tcp = crate::shard_server::TcpShardPool::spawn(
            one_shard_services(),
            1,
            Duration::ZERO,
            &FaultPlan::none(),
            HealthPolicy::default(),
        )
        .unwrap();
        assert_eq!(exercise_seat_ledger(&tcp).wire.frames_sent, 4);
        tcp.shutdown();
    }

    #[test]
    fn spreads_requests_across_replicas() {
        let pool = pool(3, &FaultPlan::none(), HealthPolicy::default());
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.replica_counts(), vec![3]);
        let clients = pool.clients();
        for _ in 0..9 {
            assert!(clients[0].execute(&empty_request()).is_ok());
        }
        let per_replica = pool.replica_rpc_summaries();
        assert_eq!(per_replica.len(), 3);
        for s in &per_replica {
            assert_eq!(s.calls, 3, "round robin should balance: {s}");
        }
        assert_eq!(pool.transport_summary(), TransportSummary::default());
        pool.shutdown();
    }

    #[test]
    fn fails_over_past_a_crashed_replica() {
        // Replica 0 crashes on its first request; every subsequent call
        // must succeed by failing over to replica 1.
        let faults = FaultPlan::none().with(0, 0, ReplicaFaultSchedule::crash_at(0));
        let pool = pool(2, &faults, eject_after(1, Duration::from_secs(3600)));
        let clients = pool.clients();
        let mut failures = 0;
        for _ in 0..12 {
            if clients[0].execute(&empty_request()).is_err() {
                failures += 1;
            }
        }
        // Only the crash victim itself may fail; after the dead worker
        // is detected the client routes around it.
        assert!(failures <= 1, "failures={failures}");
        let summary = pool.transport_summary();
        assert!(summary.failovers > 0, "{summary}");
        assert!(summary.ejections >= 1, "{summary}");
        let states = pool.replica_states();
        assert!(states.iter().any(|(_, r, ejected)| *r == 0 && *ejected));
        pool.shutdown();
    }

    #[test]
    fn probe_recovers_a_transiently_bad_replica() {
        // Replica 0 serves two injected transient errors, gets ejected
        // (eject_after=2), then — after the probe window — a probe
        // succeeds and restores it to rotation.
        let faults = FaultPlan::none().with(
            0,
            0,
            ReplicaFaultSchedule::none()
                .with(0, FaultAction::TransientError)
                .with(1, FaultAction::TransientError),
        );
        let pool = pool(2, &faults, eject_after(2, Duration::from_millis(5)));
        let clients = pool.clients();
        // Drive enough traffic to trip both injected errors (the other
        // replica absorbs the rest via failover/rotation).
        for _ in 0..8 {
            let _ = clients[0].execute(&empty_request());
        }
        assert!(
            pool.replica_states().iter().any(|(_, _, e)| *e),
            "replica 0 should be ejected"
        );
        std::thread::sleep(Duration::from_millis(10));
        for _ in 0..8 {
            assert!(clients[0].execute(&empty_request()).is_ok());
        }
        let summary = pool.transport_summary();
        assert!(summary.probes >= 1, "{summary}");
        assert!(summary.recoveries >= 1, "{summary}");
        assert!(
            pool.replica_states().iter().all(|(_, _, e)| !*e),
            "replica 0 should be back in rotation"
        );
        pool.shutdown();
    }

    #[test]
    fn total_outage_yields_retryable_transport_errors() {
        // Both replicas crash immediately: every call must fail with a
        // *retryable* error (so the policy layer can degrade), never
        // hang, and never panic.
        let faults = FaultPlan::none()
            .with(0, 0, ReplicaFaultSchedule::crash_at(0))
            .with(0, 1, ReplicaFaultSchedule::crash_at(0));
        let pool = pool(2, &faults, eject_after(1, Duration::from_millis(1)));
        let clients = pool.clients();
        let mut saw_error = false;
        for _ in 0..10 {
            match clients[0].execute(&empty_request()) {
                Ok(_) => {}
                Err(e) => {
                    saw_error = true;
                    assert!(e.is_retryable(), "{e}");
                }
            }
        }
        assert!(saw_error);
        let summary = pool.transport_summary();
        assert!(summary.errors_by_kind.get("transport") > 0, "{summary}");
        pool.shutdown();
    }
}
