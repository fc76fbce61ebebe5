//! The asynchronous RPC operator and its wire types.
//!
//! In the paper's system, partitioned subnets are "replaced by custom
//! remote-procedure-call (RPC) operators that call remote shards"
//! (§III-A1); each RPC carries the sparse feature ids destined for its
//! shard and receives the pooled embedding vectors back. This module
//! defines those request/response types, the client abstraction (so the
//! same operator runs against an in-process shard, a thread-backed
//! shard, or a shard server over TCP), the typed [`RpcError`]
//! taxonomy, the per-RPC [`RpcPolicy`] (deadline, capped-backoff
//! retries, tail hedging, degraded fallback), and the [`SparseRpc`]
//! graph operator itself.

use crate::cache::HotRowCache;
use crate::plan::ShardId;
use dlrm_model::graph::{
    AsyncOperator, Blob, GraphError, Operator, PendingOp, RpcAttempt, RpcAttemptKind, RpcOutcome,
    SparseInput, Workspace,
};
use dlrm_model::{BufferPool, NetId, OpGroup, TableId};
use dlrm_tensor::simd::{self, KernelStats};
use dlrm_tensor::Matrix;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a shard RPC failed — the typed taxonomy the whole transport
/// stack speaks (replacing stringly errors). Retry policy hangs off the
/// classification: [`RpcError::is_retryable`] is `true` for everything
/// except [`RpcError::ShardFault`], which is a deterministic
/// application-level rejection that would fail identically on any
/// replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// The reply did not arrive within the attempt deadline.
    Timeout {
        /// The shard that was called.
        shard: ShardId,
        /// How long the caller waited before giving up.
        waited: Duration,
    },
    /// The transport could not deliver the request or lost the reply
    /// (worker down, connection dropped, reply channel closed).
    Transport {
        /// The shard that was called.
        shard: ShardId,
        /// Human-readable transport detail.
        message: String,
    },
    /// The shard rejected the request (unknown table, out-of-range
    /// index): deterministic, *not* retryable.
    ShardFault {
        /// The shard that rejected the request.
        shard: ShardId,
        /// The rejection message.
        message: String,
    },
    /// The shard worker panicked while serving the request. The service
    /// is stateless (§III-A1), so a retry — on this or another replica —
    /// is safe.
    Poisoned {
        /// The shard whose worker panicked.
        shard: ShardId,
        /// The panic payload, stringified.
        message: String,
    },
}

impl RpcError {
    /// The shard the failing call addressed.
    #[must_use]
    pub fn shard(&self) -> ShardId {
        match *self {
            RpcError::Timeout { shard, .. }
            | RpcError::Transport { shard, .. }
            | RpcError::ShardFault { shard, .. }
            | RpcError::Poisoned { shard, .. } => shard,
        }
    }

    /// Whether retrying (possibly on another replica) can succeed.
    /// Timeouts, transport losses and panics are environmental;
    /// shard faults are deterministic rejections.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        !matches!(self, RpcError::ShardFault { .. })
    }

    /// Stable short classification, used as the failure-by-cause key in
    /// serving reports.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            RpcError::Timeout { .. } => "timeout",
            RpcError::Transport { .. } => "transport",
            RpcError::ShardFault { .. } => "shard-fault",
            RpcError::Poisoned { .. } => "poisoned",
        }
    }
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let shard = self.shard();
        match self {
            RpcError::Timeout { waited, .. } => write!(f, "timeout on {shard}: no reply within {waited:?}"),
            RpcError::Transport { message, .. } => write!(f, "transport error on {shard}: {message}"),
            RpcError::ShardFault { message, .. } => write!(f, "shard-fault on {shard}: {message}"),
            RpcError::Poisoned { message, .. } => {
                write!(f, "poisoned on {shard}: worker panicked: {message}")
            }
        }
    }
}

impl std::error::Error for RpcError {}

/// The lookups destined for one table (or one row-partition of a table)
/// on one shard. Indices are already *local* to the shard: for a table
/// row-sharded `parts` ways, the caller keeps `idx % parts == part` and
/// sends `idx / parts`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSlice {
    /// The (global) table this slice belongs to.
    pub table: TableId,
    /// Local row indices.
    pub indices: Vec<u64>,
    /// Per-batch-element index counts.
    pub lengths: Vec<u32>,
}

/// One RPC request to a sparse shard: all table slices of one net for
/// one batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRequest {
    /// The net issuing the request.
    pub net: NetId,
    /// Per-table lookups, in table-id order.
    pub slices: Vec<TableSlice>,
}

impl ShardRequest {
    /// Total lookups across all slices (drives serialization cost).
    #[must_use]
    pub fn total_lookups(&self) -> usize {
        self.slices.iter().map(|s| s.indices.len()).sum()
    }
}

/// The response: pooled embeddings per requested table, in request
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardResponse {
    /// `(table, batch × dim pooled matrix)` pairs.
    pub pooled: Vec<(TableId, Matrix)>,
}

/// A connection to one sparse shard.
///
/// Implementations: [`crate::InProcessClient`] (direct call, used for
/// correctness verification) and the serving crate's thread-backed
/// client (real concurrency), TCP client (a socket to a shard server)
/// and replicated client (failover across a replica set).
///
/// A client implements one send, [`Self::begin_shared`]; the borrowed
/// [`Self::begin_execute`] and the blocking [`Self::execute`] are
/// wrappers around it that no client overrides, so a client that wraps
/// another forwards the one send and every caller's RPCs go through it.
pub trait SparseShardClient: std::fmt::Debug + Send + Sync {
    /// The shard this client reaches.
    fn shard_id(&self) -> ShardId;

    /// Starts one request without waiting for the reply, returning a
    /// completion handle — the transport half of the asynchronous RPC
    /// operators (§IV-A). The request is shared, so a transport that
    /// hands it to another thread does not copy it: the RPC operator
    /// sends one request for every transmission, retries and hedges
    /// included. A direct-call client executes here and returns a
    /// [`ReadyResponse`]; real transports send now and receive at
    /// [`RpcCompletion::wait_until`].
    ///
    /// # Errors
    ///
    /// A typed [`RpcError`] when the request cannot be sent at all
    /// (transport down). Shard-side failures may instead surface from
    /// the completion.
    fn begin_shared(&self, request: &Arc<ShardRequest>)
        -> Result<Box<dyn RpcCompletion>, RpcError>;

    /// [`Self::begin_shared`] for a borrowed request, which it copies
    /// once.
    ///
    /// # Errors
    ///
    /// As [`Self::begin_shared`].
    fn begin_execute(&self, request: &ShardRequest) -> Result<Box<dyn RpcCompletion>, RpcError> {
        self.begin_shared(&Arc::new(request.clone()))
    }

    /// Executes one request and waits for its reply.
    ///
    /// # Errors
    ///
    /// A typed [`RpcError`] when the shard rejects the request or the
    /// transport fails.
    fn execute(&self, request: &ShardRequest) -> Result<ShardResponse, RpcError> {
        self.begin_execute(request)?.wait()
    }
}

/// A shard RPC that has been sent but whose response has not been
/// consumed yet. Dropping a completion abandons the call: the shard
/// still executes it, the reply is discarded.
pub trait RpcCompletion: Send {
    /// Blocks until the call settles or `deadline` passes, whichever
    /// comes first (`None`: no deadline). Returns the reply or the typed
    /// [`RpcError`] the call settled with, or `None` when the deadline
    /// passed first: the call is still pending and may be waited on
    /// again. A settled call is not waited on again.
    fn wait_until(&mut self, deadline: Option<Instant>) -> Option<Result<ShardResponse, RpcError>>;

    /// Blocks until the response arrives.
    ///
    /// # Errors
    ///
    /// A typed [`RpcError`] when the shard rejected the request or the
    /// transport died while the call was in flight.
    fn wait(mut self: Box<Self>) -> Result<ShardResponse, RpcError> {
        loop {
            if let Some(result) = self.wait_until(None) {
                return result;
            }
        }
    }

    /// Notifies the transport that the caller is giving up on this call
    /// because its deadline passed (as opposed to dropping a losing
    /// hedge whose replica is healthy). Replica-aware transports use
    /// this to debit the replica's health. Default: plain drop.
    fn abandon_timed_out(self: Box<Self>) {}
}

/// An [`RpcCompletion`] that already holds its result — what a
/// direct-call client's [`SparseShardClient::begin_shared`] returns.
pub struct ReadyResponse(pub Result<ShardResponse, RpcError>);

impl RpcCompletion for ReadyResponse {
    fn wait_until(&mut self, _deadline: Option<Instant>) -> Option<Result<ShardResponse, RpcError>> {
        // Settles at once; the empty reply left behind is never read.
        let empty = Ok(ShardResponse { pooled: Vec::new() });
        Some(std::mem::replace(&mut self.0, empty))
    }
}

/// Per-RPC fault-tolerance policy: attempt deadline, retry budget with
/// capped exponential backoff, straggler hedging, and degraded
/// fallback. The default is the pre-fault-tolerance behavior: one
/// attempt, no deadline, fail hard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpcPolicy {
    /// Per-attempt reply deadline (`None` = wait forever).
    pub attempt_timeout: Option<Duration>,
    /// Total transmission budget (primary + retries + hedges), ≥ 1.
    pub max_attempts: u32,
    /// First retry backoff; doubles per retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Issue a duplicate attempt if the primary has not settled within
    /// this delay (first reply wins). `None` disables hedging.
    pub hedge_after: Option<Duration>,
    /// When every attempt is exhausted on a retryable error, substitute
    /// zero embeddings for this RPC's outputs and mark the result
    /// degraded instead of failing the request.
    pub degraded_fallback: bool,
}

impl Default for RpcPolicy {
    fn default() -> Self {
        Self {
            attempt_timeout: None,
            max_attempts: 1,
            backoff_base: Duration::from_micros(500),
            backoff_cap: Duration::from_millis(20),
            hedge_after: None,
            degraded_fallback: false,
        }
    }
}

impl RpcPolicy {
    /// A production-shaped policy: 3 attempts under a 1s per-attempt
    /// deadline with capped backoff and degraded fallback, no hedging.
    #[must_use]
    pub fn resilient() -> Self {
        Self {
            attempt_timeout: Some(Duration::from_secs(1)),
            max_attempts: 3,
            backoff_base: Duration::from_micros(500),
            backoff_cap: Duration::from_millis(20),
            hedge_after: None,
            degraded_fallback: true,
        }
    }

    /// Derives the hedge delay from an observed p99 round-trip (the
    /// paper's tail-at-scale recipe: duplicate only the straggler tail).
    /// Clamped below by 100µs so a cold/zero estimate cannot hedge
    /// every call.
    #[must_use]
    pub fn with_hedge_from_p99_ms(mut self, p99_ms: f64) -> Self {
        let us = (p99_ms * 1e3).max(100.0);
        self.hedge_after = Some(Duration::from_micros(us as u64));
        self
    }

    /// Backoff before retry number `retry` (1-based): base × 2^(retry−1),
    /// capped.
    #[must_use]
    pub fn backoff(&self, retry: u32) -> Duration {
        let exp = retry.saturating_sub(1).min(16);
        let raw = self.backoff_base.saturating_mul(1u32 << exp);
        raw.min(self.backoff_cap)
    }
}

/// One table fetched by a [`SparseRpc`] operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcFetch {
    /// The table.
    pub table: TableId,
    /// Blob holding the table's sparse input on the main shard.
    pub input_blob: String,
    /// Blob to write the pooled (or partial-pooled) result to.
    pub output_blob: String,
    /// Total row-partitions of this table (1 = whole table here).
    pub parts: usize,
    /// Which partition this shard serves.
    pub part: usize,
    /// Embedding dimension of the table — the width of the pooled
    /// output, needed to shape the zero-fallback matrix when every
    /// replica is down.
    pub dim: usize,
}

/// The RPC operator inserted by the partitioner: gathers this shard's
/// table slices from the workspace, calls the shard, and writes the
/// pooled outputs back.
///
/// For row-sharded tables it performs the modulus routing of §III-A1:
/// only indices with `idx % parts == part` are sent, translated to local
/// rows `idx / parts`.
///
/// With a hot-row cache attached ([`SparseRpc::set_cache`]), the routed
/// request is compacted: each bag whose indices are *all*
/// cache-resident is pooled locally and dropped from the wire request;
/// bags with any cold row go to the shard whole, so per-bag float
/// summation order — and therefore every output bit — is unchanged. An
/// operator whose bags are all local skips the network entirely.
#[derive(Debug, Clone)]
pub struct SparseRpc {
    /// `Arc`ed, like `fetches`: every [`PendingSparseRpc`] this operator
    /// issues shares them instead of copying two strings per table.
    name: Arc<str>,
    net: NetId,
    client: Arc<dyn SparseShardClient>,
    fetches: Arc<[RpcFetch]>,
    policy: RpcPolicy,
    cache: Option<Arc<HotRowCache>>,
}

impl SparseRpc {
    /// Creates an RPC operator with the default (fail-hard) policy.
    ///
    /// # Panics
    ///
    /// Panics if `fetches` is empty (an RPC to a shard serving nothing
    /// indicates a partitioner bug).
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        net: NetId,
        client: Arc<dyn SparseShardClient>,
        fetches: Vec<RpcFetch>,
    ) -> Self {
        assert!(!fetches.is_empty(), "RPC op must fetch at least one table");
        Self {
            name: Arc::from(name.into()),
            net,
            client,
            fetches: fetches.into(),
            policy: RpcPolicy::default(),
            cache: None,
        }
    }

    /// Replaces the fault-tolerance policy.
    pub fn set_policy(&mut self, policy: RpcPolicy) {
        assert!(policy.max_attempts >= 1, "need at least one attempt");
        self.policy = policy;
    }

    /// Calls `client` instead: how a successor model reaches a rebuilt
    /// shard service.
    ///
    /// # Panics
    ///
    /// Panics if `client` serves another shard.
    pub(crate) fn set_client(&mut self, client: Arc<dyn SparseShardClient>) {
        assert_eq!(client.shard_id(), self.shard_id(), "a client for the same shard");
        self.client = client;
    }

    /// Attaches the main shard's hot-row cache: fully-resident bags are
    /// pooled locally instead of going over the wire.
    pub fn set_cache(&mut self, cache: Arc<HotRowCache>) {
        self.cache = Some(cache);
    }

    /// The active fault-tolerance policy.
    #[must_use]
    pub fn policy(&self) -> &RpcPolicy {
        &self.policy
    }

    /// The shard this operator calls.
    #[must_use]
    pub fn shard_id(&self) -> ShardId {
        self.client.shard_id()
    }

    /// Builds the wire request from the workspace: each fetch's input
    /// blob routed into index and length vectors drawn from the
    /// workspace's pools (exposed for tests and for the serving layer's
    /// cost accounting).
    ///
    /// # Errors
    ///
    /// Propagates missing/mistyped sparse input blobs.
    pub fn build_request(&self, ws: &Workspace) -> Result<ShardRequest, GraphError> {
        let ctx = ws.ctx();
        let mut slices = Vec::with_capacity(self.fetches.len());
        for f in self.fetches.iter() {
            let sparse = ws.sparse(&f.input_blob, &self.name)?;
            let mut slice = TableSlice {
                table: f.table,
                indices: ctx.indices.acquire_empty(sparse.indices.len()),
                lengths: ctx.lengths.acquire_empty(sparse.lengths.len()),
            };
            route_into(f, sparse, &mut slice);
            slices.push(slice);
        }
        Ok(ShardRequest {
            net: self.net,
            slices,
        })
    }

    /// Issue half of the operator: builds the request from the
    /// workspace ([`Self::build_request`]) — compacted to its cold bags
    /// when a cache is attached — and sends it without waiting for the
    /// reply. A send that fails is the first failed attempt: it settles
    /// in the collect half, which owns the retry loop, like any other.
    ///
    /// # Errors
    ///
    /// Propagates missing/mistyped input blobs.
    pub fn begin(&self, ws: &Workspace) -> Result<PendingSparseRpc, GraphError> {
        let mut pending = PendingSparseRpc {
            op: Arc::clone(&self.name),
            fetches: Arc::clone(&self.fetches),
            client: Arc::clone(&self.client),
            request: Arc::new(self.build_request(ws)?),
            policy: self.policy,
            outs: vec![None; self.fetches.len()],
            wired: (0..self.fetches.len()).map(|fi| (fi, None)).collect(),
            outcome: RpcOutcome::default(),
            in_flight: Vec::with_capacity(2),
            last_error: None,
        };
        if let Some(cache) = &self.cache {
            pending.split_cached(cache, ws);
        }
        // A fully cache-served op has nothing to send.
        if !pending.request.slices.is_empty() {
            pending.send(RpcAttemptKind::Primary);
        }
        Ok(pending)
    }
}

/// One in-flight transmission tracked by the collect half.
struct InFlightAttempt {
    completion: Box<dyn RpcCompletion>,
    issued_at: Instant,
    kind: RpcAttemptKind,
}

/// A [`SparseRpc`] whose request is in flight: the collect half waits
/// for a reply under the operator's [`RpcPolicy`] — enforcing the
/// per-attempt deadline, retrying with capped backoff, hedging the
/// straggler tail, and falling back to zero embeddings when every
/// attempt is exhausted — then validates the reply against the wired
/// slices and writes the pooled output blobs.
pub struct PendingSparseRpc {
    op: Arc<str>,
    fetches: Arc<[RpcFetch]>,
    client: Arc<dyn SparseShardClient>,
    /// Shared with every transmission; its vectors go back to the
    /// workspace's pools at collect.
    request: Arc<ShardRequest>,
    policy: RpcPolicy,
    /// One output per fetch: pooled from the cache at issue time (its
    /// cold bags still zero), or `None` until the reply fills it.
    outs: Vec<Option<Matrix>>,
    /// For each wired slice, in request order: its fetch and, when the
    /// cache split that fetch, the output row of each wired bag.
    wired: Vec<(usize, Option<Vec<u32>>)>,
    /// The cache counters, then every attempt as it settles.
    outcome: RpcOutcome,
    in_flight: Vec<InFlightAttempt>,
    /// The latest attempt failure: what a retry answers and what an
    /// exhausted budget reports.
    last_error: Option<RpcError>,
}

/// How long each bounded poll lasts when two attempts are being raced
/// (the scheduler alternates between them at this granularity).
const RACE_POLL_SLICE: Duration = Duration::from_micros(200);

impl PendingSparseRpc {
    /// Waits for a winning response under the policy and writes the
    /// pooled blobs (real or zero-fallback). Returns every attempt it
    /// took beside the result, which is an `Err` for a shard/transport
    /// failure the policy cannot absorb — the outcome then names its
    /// kind — or a malformed response (wrong table count, order or
    /// shape).
    pub fn collect(mut self, ws: &mut Workspace) -> (RpcOutcome, Result<(), GraphError>) {
        let result = self.settle(ws);
        // The request's vectors and the split's row lists feed the next
        // batch — unless a losing hedge's transport still holds the
        // request, which then frees it.
        let ctx = ws.ctx();
        if let Ok(request) = Arc::try_unwrap(self.request) {
            for slice in request.slices {
                ctx.indices.release(slice.indices);
                ctx.lengths.release(slice.lengths);
            }
        }
        for rows in self.wired.into_iter().filter_map(|(_, rows)| rows) {
            ctx.lengths.release(rows);
        }
        (self.outcome, result)
    }

    /// The collect loop: settles the op and writes its outputs, or
    /// fails it.
    fn settle(&mut self, ws: &mut Workspace) -> Result<(), GraphError> {
        if self.request.slices.is_empty() {
            // Fully cache-served: nothing was sent.
            self.write_outputs(ws);
            return Ok(());
        }
        loop {
            // Transmissions so far: the primary (counted even when its
            // send failed — the wire was tried), retries and hedges.
            let used = 1 + self.outcome.retries + self.outcome.hedges;
            if self.in_flight.is_empty() {
                let err = self
                    .last_error
                    .take()
                    .expect("no attempt in flight and no error recorded");
                if !err.is_retryable() || used >= self.policy.max_attempts {
                    return self.settle_exhausted(ws, err);
                }
                self.outcome.retries += 1;
                let backoff = self.policy.backoff(self.outcome.retries);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
                self.send(RpcAttemptKind::Retry);
                continue;
            }
            // The oldest in-flight transmission anchors the attempt
            // deadline and the hedge timer. One duplicate at a time,
            // and only while transmission budget remains.
            let anchor = self.in_flight[0].issued_at;
            let deadline = self.policy.attempt_timeout.and_then(|t| anchor.checked_add(t));
            let hedge_at = self
                .policy
                .hedge_after
                .filter(|_| self.in_flight.len() == 1 && used < self.policy.max_attempts)
                .and_then(|d| anchor.checked_add(d));
            match race(&mut self.in_flight, deadline.into_iter().chain(hedge_at).min()) {
                Some((winner, Ok(response))) => {
                    self.record(winner.kind, winner.issued_at, true, None);
                    // Losing hedges are dropped, not abandoned: their
                    // replicas are healthy, the reply just lost the race.
                    for loser in std::mem::take(&mut self.in_flight) {
                        self.record(loser.kind, loser.issued_at, false, None);
                    }
                    return self.write_response(ws, response);
                }
                Some((attempt, Err(e))) => {
                    self.record(attempt.kind, attempt.issued_at, false, Some(&e));
                    if !e.is_retryable() {
                        // Deterministic rejection: fail now.
                        return self.settle_exhausted(ws, e);
                    }
                    // Retried once no other transmission is in flight.
                    self.last_error = Some(e);
                }
                None if deadline.is_some_and(|d| Instant::now() >= d) => {
                    // Every in-flight transmission of this attempt
                    // window timed out together.
                    let err = RpcError::Timeout {
                        shard: self.client.shard_id(),
                        waited: anchor.elapsed(),
                    };
                    for attempt in std::mem::take(&mut self.in_flight) {
                        self.record(attempt.kind, attempt.issued_at, false, Some(&err));
                        attempt.completion.abandon_timed_out();
                    }
                    self.last_error = Some(err);
                }
                None => {
                    self.outcome.hedges += 1;
                    self.send(RpcAttemptKind::Hedge);
                }
            }
        }
    }

    /// Compacts the routed request against the hot-row cache: each bag
    /// whose rows are all resident is pooled into its fetch's output
    /// here, and only the bags with a cold row stay on the wire, in a
    /// slice sized once from the first pass's count. The cache is keyed
    /// by global row, `local · parts + part`. Outputs, row lists and
    /// cold slices come from the workspace's pools, and the routed
    /// slices go back to them.
    fn split_cached(&mut self, cache: &HotRowCache, ws: &Workspace) {
        let ctx = ws.ctx();
        let level = simd::effective_level(ws.pool().dispatch().level());
        let (mut hits, mut misses, mut local_rows) = (0u64, 0u64, 0u64);
        let mut slots = Vec::new();
        let request =
            Arc::get_mut(&mut self.request).expect("a request is split before it is sent");
        let routed = std::mem::take(&mut request.slices);
        self.wired.clear();
        for (fi, slice) in routed.into_iter().enumerate() {
            let f = &self.fetches[fi];
            let Some(tc) = cache.table(f.table) else {
                request.slices.push(slice);
                self.wired.push((fi, None));
                continue;
            };
            let (parts, part) = (f.parts as u64, f.part as u64);
            let mut out = ws.alloc_dense(slice.lengths.len(), f.dim);
            let mut rows = ctx.lengths.acquire_empty(slice.lengths.len());
            let mut cold_lookups = 0usize;
            for (b, bag) in bags(&slice).enumerate() {
                let len = bag.len() as u64;
                if tc.resolve(bag.iter().map(|&local| local * parts + part), &mut slots) {
                    // Empty routed bags are vacuously local but say
                    // nothing about the cache — skip counts.
                    if len > 0 {
                        hits += 1;
                        local_rows += len;
                    }
                    tc.pool_slots(level, &slots, out.row_mut(b));
                } else {
                    misses += 1;
                    cold_lookups += bag.len();
                    rows.push(u32::try_from(b).expect("batch rows fit u32"));
                }
            }
            self.outs[fi] = Some(out);
            if rows.is_empty() {
                ctx.lengths.release(rows);
            } else {
                let mut cold = TableSlice {
                    table: f.table,
                    indices: ctx.indices.acquire_empty(cold_lookups),
                    lengths: ctx.lengths.acquire_empty(rows.len()),
                };
                let mut next = rows.iter().peekable();
                for (b, bag) in bags(&slice).enumerate() {
                    if next.next_if(|&&row| row as usize == b).is_some() {
                        cold.indices.extend_from_slice(bag);
                        cold.lengths.push(bag.len() as u32);
                    }
                }
                request.slices.push(cold);
                self.wired.push((fi, Some(rows)));
            }
            ctx.indices.release(slice.indices);
            ctx.lengths.release(slice.lengths);
        }
        if local_rows > 0 {
            KernelStats::global().record_sls(level, local_rows as usize);
        }
        self.outcome.cache_hits = hits;
        self.outcome.cache_misses = misses;
        self.outcome.cache_local_rows = local_rows;
    }

    /// Transmits the request once — primary, retry or hedge. A send that
    /// fails at once is recorded as a failed attempt and becomes the
    /// last error.
    fn send(&mut self, kind: RpcAttemptKind) {
        match self.client.begin_shared(&self.request) {
            Ok(completion) => self.in_flight.push(InFlightAttempt {
                completion,
                issued_at: Instant::now(),
                kind,
            }),
            Err(e) => {
                self.record(kind, Instant::now(), false, Some(&e));
                self.last_error = Some(e);
            }
        }
    }

    /// Records one transmission, settled now.
    fn record(
        &mut self,
        kind: RpcAttemptKind,
        issued_at: Instant,
        winner: bool,
        error: Option<&RpcError>,
    ) {
        self.outcome.attempts.push(RpcAttempt {
            kind,
            issued_at,
            settled_at: Instant::now(),
            winner,
            error: error.map(ToString::to_string),
        });
    }

    fn op_failed(&self, message: String) -> GraphError {
        GraphError::OpFailed {
            op: self.op.to_string(),
            message,
        }
    }

    /// Terminal path: the budget is spent (or the error is not
    /// retryable). The outcome takes the error's kind; then either write
    /// the degraded fallback — cache-served bags keep their values,
    /// wired bags read zero — or surface the typed error as an operator
    /// failure.
    fn settle_exhausted(&mut self, ws: &mut Workspace, err: RpcError) -> Result<(), GraphError> {
        self.outcome.error_kind = Some(err.kind());
        if !(self.policy.degraded_fallback && err.is_retryable()) {
            return Err(self.op_failed(err.to_string()));
        }
        self.write_outputs(ws);
        self.outcome.degraded = true;
        Ok(())
    }

    /// Validates the winning reply — one `bags × dim` matrix per wired
    /// slice, in request order — and writes the outputs: a fetch wired
    /// whole takes its matrix, a cache-split fetch gets the rows
    /// scattered back to its cold bags.
    fn write_response(&mut self, ws: &mut Workspace, mut response: ShardResponse) -> Result<(), GraphError> {
        if response.pooled.len() != self.wired.len() {
            return Err(self.op_failed(format!(
                "shard returned {} tables, expected {}",
                response.pooled.len(),
                self.wired.len()
            )));
        }
        let wired = self.request.slices.iter().zip(&self.wired);
        for ((table, pooled), (slice, (fi, rows))) in response.pooled.iter_mut().zip(wired) {
            let (table, f) = (*table, &self.fetches[*fi]);
            if table != f.table {
                return Err(self.op_failed(format!("shard answered {table}, expected {}", f.table)));
            }
            let bags = slice.lengths.len();
            if pooled.rows() != bags || pooled.cols() != f.dim {
                return Err(self.op_failed(format!(
                    "shard returned {}x{} for {table}, expected {bags}x{}",
                    pooled.rows(),
                    pooled.cols(),
                    f.dim
                )));
            }
            match rows {
                None => self.outs[*fi] = Some(std::mem::replace(pooled, Matrix::zeros(0, 0))),
                Some(rows) => {
                    let out = self.outs[*fi].as_mut().expect("a split fetch is pooled at issue");
                    for (j, &b) in rows.iter().enumerate() {
                        out.row_mut(b as usize).copy_from_slice(pooled.row(j));
                    }
                }
            }
        }
        // The split fetches' reply stores go straight back to the shared
        // pool the shards draw from, not to the workspace's, whose
        // demand they are not part of.
        for (_, pooled) in response.pooled {
            BufferPool::shared().release(pooled.into_vec());
        }
        self.write_outputs(ws);
        Ok(())
    }

    /// The one output writer, for a reply, a degraded fallback and a
    /// cache-only op alike: every fetch's output goes to its blob, and a
    /// wired fetch no reply filled reads zero.
    fn write_outputs(&mut self, ws: &mut Workspace) {
        for (slice, &(fi, _)) in self.request.slices.iter().zip(&self.wired) {
            if self.outs[fi].is_none() {
                self.outs[fi] = Some(ws.alloc_dense(slice.lengths.len(), self.fetches[fi].dim));
            }
        }
        for (f, out) in self.fetches.iter().zip(self.outs.drain(..)) {
            let out = out.expect("every fetch is pooled, answered or zeroed");
            ws.put(f.output_blob.as_str(), Blob::Dense(out));
        }
    }
}

/// Waits until one in-flight attempt settles — removing it and returning
/// it with its result — or until `until` passes (`None`). A lone attempt
/// waits straight to `until`; racing attempts are polled in turn, each
/// for a slice of its own, so every one is read while another pends.
fn race(
    in_flight: &mut Vec<InFlightAttempt>,
    until: Option<Instant>,
) -> Option<(InFlightAttempt, Result<ShardResponse, RpcError>)> {
    loop {
        for i in 0..in_flight.len() {
            let now = Instant::now();
            if until.is_some_and(|u| now >= u) {
                return None;
            }
            let end = if in_flight.len() == 1 {
                until
            } else {
                let slice_end = now + RACE_POLL_SLICE;
                Some(until.map_or(slice_end, |u| u.min(slice_end)))
            };
            if let Some(result) = in_flight[i].completion.wait_until(end) {
                return Some((in_flight.remove(i), result));
            }
        }
    }
}

impl PendingOp for PendingSparseRpc {
    fn collect(self: Box<Self>, ws: &mut Workspace) -> (RpcOutcome, Result<(), GraphError>) {
        PendingSparseRpc::collect(*self, ws)
    }
}

impl AsyncOperator for SparseRpc {
    fn issue(&self, ws: &mut Workspace) -> Result<Box<dyn PendingOp>, GraphError> {
        Ok(Box::new(self.begin(ws)?))
    }
}

/// A slice's bags, in order: `lengths[b]` consecutive indices each.
fn bags(slice: &TableSlice) -> impl Iterator<Item = &[u64]> {
    let mut cursor = 0usize;
    slice.lengths.iter().map(move |&len| {
        cursor += len as usize;
        &slice.indices[cursor - len as usize..cursor]
    })
}

/// Applies modulus routing to one sparse input, appending to `slice`'s
/// (empty) vectors.
fn route_into(fetch: &RpcFetch, sparse: &SparseInput, slice: &mut TableSlice) {
    if fetch.parts == 1 {
        slice.indices.extend_from_slice(&sparse.indices);
        slice.lengths.extend_from_slice(&sparse.lengths);
        return;
    }
    let parts = fetch.parts as u64;
    let part = fetch.part as u64;
    let mut cursor = 0usize;
    for &len in &sparse.lengths {
        let mut kept = 0u32;
        for &idx in &sparse.indices[cursor..cursor + len as usize] {
            if idx % parts == part {
                slice.indices.push(idx / parts);
                kept += 1;
            }
        }
        slice.lengths.push(kept);
        cursor += len as usize;
    }
}

impl Operator for SparseRpc {
    fn name(&self) -> &str {
        &self.name
    }
    fn group(&self) -> OpGroup {
        OpGroup::Sls
    }
    fn inputs(&self) -> Vec<String> {
        self.fetches.iter().map(|f| f.input_blob.clone()).collect()
    }
    fn outputs(&self) -> Vec<String> {
        self.fetches.iter().map(|f| f.output_blob.clone()).collect()
    }
    fn run(&self, ws: &mut Workspace) -> Result<(), GraphError> {
        // Sequential form = issue immediately followed by collect.
        self.begin(ws)?.collect(ws).1
    }
    fn as_async(&self) -> Option<&dyn AsyncOperator> {
        Some(self)
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// What a test client's one send returns.
    type Sent = Result<Box<dyn RpcCompletion>, RpcError>;

    fn route_slice(f: &RpcFetch, s: &SparseInput) -> TableSlice {
        let mut slice = TableSlice {
            table: f.table,
            indices: Vec::new(),
            lengths: Vec::new(),
        };
        route_into(f, s, &mut slice);
        slice
    }

    fn fetch() -> RpcFetch {
        RpcFetch {
            table: TableId(0),
            input_blob: "in".into(),
            output_blob: "out".into(),
            parts: 1,
            part: 0,
            dim: 1,
        }
    }

    #[test]
    fn route_whole_table_is_identity() {
        let f = fetch();
        let s = SparseInput::new(vec![5, 9, 2], vec![2, 1]);
        let slice = route_slice(&f, &s);
        assert_eq!(slice.indices, vec![5, 9, 2]);
        assert_eq!(slice.lengths, vec![2, 1]);
    }

    #[test]
    fn route_modulus_filters_and_localizes() {
        let f = RpcFetch {
            parts: 2,
            part: 1,
            ..fetch()
        };
        // Element 0: indices {0,1,2}; element 1: {3,4}.
        let s = SparseInput::new(vec![0, 1, 2, 3, 4], vec![3, 2]);
        let slice = route_slice(&f, &s);
        // Odd indices go to part 1, local = idx/2.
        assert_eq!(slice.indices, vec![0, 1]); // global 1 → 0, global 3 → 1
        assert_eq!(slice.lengths, vec![1, 1]);
    }

    #[test]
    fn route_partition_is_a_partition() {
        // Every index lands on exactly one part, and locals are in range.
        let s = SparseInput::new((0..100).collect(), vec![50, 50]);
        let parts = 3;
        let mut total = 0;
        for part in 0..parts {
            let f = RpcFetch {
                parts,
                part,
                ..fetch()
            };
            let slice = route_slice(&f, &s);
            total += slice.indices.len();
            let max_local = (100 / parts as u64) + 1;
            assert!(slice.indices.iter().all(|&i| i <= max_local));
        }
        assert_eq!(total, 100);
    }

    /// A client that pools nothing: answers every slice with a 1×1 zero
    /// matrix for its table.
    #[derive(Debug)]
    struct ZeroClient;

    impl SparseShardClient for ZeroClient {
        fn shard_id(&self) -> ShardId {
            ShardId(0)
        }
        fn begin_shared(&self, request: &Arc<ShardRequest>) -> Sent {
            Ok(Box::new(ReadyResponse(Ok(ShardResponse {
                pooled: request
                    .slices
                    .iter()
                    .map(|s| (s.table, Matrix::zeros(1, 1)))
                    .collect(),
            }))))
        }
    }

    /// A client that fails with `error` the first `failures` calls, then
    /// answers like [`ZeroClient`].
    #[derive(Debug)]
    struct FlakyClient {
        failures: AtomicU32,
        error: RpcError,
    }

    impl FlakyClient {
        fn failing(failures: u32, error: RpcError) -> Self {
            Self {
                failures: AtomicU32::new(failures),
                error,
            }
        }
    }

    impl SparseShardClient for FlakyClient {
        fn shard_id(&self) -> ShardId {
            ShardId(0)
        }
        fn begin_shared(&self, request: &Arc<ShardRequest>) -> Sent {
            let left = self.failures.load(Ordering::SeqCst);
            if left > 0 {
                self.failures.store(left - 1, Ordering::SeqCst);
                return Ok(Box::new(ReadyResponse(Err(self.error.clone()))));
            }
            ZeroClient.begin_shared(request)
        }
    }

    /// A client whose first `stuck` sends never settle — a bounded wait
    /// on one sleeps out its deadline, and an unbounded one would hang,
    /// so it panics — while later sends answer like [`ZeroClient`].
    /// Counts the stuck calls given up as timed out.
    #[derive(Debug)]
    struct StuckClient {
        stuck: u32,
        sends: AtomicU32,
        abandoned: Arc<AtomicU32>,
    }

    impl StuckClient {
        fn new(stuck: u32) -> Self {
            Self {
                stuck,
                sends: AtomicU32::new(0),
                abandoned: Arc::default(),
            }
        }
    }

    struct StuckCompletion(Arc<AtomicU32>);

    impl RpcCompletion for StuckCompletion {
        fn wait_until(&mut self, deadline: Option<Instant>) -> Option<Result<ShardResponse, RpcError>> {
            let deadline = deadline.expect("unbounded wait on a call that never settles");
            std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
            None
        }
        fn abandon_timed_out(self: Box<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    impl SparseShardClient for StuckClient {
        fn shard_id(&self) -> ShardId {
            ShardId(0)
        }
        fn begin_shared(&self, request: &Arc<ShardRequest>) -> Sent {
            if self.sends.fetch_add(1, Ordering::SeqCst) < self.stuck {
                return Ok(Box::new(StuckCompletion(Arc::clone(&self.abandoned))));
            }
            ZeroClient.begin_shared(request)
        }
    }

    fn transient() -> RpcError {
        RpcError::Transport {
            shard: ShardId(0),
            message: "injected transient".into(),
        }
    }

    fn rpc_with(client: Arc<dyn SparseShardClient>, policy: RpcPolicy) -> SparseRpc {
        let mut op = SparseRpc::new("rpc", NetId(0), client, vec![fetch()]);
        op.set_policy(policy);
        op
    }

    fn ws_with_input() -> Workspace {
        let mut ws = Workspace::new();
        ws.put("in", Blob::Sparse(SparseInput::new(vec![1], vec![1])));
        ws
    }

    /// The outcome of a collect that must have succeeded.
    fn settled((outcome, result): (RpcOutcome, Result<(), GraphError>)) -> RpcOutcome {
        result.unwrap();
        outcome
    }

    #[test]
    fn error_taxonomy_classification() {
        let t = RpcError::Timeout {
            shard: ShardId(2),
            waited: Duration::from_millis(5),
        };
        assert!(t.is_retryable());
        assert_eq!(t.kind(), "timeout");
        assert_eq!(t.shard(), ShardId(2));
        assert!(t.to_string().contains("timeout"));
        let f = RpcError::ShardFault {
            shard: ShardId(1),
            message: "t9 not hosted".into(),
        };
        assert!(!f.is_retryable());
        assert_eq!(f.kind(), "shard-fault");
        assert!(f.to_string().contains("not hosted"));
        assert!(RpcError::Poisoned {
            shard: ShardId(0),
            message: "boom".into()
        }
        .is_retryable());
    }

    #[test]
    fn failure_classification_vocabulary() {
        let (shard, waited, message) = (ShardId(3), Duration::from_millis(1), "boom");
        let errors = [
            RpcError::Timeout { shard, waited },
            RpcError::Transport { shard, message: message.into() },
            RpcError::ShardFault { shard, message: message.into() },
            RpcError::Poisoned { shard, message: message.into() },
        ];
        let vocabulary = [
            ("timeout", "timeout on shard3: no reply within 1ms"),
            ("transport", "transport error on shard3: boom"),
            ("shard-fault", "shard-fault on shard3: boom"),
            ("poisoned", "poisoned on shard3: worker panicked: boom"),
        ];
        for (err, (kind, text)) in errors.iter().zip(vocabulary) {
            assert_eq!((err.kind(), err.to_string().as_str()), (kind, text));
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RpcPolicy {
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(3),
            ..RpcPolicy::default()
        };
        assert_eq!(p.backoff(1), Duration::from_millis(1));
        assert_eq!(p.backoff(2), Duration::from_millis(2));
        assert_eq!(p.backoff(3), Duration::from_millis(3)); // capped (4 → 3)
        assert_eq!(p.backoff(9), Duration::from_millis(3));
    }

    #[test]
    fn default_begin_execute_defers_the_finished_result() {
        let req = ShardRequest {
            net: NetId(0),
            slices: vec![TableSlice {
                table: TableId(3),
                indices: vec![0],
                lengths: vec![1],
            }],
        };
        let completion = ZeroClient.begin_execute(&req).unwrap();
        let response = completion.wait().unwrap();
        assert_eq!(response.pooled.len(), 1);
        assert_eq!(response.pooled[0].0, TableId(3));
    }

    #[test]
    fn issue_collect_round_trip_writes_outputs() {
        let op = SparseRpc::new("rpc", NetId(0), Arc::new(ZeroClient), vec![fetch()]);
        let mut ws = ws_with_input();
        let pending = op.begin(&ws).unwrap();
        let outcome = settled(pending.collect(&mut ws));
        assert!(ws.dense("out", "t").is_ok());
        assert_eq!(outcome.retries, 0);
        assert!(!outcome.degraded);
        assert_eq!(outcome.attempts.len(), 1);
        assert!(outcome.attempts[0].winner);
        assert!(
            Operator::as_async(&op).is_some(),
            "SparseRpc must advertise its async form to the scheduler"
        );
    }

    #[test]
    fn transient_failures_are_retried_within_budget() {
        let client = Arc::new(FlakyClient::failing(2, transient()));
        let op = rpc_with(
            client,
            RpcPolicy {
                max_attempts: 3,
                backoff_base: Duration::ZERO,
                ..RpcPolicy::default()
            },
        );
        let mut ws = ws_with_input();
        let outcome = settled(op.begin(&ws).unwrap().collect(&mut ws));
        assert_eq!(outcome.retries, 2);
        assert!(!outcome.degraded);
        assert!(ws.dense("out", "t").is_ok());
        assert!(outcome.attempts.last().unwrap().winner);
    }

    #[test]
    fn budget_exhaustion_fails_hard_without_fallback() {
        let client = Arc::new(FlakyClient::failing(5, transient()));
        let op = rpc_with(
            client,
            RpcPolicy {
                max_attempts: 2,
                backoff_base: Duration::ZERO,
                ..RpcPolicy::default()
            },
        );
        let mut ws = ws_with_input();
        let (outcome, result) = op.begin(&ws).unwrap().collect(&mut ws);
        let err = result.unwrap_err();
        assert!(err.to_string().contains("transport"), "{err}");
        // The failed op still reports both attempts and its cause.
        assert_eq!((outcome.attempts.len(), outcome.retries), (2, 1));
        assert!(!outcome.degraded);
        assert_eq!(outcome.error_kind, Some("transport"));
    }

    #[test]
    fn budget_exhaustion_degrades_with_fallback() {
        let client = Arc::new(FlakyClient::failing(5, transient()));
        let op = rpc_with(
            client,
            RpcPolicy {
                max_attempts: 2,
                backoff_base: Duration::ZERO,
                degraded_fallback: true,
                ..RpcPolicy::default()
            },
        );
        let mut ws = ws_with_input();
        let outcome = settled(op.begin(&ws).unwrap().collect(&mut ws));
        assert!(outcome.degraded);
        assert_eq!(outcome.error_kind, Some("transport"));
        assert_eq!(outcome.retries, 1);
        // The fallback is a zero matrix with one row per batch element
        // and the table's dim.
        let out = ws.dense("out", "t").unwrap();
        assert_eq!((out.rows(), out.cols()), (1, 1));
        assert_eq!(out.get(0, 0), 0.0);
    }

    #[test]
    fn shard_fault_is_not_retried_and_not_degraded() {
        let calls = Arc::new(FlakyClient::failing(
            9,
            RpcError::ShardFault {
                shard: ShardId(0),
                message: "t0 not hosted".into(),
            },
        ));
        let op = rpc_with(
            Arc::clone(&calls) as Arc<dyn SparseShardClient>,
            RpcPolicy {
                max_attempts: 3,
                degraded_fallback: true,
                backoff_base: Duration::ZERO,
                ..RpcPolicy::default()
            },
        );
        let mut ws = ws_with_input();
        let err = op.begin(&ws).unwrap().collect(&mut ws).1.unwrap_err();
        assert!(err.to_string().contains("not hosted"), "{err}");
        // Exactly one call went out: deterministic rejections burn no
        // retry budget.
        assert_eq!(calls.failures.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn send_failure_is_deferred_and_retried() {
        // The first send's reply is a transport error.
        let client = Arc::new(FlakyClient::failing(1, transient()));
        let op = rpc_with(
            client,
            RpcPolicy {
                max_attempts: 2,
                backoff_base: Duration::ZERO,
                ..RpcPolicy::default()
            },
        );
        let mut ws = ws_with_input();
        // ReadyResponse defers the error to collect, so this exercises
        // the settled-error retry path.
        let outcome = settled(op.begin(&ws).unwrap().collect(&mut ws));
        assert_eq!(outcome.retries, 1);
        assert!(ws.dense("out", "t").is_ok());
    }

    #[test]
    fn attempt_timeout_abandons_the_primary_once_and_the_retry_wins() {
        let client = Arc::new(StuckClient::new(1));
        let op = rpc_with(
            Arc::clone(&client) as Arc<dyn SparseShardClient>,
            RpcPolicy {
                attempt_timeout: Some(Duration::from_millis(5)),
                max_attempts: 2,
                backoff_base: Duration::ZERO,
                ..RpcPolicy::default()
            },
        );
        let mut ws = ws_with_input();
        let outcome = settled(op.begin(&ws).unwrap().collect(&mut ws));
        let kinds: Vec<_> = outcome.attempts.iter().map(|a| (a.kind, a.winner)).collect();
        assert_eq!(kinds, [(RpcAttemptKind::Primary, false), (RpcAttemptKind::Retry, true)]);
        let error = outcome.attempts[0].error.as_deref().expect("the primary failed");
        assert!(error.starts_with("timeout"), "{error}");
        assert_eq!(client.abandoned.load(Ordering::SeqCst), 1);
        assert_eq!((outcome.retries, outcome.hedges), (1, 0));
        assert!(ws.dense("out", "t").is_ok());
    }

    #[test]
    fn hedge_beats_a_primary_that_never_settles() {
        let client = Arc::new(StuckClient::new(1));
        let op = rpc_with(
            Arc::clone(&client) as Arc<dyn SparseShardClient>,
            RpcPolicy {
                max_attempts: 2,
                hedge_after: Some(Duration::from_millis(1)),
                ..RpcPolicy::default()
            },
        );
        let mut ws = ws_with_input();
        let outcome = settled(op.begin(&ws).unwrap().collect(&mut ws));
        assert_eq!((outcome.retries, outcome.hedges), (0, 1));
        let winner = outcome.attempts.iter().find(|a| a.winner).expect("a winner");
        assert_eq!(winner.kind, RpcAttemptKind::Hedge);
        let primary = outcome
            .attempts
            .iter()
            .find(|a| a.kind == RpcAttemptKind::Primary)
            .expect("the losing primary is recorded");
        assert!(!primary.winner && primary.error.is_none(), "{primary:?}");
        assert_eq!(
            client.abandoned.load(Ordering::SeqCst),
            0,
            "a lost race drops the primary, it is not abandoned as timed out"
        );
        assert!(ws.dense("out", "t").is_ok());
    }

    use crate::plan::{Location, ShardingPlan, TablePlacement};
    use crate::ShardingStrategy;
    use dlrm_model::EmbeddingTable;

    fn test_table(rows: usize, dim: usize) -> EmbeddingTable {
        let data: Vec<f32> = (0..rows * dim).map(|i| 0.5 + i as f32).collect();
        EmbeddingTable::from_weights("t", Matrix::from_vec(rows, dim, data))
    }

    fn cache_for(table: &EmbeddingTable, hot: Vec<u64>) -> Arc<HotRowCache> {
        let plan = ShardingPlan::new(
            ShardingStrategy::OneShard,
            1,
            vec![TablePlacement {
                table: TableId(0),
                location: Location::Shards(vec![crate::ShardId(0)]),
            }],
        )
        .with_hot_rows(vec![hot]);
        let tables = vec![Arc::new(table.clone())];
        Arc::new(HotRowCache::build(&tables, &plan))
    }

    /// A client that really pools against a table and counts calls and
    /// lookups, so tests can assert what crossed the "wire".
    #[derive(Debug)]
    struct PoolingClient {
        table: EmbeddingTable,
        calls: AtomicU32,
        lookups: AtomicU32,
    }

    impl PoolingClient {
        fn new(table: EmbeddingTable) -> Self {
            Self {
                table,
                calls: AtomicU32::new(0),
                lookups: AtomicU32::new(0),
            }
        }
    }

    impl SparseShardClient for PoolingClient {
        fn shard_id(&self) -> ShardId {
            ShardId(0)
        }
        fn begin_shared(&self, request: &Arc<ShardRequest>) -> Sent {
            self.calls.fetch_add(1, Ordering::SeqCst);
            self.lookups
                .fetch_add(request.total_lookups() as u32, Ordering::SeqCst);
            Ok(Box::new(ReadyResponse(Ok(ShardResponse {
                pooled: request
                    .slices
                    .iter()
                    .map(|s| (s.table, self.table.sparse_lengths_sum(&s.indices, &s.lengths)))
                    .collect(),
            }))))
        }
    }

    fn dim2_fetch() -> RpcFetch {
        RpcFetch {
            dim: 2,
            ..fetch()
        }
    }

    #[test]
    fn cache_split_pools_hot_bags_locally_and_is_bit_exact() {
        // Bags: [1,2] (all hot), [1,5] (5 is cold), [] (empty).
        let input = SparseInput::new(vec![1, 2, 1, 5], vec![2, 2, 0]);
        let table = test_table(8, 2);
        let mut ws = Workspace::new();
        ws.put("in", Blob::Sparse(input));

        // Pure path: no cache attached.
        let pure_client = Arc::new(PoolingClient::new(table.clone()));
        let pure_fetch = RpcFetch {
            output_blob: "out_pure".into(),
            ..dim2_fetch()
        };
        let pure = SparseRpc::new("rpc", NetId(0), pure_client, vec![pure_fetch]);
        settled(pure.begin(&ws).unwrap().collect(&mut ws));

        // Cached path.
        let client = Arc::new(PoolingClient::new(table.clone()));
        let mut op = SparseRpc::new("rpc", NetId(0), Arc::clone(&client) as _, vec![dim2_fetch()]);
        op.set_cache(cache_for(&table, vec![1, 2]));
        let outcome = settled(op.begin(&ws).unwrap().collect(&mut ws));

        let cached = ws.dense("out", "t").unwrap().clone();
        let expect = ws.dense("out_pure", "t").unwrap();
        assert_eq!(&cached, expect, "cache tier must be bit-exact");
        // Only the cold bag crossed the wire.
        assert_eq!(client.calls.load(Ordering::SeqCst), 1);
        assert_eq!(client.lookups.load(Ordering::SeqCst), 2);
        assert_eq!(outcome.cache_hits, 1);
        assert_eq!(outcome.cache_misses, 1);
        assert_eq!(outcome.cache_local_rows, 2);
    }

    #[test]
    fn cache_split_of_a_row_sharded_fetch_maps_local_rows_to_global_ids() {
        // Part 1 of 2 serves the odd global rows: local row j is global
        // row 2j + 1 of the full table the cache copies from.
        let table = test_table(16, 2);
        let odd: Vec<f32> = (0..8).flat_map(|j| table.row(2 * j + 1).to_vec()).collect();
        let shard_table = EmbeddingTable::from_weights("t", Matrix::from_vec(8, 2, odd));
        // Global bags: [1,3,4] routes to [1,3] (all hot); [1,5] routes
        // to [1,5] (5 is cold); [2,4] routes to nothing.
        let mut ws = Workspace::new();
        ws.put(
            "in",
            Blob::Sparse(SparseInput::new(vec![1, 3, 4, 1, 5, 2, 4], vec![3, 2, 2])),
        );
        let odd_part = RpcFetch {
            parts: 2,
            part: 1,
            ..dim2_fetch()
        };

        let pure_fetch = RpcFetch {
            output_blob: "out_pure".into(),
            ..odd_part.clone()
        };
        let pure_client = Arc::new(PoolingClient::new(shard_table.clone()));
        let pure = SparseRpc::new("rpc", NetId(0), pure_client, vec![pure_fetch]);
        settled(pure.begin(&ws).unwrap().collect(&mut ws));

        let client = Arc::new(PoolingClient::new(shard_table));
        let mut op = SparseRpc::new("rpc", NetId(0), Arc::clone(&client) as _, vec![odd_part]);
        op.set_cache(cache_for(&table, vec![1, 2, 3]));
        let pending = op.begin(&ws).unwrap();
        // Only the cold bag is wired, in local rows (global 1, 5 → 0, 2).
        assert_eq!(pending.request.slices.len(), 1);
        assert_eq!(pending.request.slices[0].indices, vec![0, 2]);
        assert_eq!(pending.request.slices[0].lengths, vec![2]);
        assert_eq!(pending.wired, vec![(0, Some(vec![1]))]);
        let outcome = settled(pending.collect(&mut ws));

        let cached = ws.dense("out", "t").unwrap();
        let expect = ws.dense("out_pure", "t").unwrap();
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(cached), bits(expect), "cache split must be bit-exact");
        assert_eq!(client.calls.load(Ordering::SeqCst), 1);
        assert_eq!(client.lookups.load(Ordering::SeqCst), 2);
        assert_eq!(
            (outcome.cache_hits, outcome.cache_misses, outcome.cache_local_rows),
            (1, 1, 2)
        );
    }

    #[test]
    fn fully_cached_op_skips_the_network_entirely() {
        /// A client whose send must never be reached.
        #[derive(Debug)]
        struct NoWire;
        impl SparseShardClient for NoWire {
            fn shard_id(&self) -> ShardId {
                ShardId(0)
            }
            fn begin_shared(&self, _request: &Arc<ShardRequest>) -> Sent {
                panic!("fully-cached op must not touch the transport")
            }
        }
        let table = test_table(8, 2);
        let mut ws = Workspace::new();
        ws.put("in", Blob::Sparse(SparseInput::new(vec![1, 2, 2], vec![1, 2])));
        let mut op = SparseRpc::new("rpc", NetId(0), Arc::new(NoWire), vec![dim2_fetch()]);
        op.set_cache(cache_for(&table, vec![1, 2]));
        let outcome = settled(op.begin(&ws).unwrap().collect(&mut ws));
        assert!(outcome.attempts.is_empty(), "nothing should have been sent");
        assert_eq!(outcome.cache_hits, 2);
        assert_eq!(outcome.cache_local_rows, 3);
        let out = ws.dense("out", "t").unwrap();
        let expect = table.sparse_lengths_sum(&[1, 2, 2], &[1, 2]);
        assert_eq!(out, &expect);
    }

    #[test]
    fn degraded_fallback_keeps_cache_served_bags_real() {
        let table = test_table(8, 2);
        let mut ws = Workspace::new();
        // Bag 0 fully hot, bag 1 cold.
        ws.put("in", Blob::Sparse(SparseInput::new(vec![1, 2, 5], vec![2, 1])));
        let client = Arc::new(FlakyClient::failing(9, transient()));
        let mut op = SparseRpc::new("rpc", NetId(0), client, vec![dim2_fetch()]);
        op.set_cache(cache_for(&table, vec![1, 2]));
        op.set_policy(RpcPolicy {
            max_attempts: 2,
            backoff_base: Duration::ZERO,
            degraded_fallback: true,
            ..RpcPolicy::default()
        });
        let outcome = settled(op.begin(&ws).unwrap().collect(&mut ws));
        assert!(outcome.degraded);
        assert_eq!(outcome.cache_hits, 1);
        assert_eq!(outcome.cache_misses, 1);
        let out = ws.dense("out", "t").unwrap();
        let expect = table.sparse_lengths_sum(&[1, 2], &[2]);
        assert_eq!(out.row(0), expect.row(0), "cached bag keeps real values");
        assert_eq!(out.row(1), &[0.0, 0.0][..], "remote bag degrades to zero");
    }

    #[test]
    fn uncached_tables_under_a_split_still_match_the_pure_wire_shape() {
        // Two fetches, only table 0 has a hot set; table 1's slice must
        // come out identical to the cacheless routing.
        let table = test_table(8, 2);
        let mut ws = Workspace::new();
        ws.put("in0", Blob::Sparse(SparseInput::new(vec![1, 2], vec![2])));
        ws.put("in1", Blob::Sparse(SparseInput::new(vec![4, 6, 3], vec![2, 1])));
        let fetches = vec![
            RpcFetch {
                table: TableId(0),
                input_blob: "in0".into(),
                output_blob: "out0".into(),
                parts: 1,
                part: 0,
                dim: 2,
            },
            RpcFetch {
                table: TableId(1),
                input_blob: "in1".into(),
                output_blob: "out1".into(),
                parts: 1,
                part: 0,
                dim: 2,
            },
        ];
        let client = Arc::new(PoolingClient::new(table.clone()));
        let mut op = SparseRpc::new("rpc", NetId(0), client, fetches);
        // Cache keyed to table 0 only (the plan has one table; attach a
        // cache whose table 1 entry is absent).
        op.set_cache(cache_for(&table, vec![1, 2]));
        let pending = op.begin(&ws).unwrap();
        assert_eq!(pending.wired, vec![(1, None)], "table 1 is wired whole");
        assert_eq!(pending.request.slices.len(), 1);
        let pure = op.build_request(&ws).unwrap();
        assert_eq!(pending.request.slices[0], pure.slices[1], "uncached slice unchanged");
        // Uncached-table bags are not counted as misses.
        let outcome = settled(pending.collect(&mut ws));
        assert_eq!((outcome.cache_hits, outcome.cache_misses), (1, 0));
        let expect = table.sparse_lengths_sum(&[4, 6, 3], &[2, 1]);
        assert_eq!(ws.dense("out1", "t").unwrap(), &expect);
    }

    #[test]
    fn policy_injection_via_downcast() {
        let mut op: Box<dyn Operator> =
            Box::new(SparseRpc::new("rpc", NetId(0), Arc::new(ZeroClient), vec![fetch()]));
        let any = op.as_any_mut().expect("SparseRpc downcasts");
        let rpc = any.downcast_mut::<SparseRpc>().unwrap();
        rpc.set_policy(RpcPolicy::resilient());
        assert_eq!(rpc.policy().max_attempts, 3);
    }

    #[test]
    fn total_lookups_accounting() {
        let req = ShardRequest {
            net: NetId(0),
            slices: vec![TableSlice {
                table: TableId(0),
                indices: vec![1, 2, 3],
                lengths: vec![3],
            }],
        };
        assert_eq!(req.total_lookups(), 3);
    }
}
