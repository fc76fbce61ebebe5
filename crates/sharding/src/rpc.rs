//! The asynchronous RPC operator and its wire types.
//!
//! In the paper's system, partitioned subnets are "replaced by custom
//! remote-procedure-call (RPC) operators that call remote shards"
//! (§III-A1); each RPC carries the sparse feature ids destined for its
//! shard and receives the pooled embedding vectors back. This module
//! defines those request/response types, the client abstraction (so the
//! same operator runs against an in-process shard, a thread-backed
//! shard, or the simulator's cost model), the typed [`RpcError`]
//! taxonomy, the per-RPC [`RpcPolicy`] (deadline, capped-backoff
//! retries, tail hedging, degraded fallback), and the [`SparseRpc`]
//! graph operator itself.

use crate::cache::HotRowCache;
use crate::plan::ShardId;
use dlrm_model::graph::{
    AsyncOperator, Blob, GraphError, Operator, PendingOp, RpcAttempt, RpcAttemptKind, RpcOutcome,
    SparseInput, Workspace,
};
use dlrm_model::{NetId, OpGroup, TableId};
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
        match self {
            RpcError::Timeout { shard, waited } => {
                write!(f, "timeout on {shard}: no reply within {waited:?}")
            }
            RpcError::Transport { shard, message } => {
                write!(f, "transport error on {shard}: {message}")
            }
            RpcError::ShardFault { shard, message } => {
                write!(f, "shard-fault on {shard}: {message}")
            }
            RpcError::Poisoned { shard, message } => {
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

    /// Approximate request payload in bytes: 8 per index, 4 per length.
    #[must_use]
    pub fn payload_bytes(&self) -> usize {
        self.slices
            .iter()
            .map(|s| s.indices.len() * 8 + s.lengths.len() * 4)
            .sum()
    }
}

/// The response: pooled embeddings per requested table, in request
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardResponse {
    /// `(table, batch × dim pooled matrix)` pairs.
    pub pooled: Vec<(TableId, Matrix)>,
}

impl ShardResponse {
    /// Approximate response payload in bytes (4 per f32).
    #[must_use]
    pub fn payload_bytes(&self) -> usize {
        self.pooled.iter().map(|(_, m)| m.len() * 4).sum()
    }
}

/// A connection to one sparse shard.
///
/// Implementations: [`crate::InProcessClient`] (direct call, used for
/// correctness verification) and the serving crate's thread-backed
/// client (real concurrency) and replicated client (failover across a
/// replica set).
pub trait SparseShardClient: std::fmt::Debug + Send + Sync {
    /// The shard this client reaches.
    fn shard_id(&self) -> ShardId;

    /// Executes one request.
    ///
    /// # Errors
    ///
    /// A typed [`RpcError`] when the shard rejects the request or the
    /// transport fails.
    fn execute(&self, request: &ShardRequest) -> Result<ShardResponse, RpcError>;

    /// Starts one request without waiting for the reply, returning a
    /// completion handle — the transport half of the asynchronous RPC
    /// operators (§IV-A). The default implementation executes
    /// synchronously and wraps the finished result, which is correct
    /// (though unoverlapped) for direct-call clients; real transports
    /// (the thread-backed pool) override it to send now and receive at
    /// [`RpcCompletion::wait`].
    ///
    /// # Errors
    ///
    /// A typed [`RpcError`] when the request cannot be sent at all
    /// (transport down). Shard-side failures may instead surface from
    /// [`RpcCompletion::wait`].
    fn begin_execute(&self, request: &ShardRequest) -> Result<Box<dyn RpcCompletion>, RpcError> {
        Ok(Box::new(ReadyResponse(self.execute(request))))
    }
}

/// What a bounded wait on an [`RpcCompletion`] produced: either the
/// settled call, or the still-pending completion handed back so the
/// caller can keep waiting (or race it against a hedge).
pub enum WaitOutcome {
    /// The call settled (reply or error).
    Ready(Result<ShardResponse, RpcError>),
    /// The deadline passed first; the completion is returned untouched.
    Pending(Box<dyn RpcCompletion>),
}

/// A shard RPC that has been sent but whose response has not been
/// consumed yet. Dropping a completion abandons the call: the shard
/// still executes it, the reply is discarded.
pub trait RpcCompletion: Send {
    /// Blocks until the response arrives.
    ///
    /// # Errors
    ///
    /// A typed [`RpcError`] when the shard rejected the request or the
    /// transport died while the call was in flight.
    fn wait(self: Box<Self>) -> Result<ShardResponse, RpcError>;

    /// Blocks until the response arrives or `deadline` passes,
    /// whichever happens first. The default implementation ignores the
    /// deadline and waits — correct for completions that already hold
    /// their result; real transports override it.
    fn wait_deadline(self: Box<Self>, _deadline: Instant) -> WaitOutcome {
        WaitOutcome::Ready(self.wait())
    }

    /// Notifies the transport that the caller is giving up on this call
    /// because its deadline passed (as opposed to dropping a losing
    /// hedge whose replica is healthy). Replica-aware transports use
    /// this to debit the replica's health. Default: plain drop.
    fn abandon_timed_out(self: Box<Self>) {}
}

/// An [`RpcCompletion`] that already holds its result — what the default
/// synchronous [`SparseShardClient::begin_execute`] returns.
pub struct ReadyResponse(pub Result<ShardResponse, RpcError>);

impl RpcCompletion for ReadyResponse {
    fn wait(self: Box<Self>) -> Result<ShardResponse, RpcError> {
        self.0
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
/// With a hot-row cache attached ([`SparseRpc::set_cache`]), each bag
/// whose routed indices are *all* cache-resident is pooled locally and
/// dropped from the wire request; bags with any cold row go to the
/// shard whole, so per-bag float summation order — and therefore every
/// output bit — is unchanged. An operator whose bags are all local
/// skips the network entirely.
#[derive(Debug)]
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

    /// Builds the wire request from the workspace (exposed for tests and
    /// for the serving layer's cost accounting).
    ///
    /// # Errors
    ///
    /// Propagates missing/mistyped sparse input blobs.
    pub fn build_request(&self, ws: &Workspace) -> Result<ShardRequest, GraphError> {
        let mut slices = Vec::with_capacity(self.fetches.len());
        for f in self.fetches.iter() {
            let sparse = ws.sparse(&f.input_blob, &self.name)?;
            slices.push(route_slice(f, sparse));
        }
        Ok(ShardRequest {
            net: self.net,
            slices,
        })
    }

    /// Splits the operator's bags against the attached cache: pools
    /// fully-resident bags locally and builds the compacted wire
    /// request holding only the remote remainder. Returns `None` for
    /// the split when no cache is attached or no fetched table has a
    /// hot set — the request is then the unsplit [`Self::build_request`]
    /// and every byte of behavior matches the cacheless operator.
    fn build_request_and_split(
        &self,
        ws: &Workspace,
    ) -> Result<(ShardRequest, Option<LocalSplit>), GraphError> {
        let Some(cache) = &self.cache else {
            return Ok((self.build_request(ws)?, None));
        };
        if !self.fetches.iter().any(|f| cache.table(f.table).is_some()) {
            return Ok((self.build_request(ws)?, None));
        }
        let mut split = LocalSplit {
            outs: Vec::with_capacity(self.fetches.len()),
            remote_fetches: Vec::new(),
            remote_bags: Vec::new(),
            hits: 0,
            misses: 0,
            local_rows: 0,
        };
        let mut slices = Vec::new();
        let level = simd::effective_level(ws.pool().dispatch().level());
        let mut slots: Vec<u64> = Vec::new();
        for (fi, f) in self.fetches.iter().enumerate() {
            let sparse = ws.sparse(&f.input_blob, &self.name)?;
            let bags = route_bags_global(f, sparse);
            let mut out = Matrix::zeros(bags.len(), f.dim);
            let mut remote: Vec<usize> = Vec::new();
            match cache.table(f.table) {
                Some(tc) => {
                    for (b, bag) in bags.iter().enumerate() {
                        if tc.resolve(bag, &mut slots) {
                            // Empty routed bags are vacuously local but
                            // say nothing about the cache — skip counts.
                            if !bag.is_empty() {
                                split.hits += 1;
                                split.local_rows += bag.len() as u64;
                            }
                            tc.pool_slots(level, &slots, out.row_mut(b));
                        } else {
                            split.misses += 1;
                            remote.push(b);
                        }
                    }
                }
                None => remote.extend(0..bags.len()),
            }
            split.outs.push(out);
            if remote.is_empty() {
                continue;
            }
            let mut indices = Vec::new();
            let mut lengths = Vec::with_capacity(remote.len());
            for &b in &remote {
                let bag = &bags[b];
                lengths.push(u32::try_from(bag.len()).expect("bag length fits u32"));
                if f.parts == 1 {
                    indices.extend_from_slice(bag);
                } else {
                    indices.extend(bag.iter().map(|&idx| idx / f.parts as u64));
                }
            }
            slices.push(TableSlice {
                table: f.table,
                indices,
                lengths,
            });
            split.remote_fetches.push(fi);
            split.remote_bags.push(remote);
        }
        cache.record(split.hits, split.misses, split.local_rows);
        if split.local_rows > 0 {
            KernelStats::global().record_sls(level, split.local_rows as usize);
        }
        Ok((
            ShardRequest {
                net: self.net,
                slices,
            },
            Some(split),
        ))
    }

    /// Issue half of the operator: builds the request from the
    /// workspace and sends it without waiting for the reply.
    ///
    /// When the send itself fails with a retryable error and the policy
    /// has attempts or a degraded fallback left, the failure is
    /// *deferred* to the collect half (which owns the retry loop)
    /// instead of failing the whole run at issue time.
    ///
    /// # Errors
    ///
    /// Propagates missing/mistyped input blobs, and send-time transport
    /// failures the policy cannot absorb.
    pub fn begin(&self, ws: &Workspace) -> Result<PendingSparseRpc, GraphError> {
        let (request, split) = self.build_request_and_split(ws)?;
        let (attempt, first_error) = if request.slices.is_empty() {
            // Every bag was pooled from the cache: nothing to send, the
            // collect half just writes the locally-pooled outputs.
            (None, None)
        } else {
            match self.client.begin_execute(&request) {
                Ok(completion) => (
                    Some(InFlightAttempt {
                        completion,
                        issued_at: Instant::now(),
                        kind: RpcAttemptKind::Primary,
                    }),
                    None,
                ),
                Err(e) => {
                    let absorbable = e.is_retryable()
                        && (self.policy.max_attempts > 1 || self.policy.degraded_fallback);
                    if !absorbable {
                        return Err(GraphError::OpFailed {
                            op: self.name.to_string(),
                            message: e.to_string(),
                        });
                    }
                    (None, Some(e))
                }
            }
        };
        Ok(PendingSparseRpc {
            op: Arc::clone(&self.name),
            fetches: Arc::clone(&self.fetches),
            client: Arc::clone(&self.client),
            request,
            policy: self.policy,
            attempt,
            first_error,
            split,
        })
    }
}

/// The hot/cold bag split of one issued operator: per-fetch output
/// matrices pre-filled with the locally-pooled bags, plus the mapping
/// from compacted wire-response rows back to output rows.
struct LocalSplit {
    /// One `total_bags × dim` output per fetch; local bags already
    /// pooled, remote bags zero until the reply (or left zero when
    /// degraded).
    outs: Vec<Matrix>,
    /// Indices into `fetches` that still need the wire (≥ 1 cold bag),
    /// in fetch order — parallel to the request's slices.
    remote_fetches: Vec<usize>,
    /// For each remote fetch, the output-row index of every bag that
    /// went remote, in wire order.
    remote_bags: Vec<Vec<usize>>,
    /// Bags pooled entirely locally (non-empty ones).
    hits: u64,
    /// Bags with at least one cold row.
    misses: u64,
    /// Row lookups served from the cache.
    local_rows: u64,
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
/// attempt is exhausted — then validates the reply against the fetch
/// list and writes the pooled output blobs.
pub struct PendingSparseRpc {
    op: Arc<str>,
    fetches: Arc<[RpcFetch]>,
    client: Arc<dyn SparseShardClient>,
    request: ShardRequest,
    policy: RpcPolicy,
    /// The primary attempt, when the send succeeded. `None` together
    /// with no `first_error` means the op was fully served from the
    /// hot-row cache and nothing was sent.
    attempt: Option<InFlightAttempt>,
    /// The send-time error when it did not (collect retries from here).
    first_error: Option<RpcError>,
    /// The hot/cold bag split when a cache absorbed part of the op.
    split: Option<LocalSplit>,
}

/// How long each bounded poll lasts when two attempts are being raced
/// (the scheduler alternates between them at this granularity).
const RACE_POLL_SLICE: Duration = Duration::from_micros(200);

impl PendingSparseRpc {
    /// Waits for a winning response under the policy and writes the
    /// pooled blobs (real or zero-fallback).
    ///
    /// # Errors
    ///
    /// Propagates shard/transport failures the policy cannot absorb and
    /// malformed responses (wrong table count or order).
    pub fn collect(mut self, ws: &mut Workspace) -> Result<RpcOutcome, GraphError> {
        let mut outcome = RpcOutcome::default();
        if let Some(split) = &self.split {
            outcome.cache_hits = split.hits;
            outcome.cache_misses = split.misses;
            outcome.cache_local_rows = split.local_rows;
        }
        // Fully cache-served op: nothing was sent, write the locally
        // pooled outputs and settle without any attempt.
        if self.attempt.is_none() && self.first_error.is_none() {
            let split = self.split.take().expect("sendless op implies a split");
            for (f, out) in self.fetches.iter().zip(split.outs) {
                ws.put(f.output_blob.clone(), Blob::Dense(out));
            }
            return Ok(outcome);
        }
        let mut in_flight: Vec<InFlightAttempt> = Vec::with_capacity(2);
        // Transmissions used so far (primary counts even if its send
        // failed — the wire was tried).
        let mut attempts_used: u32 = 1;
        let mut last_error: Option<RpcError> = match self.first_error.take() {
            Some(e) => {
                outcome.attempts.push(RpcAttempt {
                    kind: RpcAttemptKind::Primary,
                    issued_at: Instant::now(),
                    settled_at: Instant::now(),
                    winner: false,
                    error: Some(e.to_string()),
                });
                Some(e)
            }
            None => {
                in_flight.push(self.attempt.take().expect("attempt or error"));
                None
            }
        };

        loop {
            // Re-transmit (retry) after a failure when budget remains.
            if in_flight.is_empty() {
                let Some(err) = last_error.take() else {
                    unreachable!("no attempt in flight and no error recorded")
                };
                if !err.is_retryable() || attempts_used >= self.policy.max_attempts {
                    return self.settle_exhausted(ws, outcome, err);
                }
                let retry_no = outcome.retries + 1;
                let backoff = self.policy.backoff(retry_no);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
                attempts_used += 1;
                outcome.retries += 1;
                match self.client.begin_execute(&self.request) {
                    Ok(completion) => in_flight.push(InFlightAttempt {
                        completion,
                        issued_at: Instant::now(),
                        kind: RpcAttemptKind::Retry,
                    }),
                    Err(e) => {
                        outcome.attempts.push(RpcAttempt {
                            kind: RpcAttemptKind::Retry,
                            issued_at: Instant::now(),
                            settled_at: Instant::now(),
                            winner: false,
                            error: Some(e.to_string()),
                        });
                        last_error = Some(e);
                        continue;
                    }
                }
            }

            // The current attempt's deadline (the oldest in-flight
            // transmission anchors the window).
            let anchor = in_flight[0].issued_at;
            let attempt_deadline = self.policy.attempt_timeout.and_then(|t| anchor.checked_add(t));
            // When does the hedge fire? Only one duplicate at a time,
            // and only if transmission budget remains.
            let hedge_at = match self.policy.hedge_after {
                Some(d) if in_flight.len() == 1 && attempts_used < self.policy.max_attempts => {
                    anchor.checked_add(d)
                }
                _ => None,
            };

            // Wait for the next event: a settled attempt, the hedge
            // timer, or the attempt deadline.
            match Self::race(&mut in_flight, attempt_deadline, hedge_at) {
                RaceResult::Settled {
                    kind,
                    issued_at,
                    result: Ok(response),
                } => {
                    let now = Instant::now();
                    outcome.attempts.push(RpcAttempt {
                        kind,
                        issued_at,
                        settled_at: now,
                        winner: true,
                        error: None,
                    });
                    // Losing hedges are abandoned (their replicas are
                    // healthy — the reply just lost the race).
                    for loser in in_flight.drain(..) {
                        outcome.attempts.push(RpcAttempt {
                            kind: loser.kind,
                            issued_at: loser.issued_at,
                            settled_at: now,
                            winner: false,
                            error: None,
                        });
                    }
                    self.write_response(ws, response)?;
                    return Ok(outcome);
                }
                RaceResult::Settled {
                    kind,
                    issued_at,
                    result: Err(e),
                } => {
                    outcome.attempts.push(RpcAttempt {
                        kind,
                        issued_at,
                        settled_at: Instant::now(),
                        winner: false,
                        error: Some(e.to_string()),
                    });
                    if !e.is_retryable() {
                        // Deterministic rejection: abandon everything
                        // and fail now.
                        return self.settle_exhausted(ws, outcome, e);
                    }
                    if in_flight.is_empty() {
                        last_error = Some(e);
                    }
                    // Else: the other transmission may still win; loop
                    // and keep waiting on it.
                }
                RaceResult::HedgeDue => {
                    attempts_used += 1;
                    outcome.hedges += 1;
                    match self.client.begin_execute(&self.request) {
                        Ok(completion) => in_flight.push(InFlightAttempt {
                            completion,
                            issued_at: Instant::now(),
                            kind: RpcAttemptKind::Hedge,
                        }),
                        Err(e) => {
                            outcome.attempts.push(RpcAttempt {
                                kind: RpcAttemptKind::Hedge,
                                issued_at: Instant::now(),
                                settled_at: Instant::now(),
                                winner: false,
                                error: Some(e.to_string()),
                            });
                        }
                    }
                }
                RaceResult::DeadlinePassed => {
                    // Every in-flight transmission of this attempt window
                    // timed out together.
                    let now = Instant::now();
                    let waited = now.saturating_duration_since(anchor);
                    let err = RpcError::Timeout {
                        shard: self.client.shard_id(),
                        waited,
                    };
                    for attempt in in_flight.drain(..) {
                        outcome.attempts.push(RpcAttempt {
                            kind: attempt.kind,
                            issued_at: attempt.issued_at,
                            settled_at: now,
                            winner: false,
                            error: Some(err.to_string()),
                        });
                        attempt.completion.abandon_timed_out();
                    }
                    last_error = Some(err);
                }
            }
        }
    }

    /// Waits until one in-flight attempt settles, the hedge timer
    /// fires, or the attempt deadline passes — whichever is first. A
    /// settled attempt is removed from `in_flight`; any remaining
    /// entries are still pending.
    fn race(
        in_flight: &mut Vec<InFlightAttempt>,
        attempt_deadline: Option<Instant>,
        hedge_at: Option<Instant>,
    ) -> RaceResult {
        loop {
            let now = Instant::now();
            if let Some(d) = attempt_deadline {
                if now >= d {
                    return RaceResult::DeadlinePassed;
                }
            }
            if let Some(h) = hedge_at {
                if now >= h {
                    return RaceResult::HedgeDue;
                }
            }
            // One transmission and no timers: block until it settles.
            if in_flight.len() == 1 && attempt_deadline.is_none() && hedge_at.is_none() {
                let attempt = in_flight.remove(0);
                return RaceResult::Settled {
                    kind: attempt.kind,
                    issued_at: attempt.issued_at,
                    result: attempt.completion.wait(),
                };
            }
            // Bounded wait: straight to the next timer when there is
            // only one transmission, otherwise a short slice so the
            // racing transmissions are polled alternately.
            let mut until = if in_flight.len() == 1 {
                Instant::now() + Duration::from_secs(3600)
            } else {
                now + RACE_POLL_SLICE
            };
            if let Some(d) = attempt_deadline {
                until = until.min(d);
            }
            if let Some(h) = hedge_at {
                until = until.min(h);
            }
            for index in 0..in_flight.len() {
                let attempt = in_flight.remove(index);
                let kind = attempt.kind;
                let issued_at = attempt.issued_at;
                match attempt.completion.wait_deadline(until) {
                    WaitOutcome::Ready(result) => {
                        return RaceResult::Settled {
                            kind,
                            issued_at,
                            result,
                        };
                    }
                    WaitOutcome::Pending(completion) => {
                        in_flight.insert(
                            index,
                            InFlightAttempt {
                                completion,
                                issued_at,
                                kind,
                            },
                        );
                    }
                }
            }
        }
    }

    /// Terminal path: the budget is spent (or the error is not
    /// retryable). Either substitute the degraded zero-embedding
    /// fallback or surface the typed error as an operator failure.
    fn settle_exhausted(
        &mut self,
        ws: &mut Workspace,
        mut outcome: RpcOutcome,
        err: RpcError,
    ) -> Result<RpcOutcome, GraphError> {
        if self.policy.degraded_fallback && err.is_retryable() {
            if let Some(split) = self.split.take() {
                // Cache-served bags keep their real values; only the
                // remote positions stay zero.
                for (f, out) in self.fetches.iter().zip(split.outs) {
                    ws.put(f.output_blob.clone(), Blob::Dense(out));
                }
            } else {
                for (f, slice) in self.fetches.iter().zip(&self.request.slices) {
                    let rows = slice.lengths.len();
                    ws.put(f.output_blob.clone(), Blob::Dense(Matrix::zeros(rows, f.dim)));
                }
            }
            outcome.degraded = true;
            outcome.error_kind = Some(err.kind().to_string());
            return Ok(outcome);
        }
        Err(GraphError::OpFailed {
            op: self.op.to_string(),
            message: err.to_string(),
        })
    }

    /// Validates the winning response and writes the pooled blobs.
    ///
    /// With a hot/cold split in play the response is *compacted*: one
    /// entry per remote fetch, one row per remote bag. Those rows are
    /// scattered back into the pre-pooled output matrices; without a
    /// split the response maps 1:1 onto the fetch list as before.
    fn write_response(&mut self, ws: &mut Workspace, response: ShardResponse) -> Result<(), GraphError> {
        if let Some(split) = self.split.take() {
            if response.pooled.len() != split.remote_fetches.len() {
                return Err(GraphError::OpFailed {
                    op: self.op.to_string(),
                    message: format!(
                        "shard returned {} tables, expected {} remote",
                        response.pooled.len(),
                        split.remote_fetches.len()
                    ),
                });
            }
            let mut outs = split.outs;
            for (k, (table, pooled)) in response.pooled.into_iter().enumerate() {
                let fi = split.remote_fetches[k];
                let f = &self.fetches[fi];
                if table != f.table {
                    return Err(GraphError::OpFailed {
                        op: self.op.to_string(),
                        message: format!("shard answered {table}, expected {}", f.table),
                    });
                }
                let bags = &split.remote_bags[k];
                if pooled.rows() != bags.len() || pooled.cols() != f.dim {
                    return Err(GraphError::OpFailed {
                        op: self.op.to_string(),
                        message: format!(
                            "shard returned {}x{} for {table}, expected {}x{}",
                            pooled.rows(),
                            pooled.cols(),
                            bags.len(),
                            f.dim
                        ),
                    });
                }
                for (j, &b) in bags.iter().enumerate() {
                    outs[fi].row_mut(b).copy_from_slice(pooled.row(j));
                }
            }
            for (f, out) in self.fetches.iter().zip(outs) {
                ws.put(f.output_blob.clone(), Blob::Dense(out));
            }
            return Ok(());
        }
        if response.pooled.len() != self.fetches.len() {
            return Err(GraphError::OpFailed {
                op: self.op.to_string(),
                message: format!(
                    "shard returned {} tables, expected {}",
                    response.pooled.len(),
                    self.fetches.len()
                ),
            });
        }
        for (f, (table, pooled)) in self.fetches.iter().zip(response.pooled) {
            if table != f.table {
                return Err(GraphError::OpFailed {
                    op: self.op.to_string(),
                    message: format!("shard answered {table}, expected {}", f.table),
                });
            }
            ws.put(f.output_blob.clone(), Blob::Dense(pooled));
        }
        Ok(())
    }
}

/// What ended one bounded wait in the collect loop.
enum RaceResult {
    /// One in-flight transmission settled (and was removed from the
    /// in-flight set).
    Settled {
        kind: RpcAttemptKind,
        issued_at: Instant,
        result: Result<ShardResponse, RpcError>,
    },
    /// The hedge timer fired before anything settled.
    HedgeDue,
    /// The per-attempt deadline passed before anything settled.
    DeadlinePassed,
}

impl PendingOp for PendingSparseRpc {
    fn collect(self: Box<Self>, ws: &mut Workspace) -> Result<Option<RpcOutcome>, GraphError> {
        PendingSparseRpc::collect(*self, ws).map(Some)
    }
}

impl AsyncOperator for SparseRpc {
    fn issue(&self, ws: &Workspace) -> Result<Box<dyn PendingOp>, GraphError> {
        Ok(Box::new(self.begin(ws)?))
    }
}

/// Applies modulus routing to one sparse input.
fn route_slice(fetch: &RpcFetch, sparse: &SparseInput) -> TableSlice {
    if fetch.parts == 1 {
        return TableSlice {
            table: fetch.table,
            indices: sparse.indices.clone(),
            lengths: sparse.lengths.clone(),
        };
    }
    let parts = fetch.parts as u64;
    let part = fetch.part as u64;
    let mut indices = Vec::new();
    let mut lengths = Vec::with_capacity(sparse.lengths.len());
    let mut cursor = 0usize;
    for &len in &sparse.lengths {
        let mut kept = 0u32;
        for &idx in &sparse.indices[cursor..cursor + len as usize] {
            if idx % parts == part {
                indices.push(idx / parts);
                kept += 1;
            }
        }
        lengths.push(kept);
        cursor += len as usize;
    }
    TableSlice {
        table: fetch.table,
        indices,
        lengths,
    }
}

/// Modulus routing that keeps bag structure and *global* row ids: for
/// each batch element, the global indices belonging to this fetch's
/// part, in input order. The cache split needs global ids (the cache
/// is keyed by them) and per-bag boundaries (local serving is
/// all-or-nothing per bag).
fn route_bags_global(fetch: &RpcFetch, sparse: &SparseInput) -> Vec<Vec<u64>> {
    let parts = fetch.parts as u64;
    let part = fetch.part as u64;
    let mut bags = Vec::with_capacity(sparse.lengths.len());
    let mut cursor = 0usize;
    for &len in &sparse.lengths {
        let slice = &sparse.indices[cursor..cursor + len as usize];
        let bag = if fetch.parts == 1 {
            slice.to_vec()
        } else {
            slice.iter().copied().filter(|&i| i % parts == part).collect()
        };
        bags.push(bag);
        cursor += len as usize;
    }
    bags
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
        self.begin(ws)?.collect(ws).map(|_| ())
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
        fn execute(&self, request: &ShardRequest) -> Result<ShardResponse, RpcError> {
            Ok(ShardResponse {
                pooled: request
                    .slices
                    .iter()
                    .map(|s| (s.table, Matrix::zeros(1, 1)))
                    .collect(),
            })
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
        fn execute(&self, request: &ShardRequest) -> Result<ShardResponse, RpcError> {
            let left = self.failures.load(Ordering::SeqCst);
            if left > 0 {
                self.failures.store(left - 1, Ordering::SeqCst);
                return Err(self.error.clone());
            }
            ZeroClient.execute(request)
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
        let outcome = pending.collect(&mut ws).unwrap();
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
        let outcome = op.begin(&ws).unwrap().collect(&mut ws).unwrap();
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
        let err = op.begin(&ws).unwrap().collect(&mut ws).unwrap_err();
        assert!(err.to_string().contains("transport"), "{err}");
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
        let outcome = op.begin(&ws).unwrap().collect(&mut ws).unwrap();
        assert!(outcome.degraded);
        assert_eq!(outcome.error_kind.as_deref(), Some("transport"));
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
        let err = op.begin(&ws).unwrap().collect(&mut ws).unwrap_err();
        assert!(err.to_string().contains("not hosted"), "{err}");
        // Exactly one call went out: deterministic rejections burn no
        // retry budget.
        assert_eq!(calls.failures.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn send_failure_is_deferred_and_retried() {
        // begin_execute itself fails (default impl wraps execute).
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
        let outcome = op.begin(&ws).unwrap().collect(&mut ws).unwrap();
        assert_eq!(outcome.retries, 1);
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
        fn execute(&self, request: &ShardRequest) -> Result<ShardResponse, RpcError> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            self.lookups
                .fetch_add(request.total_lookups() as u32, Ordering::SeqCst);
            Ok(ShardResponse {
                pooled: request
                    .slices
                    .iter()
                    .map(|s| (s.table, self.table.sparse_lengths_sum(&s.indices, &s.lengths)))
                    .collect(),
            })
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
        pure.begin(&ws).unwrap().collect(&mut ws).unwrap();

        // Cached path.
        let client = Arc::new(PoolingClient::new(table.clone()));
        let cache = cache_for(&table, vec![1, 2]);
        let mut op = SparseRpc::new("rpc", NetId(0), Arc::clone(&client) as _, vec![dim2_fetch()]);
        op.set_cache(Arc::clone(&cache));
        let outcome = op.begin(&ws).unwrap().collect(&mut ws).unwrap();

        let cached = ws.dense("out", "t").unwrap().clone();
        let expect = ws.dense("out_pure", "t").unwrap();
        assert_eq!(&cached, expect, "cache tier must be bit-exact");
        // Only the cold bag crossed the wire.
        assert_eq!(client.calls.load(Ordering::SeqCst), 1);
        assert_eq!(client.lookups.load(Ordering::SeqCst), 2);
        assert_eq!(outcome.cache_hits, 1);
        assert_eq!(outcome.cache_misses, 1);
        assert_eq!(outcome.cache_local_rows, 2);
        let totals = cache.totals();
        assert_eq!((totals.hits, totals.misses, totals.local_rows), (1, 1, 2));
    }

    #[test]
    fn fully_cached_op_skips_the_network_entirely() {
        /// A client whose execute must never be reached.
        #[derive(Debug)]
        struct NoWire;
        impl SparseShardClient for NoWire {
            fn shard_id(&self) -> ShardId {
                ShardId(0)
            }
            fn execute(&self, _request: &ShardRequest) -> Result<ShardResponse, RpcError> {
                panic!("fully-cached op must not touch the transport")
            }
        }
        let table = test_table(8, 2);
        let mut ws = Workspace::new();
        ws.put("in", Blob::Sparse(SparseInput::new(vec![1, 2, 2], vec![1, 2])));
        let mut op = SparseRpc::new("rpc", NetId(0), Arc::new(NoWire), vec![dim2_fetch()]);
        op.set_cache(cache_for(&table, vec![1, 2]));
        let outcome = op.begin(&ws).unwrap().collect(&mut ws).unwrap();
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
        let outcome = op.begin(&ws).unwrap().collect(&mut ws).unwrap();
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
        let (request, split) = op.build_request_and_split(&ws).unwrap();
        let split = split.expect("table 0 has a hot set");
        assert_eq!(split.remote_fetches, vec![1]);
        assert_eq!(request.slices.len(), 1);
        let pure = op.build_request(&ws).unwrap();
        assert_eq!(request.slices[0], pure.slices[1], "uncached slice unchanged");
        // Uncached-table bags are not counted as misses.
        assert_eq!((split.hits, split.misses), (1, 0));
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
    fn payload_bytes_accounting() {
        let req = ShardRequest {
            net: NetId(0),
            slices: vec![TableSlice {
                table: TableId(0),
                indices: vec![1, 2, 3],
                lengths: vec![3],
            }],
        };
        assert_eq!(req.total_lookups(), 3);
        assert_eq!(req.payload_bytes(), 3 * 8 + 4);
    }
}
