//! Caffe2-style dataflow graph: workspace of named blobs, operator
//! lists, and two executors with timing hooks.
//!
//! Operators within a net execute sequentially ("operators are scheduled
//! to execute sequentially — unless specifically asynchronous like the
//! RPC ops — because other cores are utilized via request- and
//! batch-level parallelism", §IV-A). The sharding partitioner rewrites
//! these nets, so the representation is deliberately concrete: a vector
//! of boxed [`Operator`]s reading and writing named [`Blob`]s.
//!
//! Two execution modes realize §IV-A's scheduling rule:
//!
//! - [`NetDef::run`] is the strictly sequential executor (every operator
//!   blocks until done): the oracle the overlap properties compare
//!   [`Schedule::walk`] against, bit for bit.
//! - [`Schedule`] is the overlap plan, compiled once per model from the
//!   operators' declared [`Operator::inputs`] / [`Operator::outputs`]:
//!   operators that expose an asynchronous issue/collect form
//!   ([`AsyncOperator`], i.e. the RPC ops) are *issued* at the earliest
//!   step their inputs are ready — across nets, so an RPC that reads
//!   only request inputs leaves at step 0 — synchronous operators run in
//!   list order while those RPCs are in flight, and a completion is
//!   *collected* only in front of the first operator that reads one of
//!   its outputs. [`Schedule::walk`] executes the plan per request with
//!   no readiness bookkeeping of its own.
//!
//! A graph whose declarations cannot be scheduled (an input nothing
//! produces) fails to compile; that is the model-construction check.

use crate::spec::{ModelSpec, OpGroup};
use dlrm_runtime::{Pool, RuntimeCtx};
use dlrm_tensor::Matrix;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// A sparse feature input: Caffe2's (indices, lengths) encoding.
///
/// `lengths[b]` consecutive entries of `indices` belong to batch
/// element `b`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SparseInput {
    /// Flat embedding-row indices.
    pub indices: Vec<u64>,
    /// Per-batch-element index counts.
    pub lengths: Vec<u32>,
}

impl SparseInput {
    /// Creates a sparse input, checking the encoding invariant.
    ///
    /// # Panics
    ///
    /// Panics if `lengths` does not exactly cover `indices`.
    #[must_use]
    pub fn new(indices: Vec<u64>, lengths: Vec<u32>) -> Self {
        let total: usize = lengths.iter().map(|&l| l as usize).sum();
        assert_eq!(total, indices.len(), "lengths must cover indices exactly");
        Self { indices, lengths }
    }

    /// Number of batch elements.
    #[must_use]
    pub fn batch_size(&self) -> usize {
        self.lengths.len()
    }

    /// Total number of lookups.
    #[must_use]
    pub fn num_lookups(&self) -> usize {
        self.indices.len()
    }
}

/// A value in the workspace: dense activations or sparse inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum Blob {
    /// Dense `batch × features` activations.
    Dense(Matrix),
    /// Sparse feature indices for an embedding lookup.
    Sparse(SparseInput),
}

/// Errors raised during graph execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An operator read a blob that no prior operator produced.
    MissingBlob {
        /// The missing blob's name.
        blob: String,
        /// The operator that needed it.
        op: String,
    },
    /// A blob existed but held the wrong variant.
    TypeMismatch {
        /// The offending blob's name.
        blob: String,
        /// What the operator expected ("dense" / "sparse").
        expected: &'static str,
    },
    /// An operator-specific failure (shape mismatch, bad index…).
    OpFailed {
        /// The failing operator.
        op: String,
        /// Failure description.
        message: String,
    },
    /// The graph cannot be scheduled. At compile ([`Schedule::compile`]):
    /// an operator declares an input that no earlier operator produces
    /// and no external load provides, or nothing produces the output
    /// blob. At run ([`Schedule::walk`]): the nets were edited after
    /// their schedule was compiled.
    InvalidGraph {
        /// The operator (or net) at fault.
        op: String,
        /// What is wrong with it.
        message: String,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::MissingBlob { blob, op } => {
                write!(f, "operator {op} read missing blob {blob}")
            }
            GraphError::TypeMismatch { blob, expected } => {
                write!(f, "blob {blob} is not {expected}")
            }
            GraphError::OpFailed { op, message } => write!(f, "operator {op} failed: {message}"),
            GraphError::InvalidGraph { op, message } => {
                write!(f, "invalid graph: {op} {message}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// The blob store shared by all nets of one inference.
///
/// A workspace outlives its batches: [`Self::recycle_all`] empties every
/// blob into the context's pools but keeps the names, so a serving
/// worker that reuses its workspace puts and reads the same blob names
/// batch after batch without allocating a key.
///
/// # Examples
///
/// ```
/// use dlrm_model::{Blob, Workspace};
/// use dlrm_tensor::Matrix;
///
/// let mut ws = Workspace::new();
/// ws.put("x", Blob::Dense(Matrix::zeros(2, 3)));
/// assert_eq!(ws.dense("x", "caller").unwrap().rows(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// Every name ever put, holding its blob or, once taken or
    /// recycled, nothing.
    blobs: HashMap<String, Option<Blob>>,
    ctx: RuntimeCtx,
    /// Static consumer counts (reads per blob across all nets, plus one
    /// for the model output): the oracle [`Self::take_dense`] consults
    /// to decide move-vs-copy. [`Schedule::walk`] installs its model's;
    /// empty (the default) means "unknown", so every take copies.
    consumers: Arc<HashMap<String, usize>>,
}

impl Workspace {
    /// Creates an empty workspace with a sequential, buffer-pooled
    /// runtime context.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty workspace executing on `ctx` — its fork-join
    /// pool parallelizes the kernels, and its (shared, `Arc`ed) buffer
    /// pools supply dense outputs and sparse vectors, so workspaces
    /// built from clones of one context recycle each other's backing
    /// stores.
    #[must_use]
    pub fn with_ctx(ctx: RuntimeCtx) -> Self {
        Self {
            blobs: HashMap::new(),
            ctx,
            consumers: Arc::default(),
        }
    }

    /// The runtime context this workspace executes on.
    #[must_use]
    pub fn ctx(&self) -> &RuntimeCtx {
        &self.ctx
    }

    /// The fork-join pool operators parallelize their kernels on.
    #[must_use]
    pub fn pool(&self) -> &Pool {
        &self.ctx.pool
    }

    /// Installs static consumer counts for [`Self::take_dense`].
    /// [`Schedule::walk`] installs its own on every run, so this is kept
    /// only for the benchmark's pinned calls (ROADMAP 4 (a) deletes it).
    pub fn set_consumer_counts(&mut self, counts: Arc<HashMap<String, usize>>) {
        self.consumers = counts;
    }

    /// Inserts or replaces a blob. A replaced blob's backing stores are
    /// recycled into the context's pools, and a name put before (in
    /// this batch or an earlier one) is not allocated again.
    pub fn put<N: AsRef<str> + Into<String>>(&mut self, name: N, blob: Blob) {
        let old = match self.blobs.get_mut(name.as_ref()) {
            Some(slot) => slot.replace(blob),
            None => self.blobs.insert(name.into(), Some(blob)).flatten(),
        };
        if let Some(old) = old {
            recycle(&self.ctx, old);
        }
    }

    /// A zeroed `rows × cols` dense matrix drawn from the context's
    /// recycled-buffer pool (a fresh allocation only when no recycled
    /// store fits).
    #[must_use]
    pub fn alloc_dense(&self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, self.ctx.buffers.acquire(rows * cols))
    }

    /// Whether the installed consumer counts prove `name` has exactly
    /// one reader.
    fn sole_reader(&self, name: &str) -> bool {
        self.consumers.get(name).is_some_and(|&c| c == 1)
    }

    /// Fetches a dense blob *by value*: when the installed consumer
    /// counts prove this operator is the blob's only reader, the blob is
    /// moved out of the workspace (no copy); otherwise — including when
    /// no counts are installed — it is copied into a pooled allocation.
    /// This is what lets ReLU/Sigmoid run truly in place on the
    /// single-consumer chains of an MLP stack.
    ///
    /// # Errors
    ///
    /// [`GraphError::MissingBlob`] or [`GraphError::TypeMismatch`].
    pub fn take_dense(&mut self, name: &str, op: &str) -> Result<Matrix, GraphError> {
        let src = self.dense(name, op)?;
        if !self.sole_reader(name) {
            let mut copy = self.alloc_dense(src.rows(), src.cols());
            copy.as_mut_slice().copy_from_slice(src.as_slice());
            return Ok(copy);
        }
        match self.blobs.get_mut(name).and_then(Option::take) {
            Some(Blob::Dense(m)) => Ok(m),
            _ => unreachable!("dense() found a dense blob"),
        }
    }

    /// Empties every blob, recycling dense backing stores and sparse
    /// index and length vectors into the context's pools; the names
    /// stay, so the next batch's puts allocate no key. Serving workers
    /// call this between batches so the next batch reuses this one's
    /// allocations.
    pub fn recycle_all(&mut self) {
        for blob in self.blobs.values_mut().filter_map(Option::take) {
            recycle(&self.ctx, blob);
        }
    }

    /// Fetches any blob.
    pub fn blob(&self, name: &str) -> Option<&Blob> {
        self.blobs.get(name).and_then(Option::as_ref)
    }

    /// Fetches a dense blob, attributing failures to operator `op`.
    ///
    /// # Errors
    ///
    /// [`GraphError::MissingBlob`] or [`GraphError::TypeMismatch`].
    pub fn dense(&self, name: &str, op: &str) -> Result<&Matrix, GraphError> {
        match self.blob(name) {
            Some(Blob::Dense(m)) => Ok(m),
            Some(_) => Err(GraphError::TypeMismatch {
                blob: name.into(),
                expected: "dense",
            }),
            None => Err(GraphError::MissingBlob {
                blob: name.into(),
                op: op.into(),
            }),
        }
    }

    /// Fetches a sparse blob, attributing failures to operator `op`.
    ///
    /// # Errors
    ///
    /// [`GraphError::MissingBlob`] or [`GraphError::TypeMismatch`].
    pub fn sparse(&self, name: &str, op: &str) -> Result<&SparseInput, GraphError> {
        match self.blob(name) {
            Some(Blob::Sparse(s)) => Ok(s),
            Some(_) => Err(GraphError::TypeMismatch {
                blob: name.into(),
                expected: "sparse",
            }),
            None => Err(GraphError::MissingBlob {
                blob: name.into(),
                op: op.into(),
            }),
        }
    }

    /// Number of stored blobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blobs.values().filter(|b| b.is_some()).count()
    }

    /// Whether the workspace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Hands a blob's backing stores to `ctx`'s pools.
fn recycle(ctx: &RuntimeCtx, blob: Blob) {
    match blob {
        Blob::Dense(m) => ctx.buffers.release(m.into_vec()),
        Blob::Sparse(s) => {
            ctx.indices.release(s.indices);
            ctx.lengths.release(s.lengths);
        }
    }
}

/// A graph operator: reads named blobs, writes named blobs.
///
/// Every operator is `Clone`, and a clone shares the operator's
/// parameters (FC weights, tables and shard clients sit behind `Arc`):
/// cloning a [`NetDef`] copies its wiring, not its weights.
pub trait Operator: CloneOperator + std::fmt::Debug + Send + Sync {
    /// Unique (within the net) operator name.
    fn name(&self) -> &str;
    /// Attribution group for compute breakdowns (Fig. 4).
    fn group(&self) -> OpGroup;
    /// Blob names read.
    fn inputs(&self) -> Vec<String>;
    /// Blob names written.
    fn outputs(&self) -> Vec<String>;
    /// Executes the operator against the workspace.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] when inputs are missing, mistyped, or
    /// shape-inconsistent.
    fn run(&self, ws: &mut Workspace) -> Result<(), GraphError>;

    /// Downcast hook for the sharding partitioner: returns `Some` when
    /// this operator is a [`crate::ops::SparseLengthsSum`], the operator
    /// family relocated to sparse shards. Default: `None`.
    fn as_sparse_lengths_sum(&self) -> Option<&crate::ops::SparseLengthsSum> {
        None
    }

    /// Downcast hook for weight inspection (tests recompute a forward
    /// pass from the unpacked weights): `Some` when this operator is a
    /// [`crate::ops::FullyConnected`]. Default: `None`.
    fn as_fully_connected(&self) -> Option<&crate::ops::FullyConnected> {
        None
    }

    /// The asynchronous (issue/collect) form of this operator, when it
    /// has one. RPC operators return `Some`; purely local compute is
    /// synchronous and returns `None` (the default), so the scheduler
    /// runs it via [`Operator::run`] in list order.
    fn as_async(&self) -> Option<&dyn AsyncOperator> {
        None
    }

    /// Mutable downcast hook for post-construction configuration (e.g.
    /// the serving layer injecting a retry/hedge policy into RPC
    /// operators after partitioning). Operators with no mutable
    /// configuration return `None` (the default).
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

/// The object-safe form of `Clone` for operators, implemented for every
/// `Clone` one.
pub trait CloneOperator {
    /// A boxed clone of this operator.
    fn clone_box(&self) -> Box<dyn Operator>;
}

impl<T: Operator + Clone + 'static> CloneOperator for T {
    fn clone_box(&self) -> Box<dyn Operator> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Operator> {
    fn clone(&self) -> Self {
        (**self).clone_box()
    }
}

/// An operator that can split execution into a non-blocking *issue*
/// (read inputs, fire the remote call) and a deferred *collect* (wait
/// for the reply, write outputs) — the paper's asynchronous RPC ops
/// (§IV-A). A [`Schedule`] issues each one as soon as its inputs are
/// ready and collects it only when its outputs are demanded, overlapping
/// all in-flight calls with local compute.
pub trait AsyncOperator {
    /// Reads this operator's inputs from the workspace and starts the
    /// operation without waiting for it, returning the pending handle.
    /// The workspace is `&mut` so an operator that is an input's only
    /// reader can move it out instead of copying it.
    ///
    /// # Errors
    ///
    /// Propagates missing/mistyped input blobs. Failures of the
    /// remote call — a failed send included — settle in
    /// [`PendingOp::collect`], which reports them with the outcome.
    fn issue(&self, ws: &mut Workspace) -> Result<Box<dyn PendingOp>, GraphError>;
}

/// An issued asynchronous operation whose outputs have not been
/// collected yet. Dropping a pending operation abandons it (the remote
/// side completes; the reply is discarded).
pub trait PendingOp: Send {
    /// Waits for the operation to settle and writes its output blobs.
    /// Returns what it took to settle — every attempt, failed ones
    /// included — beside the result: an `Err` for a remote failure the
    /// operation could not absorb or a malformed response.
    fn collect(self: Box<Self>, ws: &mut Workspace) -> (RpcOutcome, Result<(), GraphError>);
}

/// What role one transmission played in settling an asynchronous
/// operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcAttemptKind {
    /// The first transmission.
    Primary,
    /// A re-transmission after a failed or timed-out attempt.
    Retry,
    /// A duplicate transmission racing a straggler (first reply wins).
    Hedge,
}

/// One transmission of an asynchronous operation: its wall-clock window
/// and how it ended.
#[derive(Debug, Clone)]
pub struct RpcAttempt {
    /// Role of this transmission.
    pub kind: RpcAttemptKind,
    /// When the attempt was handed to the transport.
    pub issued_at: Instant,
    /// When the attempt settled: reply consumed, error observed, or
    /// abandoned (a losing hedge, a timed-out attempt).
    pub settled_at: Instant,
    /// Whether this attempt's reply was the one used.
    pub winner: bool,
    /// The error that ended the attempt, when it did not win
    /// (`None` for the winner and for abandoned still-healthy hedges).
    pub error: Option<String>,
}

/// How an asynchronous operation settled: every transmission it took,
/// and whether the output is real, a degraded fallback or missing (the
/// operation failed). Forwarded to [`ExecutionObserver::on_rpc`] by the
/// overlap scheduler so serving layers can count retries/hedges, trace
/// attempt windows and name a failure's cause.
#[derive(Debug, Clone, Default)]
pub struct RpcOutcome {
    /// Every transmission, in issue order (empty when nothing was sent).
    pub attempts: Vec<RpcAttempt>,
    /// Re-transmissions after failure/timeout.
    pub retries: u32,
    /// Duplicate transmissions racing stragglers.
    pub hedges: u32,
    /// Whether the operation exhausted its attempts and substituted a
    /// degraded fallback output instead of failing.
    pub degraded: bool,
    /// Classification of the terminal error (e.g. "timeout",
    /// "transport") when the operation degraded or, with `degraded`
    /// false, failed.
    pub error_kind: Option<&'static str>,
    /// Bags pooled entirely from the main shard's hot-row cache
    /// (no wire traffic for them).
    pub cache_hits: u64,
    /// Bags with at least one cold row, sent to the shard whole.
    pub cache_misses: u64,
    /// Row lookups served from the hot-row cache instead of the wire.
    pub cache_local_rows: u64,
}

/// Observes operator execution; used for the real engine's per-group
/// compute attribution and RPC tracing.
pub trait ExecutionObserver {
    /// Called after each operator run to completion in one call, with
    /// its measured wall time: under [`Schedule::walk`] every operator
    /// without an asynchronous form, under the sequential
    /// [`NetDef::run`] every operator.
    fn on_op(&mut self, net: &str, op: &dyn Operator, elapsed_secs: f64);

    /// Called once per asynchronous operator [`Schedule::walk`] issued,
    /// when it is collected — settled, degraded or failed alike:
    /// `issued_at..collected_at` is the outstanding window (issue to
    /// response consumed, or to the failure), and `outcome` every
    /// transmission it took. Default: ignored.
    fn on_rpc(
        &mut self,
        _net: &str,
        _op: &dyn Operator,
        _issued_at: Instant,
        _collected_at: Instant,
        _outcome: &RpcOutcome,
    ) {
    }
}

/// Observer that ignores everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopObserver;

impl ExecutionObserver for NoopObserver {
    fn on_op(&mut self, _net: &str, _op: &dyn Operator, _elapsed_secs: f64) {}
}

/// Observer accumulating wall time per [`OpGroup`].
#[derive(Debug, Default, Clone)]
pub struct GroupTimingObserver {
    totals: HashMap<OpGroup, f64>,
}

impl GroupTimingObserver {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Seconds accumulated for `group`.
    #[must_use]
    pub fn seconds(&self, group: OpGroup) -> f64 {
        self.totals.get(&group).copied().unwrap_or(0.0)
    }

    /// Total seconds across all groups.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.totals.values().sum()
    }

    /// Fraction of total time spent in `group` (0 when nothing ran).
    #[must_use]
    pub fn fraction(&self, group: OpGroup) -> f64 {
        let total = self.total_seconds();
        if total == 0.0 {
            0.0
        } else {
            self.seconds(group) / total
        }
    }
}

impl ExecutionObserver for GroupTimingObserver {
    fn on_op(&mut self, _net: &str, op: &dyn Operator, elapsed_secs: f64) {
        *self.totals.entry(op.group()).or_insert(0.0) += elapsed_secs;
    }
}

/// An ordered list of operators — Caffe2's `NetDef`.
#[derive(Debug, Clone)]
pub struct NetDef {
    name: String,
    ops: Vec<Box<dyn Operator>>,
}

impl NetDef {
    /// Creates an empty net.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ops: Vec::new(),
        }
    }

    /// Net name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends an operator.
    pub fn push(&mut self, op: Box<dyn Operator>) {
        self.ops.push(op);
    }

    /// The operators, in execution order.
    #[must_use]
    pub fn ops(&self) -> &[Box<dyn Operator>] {
        &self.ops
    }

    /// Mutable access to the operators, for post-construction
    /// configuration via [`Operator::as_any_mut`].
    pub fn ops_mut(&mut self) -> &mut [Box<dyn Operator>] {
        &mut self.ops
    }

    /// Replaces the operator list (used by the partitioner).
    pub fn set_ops(&mut self, ops: Vec<Box<dyn Operator>>) {
        self.ops = ops;
    }

    /// Consumes the net, yielding its operators (used by the
    /// partitioner, which moves non-sparse operators into the rewritten
    /// main-shard net).
    #[must_use]
    pub fn into_ops(self) -> Vec<Box<dyn Operator>> {
        self.ops
    }

    /// Runs every operator in order.
    ///
    /// # Errors
    ///
    /// Propagates the first operator failure.
    pub fn run(
        &self,
        ws: &mut Workspace,
        observer: &mut dyn ExecutionObserver,
    ) -> Result<(), GraphError> {
        for op in &self.ops {
            let start = Instant::now();
            op.run(ws)?;
            observer.on_op(&self.name, op.as_ref(), start.elapsed().as_secs_f64());
        }
        Ok(())
    }
}

/// One step of a [`Schedule`]. The operand is the operator's position
/// in the concatenation of all nets' operator lists, in net order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Start an asynchronous operator without waiting for it.
    Issue(usize),
    /// Run a synchronous operator to completion.
    Run(usize),
    /// Wait for an issued operator and write its outputs.
    Collect(usize),
}

/// The overlap plan of a model's nets, compiled once at construction and
/// walked per request (§IV-A: every shard request leaves before dense
/// compute blocks on any of them).
///
/// Blob values are bit-identical to running the nets with
/// [`NetDef::run`]: each operator computes the same function on the same
/// inputs and every blob is written by exactly one operator, so only
/// *when* an asynchronous operator's outputs land differs.
#[derive(Debug)]
pub struct Schedule {
    steps: Vec<Step>,
    /// `(net index, op index)` of each operator a step names, so a walk
    /// finds it without listing the nets; another operator count at
    /// walk means the nets were edited since.
    locations: Vec<(usize, usize)>,
    /// Readers of each blob across all nets, plus one for the output
    /// blob (the caller's fetch): a blob read once is moved to its
    /// reader, not copied ([`Workspace::take_dense`]).
    consumers: Arc<HashMap<String, usize>>,
}

impl Schedule {
    /// Compiles the plan for `nets` executed in order, with `external`
    /// the blobs loaded from outside the graph. Repeatedly: every
    /// not-yet-issued [`AsyncOperator`] — of any net — whose declared
    /// inputs are all ready is issued; then the earliest unstarted
    /// operator has the in-flight producers of its missing inputs
    /// collected and, when synchronous, runs. In-flight operators nobody
    /// reads are collected last, in list order.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidGraph`] naming the first operator with an
    /// input that neither `external` nor an earlier operator provides,
    /// or `output_blob` when nothing produces it.
    pub fn compile(
        nets: &[NetDef],
        external: HashSet<String>,
        output_blob: &str,
    ) -> Result<Self, GraphError> {
        let unproduced = |op: &str, blob: &str| GraphError::InvalidGraph {
            op: op.to_string(),
            message: format!("reads {blob}, which nothing before it produces or loads"),
        };
        // Every operator in execution order, beside where it sits.
        let (locations, ops): (Vec<_>, Vec<&dyn Operator>) = (nets.iter().enumerate())
            .flat_map(|(n, net)| {
                net.ops().iter().enumerate().map(move |(o, op)| ((n, o), op.as_ref()))
            })
            .unzip();
        let mut consumers: HashMap<String, usize> = HashMap::new();
        for input in ops.iter().flat_map(|op| op.inputs()) {
            *consumers.entry(input).or_insert(0) += 1;
        }
        *consumers.entry(output_blob.to_string()).or_insert(0) += 1;
        let mut ready = external;
        // Which issued, uncollected operator owes each not-yet-ready blob.
        let mut owed: HashMap<String, usize> = HashMap::new();
        let mut started = vec![false; ops.len()];
        let mut steps = Vec::new();
        while let Some(next) = started.iter().position(|&s| !s) {
            for (i, op) in ops.iter().enumerate() {
                let inputs_ready = || op.inputs().iter().all(|b| ready.contains(b));
                if !started[i] && op.as_async().is_some() && inputs_ready() {
                    steps.push(Step::Issue(i));
                    started[i] = true;
                    owed.extend(op.outputs().into_iter().map(|out| (out, i)));
                }
            }
            if started[next] {
                continue;
            }
            let op = ops[next];
            for input in op.inputs() {
                if ready.contains(&input) {
                    continue;
                }
                let Some(&producer) = owed.get(&input) else {
                    return Err(unproduced(op.name(), &input));
                };
                steps.push(Step::Collect(producer));
                for out in ops[producer].outputs() {
                    owed.remove(&out);
                    ready.insert(out);
                }
            }
            // An asynchronous operator's inputs are ready now: the next
            // pass issues it.
            if op.as_async().is_none() {
                steps.push(Step::Run(next));
                started[next] = true;
                ready.extend(op.outputs());
            }
        }
        if !ready.contains(output_blob) && !owed.contains_key(output_blob) {
            return Err(unproduced("model-output", output_blob));
        }
        let leftover: BTreeSet<usize> = owed.into_values().collect();
        steps.extend(leftover.into_iter().map(Step::Collect));
        Ok(Self {
            steps,
            locations,
            consumers: Arc::new(consumers),
        })
    }

    /// The compiled steps, in execution order.
    #[must_use]
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Readers of each blob across the nets, plus one for the output
    /// blob; the counts [`Self::walk`] installs.
    #[must_use]
    pub fn consumers(&self) -> &Arc<HashMap<String, usize>> {
        &self.consumers
    }

    /// Executes the plan over `nets` — the nets it was compiled from —
    /// on `ws` with this plan's consumer counts installed, so every
    /// single-reader blob moves to its reader.
    /// Observer callbacks carry the name of each operator's own net, and
    /// every collected asynchronous operator reaches
    /// [`ExecutionObserver::on_rpc`], a failed one before its error
    /// propagates.
    ///
    /// # Errors
    ///
    /// Propagates the first operator failure; operators still in flight
    /// at that point are abandoned (their replies are discarded).
    /// [`GraphError::InvalidGraph`] when the nets gained, lost or
    /// swapped operators since compile — nothing runs out of order.
    pub fn walk(
        &self,
        nets: &[NetDef],
        ws: &mut Workspace,
        observer: &mut dyn ExecutionObserver,
    ) -> Result<(), GraphError> {
        let edited = |op: &str| GraphError::InvalidGraph {
            op: op.to_string(),
            message: "was added, removed or replaced after the schedule was compiled".into(),
        };
        if nets.iter().map(|net| net.ops().len()).sum::<usize>() != self.locations.len() {
            return Err(edited("an operator"));
        }
        ws.consumers = Arc::clone(&self.consumers);
        // Per issued, uncollected operator: its handle and when it was
        // issued.
        let mut in_flight: Vec<_> = self.locations.iter().map(|_| None).collect();
        for &step in &self.steps {
            let (Step::Issue(i) | Step::Run(i) | Step::Collect(i)) = step;
            let (n, o) = self.locations[i];
            let net = nets.get(n).filter(|net| o < net.ops().len()).ok_or_else(|| edited("a net"))?;
            let op = net.ops()[o].as_ref();
            match step {
                Step::Issue(_) => {
                    let async_op = op.as_async().ok_or_else(|| edited(op.name()))?;
                    let issued_at = Instant::now();
                    in_flight[i] = Some((async_op.issue(ws)?, issued_at));
                }
                Step::Run(_) => {
                    let start = Instant::now();
                    op.run(ws)?;
                    observer.on_op(net.name(), op, start.elapsed().as_secs_f64());
                }
                Step::Collect(_) => {
                    let (pending, issued_at) = in_flight[i]
                        .take()
                        .expect("compile emits each Collect after its Issue, once");
                    let (outcome, result) = pending.collect(ws);
                    observer.on_rpc(net.name(), op, issued_at, Instant::now(), &outcome);
                    result?;
                }
            }
        }
        Ok(())
    }
}

/// A complete executable model: its spec, its nets in execution order,
/// and the materialized embedding tables the sparse operators reference.
#[derive(Debug)]
pub struct Model {
    /// The static description this model was built from.
    pub spec: ModelSpec,
    /// Nets in execution order (RM1/RM2: user net then content net).
    pub nets: Vec<NetDef>,
    /// Materialized tables, indexed by [`crate::TableId`]; shared with
    /// shard services after partitioning.
    pub tables: Vec<Arc<crate::EmbeddingTable>>,
    /// Name of the blob holding the final prediction.
    pub output_blob: String,
    /// The overlap plan of `nets`, compiled by the builder.
    pub(crate) schedule: Schedule,
}

impl Model {
    /// Walks the compiled plan ([`Schedule::walk`]; with no asynchronous
    /// operator, every operator in list order) and returns the final
    /// prediction (`batch × 1`, sigmoid output).
    ///
    /// # Errors
    ///
    /// Propagates the first operator failure (typically a missing input
    /// blob when the caller under-populated the workspace).
    pub fn run(
        &self,
        ws: &mut Workspace,
        observer: &mut dyn ExecutionObserver,
    ) -> Result<Matrix, GraphError> {
        self.schedule.walk(&self.nets, ws, observer)?;
        ws.take_dense(&self.output_blob, "model-output")
    }

    /// A copy of the compiled plan's consumer counts
    /// ([`Schedule::consumers`]); kept only for the benchmark's pinned
    /// calls (ROADMAP 4 (a) deletes it).
    #[must_use]
    pub fn consumer_counts(&self) -> HashMap<String, usize> {
        (**self.schedule.consumers()).clone()
    }
}

/// The blobs loaded into the workspace from outside the graph (the
/// builder's naming convention): the dense-feature matrix plus one
/// sparse input per table. These are ready at step 0 of a [`Schedule`].
#[must_use]
pub fn external_input_blobs(spec: &ModelSpec) -> HashSet<String> {
    let mut blobs: HashSet<String> = spec
        .tables
        .iter()
        .map(crate::builder::blobs::sparse_input)
        .collect();
    blobs.insert(crate::builder::blobs::DENSE_INPUT.to_string());
    blobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone)]
    struct AddOne {
        input: String,
        output: String,
    }

    impl Operator for AddOne {
        fn name(&self) -> &str {
            "add_one"
        }
        fn group(&self) -> OpGroup {
            OpGroup::Other
        }
        fn inputs(&self) -> Vec<String> {
            vec![self.input.clone()]
        }
        fn outputs(&self) -> Vec<String> {
            vec![self.output.clone()]
        }
        fn run(&self, ws: &mut Workspace) -> Result<(), GraphError> {
            let mut m = ws.dense(&self.input, self.name())?.clone();
            m.map_inplace(|v| v + 1.0);
            ws.put(self.output.clone(), Blob::Dense(m));
            Ok(())
        }
    }

    #[test]
    fn net_runs_ops_in_order() {
        let mut net = NetDef::new("n");
        net.push(Box::new(AddOne {
            input: "x".into(),
            output: "y".into(),
        }));
        net.push(Box::new(AddOne {
            input: "y".into(),
            output: "z".into(),
        }));
        let mut ws = Workspace::new();
        ws.put("x", Blob::Dense(Matrix::zeros(1, 1)));
        net.run(&mut ws, &mut NoopObserver).unwrap();
        assert_eq!(ws.dense("z", "test").unwrap().get(0, 0), 2.0);
    }

    #[test]
    fn missing_blob_is_reported_with_op() {
        let mut net = NetDef::new("n");
        net.push(Box::new(AddOne {
            input: "nope".into(),
            output: "y".into(),
        }));
        let mut ws = Workspace::new();
        let err = net.run(&mut ws, &mut NoopObserver).unwrap_err();
        assert_eq!(
            err,
            GraphError::MissingBlob {
                blob: "nope".into(),
                op: "add_one".into()
            }
        );
    }

    #[test]
    fn type_mismatch_detected() {
        let mut ws = Workspace::new();
        ws.put("s", Blob::Sparse(SparseInput::new(vec![], vec![])));
        let err = ws.dense("s", "op").unwrap_err();
        assert!(matches!(err, GraphError::TypeMismatch { .. }));
    }

    #[test]
    fn timing_observer_accumulates_fractions() {
        let mut net = NetDef::new("n");
        net.push(Box::new(AddOne {
            input: "x".into(),
            output: "y".into(),
        }));
        let mut ws = Workspace::new();
        ws.put("x", Blob::Dense(Matrix::zeros(8, 8)));
        let mut obs = GroupTimingObserver::new();
        net.run(&mut ws, &mut obs).unwrap();
        assert!(obs.total_seconds() > 0.0);
        assert_eq!(obs.fraction(OpGroup::Other), 1.0);
        assert_eq!(obs.fraction(OpGroup::Fc), 0.0);
    }

    #[test]
    fn sparse_input_invariant_enforced() {
        let s = SparseInput::new(vec![1, 2, 3], vec![1, 2]);
        assert_eq!(s.batch_size(), 2);
        assert_eq!(s.num_lookups(), 3);
    }

    #[test]
    #[should_panic(expected = "cover indices")]
    fn sparse_input_bad_lengths_panics() {
        let _ = SparseInput::new(vec![1], vec![3]);
    }

    use std::sync::Mutex;

    type EventLog = Arc<Mutex<Vec<String>>>;

    fn log(events: &EventLog, entry: impl Into<String>) {
        events.lock().unwrap().push(entry.into());
    }

    /// A synchronous op that records its execution in the event log.
    #[derive(Debug, Clone)]
    struct LoggedAddOne {
        inner: AddOne,
        name: String,
        events: EventLog,
    }

    impl Operator for LoggedAddOne {
        fn name(&self) -> &str {
            &self.name
        }
        fn group(&self) -> OpGroup {
            OpGroup::Other
        }
        fn inputs(&self) -> Vec<String> {
            self.inner.inputs()
        }
        fn outputs(&self) -> Vec<String> {
            self.inner.outputs()
        }
        fn run(&self, ws: &mut Workspace) -> Result<(), GraphError> {
            log(&self.events, format!("run:{}", self.name));
            self.inner.run(ws)
        }
    }

    /// A fake RPC op: issue reads the input, collect writes input + 10.
    #[derive(Debug, Clone)]
    struct TestRpc {
        name: String,
        input: String,
        output: String,
        events: EventLog,
        fail_at_issue: bool,
        fail_at_collect: bool,
    }

    impl TestRpc {
        fn new(name: &str, input: &str, output: &str, events: &EventLog) -> Self {
            Self {
                name: name.into(),
                input: input.into(),
                output: output.into(),
                events: Arc::clone(events),
                fail_at_issue: false,
                fail_at_collect: false,
            }
        }
    }

    impl Operator for TestRpc {
        fn name(&self) -> &str {
            &self.name
        }
        fn group(&self) -> OpGroup {
            OpGroup::Sls
        }
        fn inputs(&self) -> Vec<String> {
            vec![self.input.clone()]
        }
        fn outputs(&self) -> Vec<String> {
            vec![self.output.clone()]
        }
        fn run(&self, ws: &mut Workspace) -> Result<(), GraphError> {
            AsyncOperator::issue(self, ws)?.collect(ws).1
        }
        fn as_async(&self) -> Option<&dyn AsyncOperator> {
            Some(self)
        }
    }

    impl AsyncOperator for TestRpc {
        fn issue(&self, ws: &mut Workspace) -> Result<Box<dyn PendingOp>, GraphError> {
            log(&self.events, format!("issue:{}", self.name));
            if self.fail_at_issue {
                return Err(GraphError::OpFailed {
                    op: self.name.clone(),
                    message: "injected issue failure".into(),
                });
            }
            let mut m = ws.dense(&self.input, &self.name)?.clone();
            m.map_inplace(|v| v + 10.0);
            Ok(Box::new(TestPending {
                name: self.name.clone(),
                output: self.output.clone(),
                result: m,
                events: Arc::clone(&self.events),
                fail: self.fail_at_collect,
            }))
        }
    }

    struct TestPending {
        name: String,
        output: String,
        result: Matrix,
        events: EventLog,
        fail: bool,
    }

    impl PendingOp for TestPending {
        fn collect(self: Box<Self>, ws: &mut Workspace) -> (RpcOutcome, Result<(), GraphError>) {
            log(&self.events, format!("collect:{}", self.name));
            if self.fail {
                let err = GraphError::OpFailed {
                    op: self.name.clone(),
                    message: "injected collect failure".into(),
                };
                return (RpcOutcome::default(), Err(err));
            }
            ws.put(self.output, Blob::Dense(self.result));
            (RpcOutcome::default(), Ok(()))
        }
    }

    /// Compiles `nets` with "x" loaded from outside and `output` as the
    /// model's output blob.
    fn compile(nets: &[NetDef], output: &str) -> Result<Schedule, GraphError> {
        Schedule::compile(nets, ["x".to_string()].into(), output)
    }

    /// Compiles `net` and walks it.
    fn compile_and_walk(net: NetDef, output: &str, ws: &mut Workspace) -> Result<(), GraphError> {
        let nets = [net];
        compile(&nets, output)?.walk(&nets, ws, &mut NoopObserver)
    }

    fn logged_add_one(name: &str, input: &str, output: &str, events: &EventLog) -> LoggedAddOne {
        LoggedAddOne {
            inner: AddOne {
                input: input.into(),
                output: output.into(),
            },
            name: name.into(),
            events: Arc::clone(events),
        }
    }

    #[test]
    fn overlap_issues_every_ready_async_op_before_collecting() {
        let events: EventLog = Arc::default();
        let mut net = NetDef::new("n");
        net.push(Box::new(TestRpc::new("A", "x", "a", &events)));
        net.push(Box::new(TestRpc::new("B", "x", "b", &events)));
        net.push(Box::new(logged_add_one("C", "a", "c", &events)));
        net.push(Box::new(logged_add_one("D", "b", "d", &events)));
        let mut ws = Workspace::new();
        ws.put("x", Blob::Dense(Matrix::zeros(1, 1)));
        compile_and_walk(net, "d", &mut ws).unwrap();
        assert_eq!(
            *events.lock().unwrap(),
            vec!["issue:A", "issue:B", "collect:A", "run:C", "collect:B", "run:D"],
            "both RPCs must be in flight before either is collected"
        );
        assert_eq!(ws.dense("c", "t").unwrap().get(0, 0), 11.0);
        assert_eq!(ws.dense("d", "t").unwrap().get(0, 0), 11.0);
    }

    #[test]
    fn overlap_runs_sync_ops_while_rpcs_are_in_flight() {
        let events: EventLog = Arc::default();
        let mut net = NetDef::new("n");
        net.push(Box::new(TestRpc::new("A", "x", "a", &events)));
        net.push(Box::new(logged_add_one("S", "x", "s", &events)));
        net.push(Box::new(logged_add_one("C", "a", "c", &events)));
        let mut ws = Workspace::new();
        ws.put("x", Blob::Dense(Matrix::zeros(1, 1)));
        compile_and_walk(net, "c", &mut ws).unwrap();
        assert_eq!(
            *events.lock().unwrap(),
            vec!["issue:A", "run:S", "collect:A", "run:C"],
            "dense compute must run during the outstanding window; the \
             RPC is collected only when its output is demanded"
        );
    }

    #[test]
    fn overlap_handles_rpc_chains() {
        // B's input is produced by A: the scheduler must collect A
        // before it can issue B.
        let events: EventLog = Arc::default();
        let mut net = NetDef::new("n");
        net.push(Box::new(TestRpc::new("A", "x", "a", &events)));
        net.push(Box::new(TestRpc::new("B", "a", "b", &events)));
        let mut ws = Workspace::new();
        ws.put("x", Blob::Dense(Matrix::zeros(1, 1)));
        compile_and_walk(net, "b", &mut ws).unwrap();
        assert_eq!(
            *events.lock().unwrap(),
            vec!["issue:A", "collect:A", "issue:B", "collect:B"]
        );
        assert_eq!(ws.dense("b", "t").unwrap().get(0, 0), 20.0);
    }

    #[test]
    fn overlap_matches_sequential_bit_for_bit() {
        let events: EventLog = Arc::default();
        let build = |events: &EventLog| {
            let mut net = NetDef::new("n");
            net.push(Box::new(logged_add_one("pre", "x", "p", events)));
            net.push(Box::new(TestRpc::new("A", "p", "a", events)));
            net.push(Box::new(TestRpc::new("B", "x", "b", events)));
            net.push(Box::new(logged_add_one("C", "a", "c", events)));
            net.push(Box::new(logged_add_one("D", "b", "d", events)));
            net
        };
        let net = build(&events);
        let mut ws_seq = Workspace::new();
        ws_seq.put("x", Blob::Dense(Matrix::from_rows(&[&[1.5, -2.0]])));
        let mut ws_ovl = ws_seq.clone();
        net.run(&mut ws_seq, &mut NoopObserver).unwrap();
        compile_and_walk(net, "d", &mut ws_ovl).unwrap();
        for blob in ["p", "a", "b", "c", "d"] {
            assert_eq!(
                ws_seq.dense(blob, "t").unwrap(),
                ws_ovl.dense(blob, "t").unwrap(),
                "{blob}"
            );
        }
    }

    #[test]
    fn overlap_propagates_issue_failure() {
        let events: EventLog = Arc::default();
        let mut net = NetDef::new("n");
        let mut bad = TestRpc::new("bad", "x", "a", &events);
        bad.fail_at_issue = true;
        net.push(Box::new(bad));
        let mut ws = Workspace::new();
        ws.put("x", Blob::Dense(Matrix::zeros(1, 1)));
        let err = compile_and_walk(net, "a", &mut ws).unwrap_err();
        assert!(matches!(err, GraphError::OpFailed { .. }), "{err}");
    }

    #[test]
    fn overlap_propagates_collect_failure_with_others_in_flight() {
        // `bad` fails at collect while `ok` is still outstanding: the
        // error must propagate and the abandoned RPC must not hang.
        let events: EventLog = Arc::default();
        let mut net = NetDef::new("n");
        let mut bad = TestRpc::new("bad", "x", "a", &events);
        bad.fail_at_collect = true;
        net.push(Box::new(bad));
        net.push(Box::new(TestRpc::new("ok", "x", "b", &events)));
        net.push(Box::new(logged_add_one("C", "a", "c", &events)));
        let mut ws = Workspace::new();
        ws.put("x", Blob::Dense(Matrix::zeros(1, 1)));
        let err = compile_and_walk(net, "c", &mut ws).unwrap_err();
        assert_eq!(
            err,
            GraphError::OpFailed {
                op: "bad".into(),
                message: "injected collect failure".into()
            }
        );
        // Both were issued before the failing collect.
        assert_eq!(
            *events.lock().unwrap(),
            vec!["issue:bad", "issue:ok", "collect:bad"]
        );
    }

    #[test]
    fn overlap_reports_missing_blob_like_sequential() {
        // "x" is an external input the caller never loaded.
        let mut net = NetDef::new("n");
        net.push(Box::new(AddOne {
            input: "x".into(),
            output: "y".into(),
        }));
        let mut ws = Workspace::new();
        let err = compile_and_walk(net, "y", &mut ws).unwrap_err();
        assert_eq!(
            err,
            GraphError::MissingBlob {
                blob: "x".into(),
                op: "add_one".into()
            }
        );
    }

    #[test]
    fn overlap_observer_sees_each_rpc_once_and_sync_ops_as_ops() {
        #[derive(Default)]
        struct SpanObserver {
            rpcs: Vec<String>,
            ops: Vec<String>,
        }
        impl ExecutionObserver for SpanObserver {
            fn on_op(&mut self, _net: &str, op: &dyn Operator, _secs: f64) {
                self.ops.push(op.name().to_string());
            }
            fn on_rpc(
                &mut self,
                _net: &str,
                op: &dyn Operator,
                issued_at: Instant,
                collected_at: Instant,
                _outcome: &RpcOutcome,
            ) {
                assert!(issued_at <= collected_at);
                self.rpcs.push(op.name().to_string());
            }
        }
        let walk = |fail_at_collect: bool| {
            let events: EventLog = Arc::default();
            let mut net = NetDef::new("n");
            net.push(Box::new(logged_add_one("S", "x", "s", &events)));
            let mut rpc = TestRpc::new("A", "x", "a", &events);
            rpc.fail_at_collect = fail_at_collect;
            net.push(Box::new(rpc));
            net.push(Box::new(TestRpc::new("B", "x", "b", &events)));
            net.push(Box::new(logged_add_one("C", "a", "c", &events)));
            let mut ws = Workspace::new();
            ws.put("x", Blob::Dense(Matrix::zeros(1, 1)));
            let mut obs = SpanObserver::default();
            let nets = [net];
            let result = compile(&nets, "c").unwrap().walk(&nets, &mut ws, &mut obs);
            (result, obs)
        };
        let (result, obs) = walk(false);
        result.unwrap();
        assert_eq!(obs.rpcs, vec!["A", "B"], "on_rpc fires once per async op");
        assert_eq!(obs.ops, vec!["S", "C"], "on_op fires for synchronous ops only");
        // A failed collect is observed before its error propagates; the
        // RPC still in flight is abandoned unobserved.
        let (result, obs) = walk(true);
        assert!(matches!(result, Err(GraphError::OpFailed { .. })));
        assert_eq!(obs.rpcs, vec!["A"]);
        assert_eq!(obs.ops, vec!["S"]);
    }

    #[test]
    fn take_dense_clones_without_consumer_counts() {
        let mut ws = Workspace::new();
        ws.put("x", Blob::Dense(Matrix::from_rows(&[&[3.0]])));
        let taken = ws.take_dense("x", "op").unwrap();
        assert_eq!(taken.get(0, 0), 3.0);
        assert!(ws.blob("x").is_some(), "unknown counts must fall back to clone");
    }

    #[test]
    fn take_dense_moves_single_consumer_blobs() {
        let mut ws = Workspace::new();
        ws.set_consumer_counts(Arc::new(
            [("x".to_string(), 1), ("y".to_string(), 2)].into(),
        ));
        ws.put("x", Blob::Dense(Matrix::from_rows(&[&[3.0]])));
        ws.put("y", Blob::Dense(Matrix::from_rows(&[&[4.0]])));
        let _ = ws.take_dense("x", "op").unwrap();
        assert!(ws.blob("x").is_none(), "single-consumer blob must move out");
        let _ = ws.take_dense("y", "op").unwrap();
        assert!(ws.blob("y").is_some(), "multi-consumer blob must stay");
    }

    #[test]
    fn take_dense_preserves_mistyped_blob() {
        let mut ws = Workspace::new();
        ws.set_consumer_counts(Arc::new([("s".to_string(), 1)].into()));
        ws.put("s", Blob::Sparse(SparseInput::new(vec![], vec![])));
        let err = ws.take_dense("s", "op").unwrap_err();
        assert!(matches!(err, GraphError::TypeMismatch { .. }));
        assert!(ws.blob("s").is_some(), "mistyped blob must not be dropped");
    }

    #[test]
    fn put_and_recycle_feed_the_buffer_pool() {
        let mut ws = Workspace::new();
        ws.put("x", Blob::Dense(ws.alloc_dense(2, 2)));
        // Overwriting recycles the old store…
        ws.put("x", Blob::Dense(ws.alloc_dense(2, 2)));
        assert_eq!(ws.ctx().buffers.pooled_buffers(), 1);
        // …and draining recycles the rest.
        ws.recycle_all();
        assert!(ws.is_empty());
        assert_eq!(ws.ctx().buffers.pooled_buffers(), 2);
        let reuses_before = ws.ctx().buffers.reuses();
        let m = ws.alloc_dense(2, 2);
        assert_eq!(m, Matrix::zeros(2, 2));
        assert_eq!(ws.ctx().buffers.reuses(), reuses_before + 1);
    }

    #[test]
    fn compile_counts_reads_across_nets_plus_the_output() {
        let mut a = NetDef::new("a");
        a.push(Box::new(AddOne {
            input: "x".into(),
            output: "y".into(),
        }));
        let mut b = NetDef::new("b");
        b.push(Box::new(AddOne {
            input: "y".into(),
            output: "z".into(),
        }));
        b.push(Box::new(AddOne {
            input: "y".into(),
            output: "w".into(),
        }));
        let counts = compile(&[a, b], "w").unwrap().consumers().clone();
        assert_eq!(counts.get("x"), Some(&1));
        assert_eq!(counts.get("y"), Some(&2));
        assert_eq!(counts.get("z"), None);
        assert_eq!(counts.get("w"), Some(&1), "the caller's fetch reads the output");
    }

    #[test]
    fn compile_rejects_unproduced_input_and_unproduced_output() {
        let events: EventLog = Arc::default();
        let mut net = NetDef::new("n");
        // "y" is produced only *after* the op that reads it.
        net.push(Box::new(logged_add_one("A", "y", "z", &events)));
        net.push(Box::new(logged_add_one("B", "x", "y", &events)));
        let err = compile(&[net], "z").unwrap_err();
        assert!(matches!(err, GraphError::InvalidGraph { .. }));
        assert!(err.to_string().contains("A reads y,"), "{err}");
        let mut net = NetDef::new("n");
        net.push(Box::new(logged_add_one("B", "x", "y", &events)));
        let err = compile(&[net], "prediction").unwrap_err().to_string();
        assert!(err.contains("model-output reads prediction,"), "{err}");
    }

    #[test]
    fn second_nets_external_rpc_is_issued_first_and_an_edited_net_is_rejected() {
        // Net 2's RPC reads only the request input, so it leaves before
        // net 1's first dense op and comes back after net 1's last.
        #[derive(Default)]
        struct NetObserver(Vec<String>);
        impl ExecutionObserver for NetObserver {
            fn on_op(&mut self, net: &str, op: &dyn Operator, _secs: f64) {
                self.0.push(format!("{net}/{}", op.name()));
            }
            fn on_rpc(&mut self, net: &str, op: &dyn Operator, _: Instant, _: Instant, _: &RpcOutcome) {
                self.0.push(format!("{net}/{}", op.name()));
            }
        }
        let events: EventLog = Arc::default();
        let mut first = NetDef::new("first");
        first.push(Box::new(logged_add_one("S1", "x", "s1", &events)));
        first.push(Box::new(logged_add_one("S2", "s1", "s2", &events)));
        let mut second = NetDef::new("second");
        second.push(Box::new(logged_add_one("T", "s2", "t", &events)));
        second.push(Box::new(TestRpc::new("R", "x", "r", &events)));
        second.push(Box::new(logged_add_one("U", "r", "u", &events)));
        let mut nets = [first, second];
        let mut ws_seq = Workspace::new();
        ws_seq.put("x", Blob::Dense(Matrix::from_rows(&[&[0.25, -3.0]])));
        let mut ws_ovl = ws_seq.clone();
        let mut obs = NetObserver::default();
        let schedule = compile(&nets, "u").unwrap();
        schedule.walk(&nets, &mut ws_ovl, &mut obs).unwrap();
        assert_eq!(
            *events.lock().unwrap(),
            vec!["issue:R", "run:S1", "run:S2", "run:T", "collect:R", "run:U"]
        );
        assert_eq!(
            obs.0,
            vec!["first/S1", "first/S2", "second/T", "second/R", "second/U"],
            "each callback names the operator's own net"
        );
        for net in &nets {
            net.run(&mut ws_seq, &mut NoopObserver).unwrap();
        }
        for blob in ["s1", "s2", "t", "r", "u"] {
            assert_eq!(ws_seq.blob(blob), ws_ovl.blob(blob), "{blob}");
        }

        // An op pushed after compile: rejected before anything runs.
        nets[1].push(Box::new(logged_add_one("V", "u", "v", &events)));
        events.lock().unwrap().clear();
        let err = schedule.walk(&nets, &mut ws_ovl, &mut obs).unwrap_err();
        assert!(matches!(err, GraphError::InvalidGraph { .. }), "{err}");
        assert!(events.lock().unwrap().is_empty(), "nothing may run");
    }
}
