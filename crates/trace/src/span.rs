//! Span records: the unit of cross-layer instrumentation.

/// Identifies one inference request across all servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// Identifies one RPC within a request (matches the main-shard
/// outstanding span with the sparse-shard service spans).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RpcId(pub u64);

/// Identifies a server. By convention the main shard is server 0 and
/// sparse shard *k* is server *k + 1*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServerId(pub usize);

impl ServerId {
    /// The main shard's server.
    pub const MAIN: ServerId = ServerId(0);

    /// The server hosting sparse shard `shard_index`.
    #[must_use]
    pub fn sparse(shard_index: usize) -> ServerId {
        ServerId(shard_index + 1)
    }

    /// Whether this is the main shard's server.
    #[must_use]
    pub fn is_main(&self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for ServerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_main() {
            f.write_str("main")
        } else {
            write!(f, "sparse{}", self.0 - 1)
        }
    }
}

/// What an interval represents — the cross-layer vocabulary of the
/// instrumentation (§IV-A's trace points).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Main shard: the whole request, arrival to response sent.
    RequestE2E,
    /// Main shard: deserializing the inference request.
    RequestDeser,
    /// Main shard: serializing the ranking response.
    ResponseSer,
    /// A dense (non-SLS) ML operator run.
    DenseOp,
    /// Net scheduling/bookkeeping time not spent in operators —
    /// "Net Overhead" in Fig. 8 (e.g. scheduling of asynchronous ops).
    NetOverhead,
    /// An SLS (embedding lookup + pooling) operator run: on the main
    /// shard in singular mode, on a sparse shard in distributed mode.
    SparseOp(Option<RpcId>),
    /// Main shard: RPC service boilerplate around the request (Thrift
    /// handler setup, batching bookkeeping).
    MainService,
    /// Main shard: serializing one RPC request.
    RpcSerialize(RpcId),
    /// Main shard: the window an RPC is outstanding — issue to response
    /// arrival. *Not* CPU time (the async op frees the core).
    RpcOutstanding(RpcId),
    /// Main shard: deserializing one RPC response.
    RpcDeserialize(RpcId),
    /// Sparse shard: request receipt to reply handoff (its E2E).
    ShardE2E(RpcId),
    /// Sparse shard: RPC service boilerplate.
    ShardService(RpcId),
    /// Sparse shard: deserializing the request.
    ShardDeser(RpcId),
    /// Sparse shard: serializing the pooled response.
    ShardSer(RpcId),
    /// Frontend: admission to worker pickup. *Not* CPU time — the
    /// request sits in its lane's bounded queue waiting for a free
    /// worker.
    QueueWait,
    /// Frontend: worker pickup (which forms the batch) to execution
    /// start — merging the member requests' inputs.
    BatchAssembly,
    /// Frontend: the formed batch's execution window on a worker thread,
    /// dispatch to predictions split.
    BatchExecute,
    /// Main shard: a retry attempt of an RPC after its previous attempt
    /// failed or timed out — issue to settle of the retry. Not CPU time.
    RpcRetry(RpcId),
    /// Main shard: a hedge attempt of an RPC (a duplicate issue racing
    /// the straggling primary) — issue to settle. Not CPU time.
    RpcHedge(RpcId),
}

impl SpanKind {
    /// The RPC this span belongs to, when any.
    #[must_use]
    pub fn rpc(&self) -> Option<RpcId> {
        match *self {
            SpanKind::SparseOp(rpc) => rpc,
            SpanKind::RpcSerialize(r)
            | SpanKind::RpcOutstanding(r)
            | SpanKind::RpcDeserialize(r)
            | SpanKind::RpcRetry(r)
            | SpanKind::RpcHedge(r)
            | SpanKind::ShardE2E(r)
            | SpanKind::ShardService(r)
            | SpanKind::ShardDeser(r)
            | SpanKind::ShardSer(r) => Some(r),
            _ => None,
        }
    }
}

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The request this span belongs to.
    pub trace: TraceId,
    /// The observing server (timestamps are in *its* local clock).
    pub server: ServerId,
    /// What the interval represents.
    pub kind: SpanKind,
    /// Server-local start timestamp, milliseconds.
    pub start: f64,
    /// Interval length, milliseconds (clock-skew free).
    pub duration: f64,
    /// Whether the interval occupied a CPU core (contributes to the
    /// aggregate CPU time of Tables III/IV).
    pub cpu: bool,
}

impl Span {
    /// Server-local end timestamp.
    #[must_use]
    pub fn end(&self) -> f64 {
        self.start + self.duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_naming_convention() {
        assert!(ServerId::MAIN.is_main());
        assert_eq!(ServerId::sparse(0), ServerId(1));
        assert_eq!(ServerId::sparse(3).to_string(), "sparse3");
        assert_eq!(ServerId::MAIN.to_string(), "main");
    }

    #[test]
    fn rpc_extraction() {
        assert_eq!(SpanKind::RequestE2E.rpc(), None);
        assert_eq!(SpanKind::SparseOp(None).rpc(), None);
        assert_eq!(SpanKind::SparseOp(Some(RpcId(4))).rpc(), Some(RpcId(4)));
        assert_eq!(SpanKind::ShardE2E(RpcId(2)).rpc(), Some(RpcId(2)));
    }

    #[test]
    fn span_end() {
        let s = Span {
            trace: TraceId(0),
            server: ServerId::MAIN,
            kind: SpanKind::DenseOp,
            start: 1.5,
            duration: 2.0,
            cpu: true,
        };
        assert_eq!(s.end(), 3.5);
    }
}
