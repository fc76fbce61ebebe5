//! Real-engine trace capture: per-RPC issue/collect span pairs.
//!
//! The simulator's cluster model emits Fig. 3-style traces from
//! simulated timestamps; this module produces the same span vocabulary
//! from *measured* wall-clock time of the real engine's overlap
//! schedule ([`dlrm_model::graph::Schedule::walk`]). Each
//! asynchronous RPC operator contributes one
//! [`SpanKind::RpcOutstanding`] span covering its issue → collect
//! window (not CPU time — the async op frees the core, §IV-A), so the
//! Gantt export ([`dlrm_trace::gantt`]) shows shard round-trips
//! overlapping each other and the dense compute.

use dlrm_model::graph::{ExecutionObserver, Operator, RpcAttemptKind, RpcOutcome};
use dlrm_model::OpGroup;
use dlrm_sharding::CacheTotals;
use dlrm_trace::{RpcId, ServerId, Span, SpanKind, TraceCollector, TraceId};
use std::time::Instant;

/// What the RPCs of one observed run did, summed over its RPCs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RpcTally {
    /// Retry attempts.
    pub retries: u64,
    /// Hedge attempts.
    pub hedges: u64,
    /// RPCs that settled in degraded mode (zero-embedding fallback).
    pub degraded: u64,
    /// What the hot-row cache absorbed.
    pub cache: CacheTotals,
    /// The kind ([`dlrm_sharding::RpcError::kind`] vocabulary) of the
    /// RPC that failed the run, if one did.
    pub failure: Option<&'static str>,
}

/// An [`ExecutionObserver`] that records the overlap scheduler's
/// execution as trace spans on the main server's timeline.
///
/// Synchronous operators become [`SpanKind::DenseOp`] /
/// [`SpanKind::SparseOp`] CPU spans; each collected asynchronous
/// operator — failed ones included — becomes one non-CPU
/// [`SpanKind::RpcOutstanding`] span over its issue/collect window,
/// numbered in collect order, plus one [`SpanKind::RpcRetry`] /
/// [`SpanKind::RpcHedge`] span per extra attempt. Call
/// [`RpcTracingObserver::finish`] after the run to close the
/// request-E2E span and take the collector.
#[derive(Debug)]
pub struct RpcTracingObserver {
    origin: Instant,
    trace: TraceId,
    next_rpc: u64,
    tally: RpcTally,
    collector: TraceCollector,
}

impl RpcTracingObserver {
    /// Creates an observer; the request clock (and the E2E span) starts
    /// now.
    #[must_use]
    pub fn new(trace: TraceId) -> Self {
        Self {
            origin: Instant::now(),
            trace,
            next_rpc: 0,
            tally: RpcTally::default(),
            collector: TraceCollector::new(),
        }
    }

    /// Milliseconds from the request origin to `at`.
    fn ms_since_origin(&self, at: Instant) -> f64 {
        at.duration_since(self.origin).as_secs_f64() * 1e3
    }

    /// Records a non-CPU span over `from..to`.
    fn record_window(&mut self, kind: SpanKind, from: Instant, to: Instant) {
        let start = self.ms_since_origin(from);
        self.collector.record(Span {
            trace: self.trace,
            server: ServerId::MAIN,
            kind,
            start,
            duration: self.ms_since_origin(to) - start,
            cpu: false,
        });
    }

    /// Number of RPCs recorded so far.
    #[must_use]
    pub fn rpc_count(&self) -> u64 {
        self.next_rpc
    }

    /// What the RPCs observed so far did.
    #[must_use]
    pub fn tally(&self) -> RpcTally {
        self.tally
    }

    /// Closes the request with a [`SpanKind::RequestE2E`] span ending
    /// now and returns the collected spans.
    #[must_use]
    pub fn finish(mut self) -> TraceCollector {
        let e2e = self.ms_since_origin(Instant::now());
        self.collector.record(Span {
            trace: self.trace,
            server: ServerId::MAIN,
            kind: SpanKind::RequestE2E,
            start: 0.0,
            duration: e2e,
            cpu: false,
        });
        self.collector
    }
}

impl ExecutionObserver for RpcTracingObserver {
    fn on_op(&mut self, _net: &str, op: &dyn Operator, elapsed_secs: f64) {
        let duration = elapsed_secs * 1e3;
        let end = self.ms_since_origin(Instant::now());
        let kind = if op.group() == OpGroup::Sls {
            SpanKind::SparseOp(None)
        } else {
            SpanKind::DenseOp
        };
        self.collector.record(Span {
            trace: self.trace,
            server: ServerId::MAIN,
            kind,
            start: (end - duration).max(0.0),
            duration,
            cpu: true,
        });
    }

    fn on_rpc(
        &mut self,
        _net: &str,
        _op: &dyn Operator,
        issued_at: Instant,
        collected_at: Instant,
        outcome: &RpcOutcome,
    ) {
        let rpc = RpcId(self.next_rpc);
        self.next_rpc += 1;
        let t = &mut self.tally;
        t.retries += u64::from(outcome.retries);
        t.hedges += u64::from(outcome.hedges);
        t.degraded += u64::from(outcome.degraded);
        t.cache.hits += outcome.cache_hits;
        t.cache.misses += outcome.cache_misses;
        t.cache.local_rows += outcome.cache_local_rows;
        if !outcome.degraded && outcome.error_kind.is_some() {
            t.failure = outcome.error_kind;
        }
        self.record_window(SpanKind::RpcOutstanding(rpc), issued_at, collected_at);
        for attempt in &outcome.attempts {
            let kind = match attempt.kind {
                // The primary attempt's window is the RpcOutstanding span.
                RpcAttemptKind::Primary => continue,
                RpcAttemptKind::Retry => SpanKind::RpcRetry(rpc),
                RpcAttemptKind::Hedge => SpanKind::RpcHedge(rpc),
            };
            self.record_window(kind, attempt.issued_at, attempt.settled_at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::replica::{HealthPolicy, ReplicatedShardPool};
    use dlrm_model::{build_model, rm, ModelSpec, Workspace};
    use dlrm_sharding::{plan, DistributedModel, ShardingPlan, ShardingStrategy};
    use dlrm_trace::gantt;
    use dlrm_workload::{materialize_request, PoolingProfile, TraceDb};
    use std::time::Duration;

    /// The model over one worker thread per shard, and the pool behind
    /// it (dropping the pool stops the workers).
    fn threaded(
        spec: &ModelSpec,
        p: &ShardingPlan,
        delay: Duration,
        faults: &FaultPlan,
    ) -> (DistributedModel, ReplicatedShardPool) {
        ReplicatedShardPool::assemble(spec, p, 3, |services| {
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

    #[test]
    fn overlapped_run_yields_overlapping_outstanding_spans() {
        let mut spec = rm::rm1().scaled_to_bytes(2 << 20);
        spec.mean_items_per_request = 8.0;
        spec.default_batch_size = 8;
        let profile = PoolingProfile::from_spec(&spec);
        let p = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(2)).unwrap();
        // The injected delay makes the outstanding windows long enough
        // that overlap is unambiguous in wall-clock terms.
        let (dist, _pool) = threaded(&spec, &p, Duration::from_millis(15), &FaultPlan::none());

        let db = TraceDb::generate(&spec, 1, 5);
        let batch = &materialize_request(&spec, db.get(0), 8, 5)[0];
        let mut ws = Workspace::new();
        batch.load_into(&spec, &mut ws);
        let mut obs = RpcTracingObserver::new(TraceId(1));
        dist.run_overlapped(&mut ws, &mut obs).unwrap();
        assert!(obs.rpc_count() >= 2, "expected ≥2 RPC span pairs per net");
        let collector = obs.finish();

        let outstanding: Vec<_> = collector
            .spans()
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::RpcOutstanding(_)))
            .collect();
        assert!(outstanding.len() >= 2);
        assert!(outstanding.iter().all(|s| !s.cpu));
        // At least one pair of outstanding windows overlaps in time —
        // the scheduler had both shards in flight at once.
        let overlapping = outstanding.iter().enumerate().any(|(i, a)| {
            outstanding[i + 1..]
                .iter()
                .any(|b| a.start < b.end() && b.start < a.end())
        });
        assert!(overlapping, "no two RPC windows overlapped: {outstanding:#?}");

        // The Gantt export renders the pairs.
        let text = gantt::render(&collector, TraceId(1), 60);
        assert!(text.contains("outstanding"), "{text}");
        assert!(text.contains("request e2e"), "{text}");
    }

    #[test]
    fn retry_attempts_recorded_as_spans() {
        use crate::fault::{FaultAction, ReplicaFaultSchedule};
        use dlrm_sharding::RpcPolicy;

        let mut spec = rm::rm1().scaled_to_bytes(2 << 20);
        spec.mean_items_per_request = 8.0;
        spec.default_batch_size = 4;
        let profile = PoolingProfile::from_spec(&spec);
        let p = plan(&spec, &profile, ShardingStrategy::OneShard).unwrap();
        // The shard's first request fails with an injected transient
        // error; the resilient policy retries and succeeds.
        let faults = FaultPlan::none().with(
            0,
            0,
            ReplicaFaultSchedule::none().with(0, FaultAction::TransientError),
        );
        let (mut dist, _pool) = threaded(&spec, &p, Duration::ZERO, &faults);
        dist.set_rpc_policy(RpcPolicy::resilient());

        let db = TraceDb::generate(&spec, 1, 5);
        let batch = &materialize_request(&spec, db.get(0), 4, 5)[0];
        let mut ws = Workspace::new();
        batch.load_into(&spec, &mut ws);
        let mut obs = RpcTracingObserver::new(TraceId(2));
        dist.run_overlapped(&mut ws, &mut obs).unwrap();
        assert!(obs.tally().retries >= 1, "the injected fault forces a retry");
        assert_eq!(obs.tally().degraded, 0);
        let collector = obs.finish();

        let retries: Vec<_> = collector
            .spans()
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::RpcRetry(_)))
            .collect();
        assert!(!retries.is_empty());
        assert!(retries.iter().all(|s| !s.cpu && s.duration >= 0.0));
        // The retry window starts after the failed primary was issued.
        let text = gantt::render(&collector, TraceId(2), 60);
        assert!(text.contains("retry"), "{text}");
    }

    #[test]
    fn sync_ops_recorded_as_cpu_spans() {
        let mut spec = rm::rm3().scaled_to_bytes(1 << 20);
        spec.mean_items_per_request = 4.0;
        spec.default_batch_size = 4;
        let model = build_model(&spec, 2).unwrap();
        let db = TraceDb::generate(&spec, 1, 2);
        let batch = &materialize_request(&spec, db.get(0), 4, 2)[0];
        let mut ws = Workspace::new();
        batch.load_into(&spec, &mut ws);
        let mut obs = RpcTracingObserver::new(TraceId(0));
        model.run(&mut ws, &mut obs).unwrap();
        assert_eq!(obs.rpc_count(), 0, "singular model has no RPC ops");
        let collector = obs.finish();
        let spans = collector.spans();
        assert!(spans.iter().any(|s| s.kind == SpanKind::DenseOp && s.cpu));
        assert!(spans
            .iter()
            .any(|s| s.kind == SpanKind::SparseOp(None) && s.cpu));
        assert!(spans
            .iter()
            .any(|s| s.kind == SpanKind::RequestE2E && !s.cpu));
    }
}
