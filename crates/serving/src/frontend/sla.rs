//! SLA accounting: per-batch records and the frontend report.
//!
//! The batch is the unit of execution and the request the unit of SLA
//! (DeepRecSys): a worker writes one [`BatchRecord`] per executed
//! batch, and [`FrontendReport::assemble`] judges each member request
//! against the SLA window. The figure of merit is *latency-bounded
//! throughput*: the rate of requests completing within the window. Shed
//! and failed requests count as SLA misses — a request turned away at
//! admission is a miss the user observed, so the hit-rate denominator
//! is everything *offered*, not everything served.

use super::queue::QueueStats;
use crate::engine_trace::RpcTally;
use crate::replica::TransportSummary;
use dlrm_metrics::{CauseCounts, PercentileSketch, Summary};
use dlrm_runtime::{KernelStats, KernelSummary};
use dlrm_sharding::CacheTotals;
use dlrm_tensor::Matrix;
use dlrm_trace::TraceCollector;
use std::collections::BTreeMap;

/// One admitted request as its batch recorded it.
#[derive(Debug, Clone)]
pub struct BatchMember {
    /// Request id (the trace id of its spans).
    pub id: u64,
    /// When the load generator enqueued it (E2E clock start), ms.
    pub enqueued_ms: f64,
    /// The request's predictions; `None` if the engine failed its batch.
    pub prediction: Option<Matrix>,
}

/// One executed batch, recorded once: every timestamp is milliseconds
/// on the frontend clock, and every fact here holds for all members.
#[derive(Debug, Clone)]
pub struct BatchRecord {
    /// Pickup sequence number (unique per run).
    pub seq: u64,
    /// Serving epoch whose model executed the batch (0 on a pinned
    /// lane), resolved once at pickup.
    pub epoch: u64,
    /// When a worker picked the batch up: its members' queue wait ends
    /// and the batch forms at this one instant.
    pub picked_ms: f64,
    /// When the batch started executing (pickup to here is the merge).
    pub exec_start_ms: f64,
    /// When the predictions were split back (E2E clock end).
    pub exec_end_ms: f64,
    /// What the batch's RPCs did.
    pub rpc: RpcTally,
    /// Failure cause when the engine failed the batch: the failed RPC's
    /// kind from [`RpcTally::failure`], or `"engine"` when no RPC
    /// failed; `None` on success.
    pub failure_cause: Option<&'static str>,
    /// The requests it carried, in pickup (FIFO) order.
    pub members: Vec<BatchMember>,
}

/// Everything one frontend run reports: admission accounting, the
/// queueing-vs-compute delay breakdown, latency tails, predictions, and
/// the collected trace.
#[derive(Debug)]
pub struct FrontendReport {
    /// Requests presented for admission (`admitted + shed`).
    pub offered: u64,
    /// Requests accepted into the queue.
    pub admitted: u64,
    /// Requests turned away (queue full): SLA misses by definition.
    pub shed: u64,
    /// Requests that completed with predictions.
    pub completed: u64,
    /// Admitted requests whose batch failed in the engine.
    pub failed: u64,
    /// Completed requests served in degraded mode (zero-embedding
    /// fallback for at least one shard RPC). A subset of `completed`.
    pub degraded: u64,
    /// Completed requests within the SLA window *and* not degraded.
    pub sla_hit_count: u64,
    /// Failed requests broken down by cause (`timeout`, `transport`,
    /// `shard-fault`, `poisoned`, `engine`).
    pub failed_by_cause: CauseCounts,
    /// RPC retry attempts across all executed batches.
    pub rpc_retries: u64,
    /// RPC hedge attempts across all executed batches.
    pub rpc_hedges: u64,
    /// Bags served entirely from the hot-row cache across all executed
    /// batches.
    pub cache_hits: u64,
    /// Bags sent over the wire (cold rows present) across all executed
    /// batches, counted only for cached tables.
    pub cache_misses: u64,
    /// Embedding rows pooled locally from the hot-row cache across all
    /// executed batches.
    pub cache_local_rows: u64,
    /// Replica-transport activity (failovers, ejections, probes,
    /// recoveries), when the run used a replicated pool. Attached by the
    /// caller after the run; `None` over non-replicated transports.
    pub transport: Option<TransportSummary>,
    /// SIMD kernel-dispatch activity (process-wide counter snapshot at
    /// assembly): which tier GEMM/SLS/quantized-SLS calls ran under.
    pub kernels: KernelSummary,
    /// Completed requests per serving epoch, epoch-ordered. One entry
    /// (epoch 0 or the initial plan's epoch) on a static run; a live
    /// run that cut over mid-stream shows every epoch that served.
    pub epochs_served: Vec<(u64, u64)>,
    /// High-water mark of admission-queue depth.
    pub max_queue_depth: usize,
    /// The SLA window requests are judged against, milliseconds.
    pub sla_ms: f64,
    /// Wall-clock span of the whole run (first arrival to last drain).
    pub wall_ms: f64,
    /// Number of batches executed.
    pub batches: u64,
    /// Mean requests per executed batch.
    pub mean_batch_requests: f64,
    /// Largest batch executed, in requests.
    pub max_batch_requests: usize,
    /// Queue-wait breakdown over completed requests.
    pub queue_wait_ms: Summary,
    /// Batch-formation breakdown over completed requests.
    pub batch_wait_ms: Summary,
    /// Compute breakdown over completed requests.
    pub compute_ms: Summary,
    /// End-to-end latency samples over completed requests.
    pub e2e_ms: PercentileSketch,
    /// `(request id, predictions)` for every completed request.
    pub predictions: Vec<(u64, Matrix)>,
    /// Per-request queue/batch/execute spans plus the lead requests'
    /// re-based executor spans.
    pub trace: TraceCollector,
}

impl FrontendReport {
    /// Assembles the report from the queue counters and the workers'
    /// batch records: batch tallies sum, every member of a failed batch
    /// counts under the batch's cause, and every completion is credited
    /// to its batch's epoch.
    #[must_use]
    pub(crate) fn assemble(
        queue: QueueStats,
        batches: Vec<BatchRecord>,
        sla_ms: f64,
        wall_ms: f64,
    ) -> Self {
        let requests: usize = batches.iter().map(|b| b.members.len()).sum();
        let max_batch = batches.iter().map(|b| b.members.len()).max().unwrap_or(0);
        let batch_count = batches.len() as u64;
        let mut queue_wait = Summary::new();
        let mut batch_wait = Summary::new();
        let mut compute = Summary::new();
        let mut e2e = PercentileSketch::with_capacity(requests);
        let mut predictions = Vec::with_capacity(requests);
        let mut degraded = 0u64;
        let mut sla_hit_count = 0u64;
        let mut failed_by_cause = CauseCounts::new();
        let (mut rpc_retries, mut rpc_hedges) = (0, 0);
        let mut cache = CacheTotals::default();
        let mut by_epoch = BTreeMap::new();
        for b in batches {
            rpc_retries += b.rpc.retries;
            rpc_hedges += b.rpc.hedges;
            cache.merge(&b.rpc.cache);
            for m in b.members {
                let Some(prediction) = m.prediction else {
                    failed_by_cause.record(b.failure_cause.unwrap_or("engine"));
                    continue;
                };
                *by_epoch.entry(b.epoch).or_insert(0) += 1;
                let latency = b.exec_end_ms - m.enqueued_ms;
                queue_wait.record(b.picked_ms - m.enqueued_ms);
                batch_wait.record(b.exec_start_ms - b.picked_ms);
                compute.record(b.exec_end_ms - b.exec_start_ms);
                e2e.record(latency);
                if b.rpc.degraded > 0 {
                    degraded += 1;
                } else if latency < sla_ms {
                    // Degraded responses never count as SLA hits: the
                    // user got an answer, but not the model's answer.
                    sla_hit_count += 1;
                }
                predictions.push((m.id, prediction));
            }
        }
        predictions.sort_by_key(|&(id, _)| id);
        FrontendReport {
            offered: queue.offered,
            admitted: queue.admitted,
            shed: queue.shed,
            completed: predictions.len() as u64,
            failed: failed_by_cause.total(),
            degraded,
            sla_hit_count,
            failed_by_cause,
            rpc_retries,
            rpc_hedges,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_local_rows: cache.local_rows,
            transport: None,
            kernels: KernelStats::global().summary(),
            epochs_served: by_epoch.into_iter().collect(),
            max_queue_depth: queue.max_depth,
            sla_ms,
            wall_ms,
            batches: batch_count,
            mean_batch_requests: if batch_count == 0 {
                0.0
            } else {
                requests as f64 / batch_count as f64
            },
            max_batch_requests: max_batch,
            queue_wait_ms: queue_wait,
            batch_wait_ms: batch_wait,
            compute_ms: compute,
            e2e_ms: e2e,
            predictions,
            trace: TraceCollector::new(),
        }
    }

    /// Fraction of *offered* requests that received a response at all
    /// (degraded or not): `completed / offered`. This is the
    /// fault-tolerance figure of merit — distinct from the SLA hit
    /// rate, which also demands timeliness and full fidelity. 1.0 when
    /// nothing was offered.
    #[must_use]
    pub fn availability(&self) -> f64 {
        if self.offered == 0 {
            return 1.0;
        }
        self.completed as f64 / self.offered as f64
    }

    /// Fraction of completed requests served degraded (0.0 when nothing
    /// completed).
    #[must_use]
    pub fn degraded_rate(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        self.degraded as f64 / self.completed as f64
    }

    /// Fraction of *offered* requests that completed within the SLA —
    /// shed and failed requests count as misses. 1.0 when nothing was
    /// offered (vacuously met).
    #[must_use]
    pub fn sla_hit_rate(&self) -> f64 {
        if self.offered == 0 {
            return 1.0;
        }
        self.sla_hit_count as f64 / self.offered as f64
    }

    /// Latency-bounded throughput: SLA-meeting completions per second
    /// of wall time.
    #[must_use]
    pub fn latency_bounded_qps(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return 0.0;
        }
        self.sla_hit_count as f64 / (self.wall_ms / 1e3)
    }
}

impl std::fmt::Display for FrontendReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut e2e = self.e2e_ms.clone();
        writeln!(
            f,
            "offered {} | admitted {} | shed {} | completed {} | failed {}",
            self.offered, self.admitted, self.shed, self.completed, self.failed
        )?;
        writeln!(
            f,
            "availability {:.4} | degraded {} ({:.4} of completed) | failed by cause: {}",
            self.availability(),
            self.degraded,
            self.degraded_rate(),
            self.failed_by_cause
        )?;
        writeln!(
            f,
            "rpc retries {} | rpc hedges {}{}{}",
            self.rpc_retries,
            self.rpc_hedges,
            if self.cache_hits + self.cache_misses > 0 {
                format!(
                    " | cache hits {} misses {} ({} local rows)",
                    self.cache_hits, self.cache_misses, self.cache_local_rows
                )
            } else {
                String::new()
            },
            match &self.transport {
                Some(t) => format!(" | transport: {t}"),
                None => String::new(),
            }
        )?;
        writeln!(f, "kernels: {}", self.kernels)?;
        writeln!(
            f,
            "SLA {:.1}ms: hit rate {:.4} ({} hits) | latency-bounded {:.1} qps | wall {:.1}ms",
            self.sla_ms,
            self.sla_hit_rate(),
            self.sla_hit_count,
            self.latency_bounded_qps(),
            self.wall_ms
        )?;
        writeln!(
            f,
            "batches {} | mean {:.2} req/batch | max {} req | max queue depth {}",
            self.batches, self.mean_batch_requests, self.max_batch_requests, self.max_queue_depth
        )?;
        if self.epochs_served.len() > 1 || self.epochs_served.first().is_some_and(|(e, _)| *e > 0) {
            let parts: Vec<String> = self
                .epochs_served
                .iter()
                .map(|(e, n)| format!("epoch {e}: {n}"))
                .collect();
            writeln!(f, "served by {}", parts.join(" | "))?;
        }
        writeln!(f, "e2e      {}", e2e.tail_percentiles())?;
        writeln!(
            f,
            "breakdown: queue-wait mean {:.3}ms | batch-wait mean {:.3}ms | compute mean {:.3}ms",
            self.queue_wait_ms.mean(),
            self.batch_wait_ms.mean(),
            self.compute_ms.mean()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A batch whose members all take `e2e` ms: enqueued at 0, picked
    /// up at a quarter, executing from half to the end.
    fn batch(seq: u64, ids: std::ops::Range<u64>, e2e: f64, ok: bool) -> BatchRecord {
        BatchRecord {
            seq,
            epoch: 0,
            picked_ms: e2e * 0.25,
            exec_start_ms: e2e * 0.5,
            exec_end_ms: e2e,
            rpc: RpcTally::default(),
            failure_cause: (!ok).then_some("engine"),
            members: ids
                .map(|id| BatchMember {
                    id,
                    enqueued_ms: 0.0,
                    prediction: ok.then(|| Matrix::zeros(1, 1)),
                })
                .collect(),
        }
    }

    fn stats(offered: u64, admitted: u64) -> QueueStats {
        QueueStats {
            offered,
            admitted,
            shed: offered - admitted,
            depth: 0,
            max_depth: 3,
        }
    }

    #[test]
    fn shed_and_failed_count_as_sla_misses() {
        // 10 offered: 2 shed, 1 failed, 7 completed (5 within 10ms SLA).
        let batches = vec![
            batch(0, 0..5, 5.0, true),
            batch(1, 5..6, 50.0, true),
            batch(2, 6..7, 60.0, true),
            batch(3, 7..8, 1.0, false),
        ];
        let report = FrontendReport::assemble(stats(10, 8), batches, 10.0, 1000.0);
        assert_eq!(report.offered, 10);
        assert_eq!(report.shed, 2);
        assert_eq!(report.failed, 1);
        assert_eq!(report.completed, 7);
        assert_eq!(report.sla_hit_count, 5);
        assert_eq!(report.sla_hit_rate(), 0.5);
        assert_eq!(report.latency_bounded_qps(), 5.0);
        assert_eq!(report.offered, report.admitted + report.shed);
        assert_eq!(report.completed + report.failed, report.admitted);
        assert_eq!(report.availability(), 0.7);
        assert_eq!(report.failed_by_cause.get("engine"), 1);
        assert_eq!(report.failed_by_cause.total(), report.failed);
    }

    #[test]
    fn degraded_responses_count_toward_availability_but_not_sla() {
        // 4 offered/admitted: 2 fast+full, 1 fast+degraded, 1 failed
        // with a classified cause.
        let mut degraded = batch(1, 2..3, 5.0, true);
        degraded.rpc.degraded = 1;
        degraded.rpc.retries = 2;
        degraded.rpc.hedges = 1;
        let mut failed = batch(2, 3..4, 5.0, false);
        failed.failure_cause = Some("timeout");
        let batches = vec![batch(0, 0..2, 5.0, true), degraded, failed];
        let report = FrontendReport::assemble(stats(4, 4), batches, 10.0, 1000.0);
        assert_eq!(report.completed, 3);
        assert_eq!(report.degraded, 1);
        assert_eq!(report.availability(), 0.75);
        assert_eq!(report.degraded_rate(), 1.0 / 3.0);
        // The degraded response arrived in time but is not a hit.
        assert_eq!(report.sla_hit_count, 2);
        assert_eq!(report.failed_by_cause.get("timeout"), 1);
        assert_eq!(report.rpc_retries, 2);
        assert_eq!(report.rpc_hedges, 1);
        let text = report.to_string();
        for needle in ["availability", "degraded", "timeout=1", "retries 2"] {
            assert!(text.contains(needle), "missing {needle:?} in {text}");
        }
    }

    #[test]
    fn batch_tallies_sum_and_a_failed_batch_fails_every_member() {
        // A three-request batch that completed and a two-request batch
        // the transport failed: each tally counts once, exactly.
        let mut done = batch(7, 0..3, 5.0, true);
        done.rpc = RpcTally {
            retries: 4,
            hedges: 2,
            degraded: 0,
            cache: CacheTotals {
                hits: 6,
                misses: 3,
                local_rows: 11,
            },
            failure: None,
        };
        let mut lost = batch(8, 3..5, 5.0, false);
        lost.failure_cause = Some("transport");
        lost.rpc = RpcTally {
            retries: 1,
            hedges: 1,
            degraded: 0,
            cache: CacheTotals {
                hits: 1,
                misses: 2,
                local_rows: 3,
            },
            failure: Some("transport"),
        };
        let report = FrontendReport::assemble(stats(5, 5), vec![done, lost], 10.0, 100.0);
        assert_eq!(report.rpc_retries, 5);
        assert_eq!(report.rpc_hedges, 3);
        assert_eq!(report.cache_hits, 7);
        assert_eq!(report.cache_misses, 5);
        assert_eq!(report.cache_local_rows, 14);
        assert_eq!(report.batches, 2);
        assert_eq!((report.max_batch_requests, report.mean_batch_requests), (3, 2.5));
        assert_eq!((report.completed, report.failed), (3, 2));
        assert_eq!(report.failed_by_cause.get("transport"), 2);
        assert_eq!(report.failed_by_cause.total(), 2);
        let text = report.to_string();
        assert!(text.contains("cache hits 7 misses 5"), "missing cache line in {text}");
    }

    #[test]
    fn completed_requests_are_attributed_to_their_epoch() {
        let mut cutover = batch(1, 2..4, 5.0, true);
        cutover.epoch = 1;
        let batches = vec![
            batch(0, 0..2, 5.0, true),
            cutover,
            batch(2, 4..5, 5.0, false), // failed requests are not attributed
        ];
        let report = FrontendReport::assemble(stats(5, 5), batches, 10.0, 100.0);
        assert_eq!(report.epochs_served, vec![(0, 2), (1, 2)]);
        let text = report.to_string();
        assert!(text.contains("served by epoch 0: 2 | epoch 1: 2"), "{text}");

        // A pure epoch-0 run keeps the display quiet.
        let quiet =
            FrontendReport::assemble(stats(1, 1), vec![batch(0, 0..1, 5.0, true)], 10.0, 100.0);
        assert_eq!(quiet.epochs_served, vec![(0, 1)]);
        assert!(!quiet.to_string().contains("served by"));
    }

    #[test]
    fn breakdown_sums_to_e2e() {
        let report =
            FrontendReport::assemble(stats(1, 1), vec![batch(0, 0..1, 40.0, true)], 10.0, 100.0);
        let total =
            report.queue_wait_ms.sum() + report.batch_wait_ms.sum() + report.compute_ms.sum();
        assert!((total - report.e2e_ms.mean()).abs() < 1e-9);
    }

    #[test]
    fn empty_run_is_vacuously_within_sla() {
        let report = FrontendReport::assemble(QueueStats::default(), Vec::new(), 10.0, 0.0);
        assert_eq!(report.sla_hit_rate(), 1.0);
        assert_eq!(report.latency_bounded_qps(), 0.0);
        assert_eq!(report.batches, 0);
    }

    #[test]
    fn display_mentions_every_accounting_line() {
        let report =
            FrontendReport::assemble(stats(2, 2), vec![batch(0, 0..1, 5.0, true)], 10.0, 100.0);
        let text = report.to_string();
        for needle in ["offered", "shed", "hit rate", "batches", "queue-wait"] {
            assert!(text.contains(needle), "missing {needle:?} in {text}");
        }
    }
}
