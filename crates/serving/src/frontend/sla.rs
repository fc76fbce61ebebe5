//! SLA accounting: per-request timelines and the frontend report.
//!
//! The figure of merit is *latency-bounded throughput* (DeepRecSys):
//! the rate of requests completing within the SLA window. Shed and
//! failed requests count as SLA misses — a request turned away at
//! admission is a miss the user observed, so the hit-rate denominator
//! is everything *offered*, not everything served.

use super::queue::QueueStats;
use crate::replica::TransportSummary;
use dlrm_metrics::{CauseCounts, PercentileSketch, Summary, TailPercentiles};
use dlrm_runtime::{KernelStats, KernelSummary};
use dlrm_tensor::Matrix;
use dlrm_trace::TraceCollector;

/// Maps an engine failure message to the stable cause vocabulary of
/// [`dlrm_sharding::RpcError::kind`] (the typed error is stringified by
/// the time it crosses the graph boundary as a `GraphError`). Failures
/// that did not originate in the RPC taxonomy classify as `"engine"`.
pub(crate) fn classify_failure(message: &str) -> &'static str {
    for kind in ["timeout", "poisoned", "shard-fault", "transport"] {
        if message.contains(kind) {
            return kind;
        }
    }
    "engine"
}

/// The measured timeline of one completed (or failed) request, all
/// timestamps in milliseconds on the frontend clock.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// Request id (the trace id of its spans).
    pub id: u64,
    /// Scheduled open-loop arrival offset.
    pub arrival_ms: f64,
    /// When the load generator enqueued it (E2E clock start).
    pub enqueued_ms: f64,
    /// When a worker picked it up (queue-wait end).
    pub dequeued_ms: f64,
    /// When its batch closed: the pickup forms the batch, so this
    /// equals `dequeued_ms`.
    pub batch_closed_ms: f64,
    /// When its batch started executing on a worker.
    pub exec_start_ms: f64,
    /// When predictions were split back (E2E clock end).
    pub exec_end_ms: f64,
    /// Sequence number of the batch it rode in (unique per run).
    pub batch_seq: u64,
    /// How many requests rode in the same batch.
    pub batch_requests: usize,
    /// Serving epoch whose model executed the request's batch (0 on the
    /// static path). Each batch resolves its epoch exactly once, so all
    /// members of a batch share this value.
    pub epoch: u64,
    /// Whether any RPC in the request's batch settled via the
    /// zero-embedding degraded fallback — the predictions exist but were
    /// computed without (some of) the sparse features.
    pub degraded: bool,
    /// RPC retry attempts during the batch this request rode in
    /// (batch-level: shared by all members).
    pub rpc_retries: u64,
    /// RPC hedge attempts during the batch this request rode in
    /// (batch-level: shared by all members).
    pub rpc_hedges: u64,
    /// Bags served entirely from the hot-row cache during the batch this
    /// request rode in (batch-level: shared by all members).
    pub cache_hits: u64,
    /// Bags that went over the wire because at least one of their rows
    /// was cold (batch-level: shared by all members).
    pub cache_misses: u64,
    /// Embedding rows pooled locally instead of fetched remotely during
    /// the batch this request rode in (batch-level: shared by all
    /// members).
    pub cache_local_rows: u64,
    /// Failure cause ([`classify_failure`] vocabulary) when the engine
    /// failed the batch; `None` on success.
    pub failure_cause: Option<&'static str>,
    /// The request's predictions; `None` if the engine failed.
    pub prediction: Option<Matrix>,
}

impl RequestRecord {
    /// End-to-end latency: admission to predictions split.
    #[must_use]
    pub fn e2e_ms(&self) -> f64 {
        self.exec_end_ms - self.enqueued_ms
    }

    /// Time spent waiting in the admission queue.
    #[must_use]
    pub fn queue_wait_ms(&self) -> f64 {
        self.dequeued_ms - self.enqueued_ms
    }

    /// Time spent in batch formation: worker pickup to execution start
    /// (merging the member requests' inputs).
    #[must_use]
    pub fn batch_wait_ms(&self) -> f64 {
        self.exec_start_ms - self.dequeued_ms
    }

    /// Time spent in batch execution (the overlapped run).
    #[must_use]
    pub fn compute_ms(&self) -> f64 {
        self.exec_end_ms - self.exec_start_ms
    }
}

/// One tenant's slice of a multi-tenant run's accounting: admission
/// outcomes, SLA verdicts against the *tenant's own* window, and where
/// its embedding bytes currently live on the storage ladder. Attached
/// to the combined [`FrontendReport`] by
/// [`crate::tenancy::run_tenant_set`].
#[derive(Debug, Clone)]
pub struct TenantBreakdown {
    /// Tenant name (e.g. the model it serves).
    pub name: String,
    /// Requests presented for admission to this tenant's queue.
    pub offered: u64,
    /// Requests accepted into this tenant's queue.
    pub admitted: u64,
    /// Requests this tenant's bounded queue turned away — overload
    /// sheds *here*, inside the tenant, never in a neighbor's queue.
    pub shed: u64,
    /// Requests that completed with predictions.
    pub completed: u64,
    /// Admitted requests whose batch failed in the engine.
    pub failed: u64,
    /// Completed requests served degraded.
    pub degraded: u64,
    /// The SLA window this tenant is judged against, milliseconds.
    pub sla_ms: f64,
    /// Fraction of offered requests completing within the tenant's SLA.
    pub sla_hit_rate: f64,
    /// Fraction of offered requests that completed at all.
    pub availability: f64,
    /// The tenant's embedding bytes split by storage tier.
    pub bytes: crate::tenancy::TierBytes,
}

impl std::fmt::Display for TenantBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: offered {} | admitted {} | shed {} | completed {} | failed {} | degraded {} \
             | availability {:.4} | SLA {:.1}ms hit rate {:.4} | {}",
            self.name,
            self.offered,
            self.admitted,
            self.shed,
            self.completed,
            self.failed,
            self.degraded,
            self.availability,
            self.sla_ms,
            self.sla_hit_rate,
            self.bytes
        )
    }
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
    /// Per-tenant breakdown when this report covers a multi-tenant run
    /// ([`crate::tenancy::run_tenant_set`]); empty on single-tenant
    /// runs.
    pub tenants: Vec<TenantBreakdown>,
}

impl FrontendReport {
    /// Assembles the report from the queue counters and the workers'
    /// request records.
    #[must_use]
    pub(crate) fn assemble(
        queue: QueueStats,
        mut records: Vec<RequestRecord>,
        sla_ms: f64,
        wall_ms: f64,
    ) -> Self {
        records.sort_by_key(|r| r.id);
        let mut queue_wait = Summary::new();
        let mut batch_wait = Summary::new();
        let mut compute = Summary::new();
        let mut e2e = PercentileSketch::with_capacity(records.len());
        let mut predictions = Vec::new();
        let mut failed = 0u64;
        let mut degraded = 0u64;
        let mut sla_hit_count = 0u64;
        let mut failed_by_cause = CauseCounts::new();
        // Retry/hedge/cache counters are batch-level (every member record
        // of a batch carries the same totals), so dedupe by batch
        // sequence.
        let mut batch_attempts: std::collections::HashMap<u64, (u64, u64, u64, u64, u64)> =
            std::collections::HashMap::new();
        let mut batch_sizes: std::collections::HashMap<u64, usize> =
            std::collections::HashMap::new();
        let mut by_epoch: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        let mut max_batch = 0usize;
        for mut r in records {
            batch_sizes.insert(r.batch_seq, r.batch_requests);
            batch_attempts.insert(
                r.batch_seq,
                (
                    r.rpc_retries,
                    r.rpc_hedges,
                    r.cache_hits,
                    r.cache_misses,
                    r.cache_local_rows,
                ),
            );
            max_batch = max_batch.max(r.batch_requests);
            if let Some(prediction) = r.prediction.take() {
                *by_epoch.entry(r.epoch).or_insert(0) += 1;
                queue_wait.record(r.queue_wait_ms());
                batch_wait.record(r.batch_wait_ms());
                compute.record(r.compute_ms());
                e2e.record(r.e2e_ms());
                if r.degraded {
                    degraded += 1;
                } else if r.e2e_ms() < sla_ms {
                    // Degraded responses never count as SLA hits: the
                    // user got an answer, but not the model's answer.
                    sla_hit_count += 1;
                }
                predictions.push((r.id, prediction));
            } else {
                failed += 1;
                failed_by_cause.record(r.failure_cause.unwrap_or("engine"));
            }
        }
        let batches = batch_sizes.len() as u64;
        let batched_requests: usize = batch_sizes.values().sum();
        let (rpc_retries, rpc_hedges, cache_hits, cache_misses, cache_local_rows) =
            batch_attempts.values().fold(
                (0, 0, 0, 0, 0),
                |(r, h, ch, cm, cl), &(br, bh, bch, bcm, bcl)| {
                    (r + br, h + bh, ch + bch, cm + bcm, cl + bcl)
                },
            );
        FrontendReport {
            offered: queue.offered,
            admitted: queue.admitted,
            shed: queue.shed,
            completed: predictions.len() as u64,
            failed,
            degraded,
            sla_hit_count,
            failed_by_cause,
            rpc_retries,
            rpc_hedges,
            cache_hits,
            cache_misses,
            cache_local_rows,
            transport: None,
            kernels: KernelStats::global().summary(),
            epochs_served: by_epoch.into_iter().collect(),
            max_queue_depth: queue.max_depth,
            sla_ms,
            wall_ms,
            batches,
            mean_batch_requests: if batches == 0 {
                0.0
            } else {
                batched_requests as f64 / batches as f64
            },
            max_batch_requests: max_batch,
            queue_wait_ms: queue_wait,
            batch_wait_ms: batch_wait,
            compute_ms: compute,
            e2e_ms: e2e,
            predictions,
            trace: TraceCollector::new(),
            tenants: Vec::new(),
        }
    }

    /// Requests that completed within the SLA window, excluding
    /// degraded responses (counted exactly at assembly).
    #[must_use]
    pub fn sla_hits(&self) -> u64 {
        self.sla_hit_count
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
        self.sla_hits() as f64 / self.offered as f64
    }

    /// Latency-bounded throughput: SLA-meeting completions per second
    /// of wall time.
    #[must_use]
    pub fn latency_bounded_qps(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return 0.0;
        }
        self.sla_hits() as f64 / (self.wall_ms / 1e3)
    }

    /// End-to-end latency tail percentiles over completed requests.
    #[must_use]
    pub fn tail(&mut self) -> TailPercentiles {
        self.e2e_ms.tail_percentiles()
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
            self.sla_hits(),
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
        for t in &self.tenants {
            writeln!(f, "tenant {t}")?;
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

    fn rec(id: u64, e2e: f64, ok: bool) -> RequestRecord {
        RequestRecord {
            id,
            arrival_ms: 0.0,
            enqueued_ms: 0.0,
            dequeued_ms: e2e * 0.25,
            batch_closed_ms: e2e * 0.5,
            exec_start_ms: e2e * 0.5,
            exec_end_ms: e2e,
            batch_seq: id,
            batch_requests: 1,
            epoch: 0,
            degraded: false,
            rpc_retries: 0,
            rpc_hedges: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_local_rows: 0,
            failure_cause: (!ok).then_some("engine"),
            prediction: ok.then(|| Matrix::zeros(1, 1)),
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
        let mut records: Vec<RequestRecord> =
            (0..5).map(|i| rec(i, 5.0, true)).collect();
        records.push(rec(5, 50.0, true));
        records.push(rec(6, 60.0, true));
        records.push(rec(7, 1.0, false));
        let report = FrontendReport::assemble(stats(10, 8), records, 10.0, 1000.0);
        assert_eq!(report.offered, 10);
        assert_eq!(report.shed, 2);
        assert_eq!(report.failed, 1);
        assert_eq!(report.completed, 7);
        assert_eq!(report.sla_hits(), 5);
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
        let mut records = vec![rec(0, 5.0, true), rec(1, 5.0, true)];
        let mut degraded = rec(2, 5.0, true);
        degraded.degraded = true;
        degraded.rpc_retries = 2;
        degraded.rpc_hedges = 1;
        records.push(degraded);
        let mut failed = rec(3, 5.0, false);
        failed.failure_cause = Some(classify_failure(
            "op sparse0: timeout on sparse shard 0: no reply within 1ms",
        ));
        records.push(failed);
        let report = FrontendReport::assemble(stats(4, 4), records, 10.0, 1000.0);
        assert_eq!(report.completed, 3);
        assert_eq!(report.degraded, 1);
        assert_eq!(report.availability(), 0.75);
        assert_eq!(report.degraded_rate(), 1.0 / 3.0);
        // The degraded response arrived in time but is not a hit.
        assert_eq!(report.sla_hits(), 2);
        assert_eq!(report.failed_by_cause.get("timeout"), 1);
        assert_eq!(report.rpc_retries, 2);
        assert_eq!(report.rpc_hedges, 1);
        let text = report.to_string();
        for needle in ["availability", "degraded", "timeout=1", "retries 2"] {
            assert!(text.contains(needle), "missing {needle:?} in {text}");
        }
    }

    #[test]
    fn batch_level_attempt_counters_dedupe_by_batch_seq() {
        // Three requests riding the same batch each carry the batch's
        // totals; the report must count them once.
        let mut records: Vec<RequestRecord> = (0..3).map(|i| rec(i, 5.0, true)).collect();
        for r in &mut records {
            r.batch_seq = 42;
            r.batch_requests = 3;
            r.rpc_retries = 4;
            r.rpc_hedges = 2;
            r.cache_hits = 6;
            r.cache_misses = 3;
            r.cache_local_rows = 11;
        }
        let report = FrontendReport::assemble(stats(3, 3), records, 10.0, 100.0);
        assert_eq!(report.rpc_retries, 4);
        assert_eq!(report.rpc_hedges, 2);
        assert_eq!(report.cache_hits, 6);
        assert_eq!(report.cache_misses, 3);
        assert_eq!(report.cache_local_rows, 11);
        assert_eq!(report.batches, 1);
        let text = report.to_string();
        assert!(text.contains("cache hits 6 misses 3"), "missing cache line in {text}");
    }

    #[test]
    fn completed_requests_are_attributed_to_their_epoch() {
        let mut records: Vec<RequestRecord> = (0..4).map(|i| rec(i, 5.0, true)).collect();
        records[2].epoch = 1;
        records[3].epoch = 1;
        records.push(rec(4, 5.0, false)); // failed requests are not attributed
        let report = FrontendReport::assemble(stats(5, 5), records, 10.0, 100.0);
        assert_eq!(report.epochs_served, vec![(0, 2), (1, 2)]);
        let text = report.to_string();
        assert!(text.contains("served by epoch 0: 2 | epoch 1: 2"), "{text}");

        // A pure epoch-0 run keeps the display quiet.
        let quiet = FrontendReport::assemble(stats(1, 1), vec![rec(0, 5.0, true)], 10.0, 100.0);
        assert_eq!(quiet.epochs_served, vec![(0, 1)]);
        assert!(!quiet.to_string().contains("served by"));
    }

    #[test]
    fn failure_classification_vocabulary() {
        assert_eq!(classify_failure("timeout on sparse3: ..."), "timeout");
        assert_eq!(classify_failure("transport error on sparse0: down"), "transport");
        assert_eq!(classify_failure("shard-fault on sparse1: not hosted"), "shard-fault");
        assert_eq!(
            classify_failure("poisoned on sparse2: worker panicked: boom"),
            "poisoned"
        );
        assert_eq!(classify_failure("blob missing"), "engine");
    }

    #[test]
    fn breakdown_sums_to_e2e() {
        let r = rec(0, 40.0, true);
        let total = r.queue_wait_ms() + r.batch_wait_ms() + r.compute_ms();
        assert!((total - r.e2e_ms()).abs() < 1e-9);
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
        let report = FrontendReport::assemble(stats(2, 2), vec![rec(0, 5.0, true)], 10.0, 100.0);
        let text = report.to_string();
        for needle in ["offered", "shed", "hit rate", "batches", "queue-wait"] {
            assert!(text.contains(needle), "missing {needle:?} in {text}");
        }
    }
}
