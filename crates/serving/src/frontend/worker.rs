//! Worker pool: OS threads that pick their own batches off the lane
//! queues and run them through the overlapped executor.
//!
//! Each worker blocks on the [`LaneQueues`] for its next batch — what
//! the picked lane already holds, up to the cap — resolves the owning
//! lane's serving epoch, merges the batch's request inputs
//! ([`merge_inputs`]; a lone request's inputs are moved, not
//! copied) into vectors its previous batch left in the worker's pools,
//! runs the distributed model under
//! [`DistributedModel::run_overlapped`] — so shard round-trips overlap
//! with dense compute exactly as in PR 2's executor — then splits the
//! predictions back per request ([`split_rows`]) and records the batch
//! once ([`BatchRecord`]) beside its member requests' timeline spans.

use super::arrival::QueuedRequest;
use super::batcher::{merge_inputs, split_rows};
use super::queue::LaneQueues;
use super::sla::{BatchMember, BatchRecord};
use crate::engine_trace::RpcTracingObserver;
use crate::epoch::EpochSwitch;
use dlrm_model::{RuntimeCtx, Workspace};
use dlrm_sharding::DistributedModel;
use dlrm_trace::{ServerId, Span, SpanKind, TraceCollector, TraceId};
use dlrm_workload::{BatchInputs, OnlineProfiler};
use std::sync::Mutex;
use std::time::Instant;

/// Milliseconds from `origin` to `at` (zero if `at` precedes it).
fn ms(origin: Instant, at: Instant) -> f64 {
    at.saturating_duration_since(origin).as_secs_f64() * 1e3
}

/// One lane's run state: where its batches execute, where their
/// outcomes land, and what its [`LaneRun`](super::LaneRun) reports.
pub(crate) struct LaneSink<'a> {
    pub(crate) switch: &'a EpochSwitch,
    pub(crate) profiler: Option<&'a OnlineProfiler>,
    pub(crate) batches: Mutex<Vec<BatchRecord>>,
    pub(crate) trace: Mutex<TraceCollector>,
    pub(crate) sla_ms: f64,
}

/// Drains `queues` until every generator has closed. Per batch: resolve
/// the owning lane's epoch **once** — a cutover published mid-run takes
/// effect at the next pickup, and no batch ever mixes two epochs'
/// state — feed the lane's profiler, then [`run_batch`].
pub(crate) fn worker_loop(
    lanes: &[LaneSink<'_>],
    queues: &LaneQueues<QueuedRequest>,
    origin: Instant,
) {
    let _live = queues.worker();
    // Per-worker runtime context and workspace, kept across batches:
    // each batch recycles its dense stores, index and length vectors
    // into the context's pools and leaves its blob names in the
    // workspace, and the next batch draws on both.
    let ctx = RuntimeCtx::from_env();
    let mut ws = Workspace::with_ctx(ctx.clone());
    while let Some((i, seq, batch)) = queues.pickup() {
        let picked_at = Instant::now();
        let lane = &lanes[i];
        // The lane's epoch `Arc` is held for exactly this batch: a
        // retired epoch is freed by whichever holder releases it last,
        // here after the batch is recorded.
        let held = lane.switch.current();
        if let Some(p) = lane.profiler {
            for queued in &batch {
                p.observe(&queued.request.inputs);
            }
        }
        run_batch(
            &held.model,
            held.epoch,
            &mut ws,
            origin,
            seq,
            batch,
            picked_at,
            &lane.batches,
            &lane.trace,
        );
    }
}

/// Executes one picked-up batch against `model` and records it: one
/// [`BatchRecord`], and every member request's QueueWait /
/// BatchAssembly (pickup to execution start: the merge) / BatchExecute /
/// RequestE2E spans (frontend clock, main server). The lead request
/// additionally carries the executor's re-based per-op and
/// RpcOutstanding spans, so one Gantt render shows batch formation next
/// to the overlap rows.
#[allow(clippy::too_many_arguments)]
fn run_batch(
    model: &DistributedModel,
    epoch: u64,
    ws: &mut Workspace,
    origin: Instant,
    seq: u64,
    batch: Vec<QueuedRequest>,
    picked_at: Instant,
    batches: &Mutex<Vec<BatchRecord>>,
    trace: &Mutex<TraceCollector>,
) {
    let batch_requests = batch.len();
    let lead_trace = TraceId(batch[0].request.id);
    let (inputs, arrivals): (Vec<BatchInputs>, Vec<_>) = batch
        .into_iter()
        .map(|q| (q.request.inputs, (q.request.id, q.enqueued_at)))
        .unzip();
    // A lone request — what traffic below saturation mostly is — runs on
    // its own inputs and keeps its own prediction matrix: nothing is
    // copied to merge or to split. Both forms feed the same
    // `run_overlapped`, so they agree bit for bit.
    let (merged, row_counts) = match <[BatchInputs; 1]>::try_from(inputs) {
        Ok([only]) => (only, Vec::new()),
        Err(inputs) => merge_inputs(&inputs.iter().collect::<Vec<_>>(), ws.ctx()),
    };
    merged.load_owned(&model.spec, ws);

    // The observer's clock starts at its construction; capture the same
    // instant so its spans re-base onto the frontend clock exactly.
    let exec_start = Instant::now();
    let mut obs = RpcTracingObserver::new(lead_trace);
    let result = model.run_overlapped(ws, &mut obs);
    let exec_end = Instant::now();
    let rpc = obs.tally();
    let failure_cause = result.is_err().then(|| rpc.failure.unwrap_or("engine"));
    let engine_spans = obs.finish();

    let mut predictions = result.ok().map(|m| {
        if batch_requests == 1 {
            return vec![m].into_iter();
        }
        let rows = split_rows(&m, &row_counts);
        // Predictions are copied out per request above; hand the
        // batch-level store back for the next batch to reuse.
        ws.ctx().buffers.release(m.into_vec());
        rows.into_iter()
    });
    // Every leftover blob (inputs, multi-consumer intermediates) feeds
    // the pools the next batch draws on.
    ws.recycle_all();

    let exec_start_ms = ms(origin, exec_start);
    let exec_end_ms = ms(origin, exec_end);
    let picked_ms = ms(origin, picked_at);

    let mut members = Vec::with_capacity(batch_requests);
    let mut spans = Vec::new();
    for (id, enqueued_at) in arrivals {
        let enqueued_ms = ms(origin, enqueued_at);
        let t = TraceId(id);
        let interval = |kind, start: f64, end: f64| Span {
            trace: t,
            server: ServerId::MAIN,
            kind,
            start,
            duration: (end - start).max(0.0),
            cpu: false,
        };
        spans.push(interval(SpanKind::QueueWait, enqueued_ms, picked_ms));
        spans.push(interval(SpanKind::BatchAssembly, picked_ms, exec_start_ms));
        spans.push(interval(SpanKind::BatchExecute, exec_start_ms, exec_end_ms));
        spans.push(interval(SpanKind::RequestE2E, enqueued_ms, exec_end_ms));
        members.push(BatchMember {
            id,
            enqueued_ms,
            prediction: predictions.as_mut().and_then(Iterator::next),
        });
    }

    {
        let mut tc = trace.lock().expect("trace collector lock poisoned");
        for s in spans {
            tc.record(s);
        }
        // Re-base the executor's spans (op CPU time, RPC outstanding
        // windows) onto the frontend clock under the lead request's
        // trace. Its own RequestE2E is dropped — the frontend's E2E
        // (admission → predictions split) supersedes it.
        for s in engine_spans.spans() {
            if s.kind == SpanKind::RequestE2E {
                continue;
            }
            tc.record(Span {
                start: s.start + exec_start_ms,
                ..s.clone()
            });
        }
    }
    batches
        .lock()
        .expect("batch record lock poisoned")
        .push(BatchRecord {
            seq,
            epoch,
            picked_ms,
            exec_start_ms,
            exec_end_ms,
            rpc,
            failure_cause,
            members,
        });
}
