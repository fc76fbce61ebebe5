//! SLA-aware serving frontend over the real distributed engine.
//!
//! The paper characterizes sharded inference under serving conditions —
//! tail latency under production request streams (§V) — but an engine
//! alone only answers closed-loop questions. This subsystem supplies
//! the serving tier in front of PR 2's overlapped executor. There is
//! one run loop, [`serve`], over any number of *lanes* (one request
//! stream each):
//!
//! ```text
//!  per lane:  ArrivalSchedule ──▶ load generator (open loop, wall clock)
//!                                    │ offer (never blocks)
//!                             bounded lane queue ── full? ──▶ shed
//!                                    │
//!  shared:    all lane queues behind one lock, weighted-fair pick
//!                                    │ blocking pickup: what the lane
//!                                    │ already holds, ≤ max_batch_requests
//!             worker pool (OS threads): resolve the lane's epoch,
//!                          merge, run_overlapped, split predictions
//!                                    │
//!             per lane:  LaneRun ──▶ FrontendReport (SLA hit rate, breakdown, trace)
//! ```
//!
//! Every lane reads an [`EpochSwitch`]: [`run_frontend`] is one lane
//! whose switch never publishes; [`crate::tenancy::run_tenant_set`] is
//! one lane per tenant, each behind the tenant's own.
//! **Batching is work-conserving**: a
//! batch is formed by the worker that will run it, at the moment it
//! becomes free, from the requests already queued — nothing holds a
//! request back hoping for company, so a request arriving at an idle
//! frontend starts executing one wake-up later, and batches grow
//! exactly when, and as far as, the workers are the bottleneck.
//! **Shedding happens at admission and only there**: a request is
//! either in its lane's queue (at most `queue_capacity`) or in a batch
//! a worker is executing (at most `max_batch_requests` per worker), so
//! at most `queue_capacity + workers · max_batch_requests` of a lane's
//! requests are in the system, for a burst or for sustained overload
//! alike, and further arrivals are turned away at the door.
//!
//! Determinism: arrival schedules and request inputs are seeded
//! ([`dlrm_workload::ArrivalSchedule`], [`materialize_frontend_requests`]),
//! so *what* is offered is exactly reproducible; *measured* latencies
//! are wall-clock and vary run to run, which is why the smoke gates pin
//! accounting identities and generous SLA bands rather than exact times.
//! Batching is semantically invisible — a batch of N requests produces
//! bit-identical predictions to N single-request runs (property-tested
//! in `tests/frontend_properties.rs`).

mod arrival;
pub(crate) mod batcher;
mod queue;
pub(crate) mod sla;
mod worker;

pub use batcher::{merge_inputs, split_rows};
pub use queue::QueueStats;
pub use sla::{BatchMember, BatchRecord, FrontendReport};

use crate::epoch::EpochSwitch;
use dlrm_model::ModelSpec;
use dlrm_sharding::DistributedModel;
use dlrm_trace::TraceCollector;
use dlrm_workload::{
    materialize_request, ArrivalSchedule, BatchInputs, OnlineProfiler, RequestShape, TraceDb,
};
use queue::LaneQueues;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use worker::LaneSink;

/// Frontend tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontendConfig {
    /// Lane-queue slots; arrivals beyond this are shed.
    pub queue_capacity: usize,
    /// The most requests one worker pickup merges into a batch.
    pub max_batch_requests: usize,
    /// Unused: batches form at pickup and nothing waits on a timer.
    /// Declared only while `sysbench/` builds this struct field by
    /// field; the next benchmark PR deletes it.
    pub batch_timeout: Duration,
    /// The SLA window end-to-end latency is judged against.
    pub sla: Duration,
    /// Worker threads picking up and executing batches.
    pub workers: usize,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            max_batch_requests: 8,
            batch_timeout: Duration::ZERO,
            sla: Duration::from_millis(100),
            workers: 2,
        }
    }
}

/// One inference request as the frontend sees it: an id (also its trace
/// id) plus fully materialized inputs.
#[derive(Debug, Clone)]
pub struct FrontendRequest {
    /// Request id; unique per run.
    pub id: u64,
    /// The request's dense and sparse inputs (one engine batch).
    pub inputs: BatchInputs,
}

/// Materializes one request shape whole, as a single engine batch — the
/// form the frontend batches and every dual-read probe replays.
#[must_use]
pub(crate) fn materialize_whole(
    spec: &ModelSpec,
    shape: &RequestShape,
    seed: u64,
) -> BatchInputs {
    materialize_request(spec, shape, usize::MAX, seed)
        .into_iter()
        .next()
        .expect("request shapes have at least one item")
}

/// Materializes every shape in `db` into a [`FrontendRequest`], one
/// engine batch per request (the frontend decides at pickup how
/// requests group, so request inputs are not pre-split).
#[must_use]
pub fn materialize_frontend_requests(
    spec: &ModelSpec,
    db: &TraceDb,
    seed: u64,
) -> Vec<FrontendRequest> {
    db.iter()
        .map(|shape| FrontendRequest {
            id: shape.id,
            inputs: materialize_whole(spec, shape, seed),
        })
        .collect()
}

/// One request stream through [`serve`]: what is offered and when, its
/// own bounded queue and SLA, its share of the workers, and where its
/// batches execute.
#[derive(Debug)]
pub struct Lane<'a> {
    /// The requests, offered in schedule order.
    pub requests: Vec<FrontendRequest>,
    /// Open-loop arrival offsets (must pair 1:1 with `requests`).
    pub schedule: &'a ArrivalSchedule,
    /// Lane-queue slots; overload sheds here.
    pub queue_capacity: usize,
    /// The SLA window this lane's report is judged against.
    pub sla: Duration,
    /// Dispatch weight: share of worker capacity under contention.
    pub weight: u64,
    /// Fed every admitted batch's sparse lookups, when given.
    pub profiler: Option<&'a OnlineProfiler>,
    /// Where the lane's batches execute: the switch's current epoch,
    /// resolved once per batch, so a cutover published mid-run takes
    /// effect at the next batch pickup.
    pub switch: &'a EpochSwitch,
}

impl<'a> Lane<'a> {
    /// A weight-1, unprofiled lane taking its queue capacity and SLA
    /// from `cfg`.
    #[must_use]
    pub fn new(
        switch: &'a EpochSwitch,
        requests: Vec<FrontendRequest>,
        schedule: &'a ArrivalSchedule,
        cfg: &FrontendConfig,
    ) -> Self {
        Self {
            requests,
            schedule,
            queue_capacity: cfg.queue_capacity,
            sla: cfg.sla,
            weight: 1,
            profiler: None,
            switch,
        }
    }
}

/// What one lane of a [`serve`] run measured.
#[derive(Debug)]
pub struct LaneRun {
    /// The lane's admission counters.
    pub queue: QueueStats,
    /// One record per executed batch, in completion order; together
    /// their members are every admitted request.
    pub batches: Vec<BatchRecord>,
    /// The lane's request spans plus its lead requests' executor spans.
    pub trace: TraceCollector,
    /// The lane's SLA window, milliseconds.
    pub sla_ms: f64,
    /// Wall-clock span of the whole run (all lanes), milliseconds.
    pub wall_ms: f64,
}

impl LaneRun {
    /// Folds the lane's counters, batch records and trace into its
    /// report.
    #[must_use]
    pub fn into_report(self) -> FrontendReport {
        let mut report =
            FrontendReport::assemble(self.queue, self.batches, self.sla_ms, self.wall_ms);
        report.trace = self.trace;
        report
    }
}

/// The one serving run loop: drives every lane's open-loop stream to
/// completion. Per lane a load generator replays the schedule into a
/// bounded queue; `workers` shared threads each pick a lane in
/// weighted-fair order, take what it already holds (at most
/// `max_batch_requests`) and execute that batch via
/// [`DistributedModel::run_overlapped`]. With `tick = Some((every, f))`
/// the calling thread runs `f` every `every` while the generators are
/// offering (the pressure controller's seat).
///
/// Shutdown cascades: a generator closes its lane when its schedule
/// ends, and the workers exit once every lane is closed and drained.
///
/// # Panics
///
/// Panics on a zero worker count or batch size, a zero lane weight or
/// queue capacity, or a lane whose schedule and requests differ in
/// length.
#[must_use]
pub fn serve(
    lanes: Vec<Lane<'_>>,
    max_batch_requests: usize,
    workers: usize,
    tick: Option<(Duration, &dyn Fn())>,
) -> Vec<LaneRun> {
    assert!(workers > 0, "need at least one worker");
    assert!(max_batch_requests > 0, "need a non-zero batch size");
    assert!(
        lanes.iter().all(|l| l.weight > 0),
        "lanes need a non-zero weight"
    );
    let shapes: Vec<(u64, usize)> = lanes.iter().map(|l| (l.weight, l.queue_capacity)).collect();
    let queues = LaneQueues::new(&shapes, workers, max_batch_requests);

    let mut streams = Vec::with_capacity(lanes.len());
    let mut sinks = Vec::with_capacity(lanes.len());
    for lane in lanes {
        assert_eq!(
            lane.schedule.len(),
            lane.requests.len(),
            "arrival schedule and request list must pair 1:1"
        );
        sinks.push(LaneSink {
            switch: lane.switch,
            profiler: lane.profiler,
            batches: Mutex::new(Vec::new()),
            trace: Mutex::new(TraceCollector::new()),
            sla_ms: lane.sla.as_secs_f64() * 1e3,
        });
        streams.push((lane.schedule, lane.requests));
    }

    let origin = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| worker::worker_loop(&sinks, &queues, origin));
        }
        for (i, (schedule, requests)) in streams.into_iter().enumerate() {
            let admitter = queues.admitter(i);
            s.spawn(move || arrival::generate_load(origin, schedule, requests, admitter));
        }
        if let Some((every, tick)) = tick {
            while queues.wait_closed(Instant::now() + every) {
                tick();
            }
        }
    });
    let wall_ms = origin.elapsed().as_secs_f64() * 1e3;

    sinks
        .into_iter()
        .enumerate()
        .map(|(i, sink)| LaneRun {
            queue: queues.stats(i),
            batches: sink.batches.into_inner().expect("batches lock poisoned"),
            trace: sink.trace.into_inner().expect("trace lock poisoned"),
            sla_ms: sink.sla_ms,
            wall_ms,
        })
        .collect()
}

/// Drives one open-loop serving run of a single lane serving `model`
/// through a switch that never publishes (every batch's epoch 0) to
/// completion under `cfg`, folded into its [`FrontendReport`].
///
/// # Panics
///
/// Panics if `schedule` and `requests` differ in length or `cfg` has a
/// zero worker count, batch size, or queue capacity.
#[must_use]
pub fn run_frontend(
    model: &DistributedModel,
    requests: Vec<FrontendRequest>,
    schedule: &ArrivalSchedule,
    cfg: &FrontendConfig,
) -> FrontendReport {
    let switch = EpochSwitch::new(model.clone());
    let lane = Lane::new(&switch, requests, schedule, cfg);
    serve(vec![lane], cfg.max_batch_requests, cfg.workers, None)
        .pop()
        .expect("one lane in, one run out")
        .into_report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_model::{build_model, rm};
    use dlrm_sharding::{partition, plan, ShardingStrategy};
    use dlrm_workload::PoolingProfile;

    fn small_distributed() -> (DistributedModel, TraceDb) {
        let mut spec = rm::rm1().scaled_to_bytes(1 << 20);
        spec.mean_items_per_request = 4.0;
        spec.default_batch_size = 4;
        let profile = PoolingProfile::from_spec(&spec);
        let p = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(2)).unwrap();
        let model = build_model(&spec, 3).unwrap();
        let dist = partition(model, &p).unwrap();
        let db = TraceDb::generate(&spec, 12, 5);
        (dist, db)
    }

    #[test]
    fn seeded_run_accounts_for_every_offered_request() {
        let (dist, db) = small_distributed();
        let requests = materialize_frontend_requests(&dist.spec, &db, 7);
        let schedule = ArrivalSchedule::poisson(requests.len(), 2000.0, 7);
        let cfg = FrontendConfig {
            queue_capacity: 32,
            max_batch_requests: 4,
            sla: Duration::from_millis(250),
            workers: 2,
            ..FrontendConfig::default()
        };
        let report = run_frontend(&dist, requests, &schedule, &cfg);
        assert_eq!(report.offered, 12);
        assert_eq!(report.offered, report.admitted + report.shed);
        assert_eq!(report.completed + report.failed, report.admitted);
        assert_eq!(report.failed, 0);
        assert_eq!(report.predictions.len(), report.completed as usize);
        assert!(report.batches >= 1);
        // Every completed request has frontend spans in the trace.
        for (id, _) in &report.predictions {
            let spans: Vec<_> = report.trace.of_trace(dlrm_trace::TraceId(*id)).collect();
            assert!(
                spans
                    .iter()
                    .any(|s| s.kind == dlrm_trace::SpanKind::QueueWait),
                "request {id} missing QueueWait span"
            );
            assert!(
                spans
                    .iter()
                    .any(|s| s.kind == dlrm_trace::SpanKind::RequestE2E),
                "request {id} missing RequestE2E span"
            );
        }
    }
}
