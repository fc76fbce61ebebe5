//! Open-loop load generation: replaying an arrival schedule in wall time.
//!
//! The generator never waits for responses — it sleeps to each scheduled
//! offset and offers the request, exactly like DeepRecSys's load
//! generator: if the system falls behind, the queue (and then the shed
//! counter) absorbs the difference, which is what makes queueing delay
//! measurable at all.

use super::queue::Admitter;
use super::FrontendRequest;
use dlrm_workload::ArrivalSchedule;
use std::time::{Duration, Instant};

/// One admitted request in flight through the frontend pipeline.
#[derive(Debug)]
pub(crate) struct QueuedRequest {
    /// The request's identity and inputs.
    pub(crate) request: FrontendRequest,
    /// When the load generator enqueued it (the E2E clock start).
    pub(crate) enqueued_at: Instant,
}

/// Replays `schedule` against `requests` in wall time, offering each
/// request at its scheduled offset from `origin`. Requests the queue
/// rejects are dropped (the queue's shed counter records them). Dropping
/// the [`Admitter`] on return is the pipeline's shutdown signal.
///
/// # Panics
///
/// Panics if the schedule and request list differ in length.
pub(crate) fn generate_load(
    origin: Instant,
    schedule: &ArrivalSchedule,
    requests: Vec<FrontendRequest>,
    admitter: Admitter<'_, QueuedRequest>,
) {
    assert_eq!(
        schedule.len(),
        requests.len(),
        "arrival schedule and request list must pair 1:1"
    );
    for (&offset_ms, request) in schedule.offsets_ms().iter().zip(requests) {
        let target = origin + Duration::from_secs_f64(offset_ms / 1e3);
        if let Some(wait) = target.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        // Shed requests are accounted by the queue and dropped here.
        let _ = admitter.offer(QueuedRequest {
            request,
            enqueued_at: Instant::now(),
        });
    }
    // admitter drops here: the lane closes, workers exit once all drain.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::queue::LaneQueues;
    use dlrm_tensor::Matrix;

    fn req(id: u64) -> FrontendRequest {
        FrontendRequest {
            id,
            inputs: dlrm_workload::BatchInputs {
                dense: Matrix::zeros(1, 1),
                sparse: Vec::new(),
            },
        }
    }

    #[test]
    fn replays_every_arrival_in_schedule_order() {
        let schedule = ArrivalSchedule::poisson(20, 5000.0, 3);
        let queues = LaneQueues::new(&[(1, 32)], 1, 32);
        let origin = Instant::now();
        generate_load(origin, &schedule, (0..20).map(req).collect(), queues.admitter(0));
        let mut ids = Vec::new();
        while let Some((_, _, batch)) = queues.pickup() {
            for q in batch {
                assert!(q.enqueued_at >= origin);
                ids.push(q.request.id);
            }
        }
        assert_eq!(ids, (0..20).collect::<Vec<u64>>());
        let s = queues.stats(0);
        assert_eq!(s.offered, 20);
        assert_eq!(s.admitted + s.shed, 20);
    }

    #[test]
    fn open_loop_sheds_when_nobody_consumes() {
        let schedule = ArrivalSchedule::poisson(10, 50_000.0, 1);
        let queues = LaneQueues::new(&[(1, 2)], 1, 2);
        let requests = (0..10).map(req).collect();
        generate_load(Instant::now(), &schedule, requests, queues.admitter(0));
        let s = queues.stats(0);
        assert_eq!(s.offered, 10);
        assert_eq!(s.admitted, 2);
        assert_eq!(s.shed, 8);
    }

    #[test]
    #[should_panic(expected = "1:1")]
    fn mismatched_lengths_rejected() {
        let schedule = ArrivalSchedule::poisson(3, 100.0, 1);
        let queues = LaneQueues::new(&[(1, 4)], 1, 4);
        generate_load(Instant::now(), &schedule, vec![req(0)], queues.admitter(0));
    }
}
