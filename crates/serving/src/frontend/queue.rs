//! The lane queues: every lane's admitted requests behind one lock,
//! with shed-at-admission and weighted-fair batch pickup.
//!
//! Open-loop serving needs an explicit admission decision: when arrivals
//! outpace service, either the queue grows without bound (and every
//! request eventually misses its SLA) or excess requests are *shed* at
//! the door and counted against latency-bounded throughput. Generators
//! [`offer`](Admitter::offer) into their lane's bounded queue, which
//! never blocks; a free worker **blocks** in
//! [`pickup`](LaneQueues::pickup) until some lane holds a request, the
//! [`WeightedDispatch`] credits decide which lane is served when
//! several do, and the worker takes what that lane *already holds*, up
//! to the batch cap. No request waits while a worker is idle, and a
//! batch grows exactly as far as the workers are the bottleneck. The
//! counters live under the same lock, so the report can state the
//! accounting identity `offered == admitted + shed` exactly.

use std::cmp::Reverse;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// A point-in-time snapshot of one lane's admission counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Requests presented for admission.
    pub offered: u64,
    /// Requests accepted into the queue.
    pub admitted: u64,
    /// Requests rejected (queue full or no worker left to serve them).
    pub shed: u64,
    /// Requests currently queued (admitted, not yet picked up).
    pub depth: usize,
    /// High-water mark of `depth` over the queue's lifetime.
    pub max_depth: usize,
}

/// Smooth weighted round-robin over the lanes that have queued
/// requests: each pick adds every such lane's weight to its running
/// credit, serves the highest-credit one, and charges it what was
/// added. A lane with nothing queued is left out of the round
/// entirely, so sitting idle banks no credit and being served alone
/// runs up no debt; credits change only when a batch is actually
/// picked.
#[derive(Debug)]
pub(crate) struct WeightedDispatch {
    credits: Vec<i64>,
    weights: Vec<i64>,
}

impl WeightedDispatch {
    pub(crate) fn new(weights: &[u64]) -> Self {
        Self {
            credits: vec![0; weights.len()],
            weights: weights.iter().map(|&w| w as i64).collect(),
        }
    }

    /// Picks the lane to serve among those `has_work` accepts and
    /// charges it; `None` (credits untouched) when no lane has work.
    /// Ties go to the lower lane index.
    pub(crate) fn pick(&mut self, has_work: impl Fn(usize) -> bool) -> Option<usize> {
        let with_work = || (0..self.weights.len()).filter(|&i| has_work(i));
        let lane = with_work().max_by_key(|&i| (self.credits[i] + self.weights[i], Reverse(i)))?;
        let mut round = 0;
        for i in with_work() {
            self.credits[i] += self.weights[i];
            round += self.weights[i];
        }
        self.credits[lane] -= round;
        Some(lane)
    }
}

#[derive(Debug)]
struct LaneQueue<T> {
    requests: VecDeque<T>,
    capacity: usize,
    /// `depth` is read off `requests` at snapshot time.
    stats: QueueStats,
}

#[derive(Debug)]
struct State<T> {
    lanes: Vec<LaneQueue<T>>,
    dispatch: WeightedDispatch,
    /// Generators that may still offer; workers exit once this is zero
    /// and every lane is empty.
    open_generators: usize,
    /// Workers still picking up; at zero (every worker panicked) an
    /// offer sheds, since nothing admitted could ever complete.
    live_workers: usize,
    /// Workers waiting for a request (an offer skips the wake-up
    /// syscall when nobody is).
    idle_workers: usize,
    /// Sequence number of the next picked batch (unique per run).
    next_seq: u64,
}

/// See the module docs.
#[derive(Debug)]
pub(crate) struct LaneQueues<T> {
    state: Mutex<State<T>>,
    /// Workers wait here for a request, or for the last generator to
    /// close.
    work: Condvar,
    /// The ticking caller waits here for the last generator to close.
    all_closed: Condvar,
    /// Requests one pickup may take.
    max_batch: usize,
}

/// One lane's producer end: offers requests, shedding on overflow.
/// Dropping it (on the generator's return or panic) closes the lane.
#[derive(Debug)]
pub(crate) struct Admitter<'a, T> {
    queues: &'a LaneQueues<T>,
    lane: usize,
}

/// Marks one worker live until dropped — on a clean exit or a panic.
pub(crate) struct WorkerGuard<'a, T>(&'a LaneQueues<T>);

impl<T> LaneQueues<T> {
    /// One queue per `(weight, capacity)` lane, expecting one
    /// [`Admitter`] per lane and `workers` workers that each take at
    /// most `max_batch` requests per pickup.
    ///
    /// # Panics
    ///
    /// Panics on a zero capacity (such a lane sheds everything).
    pub(crate) fn new(lanes: &[(u64, usize)], workers: usize, max_batch: usize) -> Self {
        assert!(
            lanes.iter().all(|&(_, capacity)| capacity > 0),
            "admission queue capacity must be non-zero"
        );
        let weights: Vec<u64> = lanes.iter().map(|&(weight, _)| weight).collect();
        Self {
            state: Mutex::new(State {
                lanes: lanes
                    .iter()
                    .map(|&(_, capacity)| LaneQueue {
                        requests: VecDeque::new(),
                        capacity,
                        stats: QueueStats::default(),
                    })
                    .collect(),
                dispatch: WeightedDispatch::new(&weights),
                open_generators: lanes.len(),
                live_workers: workers,
                idle_workers: 0,
                next_seq: 0,
            }),
            work: Condvar::new(),
            all_closed: Condvar::new(),
            max_batch,
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().expect("lane queue lock poisoned")
    }

    /// The producer end of `lane`; take exactly one per lane.
    pub(crate) fn admitter(&self, lane: usize) -> Admitter<'_, T> {
        Admitter { queues: self, lane }
    }

    /// Registers the calling worker; hold the guard for the worker's
    /// whole loop.
    pub(crate) fn worker(&self) -> WorkerGuard<'_, T> {
        WorkerGuard(self)
    }

    /// Blocks until some lane holds a request, then takes what the
    /// weighted-fair pick's lane already holds — up to `max_batch`, in
    /// admission order — and returns `(lane, batch sequence number,
    /// requests)`; `None` once every generator has closed and every
    /// lane has drained.
    pub(crate) fn pickup(&self) -> Option<(usize, u64, Vec<T>)> {
        let mut st = self.lock();
        loop {
            let State {
                lanes, dispatch, ..
            } = &mut *st;
            if let Some(lane) = dispatch.pick(|i| !lanes[i].requests.is_empty()) {
                let queued = &mut lanes[lane].requests;
                let take = queued.len().min(self.max_batch);
                let batch = queued.drain(..take).collect();
                let seq = st.next_seq;
                st.next_seq += 1;
                return Some((lane, seq, batch));
            }
            if st.open_generators == 0 {
                return None;
            }
            st.idle_workers += 1;
            st = self.work.wait(st).expect("lane queue lock poisoned");
            st.idle_workers -= 1;
        }
    }

    /// Blocks until every generator has closed or `deadline` passes;
    /// returns whether any generator is still open.
    pub(crate) fn wait_closed(&self, deadline: Instant) -> bool {
        let mut st = self.lock();
        while st.open_generators > 0 {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return true;
            };
            st = self
                .all_closed
                .wait_timeout(st, left)
                .expect("lane queue lock poisoned")
                .0;
        }
        false
    }

    /// `lane`'s counters as of now.
    pub(crate) fn stats(&self, lane: usize) -> QueueStats {
        let st = self.lock();
        let lane = &st.lanes[lane];
        QueueStats {
            depth: lane.requests.len(),
            ..lane.stats
        }
    }
}

impl<T> Admitter<'_, T> {
    /// Offers one request; never blocks. Returns `Ok(())` on admission;
    /// on a full queue (or with every worker gone) the request is shed
    /// and handed back as `Err` so the caller can account for it.
    pub(crate) fn offer(&self, value: T) -> Result<(), T> {
        let mut st = self.queues.lock();
        let serving = st.live_workers > 0;
        let lane = &mut st.lanes[self.lane];
        lane.stats.offered += 1;
        if !serving || lane.requests.len() >= lane.capacity {
            lane.stats.shed += 1;
            return Err(value);
        }
        lane.requests.push_back(value);
        lane.stats.admitted += 1;
        lane.stats.max_depth = lane.stats.max_depth.max(lane.requests.len());
        let wake = st.idle_workers > 0;
        drop(st);
        if wake {
            self.queues.work.notify_one();
        }
        Ok(())
    }
}

impl<T> Drop for Admitter<'_, T> {
    fn drop(&mut self) {
        // Runs during a panic too, so tolerate a poisoned lock.
        let mut st = (self.queues.state.lock()).unwrap_or_else(PoisonError::into_inner);
        st.open_generators -= 1;
        if st.open_generators == 0 {
            drop(st);
            self.queues.work.notify_all();
            self.queues.all_closed.notify_all();
        }
    }
}

impl<T> Drop for WorkerGuard<'_, T> {
    fn drop(&mut self) {
        // Runs during a panic too, so tolerate a poisoned lock.
        let mut st = (self.0.state.lock()).unwrap_or_else(PoisonError::into_inner);
        st.live_workers -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn serve_round(d: &mut WeightedDispatch, picks: usize) -> Vec<usize> {
        (0..picks).map(|_| d.pick(|_| true).unwrap()).collect()
    }

    #[test]
    fn dispatch_serves_by_weight_and_credits_do_not_accrue_while_idle() {
        let mut fresh = WeightedDispatch::new(&[3, 1]);
        let served = serve_round(&mut fresh, 40);
        assert_eq!(
            served.iter().filter(|&&l| l == 0).count(),
            30,
            "3:1 serves 3:1"
        );

        // Thousands of polls that find no work (what an idle worker
        // used to do every 200 µs) must leave the credits untouched, so
        // the contention that follows is served exactly like a fresh
        // dispatcher would: 3:1 within one round, in the same order.
        let mut fresh = WeightedDispatch::new(&[3, 1]);
        let mut idled = WeightedDispatch::new(&[3, 1]);
        for _ in 0..10_000 {
            assert_eq!(idled.pick(|_| false), None);
        }
        assert_eq!(idled.credits, vec![0, 0]);
        let round = serve_round(&mut idled, 4);
        assert_eq!(round, serve_round(&mut fresh, 4));
        assert_eq!(round.iter().filter(|&&l| l == 0).count(), 3);
    }

    #[test]
    fn sheds_beyond_capacity_and_counts_exactly() {
        let q = LaneQueues::<u32>::new(&[(1, 2)], 1, 8);
        let adm = q.admitter(0);
        assert!(adm.offer(1).is_ok());
        assert!(adm.offer(2).is_ok());
        assert_eq!(adm.offer(3), Err(3));
        assert_eq!(adm.offer(4), Err(4));
        let s = q.stats(0);
        assert_eq!((s.offered, s.admitted, s.shed), (4, 2, 2));
        assert_eq!((s.depth, s.max_depth), (2, 2));
        // A pickup frees the slots it took.
        assert_eq!(q.pickup(), Some((0, 0, vec![1, 2])));
        assert_eq!(q.stats(0).depth, 0);
        assert!(adm.offer(5).is_ok());
        assert_eq!(q.stats(0).max_depth, 2);
    }

    /// Pull semantics, no timer anywhere: `k` requests offered before
    /// the first pickup form batches of exactly `min(k, cap)` and then
    /// the remainder, in admission order — including the remainder
    /// left behind by a generator that has already finished.
    #[test]
    fn pickup_takes_what_is_there_up_to_the_cap_in_fifo_order() {
        for (k, cap) in [(1usize, 4usize), (3, 4), (4, 4), (5, 2), (9, 4), (7, 1)] {
            let q = LaneQueues::<usize>::new(&[(1, 16)], 1, cap);
            let adm = q.admitter(0);
            let offered: Vec<usize> = (0..k).collect();
            for &v in &offered {
                adm.offer(v).unwrap();
            }
            drop(adm);
            let mut batches = Vec::new();
            while let Some((lane, seq, batch)) = q.pickup() {
                assert_eq!((lane, seq), (0, batches.len() as u64));
                batches.push(batch);
            }
            let want: Vec<&[usize]> = offered.chunks(cap).collect();
            assert_eq!(batches, want, "k {k}, cap {cap}");
            assert!(!q.wait_closed(Instant::now()));
        }
    }

    #[test]
    fn a_parked_worker_starts_on_the_first_offer_without_waiting_for_company() {
        let q = LaneQueues::<u32>::new(&[(1, 8)], 1, 8);
        let adm = q.admitter(0);
        use std::sync::Barrier;
        let (parked, picked, offered) = (Barrier::new(2), Barrier::new(2), Barrier::new(2));
        std::thread::scope(|s| {
            let worker = s.spawn(|| {
                parked.wait();
                let first = q.pickup();
                picked.wait();
                // Both later offers are in before the next pickup, so
                // what it takes does not depend on who runs first.
                offered.wait();
                (first, q.pickup(), q.pickup())
            });
            parked.wait();
            adm.offer(7).unwrap();
            // Nothing else arrives until the lone request was taken: a
            // batcher that held it for company would hang here.
            picked.wait();
            adm.offer(8).unwrap();
            adm.offer(9).unwrap();
            offered.wait();
            drop(adm);
            let (first, rest, end) = worker.join().unwrap();
            assert_eq!(first, Some((0, 0, vec![7])));
            assert_eq!(rest, Some((0, 1, vec![8, 9])));
            assert_eq!(end, None);
        });
    }

    /// Two backlogged lanes at 3:1 are picked 3:1 — after lane 1 sat
    /// empty through 400 picks of lane 0: the idle lane banked no
    /// credit and the lane served alone ran up no debt, so contention
    /// is split exactly as from a fresh start.
    #[test]
    fn backlogged_lanes_are_picked_by_weight_and_an_idle_lane_banks_no_credit() {
        let q = LaneQueues::<u32>::new(&[(3, 2048), (1, 2048)], 1, 2);
        let (busy, idle) = (q.admitter(0), q.admitter(1));
        for v in 0..2048 {
            busy.offer(v).unwrap();
        }
        for _ in 0..400 {
            assert_eq!(q.pickup().unwrap().0, 0);
        }
        for v in 0..1024 {
            idle.offer(v).unwrap();
        }
        let mut picks = [0usize; 2];
        for _ in 0..400 {
            let (lane, _, batch) = q.pickup().unwrap();
            assert_eq!(batch.len(), 2);
            picks[lane] += 1;
        }
        assert_eq!(picks, [300, 100]);
    }

    #[test]
    fn offers_shed_once_every_worker_is_gone() {
        let q = LaneQueues::<u32>::new(&[(1, 4)], 2, 4);
        let adm = q.admitter(0);
        let (a, b) = (q.worker(), q.worker());
        assert!(adm.offer(1).is_ok());
        drop(a);
        assert!(adm.offer(2).is_ok(), "one worker still serves");
        drop(b);
        assert_eq!(adm.offer(3), Err(3), "room in the queue, nobody to serve it");
        let s = q.stats(0);
        assert_eq!((s.offered, s.admitted, s.shed), (3, 2, 1));
    }

    #[test]
    fn wait_closed_times_out_while_a_generator_is_open() {
        let q = LaneQueues::<u32>::new(&[(1, 1), (1, 1)], 1, 1);
        let (a, b) = (q.admitter(0), q.admitter(1));
        drop(a);
        assert!(q.wait_closed(Instant::now() + Duration::from_millis(5)));
        drop(b);
        assert!(!q.wait_closed(Instant::now() + Duration::from_secs(60)));
        assert_eq!(q.pickup(), None);
    }
}
