//! The ready queue: every lane's formed batches behind one lock, with
//! weighted-fair pickup and per-lane backpressure.
//!
//! Batchers [`push`](ReadyQueue::push) closed batches into their lane;
//! workers **block** in [`pop`](ReadyQueue::pop) until some lane has a
//! batch, and the [`WeightedDispatch`] credits decide which lane is
//! served when several do. Each lane holds at most `bound` formed
//! batches: a batcher holding one more blocks until a worker makes
//! room, its admission queue backs up behind it, and the queue sheds —
//! so sustained overload is turned away at admission instead of piling
//! up here without limit.

use super::batcher::FormedBatch;
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Smooth weighted round-robin over lanes with ready batches: each
/// pick adds every lane's weight to its running credit, serves the
/// highest-credit lane that has work, and charges it the total weight.
/// Credits are clamped so an idle lane cannot bank unbounded priority,
/// and change only when a batch is actually picked.
#[derive(Debug)]
pub(crate) struct WeightedDispatch {
    credits: Vec<i64>,
    weights: Vec<i64>,
    total: i64,
}

impl WeightedDispatch {
    pub(crate) fn new(weights: &[u64]) -> Self {
        let weights: Vec<i64> = weights.iter().map(|&w| w as i64).collect();
        let total = weights.iter().sum();
        Self {
            credits: vec![0; weights.len()],
            weights,
            total,
        }
    }

    /// Picks the lane to serve among those `has_work` accepts and
    /// charges it; `None` (credits untouched) when no lane has work.
    /// Ties go to the lower lane index.
    pub(crate) fn pick(&mut self, has_work: impl Fn(usize) -> bool) -> Option<usize> {
        let cap = self.total * 2;
        let lane = (0..self.credits.len())
            .filter(|&i| has_work(i))
            .max_by_key(|&i| ((self.credits[i] + self.weights[i]).min(cap), Reverse(i)))?;
        for (c, &w) in self.credits.iter_mut().zip(&self.weights) {
            *c = (*c + w).min(cap);
        }
        self.credits[lane] -= self.total;
        Some(lane)
    }
}

#[derive(Debug)]
struct Ready {
    lanes: Vec<VecDeque<FormedBatch>>,
    dispatch: WeightedDispatch,
    /// Batchers that may still push; workers exit once this is zero
    /// and every lane is empty.
    open_batchers: usize,
    /// Workers still popping; a batcher blocked on a full lane gives up
    /// when this reaches zero (every worker panicked).
    live_workers: usize,
    /// Sequence number of the next popped batch (unique per run).
    next_seq: u64,
}

/// See the module docs.
#[derive(Debug)]
pub(crate) struct ReadyQueue {
    state: Mutex<Ready>,
    /// Workers wait here for a batch, or for the last batcher to close.
    batch_ready: Condvar,
    /// Batchers wait here for room in their lane.
    room: Condvar,
    /// The ticking caller waits here for the last batcher to close.
    all_closed: Condvar,
    /// Formed batches one lane may hold.
    bound: usize,
}

/// Marks one worker live until dropped — on a clean exit or a panic.
pub(crate) struct WorkerGuard<'a>(&'a ReadyQueue);

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        // Runs during a panic too, so tolerate a poisoned lock.
        let mut st = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.live_workers -= 1;
        drop(st);
        self.0.room.notify_all();
    }
}

impl ReadyQueue {
    /// A queue of one lane per weight, each bounded to `workers` formed
    /// batches, expecting one batcher per lane and `workers` workers.
    pub(crate) fn new(weights: &[u64], workers: usize) -> Self {
        Self {
            state: Mutex::new(Ready {
                lanes: weights.iter().map(|_| VecDeque::new()).collect(),
                dispatch: WeightedDispatch::new(weights),
                open_batchers: weights.len(),
                live_workers: workers,
                next_seq: 0,
            }),
            batch_ready: Condvar::new(),
            room: Condvar::new(),
            all_closed: Condvar::new(),
            bound: workers,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Ready> {
        self.state.lock().expect("ready queue lock poisoned")
    }

    /// Registers the calling worker; hold the guard for the worker's
    /// whole loop.
    pub(crate) fn worker(&self) -> WorkerGuard<'_> {
        WorkerGuard(self)
    }

    /// Hands `batch` to the workers, blocking while `lane` already
    /// holds its bound. Returns `false` (dropping the batch) only when
    /// no worker is left to execute it.
    pub(crate) fn push(&self, lane: usize, batch: FormedBatch) -> bool {
        let mut st = self.lock();
        while st.lanes[lane].len() >= self.bound && st.live_workers > 0 {
            st = self.room.wait(st).expect("ready queue lock poisoned");
        }
        if st.live_workers == 0 {
            return false;
        }
        st.lanes[lane].push_back(batch);
        drop(st);
        self.batch_ready.notify_one();
        true
    }

    /// One batcher is done pushing (its admission queue disconnected).
    pub(crate) fn close(&self) {
        let mut st = self.lock();
        st.open_batchers -= 1;
        if st.open_batchers == 0 {
            drop(st);
            self.batch_ready.notify_all();
            self.all_closed.notify_all();
        }
    }

    /// Blocks for the next batch in weighted-fair order and returns
    /// `(lane, batch sequence number, batch)`; `None` once every
    /// batcher has closed and every lane has drained.
    pub(crate) fn pop(&self) -> Option<(usize, u64, FormedBatch)> {
        let mut st = self.lock();
        loop {
            let Ready {
                lanes, dispatch, ..
            } = &mut *st;
            if let Some(lane) = dispatch.pick(|i| !lanes[i].is_empty()) {
                let was_full = lanes[lane].len() >= self.bound;
                let batch = lanes[lane].pop_front().expect("picked lane has a batch");
                let seq = st.next_seq;
                st.next_seq += 1;
                drop(st);
                if was_full {
                    self.room.notify_all();
                }
                return Some((lane, seq, batch));
            }
            if st.open_batchers == 0 {
                return None;
            }
            st = self
                .batch_ready
                .wait(st)
                .expect("ready queue lock poisoned");
        }
    }

    /// Blocks until every batcher has closed or `deadline` passes;
    /// returns whether any batcher is still open.
    pub(crate) fn wait_closed(&self, deadline: Instant) -> bool {
        let mut st = self.lock();
        while st.open_batchers > 0 {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return true;
            };
            st = self
                .all_closed
                .wait_timeout(st, left)
                .expect("ready queue lock poisoned")
                .0;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn batch() -> FormedBatch {
        FormedBatch {
            entries: Vec::new(),
            closed_at: Instant::now(),
        }
    }

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
    fn one_lane_pops_in_push_order_then_ends() {
        let q = ReadyQueue::new(&[1], 2);
        assert!(q.push(0, batch()));
        assert!(q.push(0, batch()));
        q.close();
        assert_eq!(q.pop().map(|(l, s, _)| (l, s)), Some((0, 0)));
        assert_eq!(q.pop().map(|(l, s, _)| (l, s)), Some((0, 1)));
        assert!(q.pop().is_none());
        assert!(!q.wait_closed(Instant::now()));
    }

    #[test]
    fn full_lane_blocks_its_batcher_until_a_worker_pops() {
        let q = ReadyQueue::new(&[1, 1], 1);
        assert!(q.push(0, batch()));
        std::thread::scope(|s| {
            let blocked = s.spawn(|| q.push(0, batch()));
            // The other lane is not held up by lane 0 being full.
            assert!(q.push(1, batch()));
            std::thread::sleep(Duration::from_millis(20));
            assert!(!blocked.is_finished(), "push past the bound must block");
            assert!(q.pop().is_some());
            assert!(blocked.join().unwrap());
        });
    }

    #[test]
    fn blocked_batcher_gives_up_when_the_last_worker_dies() {
        let q = ReadyQueue::new(&[1], 1);
        let guard = q.worker();
        assert!(q.push(0, batch()));
        std::thread::scope(|s| {
            let blocked = s.spawn(|| q.push(0, batch()));
            drop(guard);
            assert!(!blocked.join().unwrap());
        });
    }

    #[test]
    fn wait_closed_times_out_while_a_batcher_is_open() {
        let q = ReadyQueue::new(&[1], 1);
        assert!(q.wait_closed(Instant::now() + Duration::from_millis(5)));
        q.close();
        assert!(!q.wait_closed(Instant::now() + Duration::from_secs(60)));
    }
}
