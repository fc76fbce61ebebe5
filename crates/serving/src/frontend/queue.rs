//! Bounded admission queue with load shedding and depth accounting.
//!
//! Open-loop serving needs an explicit admission decision: when arrivals
//! outpace service, either the queue grows without bound (and every
//! request eventually misses its SLA) or excess requests are *shed* at
//! the door and counted against latency-bounded throughput. This module
//! implements the shed-at-admission policy over the in-tree bounded
//! channel, with lock-free counters so the report can state the
//! accounting identity `offered == admitted + shed` exactly.

use crate::channel::{self, Receiver, RecvError, RecvTimeoutError, Sender, TrySendError};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Shared admission counters, updated lock-free from both ends.
#[derive(Debug, Default)]
struct QueueCounters {
    offered: AtomicU64,
    admitted: AtomicU64,
    shed: AtomicU64,
    depth: AtomicUsize,
    max_depth: AtomicUsize,
}

/// A point-in-time snapshot of the admission counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Requests presented for admission.
    pub offered: u64,
    /// Requests accepted into the queue.
    pub admitted: u64,
    /// Requests rejected (queue full or pipeline shut down).
    pub shed: u64,
    /// Requests currently queued (admitted, not yet dequeued).
    pub depth: usize,
    /// High-water mark of `depth` over the queue's lifetime.
    pub max_depth: usize,
}

/// A cloneable handle that can snapshot [`QueueStats`] after both queue
/// ends have been dropped.
#[derive(Debug, Clone)]
pub(crate) struct QueueStatsHandle {
    counters: Arc<QueueCounters>,
}

impl QueueStatsHandle {
    /// Current counter values.
    #[must_use]
    pub(crate) fn snapshot(&self) -> QueueStats {
        QueueStats {
            offered: self.counters.offered.load(Ordering::Acquire),
            admitted: self.counters.admitted.load(Ordering::Acquire),
            shed: self.counters.shed.load(Ordering::Acquire),
            depth: self.counters.depth.load(Ordering::Acquire),
            max_depth: self.counters.max_depth.load(Ordering::Acquire),
        }
    }
}

/// The producer end: offers requests, shedding on overflow.
#[derive(Debug)]
pub(crate) struct Admitter<T> {
    tx: Sender<T>,
    counters: Arc<QueueCounters>,
}

/// The consumer end: dequeues admitted requests.
#[derive(Debug)]
pub(crate) struct Dequeuer<T> {
    rx: Receiver<T>,
    counters: Arc<QueueCounters>,
}

/// Creates a bounded admission queue of `capacity` slots.
///
/// # Panics
///
/// Panics if `capacity` is zero (a zero-capacity queue sheds everything).
pub(crate) fn admission_queue<T>(capacity: usize) -> (Admitter<T>, Dequeuer<T>, QueueStatsHandle) {
    assert!(capacity > 0, "admission queue capacity must be non-zero");
    let (tx, rx) = channel::bounded(capacity);
    let counters = Arc::new(QueueCounters::default());
    (
        Admitter {
            tx,
            counters: Arc::clone(&counters),
        },
        Dequeuer {
            rx,
            counters: Arc::clone(&counters),
        },
        QueueStatsHandle { counters },
    )
}

impl<T> Admitter<T> {
    /// Offers one request. Returns `Ok(())` on admission; on a full
    /// queue (or a shut-down consumer) the request is shed and handed
    /// back as `Err` so the caller can account for it.
    pub(crate) fn offer(&self, value: T) -> Result<(), T> {
        self.counters.offered.fetch_add(1, Ordering::AcqRel);
        // Increment depth BEFORE the message becomes visible: once
        // try_send succeeds the consumer may dequeue (and decrement)
        // immediately, so incrementing afterwards could underflow.
        let depth = self.counters.depth.fetch_add(1, Ordering::AcqRel) + 1;
        match self.tx.try_send(value) {
            Ok(()) => {
                self.counters.admitted.fetch_add(1, Ordering::AcqRel);
                self.counters.max_depth.fetch_max(depth, Ordering::AcqRel);
                Ok(())
            }
            Err(TrySendError::Full(v) | TrySendError::Disconnected(v)) => {
                self.counters.depth.fetch_sub(1, Ordering::AcqRel);
                self.counters.shed.fetch_add(1, Ordering::AcqRel);
                Err(v)
            }
        }
    }
}

impl<T> Dequeuer<T> {
    /// Blocks for the next admitted request; `Err` means every
    /// [`Admitter`] is gone and the queue has drained.
    pub(crate) fn recv(&self) -> Result<T, RecvError> {
        let v = self.rx.recv()?;
        self.counters.depth.fetch_sub(1, Ordering::AcqRel);
        Ok(v)
    }

    /// Like [`Self::recv`] but gives up at `deadline` — the primitive
    /// the deadline-driven batcher closes batches with.
    ///
    /// # Errors
    ///
    /// `Timeout` if the deadline passes first; `Disconnected` once every
    /// admitter is dropped and the queue is empty.
    pub(crate) fn recv_deadline(&self, deadline: Instant) -> Result<T, RecvTimeoutError> {
        let v = self.rx.recv_deadline(deadline)?;
        self.counters.depth.fetch_sub(1, Ordering::AcqRel);
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sheds_beyond_capacity_and_counts_exactly() {
        let (adm, deq, stats) = admission_queue::<u32>(2);
        assert!(adm.offer(1).is_ok());
        assert!(adm.offer(2).is_ok());
        assert_eq!(adm.offer(3), Err(3));
        assert_eq!(adm.offer(4), Err(4));
        let s = stats.snapshot();
        assert_eq!(s.offered, 4);
        assert_eq!(s.admitted, 2);
        assert_eq!(s.shed, 2);
        assert_eq!(s.offered, s.admitted + s.shed);
        assert_eq!(s.depth, 2);
        assert_eq!(s.max_depth, 2);
        drop(deq);
    }

    #[test]
    fn depth_decrements_on_dequeue_and_frees_a_slot() {
        let (adm, deq, stats) = admission_queue::<u32>(1);
        assert!(adm.offer(1).is_ok());
        assert_eq!(adm.offer(2), Err(2));
        assert_eq!(deq.recv(), Ok(1));
        assert_eq!(stats.snapshot().depth, 0);
        assert!(adm.offer(3).is_ok());
        assert_eq!(stats.snapshot().max_depth, 1);
    }

    #[test]
    fn dropped_consumer_sheds_instead_of_wedging() {
        let (adm, deq, stats) = admission_queue::<u32>(4);
        drop(deq);
        assert_eq!(adm.offer(1), Err(1));
        assert_eq!(stats.snapshot().shed, 1);
    }

    #[test]
    fn recv_deadline_times_out_then_drains() {
        use std::time::Duration;
        let (adm, deq, _stats) = admission_queue::<u32>(4);
        let deadline = Instant::now() + Duration::from_millis(5);
        assert_eq!(deq.recv_deadline(deadline), Err(RecvTimeoutError::Timeout));
        assert!(adm.offer(7).is_ok());
        assert_eq!(deq.recv_deadline(Instant::now()), Ok(7));
        drop(adm);
        assert_eq!(
            deq.recv_deadline(Instant::now()),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn stats_survive_both_ends_dropping() {
        let (adm, deq, stats) = admission_queue::<u32>(2);
        assert!(adm.offer(1).is_ok());
        assert_eq!(deq.recv(), Ok(1));
        drop(adm);
        drop(deq);
        let s = stats.snapshot();
        assert_eq!(s.offered, 1);
        assert_eq!(s.admitted, 1);
        assert_eq!(s.depth, 0);
    }
}
