//! In-tree MPSC channels for the thread-backed shard transport.
//!
//! The threaded shard pool needs a channel whose `Sender` is `Sync`
//! (shard client handles are shared behind `Arc<dyn SparseShardClient>`
//! across concurrently executing batches), which `std::sync::mpsc`
//! cannot provide. Rather than depending on an external crate, this
//! module implements the two shapes the transport uses — unbounded
//! request queues and bounded (rendezvous-free) reply slots — on std's
//! `Mutex`/`Condvar`.
//!
//! Semantics match the crossbeam subset the transport relied on:
//!
//! - `Sender` is `Clone + Send + Sync`; `Receiver` is single-consumer.
//! - `send` on a bounded channel blocks while the queue is full.
//! - Dropping the receiver disconnects the channel: pending and future
//!   `send`s fail with [`SendError`], and blocked senders wake.
//! - Dropping every sender disconnects the channel: `recv` drains the
//!   queue, then fails with [`RecvError`].

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Error returned by [`Sender::send`] when the receiver is gone; carries
/// the unsent message back to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sending on a disconnected channel")
    }
}

/// Error returned by [`Receiver::recv_timeout`] / [`Receiver::recv_deadline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The wait expired with the channel still empty but senders alive.
    /// Distinguishable from [`RecvTimeoutError::Disconnected`] so a
    /// deadline-driven waiter can tell "not yet" from "never".
    Timeout,
    /// The channel is empty and every sender is gone.
    Disconnected,
}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => write!(f, "receive timed out on an empty channel"),
            RecvTimeoutError::Disconnected => {
                write!(f, "receiving on an empty, disconnected channel")
            }
        }
    }
}

/// Error returned by [`Receiver::recv`] when the channel is empty and
/// every sender is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "receiving on an empty, disconnected channel")
    }
}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel is currently empty but senders remain.
    Empty,
    /// The channel is empty and every sender is gone.
    Disconnected,
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// Signaled when the queue gains an item or the last sender leaves.
    not_empty: Condvar,
    /// Signaled when the queue loses an item or the receiver leaves
    /// (bounded channels only block on this).
    not_full: Condvar,
    /// `None` = unbounded.
    capacity: Option<usize>,
}

/// Creates an unbounded channel: `send` never blocks.
#[must_use]
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    channel(None)
}

/// Creates a bounded channel: `send` blocks while `capacity` messages
/// are queued.
///
/// # Panics
///
/// Panics if `capacity` is zero (rendezvous channels are not needed by
/// the transport and deliberately unsupported).
#[must_use]
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "bounded channel needs capacity >= 1");
    channel(Some(capacity))
}

fn channel<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receiver_alive: true,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        capacity,
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// The sending half: cloneable and shareable across threads (`Sync`).
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Sender<T> {
    /// Enqueues `value`, blocking while a bounded channel is full.
    ///
    /// # Errors
    ///
    /// Returns the value if the receiver has been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut state = self.shared.state.lock().expect("channel lock");
        loop {
            if !state.receiver_alive {
                return Err(SendError(value));
            }
            match self.shared.capacity {
                Some(cap) if state.queue.len() >= cap => {
                    state = self
                        .shared
                        .not_full
                        .wait(state)
                        .expect("channel lock");
                }
                _ => break,
            }
        }
        state.queue.push_back(value);
        drop(state);
        self.shared.not_empty.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.state.lock().expect("channel lock").senders += 1;
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().expect("channel lock");
        state.senders -= 1;
        let last = state.senders == 0;
        drop(state);
        if last {
            // Wake a receiver blocked on an empty queue so it can
            // observe the disconnect.
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sender")
            .field("capacity", &self.shared.capacity)
            .finish_non_exhaustive()
    }
}

/// The receiving half: single-consumer.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Receiver<T> {
    /// Dequeues the next message, blocking while the channel is empty
    /// and senders remain.
    ///
    /// # Errors
    ///
    /// Returns [`RecvError`] once the channel is empty and every sender
    /// has been dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.shared.state.lock().expect("channel lock");
        loop {
            if let Some(value) = state.queue.pop_front() {
                drop(state);
                self.shared.not_full.notify_one();
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state = self
                .shared
                .not_empty
                .wait(state)
                .expect("channel lock");
        }
    }

    /// Dequeues the next message, blocking at most until `deadline`.
    ///
    /// The disconnect check runs before the deadline check, so a message
    /// queued behind the last sender's drop is still drained, and a
    /// dead channel reports [`RecvTimeoutError::Disconnected`] even when
    /// the deadline has already passed.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] once `deadline` passes with the
    /// channel still empty; [`RecvTimeoutError::Disconnected`] when the
    /// channel is empty and every sender is gone.
    pub fn recv_deadline(&self, deadline: Instant) -> Result<T, RecvTimeoutError> {
        let mut state = self.shared.state.lock().expect("channel lock");
        loop {
            if let Some(value) = state.queue.pop_front() {
                drop(state);
                self.shared.not_full.notify_one();
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            let Some(wait) = deadline.checked_duration_since(now).filter(|w| !w.is_zero())
            else {
                return Err(RecvTimeoutError::Timeout);
            };
            let (guard, _timeout) = self
                .shared
                .not_empty
                .wait_timeout(state, wait)
                .expect("channel lock");
            state = guard;
        }
    }

    /// Dequeues the next message, blocking at most `timeout`. A timeout
    /// too large to represent as a deadline (`Instant::now() + timeout`
    /// would overflow, e.g. `Duration::MAX`) means "wait forever".
    ///
    /// # Errors
    ///
    /// Same contract as [`Receiver::recv_deadline`].
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        match Instant::now().checked_add(timeout) {
            Some(deadline) => self.recv_deadline(deadline),
            None => self.recv().map_err(|_| RecvTimeoutError::Disconnected),
        }
    }

    /// Dequeues the next message without blocking.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] if no message is queued,
    /// [`TryRecvError::Disconnected`] if additionally no sender remains.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut state = self.shared.state.lock().expect("channel lock");
        if let Some(value) = state.queue.pop_front() {
            drop(state);
            self.shared.not_full.notify_one();
            return Ok(value);
        }
        if state.senders == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().expect("channel lock");
        state.receiver_alive = false;
        // Release queued messages: nobody will ever receive them, and
        // they may own resources whose Drop others block on (a shard
        // worker's queued envelopes hold reply Senders — dropping them
        // here turns an issued-but-never-served RPC's collect into an
        // error instead of a hang).
        let orphaned: VecDeque<T> = std::mem::take(&mut state.queue);
        drop(state);
        // Wake senders blocked on a full bounded queue so their sends
        // fail instead of hanging.
        self.shared.not_full.notify_all();
        // Drop outside the lock: a message's Drop may touch the channel.
        drop(orphaned);
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Receiver")
            .field("capacity", &self.shared.capacity)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn unbounded_round_trip_preserves_order() {
        let (tx, rx) = unbounded();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        for i in 0..100 {
            assert_eq!(rx.recv().unwrap(), i);
        }
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn sender_shared_across_threads_delivers_everything() {
        // The transport's shape: one receiver (worker), many concurrent
        // senders (batch executors sharing cloned client handles).
        let (tx, rx) = unbounded::<usize>();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..250 {
                        tx.send(t * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        for h in threads {
            h.join().unwrap();
        }
        assert_eq!(got.len(), 8 * 250);
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), 8 * 250, "duplicated or lost messages");
    }

    #[test]
    fn bounded_backpressure_blocks_until_drained() {
        let (tx, rx) = bounded::<u32>(2);
        let sent = Arc::new(AtomicUsize::new(0));
        let sent_in_thread = Arc::clone(&sent);
        let producer = std::thread::spawn(move || {
            for i in 0..4 {
                tx.send(i).unwrap();
                sent_in_thread.fetch_add(1, Ordering::SeqCst);
            }
        });
        // The producer can buffer at most the capacity without help.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(sent.load(Ordering::SeqCst), 2, "send did not block at capacity");
        // Draining unblocks it.
        for i in 0..4 {
            assert_eq!(rx.recv().unwrap(), i);
        }
        producer.join().unwrap();
        assert_eq!(sent.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn dropping_receiver_fails_senders() {
        // The shutdown path ShardPool::shutdown relies on: once
        // the worker (receiver) is gone, client sends error out rather
        // than hanging — including senders blocked on a full queue.
        let (tx, rx) = bounded::<u8>(1);
        tx.send(1).unwrap();
        let tx2 = tx.clone();
        let blocked = std::thread::spawn(move || tx2.send(2));
        std::thread::sleep(Duration::from_millis(30));
        drop(rx);
        assert_eq!(blocked.join().unwrap(), Err(SendError(2)));
        assert_eq!(tx.send(3), Err(SendError(3)));
    }

    #[test]
    fn dropping_all_senders_disconnects_after_drain() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        tx.send("a").unwrap();
        tx2.send("b").unwrap();
        drop(tx);
        drop(tx2);
        // Queued messages still arrive, then the disconnect is observed.
        assert_eq!(rx.recv(), Ok("a"));
        assert_eq!(rx.recv(), Ok("b"));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn recv_blocks_until_a_message_arrives() {
        let (tx, rx) = unbounded();
        let consumer = std::thread::spawn(move || rx.recv().unwrap());
        std::thread::sleep(Duration::from_millis(20));
        tx.send(42u64).unwrap();
        assert_eq!(consumer.join().unwrap(), 42);
    }

    #[test]
    #[should_panic(expected = "capacity >= 1")]
    fn zero_capacity_rejected() {
        let _ = bounded::<u8>(0);
    }

    #[test]
    fn recv_timeout_times_out_on_an_open_empty_channel() {
        let (tx, rx) = unbounded::<u8>();
        let t0 = std::time::Instant::now();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(30)),
            Err(RecvTimeoutError::Timeout)
        );
        assert!(t0.elapsed() >= Duration::from_millis(30));
        // The channel is still usable after a timeout.
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(30)), Ok(9));
    }

    #[test]
    fn recv_timeout_reports_disconnect_not_timeout() {
        // A pending RPC's wait depends on telling these apart: Timeout =
        // still pending, Disconnected = the worker is gone.
        let (tx, rx) = unbounded::<u8>();
        tx.send(1).unwrap();
        drop(tx);
        // Queued message drains first, even with an expired deadline...
        assert_eq!(rx.recv_deadline(Instant::now()), Ok(1));
        // ...then the disconnect is observed (never Timeout).
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected)
        );
        assert_eq!(
            rx.recv_deadline(Instant::now()),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn recv_deadline_wakes_on_message_before_deadline() {
        let (tx, rx) = unbounded::<u64>();
        let consumer = std::thread::spawn(move || rx.recv_timeout(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        tx.send(42).unwrap();
        assert_eq!(consumer.join().unwrap(), Ok(42));
    }

    #[test]
    fn recv_deadline_wakes_on_sender_drop_before_deadline() {
        let (tx, rx) = unbounded::<u64>();
        let consumer = std::thread::spawn(move || {
            let t0 = std::time::Instant::now();
            let r = rx.recv_timeout(Duration::from_secs(10));
            (r, t0.elapsed())
        });
        std::thread::sleep(Duration::from_millis(20));
        drop(tx);
        let (r, waited) = consumer.join().unwrap();
        assert_eq!(r, Err(RecvTimeoutError::Disconnected));
        assert!(waited < Duration::from_secs(5), "hung until deadline");
    }

    #[test]
    fn recv_timeout_with_overflowing_timeout_waits_instead_of_panicking() {
        // Regression: `Instant::now() + Duration::MAX` panics; an
        // unrepresentable deadline must degrade to "wait forever".
        let (tx, rx) = unbounded::<u8>();
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::MAX), Ok(9));
        // And a disconnect still wakes it rather than hanging.
        let consumer = std::thread::spawn(move || rx.recv_timeout(Duration::MAX));
        std::thread::sleep(Duration::from_millis(10));
        drop(tx);
        assert_eq!(consumer.join().unwrap(), Err(RecvTimeoutError::Disconnected));
    }

    #[test]
    fn dropping_receiver_releases_queued_messages() {
        // Queued messages may own the reply side of another channel; the
        // receiver's Drop must release them so dependents disconnect.
        let (tx, rx) = unbounded::<Sender<u8>>();
        let (reply_tx, reply_rx) = bounded::<u8>(1);
        tx.send(reply_tx).unwrap();
        drop(rx);
        // The queued reply sender is gone: its receiver sees disconnect
        // rather than blocking forever.
        assert_eq!(reply_rx.recv(), Err(RecvError));
    }
}
