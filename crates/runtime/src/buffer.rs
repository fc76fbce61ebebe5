//! Recycled `Vec` backing stores: `f32` for dense activations, `u64`
//! and `u32` for sparse indices and lengths.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// A free list of `Vec<T>` backing stores.
///
/// [`acquire`](Self::acquire) returns a zeroed vector of the requested
/// length, reusing a recycled allocation of the smallest size class that
/// fits; [`release`](Self::release) returns a store to the free list. After one warm-up request has populated the list with every
/// shape the model produces, subsequent identical requests allocate
/// nothing — the property the [`fresh_allocs`](Self::fresh_allocs)
/// counter lets tests assert.
///
/// The pool keeps what its users ask for: it holds at most as many idle
/// stores as were ever handed out and not yet returned at once (the
/// peak of its own demand), however many stores other pools release
/// into it. When it is full, the largest stores win — a larger store
/// serves any request a smaller one would — and the rest spill to the
/// pool this one was built over ([`Self::spilling_to`]), or are freed.
///
/// # Examples
///
/// ```
/// use dlrm_runtime::BufferPool;
///
/// let pool: BufferPool = BufferPool::new();
/// let a = pool.acquire(128);
/// pool.release(a);
/// let b = pool.acquire(100); // reuses the 128-capacity store
/// assert_eq!(b.len(), 100);
/// assert_eq!(pool.fresh_allocs(), 1);
/// assert_eq!(pool.reuses(), 1);
/// ```
#[derive(Debug)]
pub struct BufferPool<T: 'static = f32> {
    free: Mutex<FreeList<T>>,
    spill: Option<&'static BufferPool<T>>,
    fresh_allocs: AtomicU64,
    reuses: AtomicU64,
}

/// One size class per power of two of capacity (a `u64` bit each).
const CLASSES: usize = 64;

/// The size class of a non-zero capacity: `floor(log2(cap))`.
fn class_of(cap: usize) -> usize {
    (usize::BITS - 1 - cap.leading_zeros()) as usize
}

/// The capacity a pool allocates for a request of `len` elements: the
/// next power of two, so the store lands in the one class every store
/// of which fits the requests that reach it.
fn fresh_capacity(len: usize) -> usize {
    len.max(1).checked_next_power_of_two().unwrap_or(len)
}

#[derive(Debug)]
struct FreeList<T> {
    /// Idle stores by size class: every store in `classes[k]` has a
    /// capacity in `[2^k, 2^(k+1))`. The class lists keep their own
    /// capacity, so a warm pool moves stores in and out without
    /// allocating.
    classes: [Vec<Vec<T>>; CLASSES],
    /// Bit `k` set: `classes[k]` holds a store.
    nonempty: u64,
    idle: usize,
    /// Stores handed out and not returned yet (any release counts as a
    /// return, so it saturates at zero).
    out: usize,
    /// The most stores ever out at once: the bound on `idle`.
    peak: usize,
}

impl<T> FreeList<T> {
    fn push(&mut self, store: Vec<T>) {
        let k = class_of(store.capacity());
        self.idle += 1;
        self.nonempty |= 1 << k;
        self.classes[k].push(store);
    }

    /// An idle store of the smallest class whose every store holds at
    /// least `len` elements (the class of `len` rounded up to a power of
    /// two). Taken in O(classes): a pool's own stores have power-of-two
    /// capacities ([`fresh_capacity`]), so a request never scans a class
    /// for one that fits.
    fn fit(&self, len: usize) -> Option<usize> {
        let first = class_of(fresh_capacity(len));
        let above = self.nonempty.checked_shr(first as u32).unwrap_or(0);
        (above != 0).then(|| first + above.trailing_zeros() as usize)
    }

    /// Hands out a store for `len` elements, counting it as out.
    fn take(&mut self, len: usize) -> Option<Vec<T>> {
        self.out += 1;
        self.peak = self.peak.max(self.out);
        self.fit(len).map(|k| self.pop(k))
    }

    /// Takes a store back: kept while the pool holds less than its peak
    /// demand; when full, the larger of it and an idle store of the
    /// smallest class is kept and the other returned as overflow.
    fn keep(&mut self, store: Vec<T>) -> Option<Vec<T>> {
        self.out = self.out.saturating_sub(1);
        if self.idle < self.peak {
            self.push(store);
            return None;
        }
        match self.fit(0) {
            Some(k)
                if self.classes[k]
                    .last()
                    .is_some_and(|v| v.capacity() < store.capacity()) =>
            {
                let evicted = self.pop(k);
                self.push(store);
                Some(evicted)
            }
            _ => Some(store),
        }
    }

    fn pop(&mut self, class: usize) -> Vec<T> {
        self.idle -= 1;
        let store = self.classes[class]
            .pop()
            .expect("fit names a non-empty class");
        if self.classes[class].is_empty() {
            self.nonempty &= !(1 << class);
        }
        store
    }
}

/// The process-wide pool every worker's `f32` pool spills into: where
/// the shard services draw their pooled-output stores, so a store that
/// left a shard in a reply comes back to a shard after the batch that
/// read it is recycled.
static SHARED: BufferPool = BufferPool::new();

impl<T> Default for BufferPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl BufferPool {
    /// The process-wide `f32` pool: shard services take their pooled
    /// outputs from it, and every pool built with
    /// [`Self::spilling_to`] it receives what that pool cannot keep.
    #[must_use]
    pub fn shared() -> &'static BufferPool {
        &SHARED
    }
}

impl<T> BufferPool<T> {
    /// An empty pool whose overflow is freed.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            free: Mutex::new(FreeList {
                classes: [const { Vec::new() }; CLASSES],
                nonempty: 0,
                idle: 0,
                out: 0,
                peak: 0,
            }),
            spill: None,
            fresh_allocs: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
        }
    }

    /// An empty pool whose overflow goes to `spill` instead of being
    /// freed.
    #[must_use]
    pub const fn spilling_to(spill: &'static BufferPool<T>) -> Self {
        let mut pool = Self::new();
        pool.spill = Some(spill);
        pool
    }

    fn lock(&self) -> MutexGuard<'_, FreeList<T>> {
        self.free.lock().expect("buffer pool poisoned")
    }

    /// An idle store with room for `len` elements, its old contents
    /// still in it (a reuse), or a fresh empty one (a fresh allocation).
    fn take(&self, len: usize) -> Vec<T> {
        let taken = self.lock().take(len);
        let counter = if taken.is_some() {
            &self.reuses
        } else {
            &self.fresh_allocs
        };
        counter.fetch_add(1, Ordering::Relaxed);
        taken.unwrap_or_else(|| Vec::with_capacity(fresh_capacity(len)))
    }

    /// Returns an empty `Vec` with room for at least `capacity`
    /// elements, reusing a recycled store when one fits.
    #[must_use]
    pub fn acquire_empty(&self, capacity: usize) -> Vec<T> {
        let mut v = self.take(capacity);
        v.clear();
        v
    }

    /// Returns a backing store to the free list. A pool already holding
    /// its peak demand keeps the larger of this store and an idle one of
    /// its smallest class and spills the other; zero-capacity stores are
    /// dropped.
    pub fn release(&self, buffer: Vec<T>) {
        if buffer.capacity() == 0 {
            return;
        }
        let kept = self.lock().keep(buffer);
        if let (Some(overflow), Some(spill)) = (kept, self.spill) {
            // The spill pool's own overflow is freed.
            let _ = spill.lock().keep(overflow);
        }
    }

    /// Number of heap allocations performed because no recycled store
    /// fit. Flat across steady-state requests.
    #[must_use]
    pub fn fresh_allocs(&self) -> u64 {
        self.fresh_allocs.load(Ordering::Relaxed)
    }

    /// Number of acquisitions served from the free list.
    #[must_use]
    pub fn reuses(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }

    /// Buffers currently idle on the free list.
    #[must_use]
    pub fn pooled_buffers(&self) -> usize {
        self.lock().idle
    }
}

impl<T: Copy + Default> BufferPool<T> {
    /// Returns a zeroed `Vec` of exactly `len` elements, reusing a
    /// recycled store of the smallest size class that fits (keeping big
    /// stores for big requests).
    #[must_use]
    pub fn acquire(&self, len: usize) -> Vec<T> {
        let mut v = self.acquire_empty(len);
        v.resize(len, T::default());
        v
    }
}

impl BufferPool {
    /// [`Self::acquire`] without the zero fill: a `Vec` of exactly `len`
    /// elements whose contents are whatever the recycled store held, for
    /// a caller that writes every element before reading any (the SLS
    /// kernel's pooled outputs). Debug builds fill the store with NaN
    /// first, so a caller that reads an element it did not write fails
    /// every bit-exactness test instead of passing by luck.
    #[must_use]
    pub fn acquire_unzeroed(&self, len: usize) -> Vec<f32> {
        let mut v = self.take(len);
        v.truncate(len);
        if cfg!(debug_assertions) {
            v.clear();
            v.resize(len, f32::NAN);
        }
        v.resize(len, 0.0);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pool that has handed out `n` stores at once and taken them back.
    fn warmed(n: usize, len: usize) -> BufferPool {
        let pool = BufferPool::new();
        let stores: Vec<_> = (0..n).map(|_| pool.acquire(len)).collect();
        stores.into_iter().for_each(|s| pool.release(s));
        pool
    }

    #[test]
    fn acquire_zeroes_recycled_contents() {
        let pool = BufferPool::new();
        let mut v = pool.acquire(32);
        v.fill(7.0);
        pool.release(v);
        let v = pool.acquire(16);
        assert_eq!(v, vec![0.0; 16]);
    }

    #[test]
    fn unzeroed_acquire_is_poisoned_in_debug_builds() {
        let pool = warmed(1, 8);
        let v = pool.acquire_unzeroed(4);
        assert_eq!(v.len(), 4);
        assert_eq!(v.iter().all(|x| x.is_nan()), cfg!(debug_assertions));
    }

    #[test]
    fn best_fit_prefers_smallest_adequate_store() {
        let pool = warmed(2, 1);
        // Hold the warm-up stores: only the two below are idle.
        let _held = (pool.acquire(1), pool.acquire(1));
        pool.release(Vec::with_capacity(1000));
        pool.release(Vec::with_capacity(10));
        let v = pool.acquire(8);
        assert!(v.capacity() < 1000, "should have reused the 10-cap store");
        assert_eq!(pool.pooled_buffers(), 1);
    }

    #[test]
    fn undersized_stores_are_not_reused() {
        let pool = warmed(1, 4);
        let _ = pool.acquire(1000);
        assert_eq!(pool.fresh_allocs(), 2);
        assert_eq!(pool.reuses(), 0);
        assert_eq!(pool.pooled_buffers(), 1, "small store stays pooled");
    }

    #[test]
    fn pool_keeps_its_peak_demand_and_the_largest_stores() {
        let pool = warmed(3, 8);
        // Foreign stores beyond the peak: the largest three stay.
        for cap in [100, 2, 50, 1] {
            pool.release(vec![0.0; cap]);
        }
        assert_eq!(pool.pooled_buffers(), 3);
        let caps: Vec<_> = (0..3).map(|_| pool.acquire(1).capacity()).collect();
        assert_eq!(caps, vec![8, 50, 100]);
        assert_eq!(pool.fresh_allocs(), 3, "only the warm-up allocated");
    }

    #[test]
    fn overflow_spills_to_the_pool_underneath() {
        static UNDER: BufferPool = BufferPool::new();
        let pool = BufferPool::spilling_to(&UNDER);
        // UNDER's own demand: one store out at once.
        UNDER.release(UNDER.acquire(4));
        pool.release(vec![0.0; 16]);
        assert_eq!(
            pool.pooled_buffers(),
            0,
            "a pool that never acquired keeps nothing"
        );
        assert_eq!(UNDER.pooled_buffers(), 1);
        assert_eq!(UNDER.acquire(16).capacity(), 16);
    }

    #[test]
    fn steady_state_allocates_nothing() {
        let pool = BufferPool::<u64>::new();
        let round = || {
            let (a, b, c) = (pool.acquire_empty(64), pool.acquire(128), pool.acquire(32));
            // Foreign stores released beside them change nothing.
            pool.release(vec![0; 7]);
            pool.release(a);
            pool.release(b);
            pool.release(c);
        };
        round();
        let after_warmup = pool.fresh_allocs();
        for _ in 0..10 {
            round();
        }
        assert_eq!(pool.fresh_allocs(), after_warmup);
    }
}
