//! Deterministic fork-join worker pool.
//!
//! The pool is a *scope-style* fork-join runtime: a parallel region
//! partitions its work into contiguous chunks, forks the chunks onto
//! OS threads, and joins before returning. Because this crate is
//! `#![forbid(unsafe_code)]`, regions borrow their inputs through
//! [`std::thread::scope`] — the only sound fork-join over borrowed
//! data in safe Rust — rather than handing lifetime-erased closures to
//! long-lived threads. The [`Pool`] handle itself is persistent: it
//! carries the worker count (the `DLRM_THREADS` knob), the resolved
//! SIMD [`KernelDispatch`] decision (the `DLRM_SIMD` knob), and the
//! grain thresholds kernels consult; forking is only performed when a
//! region's work is large enough to amortize the fork.
//!
//! # Determinism
//!
//! Chunk boundaries are a pure function of `(data length, chunk_len)`:
//! the same boundaries [`slice::chunks_mut`] would produce. Worker
//! count only changes which thread runs a chunk, never what a chunk
//! computes, so any kernel whose chunks are independent (every
//! row-parallel kernel in this workspace) is bit-exact across thread
//! counts.

use crate::dispatch::KernelDispatch;
use std::ops::Range;
use std::sync::Mutex;

/// Minimum number of lookups before a SparseLengthsSum forks the pool;
/// below this the fork overhead dominates the pooling work.
const SLS_PAR_MIN_LOOKUPS: usize = 2048;

/// Fork-join worker pool; the `pool` module's docs state its
/// determinism contract.
///
/// # Examples
///
/// ```
/// use dlrm_runtime::Pool;
///
/// let sums = Pool::new(2).run_chunks(10, 3, |r| r.sum::<usize>());
/// assert_eq!(sums, vec![0 + 1 + 2, 3 + 4 + 5, 6 + 7 + 8, 9]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
    dispatch: KernelDispatch,
}

impl Default for Pool {
    fn default() -> Self {
        Self::sequential()
    }
}

impl Pool {
    /// A pool that forks parallel regions across up to `threads`
    /// workers (the forking thread counts as one of them), running the
    /// process-detected SIMD dispatch.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self::with_dispatch(threads, KernelDispatch::detect())
    }

    /// A pool with an explicit SIMD dispatch decision — how tests and
    /// benches pin a kernel tier independently of the host CPU and the
    /// `DLRM_SIMD` environment.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn with_dispatch(threads: usize, dispatch: KernelDispatch) -> Self {
        assert!(threads > 0, "pool needs at least one worker");
        Self { threads, dispatch }
    }

    /// The SIMD kernel-dispatch decision kernels forked on this pool
    /// consult. Dispatch never changes *what* is computed for the exact
    /// tiers (scalar, AVX2 and AVX-512 are bitwise-equal by
    /// construction), only how fast.
    #[must_use]
    pub fn dispatch(&self) -> KernelDispatch {
        self.dispatch
    }

    /// A single-worker pool: every region runs inline on the calling
    /// thread with zero forking overhead.
    #[must_use]
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// A pool sized by the `DLRM_THREADS` environment variable, falling
    /// back to [`std::thread::available_parallelism`] (and to 1 when
    /// even that is unavailable). Invalid or zero values of the
    /// variable are ignored.
    #[must_use]
    pub fn from_env() -> Self {
        let threads = std::env::var("DLRM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            });
        Self::new(threads)
    }

    /// Maximum workers a region forks across.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` over every `chunk_len`-sized chunk of `data` (the last
    /// chunk may be shorter), in parallel across the pool's workers.
    /// `f` receives the chunk's starting offset within `data` and the
    /// chunk itself; chunks are disjoint `&mut` slices, so each output
    /// element is owned by exactly one task.
    ///
    /// Chunk boundaries are exactly those of
    /// [`data.chunks_mut(chunk_len)`](slice::chunks_mut) regardless of
    /// worker count — the determinism contract.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero, and propagates the first panic
    /// raised inside `f`.
    pub fn par_chunks_mut<T, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk_len > 0, "chunk_len must be positive");
        let n_chunks = data.len().div_ceil(chunk_len);
        let workers = self.threads.min(n_chunks);
        if workers <= 1 {
            for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
                f(i * chunk_len, chunk);
            }
            return;
        }
        // Contiguous runs of whole chunks per worker, so chunk
        // boundaries stay aligned with the sequential partition.
        let base = n_chunks / workers;
        let extra = n_chunks % workers;
        std::thread::scope(|scope| {
            let f = &f;
            let mut rest = data;
            let mut offset = 0usize;
            let mut own: Option<(usize, &mut [T])> = None;
            for w in 0..workers {
                let chunks_here = base + usize::from(w < extra);
                let elems = (chunks_here * chunk_len).min(rest.len());
                let (mine, tail) = std::mem::take(&mut rest).split_at_mut(elems);
                rest = tail;
                let start = offset;
                offset += elems;
                if w + 1 == workers {
                    // The forking thread works too, saving one spawn.
                    own = Some((start, mine));
                } else {
                    scope.spawn(move || {
                        for (i, chunk) in mine.chunks_mut(chunk_len).enumerate() {
                            f(start + i * chunk_len, chunk);
                        }
                    });
                }
            }
            if let Some((start, mine)) = own {
                for (i, chunk) in mine.chunks_mut(chunk_len).enumerate() {
                    f(start + i * chunk_len, chunk);
                }
            }
        });
    }

    /// The bag-parallel SparseLengthsSum driver every table kind pools
    /// through: bag `b` owns the next `lengths[b]` entries of `indices`
    /// and the `dim` floats of `out` at `b · dim`. `f` pools one
    /// contiguous run of bags — `(indices, lengths, out_rows)` — and is
    /// called once with everything when the run is too small to fork,
    /// or once per worker with that worker's bags. Each output row is
    /// pooled by exactly one call, so the result does not depend on the
    /// worker count.
    ///
    /// A run whose lengths do not cover its indices cannot be split; it
    /// goes to `f` whole, for `f` to reject.
    ///
    /// # Errors
    ///
    /// The error of the earliest run `f` failed on.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `lengths.len() × dim` or a forking run has
    /// `dim == 0`, and propagates the first panic raised inside `f`.
    pub fn par_bags<E, F>(
        &self,
        indices: &[u64],
        lengths: &[u32],
        dim: usize,
        out: &mut [f32],
        f: F,
    ) -> Result<(), E>
    where
        E: Send,
        F: Fn(&[u64], &[u32], &mut [f32]) -> Result<(), E> + Sync,
    {
        assert_eq!(out.len(), lengths.len() * dim, "output must be one row per bag");
        let total: usize = lengths.iter().map(|&l| l as usize).sum();
        if self.threads <= 1
            || total < SLS_PAR_MIN_LOOKUPS
            || lengths.len() <= 1
            || total != indices.len()
        {
            return f(indices, lengths, out);
        }
        // Cursor positions are a prefix sum over lengths, so a chunk of
        // bags needs its starting offset into `indices`.
        let mut offsets: Vec<usize> = Vec::with_capacity(lengths.len() + 1);
        let mut cursor = 0usize;
        for &len in lengths {
            offsets.push(cursor);
            cursor += len as usize;
        }
        offsets.push(cursor);
        let first_error: Mutex<Option<(usize, E)>> = Mutex::new(None);
        let bags_per_chunk = lengths.len().div_ceil(self.threads);
        self.par_chunks_mut(out, bags_per_chunk * dim, |start, chunk| {
            let b0 = start / dim;
            let b1 = b0 + chunk.len() / dim;
            let run = &indices[offsets[b0]..offsets[b1]];
            if let Err(e) = f(run, &lengths[b0..b1], chunk) {
                let mut slot = first_error.lock().expect("no panic while holding the slot");
                if slot.as_ref().is_none_or(|(at, _)| b0 < *at) {
                    *slot = Some((b0, e));
                }
            }
        });
        match first_error.into_inner().expect("no panic while holding the slot") {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }

    /// Runs `f` over every `grain`-sized index range of `0..n_items`
    /// (the last range may be shorter) in parallel, returning the
    /// per-chunk results in chunk order — the read-only / reduction
    /// companion of [`Self::par_chunks_mut`]. Range boundaries depend
    /// only on `(n_items, grain)`, so per-chunk results are
    /// deterministic; any final reduction over the returned `Vec`
    /// happens on the calling thread in chunk order.
    ///
    /// # Panics
    ///
    /// Panics if `grain` is zero, and propagates the first panic raised
    /// inside `f`.
    pub fn run_chunks<R, F>(&self, n_items: usize, grain: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        assert!(grain > 0, "grain must be positive");
        let n_chunks = n_items.div_ceil(grain);
        let mut results: Vec<Option<R>> = Vec::new();
        results.resize_with(n_chunks, || None);
        self.par_chunks_mut(&mut results, 1, |chunk_idx, slot| {
            let start = chunk_idx * grain;
            slot[0] = Some(f(start..(start + grain).min(n_items)));
        });
        results
            .into_iter()
            .map(|r| r.expect("every chunk produced a result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn sequential_pool_runs_inline() {
        let pool = Pool::sequential();
        let mut data = vec![0usize; 10];
        pool.par_chunks_mut(&mut data, 4, |start, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = start + i;
            }
        });
        assert_eq!(data, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn chunk_boundaries_match_chunks_mut_for_any_worker_count() {
        for threads in [1, 2, 3, 4, 8, 16] {
            let pool = Pool::new(threads);
            let mut starts = vec![usize::MAX; 11];
            pool.par_chunks_mut(&mut starts, 3, |start, chunk| {
                for v in chunk.iter_mut() {
                    *v = start;
                }
            });
            assert_eq!(
                starts,
                vec![0, 0, 0, 3, 3, 3, 6, 6, 6, 9, 9],
                "threads={threads}"
            );
        }
    }

    #[test]
    fn every_element_visited_exactly_once() {
        let pool = Pool::new(4);
        let mut data = vec![0u32; 1003];
        pool.par_chunks_mut(&mut data, 17, |_, chunk| {
            for v in chunk.iter_mut() {
                *v += 1;
            }
        });
        assert!(data.iter().all(|&v| v == 1));
    }

    #[test]
    fn run_chunks_returns_results_in_order() {
        for threads in [1, 2, 4, 8] {
            let pool = Pool::new(threads);
            let ranges = pool.run_chunks(10, 4, |r| (r.start, r.end));
            assert_eq!(ranges, vec![(0, 4), (4, 8), (8, 10)], "threads={threads}");
        }
    }

    #[test]
    fn run_chunks_parallel_sum_matches_sequential() {
        let data: Vec<u64> = (0..100_000).collect();
        let seq: u64 = data.iter().sum();
        let partials = Pool::new(4).run_chunks(data.len(), 1000, |r| data[r].iter().sum::<u64>());
        assert_eq!(partials.iter().sum::<u64>(), seq);
    }

    #[test]
    fn empty_input_is_a_noop() {
        let pool = Pool::new(4);
        let mut data: Vec<u8> = Vec::new();
        pool.par_chunks_mut(&mut data, 8, |_, _| panic!("no chunks expected"));
        assert!(pool.run_chunks(0, 8, |_| 1).is_empty());
    }

    #[test]
    fn forked_region_actually_uses_multiple_threads_when_asked() {
        // Not a strict guarantee (workers = min(threads, chunks)), but
        // with more chunks than threads every worker gets work.
        let pool = Pool::new(2);
        let distinct = AtomicUsize::new(0);
        let mut data = vec![0u8; 64];
        let main_id = std::thread::current().id();
        pool.par_chunks_mut(&mut data, 8, |_, _| {
            if std::thread::current().id() != main_id {
                distinct.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(distinct.load(Ordering::Relaxed) > 0, "no chunk ran off-thread");
    }

    #[test]
    fn panic_in_chunk_propagates() {
        let result = std::panic::catch_unwind(|| {
            let pool = Pool::new(2);
            let mut data = vec![0u8; 16];
            pool.par_chunks_mut(&mut data, 4, |start, _| {
                assert!(start != 8, "injected chunk failure");
            });
        });
        assert!(result.is_err());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = Pool::new(0);
    }

    #[test]
    #[should_panic(expected = "chunk_len must be positive")]
    fn zero_chunk_len_rejected() {
        Pool::new(2).par_chunks_mut(&mut [0u8; 4], 0, |_, _| {});
    }
}
