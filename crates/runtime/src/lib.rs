//! `dlrm-runtime`: the intra-op parallel kernel runtime.
//!
//! The serving stack exploits extra cores at two granularities:
//! request- and batch-level (the worker pool of
//! `dlrm_serving::frontend::serve`), and — this crate — *operator*-level:
//! one FC GEMM or one SparseLengthsSum pooling pass split across cores.
//! DeepRecSys (Gupta et al., ISCA 2020) shows latency-bounded QPS is
//! gated by exactly these per-operator costs, so the hot kernels in
//! `dlrm-tensor` and `dlrm-model` accept a [`Pool`] and fan their
//! row-parallel loops out through it.
//!
//! # Determinism contract
//!
//! Every parallel region partitions *output rows* into contiguous
//! chunks whose boundaries depend only on the problem shape and the
//! kernel's grain — never on the worker count — and each chunk is
//! computed by exactly one task with the same sequential inner loop the
//! single-threaded kernel uses. There are no cross-thread reductions,
//! so results are **bit-exact** for any thread count (1, 2, 4, 8, …)
//! and identical to sequential execution. The property suites in
//! `crates/tensor/tests` and `crates/model/tests` pin this down.
//!
//! # Allocation reuse
//!
//! [`BufferPool`] recycles the `Vec<f32>` backing stores of dense
//! activations, and the index and length vectors that sparse inputs
//! are routed into for each shard request, between batches, so a
//! steady-state batch performs no buffer heap allocations per table
//! (see [`BufferPool::fresh_allocs`] for the counter the tests assert
//! on).
//!
//! # Examples
//!
//! ```
//! use dlrm_runtime::Pool;
//!
//! let pool = Pool::new(4);
//! let mut data = vec![0u64; 1000];
//! // Each chunk of 128 elements is owned by exactly one task.
//! pool.par_chunks_mut(&mut data, 128, |start, chunk| {
//!     for (i, v) in chunk.iter_mut().enumerate() {
//!         *v = (start + i) as u64;
//!     }
//! });
//! assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod dispatch;
mod pool;

pub use buffer::BufferPool;
pub use dispatch::{level_supported, KernelDispatch, KernelStats, KernelSummary, SimdLevel};
pub use pool::Pool;

use std::sync::Arc;

/// The per-worker execution context threaded through
/// `dlrm_model::Workspace`: the fork-join pool kernels parallelize
/// on, plus the recycled-buffer allocator dense outputs draw from.
///
/// Cloning is cheap (the buffer pool is shared behind an `Arc`), so a
/// serving worker creates one context and clones it into the workspace
/// of every request it executes — that sharing is what makes the
/// steady state allocation-free.
#[derive(Debug, Clone)]
pub struct RuntimeCtx {
    /// Fork-join pool for row-parallel kernels.
    pub pool: Pool,
    /// Recycled `Vec<f32>` backing stores for dense blobs; its overflow
    /// goes to [`BufferPool::shared`], where shard services draw their
    /// pooled outputs.
    pub buffers: Arc<BufferPool>,
    /// Recycled index vectors of sparse blobs and of the shard requests
    /// they are routed into.
    pub indices: Arc<BufferPool<u64>>,
    /// Recycled length vectors of sparse blobs and of the shard requests
    /// they are routed into.
    pub lengths: Arc<BufferPool<u32>>,
}

impl Default for RuntimeCtx {
    fn default() -> Self {
        Self::new(Pool::default())
    }
}

impl RuntimeCtx {
    /// A context running `pool` over a fresh buffer pool.
    #[must_use]
    pub fn new(pool: Pool) -> Self {
        Self {
            pool,
            buffers: Arc::new(BufferPool::spilling_to(BufferPool::shared())),
            indices: Arc::default(),
            lengths: Arc::default(),
        }
    }

    /// A context sized by the `DLRM_THREADS` environment variable,
    /// falling back to the machine's available parallelism (see
    /// [`Pool::from_env`]).
    #[must_use]
    pub fn from_env() -> Self {
        Self::new(Pool::from_env())
    }

    /// A strictly sequential context (one worker, still buffer-pooled).
    #[must_use]
    pub fn sequential() -> Self {
        Self::new(Pool::sequential())
    }

    /// The SIMD kernel-dispatch decision this context's kernels run
    /// under — carried by the pool, resolved once per process (see
    /// [`KernelDispatch::detect`]).
    #[must_use]
    pub fn dispatch(&self) -> KernelDispatch {
        self.pool.dispatch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_clones_share_the_buffer_pool() {
        let ctx = RuntimeCtx::new(Pool::new(2));
        let other = ctx.clone();
        other.buffers.release(ctx.buffers.acquire(16));
        assert_eq!(ctx.buffers.pooled_buffers(), 1);
    }

    #[test]
    fn default_ctx_is_sequential() {
        assert_eq!(RuntimeCtx::default().pool.threads(), 1);
    }
}
