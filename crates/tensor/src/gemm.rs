//! Row-parallel GEMM drivers over the packed-panel layout.
//!
//! Every dense product in the DLRM operator vocabulary is `A · Wᵀ`
//! against a [`PackedWeights`] operand:
//!
//! - [`matmul_packed_into`]: the weights are already packed — the FC
//!   serving path, which packs once at model build and never again.
//! - [`matmul_transb_into`] (`W` row-major, one output neuron per row)
//!   and [`matmul_into`] (`out = A · B`, so `W = Bᵀ`): pack per call,
//!   then the same driver.
//!
//! The driver splits output rows across the pool and hands each block
//! to `simd::packed_rows`, which walks the panels with the kernel tier
//! the pool's dispatch selects.
//!
//! # Bit-exactness
//!
//! Every tier keeps **one accumulator per output element**, folding
//! `k` in ascending order — the exact float-op sequence of the naive
//! reference kernels ([`Matrix::matmul_reference`],
//! [`Matrix::matmul_transb_reference`]). Packing only moves values,
//! tiling only regroups *independent* output elements, and parallelism
//! partitions output rows (each row owned by one task), so results are
//! bit-exact across packed/naive and across any worker count. The
//! property suite in `crates/tensor/tests/kernel_properties.rs` asserts
//! both.

use crate::{simd, Matrix, PackedWeights};
use dlrm_runtime::{KernelStats, Pool};

/// Minimum multiply-add count before a GEMM forks the pool; below
/// this the fork overhead dominates and the kernel runs inline.
const PAR_MIN_MACS: usize = 1 << 18;

/// Rows per parallel chunk for an `m`-row output on `pool`: one
/// contiguous chunk per worker, floored at one row. Chunking only
/// groups independent rows, so the choice affects scheduling, never
/// results.
fn rows_per_chunk(m: usize, macs: usize, pool: &Pool) -> usize {
    if pool.threads() <= 1 || macs < PAR_MIN_MACS {
        m
    } else {
        m.div_ceil(pool.threads()).max(1)
    }
}

/// `out = a · b`, row-parallel on `pool`; packs `b` on every call.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()` or `out` is not `a.rows() × b.cols()`.
pub fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix, pool: &Pool) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul shape mismatch: {}x{} × {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    KernelStats::global().record_gemm_pack();
    matmul_packed_into(a, &PackedWeights::pack_transposed(b), out, pool);
}

/// `out = a · bᵀ` (the FC layout: `b` stores one output neuron per
/// row), row-parallel on `pool`; packs `b` on every call.
///
/// # Panics
///
/// Panics if `a.cols() != b.cols()` or `out` is not `a.rows() × b.rows()`.
pub fn matmul_transb_into(a: &Matrix, b: &Matrix, out: &mut Matrix, pool: &Pool) {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_transb shape mismatch: {}x{} × ({}x{})ᵀ",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    KernelStats::global().record_gemm_pack();
    matmul_packed_into(a, &PackedWeights::pack(b), out, pool);
}

/// `out = a · wᵀ` against prepacked weights, row-parallel on `pool`:
/// the pack-free path (every element of `out` is written).
///
/// # Panics
///
/// Panics if `a.cols() != w.cols()` or `out` is not `a.rows() × w.rows()`.
pub fn matmul_packed_into(a: &Matrix, w: &PackedWeights, out: &mut Matrix, pool: &Pool) {
    assert_eq!(
        a.cols(),
        w.cols(),
        "packed matmul shape mismatch: {}x{} × ({}x{})ᵀ",
        a.rows(),
        a.cols(),
        w.rows(),
        w.cols()
    );
    assert_eq!(
        (out.rows(), out.cols()),
        (a.rows(), w.rows()),
        "matmul output must be {}x{}",
        a.rows(),
        w.rows()
    );
    let (m, k, n) = (a.rows(), a.cols(), w.rows());
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.as_mut_slice().fill(0.0);
        return;
    }
    let chunk_rows = rows_per_chunk(m, m * n * k, pool);
    let a_data = a.as_slice();
    let level = simd::effective_level(pool.dispatch().level());
    KernelStats::global().record_gemm(level);
    pool.par_chunks_mut(out.as_mut_slice(), chunk_rows * n, |start, chunk| {
        let i0 = start / n;
        let rows = chunk.len() / n;
        simd::packed_rows(level, &a_data[i0 * k..(i0 + rows) * k], k, w.panels(), n, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(rows: usize, cols: usize, salt: u32) -> Matrix {
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| ((i as u32).wrapping_mul(2654435761).wrapping_add(salt) % 1000) as f32 * 0.013 - 6.5)
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn blocked_matmul_matches_reference_bitwise() {
        for (m, k, n) in [(1, 1, 1), (3, 5, 7), (4, 8, 2), (9, 13, 11), (16, 32, 24)] {
            let a = filled(m, k, 1);
            let b = filled(k, n, 2);
            let mut out = Matrix::zeros(m, n);
            matmul_into(&a, &b, &mut out, &Pool::sequential());
            assert_eq!(out, a.matmul_reference(&b), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn tiled_transb_matches_reference_bitwise() {
        for (m, k, n) in [(1, 1, 1), (4, 8, 2), (5, 7, 3), (9, 16, 9), (13, 33, 17)] {
            let a = filled(m, k, 3);
            let b = filled(n, k, 4);
            let mut out = Matrix::zeros(m, n);
            matmul_transb_into(&a, &b, &mut out, &Pool::sequential());
            assert_eq!(out, a.matmul_transb_reference(&b), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn into_kernels_overwrite_dirty_outputs() {
        let a = filled(3, 4, 5);
        let b = filled(4, 2, 6);
        let mut out = Matrix::from_vec(3, 2, vec![f32::NAN; 6]);
        matmul_into(&a, &b, &mut out, &Pool::sequential());
        assert_eq!(out, a.matmul_reference(&b));
        let bt = filled(2, 4, 7);
        let mut out = Matrix::from_vec(3, 2, vec![f32::NAN; 6]);
        matmul_transb_into(&a, &bt, &mut out, &Pool::sequential());
        assert_eq!(out, a.matmul_transb_reference(&bt));
    }

    #[test]
    fn degenerate_k_zero_yields_zeros() {
        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 3);
        let mut out = Matrix::from_vec(2, 3, vec![9.0; 6]);
        matmul_into(&a, &b, &mut out, &Pool::sequential());
        assert_eq!(out, Matrix::zeros(2, 3));
        let bt = Matrix::zeros(3, 0);
        let mut out = Matrix::from_vec(2, 3, vec![9.0; 6]);
        matmul_transb_into(&a, &bt, &mut out, &Pool::sequential());
        assert_eq!(out, Matrix::zeros(2, 3));
    }

    #[test]
    #[should_panic(expected = "output must be")]
    fn into_rejects_wrong_output_shape() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 4);
        let mut out = Matrix::zeros(2, 3);
        matmul_into(&a, &b, &mut out, &Pool::sequential());
    }
}
