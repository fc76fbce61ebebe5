//! Row-wise linear quantization.

use dlrm_model::{EmbeddingTable, Footprint};
use dlrm_runtime::{KernelDispatch, KernelStats, Pool};
use dlrm_tensor::simd::{self, GatherError};
use dlrm_tensor::Matrix;

/// A row-wise linearly quantized embedding table.
///
/// Each row stores `dim` 8-bit codes plus an `f32` scale and bias:
/// `value ≈ code * scale + bias`, with `code` in `[0, 255]`.
///
/// # Examples
///
/// ```
/// use dlrm_compress::QuantizedTable;
/// use dlrm_model::EmbeddingTable;
///
/// let table = EmbeddingTable::seeded("t", 64, 16, 7);
/// let q = QuantizedTable::quantize(&table, 8);
/// assert!(q.bytes() < table.bytes());
/// assert!(q.max_dequantization_error(&table) < 0.005);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedTable {
    name: String,
    rows: usize,
    dim: usize,
    codes: Vec<u8>,
    scales: Vec<f32>,
    biases: Vec<f32>,
}

impl QuantizedTable {
    /// Quantizes `table` row-wise at `bits` precision.
    ///
    /// # Panics
    ///
    /// Panics unless `bits` is 8, the one precision the engine serves
    /// (Table V's 4-bit share is sized analytically by
    /// [`crate::CompressionPolicy`]).
    #[must_use]
    pub fn quantize(table: &EmbeddingTable, bits: u8) -> Self {
        assert!(bits == 8, "supported precision: 8 bits");
        let rows = table.rows();
        let dim = table.dim();
        let levels = f32::from(u8::MAX);
        let mut scales = Vec::with_capacity(rows);
        let mut biases = Vec::with_capacity(rows);
        let mut codes = vec![0u8; rows * dim];

        for r in 0..rows {
            let row = table.row(r);
            let min = row.iter().copied().fold(f32::INFINITY, f32::min);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let scale = if max > min { (max - min) / levels } else { 0.0 };
            scales.push(scale);
            biases.push(min);
            for (code, &v) in codes[r * dim..(r + 1) * dim].iter_mut().zip(row) {
                if scale > 0.0 {
                    *code = (((v - min) / scale).round() as u32).min(u32::from(u8::MAX)) as u8;
                }
            }
        }
        Self {
            name: table.name().to_string(),
            rows,
            dim,
            codes,
            scales,
            biases,
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Embedding dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Storage footprint: packed codes plus per-row scale and bias
    /// (the [`Footprint`] of the table, as `usize` for slice
    /// arithmetic).
    #[must_use]
    pub fn bytes(&self) -> usize {
        usize::try_from(self.footprint_bytes()).expect("table fits in memory")
    }

    /// Decodes one row into a fresh `Vec`. Allocating — serving-path
    /// callers (hot-row cache build, per-lookup decode) should use
    /// [`Self::row_into`] to keep the zero-steady-state-alloc
    /// invariant.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn row(&self, r: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dim];
        self.row_into(r, &mut out);
        out
    }

    /// Decodes row `r` into a caller-provided buffer, allocation-free
    /// and SIMD-accelerated under the process dispatch (bitwise equal
    /// to the scalar decode either way).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range or `out.len() != dim`.
    pub fn row_into(&self, r: usize, out: &mut [f32]) {
        assert!(r < self.rows, "row {r} out of range");
        assert_eq!(out.len(), self.dim, "row buffer must be dim-sized");
        let level = simd::effective_level(KernelDispatch::detect().level());
        let codes = &self.codes[r * self.dim..(r + 1) * self.dim];
        simd::decode_row_u8(level, codes, self.scales[r], self.biases[r], out);
    }

    /// Decodes the whole table back to `f32`.
    #[must_use]
    pub fn dequantize(&self) -> EmbeddingTable {
        let mut m = Matrix::zeros(self.rows, self.dim);
        for r in 0..self.rows {
            self.row_into(r, m.row_mut(r));
        }
        EmbeddingTable::from_weights(self.name.clone(), m)
    }

    /// SparseLengthsSum with on-the-fly dequantization — what the
    /// serving stack runs against compressed tables. Rows are decoded
    /// inline into the accumulator (no per-lookup allocation): each bag
    /// is pooled in registers through [`simd::sls_bags_u8`].
    ///
    /// # Panics
    ///
    /// As for [`EmbeddingTable::sparse_lengths_sum`].
    #[must_use]
    pub fn sparse_lengths_sum(&self, indices: &[u64], lengths: &[u32]) -> Matrix {
        self.sparse_lengths_sum_par(indices, lengths, &Pool::sequential())
    }

    /// [`Self::sparse_lengths_sum`] parallelized across bags on `pool`;
    /// bit-exact with the sequential kernel for any worker count.
    ///
    /// # Panics
    ///
    /// As for [`Self::sparse_lengths_sum`].
    #[must_use]
    pub fn sparse_lengths_sum_par(&self, indices: &[u64], lengths: &[u32], pool: &Pool) -> Matrix {
        self.try_sparse_lengths_sum_par(indices, lengths, pool)
            .unwrap_or_else(|e| panic!("{e} in table {}", self.name))
    }

    /// [`Self::sparse_lengths_sum_par`] returning a malformed request as
    /// a [`GatherError`] instead of panicking — the shard service's
    /// entry point.
    ///
    /// # Errors
    ///
    /// [`GatherError`] when the lengths do not cover the indices or an
    /// index is out of range.
    pub fn try_sparse_lengths_sum_par(
        &self,
        indices: &[u64],
        lengths: &[u32],
        pool: &Pool,
    ) -> Result<Matrix, GatherError> {
        let mut out = Matrix::zeros(lengths.len(), self.dim);
        if lengths.is_empty() || self.dim == 0 {
            simd::check_bags(indices, lengths, self.rows)?;
            return Ok(out);
        }
        let level = simd::effective_level(pool.dispatch().level());
        KernelStats::global().record_qsls(level);
        let rows = simd::U8Rows::new(&self.codes, &self.scales, &self.biases, self.dim);
        pool.par_bags(indices, lengths, self.dim, out.as_mut_slice(), |i, l, o| {
            simd::sls_bags_u8(level, rows, i, l, o)
        })?;
        Ok(out)
    }

    /// Largest absolute element error versus the original table.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    #[must_use]
    pub fn max_dequantization_error(&self, original: &EmbeddingTable) -> f32 {
        assert_eq!(self.rows, original.rows());
        assert_eq!(self.dim, original.dim());
        let mut decoded = vec![0.0f32; self.dim];
        let mut max = 0.0f32;
        for r in 0..self.rows {
            self.row_into(r, &mut decoded);
            for (a, &b) in decoded.iter().zip(original.row(r)) {
                max = max.max((a - b).abs());
            }
        }
        max
    }
}

impl Footprint for QuantizedTable {
    /// Packed codes plus one `f32` scale and bias per row.
    fn footprint_bytes(&self) -> u64 {
        self.codes.len() as u64 + self.rows as u64 * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> EmbeddingTable {
        EmbeddingTable::seeded("t", 32, 12, 99)
    }

    #[test]
    fn eight_bit_error_bounded_by_half_step() {
        let t = table();
        let q = QuantizedTable::quantize(&t, 8);
        // Weights span ~[-0.5, 0.5); step ≈ 1/255; half-step plus float
        // slop.
        assert!(q.max_dequantization_error(&t) <= 0.5 / 255.0 + 1e-5);
    }

    #[test]
    fn size_reduction_ratios() {
        let t = EmbeddingTable::seeded("t", 1000, 64, 1);
        let orig = t.bytes();
        let q8 = QuantizedTable::quantize(&t, 8);
        // 8-bit ≈ 4× smaller minus per-row overhead.
        let r8 = orig as f64 / q8.bytes() as f64;
        assert!(r8 > 3.4 && r8 < 4.0, "8-bit ratio {r8}");
    }

    #[test]
    fn sls_matches_dequantized_table() {
        let t = table();
        let q = QuantizedTable::quantize(&t, 8);
        let deq = q.dequantize();
        let indices = [0u64, 5, 9, 31, 5];
        let lengths = [2u32, 3];
        let a = q.sparse_lengths_sum(&indices, &lengths);
        let b = deq.sparse_lengths_sum(&indices, &lengths);
        assert!(a.approx_eq(&b, 1e-6));
    }

    #[test]
    fn constant_row_quantizes_exactly() {
        let m = Matrix::from_rows(&[&[3.5, 3.5, 3.5]]);
        let t = EmbeddingTable::from_weights("c", m);
        let q = QuantizedTable::quantize(&t, 8);
        assert_eq!(q.row(0), vec![3.5, 3.5, 3.5]);
    }

    #[test]
    #[should_panic(expected = "supported precision: 8 bits")]
    fn rejects_weird_bit_width() {
        let _ = QuantizedTable::quantize(&table(), 4);
    }
}
