//! Materialized embedding tables and the SparseLengthsSum kernel.

use crate::spec::TableSpec;
use dlrm_runtime::{KernelStats, Pool};
use dlrm_sim::SimRng;
use dlrm_tensor::simd::{self, GatherError};
use dlrm_tensor::{AlignedSlab, Matrix};

/// A materialized (in-memory, `f32`) embedding table.
///
/// In the Caffe2 framework the lookup-and-pool operator over such a table
/// is `SparseLengthsSum` (SLS, §II-1): given a flat index list and a
/// per-batch-element length list, it gathers the indexed rows and sums
/// them per element, producing a `batch × dim` matrix.
///
/// # Examples
///
/// ```
/// use dlrm_model::EmbeddingTable;
///
/// let table = EmbeddingTable::seeded("demo", 10, 4, 42);
/// // Two batch elements: the first pools rows {1, 2}, the second row {3}.
/// let pooled = table.sparse_lengths_sum(&[1, 2, 3], &[2, 1]);
/// assert_eq!(pooled.rows(), 2);
/// assert_eq!(pooled.cols(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingTable {
    name: String,
    rows: usize,
    dim: usize,
    /// `rows · dim` floats, row-major; row 0 starts a cache line, and so
    /// does every row when `dim` is a multiple of 16.
    slab: AlignedSlab,
}

impl EmbeddingTable {
    /// Creates a `rows × dim` table whose row `r` is written in place,
    /// in ascending `r`, by `fill(r, row)` (the row starts zeroed).
    #[must_use]
    pub fn from_row_fn(
        name: impl Into<String>,
        rows: usize,
        dim: usize,
        mut fill: impl FnMut(usize, &mut [f32]),
    ) -> Self {
        let mut slab = AlignedSlab::zeroed(rows * dim);
        for r in 0..rows {
            fill(r, &mut slab[r * dim..(r + 1) * dim]);
        }
        Self {
            name: name.into(),
            rows,
            dim,
            slab,
        }
    }

    /// Creates a table from explicit weights (rows = buckets, cols = dim).
    #[must_use]
    pub fn from_weights(name: impl Into<String>, weights: Matrix) -> Self {
        Self::from_row_fn(name, weights.rows(), weights.cols(), |r, row| {
            row.copy_from_slice(weights.row(r));
        })
    }

    /// Creates a `rows × dim` table with reproducible pseudo-random
    /// weights in `[-0.5, 0.5)` — stand-ins for trained parameters,
    /// which the characterization never depends on.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `dim` is zero.
    #[must_use]
    pub fn seeded(name: impl Into<String>, rows: u64, dim: u32, seed: u64) -> Self {
        assert!(rows > 0 && dim > 0, "degenerate table shape {rows}x{dim}");
        let rows = usize::try_from(rows).expect("materialized table too large");
        let mut rng = SimRng::seed_from(seed);
        Self::from_row_fn(name, rows, dim as usize, |_, row| {
            row.iter_mut().for_each(|v| *v = rng.next_f32() - 0.5);
        })
    }

    /// Materializes `spec` with weights from the `(seed, table id)` fork
    /// of the experiment stream, so different tables get different
    /// weights but repeated materializations are identical.
    #[must_use]
    pub fn from_spec(spec: &TableSpec, seed: u64) -> Self {
        Self::seeded(
            spec.name.clone(),
            spec.rows,
            spec.dim,
            SimRng::seed_from(seed).fork(spec.id.0 as u64).seed(),
        )
    }

    /// Table name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows (hash buckets).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Embedding dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Size in bytes at FP32 (the [`crate::Footprint`] of the table,
    /// as `usize` for slice arithmetic).
    #[must_use]
    pub fn bytes(&self) -> usize {
        usize::try_from(crate::Footprint::footprint_bytes(self)).expect("table fits in memory")
    }

    /// One embedding row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[must_use]
    pub fn row(&self, row: usize) -> &[f32] {
        &self.slab[row * self.dim..(row + 1) * self.dim]
    }

    /// Every row, row-major, starting a cache line.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.slab
    }

    /// The SparseLengthsSum kernel: gathers `indices` and sums them per
    /// batch element as described by `lengths`.
    ///
    /// `lengths[b]` is the number of consecutive entries of `indices`
    /// belonging to batch element `b`; `indices.len()` must equal the sum
    /// of `lengths`. An element with length 0 pools to the zero vector
    /// (standard SLS semantics for absent features).
    ///
    /// # Panics
    ///
    /// Panics if the lengths don't cover `indices` exactly or any index
    /// is out of range.
    #[must_use]
    pub fn sparse_lengths_sum(&self, indices: &[u64], lengths: &[u32]) -> Matrix {
        let mut out = Matrix::zeros(lengths.len(), self.dim());
        self.sparse_lengths_sum_into(indices, lengths, &mut out, &Pool::sequential());
        out
    }

    /// [`Self::sparse_lengths_sum`] parallelized across bags (batch
    /// elements) on `pool`. Each output row is pooled by exactly one
    /// task with the same sequential, index-ascending inner loop, so the
    /// result is bit-exact with the sequential kernel for any worker
    /// count.
    ///
    /// # Panics
    ///
    /// As for [`Self::sparse_lengths_sum`].
    #[must_use]
    pub fn sparse_lengths_sum_par(&self, indices: &[u64], lengths: &[u32], pool: &Pool) -> Matrix {
        let mut out = Matrix::zeros(lengths.len(), self.dim());
        self.sparse_lengths_sum_into(indices, lengths, &mut out, pool);
        out
    }

    /// [`Self::sparse_lengths_sum`] into a caller-provided output matrix
    /// (so serving paths reuse recycled backing stores), bag-parallel on
    /// `pool`. Every element of `out` is overwritten.
    ///
    /// # Panics
    ///
    /// Panics if the lengths don't cover `indices` exactly, any index is
    /// out of range, or `out` is not `lengths.len() × dim`.
    pub fn sparse_lengths_sum_into(
        &self,
        indices: &[u64],
        lengths: &[u32],
        out: &mut Matrix,
        pool: &Pool,
    ) {
        if let Err(e) = self.try_sparse_lengths_sum_into(indices, lengths, out, pool) {
            panic!("{e} in table {}", self.name);
        }
    }

    /// [`Self::sparse_lengths_sum_into`] for requests that come from
    /// outside the process: the gather kernel's one validation pass is
    /// the only scan of `indices`, and its verdict comes back as a value.
    ///
    /// # Errors
    ///
    /// [`GatherError`] when the lengths don't cover `indices` exactly or
    /// an index is out of range; `out` is then unspecified.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `lengths.len() × dim`.
    pub fn try_sparse_lengths_sum_into(
        &self,
        indices: &[u64],
        lengths: &[u32],
        out: &mut Matrix,
        pool: &Pool,
    ) -> Result<(), GatherError> {
        sls_rows_into(&self.slab, self.dim, indices, lengths, out, pool)
    }

    /// SparseLengthsSum with mean pooling instead of sum pooling
    /// (`SparseLengthsMean` in the Caffe2 family). Zero-length elements
    /// pool to zero.
    ///
    /// # Panics
    ///
    /// As for [`Self::sparse_lengths_sum`].
    #[must_use]
    pub fn sparse_lengths_mean(&self, indices: &[u64], lengths: &[u32]) -> Matrix {
        let mut out = self.sparse_lengths_sum(indices, lengths);
        for (b, &len) in lengths.iter().enumerate() {
            if len > 1 {
                let inv = 1.0 / len as f32;
                for v in out.row_mut(b) {
                    *v *= inv;
                }
            }
        }
        out
    }
}

/// SparseLengthsSum over `rows`, `dim` floats a row, row-major: the
/// gather [`EmbeddingTable`] runs over its own rows and the paged tier
/// over the rows it read, bag-parallel on `pool` through
/// [`simd::sls_bags`].
///
/// # Errors
///
/// As [`EmbeddingTable::try_sparse_lengths_sum_into`].
///
/// # Panics
///
/// Panics if `out` is not `lengths.len() × dim`.
pub fn sls_rows_into(
    rows: &[f32],
    dim: usize,
    indices: &[u64],
    lengths: &[u32],
    out: &mut Matrix,
    pool: &Pool,
) -> Result<(), GatherError> {
    assert_eq!(
        (out.rows(), out.cols()),
        (lengths.len(), dim),
        "SLS output must be {}x{dim}",
        lengths.len(),
    );
    if dim == 0 {
        return Ok(());
    }
    let level = simd::effective_level(pool.dispatch().level());
    KernelStats::global().record_sls(level, indices.len());
    pool.par_bags(indices, lengths, dim, out.as_mut_slice(), |indices, lengths, out_rows| {
        simd::sls_bags(level, rows, dim, indices, lengths, out_rows)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{NetId, TableId};

    fn table_with_rows(rows: &[&[f32]]) -> EmbeddingTable {
        EmbeddingTable::from_weights("t", Matrix::from_rows(rows))
    }

    #[test]
    fn sls_sums_selected_rows() {
        let t = table_with_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[2.0, 2.0]]);
        let out = t.sparse_lengths_sum(&[0, 1, 2], &[2, 1]);
        assert_eq!(out.row(0), &[1.0, 1.0]);
        assert_eq!(out.row(1), &[2.0, 2.0]);
    }

    #[test]
    fn sls_repeated_index_counts_twice() {
        let t = table_with_rows(&[&[1.5]]);
        let out = t.sparse_lengths_sum(&[0, 0, 0], &[3]);
        assert_eq!(out.get(0, 0), 4.5);
    }

    #[test]
    fn sls_zero_length_yields_zero_vector() {
        let t = table_with_rows(&[&[7.0, 8.0]]);
        let out = t.sparse_lengths_sum(&[], &[0, 0]);
        assert_eq!(out.row(0), &[0.0, 0.0]);
        assert_eq!(out.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn mean_pooling_divides_by_count() {
        let t = table_with_rows(&[&[2.0], &[4.0]]);
        let out = t.sparse_lengths_mean(&[0, 1], &[2]);
        assert_eq!(out.get(0, 0), 3.0);
    }

    #[test]
    fn seeded_tables_are_reproducible() {
        let a = EmbeddingTable::seeded("a", 16, 4, 99);
        let b = EmbeddingTable::seeded("a", 16, 4, 99);
        assert_eq!(a, b);
        let c = EmbeddingTable::seeded("a", 16, 4, 100);
        assert_ne!(a, c);
    }

    #[test]
    fn from_spec_mixes_table_id_into_seed() {
        let mk = |id: usize| TableSpec {
            id: TableId(id),
            name: "x".into(),
            rows: 8,
            dim: 2,
            net: NetId(0),
            pooling_factor: 1.0,
        };
        let t0 = EmbeddingTable::from_spec(&mk(0), 7);
        let t1 = EmbeddingTable::from_spec(&mk(1), 7);
        assert_ne!(t0.as_slice(), t1.as_slice());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sls_rejects_out_of_range_index() {
        let t = table_with_rows(&[&[1.0]]);
        let _ = t.sparse_lengths_sum(&[5], &[1]);
    }

    #[test]
    #[should_panic(expected = "lengths sum")]
    fn sls_rejects_inconsistent_lengths() {
        let t = table_with_rows(&[&[1.0]]);
        let _ = t.sparse_lengths_sum(&[0, 0], &[1]);
    }
}
