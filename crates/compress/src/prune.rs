//! Magnitude-based row pruning.

use dlrm_model::EmbeddingTable;
use dlrm_runtime::{KernelStats, Pool, SimdLevel};
use dlrm_tensor::simd::{self, GatherError};
use dlrm_tensor::Matrix;

/// Result of pruning a table: the surviving rows and the remapping.
#[derive(Debug, Clone, PartialEq)]
pub struct PrunedTable {
    /// The compacted table (only surviving rows).
    pub table: EmbeddingTable,
    /// For each original row, its new index, or `None` if pruned.
    /// Pruned rows pool as zero vectors (absent-feature semantics).
    pub remap: Vec<Option<u64>>,
}

impl PrunedTable {
    /// Fraction of rows removed.
    #[must_use]
    pub fn pruned_fraction(&self) -> f64 {
        let pruned = self.remap.iter().filter(|r| r.is_none()).count();
        pruned as f64 / self.remap.len().max(1) as f64
    }

    /// SparseLengthsSum against the pruned table: pruned indices
    /// contribute nothing (they were below the significance threshold).
    ///
    /// # Panics
    ///
    /// Panics if lengths don't cover indices or an index is out of the
    /// *original* table's range.
    #[must_use]
    pub fn sparse_lengths_sum(&self, indices: &[u64], lengths: &[u32]) -> Matrix {
        self.sparse_lengths_sum_par(indices, lengths, &Pool::sequential())
    }

    /// [`Self::sparse_lengths_sum`] parallelized across bags on `pool`;
    /// bit-exact with the sequential kernel for any worker count (each
    /// output row is pooled by exactly one task, indices in order).
    ///
    /// # Panics
    ///
    /// As for [`Self::sparse_lengths_sum`].
    #[must_use]
    pub fn sparse_lengths_sum_par(&self, indices: &[u64], lengths: &[u32], pool: &Pool) -> Matrix {
        let total: usize = lengths.iter().map(|&l| l as usize).sum();
        assert_eq!(total, indices.len(), "lengths must cover indices");
        let dim = self.table.dim();
        let mut out = Matrix::zeros(lengths.len(), dim);
        if lengths.is_empty() || dim == 0 {
            return out;
        }
        let level = simd::effective_level(pool.dispatch().level());
        KernelStats::global().record_sls(level, total);
        pool.par_bags(indices, lengths, dim, out.as_mut_slice(), |indices, lengths, out_rows| {
            self.pool_bags(level, indices, lengths, out_rows)
        })
        .unwrap_or_else(|e| panic!("{e} in table {}", self.table.name()));
        out
    }

    /// Pools a contiguous run of bags: resolves the surviving rows
    /// through `remap` into a scratch run of compacted-table indices
    /// (pruned rows simply drop out of their bag), then gathers that.
    fn pool_bags(
        &self,
        level: SimdLevel,
        indices: &[u64],
        lengths: &[u32],
        out_rows: &mut [f32],
    ) -> Result<(), GatherError> {
        let mut kept: Vec<u64> = Vec::with_capacity(indices.len());
        let mut kept_lengths: Vec<u32> = Vec::with_capacity(lengths.len());
        let mut cursor = 0usize;
        for &len in lengths {
            let before = kept.len();
            let bag = &indices[cursor..cursor + len as usize];
            kept.extend(bag.iter().filter_map(|&idx| {
                self.remap[usize::try_from(idx).expect("index fits")]
            }));
            kept_lengths.push((kept.len() - before) as u32);
            cursor += len as usize;
        }
        let slab = self.table.weights().as_slice();
        simd::sls_bags(level, slab, self.table.dim(), &kept, &kept_lengths, out_rows)
    }
}

/// Prunes the `fraction` of rows with the smallest L2 magnitude —
/// "manually pruned as specified by the model architect based on a
/// threshold magnitude" (§VII-D).
///
/// # Panics
///
/// Panics if `fraction` is outside `[0, 1)`.
#[must_use]
pub fn prune_by_magnitude(table: &EmbeddingTable, fraction: f64) -> PrunedTable {
    assert!(
        (0.0..1.0).contains(&fraction),
        "prune fraction must be in [0, 1), got {fraction}"
    );
    let rows = table.rows();
    let to_prune = (rows as f64 * fraction).floor() as usize;

    let mut norms: Vec<(usize, f32)> = (0..rows)
        .map(|r| {
            let n = table.row(r).iter().map(|v| v * v).sum::<f32>();
            (r, n)
        })
        .collect();
    norms.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let pruned: std::collections::HashSet<usize> =
        norms[..to_prune].iter().map(|&(r, _)| r).collect();

    let mut remap = vec![None; rows];
    let kept = rows - to_prune;
    let mut m = Matrix::zeros(kept.max(1), table.dim());
    let mut next = 0usize;
    for (r, slot) in remap.iter_mut().enumerate() {
        if !pruned.contains(&r) {
            m.row_mut(next).copy_from_slice(table.row(r));
            *slot = Some(next as u64);
            next += 1;
        }
    }
    PrunedTable {
        table: EmbeddingTable::from_weights(format!("{}[pruned]", table.name()), m),
        remap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with_norms() -> EmbeddingTable {
        // Rows with increasing magnitude: row r = [r, r].
        let rows: Vec<Vec<f32>> = (0..10).map(|r| vec![r as f32, r as f32]).collect();
        let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
        EmbeddingTable::from_weights("t", Matrix::from_rows(&refs))
    }

    #[test]
    fn prunes_smallest_rows_first() {
        let t = table_with_norms();
        let p = prune_by_magnitude(&t, 0.3);
        assert_eq!(p.pruned_fraction(), 0.3);
        // Rows 0..3 (smallest norms) pruned.
        assert_eq!(p.remap[0], None);
        assert_eq!(p.remap[1], None);
        assert_eq!(p.remap[2], None);
        assert_eq!(p.remap[3], Some(0));
        assert_eq!(p.table.rows(), 7);
    }

    #[test]
    fn pruned_indices_pool_as_zero() {
        let t = table_with_norms();
        let p = prune_by_magnitude(&t, 0.3);
        // Pool rows {0 (pruned), 9 (kept)}: only row 9 contributes.
        let out = p.sparse_lengths_sum(&[0, 9], &[2]);
        assert_eq!(out.row(0), &[9.0, 9.0]);
    }

    #[test]
    fn zero_fraction_is_identity() {
        let t = table_with_norms();
        let p = prune_by_magnitude(&t, 0.0);
        assert_eq!(p.pruned_fraction(), 0.0);
        let a = p.sparse_lengths_sum(&[1, 5], &[2]);
        let b = t.sparse_lengths_sum(&[1, 5], &[2]);
        assert_eq!(a, b);
    }

    #[test]
    fn size_shrinks_proportionally() {
        let t = table_with_norms();
        let p = prune_by_magnitude(&t, 0.5);
        assert_eq!(p.table.bytes(), t.bytes() / 2);
    }

    #[test]
    #[should_panic(expected = "prune fraction")]
    fn rejects_full_prune() {
        let _ = prune_by_magnitude(&table_with_norms(), 1.0);
    }
}
