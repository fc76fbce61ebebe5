//! Batch merging: N requests run as one engine batch, invisibly.
//!
//! Which requests ride together is decided at pickup (see
//! [`super::queue`]): a free worker takes what its lane already holds.
//! This module is the data side. [`merge_inputs`] concatenates
//! request inputs row-wise and [`split_rows`] slices predictions back;
//! both are bit-exact because every engine operator is row-independent:
//! dense GEMMs accumulate strictly within an output row, SLS pools
//! strictly within a `lengths` segment, and feature interaction is
//! per-row. The property test in `tests/frontend_properties.rs` pins
//! this end to end.

use dlrm_model::graph::SparseInput;
use dlrm_model::RuntimeCtx;
use dlrm_tensor::Matrix;
use dlrm_workload::BatchInputs;

/// Row-concatenates request inputs into one engine batch, returning the
/// merged inputs and each request's row count (for [`split_rows`]).
///
/// Dense rows stack in order; each table's sparse indices and lengths
/// concatenate in the same order. Bit-exact by the row-independence
/// argument in the module docs.
///
/// The merged vectors are drawn from `ctx`'s pools, each sized once, up
/// front: a worker whose previous batch was recycled into the same pools
/// fills that batch's dense, index and length vectors again instead of
/// allocating new ones.
///
/// # Panics
///
/// Panics if `parts` is empty or the requests disagree on dense feature
/// width or table count.
#[must_use]
pub fn merge_inputs(parts: &[&BatchInputs], ctx: &RuntimeCtx) -> (BatchInputs, Vec<usize>) {
    assert!(!parts.is_empty(), "cannot merge an empty batch");
    let cols = parts[0].dense.cols();
    let tables = parts[0].sparse.len();
    let mut row_counts = Vec::with_capacity(parts.len());
    let mut dense_data = ctx
        .buffers
        .acquire_empty(parts.iter().map(|p| p.dense.as_slice().len()).sum());
    for p in parts {
        assert_eq!(p.dense.cols(), cols, "dense feature width mismatch");
        assert_eq!(p.sparse.len(), tables, "table count mismatch");
        row_counts.push(p.dense.rows());
        dense_data.extend_from_slice(p.dense.as_slice());
    }
    let total_rows: usize = row_counts.iter().sum();
    let dense = Matrix::from_vec(total_rows, cols, dense_data);
    let sparse = (0..tables)
        .map(|ti| {
            let of_table = || parts.iter().map(|p| &p.sparse[ti]);
            let mut indices = ctx
                .indices
                .acquire_empty(of_table().map(|s| s.indices.len()).sum());
            let mut lengths = ctx
                .lengths
                .acquire_empty(of_table().map(|s| s.lengths.len()).sum());
            for s in of_table() {
                indices.extend_from_slice(&s.indices);
                lengths.extend_from_slice(&s.lengths);
            }
            SparseInput { indices, lengths }
        })
        .collect();
    (BatchInputs { dense, sparse }, row_counts)
}

/// Slices a merged prediction matrix back into per-request matrices of
/// `row_counts[i]` rows each — the inverse of [`merge_inputs`]'s row
/// stacking.
///
/// # Panics
///
/// Panics if `row_counts` does not sum to the matrix's row count.
#[must_use]
pub fn split_rows(merged: &Matrix, row_counts: &[usize]) -> Vec<Matrix> {
    let total: usize = row_counts.iter().sum();
    assert_eq!(
        total,
        merged.rows(),
        "row counts do not cover the merged matrix"
    );
    let cols = merged.cols();
    let mut out = Vec::with_capacity(row_counts.len());
    let mut lo = 0;
    for &rows in row_counts {
        let data = merged.as_slice()[lo * cols..(lo + rows) * cols].to_vec();
        out.push(Matrix::from_vec(rows, cols, data));
        lo += rows;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(rows: usize, tag: f32) -> BatchInputs {
        let dense = Matrix::from_vec(rows, 2, (0..rows * 2).map(|i| tag + i as f32).collect());
        let sparse = vec![SparseInput::new(
            (0..rows as u64).collect(),
            vec![1; rows],
        )];
        BatchInputs { dense, sparse }
    }

    #[test]
    fn merge_then_split_roundtrips_dense_rows() {
        let a = inputs(2, 10.0);
        let b = inputs(3, 90.0);
        let (merged, counts) = merge_inputs(&[&a, &b], &RuntimeCtx::default());
        assert_eq!(counts, vec![2, 3]);
        assert_eq!(merged.dense.rows(), 5);
        assert_eq!(merged.sparse[0].lengths.len(), 5);
        let back = split_rows(&merged.dense, &counts);
        assert_eq!(back[0], a.dense);
        assert_eq!(back[1], b.dense);
    }

    #[test]
    fn merge_concatenates_sparse_segments_in_order() {
        let a = inputs(1, 0.0);
        let b = inputs(2, 0.0);
        let (merged, _) = merge_inputs(&[&a, &b], &RuntimeCtx::default());
        assert_eq!(merged.sparse[0].indices, vec![0, 0, 1]);
        assert_eq!(merged.sparse[0].lengths, vec![1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "row counts")]
    fn split_rejects_bad_counts() {
        let m = Matrix::zeros(3, 1);
        let _ = split_rows(&m, &[1, 1]);
    }
}
