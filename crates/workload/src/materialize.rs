//! Materializes request shapes into concrete batch inputs for the
//! executable engine.

use crate::access::zipf_index;
use crate::RequestShape;
use dlrm_model::graph::SparseInput;
use dlrm_model::ModelSpec;
use dlrm_sim::SimRng;
use dlrm_tensor::Matrix;

/// Salt separating the dense-feature stream from the sparse-index
/// streams forked off the same `(seed, request)` root.
const DENSE_SALT: u64 = u64::MAX;

/// Concrete inputs for one inference batch: dense features plus one
/// sparse input per table (indexed by [`dlrm_model::TableId`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchInputs {
    /// `batch × dense_features` feature matrix.
    pub dense: Matrix,
    /// One sparse input per table (all tables, both nets).
    pub sparse: Vec<SparseInput>,
}

impl BatchInputs {
    /// Batch size (items in this batch).
    #[must_use]
    pub fn batch_size(&self) -> usize {
        self.dense.rows()
    }

    /// Loads a copy of this batch's blobs into a workspace using the
    /// builder's blob-naming convention.
    pub fn load_into(&self, spec: &ModelSpec, ws: &mut dlrm_model::Workspace) {
        self.clone().load_owned(spec, ws);
    }

    /// [`Self::load_into`] for a batch the caller is done with: the
    /// workspace takes the dense matrix and every index vector as they
    /// are, copying nothing. Every table's blob name is written into one
    /// buffer, so a workspace that holds the names from an earlier batch
    /// allocates no key.
    pub fn load_owned(self, spec: &ModelSpec, ws: &mut dlrm_model::Workspace) {
        use dlrm_model::builder::blobs;
        ws.put(blobs::DENSE_INPUT, dlrm_model::Blob::Dense(self.dense));
        let mut name = String::new();
        for (t, s) in spec.tables.iter().zip(self.sparse) {
            name.clear();
            blobs::push_sparse_input(&mut name, t);
            ws.put(name.as_str(), dlrm_model::Blob::Sparse(s));
        }
    }
}

/// How embedding-row indices are drawn during materialization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IndexDist {
    /// Every row equally likely — the original materialization.
    Uniform,
    /// Zipf-skewed popularity with the given exponent, sharing the
    /// rank-to-row scatter of [`crate::RowStats`] sampling so the
    /// profiled hot set is the hot set requests actually touch.
    Zipf(f64),
}

/// Materializes `shape` into per-batch concrete inputs for `spec`.
///
/// The request's `items` split into `ceil(items / batch_size)` batches;
/// each table's request-level lookup count is distributed as evenly as
/// possible across items (remainder to the earliest items), then sliced
/// per batch. Index values are uniform over the table's rows, seeded by
/// `(seed, request id, table id)` so materialization is deterministic —
/// the property that lets singular and sharded execution be compared
/// bit-for-bit.
///
/// # Panics
///
/// Panics if `shape.table_lookups` does not cover `spec.tables` or
/// `batch_size` is zero.
#[must_use]
pub fn materialize_request(
    spec: &ModelSpec,
    shape: &RequestShape,
    batch_size: usize,
    seed: u64,
) -> Vec<BatchInputs> {
    materialize_request_with(spec, shape, batch_size, seed, IndexDist::Uniform)
}

/// [`materialize_request`] with an explicit index distribution:
/// [`IndexDist::Uniform`] reproduces it bit-for-bit,
/// [`IndexDist::Zipf`] draws skewed indices for placement and cache
/// studies. Everything else (dense features, per-item lookup counts,
/// batching, the fork discipline) is identical.
///
/// # Panics
///
/// Panics if `shape.table_lookups` does not cover `spec.tables` or
/// `batch_size` is zero.
#[must_use]
pub fn materialize_request_with(
    spec: &ModelSpec,
    shape: &RequestShape,
    batch_size: usize,
    seed: u64,
    dist: IndexDist,
) -> Vec<BatchInputs> {
    assert!(batch_size > 0, "batch size must be non-zero");
    assert_eq!(
        shape.table_lookups.len(),
        spec.tables.len(),
        "request shape does not match model spec"
    );
    let items = shape.items as usize;
    let n_batches = items.div_ceil(batch_size);

    // Per-item lookup counts per table: L/items each, remainder to the
    // first L % items items.
    let per_item_counts: Vec<Vec<u32>> = spec
        .tables
        .iter()
        .enumerate()
        .map(|(ti, _)| {
            let l = shape.table_lookups[ti] as usize;
            let base = (l / items) as u32;
            let extra = l % items;
            (0..items)
                .map(|i| base + u32::from(i < extra))
                .collect()
        })
        .collect();

    // Fork discipline: one root per (seed, request), a dedicated fork for
    // the dense features, and a fork per (table, batch) for the sparse
    // indices — each stream is independent of how many other tables or
    // batches exist.
    let request_rng = SimRng::seed_from(seed).fork(shape.id);
    let mut dense_rng = request_rng.fork(DENSE_SALT);
    let mut batches = Vec::with_capacity(n_batches);
    for b in 0..n_batches {
        let lo = b * batch_size;
        let hi = (lo + batch_size).min(items);
        let bsz = hi - lo;

        let dense_data: Vec<f32> = (0..bsz * spec.dense_features)
            .map(|_| dense_rng.next_f32() - 0.5)
            .collect();
        let dense = Matrix::from_vec(bsz, spec.dense_features, dense_data);

        let sparse = spec
            .tables
            .iter()
            .enumerate()
            .map(|(ti, table)| {
                let lengths: Vec<u32> = per_item_counts[ti][lo..hi].to_vec();
                let total: usize = lengths.iter().map(|&l| l as usize).sum();
                let mut rng = request_rng.fork(ti as u64).fork(b as u64);
                let indices: Vec<u64> = (0..total)
                    .map(|_| match dist {
                        IndexDist::Uniform => rng.next_u64_below(table.rows),
                        IndexDist::Zipf(s) => zipf_index(&mut rng, table.rows, s),
                    })
                    .collect();
                SparseInput::new(indices, lengths)
            })
            .collect();

        batches.push(BatchInputs { dense, sparse });
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceDb;
    use dlrm_model::rm;

    fn small_spec() -> ModelSpec {
        rm::rm1().scaled_to_bytes(4 << 20)
    }

    #[test]
    fn batches_cover_all_items_and_lookups() {
        let spec = small_spec();
        let db = TraceDb::generate(&spec, 5, 3);
        let shape = db.get(2);
        let batches = materialize_request(&spec, shape, 64, 9);
        assert_eq!(batches.len(), shape.num_batches(64));
        let total_items: usize = batches.iter().map(BatchInputs::batch_size).sum();
        assert_eq!(total_items, shape.items as usize);
        for (ti, _) in spec.tables.iter().enumerate() {
            let total: usize = batches
                .iter()
                .map(|b| b.sparse[ti].num_lookups())
                .sum();
            assert_eq!(total, shape.table_lookups[ti] as usize, "table {ti}");
        }
    }

    #[test]
    fn materialization_is_deterministic() {
        let spec = small_spec();
        let db = TraceDb::generate(&spec, 3, 3);
        let a = materialize_request(&spec, db.get(0), 32, 7);
        let b = materialize_request(&spec, db.get(0), 32, 7);
        assert_eq!(a, b);
        let c = materialize_request(&spec, db.get(0), 32, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn indices_respect_table_bounds() {
        let spec = small_spec();
        let db = TraceDb::generate(&spec, 2, 5);
        for batch in materialize_request(&spec, db.get(0), 16, 1) {
            for (ti, s) in batch.sparse.iter().enumerate() {
                let rows = spec.tables[ti].rows;
                assert!(s.indices.iter().all(|&i| i < rows), "table {ti}");
            }
        }
    }

    #[test]
    fn single_batch_mode_produces_one_batch() {
        let spec = small_spec();
        let db = TraceDb::generate(&spec, 2, 5);
        let shape = db.get(1);
        let batches = materialize_request(&spec, shape, usize::MAX, 1);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].batch_size(), shape.items as usize);
    }

    #[test]
    fn uniform_dist_matches_the_original_entry_point() {
        let spec = small_spec();
        let db = TraceDb::generate(&spec, 2, 5);
        let a = materialize_request(&spec, db.get(0), 32, 7);
        let b = materialize_request_with(&spec, db.get(0), 32, 7, IndexDist::Uniform);
        assert_eq!(a, b);
    }

    #[test]
    fn zipf_dist_is_deterministic_in_range_and_skewed_to_the_profiled_hot_set() {
        use crate::access::RowStats;
        let spec = small_spec();
        let db = TraceDb::generate(&spec, 2, 5);
        let s = 1.2;
        let a = materialize_request_with(&spec, db.get(0), 32, 7, IndexDist::Zipf(s));
        let b = materialize_request_with(&spec, db.get(0), 32, 7, IndexDist::Zipf(s));
        assert_eq!(a, b);
        for (ti, table) in spec.tables.iter().enumerate() {
            let stats = RowStats::sample_zipf(table.rows, 20_000, s, 999);
            let hot: std::collections::HashSet<u64> =
                stats.hot_rows(stats.rows_for_coverage(0.8)).into_iter().collect();
            let (mut in_hot, mut total) = (0usize, 0usize);
            for batch in &a {
                for &i in &batch.sparse[ti].indices {
                    assert!(i < table.rows, "table {ti}");
                    total += 1;
                    in_hot += usize::from(hot.contains(&i));
                }
            }
            // The profiled 80%-coverage hot set should capture most of
            // the skewed traffic (different seeds, same distribution).
            if total >= 50 {
                assert!(
                    in_hot as f64 >= 0.5 * total as f64,
                    "table {ti}: {in_hot}/{total} in hot set"
                );
            }
        }
    }

    #[test]
    fn load_into_populates_all_blobs() {
        let spec = small_spec();
        let db = TraceDb::generate(&spec, 1, 5);
        let batches = materialize_request(&spec, db.get(0), 64, 1);
        let mut ws = dlrm_model::Workspace::new();
        batches[0].load_into(&spec, &mut ws);
        // dense + one sparse per table.
        assert_eq!(ws.len(), 1 + spec.tables.len());
        let mut owned = dlrm_model::Workspace::new();
        batches[0].clone().load_owned(&spec, &mut owned);
        assert_eq!(owned.len(), ws.len());
    }
}
