//! Online access profiling: per-table access totals and (optionally)
//! row-frequency counts accumulated from live serving traffic.
//!
//! The offline path samples a synthetic Zipf trace ([`RowStats::
//! sample_zipf`]) before the model is ever deployed; this module is its
//! live twin. A serving tier shares one [`OnlineProfiler`] across its
//! workers and calls [`OnlineProfiler::observe`] on every batch it
//! executes. The per-table totals rank the tenancy pressure
//! controller's demotion candidates; a snapshot of the row counts is
//! fresh [`RowStats`] for an offline re-plan (`plan_with_stats`) from
//! the hot set the traffic actually touched. Placement stays static
//! while a tier serves.

use crate::{BatchInputs, RowStats};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Per-table access accumulator for live traffic. Thread-safe: workers
/// observe concurrently, a controller reads concurrently.
///
/// Two shapes. [`Self::for_spec`] also keeps a `(row → count)`
/// histogram per table for [`Self::snapshot`] — what an offline
/// re-plan reads, at the cost of hashing every looked-up row under one
/// lock. [`Self::without_rows`] keeps only the per-table totals — what
/// the tenancy pressure controller ranks tables by — and costs one
/// relaxed add per table per batch.
#[derive(Debug)]
pub struct OnlineProfiler {
    /// Row count per table (indexed by table id) — carried into every
    /// snapshot so the planner can validate coverage.
    rows: Vec<u64>,
    /// Accesses per table since construction; read without the
    /// histogram lock.
    totals: Vec<AtomicU64>,
    /// Accumulated `(row → count)` per table, when rows are tracked.
    counts: Option<Mutex<Vec<HashMap<u64, u64>>>>,
}

impl OnlineProfiler {
    /// An empty profiler shaped for `spec`'s tables, tracking rows.
    #[must_use]
    pub fn for_spec(spec: &dlrm_model::ModelSpec) -> Self {
        Self {
            counts: Some(Mutex::new(vec![HashMap::new(); spec.tables.len()])),
            ..Self::without_rows(spec)
        }
    }

    /// An empty profiler that keeps per-table totals only:
    /// [`Self::snapshot`] is always `None`.
    #[must_use]
    pub fn without_rows(spec: &dlrm_model::ModelSpec) -> Self {
        Self {
            rows: spec.tables.iter().map(|t| t.rows).collect(),
            totals: spec.tables.iter().map(|_| AtomicU64::new(0)).collect(),
            counts: None,
        }
    }

    /// Folds one batch's sparse lookups into the per-table totals (and
    /// row histograms, when tracked).
    pub fn observe(&self, inputs: &BatchInputs) {
        for (total, sparse) in self.totals.iter().zip(&inputs.sparse) {
            total.fetch_add(sparse.indices.len() as u64, Ordering::Relaxed);
        }
        let Some(counts) = &self.counts else { return };
        let mut counts = counts.lock().expect("profiler counts lock");
        for (table, sparse) in counts.iter_mut().zip(&inputs.sparse) {
            for &row in &sparse.indices {
                *table.entry(row).or_insert(0) += 1;
            }
        }
    }

    /// Total lookups observed since construction.
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        self.totals.iter().map(|t| t.load(Ordering::Relaxed)).sum()
    }

    /// Per-table access totals, indexed by table id — the coldness
    /// signal the tenancy pressure controller ranks demotion candidates
    /// by (fewest accesses per resident byte demotes first).
    #[must_use]
    pub fn table_accesses(&self) -> Vec<u64> {
        self.totals
            .iter()
            .map(|t| t.load(Ordering::Relaxed))
            .collect()
    }

    /// Snapshots the accumulated counts into one [`RowStats`] per table
    /// (indexed by table id), or `None` until *every* table has at
    /// least one observed access — `plan_with_stats` requires full
    /// coverage — and always `None` for a profiler built
    /// [`Self::without_rows`]. The accumulator keeps counting.
    #[must_use]
    pub fn snapshot(&self) -> Option<Vec<RowStats>> {
        let counts = self.counts.as_ref()?.lock().expect("profiler counts lock");
        counts
            .iter()
            .zip(&self.rows)
            .map(|(table, &rows)| {
                RowStats::from_counts(rows, table.iter().map(|(&r, &c)| (r, c)))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{materialize_request_with, IndexDist, TraceDb};

    fn spec() -> dlrm_model::ModelSpec {
        let mut s = dlrm_model::rm::rm1().scaled_to_bytes(1 << 20);
        s.mean_items_per_request = 6.0;
        s.default_batch_size = 4;
        s
    }

    #[test]
    fn snapshot_is_none_until_every_table_observed() {
        let spec = spec();
        let profiler = OnlineProfiler::for_spec(&spec);
        assert!(profiler.snapshot().is_none());
        assert_eq!(profiler.total_accesses(), 0);
        let db = TraceDb::generate(&spec, 4, 11);
        for i in 0..4 {
            for b in materialize_request_with(&spec, db.get(i), 8, 13, IndexDist::Zipf(1.2)) {
                profiler.observe(&b);
            }
        }
        let stats = profiler.snapshot().expect("all tables touched");
        assert_eq!(stats.len(), spec.tables.len());
        let total: u64 = stats.iter().map(RowStats::total_accesses).sum();
        assert_eq!(total, profiler.total_accesses());
        assert!(profiler.table_accesses().iter().all(|&t| t > 0));
        for (t, s) in stats.iter().enumerate() {
            assert_eq!(s.rows(), spec.tables[t].rows, "table {t} row count");
        }
    }

    #[test]
    fn observed_hot_set_matches_traffic_skew() {
        // Heavily skewed traffic: the top-ranked rows must cover a
        // disproportionate share of accesses.
        let spec = spec();
        let profiler = OnlineProfiler::for_spec(&spec);
        let db = TraceDb::generate(&spec, 32, 7);
        for i in 0..32 {
            for b in materialize_request_with(&spec, db.get(i), 8, 5, IndexDist::Zipf(1.4)) {
                profiler.observe(&b);
            }
        }
        let stats = profiler.snapshot().unwrap();
        let biggest = stats
            .iter()
            .max_by_key(|s| s.total_accesses())
            .unwrap();
        assert!(
            biggest.coverage_of_top(16) > 0.3,
            "top-16 coverage {:.3} too flat for Zipf(1.4)",
            biggest.coverage_of_top(16)
        );
    }

    #[test]
    fn totals_equal_histogram_sums() {
        let spec = spec();
        let with_rows = OnlineProfiler::for_spec(&spec);
        let totals_only = OnlineProfiler::without_rows(&spec);
        let db = TraceDb::generate(&spec, 4, 19);
        for i in 0..4 {
            for b in materialize_request_with(&spec, db.get(i), 8, 23, IndexDist::Zipf(1.1)) {
                with_rows.observe(&b);
                totals_only.observe(&b);
            }
        }
        let histogram_sums: Vec<u64> = with_rows
            .snapshot()
            .expect("all tables touched")
            .iter()
            .map(RowStats::total_accesses)
            .collect();
        assert_eq!(with_rows.table_accesses(), histogram_sums);
        assert_eq!(totals_only.table_accesses(), histogram_sums);
        assert_eq!(
            totals_only.total_accesses(),
            histogram_sums.iter().sum::<u64>()
        );
        assert!(
            totals_only.snapshot().is_none(),
            "no rows tracked, nothing to snapshot"
        );
    }
}
