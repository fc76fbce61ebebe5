//! Hot-row cache tier: main-shard-resident copies of the hottest
//! embedding rows.
//!
//! RecShard-style placement (see [`crate::plan_with_stats`]) marks a
//! small, access-CDF-chosen set of rows per table as *hot*. This module
//! materializes those rows into a read-only cache living on the main
//! shard, so the RPC layer ([`crate::rpc::SparseRpc`]) can pool a bag
//! entirely locally whenever every one of its rows is resident —
//! cutting the rows shipped over the wire without changing a single
//! output bit. Bags are strictly all-or-nothing: a bag with even one
//! cold row goes to its shard whole, because splitting a bag would
//! change float summation order.
//!
//! The cache holds *copies*: shards still host their full tables, so
//! retries, hedges, failover, and degraded fallback behave exactly as
//! without a cache — except that fully-local bags can never be lost to
//! a shard outage.

use crate::plan::ShardingPlan;
use dlrm_model::{EmbeddingTable, TableId};
use dlrm_tensor::simd::{self, SimdLevel};
use dlrm_tensor::AlignedSlab;
use std::sync::Arc;

/// Cache-tier counters: how much lookup traffic the hot-row cache
/// absorbed. Each RPC op reports its split in its `RpcOutcome`; these
/// are sums of those reports — the cache itself counts nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheTotals {
    /// Bags pooled entirely from the cache (no wire traffic).
    pub hits: u64,
    /// Bags with at least one cold row (went to a shard whole).
    pub misses: u64,
    /// Row lookups served from the cache (the rows kept off the wire).
    pub local_rows: u64,
}

impl CacheTotals {
    /// Whether nothing was counted.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == Self::default()
    }

    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: &CacheTotals) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.local_rows += other.local_rows;
    }

    /// Fraction of counted bags served entirely from the cache (0.0
    /// when nothing was counted).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

impl std::fmt::Display for CacheTotals {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hits {} misses {} ({:.4} hit rate), {} local rows",
            self.hits,
            self.misses,
            self.hit_rate(),
            self.local_rows
        )
    }
}

/// One table's resident hot rows: sorted global row ids plus their
/// weights, bit-copied from the source table.
#[derive(Debug)]
pub(crate) struct TableCache {
    /// Resident global row ids, strictly ascending.
    rows: Vec<u64>,
    dim: usize,
    /// Row weights in `rows` order, `dim` floats per row.
    data: AlignedSlab,
}

impl TableCache {
    /// The resident slot of `row`, if cached.
    fn slot(&self, row: u64) -> Option<usize> {
        self.rows.binary_search(&row).ok()
    }

    /// Resolves `bag` (global row ids) to resident slots, one lookup
    /// per row: `true` with `slots` holding the bag's slots in bag
    /// order when every row is resident, `false` (contents unspecified)
    /// at the first cold row. `slots` is the caller's scratch, reused
    /// across bags.
    pub(crate) fn resolve(&self, bag: impl IntoIterator<Item = u64>, slots: &mut Vec<u64>) -> bool {
        slots.clear();
        bag.into_iter().all(|row| match self.slot(row) {
            Some(slot) => {
                slots.push(slot as u64);
                true
            }
            None => false,
        })
    }

    /// Pools one resolved bag into `out` with the gather kernel the
    /// shard-side tables use — rows added in bag order from `+0.0` — so
    /// the result is bit-identical to the shard's.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `dim` wide or `slots` did not come from
    /// [`Self::resolve`].
    pub(crate) fn pool_slots(&self, level: SimdLevel, slots: &[u64], out: &mut [f32]) {
        let len = u32::try_from(slots.len()).expect("bag length fits u32");
        simd::sls_bags(level, &self.data, self.dim, slots, &[len], out)
            .expect("resolved slots are resident");
    }
}

/// The main shard's read-only hot-row cache, built from a plan's
/// hot-row sets against the full embedding tables. Immutable once
/// built: what it absorbed is counted per op, in the op's `RpcOutcome`.
#[derive(Debug)]
pub struct HotRowCache {
    /// Per-table residency, indexed by table id (`None` = no hot set).
    tables: Vec<Option<TableCache>>,
}

impl HotRowCache {
    /// Materializes the plan's hot-row sets from `tables` (indexed by
    /// table id, as built by the model builder).
    ///
    /// # Panics
    ///
    /// Panics if the plan and tables disagree in count or a hot row is
    /// out of range.
    #[must_use]
    pub fn build(tables: &[Arc<EmbeddingTable>], plan: &ShardingPlan) -> Self {
        assert_eq!(
            tables.len(),
            plan.placements().len(),
            "plan and tables must cover the same model"
        );
        let tables = tables
            .iter()
            .enumerate()
            .map(|(ti, table)| {
                let rows = plan.hot_rows(TableId(ti));
                if rows.is_empty() {
                    return None;
                }
                let dim = table.dim();
                let mut data = AlignedSlab::zeroed(rows.len() * dim);
                for (slot, &r) in rows.iter().enumerate() {
                    let r = usize::try_from(r).expect("row exceeds usize");
                    assert!(
                        r < table.rows(),
                        "hot row {r} out of range for table {ti} ({} rows)",
                        table.rows()
                    );
                    data[slot * dim..(slot + 1) * dim].copy_from_slice(table.row(r));
                }
                Some(TableCache {
                    rows: rows.to_vec(),
                    dim,
                    data,
                })
            })
            .collect();
        Self { tables }
    }

    /// The residency of one table, if it has a hot set.
    pub(crate) fn table(&self, table: TableId) -> Option<&TableCache> {
        self.tables.get(table.0).and_then(Option::as_ref)
    }

    /// Whether `row` of `table` is resident.
    #[must_use]
    pub fn covers(&self, table: TableId, row: u64) -> bool {
        self.table(table).is_some_and(|t| t.slot(row).is_some())
    }

    /// Total resident rows across all tables.
    #[must_use]
    pub fn resident_rows(&self) -> usize {
        self.tables
            .iter()
            .flatten()
            .map(|t| t.rows.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Location, ShardId, TablePlacement};
    use crate::ShardingStrategy;
    use dlrm_tensor::Matrix;

    fn table(rows: usize, dim: usize, salt: f32) -> Arc<EmbeddingTable> {
        let data: Vec<f32> = (0..rows * dim).map(|i| salt + i as f32).collect();
        Arc::new(EmbeddingTable::from_weights(
            "t",
            Matrix::from_vec(rows, dim, data),
        ))
    }

    fn one_table_plan(hot: Vec<u64>) -> ShardingPlan {
        ShardingPlan::new(
            ShardingStrategy::OneShard,
            1,
            vec![TablePlacement {
                table: TableId(0),
                location: Location::Shards(vec![ShardId(0)]),
            }],
        )
        .with_hot_rows(vec![hot])
    }

    #[test]
    fn cached_pooling_matches_the_table_kernel_bit_for_bit() {
        let t = table(10, 4, 0.25);
        let cache = HotRowCache::build(std::slice::from_ref(&t), &one_table_plan(vec![1, 3, 7]));
        let tc = cache.table(TableId(0)).unwrap();
        assert_eq!(tc.data.as_ptr() as usize % 64, 0, "cached rows start a cache line");
        let mut slots = Vec::new();
        assert!(!tc.resolve([3, 2], &mut slots));
        assert!(tc.resolve([3, 1, 7, 1], &mut slots));
        assert_eq!(slots, [1, 0, 2, 0]);
        // Dirty output: the kernel stores every element.
        let mut out = vec![f32::NAN; 4];
        tc.pool_slots(SimdLevel::Scalar, &slots, &mut out);
        let expect = t.sparse_lengths_sum(&[3, 1, 7, 1], &[4]);
        assert_eq!(out.as_slice(), expect.row(0));
    }

    #[test]
    fn residency_and_counters() {
        let t = table(6, 2, 0.0);
        let cache = HotRowCache::build(std::slice::from_ref(&t), &one_table_plan(vec![0, 5]));
        assert!(cache.covers(TableId(0), 5));
        assert!(!cache.covers(TableId(0), 4));
        assert_eq!(cache.resident_rows(), 2);
        let mut totals = CacheTotals::default();
        assert!(totals.is_zero());
        for (hits, misses, local_rows) in [(3, 1, 9), (1, 0, 2)] {
            totals.merge(&CacheTotals {
                hits,
                misses,
                local_rows,
            });
        }
        assert_eq!(totals.hits, 4);
        assert_eq!(totals.misses, 1);
        assert_eq!(totals.local_rows, 11);
        assert!((totals.hit_rate() - 0.8).abs() < 1e-12);
        let text = totals.to_string();
        assert!(text.contains("hits 4") && text.contains("11 local rows"), "{text}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn build_rejects_out_of_range_hot_rows() {
        let t = table(4, 2, 0.0);
        let _ = HotRowCache::build(std::slice::from_ref(&t), &one_table_plan(vec![9]));
    }
}
