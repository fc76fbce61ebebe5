//! Sharding plans: which table lives on which shard.

use crate::ShardingStrategy;
use dlrm_model::{ModelSpec, NetId, TableId};
use dlrm_workload::PoolingProfile;
use std::collections::BTreeSet;

/// Identifies one sparse shard within a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub usize);

impl std::fmt::Display for ShardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard{}", self.0)
    }
}

/// Where a table's rows live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Location {
    /// On the main shard (singular configuration only).
    Main,
    /// On remote sparse shards. One entry = the whole table on that
    /// shard; multiple entries = row-wise modulus partitioning: row `r`
    /// lives on `shards[r % shards.len()]` at local row `r / len`
    /// (§III-A1: "partitioning embedding table rows with a simple
    /// modulus operator across shards").
    Shards(Vec<ShardId>),
}

/// One table's placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TablePlacement {
    /// The table.
    pub table: TableId,
    /// Where its rows live.
    pub location: Location,
}

impl TablePlacement {
    /// Number of row-partitions (1 when whole or on main).
    #[must_use]
    pub fn parts(&self) -> usize {
        match &self.location {
            Location::Main => 1,
            Location::Shards(s) => s.len().max(1),
        }
    }

    /// Whether the table is split across multiple shards.
    #[must_use]
    pub fn is_row_sharded(&self) -> bool {
        matches!(&self.location, Location::Shards(s) if s.len() > 1)
    }

    /// The part index (modulus residue) this shard serves, if any.
    #[must_use]
    pub fn part_on(&self, shard: ShardId) -> Option<usize> {
        match &self.location {
            Location::Main => None,
            Location::Shards(s) => s.iter().position(|&x| x == shard),
        }
    }
}

/// A complete sharding decision for one model.
///
/// # Examples
///
/// ```
/// use dlrm_sharding::{plan, ShardingStrategy};
/// use dlrm_workload::PoolingProfile;
///
/// let spec = dlrm_model::rm::rm1();
/// let profile = PoolingProfile::from_spec(&spec);
/// let p = plan(&spec, &profile, ShardingStrategy::LoadBalanced(2))?;
/// // Load-balanced: pooling work split roughly evenly.
/// let a = p.shard_pooling(dlrm_sharding::ShardId(0), &profile);
/// let b = p.shard_pooling(dlrm_sharding::ShardId(1), &profile);
/// assert!((a - b).abs() / (a + b) < 0.05);
/// # Ok::<(), dlrm_sharding::PlanError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardingPlan {
    strategy: ShardingStrategy,
    num_shards: usize,
    placements: Vec<TablePlacement>,
    /// Per-table hot-row sets (parallel to `placements`; all empty for
    /// strategies without row statistics). A listed row stays *placed*
    /// on its shard per `placements` — the hot set marks a read-only
    /// main-shard copy the serving layer may consult instead of the
    /// wire.
    hot_rows: Vec<Vec<u64>>,
}

impl ShardingPlan {
    /// Creates a plan; used by the planner and by tests constructing
    /// plans directly.
    ///
    /// # Panics
    ///
    /// Panics if a placement references a shard `>= num_shards` or
    /// placements are not densely indexed by table id.
    #[must_use]
    pub fn new(
        strategy: ShardingStrategy,
        num_shards: usize,
        placements: Vec<TablePlacement>,
    ) -> Self {
        for (i, p) in placements.iter().enumerate() {
            assert_eq!(p.table, TableId(i), "placements must be table-id ordered");
            if let Location::Shards(shards) = &p.location {
                assert!(!shards.is_empty(), "empty shard list for {}", p.table);
                for s in shards {
                    assert!(s.0 < num_shards, "{s} out of range ({num_shards} shards)");
                }
                let unique: BTreeSet<_> = shards.iter().collect();
                assert_eq!(unique.len(), shards.len(), "duplicate shards for {}", p.table);
            }
        }
        let hot_rows = vec![Vec::new(); placements.len()];
        Self {
            strategy,
            num_shards,
            placements,
            hot_rows,
        }
    }

    /// Attaches per-table hot-row sets (indexed by table id, each
    /// sorted ascending) to the plan — the row-placement layer the
    /// `HotRowAware` planner emits and the serving cache tier consumes.
    ///
    /// # Panics
    ///
    /// Panics if `hot_rows` is not parallel to the placements or a
    /// table's set is not strictly ascending (sorted, no duplicates).
    #[must_use]
    pub fn with_hot_rows(mut self, hot_rows: Vec<Vec<u64>>) -> Self {
        assert_eq!(
            hot_rows.len(),
            self.placements.len(),
            "hot-row sets must be parallel to placements"
        );
        for (t, rows) in hot_rows.iter().enumerate() {
            assert!(
                rows.windows(2).all(|w| w[0] < w[1]),
                "hot rows for table {t} must be strictly ascending"
            );
        }
        self.hot_rows = hot_rows;
        self
    }

    /// The hot-row set of one table (sorted ascending; empty when the
    /// plan carries no row placement for it).
    ///
    /// # Panics
    ///
    /// Panics if `table` is out of range.
    #[must_use]
    pub fn hot_rows(&self, table: TableId) -> &[u64] {
        &self.hot_rows[table.0]
    }

    /// Whether any table carries a hot-row set.
    #[must_use]
    pub fn has_hot_rows(&self) -> bool {
        self.hot_rows.iter().any(|r| !r.is_empty())
    }

    /// Total hot rows across all tables.
    #[must_use]
    pub fn hot_row_count(&self) -> usize {
        self.hot_rows.iter().map(Vec::len).sum()
    }

    /// The strategy that produced this plan.
    #[must_use]
    pub fn strategy(&self) -> ShardingStrategy {
        self.strategy
    }

    /// Number of sparse shards (0 for singular).
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// All shard ids.
    pub fn shards(&self) -> impl Iterator<Item = ShardId> {
        (0..self.num_shards).map(ShardId)
    }

    /// The placement of one table.
    ///
    /// # Panics
    ///
    /// Panics if `table` is out of range.
    #[must_use]
    pub fn placement(&self, table: TableId) -> &TablePlacement {
        &self.placements[table.0]
    }

    /// All placements, table-id ordered.
    #[must_use]
    pub fn placements(&self) -> &[TablePlacement] {
        &self.placements
    }

    /// Tables (or table parts) hosted on `shard`.
    pub fn tables_on(&self, shard: ShardId) -> impl Iterator<Item = &TablePlacement> {
        self.placements
            .iter()
            .filter(move |p| p.part_on(shard).is_some())
    }

    /// Per-shard capacity in bytes; a row-sharded table contributes
    /// `bytes / parts` to each hosting shard (Table II "Capacity" rows).
    #[must_use]
    pub fn shard_capacity_bytes(&self, shard: ShardId, spec: &ModelSpec) -> f64 {
        self.tables_on(shard)
            .map(|p| spec.table(p.table).bytes() as f64 / p.parts() as f64)
            .sum()
    }

    /// Number of tables (counting row-shards) on `shard` (Table II
    /// "Embedding Tables" rows).
    #[must_use]
    pub fn shard_table_count(&self, shard: ShardId) -> usize {
        self.tables_on(shard).count()
    }

    /// Estimated pooling factor served by `shard`; a row-sharded table's
    /// pooling splits evenly across its parts (Table II "Estimated
    /// Pooling Factor" rows).
    #[must_use]
    pub fn shard_pooling(&self, shard: ShardId, profile: &PoolingProfile) -> f64 {
        self.tables_on(shard)
            .map(|p| profile.of(p.table) / p.parts() as f64)
            .sum()
    }

    /// The shards holding any table of `net` — the shards an inference
    /// of that net can issue RPCs to. NSBP minimizes the *sum over nets*
    /// of this set's size (one RPC per shard per net per batch).
    #[must_use]
    pub fn shards_touched_by_net(&self, net: NetId, spec: &ModelSpec) -> BTreeSet<ShardId> {
        let mut out = BTreeSet::new();
        for p in &self.placements {
            if spec.table(p.table).net == net {
                if let Location::Shards(shards) = &p.location {
                    out.extend(shards.iter().copied());
                }
            }
        }
        out
    }

    /// Whether every table of every net shares shards with only its own
    /// net (the NSBP invariant: "tables from separate nets are never
    /// assigned to the same shard").
    #[must_use]
    pub fn nets_are_isolated(&self, spec: &ModelSpec) -> bool {
        let mut owner: Vec<Option<NetId>> = vec![None; self.num_shards];
        for p in &self.placements {
            if let Location::Shards(shards) = &p.location {
                let net = spec.table(p.table).net;
                for s in shards {
                    match owner[s.0] {
                        None => owner[s.0] = Some(net),
                        Some(existing) if existing == net => {}
                        Some(_) => return false,
                    }
                }
            }
        }
        true
    }

    /// Checks structural consistency against `spec`.
    ///
    /// # Errors
    ///
    /// Describes the first violation: wrong placement count, an empty
    /// shard, or (for distributed strategies) a table left on main.
    pub fn validate(&self, spec: &ModelSpec) -> Result<(), String> {
        if self.placements.len() != spec.tables.len() {
            return Err(format!(
                "plan covers {} tables, model has {}",
                self.placements.len(),
                spec.tables.len()
            ));
        }
        if self.strategy.is_distributed() {
            for p in &self.placements {
                if matches!(p.location, Location::Main) {
                    return Err(format!("{} left on main in distributed plan", p.table));
                }
            }
            for s in self.shards() {
                if self.shard_table_count(s) == 0 {
                    return Err(format!("{s} hosts no tables"));
                }
            }
        } else {
            for p in &self.placements {
                if !matches!(p.location, Location::Main) {
                    return Err(format!("{} off-main in singular plan", p.table));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_table_spec() -> ModelSpec {
        dlrm_model::rm::rm3().scaled_to_bytes(16 << 20)
    }

    #[test]
    fn modulus_partition_accessors() {
        let p = TablePlacement {
            table: TableId(0),
            location: Location::Shards(vec![ShardId(1), ShardId(3), ShardId(5)]),
        };
        assert_eq!(p.parts(), 3);
        assert!(p.is_row_sharded());
        assert_eq!(p.part_on(ShardId(3)), Some(1));
        assert_eq!(p.part_on(ShardId(0)), None);
    }

    #[test]
    fn capacity_splits_across_row_shards() {
        let spec = two_table_spec();
        let mut placements: Vec<TablePlacement> = spec
            .tables
            .iter()
            .map(|t| TablePlacement {
                table: t.id,
                location: Location::Shards(vec![ShardId(0)]),
            })
            .collect();
        // Row-shard table 0 across shards 1 and 2.
        placements[0].location = Location::Shards(vec![ShardId(1), ShardId(2)]);
        let plan = ShardingPlan::new(ShardingStrategy::NetSpecificBinPacking(3), 3, placements);
        let t0_bytes = spec.table(TableId(0)).bytes() as f64;
        assert_eq!(plan.shard_capacity_bytes(ShardId(1), &spec), t0_bytes / 2.0);
        assert_eq!(plan.shard_capacity_bytes(ShardId(2), &spec), t0_bytes / 2.0);
        assert_eq!(plan.shard_table_count(ShardId(0)), spec.tables.len() - 1);
        assert_eq!(plan.validate(&spec), Ok(()));
    }

    #[test]
    fn net_isolation_detects_mixing() {
        let spec = dlrm_model::rm::rm1().scaled_to_bytes(16 << 20);
        // Everything on one shard: both nets share it → not isolated.
        let placements: Vec<TablePlacement> = spec
            .tables
            .iter()
            .map(|t| TablePlacement {
                table: t.id,
                location: Location::Shards(vec![ShardId(0)]),
            })
            .collect();
        let plan = ShardingPlan::new(ShardingStrategy::OneShard, 1, placements);
        assert!(!plan.nets_are_isolated(&spec));
    }

    #[test]
    fn validate_rejects_empty_shard() {
        let spec = two_table_spec();
        let placements: Vec<TablePlacement> = spec
            .tables
            .iter()
            .map(|t| TablePlacement {
                table: t.id,
                location: Location::Shards(vec![ShardId(0)]),
            })
            .collect();
        let plan = ShardingPlan::new(ShardingStrategy::CapacityBalanced(2), 2, placements);
        assert!(plan.validate(&spec).unwrap_err().contains("hosts no tables"));
    }

    #[test]
    fn hot_rows_attach_and_read_back() {
        let spec = two_table_spec();
        let placements: Vec<TablePlacement> = spec
            .tables
            .iter()
            .map(|t| TablePlacement {
                table: t.id,
                location: Location::Shards(vec![ShardId(0)]),
            })
            .collect();
        let n = placements.len();
        let plan = ShardingPlan::new(ShardingStrategy::OneShard, 1, placements);
        assert!(!plan.has_hot_rows());
        assert!(plan.hot_rows(TableId(0)).is_empty());
        let mut hot = vec![Vec::new(); n];
        hot[0] = vec![3, 9, 40];
        let plan = plan.with_hot_rows(hot);
        assert!(plan.has_hot_rows());
        assert_eq!(plan.hot_rows(TableId(0)), &[3, 9, 40]);
        assert_eq!(plan.hot_row_count(), 3);
        assert!(plan.hot_rows(TableId(1)).is_empty());
        // Hot rows are serving-layer copies, not placements: the plan
        // still validates as-is.
        assert_eq!(plan.validate(&spec), Ok(()));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn hot_rows_must_be_sorted_and_unique() {
        let plan = ShardingPlan::new(
            ShardingStrategy::OneShard,
            1,
            vec![TablePlacement {
                table: TableId(0),
                location: Location::Shards(vec![ShardId(0)]),
            }],
        );
        let _ = plan.with_hot_rows(vec![vec![5, 5]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn new_rejects_out_of_range_shard() {
        let _ = ShardingPlan::new(
            ShardingStrategy::OneShard,
            1,
            vec![TablePlacement {
                table: TableId(0),
                location: Location::Shards(vec![ShardId(2)]),
            }],
        );
    }
}
