//! Tiered sparse-shard serving: the capacity ladder a tenant's tables
//! descend under DRAM pressure.
//!
//! Each embedding table of a tenant lives on exactly one rung:
//!
//! 1. **DRAM** — full-precision f32 slices, bit-exact with the
//!    single-tenant serving path (this is the same local-slice layout
//!    [`ShardService`](dlrm_sharding::ShardService) builds).
//! 2. **Quantized** — 8-bit row-wise quantization
//!    ([`QuantizedTable`]), ~4× smaller, predictions drift within the
//!    quantization error bound (§VII-D composes compression with
//!    distribution; here it composes with *colocation*).
//! 3. **Paged** — the f32 rows live in a backing file
//!    ([`PagedTable`](crate::paging::PagedTable)) and DRAM holds only
//!    metadata; lookups page rows in on demand. Bit-exact with DRAM,
//!    but every lookup pays the paging penalty the capacity model
//!    (§VI-B) charges for exceeding the DRAM budget.
//!
//! A [`TieredShardService`] holds one tier-resolved table per hosted
//! placement and answers the same [`ShardRequest`]s as the f32 service,
//! so the partitioned graph is oblivious to where its rows actually
//! live. The pressure controller rebuilds a tenant's shard set with a
//! new tier assignment and cuts it over atomically via
//! [`EpochSwitch`](crate::rebalance::EpochSwitch) — no in-place
//! mutation, every epoch immutable, exactly like a rebalance cutover.

use crate::paging::PagedTable;
use crate::rebalance::EpochServing;
use dlrm_compress::QuantizedTable;
use dlrm_model::{build_model, EmbeddingTable, Footprint, ModelSpec, Pool, TableId};
use dlrm_sharding::rpc::{RpcError, ShardRequest, ShardResponse, SparseShardClient};
use dlrm_sharding::{check_slice_range, partition_with_clients, pool_slice, ShardId, ShardingPlan};
use dlrm_tensor::Matrix;
use std::collections::HashMap;
use std::sync::Arc;

/// Bit width demoted tables are quantized at. 8-bit keeps the output
/// drift within the bound the compression tests establish (< 0.05 on
/// the final sigmoid), which is what demotion verification checks.
pub const DEMOTED_BITS: u8 = 8;

/// The storage rung one table currently occupies. Ordered hottest to
/// coldest: demotion moves right, promotion moves left.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// Full-precision f32 rows resident in DRAM.
    Dram,
    /// 8-bit row-wise quantized, resident in DRAM at ~1/4 the bytes.
    Quantized,
    /// f32 rows in a backing file; only metadata resident.
    Paged,
}

impl Tier {
    /// The next rung down the ladder, or `None` from the coldest.
    #[must_use]
    pub fn demoted(self) -> Option<Tier> {
        match self {
            Tier::Dram => Some(Tier::Quantized),
            Tier::Quantized => Some(Tier::Paged),
            Tier::Paged => None,
        }
    }

    /// The next rung up the ladder, or `None` from the hottest.
    #[must_use]
    pub fn promoted(self) -> Option<Tier> {
        match self {
            Tier::Dram => None,
            Tier::Quantized => Some(Tier::Dram),
            Tier::Paged => Some(Tier::Quantized),
        }
    }

    /// Stable lowercase label for logs and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Tier::Dram => "dram",
            Tier::Quantized => "quantized",
            Tier::Paged => "paged",
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Byte totals split by tier. `dram + quantized` is what counts against
/// the host DRAM budget; `paged` is backing-file bytes that do not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierBytes {
    /// Full-precision resident bytes.
    pub dram: u64,
    /// Quantized resident bytes (codes + per-row scale/bias).
    pub quantized: u64,
    /// Backing-file bytes of paged tables (not DRAM-resident).
    pub paged: u64,
}

impl TierBytes {
    /// Bytes counting against the DRAM budget.
    #[must_use]
    pub fn resident(&self) -> u64 {
        self.dram + self.quantized
    }

    /// Accumulates another breakdown into this one.
    pub fn absorb(&mut self, other: TierBytes) {
        self.dram += other.dram;
        self.quantized += other.quantized;
        self.paged += other.paged;
    }
}

impl std::fmt::Display for TierBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        const MIB: f64 = 1024.0 * 1024.0;
        write!(
            f,
            "resident {:.2} MiB (dram {:.2}, quantized {:.2}) + paged {:.2} MiB",
            self.resident() as f64 / MIB,
            self.dram as f64 / MIB,
            self.quantized as f64 / MIB,
            self.paged as f64 / MIB
        )
    }
}

/// One table slice resolved to its tier.
#[derive(Debug)]
enum TierTable {
    Dram(Arc<EmbeddingTable>),
    Quantized(QuantizedTable),
    Paged(PagedTable),
}

impl TierTable {
    fn rows(&self) -> usize {
        match self {
            TierTable::Dram(t) => t.rows(),
            TierTable::Quantized(t) => t.rows(),
            TierTable::Paged(t) => t.rows(),
        }
    }
}

/// A sparse-shard service whose tables live on per-table storage tiers.
///
/// Like [`ShardService`](dlrm_sharding::ShardService) it is stateless
/// and immutable after construction; a tier change means building a new
/// service set and cutting the tenant's epoch over.
#[derive(Debug)]
pub struct TieredShardService {
    shard: ShardId,
    tables: HashMap<TableId, TierTable>,
}

impl TieredShardService {
    /// Builds the shard's slices, storing each at the tier `tiers`
    /// assigns its table (indexed by [`TableId`]). Slicing is identical
    /// to the f32 service: a whole table is shared, a row-sharded table
    /// materializes local row `j` = global row `j * parts + part`.
    ///
    /// # Errors
    ///
    /// An I/O error message if a paged table's backing file cannot be
    /// created.
    ///
    /// # Panics
    ///
    /// Panics if `model_tables` or `tiers` do not cover the plan's
    /// tables.
    pub fn build(
        model_tables: &[Arc<EmbeddingTable>],
        plan: &ShardingPlan,
        shard: ShardId,
        tiers: &[Tier],
    ) -> Result<Self, String> {
        let mut tables = HashMap::new();
        for placement in plan.placements() {
            let Some(part) = placement.part_on(shard) else {
                continue;
            };
            let full = &model_tables[placement.table.0];
            let parts = placement.parts();
            let local: Arc<EmbeddingTable> = if parts == 1 {
                Arc::clone(full)
            } else {
                let rows = full.rows();
                let local_rows = rows.div_ceil(parts).max(1);
                let mut m = Matrix::zeros(local_rows, full.dim());
                for j in 0..local_rows {
                    let global = j * parts + part;
                    if global < rows {
                        m.row_mut(j).copy_from_slice(full.row(global));
                    }
                }
                Arc::new(EmbeddingTable::from_weights(
                    format!("{}[part {part}/{parts}]", full.name()),
                    m,
                ))
            };
            let stored = match tiers[placement.table.0] {
                Tier::Dram => TierTable::Dram(local),
                Tier::Quantized => {
                    TierTable::Quantized(QuantizedTable::quantize(&local, DEMOTED_BITS))
                }
                Tier::Paged => TierTable::Paged(
                    PagedTable::from_table(&local)
                        .map_err(|e| format!("paging {}: {e}", local.name()))?,
                ),
            };
            tables.insert(placement.table, stored);
        }
        Ok(Self { shard, tables })
    }

    /// The shard this service implements.
    #[must_use]
    pub fn shard_id(&self) -> ShardId {
        self.shard
    }

    /// Byte totals of the hosted slices, split by tier.
    #[must_use]
    pub fn bytes_by_tier(&self) -> TierBytes {
        let mut b = TierBytes::default();
        for t in self.tables.values() {
            match t {
                TierTable::Dram(t) => b.dram += t.footprint_bytes(),
                TierTable::Quantized(t) => b.quantized += t.footprint_bytes(),
                TierTable::Paged(t) => b.paged += t.backing_bytes(),
            }
        }
        b
    }

    /// Executes one RPC: pools every requested slice from wherever its
    /// rows live.
    ///
    /// # Errors
    ///
    /// [`RpcError::ShardFault`] when a table is not hosted, an index is
    /// out of range, or a paged read fails.
    pub fn execute(&self, request: &ShardRequest) -> Result<ShardResponse, RpcError> {
        let fault = |message: String| RpcError::ShardFault {
            shard: self.shard,
            message,
        };
        let mut pooled = Vec::with_capacity(request.slices.len());
        for slice in &request.slices {
            let table = self
                .tables
                .get(&slice.table)
                .ok_or_else(|| fault(format!("{} not hosted on {}", slice.table, self.shard)))?;
            // The DRAM rung's gather kernel validates its slice itself;
            // the other rungs' row decoders assert, so check for them.
            if !matches!(table, TierTable::Dram(_)) {
                check_slice_range(slice, table.rows()).map_err(fault)?;
            }
            let out = match table {
                TierTable::Dram(t) => pool_slice(t, slice, &Pool::sequential()).map_err(fault)?,
                TierTable::Quantized(t) => t.sparse_lengths_sum(&slice.indices, &slice.lengths),
                TierTable::Paged(t) => t
                    .sparse_lengths_sum(&slice.indices, &slice.lengths)
                    .map_err(|e| fault(format!("paged read for {}: {e}", slice.table)))?,
            };
            pooled.push((slice.table, out));
        }
        Ok(ShardResponse { pooled })
    }
}

/// In-process client over a tiered shard service.
#[derive(Debug, Clone)]
pub struct TieredClient {
    service: Arc<TieredShardService>,
}

impl TieredClient {
    /// Wraps a tiered shard service.
    #[must_use]
    pub fn new(service: Arc<TieredShardService>) -> Self {
        Self { service }
    }
}

impl SparseShardClient for TieredClient {
    fn shard_id(&self) -> ShardId {
        self.service.shard_id()
    }

    fn execute(&self, request: &ShardRequest) -> Result<ShardResponse, RpcError> {
        self.service.execute(request)
    }
}

/// Builds one tenant serving epoch with the given per-table tier
/// assignment: rebuilds the model deterministically from `seed`, slices
/// it under `plan` into [`TieredShardService`]s, and partitions the
/// graph over in-process tiered clients.
///
/// The returned [`EpochServing`] carries no replica pool (the tiered
/// clients are in-process), and no f32 [`ShardService`]
/// (dlrm_sharding::ShardService) handles are retained — demoting a
/// table genuinely releases its full-precision slices when the old
/// epoch drains.
///
/// # Errors
///
/// A message if the model fails to build, a backing file cannot be
/// created, or partitioning fails.
pub fn build_tiered_epoch(
    spec: &ModelSpec,
    plan: &ShardingPlan,
    seed: u64,
    tiers: &[Tier],
    epoch: u64,
) -> Result<(EpochServing, Vec<Arc<TieredShardService>>), String> {
    assert_eq!(
        tiers.len(),
        spec.tables.len(),
        "tier assignment must cover every table"
    );
    let model = build_model(spec, seed).map_err(|e| e.to_string())?;
    let mut services = Vec::with_capacity(plan.num_shards());
    for s in plan.shards() {
        services.push(Arc::new(TieredShardService::build(
            &model.tables,
            plan,
            s,
            tiers,
        )?));
    }
    let clients: Vec<Arc<dyn SparseShardClient>> = services
        .iter()
        .map(|s| Arc::new(TieredClient::new(Arc::clone(s))) as Arc<dyn SparseShardClient>)
        .collect();
    let dist = partition_with_clients(model, plan, Vec::new(), clients)
        .map_err(|e| e.to_string())?;
    Ok((
        EpochServing {
            epoch,
            model: dist,
            pool: None,
        },
        services,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_model::graph::NoopObserver;
    use dlrm_model::{rm, Workspace};
    use dlrm_sharding::{partition, plan, ShardingStrategy};
    use dlrm_workload::{materialize_request, PoolingProfile, TraceDb};

    fn toy_spec() -> ModelSpec {
        let mut s = rm::rm2().scaled_to_bytes(2 << 20);
        s.mean_items_per_request = 10.0;
        s.default_batch_size = 5;
        s
    }

    #[test]
    fn ladder_steps_are_inverses() {
        assert_eq!(Tier::Dram.demoted(), Some(Tier::Quantized));
        assert_eq!(Tier::Quantized.demoted(), Some(Tier::Paged));
        assert_eq!(Tier::Paged.demoted(), None);
        assert_eq!(Tier::Paged.promoted(), Some(Tier::Quantized));
        assert_eq!(Tier::Quantized.promoted(), Some(Tier::Dram));
        assert_eq!(Tier::Dram.promoted(), None);
    }

    #[test]
    fn all_dram_tiered_epoch_is_bit_exact_with_f32_partition() {
        let spec = toy_spec();
        let profile = PoolingProfile::from_spec(&spec);
        let p = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(3)).unwrap();
        let tiers = vec![Tier::Dram; spec.tables.len()];
        let (serving, _) = build_tiered_epoch(&spec, &p, 11, &tiers, 1).unwrap();
        let exact = partition(build_model(&spec, 11).unwrap(), &p).unwrap();
        let db = TraceDb::generate(&spec, 2, 9);
        for batch in materialize_request(&spec, db.get(0), 5, 9) {
            let mut ws_a = Workspace::new();
            batch.load_into(&spec, &mut ws_a);
            let mut ws_b = ws_a.clone();
            let a = exact.run(&mut ws_a, &mut NoopObserver).unwrap();
            let b = serving.model.run(&mut ws_b, &mut NoopObserver).unwrap();
            assert_eq!(a.as_slice(), b.as_slice(), "all-DRAM tier must be bit-exact");
        }
    }

    #[test]
    fn paged_tier_is_bit_exact_and_quantized_within_bound() {
        let spec = toy_spec();
        let profile = PoolingProfile::from_spec(&spec);
        let p = plan(&spec, &profile, ShardingStrategy::NetSpecificBinPacking(3)).unwrap();
        let dram = vec![Tier::Dram; spec.tables.len()];
        let paged = vec![Tier::Paged; spec.tables.len()];
        let mut quantized = dram.clone();
        quantized[0] = Tier::Quantized;

        let (base, _) = build_tiered_epoch(&spec, &p, 7, &dram, 1).unwrap();
        let (cold, _) = build_tiered_epoch(&spec, &p, 7, &paged, 2).unwrap();
        let (mixed, _) = build_tiered_epoch(&spec, &p, 7, &quantized, 3).unwrap();

        let db = TraceDb::generate(&spec, 2, 13);
        let mut drift = 0.0f32;
        for batch in materialize_request(&spec, db.get(0), 5, 13) {
            let mut ws = Workspace::new();
            batch.load_into(&spec, &mut ws);
            let mut ws_cold = ws.clone();
            let mut ws_mixed = ws.clone();
            let a = base.model.run(&mut ws, &mut NoopObserver).unwrap();
            let b = cold.model.run(&mut ws_cold, &mut NoopObserver).unwrap();
            let c = mixed.model.run(&mut ws_mixed, &mut NoopObserver).unwrap();
            assert_eq!(a.as_slice(), b.as_slice(), "paged tier must be bit-exact");
            drift = drift.max(a.max_abs_diff(&c));
        }
        assert!(drift < 0.05, "quantized drift {drift}");
        assert!(drift > 0.0, "quantization should perturb something");
    }

    #[test]
    fn demotion_moves_bytes_down_the_ladder() {
        let spec = toy_spec();
        let profile = PoolingProfile::from_spec(&spec);
        let p = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(2)).unwrap();
        let all = |tier: Tier| vec![tier; spec.tables.len()];
        let totals = |tiers: &[Tier]| {
            let (_, services) = build_tiered_epoch(&spec, &p, 3, tiers, 1).unwrap();
            let mut b = TierBytes::default();
            for s in &services {
                b.absorb(s.bytes_by_tier());
            }
            b
        };
        let dram = totals(&all(Tier::Dram));
        let quant = totals(&all(Tier::Quantized));
        let paged = totals(&all(Tier::Paged));
        assert_eq!(dram.quantized + dram.paged, 0);
        assert_eq!(quant.dram + quant.paged, 0);
        assert_eq!(paged.resident(), 0);
        assert_eq!(paged.paged, dram.dram, "paged backing holds the f32 bytes");
        let ratio = dram.resident() as f64 / quant.resident() as f64;
        assert!(ratio > 3.0 && ratio < 4.2, "8-bit ratio {ratio}");
    }

    #[test]
    fn tiered_service_rejects_bad_requests() {
        let spec = toy_spec();
        let profile = PoolingProfile::from_spec(&spec);
        let p = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(2)).unwrap();
        let model = build_model(&spec, 1).unwrap();
        let tiers = vec![Tier::Paged; spec.tables.len()];
        let svc = TieredShardService::build(&model.tables, &p, ShardId(0), &tiers).unwrap();
        let err = svc
            .execute(&ShardRequest {
                net: dlrm_model::NetId(0),
                slices: vec![dlrm_sharding::rpc::TableSlice {
                    table: TableId(usize::MAX - 1),
                    indices: vec![],
                    lengths: vec![],
                }],
            })
            .unwrap_err();
        assert!(!err.is_retryable());
        assert!(err.to_string().contains("not hosted"), "{err}");
    }
}
