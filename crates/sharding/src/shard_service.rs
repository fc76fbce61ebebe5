//! The sparse-shard service: the remote side of the RPC operators.

use crate::plan::{ShardId, ShardingPlan};
use crate::rpc::{
    ReadyResponse, RpcCompletion, RpcError, ShardRequest, ShardResponse, SparseShardClient,
};
use crate::store::{local_slice, TableStore, Tier, TierBytes};
use dlrm_model::{EmbeddingTable, Pool, TableId};
use std::collections::HashMap;
use std::sync::Arc;

/// A stateless sparse-shard service: holds this shard's (slices of)
/// embedding tables, each at its storage [`Tier`], and answers pooled
/// lookups.
///
/// Statelessness is a hard constraint in the paper's design: "each shard
/// is stateless to avoid further complexity ... shards may fail and need
/// to restart or replicas may be added" (§III-A1). Accordingly the
/// service is immutable after construction and every request carries all
/// the state it needs; a tier change means a new service
/// ([`Self::with_tier`]), which shares every slice it does not move.
#[derive(Debug, Clone)]
pub struct ShardService {
    shard: ShardId,
    tables: HashMap<TableId, TableStore>,
    /// Intra-op pool the SLS kernels run on: sequential, since a shard
    /// scales by its replicas and serving threads, not inside one call.
    pool: Pool,
}

impl ShardService {
    /// Builds the shard's table slices, all in DRAM, from the full model
    /// tables and the plan: [`Self::build_tiered`] with every table at
    /// [`Tier::Dram`].
    ///
    /// # Panics
    ///
    /// Panics if `model_tables` does not cover the plan's tables.
    #[must_use]
    pub fn build(
        model_tables: &[Arc<EmbeddingTable>],
        plan: &ShardingPlan,
        shard: ShardId,
    ) -> Self {
        let tiers = vec![Tier::Dram; model_tables.len()];
        Self::build_tiered(model_tables, plan, shard, &tiers).expect("a DRAM store opens no file")
    }

    /// Builds the shard's table slices, storing each at the tier `tiers`
    /// assigns its table (indexed by [`TableId`]).
    ///
    /// Slicing does not depend on the tier: a whole table is the model's
    /// `Arc` (shared, not copied, when it stays in DRAM); a row-sharded
    /// table materializes its partition in the modulus layout of
    /// §III-A1.
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
    pub fn build_tiered(
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
            let id = placement.table;
            let local = local_slice(&model_tables[id.0], placement.parts(), part);
            tables.insert(id, TableStore::new(local, tiers[id.0])?);
        }
        Ok(Self {
            shard,
            tables,
            pool: Pool::sequential(),
        })
    }

    /// This service with `table`'s slice held at `tier`, sharing every
    /// other slice's store (the same `Arc`). The slice is the f32 store
    /// this service holds when `table` is in DRAM here; otherwise it is
    /// cut under `plan` from `full()`, the whole f32 table, as
    /// [`Self::build_tiered`] cuts it.
    ///
    /// # Errors
    ///
    /// As [`Self::build_tiered`].
    ///
    /// # Panics
    ///
    /// Panics if this service does not host `table`.
    pub fn with_tier(
        &self,
        plan: &ShardingPlan,
        table: TableId,
        tier: Tier,
        full: impl FnOnce() -> Arc<EmbeddingTable>,
    ) -> Result<Self, String> {
        let local = match self.store(table).expect("the service hosts the table") {
            TableStore::Dram(local) => Arc::clone(local),
            TableStore::Quantized(_) | TableStore::Paged(_) => {
                let placement = plan.placement(table);
                let part = placement.part_on(self.shard).expect("the plan places the table here");
                local_slice(&full(), placement.parts(), part)
            }
        };
        let mut next = self.clone();
        next.tables.insert(table, TableStore::new(local, tier)?);
        Ok(next)
    }

    /// The store holding `table`'s slice, if this service hosts it.
    #[must_use]
    pub fn store(&self, table: TableId) -> Option<&TableStore> {
        self.tables.get(&table)
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
            b.absorb(t.bytes());
        }
        b
    }

    /// Bytes of embedding weights materialized on this shard, on every
    /// tier.
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        let b = self.bytes_by_tier();
        usize::try_from(b.resident() + b.paged).expect("shard fits in memory")
    }

    /// Executes one RPC: pools every requested slice from wherever its
    /// rows live.
    ///
    /// # Errors
    ///
    /// [`RpcError::ShardFault`] naming the offending table when it is
    /// not hosted here, an index is out of range, the lengths do not
    /// cover the indices or a paged read fails — deterministic
    /// rejections, never retried.
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
            pooled.push((slice.table, table.pool(slice, &self.pool).map_err(fault)?));
        }
        Ok(ShardResponse { pooled })
    }
}

/// In-process client: calls the shard service directly. Used for
/// correctness verification of the partitioned graph (no concurrency,
/// no cost model).
#[derive(Debug, Clone)]
pub struct InProcessClient {
    service: Arc<ShardService>,
}

impl InProcessClient {
    /// Wraps a shard service.
    #[must_use]
    pub fn new(service: Arc<ShardService>) -> Self {
        Self { service }
    }
}

impl SparseShardClient for InProcessClient {
    fn shard_id(&self) -> ShardId {
        self.service.shard_id()
    }

    fn begin_shared(
        &self,
        request: &Arc<ShardRequest>,
    ) -> Result<Box<dyn RpcCompletion>, RpcError> {
        Ok(Box::new(ReadyResponse(self.service.execute(request))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Location, TablePlacement};
    use crate::rpc::TableSlice;
    use crate::store::DEMOTED_BITS;
    use crate::ShardingStrategy;
    use dlrm_compress::QuantizedTable;
    use dlrm_model::NetId;
    use dlrm_tensor::Matrix;

    const TIERS: [Tier; 3] = [Tier::Dram, Tier::Quantized, Tier::Paged];

    /// Rows `[2r, 2r + 1]`.
    fn table(rows: usize) -> Arc<EmbeddingTable> {
        let data: Vec<f32> = (0..rows * 2).map(|k| k as f32).collect();
        Arc::new(EmbeddingTable::from_weights(
            "t",
            Matrix::from_vec(rows, 2, data),
        ))
    }

    /// Table 0 on shards `0..parts`.
    fn plan_over(parts: usize) -> ShardingPlan {
        let strategy = match parts {
            1 => ShardingStrategy::OneShard,
            n => ShardingStrategy::NetSpecificBinPacking(n),
        };
        let placement = TablePlacement {
            table: TableId(0),
            location: Location::Shards((0..parts).map(ShardId).collect()),
        };
        ShardingPlan::new(strategy, parts, vec![placement])
    }

    fn request(table: usize, indices: Vec<u64>, lengths: Vec<u32>) -> ShardRequest {
        ShardRequest {
            net: NetId(0),
            slices: vec![TableSlice {
                table: TableId(table),
                indices,
                lengths,
            }],
        }
    }

    /// `got` is what the DRAM tier answers (`want`) for one bag of `bag`
    /// rows of `local`: bit for bit, except on the quantized tier, which
    /// may be off by the table's dequantization error per row pooled.
    fn assert_pooled(tier: Tier, local: &EmbeddingTable, bag: usize, got: &[f32], want: &[f32]) {
        if tier != Tier::Quantized {
            assert_eq!(got, want, "{tier}");
            return;
        }
        let err = QuantizedTable::quantize(local, DEMOTED_BITS).max_dequantization_error(local);
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() <= bag as f32 * err + 1e-6, "{tier}: {g} vs {w}");
        }
    }

    #[test]
    fn whole_table_shared_not_copied() {
        for tier in TIERS {
            let tables = vec![table(4)];
            let svc = ShardService::build_tiered(&tables, &plan_over(1), ShardId(0), &[tier]).unwrap();
            assert_eq!(svc.tables.len(), 1);
            // DRAM holds the model's own allocation; a colder tier holds
            // its own encoding and lets the f32 rows go.
            let shared = tier == Tier::Dram;
            assert_eq!(Arc::strong_count(&tables[0]), 1 + usize::from(shared), "{tier}");
            let b = svc.bytes_by_tier();
            let f32_bytes = 4 * 2 * 4;
            match tier {
                Tier::Dram => assert_eq!((b.dram, b.quantized + b.paged), (f32_bytes, 0)),
                Tier::Quantized => assert!(b.quantized > 0 && b.dram + b.paged == 0, "{b:?}"),
                Tier::Paged => assert_eq!((b.paged, b.resident()), (f32_bytes, 0)),
            }
            assert_eq!(svc.capacity_bytes() as u64, b.resident() + b.paged);
            let resp = svc.execute(&request(0, vec![1, 3], vec![2])).unwrap();
            assert_pooled(tier, &tables[0], 2, resp.pooled[0].1.row(0), &[2.0 + 6.0, 3.0 + 7.0]);
        }
        let tables = vec![table(4)];
        let svc = ShardService::build(&tables, &plan_over(1), ShardId(0));
        assert_eq!(Arc::strong_count(&tables[0]), 2, "build is all-DRAM");
        assert_eq!(svc.capacity_bytes(), 4 * 2 * 4);
    }

    #[test]
    fn row_sharded_slices_interleave() {
        let tables = vec![table(5)];
        let plan = plan_over(2);
        for tier in TIERS {
            // Global rows 0,2,4 on shard 0; 1,3 on shard 1.
            for (part, indices, want) in [
                (0, vec![0u64, 1, 2], [0.0 + 4.0 + 8.0, 1.0 + 5.0 + 9.0]),
                (1, vec![0u64, 1], [2.0 + 6.0, 3.0 + 7.0]),
            ] {
                let svc = ShardService::build_tiered(&tables, &plan, ShardId(part), &[tier]).unwrap();
                let bag = indices.len();
                let resp = svc.execute(&request(0, indices, vec![bag as u32])).unwrap();
                let local = local_slice(&tables[0], 2, part);
                assert_pooled(tier, &local, bag, resp.pooled[0].1.row(0), &want);
            }
        }
    }

    /// A malformed request is the same deterministic fault on every
    /// tier, raised before any row decoder (which would assert) runs.
    #[test]
    fn every_tier_rejects_a_bad_request_with_the_same_fault() {
        let tables = vec![table(2)];
        let cases = [
            (request(9, vec![], vec![]), "t9 not hosted on shard0"),
            (request(0, vec![7], vec![1]), "index 7 out of range for t0 (2 local rows)"),
            (
                request(0, vec![0, u64::MAX], vec![2]),
                "index 18446744073709551615 out of range for t0 (2 local rows)",
            ),
            (request(0, vec![0, 1], vec![1]), "lengths sum 1 != indices len 2 for t0"),
            (request(0, vec![0, 9], vec![1]), "lengths sum 1 != indices len 2 for t0"),
        ];
        for tier in TIERS {
            let svc = ShardService::build_tiered(&tables, &plan_over(1), ShardId(0), &[tier]).unwrap();
            for (bad, message) in &cases {
                let err = svc.execute(bad).unwrap_err();
                assert_eq!(err.kind(), "shard-fault", "{tier}");
                assert!(!err.is_retryable(), "{tier}");
                assert_eq!(err.to_string(), format!("shard-fault on shard0: {message}"), "{tier}");
            }
        }
    }

    #[test]
    fn in_process_client_passes_through() {
        let tables = vec![table(3)];
        let svc = Arc::new(ShardService::build(&tables, &plan_over(1), ShardId(0)));
        let client = InProcessClient::new(Arc::clone(&svc));
        assert_eq!(client.shard_id(), ShardId(0));
        let resp = client.execute(&request(0, vec![2], vec![1])).unwrap();
        assert_eq!(resp.pooled[0].1.row(0), &[4.0, 5.0]);
    }
}
