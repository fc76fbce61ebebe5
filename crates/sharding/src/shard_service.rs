//! Sparse-shard services: the remote side of the RPC operators.

use crate::plan::{ShardId, ShardingPlan};
use crate::rpc::{RpcError, ShardRequest, ShardResponse, SparseShardClient, TableSlice};
use dlrm_model::{EmbeddingTable, Pool, TableId};
use dlrm_tensor::simd::GatherError;
use dlrm_tensor::Matrix;
use std::collections::HashMap;
use std::sync::Arc;

/// The fault text every shard service gives for an index past its
/// local rows.
fn out_of_range(slice: &TableSlice, index: u64, rows: usize) -> String {
    format!("index {index} out of range for {} ({rows} local rows)", slice.table)
}

/// Range-checks a wire slice for a table kind whose row decoders assert
/// (quantized, paged). An f32 table needs no such scan: [`pool_slice`]'s
/// kernel checks as it validates.
///
/// # Errors
///
/// The fault message naming the largest index when it is `>= rows`.
pub fn check_slice_range(slice: &TableSlice, rows: usize) -> Result<(), String> {
    match slice.indices.iter().max() {
        Some(&max) if max as usize >= rows => Err(out_of_range(slice, max, rows)),
        _ => Ok(()),
    }
}

/// Pools one wire slice from a shard's f32 copy of its table. The
/// gather kernel validates the slice once — the only scan of its
/// indices — and a rejection comes back as the text of the caller's
/// [`RpcError::ShardFault`].
///
/// # Errors
///
/// The fault message when an index is out of range or the lengths do
/// not cover the indices.
pub fn pool_slice(table: &EmbeddingTable, slice: &TableSlice, pool: &Pool) -> Result<Matrix, String> {
    let mut out = Matrix::zeros(slice.lengths.len(), table.dim());
    table
        .try_sparse_lengths_sum_into(&slice.indices, &slice.lengths, &mut out, pool)
        .map_err(|e| match e {
            GatherError::IndexOutOfRange { index, rows } => out_of_range(slice, index, rows),
            GatherError::LengthMismatch { .. } => format!("{e} for {}", slice.table),
        })?;
    Ok(out)
}

/// A stateless sparse-shard service: holds this shard's (slices of)
/// embedding tables and answers pooled lookups.
///
/// Statelessness is a hard constraint in the paper's design: "each shard
/// is stateless to avoid further complexity ... shards may fail and need
/// to restart or replicas may be added" (§III-A1). Accordingly the
/// service is immutable after construction and every request carries all
/// the state it needs.
#[derive(Debug)]
pub struct ShardService {
    shard: ShardId,
    tables: HashMap<TableId, Arc<EmbeddingTable>>,
    /// Intra-op pool the SLS kernels fan out on (sequential unless
    /// configured via [`Self::with_pool`]). Bag-parallel pooling is
    /// bit-exact for any worker count, so this never changes results.
    pool: Pool,
}

impl ShardService {
    /// Builds the shard's table slices from the full model tables and
    /// the plan.
    ///
    /// For a whole table, the shard shares the model's `Arc` directly.
    /// For a row-sharded table, the shard materializes its partition:
    /// local row `j` is global row `j * parts + part` (the modulus
    /// layout of §III-A1).
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
                let dim = full.dim();
                let mut m = Matrix::zeros(local_rows, dim);
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
            tables.insert(placement.table, local);
        }
        Self {
            shard,
            tables,
            pool: Pool::sequential(),
        }
    }

    /// Returns the service with its SLS kernels fanning out on `pool`.
    #[must_use]
    pub fn with_pool(mut self, pool: Pool) -> Self {
        self.pool = pool;
        self
    }

    /// The shard this service implements.
    #[must_use]
    pub fn shard_id(&self) -> ShardId {
        self.shard
    }

    /// Number of (possibly partial) tables hosted.
    #[must_use]
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Bytes of embedding weights materialized on this shard.
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        self.tables.values().map(|t| t.bytes()).sum()
    }

    /// Executes one RPC: pools every requested slice.
    ///
    /// # Errors
    ///
    /// [`RpcError::ShardFault`] naming the offending table when it is
    /// not hosted here, an index is out of range or the lengths do not
    /// cover the indices — deterministic rejections, never retried.
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
            pooled.push((slice.table, pool_slice(table, slice, &self.pool).map_err(fault)?));
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

    fn execute(&self, request: &ShardRequest) -> Result<ShardResponse, RpcError> {
        self.service.execute(request)
    }
}

/// Convenience: one placement with the whole table on one shard.
#[cfg(test)]
fn whole(table: usize, shard: usize) -> crate::plan::TablePlacement {
    crate::plan::TablePlacement {
        table: TableId(table),
        location: crate::plan::Location::Shards(vec![ShardId(shard)]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Location;
    use crate::rpc::TableSlice;
    use crate::ShardingStrategy;
    use dlrm_model::NetId;

    fn table(rows: usize) -> Arc<EmbeddingTable> {
        let data: Vec<f32> = (0..rows * 2).map(|k| k as f32).collect();
        Arc::new(EmbeddingTable::from_weights(
            "t",
            Matrix::from_vec(rows, 2, data),
        ))
    }

    #[test]
    fn whole_table_shared_not_copied() {
        let tables = vec![table(4)];
        let plan = ShardingPlan::new(ShardingStrategy::OneShard, 1, vec![whole(0, 0)]);
        let svc = ShardService::build(&tables, &plan, ShardId(0));
        assert_eq!(svc.table_count(), 1);
        assert_eq!(svc.capacity_bytes(), 4 * 2 * 4);
    }

    #[test]
    fn row_sharded_slices_interleave() {
        let tables = vec![table(5)];
        let plan = ShardingPlan::new(
            ShardingStrategy::NetSpecificBinPacking(2),
            2,
            vec![crate::plan::TablePlacement {
                table: TableId(0),
                location: Location::Shards(vec![ShardId(0), ShardId(1)]),
            }],
        );
        let s0 = ShardService::build(&tables, &plan, ShardId(0));
        let s1 = ShardService::build(&tables, &plan, ShardId(1));
        // Global rows 0,2,4 on shard 0; 1,3 on shard 1.
        // Row values: row r = [2r, 2r+1].
        let resp0 = s0
            .execute(&ShardRequest {
                net: NetId(0),
                slices: vec![TableSlice {
                    table: TableId(0),
                    indices: vec![0, 1, 2], // global 0, 2, 4
                    lengths: vec![3],
                }],
            })
            .unwrap();
        assert_eq!(resp0.pooled[0].1.row(0), &[0.0 + 4.0 + 8.0, 1.0 + 5.0 + 9.0]);
        let resp1 = s1
            .execute(&ShardRequest {
                net: NetId(0),
                slices: vec![TableSlice {
                    table: TableId(0),
                    indices: vec![0, 1], // global 1, 3
                    lengths: vec![2],
                }],
            })
            .unwrap();
        assert_eq!(resp1.pooled[0].1.row(0), &[2.0 + 6.0, 3.0 + 7.0]);
    }

    #[test]
    fn unknown_table_rejected() {
        let tables = vec![table(2)];
        let plan = ShardingPlan::new(ShardingStrategy::OneShard, 1, vec![whole(0, 0)]);
        let svc = ShardService::build(&tables, &plan, ShardId(0));
        let err = svc
            .execute(&ShardRequest {
                net: NetId(0),
                slices: vec![TableSlice {
                    table: TableId(9),
                    indices: vec![],
                    lengths: vec![],
                }],
            })
            .unwrap_err();
        assert!(err.to_string().contains("not hosted"));
        assert!(!err.is_retryable());
    }

    #[test]
    fn out_of_range_local_index_rejected() {
        let tables = vec![table(2)];
        let plan = ShardingPlan::new(ShardingStrategy::OneShard, 1, vec![whole(0, 0)]);
        let svc = ShardService::build(&tables, &plan, ShardId(0));
        let err = svc
            .execute(&ShardRequest {
                net: NetId(0),
                slices: vec![TableSlice {
                    table: TableId(0),
                    indices: vec![7],
                    lengths: vec![1],
                }],
            })
            .unwrap_err();
        assert!(err.to_string().contains("out of range"));
        assert_eq!(err.kind(), "shard-fault");
    }

    #[test]
    fn lengths_that_do_not_cover_the_indices_are_a_fault_not_a_panic() {
        let tables = vec![table(2)];
        let plan = ShardingPlan::new(ShardingStrategy::OneShard, 1, vec![whole(0, 0)]);
        let svc = ShardService::build(&tables, &plan, ShardId(0));
        let err = svc
            .execute(&ShardRequest {
                net: NetId(0),
                slices: vec![TableSlice {
                    table: TableId(0),
                    indices: vec![0, 1],
                    lengths: vec![1],
                }],
            })
            .unwrap_err();
        assert!(err.to_string().contains("lengths sum 1 != indices len 2"), "{err}");
        assert_eq!(err.kind(), "shard-fault");
    }

    #[test]
    fn in_process_client_passes_through() {
        let tables = vec![table(3)];
        let plan = ShardingPlan::new(ShardingStrategy::OneShard, 1, vec![whole(0, 0)]);
        let svc = Arc::new(ShardService::build(&tables, &plan, ShardId(0)));
        let client = InProcessClient::new(Arc::clone(&svc));
        assert_eq!(client.shard_id(), ShardId(0));
        let resp = client
            .execute(&ShardRequest {
                net: NetId(0),
                slices: vec![TableSlice {
                    table: TableId(0),
                    indices: vec![2],
                    lengths: vec![1],
                }],
            })
            .unwrap();
        assert_eq!(resp.pooled[0].1.row(0), &[4.0, 5.0]);
    }
}
