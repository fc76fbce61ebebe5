//! Quantized sparse-shard serving: compression × distribution.
//!
//! §VII-D's conclusion is that compression is *complementary* to
//! distributed inference. This module composes the two for the real
//! engine: a sparse-shard service whose tables are stored row-wise
//! quantized (8- or 4-bit) and dequantized on the fly inside
//! `SparseLengthsSum`. A shard's memory footprint drops ~4–8× while the
//! distributed graph keeps working unchanged — predictions match the
//! uncompressed model within the quantization error bound.

use crate::QuantizedTable;
use dlrm_model::EmbeddingTable;
use dlrm_sharding::rpc::{RpcError, ShardRequest, ShardResponse, SparseShardClient};
use dlrm_sharding::{check_slice_range, ShardId, ShardService, ShardingPlan};
use std::collections::HashMap;
use std::sync::Arc;

/// A stateless sparse-shard service over quantized tables.
#[derive(Debug)]
pub struct QuantizedShardService {
    shard: ShardId,
    tables: HashMap<dlrm_model::TableId, QuantizedTable>,
}

impl QuantizedShardService {
    /// Builds the shard's quantized slices: materializes the same local
    /// tables a [`ShardService`] would hold (including row-partitioning)
    /// and quantizes each at `bits`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not 4 or 8.
    #[must_use]
    pub fn build(
        model_tables: &[Arc<EmbeddingTable>],
        plan: &ShardingPlan,
        shard: ShardId,
        bits: u8,
    ) -> Self {
        // Reuse the f32 slicing logic, then quantize each local table.
        let f32_service = ShardService::build(model_tables, plan, shard);
        let mut tables = HashMap::new();
        for placement in plan.placements() {
            if placement.part_on(shard).is_none() {
                continue;
            }
            // Rebuild the local slice the same way ShardService did and
            // quantize it. (ShardService doesn't expose its tables;
            // rebuilding keeps both definitions in one place.)
            let _ = &f32_service;
            let full = &model_tables[placement.table.0];
            let parts = placement.parts();
            let local = if parts == 1 {
                QuantizedTable::quantize(full, bits)
            } else {
                let part = placement.part_on(shard).expect("hosted");
                let rows = full.rows();
                let local_rows = rows.div_ceil(parts).max(1);
                let mut m = dlrm_tensor::Matrix::zeros(local_rows, full.dim());
                for j in 0..local_rows {
                    let global = j * parts + part;
                    if global < rows {
                        m.row_mut(j).copy_from_slice(full.row(global));
                    }
                }
                QuantizedTable::quantize(
                    &EmbeddingTable::from_weights(
                        format!("{}[q part {part}/{parts}]", full.name()),
                        m,
                    ),
                    bits,
                )
            };
            tables.insert(placement.table, local);
        }
        Self { shard, tables }
    }

    /// The shard this service implements.
    #[must_use]
    pub fn shard_id(&self) -> ShardId {
        self.shard
    }

    /// Compressed bytes materialized on this shard.
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        self.tables.values().map(QuantizedTable::bytes).sum()
    }

    /// Executes one RPC against the quantized tables.
    ///
    /// # Errors
    ///
    /// A non-retryable [`RpcError::ShardFault`] naming the offending
    /// table when it is not hosted here or an index is out of range.
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
            check_slice_range(slice, table.rows()).map_err(fault)?;
            pooled.push((
                slice.table,
                table.sparse_lengths_sum(&slice.indices, &slice.lengths),
            ));
        }
        Ok(ShardResponse { pooled })
    }
}

/// Client over a quantized shard service.
#[derive(Debug, Clone)]
pub struct QuantizedClient {
    service: Arc<QuantizedShardService>,
}

impl QuantizedClient {
    /// Wraps a quantized shard service.
    #[must_use]
    pub fn new(service: Arc<QuantizedShardService>) -> Self {
        Self { service }
    }
}

impl SparseShardClient for QuantizedClient {
    fn shard_id(&self) -> ShardId {
        self.service.shard_id()
    }

    fn execute(&self, request: &ShardRequest) -> Result<ShardResponse, RpcError> {
        self.service.execute(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_model::graph::NoopObserver;
    use dlrm_model::{build_model, rm, ModelSpec, Workspace};
    use dlrm_sharding::{partition, partition_with_clients, plan, ShardingStrategy};
    use dlrm_workload::{materialize_request, PoolingProfile, TraceDb};

    fn toy_spec() -> ModelSpec {
        let mut s = rm::rm2().scaled_to_bytes(2 << 20);
        s.mean_items_per_request = 10.0;
        s.default_batch_size = 5;
        s
    }

    fn quantized_distributed(
        spec: &ModelSpec,
        strategy: ShardingStrategy,
        bits: u8,
        seed: u64,
    ) -> (dlrm_sharding::DistributedModel, usize, usize) {
        let profile = PoolingProfile::from_spec(spec);
        let p = plan(spec, &profile, strategy).unwrap();
        let model = build_model(spec, seed).unwrap();
        let f32_services: Vec<Arc<ShardService>> = p
            .shards()
            .map(|s| Arc::new(ShardService::build(&model.tables, &p, s)))
            .collect();
        let f32_bytes: usize = f32_services.iter().map(|s| s.capacity_bytes()).sum();
        let q_services: Vec<Arc<QuantizedShardService>> = p
            .shards()
            .map(|s| Arc::new(QuantizedShardService::build(&model.tables, &p, s, bits)))
            .collect();
        let q_bytes: usize = q_services.iter().map(|s| s.capacity_bytes()).sum();
        let clients: Vec<Arc<dyn SparseShardClient>> = q_services
            .into_iter()
            .map(|s| Arc::new(QuantizedClient::new(s)) as Arc<dyn SparseShardClient>)
            .collect();
        let dist = partition_with_clients(model, &p, f32_services, clients).unwrap();
        (dist, f32_bytes, q_bytes)
    }

    #[test]
    fn quantized_shards_shrink_footprint() {
        let spec = toy_spec();
        let (_, f32_bytes, q8) =
            quantized_distributed(&spec, ShardingStrategy::CapacityBalanced(4), 8, 3);
        let (_, _, q4) =
            quantized_distributed(&spec, ShardingStrategy::CapacityBalanced(4), 4, 3);
        let r8 = f32_bytes as f64 / q8 as f64;
        let r4 = f32_bytes as f64 / q4 as f64;
        assert!(r8 > 3.0 && r8 < 4.2, "8-bit ratio {r8}");
        assert!(r4 > 5.0 && r4 < 8.2, "4-bit ratio {r4}");
    }

    #[test]
    fn quantized_distributed_matches_f32_within_error_bound() {
        let spec = toy_spec();
        let strategy = ShardingStrategy::LoadBalanced(2);
        let (quantized, _, _) = quantized_distributed(&spec, strategy, 8, 7);
        let profile = PoolingProfile::from_spec(&spec);
        let p = plan(&spec, &profile, strategy).unwrap();
        let exact = partition(build_model(&spec, 7).unwrap(), &p).unwrap();

        let db = TraceDb::generate(&spec, 2, 9);
        let mut worst = 0.0f32;
        for batch in materialize_request(&spec, db.get(0), 5, 9) {
            let mut ws_a = Workspace::new();
            batch.load_into(&spec, &mut ws_a);
            let mut ws_b = ws_a.clone();
            let a = exact.run(&mut ws_a, &mut NoopObserver).unwrap();
            let b = quantized.run(&mut ws_b, &mut NoopObserver).unwrap();
            worst = worst.max(a.max_abs_diff(&b));
        }
        // Embedding perturbations of ~2e-3 per element pass through the
        // MLPs with bounded gain; the final sigmoid output stays close.
        assert!(worst < 0.05, "quantized output drift {worst}");
        assert!(worst > 0.0, "quantization should perturb something");
    }

    #[test]
    fn row_sharded_quantized_tables_work() {
        let mut spec = rm::rm3().scaled_to_bytes(2 << 20);
        spec.mean_items_per_request = 10.0;
        spec.default_batch_size = 5;
        let (dist, _, _) =
            quantized_distributed(&spec, ShardingStrategy::NetSpecificBinPacking(4), 8, 5);
        let db = TraceDb::generate(&spec, 1, 5);
        let batches = materialize_request(&spec, db.get(0), 5, 5);
        let mut ws = Workspace::new();
        batches[0].load_into(&spec, &mut ws);
        let out = dist.run(&mut ws, &mut NoopObserver).unwrap();
        assert!(out.as_slice().iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn unknown_table_and_bad_index_rejected() {
        let spec = toy_spec();
        let profile = PoolingProfile::from_spec(&spec);
        let p = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(2)).unwrap();
        let model = build_model(&spec, 1).unwrap();
        let svc = QuantizedShardService::build(&model.tables, &p, ShardId(0), 8);
        let missing = svc.execute(&ShardRequest {
            net: dlrm_model::NetId(0),
            slices: vec![dlrm_sharding::rpc::TableSlice {
                table: dlrm_model::TableId(usize::MAX - 1),
                indices: vec![],
                lengths: vec![],
            }],
        });
        let err = missing.unwrap_err();
        assert!(!err.is_retryable(), "{err}");
        assert!(err.to_string().contains("not hosted"), "{err}");
    }
}
