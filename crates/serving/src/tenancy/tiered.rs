//! Epoch builder for a tenant's tier assignment.
//!
//! Each embedding table of a tenant lives on exactly one rung of the
//! capacity ladder it descends under DRAM pressure — DRAM f32, 8-bit
//! quantized, paged to a backing file ([`Tier`]). *How* a shard holds a
//! table at a rung, and the one service that answers
//! [`ShardRequest`](dlrm_sharding::rpc::ShardRequest)s from any of them,
//! is [`dlrm_sharding::ShardService`]; this module only turns a
//! per-table assignment into a serving epoch. The pressure controller
//! calls it with a new assignment and cuts the tenant over atomically
//! via [`EpochSwitch`](crate::epoch::EpochSwitch) — no in-place
//! mutation, every epoch immutable.

use crate::epoch::EpochServing;
use dlrm_model::{build_model, ModelSpec};
use dlrm_sharding::rpc::SparseShardClient;
use dlrm_sharding::{partition_with_clients, InProcessClient, ShardService, ShardingPlan, Tier};
use std::sync::Arc;

/// For sysbench, which names the shard type of a tiered epoch; the next
/// `benchmark` PR drops it.
pub type TieredShardService = ShardService;

/// Builds one tenant serving epoch with the given per-table tier
/// assignment: rebuilds the model deterministically from `seed`, slices
/// it under `plan` into [`ShardService`]s holding each table at its
/// tier, and partitions the graph over in-process clients. The epoch
/// is numbered `epoch`; [`EpochSwitch::publish`](crate::epoch::EpochSwitch::publish)
/// renumbers a successor it serves.
///
/// The returned epoch's `model.shards` are the services — the byte
/// accounting reads them there — so the second return value is the same
/// `Arc`s again, for sysbench; the next `benchmark` PR drops it.
/// Demoting a table genuinely releases its full-precision slice when
/// the old epoch drains: nothing else holds the model's tables.
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
) -> Result<(EpochServing, Vec<Arc<ShardService>>), String> {
    assert_eq!(
        tiers.len(),
        spec.tables.len(),
        "tier assignment must cover every table"
    );
    let model = build_model(spec, seed).map_err(|e| e.to_string())?;
    let mut services = Vec::with_capacity(plan.num_shards());
    for s in plan.shards() {
        services.push(Arc::new(ShardService::build_tiered(&model.tables, plan, s, tiers)?));
    }
    let clients: Vec<Arc<dyn SparseShardClient>> = services
        .iter()
        .map(|s| Arc::new(InProcessClient::new(Arc::clone(s))) as Arc<dyn SparseShardClient>)
        .collect();
    let dist = partition_with_clients(model, plan, services.clone(), clients)
        .map_err(|e| e.to_string())?;
    Ok((EpochServing { epoch, model: dist }, services))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_model::graph::NoopObserver;
    use dlrm_model::{rm, Workspace};
    use dlrm_sharding::{partition, plan, ShardingStrategy, TierBytes};
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
        // ... and as cheap to hold: like `build`, it shares every whole
        // table's `Arc` with the model instead of copying the rows.
        let model = build_model(&spec, 11).unwrap();
        let holders = || model.tables.iter().map(Arc::strong_count).collect::<Vec<_>>();
        let unshared = holders();
        let tiered: Vec<_> = p
            .shards()
            .map(|s| ShardService::build_tiered(&model.tables, &p, s, &tiers).unwrap())
            .collect();
        let shared = holders();
        assert!(shared.iter().zip(&unshared).all(|(a, b)| a > b), "{shared:?} vs {unshared:?}");
        drop(tiered);
        let _plain: Vec<_> = p.shards().map(|s| ShardService::build(&model.tables, &p, s)).collect();
        assert_eq!(holders(), shared);
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
            let (serving, _) = build_tiered_epoch(&spec, &p, 3, tiers, 1).unwrap();
            let mut b = TierBytes::default();
            for s in &serving.model.shards {
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
}
