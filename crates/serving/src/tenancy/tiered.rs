//! Serving epochs for a tenant's tier assignment.
//!
//! Each embedding table of a tenant lives on exactly one rung of the
//! capacity ladder it descends under DRAM pressure — DRAM f32, 8-bit
//! quantized, paged to a backing file ([`Tier`]). *How* a shard holds a
//! table at a rung, and the one service that answers
//! [`ShardRequest`](dlrm_sharding::rpc::ShardRequest)s from any of them,
//! is [`dlrm_sharding::ShardService`]; this module turns an assignment
//! into a serving epoch. [`build_tiered_epoch`] builds a tenant's first
//! epoch from its seed; every ladder step after that is
//! `retier_epoch`, which derives the candidate from the serving epoch
//! and rebuilds only the moved table. The pressure controller cuts the
//! tenant over to the candidate atomically via
//! [`EpochSwitch`](crate::epoch::EpochSwitch) — no in-place mutation,
//! every epoch immutable.

use crate::epoch::EpochServing;
use dlrm_model::{build_model, EmbeddingTable, ModelSpec, TableId};
use dlrm_sharding::rpc::SparseShardClient;
use dlrm_sharding::{partition_with_clients, InProcessClient, ShardService, ShardingPlan, Tier};
use std::sync::Arc;

/// For sysbench, which names the shard type of a tiered epoch; the next
/// `benchmark` PR drops it.
pub type TieredShardService = ShardService;

/// Builds one tenant serving epoch with the given per-table tier
/// assignment from scratch: draws the whole model from `seed`, slices
/// it under `plan` into [`ShardService`]s holding each table at its
/// tier, and partitions the graph over in-process clients. The epoch
/// is numbered `epoch`: 0 for a first epoch, the serving epoch + 1 for
/// a successor [`EpochSwitch::publish`](crate::epoch::EpochSwitch::publish)
/// will take.
///
/// The returned epoch's `model.shards` are the services — the byte
/// accounting reads them there — so the second return value is the same
/// `Arc`s again, for sysbench; the next `benchmark` PR drops it.
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
    let clients = services.iter().map(in_process).collect();
    let dist = partition_with_clients(model, plan, services.clone(), clients)
        .map_err(|e| e.to_string())?;
    Ok((EpochServing { epoch, model: dist }, services))
}

/// One ladder step: the successor of `serving` with table `table` held
/// at `tier`, numbered `serving.epoch + 1`. Only the services hosting
/// the table are rebuilt ([`ShardService::with_tier`]), each called
/// in-process; every other store, service and dense operator is shared
/// with `serving`
/// ([`DistributedModel::with_shards`](dlrm_sharding::DistributedModel::with_shards)).
/// A table leaving DRAM is cut from its serving f32 slices; one leaving
/// a colder rung is redrawn alone from `seed`, once, with the bits
/// [`build_model`] draws for it. The moved table's old store is freed
/// when the last epoch holding it is released — a paged one's backing
/// file with it.
///
/// # Errors
///
/// A message if a backing file cannot be created.
pub(crate) fn retier_epoch(
    serving: &EpochServing,
    spec: &ModelSpec,
    seed: u64,
    table: usize,
    tier: Tier,
) -> Result<EpochServing, String> {
    let model = &serving.model;
    let id = TableId(table);
    let mut full = None;
    let mut replaced = Vec::new();
    let placement = model.plan.placement(id);
    for s in model.plan.shards().filter(|&s| placement.part_on(s).is_some()) {
        let redraw = || {
            let drawn = full.get_or_insert_with(|| {
                Arc::new(EmbeddingTable::from_spec(&spec.tables[table], seed))
            });
            Arc::clone(drawn)
        };
        let service = Arc::new(model.shards[s.0].with_tier(&model.plan, id, tier, redraw)?);
        replaced.push((Arc::clone(&service), in_process(&service)));
    }
    Ok(EpochServing {
        epoch: serving.epoch + 1,
        model: model.with_shards(replaced),
    })
}

/// An in-process client of `service`.
fn in_process(service: &Arc<ShardService>) -> Arc<dyn SparseShardClient> {
    Arc::new(InProcessClient::new(Arc::clone(service)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::EpochSwitch;
    use dlrm_model::graph::NoopObserver;
    use dlrm_model::{rm, Workspace};
    use dlrm_sharding::{partition, plan, ShardId, ShardingStrategy, TableStore, TierBytes};
    use dlrm_workload::{materialize_request, PoolingProfile, TraceDb};
    use std::sync::Weak;

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

    /// Whether two stores are one allocation.
    fn same_store(a: &TableStore, b: &TableStore) -> bool {
        match (a, b) {
            (TableStore::Dram(a), TableStore::Dram(b)) => Arc::ptr_eq(a, b),
            (TableStore::Quantized(a), TableStore::Quantized(b)) => Arc::ptr_eq(a, b),
            (TableStore::Paged(a), TableStore::Paged(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Publishes `next`, derived from `held` (an in-flight batch on the
    /// serving epoch), and drops the retiree the switch hands back, then
    /// releases `held`; returns whether `alive` held before the release
    /// and after it.
    fn publish_past(
        switch: &EpochSwitch,
        held: Arc<EpochServing>,
        next: EpochServing,
        alive: &dyn Fn() -> bool,
    ) -> (bool, bool) {
        drop(switch.publish(next).expect("the parent still serves"));
        let before = alive();
        drop(held);
        (before, alive())
    }

    #[test]
    fn a_step_shares_all_but_the_moved_table_and_its_last_holder_frees_its_old_store() {
        let spec = toy_spec();
        let profile = PoolingProfile::from_spec(&spec);
        let p = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(3)).unwrap();
        let (paged, moved) = (0, 1);
        let mut tiers = vec![Tier::Dram; spec.tables.len()];
        tiers[paged] = Tier::Paged;
        let switch = EpochSwitch::new(build_tiered_epoch(&spec, &p, 5, &tiers, 0).unwrap().0);
        let stores = |e: &EpochServing, t: usize| -> Vec<TableStore> {
            e.model.shards.iter().filter_map(|s| s.store(TableId(t)).cloned()).collect()
        };

        // Demote one table: everything else is the serving epoch's own.
        let old = switch.current();
        let new = retier_epoch(&old, &spec, 5, moved, Tier::Quantized).unwrap();
        for t in (0..spec.tables.len()).filter(|&t| t != moved) {
            let (a, b) = (stores(&old, t), stores(&new, t));
            assert!(a.iter().zip(&b).all(|(a, b)| same_store(a, b)), "table {t}");
        }
        let fcs = |e: &EpochServing| -> Vec<_> {
            let ops = e.model.nets.iter().flat_map(|net| net.ops());
            ops.filter_map(|op| op.as_fully_connected().map(|fc| Arc::clone(fc.weights())))
                .collect()
        };
        let (old_fcs, new_fcs) = (fcs(&old), fcs(&new));
        assert!(!old_fcs.is_empty());
        assert!(old_fcs.iter().zip(&new_fcs).all(|(a, b)| Arc::ptr_eq(a, b)), "FC weights");
        let hosts = |s: usize| p.placement(TableId(moved)).part_on(ShardId(s)).is_some();
        assert!((0..p.num_shards()).any(|s| !hosts(s)), "a shard hosts no moved table");
        for (s, (a, b)) in old.model.shards.iter().zip(&new.model.shards).enumerate() {
            assert_eq!(Arc::ptr_eq(a, b), !hosts(s), "shard {s}");
        }
        assert!(stores(&new, moved).iter().all(|s| matches!(s, TableStore::Quantized(_))));

        // The moved table's f32 slice outlives the cutover only while a
        // batch holds the retiree.
        let f32_slices: Vec<Weak<EmbeddingTable>> = stores(&old, moved)
            .iter()
            .map(|s| match s {
                TableStore::Dram(t) => Arc::downgrade(t),
                other => panic!("{other:?} is not in DRAM"),
            })
            .collect();
        let backing: Vec<Weak<_>> = stores(&old, paged)
            .iter()
            .map(|s| match s {
                TableStore::Paged(t) => Arc::downgrade(t),
                other => panic!("{other:?} is not paged"),
            })
            .collect();
        assert!(!f32_slices.is_empty() && !backing.is_empty());
        let f32_alive = || f32_slices.iter().any(|w| w.upgrade().is_some());
        assert_eq!(publish_past(&switch, old, new, &f32_alive), (true, false));

        // The paged table's backing file (the store owns its handle) is
        // shared by both epochs, so it lives on in the serving one until
        // a promotion's retiree is released too.
        let backing_alive = || backing.iter().any(|w| w.upgrade().is_some());
        assert!(backing_alive());
        let old = switch.current();
        let new = retier_epoch(&old, &spec, 5, paged, Tier::Quantized).unwrap();
        assert!(stores(&new, paged).iter().all(|s| matches!(s, TableStore::Quantized(_))));
        assert_eq!(publish_past(&switch, old, new, &backing_alive), (true, false));
    }
}
