//! Multi-tenant colocation: several recommendation models served from
//! one frontend host under per-tenant SLAs and one shared DRAM budget.
//!
//! The paper's capacity problem (§VI-B) is usually framed per model:
//! one RM's tables outgrow one host's DRAM, so the model shards out.
//! Production inference tiers face the *dual* problem too — several
//! models (RM1 + RM2 + RM3) colocated on the same hosts, competing for
//! the same DRAM and the same cores. This module supplies that
//! colocation layer over the existing serving stack:
//!
//! ```text
//!  frontend::serve, one lane per tenant:
//!    load gen ─▶ bounded lane queue ─▶ shed           (per tenant)
//!                  │
//!                  ▼
//!    shared worker pool ◀── smooth weighted-fair pick, blocking;
//!        │ takes what the picked tenant's queue already holds
//!        │ resolves the tenant's EpochSwitch per batch
//!        ▼
//!  PressureController tick: Σ resident bytes vs DRAM budget
//!        demote coldest tables DRAM → quantized → paged, promote back
//! ```
//!
//! **Isolation comes from the queues**: each tenant sheds out of its
//! *own* bounded queue and nothing of its traffic waits anywhere else,
//! so an overloaded tenant's excess traffic is turned away at its door
//! — under a burst or under sustained overload — and never occupies
//! more than its share of the pipeline. The weighted-fair dispatcher
//! then divides worker pickups among tenants with queued requests in
//! proportion to their weights.
//! Under capacity pressure the [`PressureController`] moves the
//! coldest tenants' coldest tables down the storage ladder
//! ([`Tier`]) — every transition dual-read verified against golden
//! predictions and published atomically through the tenant's own
//! [`EpochSwitch`]; the other tenants' epochs (and therefore their
//! predictions) are untouched, bit for bit.

pub mod pressure;
pub mod tiered;

pub use pressure::{PressureConfig, PressureController, TierAction};
pub use tiered::{build_tiered_epoch, TieredShardService};
// The tier vocabulary lives with the shard service that stores by it;
// re-exported here for sysbench, until the next `benchmark` PR imports
// it from `dlrm_sharding`.
pub use dlrm_sharding::{Tier, TierBytes, DEMOTED_BITS};

use crate::epoch::{probe_all, probe_inputs, EpochServing, EpochSwitch};
use crate::frontend::{serve, FrontendReport, FrontendRequest, Lane, LaneRun};
use dlrm_model::{ModelSpec, TableId};
use dlrm_sharding::{plan as make_plan, Location, ShardingStrategy, TableStore};
use dlrm_tensor::Matrix;
use dlrm_workload::{ArrivalSchedule, BatchInputs, OnlineProfiler, PoolingProfile};
use std::sync::Arc;
use std::time::Duration;

/// The static description of one colocated tenant.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (conventionally the model class: "rm1", ...).
    pub name: String,
    /// The model this tenant serves.
    pub spec: ModelSpec,
    /// Seed its weights are drawn from. A ladder step that moves a table
    /// off the 8-bit or paged rung redraws that one table from it, which
    /// is what makes promotion back to DRAM bit-exact.
    pub seed: u64,
    /// How the tenant's tables spread over its shard set.
    pub strategy: ShardingStrategy,
    /// Dispatch weight: share of worker capacity under contention.
    pub weight: u64,
    /// Bounded admission-queue capacity; overload sheds here.
    pub queue_capacity: usize,
    /// The tenant's SLA window.
    pub sla: Duration,
}

/// One tenant's full runtime: spec, serving epoch, profiler, and the
/// golden probes its tier transitions are verified against. The serving
/// epoch is the tenant's one record of its state: where each table
/// lives, and how many cutovers it has served through.
#[derive(Debug)]
pub struct TenantRuntime {
    pub(crate) name: String,
    pub(crate) spec: ModelSpec,
    pub(crate) seed: u64,
    pub(crate) weight: u64,
    pub(crate) queue_capacity: usize,
    pub(crate) sla: Duration,
    pub(crate) switch: EpochSwitch,
    pub(crate) profiler: OnlineProfiler,
    /// Probe inputs replayed to verify every tier transition.
    pub(crate) golden_inputs: Vec<BatchInputs>,
    /// All-DRAM predictions for `golden_inputs`, captured at build.
    pub(crate) golden: Vec<Matrix>,
}

impl TenantRuntime {
    /// Tenant name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current tier per table, as the serving epoch's shards hold it.
    #[must_use]
    pub fn tiers(&self) -> Vec<Tier> {
        tiers_of(&self.switch.current())
    }

    /// The live epoch's byte totals, split by tier.
    #[must_use]
    pub fn bytes_by_tier(&self) -> TierBytes {
        let mut b = TierBytes::default();
        for s in &self.switch.current().model.shards {
            b.absorb(s.bytes_by_tier());
        }
        b
    }

    /// The serving epoch: 0 at build, one more per published tier
    /// transition, so also the cutovers this tenant has served through.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.switch.epoch()
    }

    /// Replays the golden probe inputs through the *current* epoch and
    /// returns its predictions — the bit-exactness witness the property
    /// tests compare across transitions.
    ///
    /// # Errors
    ///
    /// Any engine error or degraded RPC during a probe.
    pub fn probe_current(&self) -> Result<Vec<Matrix>, String> {
        probe_all(
            &self.spec,
            &self.switch.current().model,
            &self.golden_inputs,
        )
    }

    /// The all-DRAM golden predictions captured at build time.
    #[must_use]
    pub fn golden(&self) -> &[Matrix] {
        &self.golden
    }

    /// The probe inputs [`Self::golden`] and [`Self::probe_current`]
    /// answer.
    #[must_use]
    pub fn golden_inputs(&self) -> &[BatchInputs] {
        &self.golden_inputs
    }
}

/// The tier of each table in `serving`, indexed by `TableId`: the rung
/// of the shard stores that hold it. Every shard hosting a table holds
/// it on one rung, and [`TenantSet::build`] admits no table without one.
pub(crate) fn tiers_of(serving: &EpochServing) -> Vec<Tier> {
    let model = &serving.model;
    (0..model.spec.tables.len())
        .map(|t| {
            let store = model.shards.iter().find_map(|s| s.store(TableId(t)));
            match store.expect("every table lives on a shard") {
                TableStore::Dram(_) => Tier::Dram,
                TableStore::Quantized(_) => Tier::Quantized,
                TableStore::Paged(_) => Tier::Paged,
            }
        })
        .collect()
}

/// The colocated tenants plus the pressure controller that arbitrates
/// their shared DRAM budget.
#[derive(Debug)]
pub struct TenantSet {
    tenants: Vec<Arc<TenantRuntime>>,
    controller: PressureController,
}

impl TenantSet {
    /// Builds every tenant at the all-DRAM tier, captures its golden
    /// probe predictions, and arms the pressure controller. No
    /// demotions happen here — call [`Self::pressure_tick`] (or run
    /// with a tick interval) to start enforcement.
    ///
    /// # Errors
    ///
    /// Any tenant whose plan, model build, or golden probe fails, or
    /// whose plan keeps a table on the main shard, where no ladder step
    /// can move it.
    ///
    /// # Panics
    ///
    /// Panics on an empty tenant list or a zero weight/queue capacity.
    pub fn build(specs: Vec<TenantSpec>, pressure: PressureConfig) -> Result<Self, String> {
        assert!(!specs.is_empty(), "need at least one tenant");
        let mut tenants = Vec::with_capacity(specs.len());
        for t in specs {
            assert!(t.weight > 0, "tenant {} needs a non-zero weight", t.name);
            assert!(
                t.queue_capacity > 0,
                "tenant {} needs a non-zero queue capacity",
                t.name
            );
            let profile = PoolingProfile::from_spec(&t.spec);
            let plan = make_plan(&t.spec, &profile, t.strategy)
                .map_err(|e| format!("{}: {e}", t.name))?;
            if let Some(p) = plan.placements().iter().find(|p| p.location == Location::Main) {
                return Err(format!(
                    "{}: {} stays on the main shard, off the tier ladder",
                    t.name, p.table
                ));
            }
            let tiers = vec![Tier::Dram; t.spec.tables.len()];
            let (serving, _) = build_tiered_epoch(&t.spec, &plan, t.seed, &tiers, 0)
                .map_err(|e| format!("{}: {e}", t.name))?;

            let golden_inputs =
                probe_inputs(&t.spec, pressure::VERIFY_REQUESTS, pressure::VERIFY_SEED);
            let golden = probe_all(&t.spec, &serving.model, &golden_inputs)
                .map_err(|e| format!("{} golden probe: {e}", t.name))?;

            tenants.push(Arc::new(TenantRuntime {
                profiler: OnlineProfiler::without_rows(&t.spec),
                switch: EpochSwitch::new(serving.model),
                name: t.name,
                spec: t.spec,
                seed: t.seed,
                weight: t.weight,
                queue_capacity: t.queue_capacity,
                sla: t.sla,
                golden_inputs,
                golden,
            }));
        }
        Ok(Self {
            tenants,
            controller: PressureController::new(pressure),
        })
    }

    /// Number of tenants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether the set is empty (never true after a successful build).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// The tenant runtimes, in build order.
    #[must_use]
    pub fn tenants(&self) -> &[Arc<TenantRuntime>] {
        &self.tenants
    }

    /// One tenant by index.
    #[must_use]
    pub fn tenant(&self, i: usize) -> &TenantRuntime {
        &self.tenants[i]
    }

    /// The pressure controller (budget, action log, refused steps).
    #[must_use]
    pub fn controller(&self) -> &PressureController {
        &self.controller
    }

    /// All tenants' byte totals, split by tier.
    #[must_use]
    pub fn bytes_by_tier(&self) -> TierBytes {
        pressure::total_resident(&self.tenants)
    }

    /// One pressure-controller round; returns the published actions.
    pub fn pressure_tick(&self) -> Vec<TierAction> {
        self.controller.tick(&self.tenants)
    }

    /// Forces one verified tier transition on `tenant`'s `table`,
    /// bypassing the coldness ranking but not the dual-read
    /// verification or the atomic cutover — the property tests' lever.
    ///
    /// # Errors
    ///
    /// If the table is already at `to`, the step is not adjacent on the
    /// ladder, or verification fails.
    pub fn force_transition(
        &self,
        tenant: usize,
        table: usize,
        to: Tier,
    ) -> Result<TierAction, String> {
        let from = self.tenants[tenant].tiers()[table];
        if from.demoted() != Some(to) && from.promoted() != Some(to) {
            return Err(format!("{from} -> {to} is not one ladder step"));
        }
        self.controller
            .apply(&self.tenants, tenant, table, from, to)
    }
}

/// One tenant's offered traffic for a run.
#[derive(Debug)]
pub struct TenantWorkload {
    /// The requests, offered in schedule order.
    pub requests: Vec<FrontendRequest>,
    /// Open-loop arrival offsets (must pair 1:1 with `requests`).
    pub schedule: ArrivalSchedule,
}

/// Knobs for one multi-tenant run.
#[derive(Debug, Clone, Copy)]
pub struct TenancyRunConfig {
    /// The most requests one worker pickup merges into a batch.
    pub max_batch_requests: usize,
    /// Unused: batches form at pickup and nothing waits on a timer.
    /// Declared only while `sysbench/` builds this struct field by
    /// field; the next benchmark PR deletes it.
    pub batch_timeout: Duration,
    /// Shared worker threads executing all tenants' batches.
    pub workers: usize,
    /// Run the pressure controller every so often while traffic flows;
    /// `None` leaves tiers frozen for the whole run.
    pub pressure_every: Option<Duration>,
}

impl Default for TenancyRunConfig {
    fn default() -> Self {
        Self {
            max_batch_requests: 8,
            batch_timeout: Duration::ZERO,
            workers: 2,
            pressure_every: None,
        }
    }
}

/// Everything one multi-tenant run reports.
#[derive(Debug)]
pub struct TenancyReport {
    /// Each tenant's own report, in tenant order: its admission
    /// outcomes, its SLA verdicts against its own window, its latency
    /// tails, predictions and trace. Where its bytes live is
    /// [`TenantRuntime::bytes_by_tier`]; the tier steps published and
    /// refused are the [`PressureController`]'s.
    pub per_tenant: Vec<FrontendReport>,
}

/// Drives one multi-tenant open-loop run to completion: per-tenant load
/// generators and queues, a shared weighted-fair worker pool, and
/// (optionally) the pressure controller ticking on the side. Returns
/// each tenant's own report.
///
/// # Panics
///
/// Panics if `workloads` does not pair 1:1 with the set's tenants, a
/// workload's schedule and requests differ in length, or `cfg` has a
/// zero worker count or batch size.
#[must_use]
pub fn run_tenant_set(
    set: &TenantSet,
    workloads: Vec<TenantWorkload>,
    cfg: &TenancyRunConfig,
) -> TenancyReport {
    assert_eq!(
        workloads.len(),
        set.len(),
        "one workload per tenant, in tenant order"
    );
    let (requests, schedules): (Vec<_>, Vec<_>) = workloads
        .into_iter()
        .map(|w| (w.requests, w.schedule))
        .unzip();
    let lanes = set
        .tenants()
        .iter()
        .zip(requests)
        .zip(&schedules)
        .map(|((t, requests), schedule)| Lane {
            requests,
            schedule,
            queue_capacity: t.queue_capacity,
            sla: t.sla,
            weight: t.weight,
            profiler: Some(&t.profiler),
            switch: &t.switch,
        })
        .collect();
    // The pressure loop rides the calling thread while traffic flows.
    let pressure_tick = || drop(set.pressure_tick());
    let runs = serve(
        lanes,
        cfg.max_batch_requests,
        cfg.workers,
        cfg.pressure_every
            .map(|every| (every, &pressure_tick as &dyn Fn())),
    );

    TenancyReport {
        per_tenant: runs.into_iter().map(LaneRun::into_report).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::materialize_frontend_requests;
    use dlrm_model::rm;
    use dlrm_workload::TraceDb;

    fn tenant(name: &str, spec: ModelSpec, seed: u64, shards: usize) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            spec,
            seed,
            strategy: ShardingStrategy::CapacityBalanced(shards),
            weight: 1,
            queue_capacity: 64,
            sla: Duration::from_millis(250),
        }
    }

    fn small_spec(base: ModelSpec) -> ModelSpec {
        let mut s = base.scaled_to_bytes(1 << 20);
        s.mean_items_per_request = 4.0;
        s.default_batch_size = 4;
        s
    }

    fn two_tenants() -> TenantSet {
        TenantSet::build(
            vec![
                tenant("rm1", small_spec(rm::rm1()), 3, 2),
                tenant("rm2", small_spec(rm::rm2()), 5, 2),
            ],
            PressureConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn build_starts_all_dram_with_goldens() {
        let set = two_tenants();
        assert_eq!(set.len(), 2);
        for t in set.tenants() {
            assert!(t.tiers().iter().all(|&tier| tier == Tier::Dram));
            assert!(!t.golden().is_empty());
            let b = t.bytes_by_tier();
            assert!(b.dram > 0);
            assert_eq!(b.quantized + b.paged, 0);
            let replay = t.probe_current().unwrap();
            for (a, g) in replay.iter().zip(t.golden()) {
                assert_eq!(a.as_slice(), g.as_slice());
            }
        }
    }

    #[test]
    fn colocated_run_accounts_every_tenant_separately() {
        let set = two_tenants();
        let workloads: Vec<TenantWorkload> = set
            .tenants()
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let db = TraceDb::generate(&t.spec, 10, 7 + i as u64);
                let requests = materialize_frontend_requests(&t.spec, &db, 11 + i as u64);
                let schedule = ArrivalSchedule::poisson(requests.len(), 2000.0, 13 + i as u64);
                TenantWorkload { requests, schedule }
            })
            .collect();
        let report = run_tenant_set(&set, workloads, &TenancyRunConfig::default());
        assert_eq!(report.per_tenant.len(), 2);
        assert!(set.controller().verify_failures().is_empty());
        // The worker pool is shared, but accounting never bleeds: each
        // tenant's report holds exactly its own ten requests.
        for (t, r) in set.tenants().iter().zip(&report.per_tenant) {
            assert_eq!(r.offered, 10, "{}", t.name());
            assert_eq!(r.offered, r.admitted + r.shed);
            assert_eq!(r.completed + r.failed, r.admitted);
            assert_eq!(r.predictions.len() as u64, r.completed);
            assert!(t.bytes_by_tier().dram > 0);
        }
    }

    #[test]
    fn forced_demotion_sheds_bytes_and_promotion_restores_bit_exactness() {
        let set = two_tenants();
        let before = set.tenant(0).bytes_by_tier();
        let witness_b = set.tenant(1).probe_current().unwrap();

        let act = set.force_transition(0, 0, Tier::Quantized).unwrap();
        assert!(act.is_demotion());
        let mid = set.tenant(0).bytes_by_tier();
        assert!(mid.dram < before.dram);
        assert!(mid.quantized > 0);

        let act = set.force_transition(0, 0, Tier::Paged).unwrap();
        assert!(act.is_demotion());
        let cold = set.tenant(0).bytes_by_tier();
        assert_eq!(cold.quantized, 0);
        assert!(cold.paged > 0);
        assert!(cold.resident() < before.resident());

        // Back up the ladder: the table redrawn from the tenant's seed must
        // reproduce the golden predictions bit for bit.
        set.force_transition(0, 0, Tier::Quantized).unwrap();
        set.force_transition(0, 0, Tier::Dram).unwrap();
        let after = set.tenant(0).bytes_by_tier();
        assert_eq!(after, before);
        let replay = set.tenant(0).probe_current().unwrap();
        for (a, g) in replay.iter().zip(set.tenant(0).golden()) {
            assert_eq!(a.as_slice(), g.as_slice());
        }
        // The neighbor never moved: same epoch, same bits.
        assert_eq!(set.tenant(1).epoch(), 0);
        let witness_after = set.tenant(1).probe_current().unwrap();
        for (a, b) in witness_after.iter().zip(&witness_b) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        assert_eq!(set.controller().demotions(), 2);
        assert_eq!(set.controller().promotions(), 2);
        assert!(set.controller().verify_failures().is_empty());
    }

    #[test]
    fn non_adjacent_transition_rejected() {
        let set = two_tenants();
        let err = set.force_transition(0, 0, Tier::Paged).unwrap_err();
        assert!(err.contains("not one ladder step"), "{err}");
    }

    #[test]
    fn a_tenant_with_a_table_on_the_main_shard_is_refused() {
        let mut t = tenant("rm1", small_spec(rm::rm1()), 3, 2);
        t.strategy = ShardingStrategy::Singular;
        let err = TenantSet::build(vec![t], PressureConfig::default()).unwrap_err();
        assert!(err.starts_with("rm1: "), "{err}");
        assert!(err.contains(&format!("{} stays on the main shard", TableId(0))), "{err}");
    }
}
