//! The capacity-pressure controller: keeps the colocated tenants'
//! resident bytes under the host DRAM budget by moving tables down the
//! storage ladder, and back up when pressure clears.
//!
//! A single-threaded [`PressureController::tick`] you drive from your
//! own loop (or the runner's background thread). Each tick
//! compares the sum of every tenant's resident bytes (DRAM +
//! quantized tiers; paged backing does not count) against the budget:
//!
//! - **Over budget** → demote: rank every `(tenant, table)` pair by
//!   observed accesses per resident byte (the shared
//!   [`OnlineProfiler`](dlrm_workload::OnlineProfiler)s supply the
//!   numerator) and push the coldest pair one rung down
//!   (DRAM → quantized → paged). Repeat up to
//!   [`PressureConfig::max_actions_per_tick`] until under budget.
//! - **Under budget with headroom** → promote: pull the warmest
//!   demoted pair one rung up, but only if the promotion's estimated
//!   resident growth still fits inside the headroom band — the
//!   hysteresis that keeps a borderline table from flapping.
//!
//! Every action is **dual-read verified before publication**: the
//! candidate epoch replays the tenant's golden probe requests and must
//! reproduce the tenant's all-DRAM golden predictions — bitwise when no
//! table sits on the quantized rung, within the quantization bound
//! otherwise. Only then does the new epoch publish through the tenant's
//! [`EpochSwitch`](crate::epoch::EpochSwitch), and only if the epoch it
//! was derived from still serves; the retired epoch is freed by its last
//! in-flight batch. A failed verification publishes nothing and is
//! reported via [`PressureController::verify_failures`].

use super::tiered::retier_epoch;
use super::TenantRuntime;
use crate::epoch::ProbeCheck;
use dlrm_model::TableId;
use dlrm_sharding::{Tier, TierBytes};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Pressure-controller knobs.
#[derive(Debug, Clone)]
pub struct PressureConfig {
    /// Host DRAM budget the tenants' resident bytes must fit in.
    pub dram_budget_bytes: u64,
    /// Promotion hysteresis: promote only while the post-promotion
    /// resident estimate stays under `budget * (1 - headroom_frac)`.
    pub headroom_frac: f64,
    /// Maximum demotions + promotions per tick.
    pub max_actions_per_tick: usize,
    /// Golden probe requests replayed to verify each action.
    pub verify_requests: usize,
    /// Seed the golden probe requests are drawn from.
    pub verify_seed: u64,
    /// Output drift allowed when the verified epoch contains quantized
    /// tables (bitwise equality is demanded otherwise).
    pub quantized_tolerance: f32,
}

impl Default for PressureConfig {
    fn default() -> Self {
        Self {
            dram_budget_bytes: u64::MAX,
            headroom_frac: 0.1,
            max_actions_per_tick: 4,
            verify_requests: 2,
            verify_seed: 0x7e9a_11c5,
            quantized_tolerance: 0.05,
        }
    }
}

/// One published tier transition.
#[derive(Debug, Clone)]
pub struct TierAction {
    /// Tenant whose epoch cut over.
    pub tenant: String,
    /// The table that moved.
    pub table: TableId,
    /// Rung it left.
    pub from: Tier,
    /// Rung it landed on.
    pub to: Tier,
    /// The epoch the transition published as.
    pub epoch: u64,
    /// All tenants' resident bytes after the cutover.
    pub resident_after: u64,
}

impl TierAction {
    /// Whether this action moved the table down the ladder.
    #[must_use]
    pub fn is_demotion(&self) -> bool {
        self.to > self.from
    }
}

impl std::fmt::Display for TierAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {} {}: {} -> {} (epoch {}, resident {:.2} MiB after)",
            if self.is_demotion() { "demote" } else { "promote" },
            self.tenant,
            self.table,
            self.from,
            self.to,
            self.epoch,
            self.resident_after as f64 / (1024.0 * 1024.0)
        )
    }
}

/// The controller. Thread-safe: the budget can be moved while a runner
/// thread ticks, which is how a smoke test forces promotions mid-run.
#[derive(Debug)]
pub struct PressureController {
    cfg: PressureConfig,
    budget: AtomicU64,
    actions: Mutex<Vec<TierAction>>,
    failures: Mutex<Vec<String>>,
}

impl PressureController {
    /// A controller enforcing `cfg`.
    #[must_use]
    pub fn new(cfg: PressureConfig) -> Self {
        let budget = cfg.dram_budget_bytes;
        Self {
            cfg,
            budget: AtomicU64::new(budget),
            actions: Mutex::new(Vec::new()),
            failures: Mutex::new(Vec::new()),
        }
    }

    /// The current DRAM budget.
    #[must_use]
    pub fn budget(&self) -> u64 {
        self.budget.load(Ordering::Relaxed)
    }

    /// Moves the DRAM budget; takes effect at the next tick.
    pub fn set_budget(&self, bytes: u64) {
        self.budget.store(bytes, Ordering::Relaxed);
    }

    /// Every published action so far, in publication order.
    #[must_use]
    pub fn actions(&self) -> Vec<TierAction> {
        self.actions.lock().expect("actions lock").clone()
    }

    /// Dual-read verification failures (no epoch published for these).
    #[must_use]
    pub fn verify_failures(&self) -> Vec<String> {
        self.failures.lock().expect("failures lock").clone()
    }

    /// Published demotions so far.
    #[must_use]
    pub fn demotions(&self) -> u64 {
        self.actions().iter().filter(|a| a.is_demotion()).count() as u64
    }

    /// Published promotions so far.
    #[must_use]
    pub fn promotions(&self) -> u64 {
        self.actions().iter().filter(|a| !a.is_demotion()).count() as u64
    }

    /// One control round: demote while over budget, else promote into
    /// headroom, up to `max_actions_per_tick` published cutovers.
    /// Returns the actions it published.
    pub fn tick(&self, tenants: &[Arc<TenantRuntime>]) -> Vec<TierAction> {
        let mut published = Vec::new();
        for _ in 0..self.cfg.max_actions_per_tick {
            let resident = total_resident(tenants).resident();
            let budget = self.budget();
            let promote_below =
                (budget as f64 * (1.0 - self.cfg.headroom_frac)).max(0.0) as u64;
            let step = if resident > budget {
                rank(tenants, false, |_, _, from| from.demoted())
            } else if resident < promote_below {
                // Promote only what still fits inside the headroom band
                // (estimated from spec bytes before building).
                rank(tenants, true, |tenant, t, from| {
                    from.promoted().filter(|&up| {
                        resident - resident_estimate(tenant, t, from)
                            + resident_estimate(tenant, t, up)
                            <= promote_below
                    })
                })
            } else {
                None
            };
            let Some((tenant_idx, table, from, to)) = step else {
                break;
            };
            match self.apply(tenants, tenant_idx, table, from, to) {
                Ok(action) => published.push(action),
                Err(e) => {
                    self.failures.lock().expect("failures lock").push(format!(
                        "{}: {} {} -> {}: {e}",
                        tenants[tenant_idx].name, table, from, to
                    ));
                    break;
                }
            }
        }
        published
    }

    /// Derives, verifies, and publishes one tier transition atomically
    /// for the affected tenant; other tenants' epochs are untouched.
    pub(super) fn apply(
        &self,
        tenants: &[Arc<TenantRuntime>],
        tenant_idx: usize,
        table: usize,
        from: Tier,
        to: Tier,
    ) -> Result<TierAction, String> {
        let tenant = &tenants[tenant_idx];
        let serving = tenant.switch.current();
        let parent = serving.epoch;
        let mut tiers = super::tiers_of(&serving);
        if tiers[table] != from {
            return Err(format!("tier raced: expected {from}, found {}", tiers[table]));
        }
        tiers[table] = to;
        let candidate = retier_epoch(&serving, &tenant.spec, tenant.seed, table, to);
        // Held past the publish, the retiree would outlive its last batch.
        drop(serving);

        // Dual read: the candidate must reproduce the tenant's golden
        // (all-DRAM) predictions. Bitwise unless a quantized rung is in
        // play anywhere in the assignment.
        let check = ProbeCheck {
            spec: &tenant.spec,
            inputs: &tenant.golden_inputs,
            expected: &tenant.golden,
            tolerance: if tiers.contains(&Tier::Quantized) {
                self.cfg.quantized_tolerance
            } else {
                0.0
            },
        };
        // Numbered `parent + 1`, the candidate publishes only if `parent`
        // still serves: of two steps derived from one epoch, the second
        // to publish is refused.
        tenant.switch.transition(candidate, &check)?;
        let action = TierAction {
            tenant: tenant.name.clone(),
            table: TableId(table),
            from,
            to,
            epoch: parent + 1,
            resident_after: total_resident(tenants).resident(),
        };
        self.actions
            .lock()
            .expect("actions lock")
            .push(action.clone());
        Ok(action)
    }
}

/// The next ladder step: among every `(tenant, table)` that `next_rung`
/// gives a destination tier, the one with the fewest observed accesses
/// per byte — or the most, with `warmest` — as `(tenant, table, from,
/// to)`. Ties go to the first pair in tenant, then table order.
fn rank(
    tenants: &[Arc<TenantRuntime>],
    warmest: bool,
    next_rung: impl Fn(&TenantRuntime, usize, Tier) -> Option<Tier>,
) -> Option<(usize, usize, Tier, Tier)> {
    let mut best: Option<(f64, (usize, usize, Tier, Tier))> = None;
    for (i, tenant) in tenants.iter().enumerate() {
        let accesses = tenant.profiler.table_accesses();
        for (t, &from) in tenant.tiers().iter().enumerate() {
            let Some(to) = next_rung(tenant, t, from) else {
                continue;
            };
            let score = coldness(tenant, &accesses, t) * if warmest { -1.0 } else { 1.0 };
            if best.is_none_or(|(s, _)| score < s) {
                best = Some((score, (i, t, from, to)));
            }
        }
    }
    best.map(|(_, step)| step)
}

/// Accesses per spec byte; tables nobody touches demote first, and a
/// big cold table demotes before a small cold one (denominator).
fn coldness(tenant: &TenantRuntime, accesses: &[u64], table: usize) -> f64 {
    use dlrm_model::Footprint;
    let bytes = tenant.spec.tables[table].footprint_bytes().max(1);
    accesses.get(table).copied().unwrap_or(0) as f64 / bytes as f64
}

/// Spec-derived resident-byte estimate for one table at one tier
/// (ignores row-shard padding; used only to pre-gate promotions).
fn resident_estimate(tenant: &TenantRuntime, table: usize, tier: Tier) -> u64 {
    use dlrm_model::Footprint;
    let spec = &tenant.spec.tables[table];
    match tier {
        Tier::Dram => spec.footprint_bytes(),
        Tier::Quantized => spec.rows * u64::from(spec.dim) + spec.rows * 8,
        Tier::Paged => 0,
    }
}

/// Sum of every tenant's byte breakdown.
pub(super) fn total_resident(tenants: &[Arc<TenantRuntime>]) -> TierBytes {
    let mut b = TierBytes::default();
    for t in tenants {
        b.absorb(t.bytes_by_tier());
    }
    b
}
