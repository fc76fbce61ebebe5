//! Online resharding and replica autoscaling under live traffic.
//!
//! The paper's capacity-driven scale-out story is *static*: a plan is
//! profiled, published, and served (§III). This subsystem closes the
//! loop while the tier keeps serving. A [`Rebalancer`] watches live
//! per-shard load (replica RPC call deltas) and a continuously
//! re-profiled access distribution ([`OnlineProfiler`]), and drives two
//! control actions:
//!
//! 1. **Live migration.** When the observed hot set has drifted, it
//!    computes a successor [`ShardingPlan`] (`plan_with_stats`, the
//!    RecShard-style hot-row-aware planner), *warms* the target in the
//!    background — shards are stateless (§III-A1), so the successor
//!    epoch's weights rebuild deterministically from spec + plan + seed
//!    with no weight shipping — runs a **dual-read verification
//!    window** (seeded probe requests executed against both epochs,
//!    compared for bit-exactness), and only then publishes the new
//!    epoch through the [`EpochSwitch`]. Cutover is one atomic pointer
//!    swap; the vacated epoch drains gracefully (its last in-flight
//!    batch releases the `Arc`, then its pool shuts down).
//! 2. **Replica autoscaling.** Per shard, sustained call pressure above
//!    a threshold adds a replica to the live pool (the §VII-C
//!    replication planner's decision, taken online); sustained idleness
//!    removes one, never below the floor.
//!
//! Every decision is recorded — [`MigrationRecord`]s with per-phase
//! timings and moved bytes, [`ScaleEvent`]s — and surfaced in the
//! [`RebalanceReport`] next to the retired epochs' absorbed transport
//! summaries, so a run shows exactly which requests were served by
//! which epoch and what each cutover cost.

pub mod epoch;

pub use epoch::{probe_all, probe_inputs, DrainQueue, EpochServing, EpochSwitch, ProbeCheck};

use crate::fault::FaultPlan;
use crate::replica::{HealthPolicy, ReplicatedShardPool, TransportSummary};
use dlrm_model::ModelSpec;
use dlrm_sharding::rpc::RpcPolicy;
use dlrm_sharding::{plan_with_stats, HotRowConfig, ShardId, ShardingPlan, ShardingStrategy};
use dlrm_workload::{OnlineProfiler, PoolingProfile};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs for the rebalance controller.
#[derive(Debug, Clone)]
pub struct RebalanceConfig {
    /// A migration is considered only once every table has at least
    /// this many profiled accesses in the current window — the planner
    /// needs coverage before its hot sets mean anything.
    pub profile_min_accesses: u64,
    /// Seeded probe requests executed against both epochs before a
    /// cutover; any error, degraded response, or prediction mismatch
    /// aborts the migration.
    pub dual_read_requests: usize,
    /// Seed for the dual-read probe inputs.
    pub dual_read_seed: u64,
    /// Hot-row budget/coverage for the successor plans.
    pub hot_rows: HotRowConfig,
    /// Shard count of successor plans
    /// ([`ShardingStrategy::HotRowAware`]).
    pub strategy_shards: usize,
    /// Scale **up** a shard when the embedding rows requested of it per
    /// tick, per replica, sustain at or above this. Rows, not calls: a
    /// merged batch of four is one call carrying four requests' rows,
    /// so only rows read the same load the same way at every batch
    /// size.
    pub scale_up_rows_per_tick: u64,
    /// Scale **down** a shard when the rows requested of it per tick,
    /// over *all* its replicas, sustain at or below this.
    pub scale_down_rows_per_tick: u64,
    /// Consecutive ticks a pressure/idle condition must hold before the
    /// controller acts on it (anti-flap).
    pub sustain_ticks: u32,
    /// Replica floor per shard (scale-down never goes below).
    pub min_replicas: usize,
    /// Replica ceiling per shard (scale-up never goes above).
    pub max_replicas: usize,
    /// Ticks after a cutover (or a no-op/aborted attempt) before the
    /// next migration is considered.
    pub cooldown_ticks: u32,
    /// Hard cap on *completed* migrations (`usize::MAX` = unlimited).
    pub max_migrations: usize,
    /// Injected service delay for warmed pools' workers (match the live
    /// pool's).
    pub worker_delay: Duration,
    /// Fault schedules for warmed pools' workers, by `(shard index,
    /// replica index)` — how chaos tests crash a replica mid-migration.
    pub warm_faults: FaultPlan,
    /// Health policy for warmed pools.
    pub health: HealthPolicy,
    /// RPC retry/hedge policy applied to warmed epochs' models; `None`
    /// keeps the partitioner default.
    pub rpc_policy: Option<RpcPolicy>,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        Self {
            profile_min_accesses: 2_000,
            dual_read_requests: 4,
            dual_read_seed: 17,
            hot_rows: HotRowConfig::default(),
            strategy_shards: 2,
            // The former 200 / 10 calls per tick at the ~40 000 rows a
            // call carried in `rebalance_smoke` (batches of ~3.9).
            scale_up_rows_per_tick: 8_000_000,
            scale_down_rows_per_tick: 400_000,
            sustain_ticks: 2,
            min_replicas: 1,
            max_replicas: 4,
            cooldown_ticks: 3,
            max_migrations: usize::MAX,
            worker_delay: Duration::ZERO,
            warm_faults: FaultPlan::none(),
            health: HealthPolicy::default(),
            rpc_policy: None,
        }
    }
}

/// One migration attempt, completed or aborted.
#[derive(Debug, Clone)]
pub struct MigrationRecord {
    /// Epoch served when the attempt started.
    pub from_epoch: u64,
    /// Epoch of the successor plan (published only if not aborted).
    pub to_epoch: u64,
    /// Tables whose placement or hot set changed.
    pub moved_tables: usize,
    /// Embedding bytes of those tables — the capacity the cutover
    /// re-homed (rebuilt from seed, not shipped).
    pub moved_bytes: u64,
    /// Background warm phase: model rebuild, service construction, pool
    /// spawn, partition.
    pub warm_ms: f64,
    /// Dual-read verification window.
    pub dual_read_ms: f64,
    /// Whole attempt, warm start to publish (or abort).
    pub total_ms: f64,
    /// Whether the attempt was abandoned before publishing.
    pub aborted: bool,
    /// Why it aborted (`None` when published).
    pub abort_reason: Option<String>,
}

/// Scale direction of a [`ScaleEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDirection {
    /// A replica was added.
    Up,
    /// A replica was removed.
    Down,
}

/// One replica-autoscaling action.
#[derive(Debug, Clone)]
pub struct ScaleEvent {
    /// Epoch whose pool was scaled.
    pub epoch: u64,
    /// The shard scaled.
    pub shard: ShardId,
    /// Added or removed.
    pub direction: ScaleDirection,
    /// Replica count after the action.
    pub replicas_after: usize,
    /// The rows requested per tick that triggered it (per replica for
    /// up, total for down).
    pub rows_per_tick: u64,
}

/// Everything a rebalancer run did, for reports and gates.
#[derive(Debug)]
pub struct RebalanceReport {
    /// Every migration attempt in order, aborted ones included.
    pub migrations: Vec<MigrationRecord>,
    /// Every autoscaling action in order.
    pub scale_events: Vec<ScaleEvent>,
    /// Cutovers actually published (`migrations` minus aborts).
    pub cutovers: u64,
    /// Epoch serving when the controller stopped.
    pub final_epoch: u64,
    /// Transport activity of every drained epoch, folded together.
    pub retired_transport: TransportSummary,
    /// Retired epochs still undrained at shutdown (0 in a clean run).
    pub undrained: usize,
}

impl RebalanceReport {
    /// Completed (non-aborted) migrations.
    #[must_use]
    pub fn completed_migrations(&self) -> usize {
        self.migrations.iter().filter(|m| !m.aborted).count()
    }

    /// Aborted migration attempts.
    #[must_use]
    pub fn aborted_migrations(&self) -> usize {
        self.migrations.iter().filter(|m| m.aborted).count()
    }

    /// Scale-ups and scale-downs, respectively.
    #[must_use]
    pub fn scale_counts(&self) -> (usize, usize) {
        let up = self
            .scale_events
            .iter()
            .filter(|e| e.direction == ScaleDirection::Up)
            .count();
        (up, self.scale_events.len() - up)
    }
}

impl std::fmt::Display for RebalanceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (up, down) = self.scale_counts();
        writeln!(
            f,
            "rebalance: {} cutovers ({} aborted attempts) | final epoch {} | scale-ups {} | scale-downs {} | undrained {}",
            self.cutovers,
            self.aborted_migrations(),
            self.final_epoch,
            up,
            down,
            self.undrained
        )?;
        for m in &self.migrations {
            writeln!(
                f,
                "  epoch {} -> {}: {} tables / {:.1} MiB {} | warm {:.1}ms | dual-read {:.1}ms | total {:.1}ms{}",
                m.from_epoch,
                m.to_epoch,
                m.moved_tables,
                m.moved_bytes as f64 / (1 << 20) as f64,
                if m.aborted { "ABORTED" } else { "moved" },
                m.warm_ms,
                m.dual_read_ms,
                m.total_ms,
                match &m.abort_reason {
                    Some(r) => format!(" ({r})"),
                    None => String::new(),
                }
            )?;
        }
        write!(f, "  retired transport: {}", self.retired_transport)
    }
}

/// Builds one serving epoch from first principles: deterministic model
/// weights from `seed`, one stateless [`ShardService`] per plan shard,
/// a replicated worker pool, and the partitioned model wired to the
/// pool's clients (hot-row cache attached when the plan carries hot
/// sets). It is epoch 0; a controller building a successor renumbers
/// it to the serving epoch + 1.
///
/// # Errors
///
/// Returns the builder's or partitioner's error message.
pub fn build_epoch_serving(
    spec: &ModelSpec,
    plan: &ShardingPlan,
    seed: u64,
    replicas_per_shard: usize,
    cfg: &RebalanceConfig,
) -> Result<EpochServing, String> {
    let (mut dist, pool) = ReplicatedShardPool::assemble(spec, plan, seed, |services| {
        Ok(ReplicatedShardPool::spawn(
            services,
            replicas_per_shard,
            cfg.worker_delay,
            &cfg.warm_faults,
            cfg.health,
        ))
    })?;
    if let Some(policy) = cfg.rpc_policy {
        dist.set_rpc_policy(policy);
    }
    Ok(EpochServing {
        epoch: 0,
        model: dist,
        pool: Some(pool),
    })
}

/// The control loop: watches live load, migrates plans, scales
/// replicas. Single-threaded — drive it with [`Rebalancer::tick`] from
/// your own loop, or hand it to a thread with [`Rebalancer::spawn`].
#[derive(Debug)]
pub struct Rebalancer {
    spec: ModelSpec,
    seed: u64,
    profile: PoolingProfile,
    switch: Arc<EpochSwitch>,
    profiler: Arc<OnlineProfiler>,
    cfg: RebalanceConfig,
    dual_inputs: Vec<dlrm_workload::BatchInputs>,
    drain: DrainQueue,
    migrations: Vec<MigrationRecord>,
    scale_events: Vec<ScaleEvent>,
    /// Autoscaler state, valid for `last_epoch` only.
    last_epoch: u64,
    last_rows: Vec<u64>,
    streak_up: Vec<u32>,
    streak_down: Vec<u32>,
    cooldown: u32,
}

impl Rebalancer {
    /// A controller for the tier behind `switch`, profiling via
    /// `profiler` (share it with the frontend — see
    /// [`Lane::profiler`](crate::frontend::Lane)). `seed` must be the seed the *serving*
    /// model was built from: successor epochs rebuild weights from it,
    /// which is what makes cutovers bit-exact.
    #[must_use]
    pub fn new(
        spec: ModelSpec,
        seed: u64,
        switch: Arc<EpochSwitch>,
        profiler: Arc<OnlineProfiler>,
        cfg: RebalanceConfig,
    ) -> Self {
        let profile = PoolingProfile::from_spec(&spec);
        let dual_inputs = probe_inputs(&spec, cfg.dual_read_requests, cfg.dual_read_seed);
        Self {
            spec,
            seed,
            profile,
            switch,
            profiler,
            cfg,
            dual_inputs,
            drain: DrainQueue::default(),
            migrations: Vec::new(),
            scale_events: Vec::new(),
            last_epoch: u64::MAX,
            last_rows: Vec::new(),
            streak_up: Vec::new(),
            streak_down: Vec::new(),
            cooldown: 0,
        }
    }

    /// One control-loop iteration: drain retired epochs whose last
    /// in-flight batch has completed, consider a migration, then apply
    /// autoscaling decisions.
    pub fn tick(&mut self) {
        self.drain.poll();
        if self.cooldown > 0 {
            self.cooldown -= 1;
        } else {
            self.maybe_migrate();
        }
        self.autoscale();
    }

    fn maybe_migrate(&mut self) {
        if self.migrations.iter().filter(|m| !m.aborted).count() >= self.cfg.max_migrations {
            return;
        }
        if self.profiler.min_table_accesses() < self.cfg.profile_min_accesses {
            return;
        }
        let Some(stats) = self.profiler.snapshot() else {
            return;
        };
        let Ok(candidate) = plan_with_stats(
            &self.spec,
            &self.profile,
            ShardingStrategy::HotRowAware(self.cfg.strategy_shards),
            &stats,
            &self.cfg.hot_rows,
        ) else {
            return;
        };
        let current = self.switch.current();
        if candidate.same_layout(&current.model.plan) {
            // Traffic still matches the serving plan: start a fresh
            // window so the next decision sees only new drift.
            self.profiler.reset();
            self.cooldown = self.cfg.cooldown_ticks;
            return;
        }
        let started = Instant::now();
        let to_epoch = current.epoch + 1;
        let (moved_tables, moved_bytes) =
            moved_capacity(&self.spec, &current.model.plan, &candidate);
        let mut record = MigrationRecord {
            from_epoch: current.epoch,
            to_epoch,
            moved_tables,
            moved_bytes,
            warm_ms: 0.0,
            dual_read_ms: 0.0,
            total_ms: 0.0,
            aborted: false,
            abort_reason: None,
        };

        // Dual read, serving side: what the successor must reproduce,
        // bit for bit, is whatever the serving epoch answers right now.
        let expected = probe_all(&self.spec, &current.model, &self.dual_inputs)
            .map_err(|e| format!("serving epoch: {e}"));
        let outcome = expected.and_then(|expected| {
            // Background warm: stateless rebuild from spec + plan + seed.
            let warm_started = Instant::now();
            let warmed = build_epoch_serving(
                &self.spec,
                &candidate,
                self.seed,
                self.cfg.min_replicas.max(1),
                &self.cfg,
            )
            .map(|serving| EpochServing {
                epoch: to_epoch,
                ..serving
            });
            record.warm_ms = warm_started.elapsed().as_secs_f64() * 1e3;
            let check = ProbeCheck {
                spec: &self.spec,
                inputs: &self.dual_inputs,
                expected: &expected,
                tolerance: 0.0,
            };
            // Release the serving epoch so it can drain once retired.
            drop(current);
            self.switch.transition(warmed, &check, &mut self.drain)
        });
        record.total_ms = started.elapsed().as_secs_f64() * 1e3;
        record.dual_read_ms = record.total_ms - record.warm_ms;
        self.cooldown = self.cfg.cooldown_ticks;
        match outcome {
            Ok(()) => {
                self.profiler.reset();
                // Autoscaler state belongs to the retired epoch now.
                self.last_epoch = u64::MAX;
            }
            Err(reason) => {
                record.aborted = true;
                record.abort_reason = Some(reason);
            }
        }
        self.migrations.push(record);
    }

    fn autoscale(&mut self) {
        let current = self.switch.current();
        let Some(pool) = &current.pool else { return };
        // Per-shard row totals (removed replicas' rows included, so a
        // scale-down never reads as an idle tick) and replica counts.
        let shards = pool.shard_rows();
        if current.epoch != self.last_epoch || self.last_rows.len() != shards.len() {
            // First tick on this epoch: baseline only.
            self.last_epoch = current.epoch;
            self.last_rows = shards.iter().map(|s| s.1).collect();
            self.streak_up = vec![0; shards.len()];
            self.streak_down = vec![0; shards.len()];
            return;
        }
        for (i, (shard, rows, replicas)) in shards.into_iter().enumerate() {
            let delta = rows.saturating_sub(self.last_rows[i]);
            self.last_rows[i] = rows;
            let per_replica = delta / replicas as u64;
            if per_replica >= self.cfg.scale_up_rows_per_tick
                && replicas < self.cfg.max_replicas
            {
                self.streak_down[i] = 0;
                self.streak_up[i] += 1;
                if self.streak_up[i] >= self.cfg.sustain_ticks {
                    self.streak_up[i] = 0;
                    let after = pool.scale_up(i);
                    self.scale_events.push(ScaleEvent {
                        epoch: current.epoch,
                        shard,
                        direction: ScaleDirection::Up,
                        replicas_after: after,
                        rows_per_tick: per_replica,
                    });
                }
            } else if delta <= self.cfg.scale_down_rows_per_tick
                && replicas > self.cfg.min_replicas.max(1)
            {
                self.streak_up[i] = 0;
                self.streak_down[i] += 1;
                if self.streak_down[i] >= self.cfg.sustain_ticks {
                    self.streak_down[i] = 0;
                    if let Some(after) = pool.scale_down(i) {
                        self.scale_events.push(ScaleEvent {
                            epoch: current.epoch,
                            shard,
                            direction: ScaleDirection::Down,
                            replicas_after: after,
                            rows_per_tick: delta,
                        });
                    }
                }
            } else {
                self.streak_up[i] = 0;
                self.streak_down[i] = 0;
            }
        }
    }

    /// Drains remaining retired epochs (waiting briefly for in-flight
    /// batches to release them) and returns the run's report. The
    /// *current* epoch is left serving — shut it down via the switch's
    /// owner.
    #[must_use]
    pub fn finish(mut self) -> RebalanceReport {
        let undrained = self.drain.finish(Instant::now() + Duration::from_secs(5));
        RebalanceReport {
            migrations: self.migrations,
            scale_events: self.scale_events,
            cutovers: self.switch.cutovers(),
            final_epoch: self.switch.epoch(),
            retired_transport: self.drain.transport().clone(),
            undrained,
        }
    }

    /// Moves the controller onto its own thread, ticking every `tick`.
    /// Stop it (and collect the report) with [`RebalanceHandle::stop`].
    #[must_use]
    pub fn spawn(mut self, tick: Duration) -> RebalanceHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("rebalancer".into())
            .spawn(move || {
                while !stop_flag.load(Ordering::Relaxed) {
                    self.tick();
                    std::thread::sleep(tick);
                }
                self.finish()
            })
            .expect("spawn rebalancer thread");
        RebalanceHandle { stop, handle }
    }
}

/// Handle to a spawned [`Rebalancer`] thread.
#[derive(Debug)]
pub struct RebalanceHandle {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<RebalanceReport>,
}

impl RebalanceHandle {
    /// Signals the controller to stop and returns its report.
    ///
    /// # Panics
    ///
    /// Panics if the controller thread panicked.
    #[must_use]
    pub fn stop(self) -> RebalanceReport {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("rebalancer thread panicked")
    }
}

/// Tables whose placement or hot set differs between `old` and `new`,
/// and their total embedding bytes — the capacity a cutover re-homes.
fn moved_capacity(spec: &ModelSpec, old: &ShardingPlan, new: &ShardingPlan) -> (usize, u64) {
    let mut tables = 0usize;
    let mut bytes = 0u64;
    for (t, (po, pn)) in old
        .placements()
        .iter()
        .zip(new.placements().iter())
        .enumerate()
    {
        let table = dlrm_model::TableId(t);
        if po != pn || old.hot_rows(table) != new.hot_rows(table) {
            tables += 1;
            bytes += spec.table(table).bytes();
        }
    }
    (tables, bytes)
}
