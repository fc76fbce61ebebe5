//! The four deployments the benchmark pins, and how load is offered to
//! each: `setup` builds one, `serve` runs one open-loop pass over it.

use crate::spec::{self, Transport, Workload};
use dlrm_core::model::{build_model, ModelSpec};
use dlrm_core::serving::fault::FaultPlan;
use dlrm_core::serving::frontend::{run_frontend, FrontendConfig, FrontendReport, FrontendRequest};
use dlrm_core::serving::replica::{HealthPolicy, ReplicatedShardPool, TransportSummary};
use dlrm_core::serving::shard_server::TcpShardPool;
use dlrm_core::serving::tenancy::{
    run_tenant_set, PressureConfig, TenancyRunConfig, TenantSet, TenantSpec, TenantWorkload, Tier,
};
use dlrm_core::sharding::{
    partition, partition_with_clients, plan, plan_with_stats, DistributedModel, HotRowConfig,
    ShardService, ShardingPlan, ShardingStrategy,
};
use dlrm_core::workload::{ArrivalSchedule, PoolingProfile, RowStats};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The transport behind a single-model deployment's shard clients.
#[derive(Debug)]
pub enum ShardPool {
    InProcess,
    Tcp(TcpShardPool),
    Replicated(ReplicatedShardPool),
}

impl ShardPool {
    pub fn summary(&self) -> TransportSummary {
        match self {
            ShardPool::InProcess => TransportSummary::default(),
            ShardPool::Tcp(p) => p.transport_summary(),
            ShardPool::Replicated(p) => p.transport_summary(),
        }
    }

    fn shutdown(self) {
        match self {
            ShardPool::InProcess => {}
            ShardPool::Tcp(p) => p.shutdown(),
            ShardPool::Replicated(p) => p.shutdown(),
        }
    }
}

#[derive(Debug)]
pub struct SingleModel {
    pub dist: DistributedModel,
    pub pool: ShardPool,
}

#[derive(Debug)]
pub struct Tenants {
    pub plan: ShardingPlan,
    pub set: TenantSet,
    /// Tenant A's table that steps along the ladder under load.
    pub churn_table: usize,
}

#[derive(Debug)]
pub enum Deployment {
    Single(Box<SingleModel>),
    Tenants(Box<Tenants>),
}

/// Where set-up time went, for the `sharding` layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub plan_ms: f64,
    pub partition_ms: f64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn make_plan(w: &Workload, spec: &ModelSpec) -> ShardingPlan {
    let profile = PoolingProfile::from_spec(spec);
    if w.transport == Transport::ThreadedCached {
        let stats = RowStats::for_spec(
            spec,
            spec::ROW_STATS_SAMPLES,
            spec::ZIPF_SKEW,
            spec::WEIGHT_SEED,
        );
        plan_with_stats(
            spec,
            &profile,
            ShardingStrategy::HotRowAware(spec::SHARDS),
            &stats,
            &HotRowConfig {
                coverage: spec::HOT_ROW_COVERAGE,
                budget_fraction: spec::HOT_ROW_BUDGET,
            },
        )
        .expect("hot-row plan")
    } else {
        plan(
            spec,
            &profile,
            ShardingStrategy::CapacityBalanced(spec::SHARDS),
        )
        .expect("plan")
    }
}

/// Builds the workload's deployment: model, plan, partition, pool
/// spawn, and for the tenants the initial tier install.
pub fn setup(w: &Workload, queue_capacity: usize) -> (Deployment, SetupTimes) {
    let start = Instant::now();
    let spec = w.spec();
    let t = Instant::now();
    let plan = make_plan(w, &spec);
    let plan_ms = ms_since(t);

    let (deployment, partition_ms) = if w.transport == Transport::Tenants {
        let t = Instant::now();
        let tenants = setup_tenants(w, spec, plan, queue_capacity);
        (Deployment::Tenants(Box::new(tenants)), ms_since(t))
    } else {
        let model = build_model(&spec, spec::WEIGHT_SEED).expect("build model");
        let t = Instant::now();
        let (dist, pool) = if w.transport == Transport::InProcess {
            (
                partition(model, &plan).expect("partition"),
                ShardPool::InProcess,
            )
        } else {
            let services: Vec<Arc<ShardService>> = plan
                .shards()
                .map(|s| Arc::new(ShardService::build(&model.tables, &plan, s)))
                .collect();
            let no_faults = FaultPlan::none();
            let health = HealthPolicy::default();
            let (clients, pool) = if w.transport == Transport::Tcp {
                let p =
                    TcpShardPool::spawn(services.clone(), 1, Duration::ZERO, &no_faults, health)
                        .expect("spawn tcp pool");
                (p.clients(), ShardPool::Tcp(p))
            } else {
                let p = ReplicatedShardPool::spawn(
                    services.clone(),
                    2,
                    Duration::ZERO,
                    &no_faults,
                    health,
                );
                (p.clients(), ShardPool::Replicated(p))
            };
            let dist = partition_with_clients(model, &plan, services, clients).expect("partition");
            if let (Some(cache), ShardPool::Replicated(p)) = (&dist.cache, &pool) {
                p.attach_cache(Arc::clone(cache));
            }
            (dist, pool)
        };
        let single = SingleModel { dist, pool };
        (Deployment::Single(Box::new(single)), ms_since(t))
    };
    let times = SetupTimes {
        total_s: start.elapsed().as_secs_f64(),
        plan_ms,
        partition_ms,
    };
    (deployment, times)
}

fn setup_tenants(
    w: &Workload,
    spec: ModelSpec,
    plan: ShardingPlan,
    queue_capacity: usize,
) -> Tenants {
    let tenant = |name: &str| TenantSpec {
        name: name.to_string(),
        spec: spec.clone(),
        seed: spec::WEIGHT_SEED,
        strategy: ShardingStrategy::CapacityBalanced(spec::SHARDS),
        weight: 1,
        queue_capacity,
        sla: Duration::from_secs_f64(w.sla_ms / 1e3),
    };
    let set = TenantSet::build(vec![tenant("a"), tenant("b")], PressureConfig::default())
        .expect("build tenant set");

    // Tenant A starts with its six highest-pooling tables off DRAM:
    // three at 8 bits, three paged.
    let mut by_pooling: Vec<usize> = (0..spec.tables.len()).collect();
    by_pooling.sort_by(|&a, &b| {
        spec.tables[b]
            .pooling_factor
            .total_cmp(&spec.tables[a].pooling_factor)
    });
    for (rank, &table) in by_pooling.iter().take(6).enumerate() {
        set.force_transition(0, table, Tier::Quantized)
            .expect("install 8-bit tier");
        if rank >= 3 {
            set.force_transition(0, table, Tier::Paged)
                .expect("install paged tier");
        }
    }
    let churn_table = by_pooling[6..]
        .iter()
        .copied()
        .max_by_key(|&t| spec.tables[t].bytes())
        .expect("a table left to churn");
    Tenants {
        plan,
        set,
        churn_table,
    }
}

/// One request stream: what is offered and when.
#[derive(Debug)]
pub struct Stream {
    pub requests: Vec<FrontendRequest>,
    pub schedule: ArrivalSchedule,
}

/// The outcome of one open-loop pass.
#[derive(Debug)]
pub struct Served {
    /// One report per stream, in stream order.
    pub reports: Vec<FrontendReport>,
    /// Duration of each ladder step forced while the pass ran.
    pub transition_ms: Vec<f64>,
    /// Ladder steps whose dual-read verification failed (nothing was
    /// published for these).
    pub transition_errors: Vec<String>,
}

impl Deployment {
    /// Offers every stream at once and returns when all have drained.
    /// With `churn`, tenant A's churn table takes one ladder step every
    /// [`spec::CHURN_EVERY_S`] seconds while the tenants serve.
    pub fn serve(&self, streams: Vec<Stream>, cfg: &FrontendConfig, churn: bool) -> Served {
        match self {
            Deployment::Single(single) => {
                let stream = streams.into_iter().next().expect("one stream");
                let report = run_frontend(&single.dist, stream.requests, &stream.schedule, cfg);
                Served {
                    reports: vec![report],
                    transition_ms: Vec::new(),
                    transition_errors: Vec::new(),
                }
            }
            Deployment::Tenants(tenants) => {
                let workloads = streams
                    .into_iter()
                    .map(|s| TenantWorkload {
                        requests: s.requests,
                        schedule: s.schedule,
                    })
                    .collect();
                let run_cfg = TenancyRunConfig {
                    max_batch_requests: cfg.max_batch_requests,
                    batch_timeout: cfg.batch_timeout,
                    workers: cfg.workers,
                    pressure_every: None,
                };
                let done = AtomicBool::new(false);
                std::thread::scope(|s| {
                    let churner = s.spawn(|| {
                        if churn {
                            tenants.churn_until(&done)
                        } else {
                            (Vec::new(), Vec::new())
                        }
                    });
                    let report = run_tenant_set(&tenants.set, workloads, &run_cfg);
                    done.store(true, Ordering::SeqCst);
                    let (transition_ms, transition_errors) =
                        churner.join().expect("churn thread panicked");
                    Served {
                        reports: report.per_tenant,
                        transition_ms,
                        transition_errors,
                    }
                })
            }
        }
    }

    pub fn shutdown(self) {
        if let Deployment::Single(single) = self {
            let SingleModel { dist, pool, .. } = *single;
            // The model's clients hold the pool's channels and sockets.
            drop(dist);
            pool.shutdown();
        }
    }
}

impl Tenants {
    /// DRAM → 8-bit → paged → 8-bit → DRAM …, one verified step at a
    /// time, until `done`. Returns each published step's duration and
    /// each refused step's reason.
    fn churn_until(&self, done: &AtomicBool) -> (Vec<f64>, Vec<String>) {
        let every = Duration::from_secs_f64(spec::CHURN_EVERY_S);
        let mut durations = Vec::new();
        let mut errors = Vec::new();
        let mut going_down = true;
        let mut next = Instant::now() + every;
        while !done.load(Ordering::SeqCst) {
            if Instant::now() < next {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            let tier = self.set.tenant(0).tiers()[self.churn_table];
            let to = match (going_down, tier.demoted(), tier.promoted()) {
                (true, Some(down), _) => down,
                (false, _, Some(up)) => up,
                (true, None, Some(up)) => {
                    going_down = false;
                    up
                }
                (false, Some(down), None) => {
                    going_down = true;
                    down
                }
                _ => unreachable!("a three-rung ladder always has a neighbour"),
            };
            let t = Instant::now();
            match self.set.force_transition(0, self.churn_table, to) {
                Ok(_) => durations.push(ms_since(t)),
                Err(e) => errors.push(format!("{tier} -> {to}: {e}")),
            }
            next = Instant::now() + every;
        }
        (durations, errors)
    }
}
