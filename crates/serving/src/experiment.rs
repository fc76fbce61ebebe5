//! One-call reproduction of a (model, sharding configuration) cell.

use crate::cluster::{simulate, ArrivalProcess, Cluster, RunConfig, RunResult};
use crate::cost::CostModel;
use dlrm_metrics::Percentiles;
use dlrm_model::ModelSpec;
use dlrm_sharding::{plan, PlanError, ShardingStrategy};
use dlrm_trace::{CpuStack, EmbeddedStack, LatencyStack, SpanKind, TraceAnalysis, TraceId};
use dlrm_workload::{TraceDb, TraceDbConfig};

/// Per-model workload settings calibrated to the paper's latency
/// dispersion. Tables III/IV pin the request-size distribution through
/// the CPU-time ratios: RM1 P90/P50 = 3.5 and P99/P50 = 6.6 (a σ≈0.95
/// lognormal *capped* near 7× the mean), RM2 4.9 / 11.4 (σ≈1.2 capped
/// ~12×), RM3 1.16 / 4.6 (near-constant sizes with a rare huge-request
/// mode).
#[must_use]
pub fn trace_config_for(spec: &ModelSpec) -> TraceDbConfig {
    let base = TraceDbConfig::default();
    match spec.name.as_str() {
        "RM2" => TraceDbConfig {
            size_sigma: 1.35,
            max_items_factor: 4.6,
            ..base
        },
        "RM3" => TraceDbConfig {
            size_sigma: 0.08,
            tail_prob: 0.025,
            tail_scale: (3.5, 6.0),
            max_items_factor: 8.0,
            ..base
        },
        _ => TraceDbConfig {
            size_sigma: 0.95,
            max_items_factor: 4.2,
            ..base
        },
    }
}

/// Knobs for one configuration run.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigOptions {
    /// Requests to replay.
    pub requests: usize,
    /// Experiment seed (shared across configurations for pairing).
    pub seed: u64,
    /// Batch-size override (`Some(usize::MAX)` = single batch).
    pub batch_size: Option<usize>,
    /// Arrival process.
    pub arrivals: ArrivalProcess,
    /// Cluster platforms.
    pub cluster: Cluster,
    /// SLS cost multiplier (compression experiments set this < 1).
    pub sls_cost_factor: f64,
    /// Optional injected shard fault (failure-injection experiments).
    pub fault: Option<crate::ShardFault>,
}

impl Default for ConfigOptions {
    fn default() -> Self {
        Self {
            requests: 400,
            seed: 0x000D_15C0,
            batch_size: None,
            arrivals: ArrivalProcess::Serial,
            cluster: Cluster::sc_large(),
            sls_cost_factor: 1.0,
            fault: None,
        }
    }
}

/// The measurements of one configuration — one column of Table III/IV
/// plus the stacks behind Figs. 8/9.
#[derive(Debug)]
pub struct ConfigResult {
    /// The configuration.
    pub strategy: ShardingStrategy,
    /// E2E latency percentiles, milliseconds.
    pub e2e: Percentiles,
    /// Aggregate CPU-time percentiles, milliseconds.
    pub cpu: Percentiles,
    /// Median main-shard latency stack (Fig. 8a).
    pub latency_stack: LatencyStack,
    /// Median bounding-shard embedded stack (Fig. 8b).
    pub embedded_stack: EmbeddedStack,
    /// Mean CPU stack across servers (Fig. 9).
    pub cpu_stack: CpuStack,
    /// Mean RPCs issued per request (compute overhead is proportional
    /// to this, §VI-C1).
    pub rpcs_per_request: f64,
    /// Total SLS milliseconds per sparse shard across the run
    /// (Figs. 10–12); index = shard.
    pub per_shard_sls_ms: Vec<f64>,
    /// The raw run (collector included) for deeper analysis.
    pub run: RunResult,
}

/// Plans `strategy`, simulates the replay, and post-processes the trace.
///
/// # Errors
///
/// Propagates [`PlanError`] when the strategy is infeasible for this
/// model.
pub fn run_config(
    spec: &ModelSpec,
    db: &TraceDb,
    strategy: ShardingStrategy,
    options: &ConfigOptions,
) -> Result<ConfigResult, PlanError> {
    let profile = db.pooling_profile(1000.min(db.len()));
    let sharding_plan = plan(spec, &profile, strategy)?;
    let mut cost = CostModel::for_model(spec);
    cost.sls_cost_factor = options.sls_cost_factor;
    let run_cfg = RunConfig {
        requests: options.requests,
        batch_size: options.batch_size,
        arrivals: options.arrivals,
        seed: options.seed,
        collect_traces: true,
        fault: options.fault,
    };
    let mut run = simulate(spec, &sharding_plan, &cost, &options.cluster, db, &run_cfg);

    let traces: Vec<TraceId> = (0..options.requests as u64).map(TraceId).collect();
    let (latency_stack, embedded_stack, cpu_stack, rpcs_per_request, per_shard_sls_ms) = {
        let analysis = TraceAnalysis::new(&run.collector);
        let latency_stack = analysis.median_latency_stack(&traces);
        let embedded_stack = analysis.median_embedded_stack(&traces);
        let cpu_stack = analysis.mean_cpu_stack(&traces);
        let rpc_spans = run
            .collector
            .spans()
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::RpcOutstanding(_)))
            .count();
        let rpcs_per_request = rpc_spans as f64 / options.requests as f64;
        let mut per_shard_sls_ms = vec![0.0; sharding_plan.num_shards()];
        for (server, ms) in analysis.per_server_sparse_op_time(&traces) {
            if !server.is_main() {
                per_shard_sls_ms[server.0 - 1] = ms;
            }
        }
        (
            latency_stack,
            embedded_stack,
            cpu_stack,
            rpcs_per_request,
            per_shard_sls_ms,
        )
    };

    Ok(ConfigResult {
        strategy,
        e2e: run.e2e.percentiles(),
        cpu: run.cpu.percentiles(),
        latency_stack,
        embedded_stack,
        cpu_stack,
        rpcs_per_request,
        per_shard_sls_ms,
        run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_model::rm;

    fn quick_options() -> ConfigOptions {
        ConfigOptions {
            requests: 60,
            ..ConfigOptions::default()
        }
    }

    fn quick_db(spec: &ModelSpec) -> TraceDb {
        TraceDb::generate_with(spec, 200, 7, &trace_config_for(spec))
    }

    #[test]
    fn singular_runs_and_reports() {
        let spec = rm::rm3();
        let db = quick_db(&spec);
        let r = run_config(&spec, &db, ShardingStrategy::Singular, &quick_options()).unwrap();
        assert!(r.e2e.p50 > 0.0);
        assert!(r.cpu.p50 > 0.0);
        assert_eq!(r.rpcs_per_request, 0.0);
        assert!(r.latency_stack.embedded_portion > 0.0);
        assert_eq!(r.embedded_stack.network, 0.0);
    }

    #[test]
    fn distributed_is_slower_serially() {
        // Primary takeaway: "Blocking requests sent serially ... always
        // perform worse in distributed inference" (§VI).
        let spec = rm::rm1();
        let db = quick_db(&spec);
        let opts = quick_options();
        let singular = run_config(&spec, &db, ShardingStrategy::Singular, &opts).unwrap();
        let one_shard = run_config(&spec, &db, ShardingStrategy::OneShard, &opts).unwrap();
        assert!(
            one_shard.e2e.p50 > singular.e2e.p50,
            "1-shard {} vs singular {}",
            one_shard.e2e.p50,
            singular.e2e.p50
        );
        assert!(one_shard.cpu.p50 > singular.cpu.p50);
        assert!(one_shard.embedded_stack.network > 0.0);
    }

    #[test]
    fn more_shards_reduce_latency_overhead() {
        let spec = rm::rm1();
        let db = quick_db(&spec);
        let opts = quick_options();
        let one = run_config(&spec, &db, ShardingStrategy::OneShard, &opts).unwrap();
        let eight =
            run_config(&spec, &db, ShardingStrategy::LoadBalanced(8), &opts).unwrap();
        assert!(
            eight.e2e.p50 < one.e2e.p50,
            "8-shard {} vs 1-shard {}",
            eight.e2e.p50,
            one.e2e.p50
        );
    }

    #[test]
    fn compute_grows_with_rpc_count() {
        let spec = rm::rm1();
        let db = quick_db(&spec);
        let opts = quick_options();
        let nsbp =
            run_config(&spec, &db, ShardingStrategy::NetSpecificBinPacking(8), &opts).unwrap();
        let lb = run_config(&spec, &db, ShardingStrategy::LoadBalanced(8), &opts).unwrap();
        // NSBP issues fewer RPCs → less compute (§VI-C1).
        assert!(nsbp.rpcs_per_request < lb.rpcs_per_request);
        assert!(nsbp.cpu.p50 < lb.cpu.p50);
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = rm::rm3();
        let db = quick_db(&spec);
        let opts = quick_options();
        let a = run_config(&spec, &db, ShardingStrategy::OneShard, &opts).unwrap();
        let b = run_config(&spec, &db, ShardingStrategy::OneShard, &opts).unwrap();
        assert_eq!(a.e2e, b.e2e);
        assert_eq!(a.cpu, b.cpu);
    }
}
