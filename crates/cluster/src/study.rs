//! The `Study` facade: one model, one workload, many configurations.

use crate::experiment::{run_config, trace_config_for, ConfigOptions, ConfigResult};
use crate::{ArrivalProcess, Cluster, ShardFault};
use dlrm_model::ModelSpec;
use dlrm_sharding::{PlanError, ShardingStrategy};
use dlrm_workload::TraceDb;

/// A characterization study of one model: a fixed request trace replayed
/// against any number of sharding configurations, with paired randomness
/// so configurations are directly comparable (§V-B's methodology).
///
/// # Examples
///
/// ```
/// use dlrm_cluster::Study;
/// use dlrm_sharding::ShardingStrategy;
///
/// let mut study = Study::new(dlrm_model::rm::rm3()).with_requests(30);
/// let results = study
///     .sweep(&ShardingStrategy::rm3_sweep())
///     .unwrap();
/// assert_eq!(results.len(), 4);
/// ```
#[derive(Debug)]
pub struct Study {
    spec: ModelSpec,
    db: TraceDb,
    options: ConfigOptions,
}

impl Study {
    /// Creates a study with the model's calibrated workload settings and
    /// default options (serial arrivals, SC-Large cluster, 400
    /// requests).
    #[must_use]
    pub fn new(spec: ModelSpec) -> Self {
        let options = ConfigOptions::default();
        let db = TraceDb::generate_with(
            &spec,
            options.requests.max(1000),
            options.seed,
            &trace_config_for(&spec),
        );
        Self { spec, db, options }
    }

    /// Sets the number of requests replayed per configuration.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is zero.
    #[must_use]
    pub fn with_requests(mut self, requests: usize) -> Self {
        assert!(requests > 0, "need at least one request");
        self.options.requests = requests;
        self.regenerate();
        self
    }

    /// Sets the experiment seed (workload, network, skew).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.options.seed = seed;
        self.regenerate();
        self
    }

    /// Overrides the batch size (`usize::MAX` = single batch, §VI-F).
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: Option<usize>) -> Self {
        self.options.batch_size = batch_size;
        self
    }

    /// Switches to open-loop Poisson arrivals at `qps` (§VII-A).
    #[must_use]
    pub fn with_qps(mut self, qps: f64) -> Self {
        self.options.arrivals = ArrivalProcess::OpenLoop { qps };
        self
    }

    /// Sets the cluster platforms (§VII-B's SC-Small experiment).
    #[must_use]
    pub fn with_cluster(mut self, cluster: Cluster) -> Self {
        self.options.cluster = cluster;
        self
    }

    /// Scales SLS cost (compression runs set this below 1, §VII-D).
    #[must_use]
    pub fn with_sls_cost_factor(mut self, factor: f64) -> Self {
        self.options.sls_cost_factor = factor;
        self
    }

    /// Injects a transient shard fault (failure-injection experiments).
    #[must_use]
    pub fn with_fault(mut self, fault: Option<ShardFault>) -> Self {
        self.options.fault = fault;
        self
    }

    fn regenerate(&mut self) {
        self.db = TraceDb::generate_with(
            &self.spec,
            self.options.requests.max(1000),
            self.options.seed,
            &trace_config_for(&self.spec),
        );
    }

    /// The model under study.
    #[must_use]
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// Runs one configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] for infeasible configurations.
    pub fn run(&mut self, strategy: ShardingStrategy) -> Result<ConfigResult, PlanError> {
        run_config(&self.spec, &self.db, strategy, &self.options)
    }

    /// Runs a list of configurations against the same trace.
    ///
    /// # Errors
    ///
    /// Propagates the first infeasible configuration.
    pub fn sweep(
        &mut self,
        strategies: &[ShardingStrategy],
    ) -> Result<Vec<ConfigResult>, PlanError> {
        strategies.iter().map(|&s| self.run(s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_model::rm;

    #[test]
    fn study_pairs_configurations_on_one_trace() {
        let mut study = Study::new(rm::rm3()).with_requests(30);
        let a = study.run(ShardingStrategy::Singular).unwrap();
        let b = study.run(ShardingStrategy::Singular).unwrap();
        assert_eq!(a.e2e, b.e2e);
    }

    #[test]
    fn builders_compose() {
        let mut study = Study::new(rm::rm3())
            .with_requests(20)
            .with_seed(9)
            .with_batch_size(Some(usize::MAX))
            .with_qps(100.0);
        let r = study.run(ShardingStrategy::OneShard).unwrap();
        assert!(r.e2e.p50 > 0.0);
    }

    #[test]
    fn with_fault_runs_run_config_with_that_fault() {
        let fault = ShardFault {
            shard: 0,
            start_ms: 0.0,
            duration_ms: 1e9,
            slowdown: 4.0,
        };
        let strategy = ShardingStrategy::NetSpecificBinPacking(4);
        let mut study = Study::new(rm::rm3()).with_requests(30);
        let clean = study.run(strategy).unwrap();
        let options = ConfigOptions {
            fault: Some(fault),
            ..study.options.clone()
        };
        let want = run_config(&study.spec, &study.db, strategy, &options).unwrap();
        let got = study.with_fault(Some(fault)).run(strategy).unwrap();
        assert_ne!(got.e2e, clean.e2e, "the fault must change the run");
        assert_eq!(got.e2e, want.e2e);
        assert_eq!(got.cpu, want.cpu);
        assert_eq!(got.per_shard_sls_ms, want.per_shard_sls_ms);
    }

    #[test]
    fn infeasible_strategy_propagates() {
        let mut study = Study::new(rm::rm1()).with_requests(5);
        assert!(study
            .run(ShardingStrategy::NetSpecificBinPacking(1))
            .is_err());
    }
}
