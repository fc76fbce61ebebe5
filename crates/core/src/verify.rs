//! End-to-end correctness verification of the distributed transform.
//!
//! The paper's system must produce the *same rankings* sharded as
//! singular — the transformation is a pure systems change. This module
//! proves that property for our implementation with the real f32
//! engine: a scaled-down copy of the model is built, partitioned under a
//! strategy, and executed both ways on identical inputs.

use dlrm_model::graph::NoopObserver;
use dlrm_model::{build_model, ModelSpec, Workspace};
use dlrm_sharding::{partition, plan, PartitionError, PlanError, ShardingStrategy};
use dlrm_workload::{materialize_request, PoolingProfile, TraceDb};

/// The outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq)]
pub struct EquivalenceReport {
    /// Strategy verified.
    pub strategy: ShardingStrategy,
    /// Requests executed.
    pub requests: usize,
    /// Batches executed.
    pub batches: usize,
    /// Largest absolute output difference observed.
    pub max_abs_diff: f32,
    /// Whether any table was row-sharded (changes float summation
    /// order, so only tolerance-equality is expected).
    pub row_sharded: bool,
}

impl EquivalenceReport {
    /// Whether outputs matched within the appropriate tolerance:
    /// bit-exact for whole-table plans, `1e-4` for row-sharded plans.
    #[must_use]
    pub fn passed(&self) -> bool {
        if self.row_sharded {
            self.max_abs_diff <= 1e-4
        } else {
            self.max_abs_diff == 0.0
        }
    }
}

/// Errors from equivalence verification.
#[derive(Debug)]
pub enum VerifyError {
    /// Planning failed.
    Plan(PlanError),
    /// Partitioning failed.
    Partition(PartitionError),
    /// Execution failed.
    Graph(dlrm_model::graph::GraphError),
    /// Model construction failed.
    Build(dlrm_model::builder::BuildError),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Plan(e) => write!(f, "planning failed: {e}"),
            VerifyError::Partition(e) => write!(f, "partitioning failed: {e}"),
            VerifyError::Graph(e) => write!(f, "execution failed: {e}"),
            VerifyError::Build(e) => write!(f, "model build failed: {e}"),
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<PlanError> for VerifyError {
    fn from(e: PlanError) -> Self {
        VerifyError::Plan(e)
    }
}
impl From<PartitionError> for VerifyError {
    fn from(e: PartitionError) -> Self {
        VerifyError::Partition(e)
    }
}
impl From<dlrm_model::graph::GraphError> for VerifyError {
    fn from(e: dlrm_model::graph::GraphError) -> Self {
        VerifyError::Graph(e)
    }
}
impl From<dlrm_model::builder::BuildError> for VerifyError {
    fn from(e: dlrm_model::builder::BuildError) -> Self {
        VerifyError::Build(e)
    }
}

/// Builds `spec` (which must be materializable — scale paper-size specs
/// first), partitions it under `strategy`, and compares distributed
/// against singular outputs over `requests` generated requests.
///
/// # Errors
///
/// Any planning, partitioning, build or execution failure.
///
/// # Examples
///
/// ```
/// use dlrm_core::{verify_distributed_equivalence, sharding::ShardingStrategy};
///
/// let spec = dlrm_core::model::rm::rm3().scaled_to_bytes(2 << 20);
/// let report =
///     verify_distributed_equivalence(&spec, ShardingStrategy::OneShard, 2, 7)?;
/// assert!(report.passed());
/// # Ok::<(), dlrm_core::VerifyError>(())
/// ```
pub fn verify_distributed_equivalence(
    spec: &ModelSpec,
    strategy: ShardingStrategy,
    requests: usize,
    seed: u64,
) -> Result<EquivalenceReport, VerifyError> {
    let profile = PoolingProfile::from_spec(spec);
    let sharding_plan = plan(spec, &profile, strategy)?;
    let singular = build_model(spec, seed)?;
    let distributed = partition(build_model(spec, seed)?, &sharding_plan)?;
    let row_sharded = sharding_plan
        .placements()
        .iter()
        .any(dlrm_sharding::TablePlacement::is_row_sharded);

    let db = TraceDb::generate(spec, requests.max(1), seed ^ 0xABCD);
    let mut max_diff = 0.0f32;
    let mut batches_run = 0usize;
    for i in 0..requests.max(1) {
        let shape = db.get(i);
        for batch in materialize_request(spec, shape, spec.default_batch_size, seed) {
            let mut ws_a = Workspace::new();
            batch.load_into(spec, &mut ws_a);
            let mut ws_b = ws_a.clone();
            let out_a = singular.run(&mut ws_a, &mut NoopObserver)?;
            let out_b = distributed.run_overlapped(&mut ws_b, &mut NoopObserver)?;
            max_diff = max_diff.max(out_a.max_abs_diff(&out_b));
            batches_run += 1;
        }
    }
    Ok(EquivalenceReport {
        strategy,
        requests: requests.max(1),
        batches: batches_run,
        max_abs_diff: max_diff,
        row_sharded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_model::rm;

    /// Shrinks request sizes so real-engine tests stay fast; the
    /// equivalence property is size-independent.
    fn small_requests(mut spec: dlrm_model::ModelSpec) -> dlrm_model::ModelSpec {
        spec.mean_items_per_request = 16.0;
        spec.default_batch_size = 8;
        spec
    }

    #[test]
    fn whole_table_strategies_are_bit_exact() {
        let spec = small_requests(rm::rm1().scaled_to_bytes(3 << 20));
        for strategy in [
            ShardingStrategy::OneShard,
            ShardingStrategy::CapacityBalanced(2),
            ShardingStrategy::LoadBalanced(4),
        ] {
            let r = verify_distributed_equivalence(&spec, strategy, 2, 11).unwrap();
            assert!(!r.row_sharded, "{strategy}");
            assert!(r.passed(), "{strategy}: diff {}", r.max_abs_diff);
            assert!(r.batches > 0);
        }
    }

    #[test]
    fn row_sharded_rm3_within_tolerance() {
        let spec = small_requests(rm::rm3().scaled_to_bytes(3 << 20));
        let r = verify_distributed_equivalence(
            &spec,
            ShardingStrategy::NetSpecificBinPacking(4),
            2,
            5,
        )
        .unwrap();
        assert!(r.row_sharded);
        assert!(r.passed(), "diff {}", r.max_abs_diff);
    }

    #[test]
    fn auto_strategy_verifies_too() {
        let spec = small_requests(rm::rm2().scaled_to_bytes(3 << 20));
        let r =
            verify_distributed_equivalence(&spec, ShardingStrategy::Auto(4), 1, 3).unwrap();
        assert!(r.passed(), "diff {}", r.max_abs_diff);
    }
}
