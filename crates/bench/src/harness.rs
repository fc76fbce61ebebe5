//! Shared smoke-test harness: the setup helpers every `*_smoke` binary
//! used to copy-paste (seeded RM specs, cluster assembly, solo baseline
//! predictions, accounting-identity gates) in one place.
//!
//! Smoke binaries are CI gates, so the helpers fail loudly
//! ([`fail`] prints and exits non-zero) rather than returning errors
//! the caller could forget to check.

use dlrm_core::model::graph::NoopObserver;
use dlrm_core::model::{build_model, ModelSpec, Workspace};
use dlrm_core::serving::fault::FaultPlan;
use dlrm_core::serving::frontend::{FrontendReport, FrontendRequest};
use dlrm_core::serving::replica::{HealthPolicy, ReplicatedShardPool};
use dlrm_core::sharding::{partition, DistributedModel, RpcPolicy, ShardingPlan};
use dlrm_core::tensor::Matrix;
use std::time::Duration;

/// Prints `FAIL: msg` and exits non-zero — the smoke-gate verdict.
pub fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1);
}

/// The standard smoke-scale model: `base` (an `rm::rm1()`-style spec)
/// scaled to `bytes` of embeddings with pinned request-shape knobs.
#[must_use]
pub fn smoke_spec(
    base: ModelSpec,
    bytes: u64,
    mean_items_per_request: f64,
    default_batch_size: usize,
) -> ModelSpec {
    let mut spec = base.scaled_to_bytes(bytes);
    spec.mean_items_per_request = mean_items_per_request;
    spec.default_batch_size = default_batch_size;
    spec
}

/// Outcome determinism for the data plane: no per-attempt deadline, no
/// hedging (wall-clock noise must not change what any request
/// returns), but retries and the degraded fallback stay on.
#[must_use]
pub fn deterministic_policy() -> RpcPolicy {
    RpcPolicy {
        attempt_timeout: None,
        max_attempts: 4,
        backoff_base: Duration::from_micros(100),
        backoff_cap: Duration::from_millis(1),
        hedge_after: None,
        degraded_fallback: true,
    }
}

/// Builds `plan`'s shards, spawns a thread-backed pool over them
/// (`replicas` workers per shard, each sleeping `delay` per request,
/// under `faults`), and partitions the model onto the pool's clients
/// (hot-row cache attached when the plan carries one) — the one
/// cluster-assembly block, [`ReplicatedShardPool::assemble`]. The
/// caller owns the pool's shutdown.
pub fn replicated_cluster(
    spec: &ModelSpec,
    plan: &ShardingPlan,
    seed: u64,
    replicas: usize,
    delay: Duration,
    faults: &FaultPlan,
) -> (DistributedModel, ReplicatedShardPool) {
    ReplicatedShardPool::assemble(spec, plan, seed, |services| {
        Ok(ReplicatedShardPool::spawn(
            services,
            replicas,
            delay,
            faults,
            HealthPolicy::default(),
        ))
    })
    .unwrap_or_else(|e| fail(&format!("assemble cluster: {e}")))
}

/// Fault-free baseline predictions for `requests` on an in-process
/// partition of the same plan and seed — the bit-exactness reference
/// the concurrent/faulted runs are judged against.
#[must_use]
pub fn solo_predictions(
    spec: &ModelSpec,
    plan: &ShardingPlan,
    seed: u64,
    requests: &[FrontendRequest],
) -> Vec<(u64, Matrix)> {
    let dist = partition(
        build_model(spec, seed).unwrap_or_else(|e| fail(&format!("build model: {e}"))),
        plan,
    )
    .unwrap_or_else(|e| fail(&format!("partition: {e}")));
    predictions_on(&dist, requests)
}

/// Runs every request through `dist` sequentially (overlapped
/// executor, no concurrency) and returns `(id, prediction)` pairs.
#[must_use]
pub fn predictions_on(
    dist: &DistributedModel,
    requests: &[FrontendRequest],
) -> Vec<(u64, Matrix)> {
    requests
        .iter()
        .map(|r| {
            let mut ws = Workspace::new();
            r.inputs.load_into(&dist.spec, &mut ws);
            let out = dist
                .run_overlapped(&mut ws, &mut NoopObserver)
                .unwrap_or_else(|e| fail(&format!("solo run: {e}")));
            (r.id, out)
        })
        .collect()
}

/// Gates the frontend accounting identities every smoke pins:
/// `offered == n == admitted + shed`, `completed + failed == admitted`,
/// and exactly one prediction per completion.
pub fn check_identities(report: &FrontendReport, n: usize, phase: &str) {
    if report.offered != n as u64 || report.offered != report.admitted + report.shed {
        fail(&format!("{phase}: offered != admitted + shed"));
    }
    if report.completed + report.failed != report.admitted {
        fail(&format!("{phase}: completed + failed != admitted"));
    }
    if report.predictions.len() != report.completed as usize {
        fail(&format!(
            "{phase}: {} predictions for {} completions — retries/hedges double-counted",
            report.predictions.len(),
            report.completed
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_core::model::rm;
    use dlrm_core::serving::frontend::materialize_frontend_requests;
    use dlrm_core::sharding::{plan, ShardingStrategy};
    use dlrm_core::workload::{PoolingProfile, TraceDb};

    #[test]
    fn smoke_spec_pins_shape_knobs() {
        let s = smoke_spec(rm::rm1(), 1 << 20, 4.0, 8);
        assert_eq!(s.mean_items_per_request, 4.0);
        assert_eq!(s.default_batch_size, 8);
        // scaled_to_bytes targets ~1 MiB; per-table row minimums may
        // push it slightly over, but it must be nowhere near full size.
        assert!(s.total_bytes() < 8 << 20);
    }

    #[test]
    fn replicated_cluster_matches_solo_baseline() {
        let spec = smoke_spec(rm::rm1(), 1 << 20, 4.0, 4);
        let profile = PoolingProfile::from_spec(&spec);
        let p = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(2)).unwrap();
        let db = TraceDb::generate(&spec, 4, 9);
        let requests = materialize_frontend_requests(&spec, &db, 11);
        let solo = solo_predictions(&spec, &p, 7, &requests);
        let (dist, pool) = replicated_cluster(&spec, &p, 7, 2, Duration::ZERO, &FaultPlan::none());
        let clustered = predictions_on(&dist, &requests);
        pool.shutdown();
        for ((ia, a), (ib, b)) in solo.iter().zip(&clustered) {
            assert_eq!(ia, ib);
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }
}
