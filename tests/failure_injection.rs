//! Failure-injection integration tests: the stateless-shard rationale
//! (§III-A1) exercised end-to-end.

use dlrm_core::model::rm;
use dlrm_core::cluster::{run_config, ConfigOptions, ShardFault};
use dlrm_core::sharding::ShardingStrategy;
use dlrm_core::workload::TraceDb;
use dlrm_core::cluster::experiment::trace_config_for;

fn options(fault: Option<ShardFault>) -> ConfigOptions {
    ConfigOptions {
        requests: 80,
        fault,
        ..ConfigOptions::default()
    }
}

fn db() -> (dlrm_core::model::ModelSpec, TraceDb) {
    let spec = rm::rm1();
    let db = TraceDb::generate_with(&spec, 500, 0xFA117, &trace_config_for(&spec));
    (spec, db)
}

#[test]
fn fault_on_hot_shard_degrades_tail() {
    let (spec, db) = db();
    let strategy = ShardingStrategy::NetSpecificBinPacking(8);
    let healthy = run_config(&spec, &db, strategy, &options(None)).unwrap();
    let hot = healthy
        .per_shard_sls_ms
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap();
    let faulted = run_config(
        &spec,
        &db,
        strategy,
        &options(Some(ShardFault {
            shard: hot,
            start_ms: 0.0,
            duration_ms: f64::MAX,
            slowdown: 8.0,
        })),
    )
    .unwrap();
    assert!(
        faulted.e2e.p99 > healthy.e2e.p99 * 1.15,
        "hot-shard fault should hurt the tail: {} vs {}",
        faulted.e2e.p99,
        healthy.e2e.p99
    );
}

#[test]
fn fault_on_cold_shard_is_contained() {
    let (spec, db) = db();
    let strategy = ShardingStrategy::NetSpecificBinPacking(8);
    let healthy = run_config(&spec, &db, strategy, &options(None)).unwrap();
    let cold = healthy
        .per_shard_sls_ms
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap();
    let faulted = run_config(
        &spec,
        &db,
        strategy,
        &options(Some(ShardFault {
            shard: cold,
            start_ms: 0.0,
            duration_ms: f64::MAX,
            slowdown: 8.0,
        })),
    )
    .unwrap();
    // A cold NSBP shard does almost no work: blast radius must be far
    // smaller than the hot shard's.
    assert!(
        faulted.e2e.p50 < healthy.e2e.p50 * 1.10,
        "cold-shard fault should be contained: {} vs {}",
        faulted.e2e.p50,
        healthy.e2e.p50
    );
}

#[test]
fn fault_window_outside_run_is_a_noop() {
    let (spec, db) = db();
    let strategy = ShardingStrategy::LoadBalanced(4);
    let healthy = run_config(&spec, &db, strategy, &options(None)).unwrap();
    let faulted = run_config(
        &spec,
        &db,
        strategy,
        &options(Some(ShardFault {
            shard: 0,
            start_ms: 1e12, // long after the run ends
            duration_ms: 1.0,
            slowdown: 100.0,
        })),
    )
    .unwrap();
    assert_eq!(healthy.e2e, faulted.e2e);
    assert_eq!(healthy.cpu, faulted.cpu);
}

#[test]
fn singular_is_immune_to_shard_faults() {
    let (spec, db) = db();
    let healthy = run_config(&spec, &db, ShardingStrategy::Singular, &options(None)).unwrap();
    let faulted = run_config(
        &spec,
        &db,
        ShardingStrategy::Singular,
        &options(Some(ShardFault {
            shard: 0,
            start_ms: 0.0,
            duration_ms: f64::MAX,
            slowdown: 100.0,
        })),
    )
    .unwrap();
    assert_eq!(healthy.e2e, faulted.e2e);
}

#[test]
fn balanced_spreads_blast_radius_thinner_than_nsbp() {
    let (spec, db) = db();
    let blast = |strategy: ShardingStrategy| {
        let healthy = run_config(&spec, &db, strategy, &options(None)).unwrap();
        let hot = healthy
            .per_shard_sls_ms
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap();
        let faulted = run_config(
            &spec,
            &db,
            strategy,
            &options(Some(ShardFault {
                shard: hot,
                start_ms: 0.0,
                duration_ms: f64::MAX,
                slowdown: 8.0,
            })),
        )
        .unwrap();
        faulted.e2e.p99 / healthy.e2e.p99
    };
    let lb = blast(ShardingStrategy::LoadBalanced(8));
    let nsbp = blast(ShardingStrategy::NetSpecificBinPacking(8));
    assert!(
        nsbp > lb,
        "NSBP concentrates pooling, so its hot-shard blast ({nsbp:.2}x) \
         must exceed load-balanced ({lb:.2}x)"
    );
}
