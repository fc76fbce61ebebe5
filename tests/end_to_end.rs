//! Cross-crate integration: spec → workload → plan → partition →
//! execute, through the public API only.

use dlrm_core::model::{build_model, rm, Workspace};
use dlrm_core::model::graph::NoopObserver;
use dlrm_core::sharding::{partition, plan, ShardingStrategy};
use dlrm_core::workload::{materialize_request, PoolingProfile, TraceDb};
use dlrm_core::{verify_distributed_equivalence, Study};

/// A materializable copy of a paper model with small requests.
fn toy(spec: dlrm_core::model::ModelSpec) -> dlrm_core::model::ModelSpec {
    let mut s = spec.scaled_to_bytes(3 << 20);
    s.mean_items_per_request = 12.0;
    s.default_batch_size = 8;
    s
}

#[test]
fn every_strategy_is_numerically_equivalent_to_singular() {
    let specs = [toy(rm::rm1()), toy(rm::rm2()), toy(rm::rm3())];
    for spec in &specs {
        let strategies: Vec<ShardingStrategy> = if spec.name == "RM3" {
            ShardingStrategy::rm3_sweep()
                .into_iter()
                .filter(|s| s.is_distributed())
                .collect()
        } else {
            vec![
                ShardingStrategy::OneShard,
                ShardingStrategy::CapacityBalanced(4),
                ShardingStrategy::LoadBalanced(8),
                ShardingStrategy::NetSpecificBinPacking(2),
                ShardingStrategy::Auto(4),
            ]
        };
        for strategy in strategies {
            let report = verify_distributed_equivalence(spec, strategy, 2, 7)
                .unwrap_or_else(|e| panic!("{} {strategy}: {e}", spec.name));
            assert!(
                report.passed(),
                "{} {strategy}: max diff {}",
                spec.name,
                report.max_abs_diff
            );
        }
    }
}

#[test]
fn partitioner_is_interaction_agnostic() {
    use dlrm_core::model::graph::NoopObserver;
    use dlrm_core::model::{build_model_with_options, InteractionKind};

    // Uniform dims so the DLRM dot interaction is legal.
    let mut spec = toy(rm::rm3());
    let d = *spec.nets[0].bottom_mlp.last().unwrap();
    for t in &mut spec.tables {
        t.dim = d as u32;
    }
    let build = || {
        build_model_with_options(
            &spec,
            13,
            dlrm_core::model::builder::DEFAULT_MATERIALIZE_LIMIT,
            InteractionKind::Dot,
        )
        .unwrap()
    };
    let profile = PoolingProfile::from_spec(&spec);
    let p = plan(
        &spec,
        &profile,
        ShardingStrategy::NetSpecificBinPacking(4),
    )
    .unwrap();
    let singular = build();
    let distributed = partition(build(), &p).unwrap();

    let db = TraceDb::generate(&spec, 2, 21);
    for batch in materialize_request(&spec, db.get(0), spec.default_batch_size, 21) {
        let mut ws_a = Workspace::new();
        batch.load_into(&spec, &mut ws_a);
        let mut ws_b = ws_a.clone();
        let a = singular.run(&mut ws_a, &mut NoopObserver).unwrap();
        let b = distributed.run_overlapped(&mut ws_b, &mut NoopObserver).unwrap();
        // RM3's plan row-shards the dominant table → tolerance equality.
        assert!(a.approx_eq(&b, 1e-4), "max diff {}", a.max_abs_diff(&b));
    }
}

#[test]
fn partitioned_model_capacity_is_conserved() {
    let spec = toy(rm::rm1());
    let profile = PoolingProfile::from_spec(&spec);
    for strategy in [
        ShardingStrategy::CapacityBalanced(8),
        ShardingStrategy::NetSpecificBinPacking(4),
    ] {
        let p = plan(&spec, &profile, strategy).unwrap();
        let model = build_model(&spec, 3).unwrap();
        let dist = partition(model, &p).unwrap();
        let shard_bytes: usize = dist.shards.iter().map(|s| s.capacity_bytes()).sum();
        let spec_bytes: u64 = spec.tables.iter().map(|t| t.bytes()).sum();
        // Row-sharded tables may pad the last partition row; allow a
        // few rows of slack.
        let slack = spec.tables.len() as u64 * 128 * 4;
        assert!(
            (shard_bytes as i64 - spec_bytes as i64).unsigned_abs() <= slack,
            "{strategy}: shards hold {shard_bytes} bytes vs spec {spec_bytes}"
        );
    }
}

#[test]
fn workload_profile_feeds_planner_like_the_paper() {
    // §III-B2: pooling estimated from 1000 sampled requests drives
    // load-balanced placement.
    let spec = rm::rm1();
    let db = TraceDb::generate(&spec, 1200, 99);
    let profile = db.pooling_profile(1000);
    let p = plan(&spec, &profile, ShardingStrategy::LoadBalanced(8)).unwrap();
    let pools: Vec<f64> = p.shards().map(|s| p.shard_pooling(s, &profile)).collect();
    let max = pools.iter().cloned().fold(0.0f64, f64::max);
    let min = pools.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        max / min < 1.1,
        "load-balanced shards should be near-equal under the profiled load: {pools:?}"
    );
}

#[test]
fn materialized_batches_run_through_partitioned_graph() {
    let spec = toy(rm::rm2());
    let profile = PoolingProfile::from_spec(&spec);
    let p = plan(&spec, &profile, ShardingStrategy::LoadBalanced(2)).unwrap();
    let dist = partition(build_model(&spec, 5).unwrap(), &p).unwrap();
    let db = TraceDb::generate(&spec, 2, 5);
    for batch in materialize_request(&spec, db.get(1), spec.default_batch_size, 5) {
        let mut ws = Workspace::new();
        batch.load_into(&spec, &mut ws);
        let out = dist.run_overlapped(&mut ws, &mut NoopObserver).unwrap();
        assert_eq!(out.rows(), batch.batch_size());
        assert!(out
            .as_slice()
            .iter()
            .all(|&v| (0.0..=1.0).contains(&v)));
    }
}

#[test]
fn study_reports_are_internally_consistent() {
    let mut study = Study::new(rm::rm3()).with_requests(40);
    let r = study.run(ShardingStrategy::NetSpecificBinPacking(4)).unwrap();
    // Percentile ordering.
    assert!(r.e2e.p50 <= r.e2e.p90 && r.e2e.p90 <= r.e2e.p99);
    assert!(r.cpu.p50 <= r.cpu.p90 && r.cpu.p90 <= r.cpu.p99);
    // CPU time ≥ any single-threaded part of E2E; outcomes count matches.
    assert_eq!(r.run.outcomes.len(), 40);
    // Latency stack roughly reconstructs E2E at the median.
    let stack_total = r.latency_stack.total();
    assert!(
        stack_total > r.e2e.p50 * 0.5 && stack_total < r.e2e.p50 * 1.5,
        "stack {stack_total} vs p50 {}",
        r.e2e.p50
    );
    // Every shard hosting work recorded SLS time on the touched shards.
    let touched = r.per_shard_sls_ms.iter().filter(|&&ms| ms > 0.0).count();
    assert!(touched >= 2, "RM3 requests touch two shards per inference");
}

#[test]
fn cpu_sketch_matches_trace_cpu_accounting() {
    use dlrm_core::trace::{TraceAnalysis, TraceId};
    let mut study = Study::new(rm::rm3()).with_requests(20);
    let r = study.run(ShardingStrategy::OneShard).unwrap();
    let analysis = TraceAnalysis::new(&r.run.collector);
    for o in &r.run.outcomes {
        let from_trace = analysis.cpu_time(o.trace);
        assert!(
            (from_trace - o.cpu_ms).abs() < 1e-6,
            "trace cpu {from_trace} vs outcome {}",
            o.cpu_ms
        );
        let e2e = analysis.e2e_latency(o.trace).unwrap();
        assert!((e2e - o.e2e_ms).abs() < 1e-6);
    }
    let _ = TraceId(0);
}
