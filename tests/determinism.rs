//! Reproducibility across the whole pipeline: identical seeds must
//! yield identical traces, plans, measurements and model outputs.

use dlrm_core::model::{build_model, rm, EmbeddingTable};
use dlrm_core::sharding::{plan, ShardingStrategy};
use dlrm_core::trace::TraceAnalysis;
use dlrm_core::workload::{PoolingProfile, TraceDb};
use dlrm_core::Study;

#[test]
fn studies_with_same_seed_are_identical() {
    let run = |seed: u64| {
        let mut s = Study::new(rm::rm3()).with_requests(50).with_seed(seed);
        let r = s.run(ShardingStrategy::NetSpecificBinPacking(4)).unwrap();
        (
            r.e2e,
            r.cpu,
            r.run.collector.len(),
            r.run.outcomes.clone(),
            r.per_shard_sls_ms.clone(),
        )
    };
    let a = run(11);
    let b = run(11);
    assert_eq!(a, b);
    let c = run(12);
    assert_ne!(a.0, c.0, "different seeds should differ");
}

#[test]
fn trace_spans_are_reproducible() {
    let run = |seed: u64| {
        let mut s = Study::new(rm::rm3()).with_requests(10).with_seed(seed);
        let r = s.run(ShardingStrategy::OneShard).unwrap();
        r.run
            .collector
            .spans()
            .iter()
            .map(|sp| (sp.start, sp.duration))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(5), run(5));
}

#[test]
fn plans_models_and_traces_are_deterministic() {
    let spec = rm::rm2();
    let profile = PoolingProfile::from_spec(&spec);
    assert_eq!(
        plan(&spec, &profile, ShardingStrategy::NetSpecificBinPacking(8)).unwrap(),
        plan(&spec, &profile, ShardingStrategy::NetSpecificBinPacking(8)).unwrap()
    );
    assert_eq!(TraceDb::generate(&spec, 30, 3), TraceDb::generate(&spec, 30, 3));

    let toy = spec.scaled_to_bytes(1 << 20);
    let m1 = build_model(&toy, 9).unwrap();
    let m2 = build_model(&toy, 9).unwrap();
    for (a, b) in m1.tables.iter().zip(&m2.tables) {
        let bits = |t: &EmbeddingTable| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!((a.rows(), a.dim()), (b.rows(), b.dim()));
        assert!(bits(a) == bits(b), "table {} differs between builds", a.name());
    }
}

#[test]
fn paired_configurations_share_request_stream() {
    // The same Study must feed every strategy the same requests: the
    // per-request item counts observed through the trace must match
    // across configurations.
    let mut s = Study::new(rm::rm3()).with_requests(30);
    let a = s.run(ShardingStrategy::Singular).unwrap();
    let b = s.run(ShardingStrategy::OneShard).unwrap();
    let items_a: Vec<u32> = a.run.outcomes.iter().map(|o| o.items).collect();
    let items_b: Vec<u32> = b.run.outcomes.iter().map(|o| o.items).collect();
    assert_eq!(items_a, items_b);
}

#[test]
fn analysis_is_pure() {
    // Running the analysis twice over one collector yields identical
    // stacks (no interior mutation).
    let mut s = Study::new(rm::rm3()).with_requests(15);
    let r = s.run(ShardingStrategy::NetSpecificBinPacking(4)).unwrap();
    let analysis = TraceAnalysis::new(&r.run.collector);
    let ids = r.run.collector.trace_ids();
    assert_eq!(
        analysis.median_latency_stack(&ids),
        analysis.median_latency_stack(&ids)
    );
    assert_eq!(
        analysis.median_embedded_stack(&ids),
        analysis.median_embedded_stack(&ids)
    );
}
