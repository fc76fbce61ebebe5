//! Property-style tests on simulator invariants: for arbitrary seeds,
//! workloads and configurations, the DES must conserve basic accounting
//! identities. Cases are generated deterministically from [`SimRng`]
//! streams (the in-tree replacement for proptest).

use dlrm_model::rm;
use dlrm_cluster::{
    simulate, ArrivalProcess, Cluster, CostModel, RunConfig, ShardFault,
};
use dlrm_sharding::{plan, ShardingStrategy};
use dlrm_sim::SimRng;
use dlrm_workload::TraceDb;

const STRATEGIES: [ShardingStrategy; 4] = [
    ShardingStrategy::Singular,
    ShardingStrategy::OneShard,
    ShardingStrategy::NetSpecificBinPacking(4),
    ShardingStrategy::NetSpecificBinPacking(8),
];

/// Core accounting: e2e > 0, cpu > 0, every request completes, and
/// per-server busy time equals the cpu total.
#[test]
fn simulation_accounting_invariants() {
    let spec = rm::rm3();
    let mut rng = SimRng::seed_from(0x51_4041).fork(1);
    for case in 0..24 {
        let seed = rng.next_u64_below(1000);
        let requests = 1 + rng.next_index(39);
        let strategy = STRATEGIES[rng.next_index(STRATEGIES.len())];
        let arrivals = if rng.next_f64() < 0.5 {
            ArrivalProcess::OpenLoop {
                qps: rng.next_range(1.0, 200.0),
            }
        } else {
            ArrivalProcess::Serial
        };
        let db = TraceDb::generate(&spec, requests.max(4), seed);
        let profile = db.pooling_profile(db.len());
        let p = plan(&spec, &profile, strategy).unwrap();
        let cost = CostModel::for_model(&spec);
        let config = RunConfig {
            requests,
            batch_size: None,
            arrivals,
            seed,
            collect_traces: false,
            fault: None,
        };
        let result = simulate(&spec, &p, &cost, &Cluster::sc_large(), &db, &config);
        assert_eq!(result.outcomes.len(), requests, "case {case}");
        for o in &result.outcomes {
            assert!(o.e2e_ms > 0.0, "case {case}");
            assert!(o.cpu_ms > 0.0, "case {case}");
            // A request can't take longer than the whole run.
            assert!(o.e2e_ms <= result.makespan_ms + 1e-9, "case {case}");
        }
        // Core busy-time across servers equals the cpu spans' total.
        let busy_total = result.main_busy_ms + result.shard_busy_ms.iter().sum::<f64>();
        let cpu_total: f64 = result.outcomes.iter().map(|o| o.cpu_ms).sum();
        assert!(
            (busy_total - cpu_total).abs() < 1e-6 * cpu_total.max(1.0),
            "case {case}: busy {busy_total} vs cpu {cpu_total}"
        );
    }
}

/// Open-loop runs never lose or duplicate requests, and higher QPS never
/// *reduces* any request's latency relative to an idle system beyond
/// numeric noise (queueing can only hurt).
#[test]
fn open_loop_queueing_only_hurts() {
    let spec = rm::rm3();
    let mut rng = SimRng::seed_from(0x51_4041).fork(2);
    for case in 0..12 {
        let seed = rng.next_u64_below(200);
        let db = TraceDb::generate(&spec, 24, seed);
        let profile = db.pooling_profile(db.len());
        let p = plan(&spec, &profile, ShardingStrategy::Singular).unwrap();
        let cost = CostModel::for_model(&spec);
        let run = |qps: f64| {
            let config = RunConfig {
                requests: 24,
                batch_size: None,
                arrivals: ArrivalProcess::OpenLoop { qps },
                seed,
                collect_traces: false,
                fault: None,
            };
            let mut r = simulate(&spec, &p, &cost, &Cluster::sc_large(), &db, &config);
            r.e2e.percentiles().p99
        };
        let slow = run(1.0);
        let fast = run(2000.0);
        assert!(
            fast >= slow * 0.999,
            "case {case}: p99 at load {fast} vs idle {slow}"
        );
    }
}

/// A fault window in the past (or on singular) changes nothing; an
/// active fault never improves latency.
#[test]
fn faults_are_monotone() {
    let spec = rm::rm3();
    let mut rng = SimRng::seed_from(0x51_4041).fork(3);
    for case in 0..12 {
        let seed = rng.next_u64_below(200);
        let slowdown = rng.next_range(1.5, 20.0);
        let db = TraceDb::generate(&spec, 20, seed);
        let profile = db.pooling_profile(db.len());
        let p = plan(&spec, &profile, ShardingStrategy::NetSpecificBinPacking(4)).unwrap();
        let cost = CostModel::for_model(&spec);
        let run = |fault: Option<ShardFault>| {
            let config = RunConfig {
                requests: 20,
                batch_size: None,
                arrivals: ArrivalProcess::Serial,
                seed,
                collect_traces: false,
                fault,
            };
            let mut r = simulate(&spec, &p, &cost, &Cluster::sc_large(), &db, &config);
            (r.e2e.percentiles().p99, r.e2e.mean())
        };
        let healthy = run(None);
        let past = run(Some(ShardFault {
            shard: 0,
            start_ms: -1.0 + 0.0, // window [−1, 0): never active
            duration_ms: 1.0,
            slowdown,
        }));
        assert!(
            (healthy.0 - past.0).abs() < 1e-9,
            "case {case}: past fault changed the run"
        );
        let active = run(Some(ShardFault {
            shard: 0,
            start_ms: 0.0,
            duration_ms: 1e9,
            slowdown,
        }));
        assert!(
            active.1 >= healthy.1 - 1e-9,
            "case {case}: fault improved mean latency"
        );
    }
}
