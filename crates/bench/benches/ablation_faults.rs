//! Ablation: shard-fault blast radius per sharding strategy.
//!
//! §III-A1's stateless-shard constraint exists because "shards may fail
//! and need to restart or replicas may be added". This experiment
//! injects a transient 8× slowdown on one sparse shard mid-run and
//! measures how each strategy's tail latency degrades — NSBP's
//! concentrated hot net makes it maximally exposed when *its* shard is
//! hit, while balanced placements degrade uniformly.

use dlrm_bench::report::{header, repro_requests};
use dlrm_core::model::rm;
use dlrm_core::cluster::ShardFault;
use dlrm_core::sharding::ShardingStrategy;
use dlrm_core::Study;

fn main() {
    println!(
        "{}",
        header("Ablation", "Shard-fault blast radius (RM1, 8 shards, 25 QPS)")
    );
    let requests = repro_requests();
    println!(
        "{:<10} {:>12} {:>14} {:>14} {:>10}",
        "strategy", "healthy p99", "fault@hot p99", "fault@cold p99", "blast"
    );
    for strategy in [
        ShardingStrategy::LoadBalanced(8),
        ShardingStrategy::CapacityBalanced(8),
        ShardingStrategy::NetSpecificBinPacking(8),
    ] {
        let run = |fault: Option<ShardFault>| {
            Study::new(rm::rm1())
                .with_requests(requests)
                .with_qps(25.0)
                .with_fault(fault)
                .run(strategy)
                .expect("config runs")
        };
        let healthy = run(None);
        let window = ShardFault {
            shard: 0,
            start_ms: 1000.0,
            duration_ms: 4000.0,
            slowdown: 8.0,
        };
        // "Hot" = the shard with the most SLS work; "cold" = the least.
        let hot = healthy
            .per_shard_sls_ms
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let cold = healthy
            .per_shard_sls_ms
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let fault_hot = run(Some(ShardFault { shard: hot, ..window }));
        let fault_cold = run(Some(ShardFault { shard: cold, ..window }));
        println!(
            "{:<10} {:>12.2} {:>14.2} {:>14.2} {:>9.2}x",
            strategy.label(),
            healthy.e2e.p99,
            fault_hot.e2e.p99,
            fault_cold.e2e.p99,
            fault_hot.e2e.p99 / healthy.e2e.p99,
        );
    }
    println!(
        "\nA faulted shard stretches every batch that touches it; because \
         each batch waits for its slowest RPC, one bad shard bounds the \
         request. Stateless shards make the production answer cheap: \
         route around it to a replica."
    );
}
