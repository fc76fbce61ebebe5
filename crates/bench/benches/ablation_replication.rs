//! Ablation: §VII-C's replication-efficiency argument quantified — the
//! servers, DRAM and power needed to serve a QPS target, singular vs
//! distributed, with SC-Large vs SC-Small sparse tiers.

use dlrm_bench::report::header;
use dlrm_core::model::rm;
use dlrm_core::cluster::replication::plan_replication;
use dlrm_core::cluster::{CostModel, PlatformSpec};
use dlrm_core::sharding::{plan, ShardingStrategy};
use dlrm_core::workload::PoolingProfile;

fn main() {
    println!(
        "{}",
        header(
            "Ablation",
            "Replication efficiency at data-center QPS (RM1)"
        )
    );
    let spec = rm::rm1();
    let profile = PoolingProfile::from_spec(&spec);
    let cost = CostModel::for_model(&spec);
    let large = PlatformSpec::sc_large();
    let small = PlatformSpec::sc_small();

    println!(
        "{:<28} {:>7} {:>9} {:>12} {:>9}",
        "configuration", "qps", "servers", "model DRAM", "power"
    );
    for qps in [500.0, 2000.0, 8000.0] {
        for (label, strategy, sparse_platform) in [
            ("singular", ShardingStrategy::Singular, &large),
            ("nsbp-8 / SC-Large sparse", ShardingStrategy::NetSpecificBinPacking(8), &large),
            ("nsbp-8 / SC-Small sparse", ShardingStrategy::NetSpecificBinPacking(8), &small),
            ("lb-8 / SC-Large sparse", ShardingStrategy::LoadBalanced(8), &large),
        ] {
            let p = plan(&spec, &profile, strategy).expect("plan");
            let rp = plan_replication(
                &spec, &p, &profile, &cost, &large, sparse_platform, qps, 0.6,
            );
            println!(
                "{label:<28} {qps:>7.0} {:>9} {:>9.1} TB {:>9.1}",
                rp.total_servers,
                rp.total_model_dram_bytes as f64 / 1e12,
                rp.total_power
            );
        }
        println!();
    }
    println!(
        "paper: compute-driven replication of a singular model duplicates \
         every embedding table; distributed inference lets dense compute \
         replicate without dragging ~200 GB of tables along, and sparse \
         shards can run on low-power SC-Small servers (§VII-B/C)."
    );
}
