//! Fig. 15: RM1 per-shard operator latencies by server platform —
//! sparse shards on SC-Small perform like SC-Large, opening an
//! efficiency opportunity (§VII-B).

use dlrm_bench::report::{header, repro_requests};
use dlrm_core::model::rm;
use dlrm_core::cluster::Cluster;
use dlrm_core::sharding::ShardingStrategy;
use dlrm_core::Study;

fn main() {
    println!(
        "{}",
        header("Fig 15", "RM1 per-shard operator latencies by platform (lb-8)")
    );
    let mut results = Vec::new();
    for (label, cluster) in [
        ("SC-Large sparse", Cluster::sc_large()),
        ("SC-Small sparse", Cluster::small_sparse()),
    ] {
        let mut study = Study::new(rm::rm1())
            .with_requests(repro_requests())
            .with_cluster(cluster);
        let r = study.run(ShardingStrategy::LoadBalanced(8)).expect("lb-8");
        println!("\n-- {label} --");
        for (i, ms) in r.per_shard_sls_ms.iter().enumerate() {
            println!("  shard {} sls {:>9.1} ms", i + 1, ms);
        }
        println!(
            "  e2e p50/p90/p99: {:.2}/{:.2}/{:.2} ms | bounding-shard stack total {:.2} ms",
            r.e2e.p50,
            r.e2e.p90,
            r.e2e.p99,
            r.embedded_stack.total()
        );
        results.push(r);
    }
    let large = &results[0];
    let small = &results[1];
    let p50_delta = (small.e2e.p50 / large.e2e.p50 - 1.0) * 100.0;
    let embedded_delta =
        (small.embedded_stack.total() / large.embedded_stack.total().max(1e-9) - 1.0) * 100.0;
    println!(
        "\nSC-Small vs SC-Large: e2e p50 {p50_delta:+.1}%, embedded portion \
         {embedded_delta:+.1}% — paper: 'per-shard operator latencies are \
         nearly identical', despite SC-Large having more, faster cores and \
         4x the DRAM; sparse shards can run on cheaper, lower-power servers."
    );
}
