//! Fig. 10: RM1 per-shard operator latencies by net with 8 sparse
//! shards — co-locating tables within the same net (NSBP) concentrates
//! work on the hot net's shards.

use dlrm_bench::report::{bar, header, repro_requests};
use dlrm_core::model::{rm, NetId};
use dlrm_core::sharding::{plan, Location, ShardingStrategy};
use dlrm_core::cluster::experiment::trace_config_for;
use dlrm_core::workload::TraceDb;
use dlrm_core::Study;

fn main() {
    println!(
        "{}",
        header("Fig 10", "RM1 per-shard operator latencies by net (8 shards)")
    );
    let spec = rm::rm1();
    let db = TraceDb::generate_with(&spec, 1000, 0x000D_15C0, &trace_config_for(&spec));
    let profile = db.pooling_profile(1000);
    let mut study = Study::new(spec.clone()).with_requests(repro_requests());

    for strategy in [
        ShardingStrategy::LoadBalanced(8),
        ShardingStrategy::NetSpecificBinPacking(8),
    ] {
        let r = study.run(strategy).expect("config");
        let p = plan(&spec, &profile, strategy).expect("plan");
        println!("\n-- {} --", strategy.label());
        let max = r
            .per_shard_sls_ms
            .iter()
            .cloned()
            .fold(0.0f64, f64::max);
        for (i, ms) in r.per_shard_sls_ms.iter().enumerate() {
            // Which nets does this shard serve?
            let shard = dlrm_core::sharding::ShardId(i);
            let nets: Vec<String> = spec
                .nets
                .iter()
                .filter(|n| {
                    spec.tables_of_net(n.id).any(|t| {
                        matches!(&p.placement(t.id).location,
                                 Location::Shards(s) if s.contains(&shard))
                    })
                })
                .map(|n| n.name.clone())
                .collect();
            println!(
                "  shard {} [{}] sls {:>9.1} ms {}",
                i + 1,
                nets.join("+"),
                ms,
                bar(*ms, max, 30)
            );
        }
        // Net totals.
        for net in &spec.nets {
            let shards = p.shards_touched_by_net(net.id, &spec);
            let total: f64 = shards.iter().map(|s| r.per_shard_sls_ms[s.0]).sum();
            println!(
                "  net '{}' across {} shard(s): {total:.1} ms total sls",
                net.name,
                shards.len()
            );
        }
    }
    let _ = NetId(0);
    println!(
        "\npaper: under NSBP the user net's shards do nearly all the SLS work \
         (its pooling is ~94% of the model's) while the content net's six \
         shards idle — the latency cost of net isolation, and the \
         replication-efficiency benefit discussed in §VII-C."
    );
}
