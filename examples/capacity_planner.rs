//! Capacity planner: given a model and a server fleet, enumerate
//! sharding strategies and report per-shard placement (Table II style)
//! plus the servers/DRAM/power needed to serve a QPS target (§VII-C).
//!
//! ```sh
//! cargo run --release --example capacity_planner -- rm1 2000
//! ```
//!
//! Arguments: model (`rm1` | `rm2` | `rm3`, default `rm1`) and target
//! QPS (default 2000).

use dlrm_core::model::{rm, GIB};
use dlrm_core::cluster::replication::plan_replication;
use dlrm_core::cluster::{CostModel, PlatformSpec};
use dlrm_core::sharding::{plan, ShardingStrategy};
use dlrm_core::workload::PoolingProfile;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let spec = match args.get(1).map(String::as_str) {
        Some("rm2") => rm::rm2(),
        Some("rm3") => rm::rm3(),
        _ => rm::rm1(),
    };
    let qps: f64 = args
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2000.0);

    let profile = PoolingProfile::from_spec(&spec);
    let cost = CostModel::for_model(&spec);
    let large = PlatformSpec::sc_large();
    let small = PlatformSpec::sc_small();

    println!(
        "planning {} ({} tables, {:.1} GiB, pooling {:.0}) for {qps:.0} QPS\n",
        spec.name,
        spec.tables.len(),
        spec.total_gib(),
        profile.total()
    );
    println!(
        "{:<10} {:>6} {:>12} {:>12} {:>9} {:>10} {:>8} {:>8}",
        "strategy", "shards", "max cap GiB", "max pooling", "fits 64G?", "servers", "DRAM TB", "power"
    );

    let strategies = if spec.name == "RM3" {
        ShardingStrategy::rm3_sweep()
    } else {
        let mut v = vec![ShardingStrategy::Singular, ShardingStrategy::OneShard];
        v.extend([2, 4, 8].map(ShardingStrategy::CapacityBalanced));
        v.extend([2, 4, 8].map(ShardingStrategy::LoadBalanced));
        v.extend([2, 4, 8].map(ShardingStrategy::NetSpecificBinPacking));
        v.push(ShardingStrategy::Auto(8));
        v
    };
    for strategy in strategies {
        let Ok(p) = plan(&spec, &profile, strategy) else {
            println!("{:<10} infeasible", strategy.label());
            continue;
        };
        let (max_cap, max_pool, fits_small) = if p.num_shards() == 0 {
            (spec.total_gib(), profile.total(), false)
        } else {
            let max_cap = p
                .shards()
                .map(|s| p.shard_capacity_bytes(s, &spec) / GIB)
                .fold(0.0f64, f64::max);
            let max_pool = p
                .shards()
                .map(|s| p.shard_pooling(s, &profile))
                .fold(0.0f64, f64::max);
            let fits = p.shards().all(|s| {
                small.fits(p.shard_capacity_bytes(s, &spec) as u64, 0.2)
            });
            (max_cap, max_pool, fits)
        };
        // Sparse shards on SC-Small when they fit (the §VII-B
        // efficiency play); otherwise SC-Large.
        let sparse_platform = if fits_small { &small } else { &large };
        let rp = plan_replication(
            &spec, &p, &profile, &cost, &large, sparse_platform, qps, 0.6,
        );
        println!(
            "{:<10} {:>6} {:>12.2} {:>12.0} {:>9} {:>10} {:>8.2} {:>8.1}",
            strategy.label(),
            p.num_shards(),
            max_cap,
            max_pool,
            if fits_small { "yes" } else { "no" },
            rp.total_servers,
            rp.total_model_dram_bytes as f64 / 1e12,
            rp.total_power,
        );
    }
    println!(
        "\nreading the table: singular replicates all {:.0} GiB with every \
         compute replica; sharded plans replicate dense compute cheaply and \
         pin memory where it is actually needed. 'fits 64G' marks plans \
         whose every shard fits an SC-Small web server.",
        spec.total_gib()
    );
}
