//! Ablation: SSD paging vs distributed inference (§X future work,
//! §I's "on-demand paging ... requires fast SSDs to meet latency
//! constraints").

use dlrm_bench::report::header;
use dlrm_core::model::rm;
use dlrm_core::cluster::paging::{compare, PagingModel};
use dlrm_core::cluster::CostModel;

fn main() {
    println!(
        "{}",
        header("Ablation", "Paging-from-SSD vs distributed inference")
    );
    println!(
        "{:<6} {:>10} {:>10} {:>14} {:>16}",
        "model", "cache f", "hit rate", "paging +ms", "distributed +ms"
    );
    let paging = PagingModel::commodity_nvme();
    for spec in rm::all() {
        let cost = CostModel::for_model(&spec);
        let cmp = compare(&spec, &paging, &cost);
        println!(
            "{:<6} {:>9.1}% {:>9.1}% {:>14.2} {:>16.2}",
            spec.name,
            paging.cache_fraction(&spec) * 100.0,
            cmp.hit_rate * 100.0,
            cmp.paging_penalty_ms,
            cmp.distributed_penalty_ms,
        );
    }
    println!(
        "\nRM1/RM2's ~50-135k lookups per request make SSD misses \
         catastrophic on a commodity cache; RM3's near-zero pooling makes \
         paging competitive. The alternative is workload-dependent, which \
         is why §X calls for expanding the design space rather than \
         replacing distributed inference."
    );
}
