//! Paging-from-SSD as an alternative to distributed inference.
//!
//! §X lists "additional system-level solutions such as paging-from-disk"
//! as future design-space work, and §I notes that on-demand paging
//! "requires fast solid-state drives (SSD) to meet latency constraints".
//! This module is the analytic half of that alternative:
//! [`PagingModel`] keeps the whole model on one server's SSD, caches the
//! hottest embedding rows in DRAM, pays device reads for misses, and
//! [`compare`]s against distributed inference's RPC overhead. The
//! *servable* half — a file-backed table that answers lookups — is
//! [`dlrm_sharding::PagedTable`], the coldest storage tier of the shard
//! service.

use dlrm_model::ModelSpec;

/// An SSD-paging configuration for serving one model from a single
/// server.
#[derive(Debug, Clone, PartialEq)]
pub struct PagingModel {
    /// DRAM bytes available for the embedding-row cache.
    pub cache_bytes: u64,
    /// Per-read SSD latency, microseconds (NVMe ≈ 80 µs).
    pub ssd_read_latency_us: f64,
    /// Device queue depth: misses overlap up to this factor.
    pub queue_depth: usize,
    /// Access-skew exponent `θ ∈ (0, 1]`: caching a fraction `f` of
    /// rows (hottest first) captures `f^θ` of accesses. Small θ = very
    /// skewed, cache-friendly traffic (Bandana-style traces are highly
    /// skewed; θ ≈ 0.2–0.35 is representative).
    pub skew_theta: f64,
}

impl PagingModel {
    /// A commodity server: ~50 GB usable DRAM cache over NVMe.
    #[must_use]
    pub fn commodity_nvme() -> Self {
        Self {
            cache_bytes: 50 << 30,
            ssd_read_latency_us: 80.0,
            queue_depth: 32,
            skew_theta: 0.25,
        }
    }

    /// Expected cache hit rate for `spec`'s embedding traffic.
    #[must_use]
    pub fn hit_rate(&self, spec: &ModelSpec) -> f64 {
        let f = (self.cache_bytes as f64 / spec.total_bytes() as f64).min(1.0);
        if f >= 1.0 {
            1.0
        } else {
            f.powf(self.skew_theta)
        }
    }

    /// Added latency per request (ms): misses amortized over the device
    /// queue depth.
    ///
    /// # Panics
    ///
    /// Panics if `lookups_per_request` is negative.
    #[must_use]
    pub fn added_latency_ms(&self, spec: &ModelSpec, lookups_per_request: f64) -> f64 {
        assert!(lookups_per_request >= 0.0, "negative lookup count");
        let misses = lookups_per_request * (1.0 - self.hit_rate(spec));
        misses * self.ssd_read_latency_us / self.queue_depth as f64 / 1000.0
    }

    /// Whether the configuration even fits: the SSD must hold the model
    /// and the cache must fit DRAM — always true for paging (that is
    /// its selling point), so this reports cache coverage instead.
    #[must_use]
    pub fn cache_fraction(&self, spec: &ModelSpec) -> f64 {
        (self.cache_bytes as f64 / spec.total_bytes() as f64).min(1.0)
    }
}

/// Side-by-side per-request latency penalty: paging vs distributed
/// inference (the latter from the same cost model the simulator uses —
/// per-net RPC round trips at the calibrated network floor).
#[derive(Debug, Clone, PartialEq)]
pub struct PagingComparison {
    /// Added ms per request when paging from SSD.
    pub paging_penalty_ms: f64,
    /// Added ms per request under distributed inference (approximate:
    /// batches × nets × round-trip floor).
    pub distributed_penalty_ms: f64,
    /// Cache hit rate backing the paging estimate.
    pub hit_rate: f64,
}

/// Compares the two scale-out alternatives for `spec`.
#[must_use]
pub fn compare(
    spec: &ModelSpec,
    paging: &PagingModel,
    cost: &crate::CostModel,
) -> PagingComparison {
    let lookups = spec.total_pooling_factor();
    let paging_penalty_ms = paging.added_latency_ms(spec, lookups);
    // Distributed: one RPC wave per net per request on the critical
    // path (batches overlap): RTT + service + serde floor.
    let per_wave = 2.0 * cost.network_mean_ms()
        + cost.shard_service_us / 1000.0
        + 2.0 * cost.rpc_serde_base_us / 1000.0;
    let distributed_penalty_ms = per_wave * spec.nets.len() as f64;
    PagingComparison {
        paging_penalty_ms,
        distributed_penalty_ms,
        hit_rate: paging.hit_rate(spec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostModel;
    use dlrm_model::rm;

    #[test]
    fn hit_rate_grows_with_cache_and_saturates() {
        let spec = rm::rm1();
        let small = PagingModel {
            cache_bytes: 10 << 30,
            ..PagingModel::commodity_nvme()
        };
        let big = PagingModel {
            cache_bytes: 100 << 30,
            ..PagingModel::commodity_nvme()
        };
        let whole = PagingModel {
            cache_bytes: 300 << 30,
            ..PagingModel::commodity_nvme()
        };
        assert!(small.hit_rate(&spec) < big.hit_rate(&spec));
        assert_eq!(whole.hit_rate(&spec), 1.0);
        assert_eq!(whole.added_latency_ms(&spec, 1e6), 0.0);
    }

    #[test]
    fn rm1_paging_misses_sla_but_distributed_does_not() {
        // RM1's ~135k lookups/request make SSD paging catastrophically
        // slow on a commodity cache, while the distributed penalty is a
        // few ms — the design-space answer §X anticipates.
        let spec = rm::rm1();
        let cmp = compare(&spec, &PagingModel::commodity_nvme(), &CostModel::for_model(&spec));
        assert!(
            cmp.paging_penalty_ms > 20.0,
            "paging penalty {} ms",
            cmp.paging_penalty_ms
        );
        assert!(
            cmp.distributed_penalty_ms < 5.0,
            "distributed penalty {} ms",
            cmp.distributed_penalty_ms
        );
        assert!(cmp.paging_penalty_ms > 5.0 * cmp.distributed_penalty_ms);
    }

    #[test]
    fn rm3_paging_is_viable() {
        // RM3's tiny pooling (dominant table: one lookup) makes paging
        // competitive — the trade-off is model-specific.
        let spec = rm::rm3();
        let cmp = compare(&spec, &PagingModel::commodity_nvme(), &CostModel::for_model(&spec));
        assert!(
            cmp.paging_penalty_ms < cmp.distributed_penalty_ms * 3.0,
            "paging {} vs distributed {}",
            cmp.paging_penalty_ms,
            cmp.distributed_penalty_ms
        );
    }

    #[test]
    fn skew_controls_the_penalty() {
        let spec = rm::rm1();
        let skewed = PagingModel {
            skew_theta: 0.15,
            ..PagingModel::commodity_nvme()
        };
        let uniform = PagingModel {
            skew_theta: 1.0,
            ..PagingModel::commodity_nvme()
        };
        assert!(
            skewed.added_latency_ms(&spec, 1e5) < uniform.added_latency_ms(&spec, 1e5)
        );
    }
}
