//! The benchmark's definition: every pinned literal, the workloads, and
//! the metric tables. `BENCHMARK.json` at the repo root is generated
//! from this file (`sysbench benchmark-json`), so the bounds the suite
//! compares against and the ones the driver reads cannot drift apart.

use dlrm_core::model::{rm, ModelSpec};
use dlrm_core::workload::IndexDist;

/// Seconds of measured load per run (steady + saturation); the value of
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;
/// Share of `--seconds` spent in the steady phase; the rest is the
/// nominal length of the saturation backlog.
pub const STEADY_SHARE: f64 = 0.75;
/// Discarded warm-up at the steady rate, prepended to the steady stream.
pub const WARM_SECONDS: f64 = 2.0;
/// A traced (`--trace 1`) run serves this share of the normal load: it
/// only feeds counters and per-layer means, never an end-to-end metric.
pub const TRACED_LOAD_SHARE: f64 = 0.3;
/// Saturation arrivals are Poisson at this multiple of the steady rate:
/// the whole backlog is on the queue within a few percent of its drain
/// time.
pub const SATURATION_RATE_FACTOR: f64 = 100.0;
/// Deployments built per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Steady-phase requests whose predictions are checked bit for bit.
pub const VERIFIED_REQUESTS: usize = 16;
/// Requests in each closed loop of the traced run.
pub const TRACED_REQUESTS: usize = 100;

/// Model weight seed: fixed, so `--seed` changes the load and never the
/// deployment.
pub const WEIGHT_SEED: u64 = 37;
pub const SHARDS: usize = 2;
pub const WORKERS: usize = 2;
pub const MAX_BATCH_REQUESTS: usize = 4;
pub const BATCH_TIMEOUT_MS: u64 = 2;
pub const MEAN_ITEMS_PER_REQUEST: f64 = 4.0;
pub const DEFAULT_BATCH_SIZE: usize = 4;
/// `coloc2_rm2_churn`: seconds between forced ladder steps under load.
pub const CHURN_EVERY_S: f64 = 2.0;
pub const ZIPF_SKEW: f64 = 1.2;
pub const HOT_ROW_COVERAGE: f64 = 0.95;
pub const HOT_ROW_BUDGET: f64 = 0.5;
pub const ROW_STATS_SAMPLES: usize = 4_000;

/// How the main shard reaches its sparse shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `partition`: direct calls, zero wire bytes.
    InProcess,
    /// `TcpShardPool` on loopback, one replica per shard.
    Tcp,
    /// `ReplicatedShardPool` (channels), two replicas per shard, under a
    /// `HotRowAware` plan with its `HotRowCache`.
    ThreadedCached,
    /// Two tenants of this model through `TenantSet`, tenant A churning
    /// along the storage ladder.
    Tenants,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub model: fn() -> ModelSpec,
    pub mib: u64,
    pub dist: IndexDist,
    pub transport: Transport,
    /// Open-loop rate of each request stream in the steady phase.
    pub steady_qps: f64,
    pub sla_ms: f64,
    /// Nominal saturation throughput of the seed commit on the sizing
    /// host, per stream; fixes the backlog size, nothing else.
    pub saturation_qps: f64,
}

impl Workload {
    pub fn streams(&self) -> usize {
        if self.transport == Transport::Tenants {
            2
        } else {
            1
        }
    }

    pub fn spec(&self) -> ModelSpec {
        let mut spec = (self.model)().scaled_to_bytes(self.mib << 20);
        spec.mean_items_per_request = MEAN_ITEMS_PER_REQUEST;
        spec.default_batch_size = DEFAULT_BATCH_SIZE;
        spec
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "rm1_dram_tcp",
        why: "Sparse-heavy RM1 at 512 MiB behind loopback sockets: SLS kernels, shard service, wire and tcp do most of their work here (the paper's headline case).",
        model: rm::rm1,
        mib: 512,
        dist: IndexDist::Uniform,
        transport: Transport::Tcp,
        steady_qps: 15.0,
        sla_ms: 150.0,
        saturation_qps: 100.0,
    },
    Workload {
        name: "rm3_dense_inproc",
        why: "Bypass: RM3 is ~90% FC, in-process clients send zero wire bytes; GEMM, graph, runtime and batcher changes show here, SLS/wire/cache changes must not.",
        model: rm::rm3,
        mib: 64,
        dist: IndexDist::Uniform,
        transport: Transport::InProcess,
        steady_qps: 300.0,
        sla_ms: 10.0,
        saturation_qps: 3000.0,
    },
    Workload {
        name: "rm2_zipf_cache_threaded",
        why: "Same lookup layer used differently: Zipf(1.2) rows pooled from the hot-row cache, channel transport, two round-robin replicas per shard.",
        model: rm::rm2,
        mib: 256,
        dist: IndexDist::Zipf(ZIPF_SKEW),
        transport: Transport::ThreadedCached,
        steady_qps: 30.0,
        sla_ms: 60.0,
        saturation_qps: 250.0,
    },
    Workload {
        name: "coloc2_rm2_churn",
        why: "Control path beside data path: two RM2 tenants share workers while tenant A's tables step DRAM/8-bit/paged under load (epoch rebuild, dual-read verify, publish, drain).",
        model: rm::rm2,
        mib: 32,
        dist: IndexDist::Uniform,
        transport: Transport::Tenants,
        steady_qps: 15.0,
        sla_ms: 80.0,
        saturation_qps: 110.0,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Bounds follow the spreads seen over ten seeds on the sizing host
/// (README, "How steady it is"): a two-vCPU guest whose DRAM-bound
/// speed drifts by a tenth and more between runs.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "resident_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.05,
    },
    EndToEnd {
        name: "steady_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "steady_sla_hit",
        unit: "share",
        better: "higher",
        bound: 0.05,
    },
    EndToEnd {
        name: "saturation_qps",
        unit: "req/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_req",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "served_share",
        unit: "share",
        better: "higher",
        bound: 0.001,
    },
];

/// `(name, unit, better)`; the layer is the part of the name before the
/// first dot and is a module name of the repo.
pub const PER_LAYER: [(&str, &str, &str); 67] = [
    ("host.stream_gbps", "GB/s", "higher"),
    ("host.fma_gflops", "GFLOP/s", "higher"),
    ("host.loopback_rtt_us", "us", "lower"),
    ("tensor.gemm_gflops", "GFLOP/s", "higher"),
    ("tensor.sls_rows_per_s", "1/s", "higher"),
    ("tensor.sls_gbps", "GB/s", "higher"),
    ("compress.qsls8_rows_per_s", "1/s", "higher"),
    ("compress.quantize_ms_per_mib", "ms/MiB", "lower"),
    ("runtime.pool_fork_us", "us", "lower"),
    ("runtime.buffer_fresh_allocs", "count", "lower"),
    ("runtime.simd_fraction", "share", "higher"),
    ("model.singular_ms", "ms", "lower"),
    ("model.fc_share", "share", "lower"),
    ("model.sls_share", "share", "lower"),
    ("model.dist_overhead_pct", "%", "lower"),
    ("workload.materialize_ms_per_req", "ms", "lower"),
    ("workload.profiler_observe_us", "us", "lower"),
    ("sharding.plan_ms", "ms", "lower"),
    ("sharding.partition_ms", "ms", "lower"),
    ("sharding.shard_execute_us", "us", "lower"),
    ("sharding.rpcs_per_req", "count", "lower"),
    ("sharding.rows_per_req", "count", "lower"),
    ("sharding.shard_imbalance", "ratio", "lower"),
    ("sharding.cache_hit_rate", "share", "higher"),
    ("sharding.cache_local_rows_per_req", "count", "higher"),
    ("wire.encode_us", "us", "lower"),
    ("wire.decode_us", "us", "lower"),
    ("wire.bytes_per_rpc", "B", "lower"),
    ("wire.serde_share", "share", "lower"),
    ("tcp.rpc_floor_us", "us", "lower"),
    ("tcp.rpc_us", "us", "lower"),
    ("tcp.rpc_overhead_us", "us", "lower"),
    ("replica.failovers", "count", "lower"),
    ("replica.retries", "count", "lower"),
    ("replica.hedges", "count", "lower"),
    ("replica.errors", "count", "lower"),
    ("frontend.queue_wait_ms", "ms", "lower"),
    ("frontend.batch_wait_ms", "ms", "lower"),
    ("frontend.compute_ms", "ms", "lower"),
    ("frontend.mean_batch", "count", "higher"),
    ("frontend.sat_mean_batch", "count", "higher"),
    ("frontend.max_queue_depth", "count", "lower"),
    ("frontend.shed", "count", "lower"),
    ("frontend.gen_late_p99_ms", "ms", "lower"),
    ("frontend.e2e_p90_ms", "ms", "lower"),
    ("frontend.e2e_p99_ms", "ms", "lower"),
    ("tenancy.transition_ms", "ms", "lower"),
    ("tenancy.transitions", "count", "higher"),
    ("tenancy.bytes_dram_mib", "MiB", "lower"),
    ("tenancy.bytes_quantized_mib", "MiB", "lower"),
    ("tenancy.bytes_paged_mib", "MiB", "lower"),
    ("tenancy.victim_p90_ms", "ms", "lower"),
    ("tenancy.neighbor_p90_ms", "ms", "lower"),
    ("tenancy.verify_failures", "count", "lower"),
    ("tiered.execute_dram_us", "us", "lower"),
    ("tiered.execute_q8_us", "us", "lower"),
    ("tiered.execute_paged_us", "us", "lower"),
    ("engine.closed_p50_ms", "ms", "lower"),
    ("engine.closed_p90_ms", "ms", "lower"),
    ("engine.traced_p50_ms", "ms", "lower"),
    ("engine.trace_overhead_pct", "%", "lower"),
    ("engine.load_ms", "ms", "lower"),
    ("engine.dense_ms", "ms", "lower"),
    ("engine.sparse_local_ms", "ms", "lower"),
    ("engine.rpc_outstanding_ms", "ms", "lower"),
    ("engine.rpc_exposed_ms", "ms", "lower"),
    ("engine.sched_ms", "ms", "lower"),
];

/// The exact text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"sysbench/run.sh\"],\n");
    out.push_str("  \"paths\": [\"sysbench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| rows.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|(name, unit, better)| {
                format!(
                    "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}"
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_in_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `sysbench benchmark-json`"
        );
    }

    #[test]
    fn definition_stays_inside_the_driver_limits() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        assert!(names.iter().all(|n| name_ok(n)));
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains(['\n', '"'])));
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.1)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(benchmark_json().len() < 64 * 1024);
    }
}
