//! Network transport benchmark: what the socket boundary costs.
//!
//! The same distributed model runs a closed request loop over two
//! transports — the direct in-process client (function call, zero
//! serde) and the TCP loopback transport (real frames, real kernel
//! round trips) — and reports per-request e2e p50/p99 for each, the
//! TCP overhead, and how much of the TCP wall time is serde (encode +
//! decode) versus socket I/O and service time. This quantifies the
//! paper's premise that scale-out pays a per-hop latency tax
//! (§III-A2); the serde share says how much of that tax our wire
//! format is responsible for.
//!
//! Emits `BENCH_net.json` at the repo root — p50/p99 records per
//! transport plus the serde figures — alongside a human-readable
//! comparison. Not a verify gate: numbers here are wall-clock and
//! machine-dependent.

use dlrm_bench::report::{write_bench_json, BenchRecord};
use dlrm_core::model::graph::NoopObserver;
use dlrm_core::model::{build_model, rm, ModelSpec, Workspace};
use dlrm_core::serving::fault::FaultPlan;
use dlrm_core::serving::frontend::materialize_whole;
use dlrm_core::serving::replica::HealthPolicy;
use dlrm_core::serving::shard_server::TcpShardPool;
use dlrm_core::sharding::{partition, plan, DistributedModel, ShardingStrategy};
use dlrm_core::workload::{BatchInputs, PoolingProfile, TraceDb};
use std::time::{Duration, Instant};

const SEED: u64 = 37;
const SHARDS: usize = 2;
const REQUESTS: usize = 150;
const WARMUP: usize = 10;

fn spec() -> ModelSpec {
    let mut spec = rm::rm1().scaled_to_bytes(1 << 20);
    spec.mean_items_per_request = 4.0;
    spec.default_batch_size = 4;
    spec
}

fn inputs_for(spec: &ModelSpec) -> Vec<BatchInputs> {
    TraceDb::generate(spec, REQUESTS, SEED)
        .iter()
        .map(|shape| materialize_whole(spec, shape, SEED ^ 7))
        .collect()
}

/// Runs the closed loop and returns per-request e2e nanoseconds
/// (warmup excluded).
fn closed_loop(dist: &DistributedModel, inputs: &[BatchInputs]) -> Vec<f64> {
    let mut samples = Vec::with_capacity(inputs.len());
    for (i, inputs) in inputs.iter().enumerate() {
        let mut ws = Workspace::new();
        inputs.load_into(&dist.spec, &mut ws);
        let start = Instant::now();
        dist.run_overlapped(&mut ws, &mut NoopObserver)
            .expect("request");
        if i >= WARMUP {
            samples.push(start.elapsed().as_secs_f64() * 1e9);
        }
    }
    samples
}

/// The p-th percentile (nearest-rank) of `samples`.
fn percentile(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.saturating_sub(1).min(samples.len() - 1)]
}

fn main() {
    let spec = spec();
    let profile = PoolingProfile::from_spec(&spec);
    let p = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(SHARDS)).expect("plan");
    let inputs = inputs_for(&spec);
    let timed = REQUESTS - WARMUP;

    println!(
        "==== net: in-process vs TCP loopback transport, {timed} closed-loop requests ({SHARDS} shards) ===="
    );

    // ---- In-process: direct function-call clients, zero serde. ----
    let dist = partition(build_model(&spec, SEED).expect("build"), &p).expect("partition");
    let mut inproc = closed_loop(&dist, &inputs);
    let inproc_p50 = percentile(&mut inproc, 50.0);
    let inproc_p99 = percentile(&mut inproc, 99.0);
    drop(dist);

    // ---- TCP loopback: every RPC crosses a socket. ----
    let (dist, pool) = TcpShardPool::assemble(&spec, &p, SEED, |services| {
        let (delay, faults, health) = (Duration::ZERO, FaultPlan::none(), HealthPolicy::default());
        TcpShardPool::spawn(services, 1, delay, &faults, health).map_err(|e| e.to_string())
    })
    .expect("assemble tcp cluster");
    let wall_start = Instant::now();
    let mut tcp = closed_loop(&dist, &inputs);
    let tcp_wall_ns = wall_start.elapsed().as_secs_f64() * 1e9;
    let tcp_p50 = percentile(&mut tcp, 50.0);
    let tcp_p99 = percentile(&mut tcp, 99.0);

    let wire = pool.transport_summary().wire;
    pool.shutdown();
    assert!(!wire.is_zero(), "TCP run recorded no wire activity");
    let rpcs = wire.frames_sent.max(1);
    let serde_ns_total = wire.serde_ns as f64;
    let serde_per_rpc = serde_ns_total / rpcs as f64;
    let serde_share = 100.0 * serde_ns_total / tcp_wall_ns;
    let bytes_per_rpc =
        (wire.bytes_sent + wire.bytes_received) as f64 / rpcs as f64;

    println!(
        "in_process   p50 {:9.1} us   p99 {:9.1} us",
        inproc_p50 / 1e3,
        inproc_p99 / 1e3
    );
    println!(
        "tcp_loopback p50 {:9.1} us   p99 {:9.1} us",
        tcp_p50 / 1e3,
        tcp_p99 / 1e3
    );
    println!(
        "tcp overhead p50 {:+9.1} us   p99 {:+9.1} us",
        (tcp_p50 - inproc_p50) / 1e3,
        (tcp_p99 - inproc_p99) / 1e3
    );
    println!(
        "tcp wire: {} rpcs, {:.0} B/rpc, serde {:.1} us/rpc ({serde_share:.2}% of wall)",
        rpcs,
        bytes_per_rpc,
        serde_per_rpc / 1e3
    );

    let mut serde_record = BenchRecord::p50("net_tcp_serde_per_rpc", serde_per_rpc);
    serde_record.throughput = Some(("percent_of_wall".into(), serde_share));
    let records = vec![
        BenchRecord::tail("net_request_inprocess", inproc_p50, inproc_p99),
        BenchRecord::tail("net_request_tcp", tcp_p50, tcp_p99),
        BenchRecord::tail(
            "net_tcp_overhead",
            tcp_p50 - inproc_p50,
            tcp_p99 - inproc_p99,
        ),
        serde_record,
        BenchRecord::scalar("net_tcp_bytes_per_rpc", bytes_per_rpc, "bytes"),
    ];
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_net.json");
    write_bench_json(&path, &records).expect("write BENCH_net.json");
    println!("\nwrote {}", path.display());
}
