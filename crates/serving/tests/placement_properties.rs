//! Placement properties: the hot-row cache tier must be an *invisible*
//! optimization. A `HotRowAware` plan changes where embedding rows are
//! served from — never what any request computes. Every test here pins
//! that contract:
//!
//! - **Statistics determinism** — the same sampling seed yields the
//!   same `RowStats` (ranked rows, CDF, hot set), so a plan computed on
//!   one host reproduces on another.
//! - **Bit-exactness** — cached serving matches the pure-RPC path
//!   bit for bit across model specs, shard counts, and Zipf skews, on
//!   both the threaded (in-process replica) and TCP loopback
//!   transports. The TCP variant round-trips the plan through the v2
//!   text format first, exactly as the control plane would publish it.
//! - **Hostile plan text** — truncated or byte-edited published plans
//!   parse to `Ok` or `Err`, never a panic.
//! - **Fan-out reduction** — at high skew the cache tier sends fewer
//!   embedding rows over the wire than a capacity-only plan for the
//!   same traffic, which is the whole point.
//!
//! Cache activity is read from the one place it is counted: each run's
//! `RpcTally`, summed over the requests.

use dlrm_model::graph::NoopObserver;
use dlrm_model::{build_model, rm, ModelSpec, Workspace};
use dlrm_serving::engine_trace::RpcTracingObserver;
use dlrm_serving::fault::FaultPlan;
use dlrm_serving::replica::{HealthPolicy, ReplicatedShardPool};
use dlrm_serving::shard_server::TcpShardPool;
use dlrm_sharding::publish::{plan_from_text, plan_to_text};
use dlrm_sharding::{
    partition, plan, plan_with_stats, CacheTotals, DistributedModel, HotRowConfig, ShardingPlan,
    ShardingStrategy,
};
use dlrm_sim::SimRng;
use dlrm_tensor::Matrix;
use dlrm_trace::TraceId;
use dlrm_workload::{
    materialize_request_with, BatchInputs, IndexDist, PoolingProfile, RowStats, TraceDb,
};
use std::time::Duration;

const SEED: u64 = 53;

/// Zipf-skewed request batches for `spec` (the distribution the
/// placement planner profiled).
fn skewed_inputs(spec: &ModelSpec, requests: usize, skew: f64) -> Vec<BatchInputs> {
    let db = TraceDb::generate(spec, requests, SEED ^ 2);
    (0..requests)
        .flat_map(|i| materialize_request_with(spec, db.get(i), 8, SEED ^ 3, IndexDist::Zipf(skew)))
        .collect()
}

/// Runs every input through `dist`, returning predictions and the
/// cache split its RPCs reported, summed over the runs' tallies.
fn run_all(dist: &DistributedModel, inputs: &[BatchInputs]) -> (Vec<Matrix>, CacheTotals) {
    let mut cache = CacheTotals::default();
    let out = inputs
        .iter()
        .enumerate()
        .map(|(i, inp)| {
            let mut ws = Workspace::new();
            inp.load_into(&dist.spec, &mut ws);
            let mut obs = RpcTracingObserver::new(TraceId(i as u64));
            let out = dist.run_overlapped(&mut ws, &mut obs).expect("request");
            cache.merge(&obs.tally().cache);
            out
        })
        .collect();
    (out, cache)
}

/// Cache budget for the property runs: generous enough that skewed
/// traffic reliably lands whole bags in the hot set (the all-or-nothing
/// serving rule needs every row of a bag resident). Its hit-rate band
/// at Zipf(1.2) is pinned by
/// `hot_row_plan_sends_fewer_rows_over_the_wire_at_high_skew`.
fn test_config() -> HotRowConfig {
    HotRowConfig {
        coverage: 0.95,
        budget_fraction: 0.5,
    }
}

fn hot_plan(spec: &ModelSpec, shards: usize, skew: f64) -> ShardingPlan {
    let profile = PoolingProfile::from_spec(spec);
    let stats = RowStats::for_spec(spec, 4_000, skew, SEED);
    plan_with_stats(
        spec,
        &profile,
        ShardingStrategy::HotRowAware(shards),
        &stats,
        &test_config(),
    )
    .expect("hot-row plan")
}

/// `p` served fault-free over the threaded replica transport, hot-row
/// cache attached to the pool when the plan carries one.
fn threaded_cluster(
    spec: &ModelSpec,
    p: &ShardingPlan,
    replicas: usize,
) -> (DistributedModel, ReplicatedShardPool) {
    ReplicatedShardPool::assemble(spec, p, SEED, |services| {
        let (faults, health) = (FaultPlan::none(), HealthPolicy::default());
        Ok(ReplicatedShardPool::spawn(
            services,
            replicas,
            Duration::ZERO,
            &faults,
            health,
        ))
    })
    .expect("assemble")
}

// ---------------------------------------------------------------------
// Statistics determinism
// ---------------------------------------------------------------------

#[test]
fn row_stats_same_seed_is_deterministic() {
    let spec = rm::rm1().scaled_to_bytes(1 << 20);
    let a = RowStats::for_spec(&spec, 5_000, 1.2, 11);
    let b = RowStats::for_spec(&spec, 5_000, 1.2, 11);
    assert_eq!(a, b, "same seed must reproduce identical statistics");
    let c = RowStats::for_spec(&spec, 5_000, 1.2, 12);
    assert_ne!(a, c, "a different seed should sample differently");

    for stats in &a {
        // The CDF is a proper cumulative distribution: monotone
        // nondecreasing over ranked rows, reaching exactly 1.
        let cdf = stats.cdf();
        assert!(!cdf.is_empty());
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]), "CDF not monotone");
        let last = *cdf.last().unwrap();
        assert!((last - 1.0).abs() < 1e-9, "CDF ends at {last}, not 1.0");

        // The serialized hot-set summary round-trips the hot prefix.
        let k = 16.min(stats.ranked().len());
        let rt = RowStats::from_summary_text(&stats.summary_text(k)).expect("summary round trip");
        assert_eq!(rt.hot_rows(k), stats.hot_rows(k));
        assert_eq!(rt.rows(), stats.rows());
        assert_eq!(rt.total_accesses(), stats.total_accesses());
    }
}

#[test]
fn same_stats_produce_the_same_plan() {
    let spec = rm::rm2().scaled_to_bytes(1 << 20);
    let a = hot_plan(&spec, 3, 1.1);
    let b = hot_plan(&spec, 3, 1.1);
    assert_eq!(a, b, "planning must be a pure function of its inputs");
    assert!(a.has_hot_rows(), "skewed stats must elect hot rows");
}

// ---------------------------------------------------------------------
// Bit-exactness: threaded transport, across specs and skews
// ---------------------------------------------------------------------

#[test]
fn threaded_cache_tier_is_bit_exact_across_specs_and_skews() {
    let cases = [
        (rm::rm1().scaled_to_bytes(1 << 20), 2, 0.7),
        (rm::rm1().scaled_to_bytes(1 << 20), 3, 1.2),
        (rm::rm2().scaled_to_bytes(1 << 20), 2, 1.2),
    ];
    for (mut spec, shards, skew) in cases {
        spec.mean_items_per_request = 6.0;
        spec.default_batch_size = 4;
        let inputs = skewed_inputs(&spec, 6, skew);
        let label = format!("{} shards={shards} skew={skew}", spec.name);

        // Ground truth: the unsharded model.
        let singular = build_model(&spec, SEED).expect("build");
        let baseline: Vec<Matrix> = inputs
            .iter()
            .map(|inp| {
                let mut ws = Workspace::new();
                inp.load_into(&spec, &mut ws);
                singular.run(&mut ws, &mut NoopObserver).expect("singular")
            })
            .collect();

        let p = hot_plan(&spec, shards, skew);
        assert!(p.has_hot_rows(), "{label}: no hot rows elected");

        // In-process clients (the `partition` default path).
        let dist = partition(build_model(&spec, SEED).expect("build"), &p).expect("partition");
        let (out, in_process) = run_all(&dist, &inputs);
        assert_eq!(out, baseline, "{label}: in-process diverged");

        // Threaded replica transport: the cache split happens before the
        // wire, so both transports report the same one.
        let (dist, pool) = threaded_cluster(&spec, &p, 2);
        assert!(dist.cache.is_some(), "{label}: hot plan installs a cache");
        let (out, threaded) = run_all(&dist, &inputs);
        assert_eq!(out, baseline, "{label}: threaded diverged");
        assert!(
            threaded.hits > 0,
            "{label}: Zipf traffic never hit the hot set: {threaded}"
        );
        assert_eq!(threaded, in_process, "{label}");
        pool.shutdown();
    }
}

// ---------------------------------------------------------------------
// Bit-exactness: TCP transport through the published v2 plan
// ---------------------------------------------------------------------

#[test]
fn tcp_cache_tier_round_trips_the_plan_and_stays_bit_exact() {
    let mut spec = rm::rm1().scaled_to_bytes(1 << 20);
    spec.mean_items_per_request = 6.0;
    spec.default_batch_size = 4;
    let skew = 1.2;
    let inputs = skewed_inputs(&spec, 6, skew);

    // The plan crosses the control plane as text; the server side must
    // reconstruct the identical placement, hot rows included.
    let p = hot_plan(&spec, 2, skew);
    let text = plan_to_text(&p);
    assert!(text.starts_with("dlrm-plan v2\n"), "hot plans publish as v2: {text}");
    let p = plan_from_text(&text).expect("plan round trip");
    assert_eq!(p, hot_plan(&spec, 2, skew), "round trip changed the plan");
    assert!(p.hot_row_count() > 0);

    let singular = build_model(&spec, SEED).expect("build");
    let baseline: Vec<Matrix> = inputs
        .iter()
        .map(|inp| {
            let mut ws = Workspace::new();
            inp.load_into(&spec, &mut ws);
            singular.run(&mut ws, &mut NoopObserver).expect("singular")
        })
        .collect();

    let (dist, pool) = TcpShardPool::assemble(&spec, &p, SEED, |services| {
        let (faults, health) = (FaultPlan::none(), HealthPolicy::default());
        TcpShardPool::spawn(services, 1, Duration::ZERO, &faults, health).map_err(|e| e.to_string())
    })
    .expect("assemble tcp cluster");
    assert!(dist.cache.is_some(), "hot plan installs a cache");

    let (out, cache) = run_all(&dist, &inputs);
    assert_eq!(out, baseline, "TCP cache tier diverged");

    let summary = pool.transport_summary();
    assert!(!summary.wire.is_zero(), "cold rows must still cross the wire");
    assert!(cache.hits > 0, "no cache hits under Zipf traffic");
    assert!(cache.local_rows > 0);
    pool.shutdown();
}

// ---------------------------------------------------------------------
// Hostile plan text
// ---------------------------------------------------------------------

/// Plan text reaches the `shard_server` binary over a socket, so no
/// input may panic the parser: every prefix of, and random byte edits
/// to, the documents published for RM1–RM3 plans (v1, and v2 with hot
/// rows) parse to `Ok` or `Err`.
#[test]
fn mangled_plan_text_never_panics() {
    const EDITS_PER_DOC: usize = 2_000;
    const ALPHABET: &[u8] = b" \n\t,#-0123456789abcdeghilmnoprstv";

    let mut docs = vec![
        // A shard count no allocation can hold.
        "dlrm-plan v1\nstrategy 1-shard\nshards 18446744073709551615\nplace 0 0\n".to_string(),
    ];
    for (spec, strategy) in [
        (rm::rm1(), ShardingStrategy::LoadBalanced(4)),
        (rm::rm2(), ShardingStrategy::CapacityBalanced(2)),
        (rm::rm3(), ShardingStrategy::NetSpecificBinPacking(8)),
    ] {
        let profile = PoolingProfile::from_spec(&spec);
        docs.push(plan_to_text(
            &plan(&spec, &profile, strategy).expect("plan"),
        ));
    }
    let spec = rm::rm1().scaled_to_bytes(32 << 20);
    let hot = plan_with_stats(
        &spec,
        &PoolingProfile::from_spec(&spec),
        ShardingStrategy::HotRowAware(2),
        &RowStats::for_spec(&spec, 1_000, 1.2, SEED),
        // A small cache keeps the document, and so every-prefix
        // parsing, short.
        &HotRowConfig {
            budget_fraction: 0.005,
            ..HotRowConfig::default()
        },
    )
    .expect("hot-row plan");
    docs.push(plan_to_text(&hot));
    assert!(docs.iter().any(|d| d.starts_with("dlrm-plan v1\n")));
    assert!(docs.last().expect("docs").starts_with("dlrm-plan v2\n"));

    let parse = |bytes: &[u8]| plan_from_text(&String::from_utf8_lossy(bytes));
    let mut rng = SimRng::seed_from(0x504C_414E); // "PLAN"
    for doc in &docs {
        let bytes = doc.as_bytes();
        for cut in 0..=bytes.len() {
            let _ = parse(&bytes[..cut]);
        }
        for _ in 0..EDITS_PER_DOC {
            let mut edited = bytes.to_vec();
            for _ in 0..1 + rng.next_index(4) {
                let at = rng.next_index(edited.len());
                edited[at] = if rng.next_index(2) == 0 {
                    ALPHABET[rng.next_index(ALPHABET.len())]
                } else {
                    rng.next_u64() as u8
                };
            }
            let _ = parse(&edited);
        }
    }
}

// ---------------------------------------------------------------------
// Fan-out reduction
// ---------------------------------------------------------------------

#[test]
fn hot_row_plan_sends_fewer_rows_over_the_wire_at_high_skew() {
    let mut spec = rm::rm1().scaled_to_bytes(1 << 20);
    spec.mean_items_per_request = 6.0;
    spec.default_batch_size = 4;
    let skew = 1.2;
    let inputs = skewed_inputs(&spec, 8, skew);

    // The same traffic through a capacity-only plan and the hot-row
    // plan, both over the threaded replica transport.
    let rows_sent = |p: &ShardingPlan| {
        let (dist, pool) = threaded_cluster(&spec, p, 1);
        let (out, cache) = run_all(&dist, &inputs);
        let summary = pool.transport_summary();
        pool.shutdown();
        (out, summary, cache)
    };

    let profile = PoolingProfile::from_spec(&spec);
    let capacity =
        plan(&spec, &profile, ShardingStrategy::CapacityBalanced(2)).expect("capacity plan");
    let (base_out, base, base_cache) = rows_sent(&capacity);
    let (hot_out, hot, hot_cache) = rows_sent(&hot_plan(&spec, 2, skew));

    assert_eq!(hot_out, base_out, "plans must agree bit for bit");
    assert!(base_cache.is_zero(), "capacity plan has no cache activity");
    // Everything is seeded, so the whole-bag hit rate is fixed; the band
    // admits planner tuning, and failing it means the hot set stopped
    // absorbing the skew (or started caching everything).
    let hit_rate = hot_cache.hit_rate();
    assert!(
        (0.20..=0.98).contains(&hit_rate),
        "whole-bag hit rate {hit_rate:.4} outside [0.20, 0.98] ({hot_cache})"
    );
    assert!(
        hot.rows_sent < base.rows_sent,
        "hot-row plan must shrink wire traffic: {} vs {}",
        hot.rows_sent,
        base.rows_sent
    );
    assert_eq!(
        hot.rows_sent + hot_cache.local_rows,
        base.rows_sent,
        "every looked-up row is either wired or cache-served"
    );
}
