//! Cache smoke test: the hot-row cache tier end to end, gated in
//! `scripts/verify.sh`.
//!
//! One seeded configuration (RM1, Zipf-1.2 traffic, 2 shards), three
//! gates:
//!
//! 1. **Bit-exactness** — the `HotRowAware` plan with its cache tier
//!    produces predictions bit-identical to a capacity-only plan on the
//!    same traffic. The cache changes where rows are served from, never
//!    what any request computes.
//! 2. **Hit-rate band** — the profiled hot set must actually absorb
//!    the skewed traffic: whole-bag hit rate inside a pinned band.
//!    Everything is seeded (statistics sampling, planning, index
//!    draws), so drift here means a planner or sampling regression,
//!    not noise.
//! 3. **Fan-out reduction** — rows sent over the replica transport
//!    must shrink versus the capacity-only plan, and the conservation
//!    identity `wired + cache-served == capacity-plan wired` must hold
//!    exactly.

use dlrm_bench::harness::{fail, replicated_cluster, smoke_spec};
use dlrm_core::model::graph::NoopObserver;
use dlrm_core::model::{rm, ModelSpec, Workspace};
use dlrm_core::serving::fault::FaultPlan;
use dlrm_core::sharding::{
    plan, plan_with_stats, HotRowConfig, ShardingPlan, ShardingStrategy,
};
use dlrm_core::tensor::Matrix;
use dlrm_core::workload::{
    materialize_request_with, BatchInputs, IndexDist, PoolingProfile, RowStats, TraceDb,
};
use std::time::Duration;

const SEED: u64 = 61;
const SHARDS: usize = 2;
const REQUESTS: usize = 24;
const SKEW: f64 = 1.2;
/// Whole-bag hit-rate band for the pinned configuration. The run is
/// fully deterministic; the band absorbs intentional planner tuning,
/// not randomness.
const HIT_RATE_FLOOR: f64 = 0.20;
const HIT_RATE_CEIL: f64 = 0.98;

fn spec() -> ModelSpec {
    smoke_spec(rm::rm1(), 1 << 20, 6.0, 4)
}

fn skewed_inputs(spec: &ModelSpec) -> Vec<BatchInputs> {
    let db = TraceDb::generate(spec, REQUESTS, SEED ^ 2);
    (0..REQUESTS)
        .flat_map(|i| materialize_request_with(spec, db.get(i), 8, SEED ^ 3, IndexDist::Zipf(SKEW)))
        .collect()
}

/// Runs every input through a replicated-transport deployment of
/// `plan`, returning predictions and the pool's transport summary.
fn run_plan(
    spec: &ModelSpec,
    p: &ShardingPlan,
    inputs: &[BatchInputs],
) -> (Vec<Matrix>, dlrm_core::serving::replica::TransportSummary) {
    let (dist, pool) = replicated_cluster(spec, p, SEED, 1, Duration::ZERO, &FaultPlan::none());
    let out = inputs
        .iter()
        .map(|inp| {
            let mut ws = Workspace::new();
            inp.load_into(&dist.spec, &mut ws);
            dist.run_overlapped(&mut ws, &mut NoopObserver)
                .expect("request")
        })
        .collect();
    let summary = pool.transport_summary();
    pool.shutdown();
    (out, summary)
}

fn main() {
    let spec = spec();
    let inputs = skewed_inputs(&spec);
    let profile = PoolingProfile::from_spec(&spec);

    let capacity =
        plan(&spec, &profile, ShardingStrategy::CapacityBalanced(SHARDS)).expect("capacity plan");
    let stats = RowStats::for_spec(&spec, 4_000, SKEW, SEED);
    let hot = plan_with_stats(
        &spec,
        &profile,
        ShardingStrategy::HotRowAware(SHARDS),
        &stats,
        &HotRowConfig {
            coverage: 0.95,
            budget_fraction: 0.5,
        },
    )
    .expect("hot-row plan");
    if !hot.has_hot_rows() {
        fail("HotRowAware plan elected no hot rows");
    }

    println!(
        "==== cache smoke: {} requests, Zipf({SKEW}), {SHARDS} shards, {} hot rows ====",
        inputs.len(),
        hot.hot_row_count()
    );

    let (base_out, base) = run_plan(&spec, &capacity, &inputs);
    let (hot_out, hotsum) = run_plan(&spec, &hot, &inputs);

    // ---- Gate 1: bit-exactness vs the capacity-only plan. ----
    if hot_out != base_out {
        fail("cache-tier predictions diverged from the capacity-only plan");
    }
    println!("bit-exact: {} predictions match the capacity-only plan", hot_out.len());

    // ---- Gate 2: pinned hit-rate band. ----
    let totals = hotsum.cache;
    if totals.hits + totals.misses == 0 {
        fail("cache tier saw no routed bags");
    }
    let hit_rate = totals.hit_rate();
    println!("cache: {totals}");
    if !(HIT_RATE_FLOOR..=HIT_RATE_CEIL).contains(&hit_rate) {
        fail(&format!(
            "whole-bag hit rate {hit_rate:.4} outside the pinned band [{HIT_RATE_FLOOR}, {HIT_RATE_CEIL}]"
        ));
    }

    // ---- Gate 3: fan-out reduction + exact row conservation. ----
    if !base.cache.is_zero() {
        fail("capacity-only plan must not touch a cache");
    }
    println!(
        "rows over wire: capacity-only {} | hot-row-aware {} ({} cache-served)",
        base.rows_sent, hotsum.rows_sent, totals.local_rows
    );
    if hotsum.rows_sent >= base.rows_sent {
        fail(&format!(
            "hot-row plan sent {} rows, capacity-only sent {} — no fan-out reduction",
            hotsum.rows_sent, base.rows_sent
        ));
    }
    if hotsum.rows_sent + totals.local_rows != base.rows_sent {
        fail(&format!(
            "row conservation violated: {} wired + {} cached != {} total",
            hotsum.rows_sent, totals.local_rows, base.rows_sent
        ));
    }

    println!(
        "\nOK: bit-exact, hit rate {hit_rate:.4} in band, wire rows {} -> {} ({:.1}% reduction)",
        base.rows_sent,
        hotsum.rows_sent,
        100.0 * (base.rows_sent - hotsum.rows_sent) as f64 / base.rows_sent as f64
    );
}
