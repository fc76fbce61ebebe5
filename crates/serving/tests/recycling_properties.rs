//! Recycled buffers never change an answer and never stop being
//! recycled.
//!
//! A serving worker reuses one workspace and one runtime context across
//! batches: dense stores, index and length vectors and the shards'
//! pooled outputs all come back from the batch before. Debug builds
//! fill every store the pools hand out without a zero fill with NaN
//! ([`BufferPool::acquire_unzeroed`]), so a kernel that reads an element
//! it did not write turns a prediction into NaN here. Across random
//! specs and shardings — a row-split table whose input feeds two RPC
//! operators included — worker-style runs stay bit-identical to the
//! singular model's sequential `NetDef::run`; and the context's `f32`
//! pool reaches a steady state even when a batch carries more pooled
//! outputs than the pool's old fixed cap of 64.

use dlrm_model::builder::blobs;
use dlrm_model::graph::NoopObserver;
use dlrm_model::{
    build_model, BufferPool, Model, ModelSpec, NetId, NetSpec, RuntimeCtx, TableId, TableSpec,
    Workspace,
};
use dlrm_serving::fault::FaultPlan;
use dlrm_serving::replica::{HealthPolicy, ReplicatedShardPool};
use dlrm_sharding::{
    partition, plan, DistributedModel, Location, ShardId, ShardingPlan, ShardingStrategy,
    TablePlacement,
};
use dlrm_sim::SimRng;
use dlrm_tensor::Matrix;
use dlrm_workload::{materialize_request, BatchInputs, PoolingProfile, TraceDb};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// A small but structurally varied spec (the `overlap_properties`
/// family): 1–2 nets, 2–4 tables per net, 1–2 MLP layers per stack.
fn random_spec(rng: &mut SimRng, case: usize) -> ModelSpec {
    let num_nets = 1 + rng.next_index(2);
    let random_mlp = |rng: &mut SimRng| -> Vec<usize> {
        (0..1 + rng.next_index(2))
            .map(|_| 2 + rng.next_index(8))
            .collect()
    };
    let nets: Vec<NetSpec> = (0..num_nets)
        .map(|i| NetSpec {
            id: NetId(i),
            name: format!("net{i}"),
            bottom_mlp: random_mlp(rng),
            top_mlp: random_mlp(rng),
            takes_prev_output: i > 0,
        })
        .collect();
    let mut tables = Vec::new();
    for i in 0..num_nets {
        for _ in 0..2 + rng.next_index(3) {
            let id = TableId(tables.len());
            tables.push(TableSpec {
                id,
                name: format!("t{}", id.0),
                rows: 16 + rng.next_u64_below(64),
                dim: 2 + rng.next_u64_below(6) as u32,
                net: NetId(i),
                pooling_factor: 2.0 + rng.next_f64() * 6.0,
            });
        }
    }
    ModelSpec {
        name: format!("recycle{case}"),
        dense_features: 3 + rng.next_index(6),
        tables,
        nets,
        default_batch_size: 1 + rng.next_index(6),
        mean_items_per_request: 6.0,
    }
}

/// Table 0 row-split over shards 0 and 1 (`parts = 2`: two RPC
/// operators read its input), every other table whole on one of them.
fn row_split_plan(spec: &ModelSpec) -> ShardingPlan {
    let placements = spec
        .tables
        .iter()
        .map(|t| TablePlacement {
            table: t.id,
            location: Location::Shards(if t.id.0 == 0 {
                vec![ShardId(0), ShardId(1)]
            } else {
                vec![ShardId(t.id.0 % 2)]
            }),
        })
        .collect();
    ShardingPlan::new(ShardingStrategy::CapacityBalanced(2), 2, placements)
}

/// `p` over one fault-free worker thread per shard.
fn threaded(
    spec: &ModelSpec,
    p: &ShardingPlan,
    seed: u64,
) -> (DistributedModel, ReplicatedShardPool) {
    ReplicatedShardPool::assemble(spec, p, seed, |services| {
        Ok(ReplicatedShardPool::spawn(
            services,
            1,
            Duration::ZERO,
            &FaultPlan::none(),
            HealthPolicy::default(),
        ))
    })
    .expect("threaded pool")
}

/// Runs `batches` the way a serving worker does: one context and one
/// workspace for the whole loop, consumer counts installed, the
/// prediction's store handed back and every blob recycled after each
/// batch.
fn worker_predictions(dist: &DistributedModel, batches: &[&BatchInputs]) -> Vec<Matrix> {
    let ctx = RuntimeCtx::sequential();
    let counts = Arc::new(dist.consumer_counts());
    let mut ws = Workspace::with_ctx(ctx.clone());
    batches
        .iter()
        .map(|batch| {
            ws.set_consumer_counts(Arc::clone(&counts));
            (*batch).clone().load_owned(&dist.spec, &mut ws);
            let out = dist
                .run_overlapped(&mut ws, &mut NoopObserver)
                .expect("overlapped run");
            let kept = out.clone();
            ctx.buffers.release(out.into_vec());
            ws.recycle_all();
            kept
        })
        .collect()
}

/// The singular model's strictly sequential answer, on a fresh
/// workspace.
fn reference(model: &Model, batch: &BatchInputs) -> Matrix {
    let mut ws = Workspace::new();
    batch.load_into(&model.spec, &mut ws);
    model
        .run(&mut ws, &mut NoopObserver)
        .expect("sequential run")
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn recycled_stores_stay_bit_exact_under_nan_poison() {
    // The poison is live: a recycled store handed out unzeroed reads NaN.
    let probe: BufferPool = BufferPool::new();
    probe.release(probe.acquire(4));
    assert_eq!(
        probe.acquire_unzeroed(4).iter().all(|v| v.is_nan()),
        cfg!(debug_assertions),
        "debug builds poison unzeroed stores"
    );

    let mut rng = SimRng::seed_from(0x0ec7_c1e5).fork(3);
    for case in 0..24 {
        let spec = random_spec(&mut rng, case);
        let seed = rng.next_u64();
        let model = build_model(&spec, seed).expect("build");
        let db = TraceDb::generate(&spec, 4, seed ^ 1);
        let inputs: Vec<BatchInputs> = (0..db.len())
            .flat_map(|r| materialize_request(&spec, db.get(r), spec.default_batch_size, seed ^ 2))
            .collect();
        // Every input twice, in two orders: stores recycle between
        // batches of different shapes.
        let batches: Vec<&BatchInputs> = inputs.iter().chain(inputs.iter().rev()).collect();
        let expected: Vec<Vec<u32>> = batches
            .iter()
            .map(|b| bits(&reference(&model, b)))
            .collect();

        let strategy = match case % 3 {
            0 => ShardingStrategy::CapacityBalanced(2),
            1 => ShardingStrategy::LoadBalanced(3),
            _ => ShardingStrategy::NetSpecificBinPacking(2),
        };
        let profile = PoolingProfile::from_spec(&spec);
        let mut plans = vec![("row-split", row_split_plan(&spec))];
        if let Ok(p) = plan(&spec, &profile, strategy) {
            plans.push(("planned", p));
        }
        for (name, p) in &plans {
            let in_process =
                partition(build_model(&spec, seed).expect("build"), p).expect("partition");
            if *name == "row-split" {
                let counts: HashMap<String, usize> = in_process.consumer_counts();
                assert_eq!(
                    counts[&blobs::sparse_input(&spec.tables[0])],
                    2,
                    "case {case}: both parts' operators read the row-split input"
                );
            }
            let (over_threads, pool) = threaded(&spec, p, seed);
            for (transport, dist) in [("in-process", &in_process), ("threaded", &over_threads)] {
                let got: Vec<Vec<u32>> = worker_predictions(dist, &batches)
                    .iter()
                    .map(bits)
                    .collect();
                assert_eq!(got, expected, "case {case}, {name} plan, {transport}");
            }
            pool.shutdown();
        }
    }
}

/// 35 tables in each of two nets: 70 pooled outputs per batch, more
/// than the 64 stores the pool used to keep.
fn wide_spec() -> ModelSpec {
    let nets = (0..2)
        .map(|i| NetSpec {
            id: NetId(i),
            name: format!("net{i}"),
            bottom_mlp: vec![16, 8],
            top_mlp: vec![32, 1],
            takes_prev_output: i > 0,
        })
        .collect();
    let tables = (0..70)
        .map(|t| TableSpec {
            id: TableId(t),
            name: format!("t{t}"),
            rows: 128,
            dim: 4 + (t % 3) as u32 * 4,
            net: NetId(t % 2),
            pooling_factor: 2.0 + (t % 4) as f64,
        })
        .collect();
    ModelSpec {
        name: "wide".into(),
        dense_features: 13,
        tables,
        nets,
        default_batch_size: 64,
        mean_items_per_request: 8.0,
    }
}

#[test]
fn buffer_pool_reaches_a_steady_state_with_more_than_64_pooled_outputs() {
    const WARM: usize = 16;
    const BATCHES: usize = 80;
    let spec = wide_spec();
    let p = plan(
        &spec,
        &PoolingProfile::from_spec(&spec),
        ShardingStrategy::CapacityBalanced(2),
    )
    .expect("plan");
    let dist = partition(build_model(&spec, 9).expect("build"), &p).expect("partition");
    let db = TraceDb::generate(&spec, 8, 9);
    let requests: Vec<BatchInputs> = (0..db.len())
        .map(|r| {
            materialize_request(&spec, db.get(r), usize::MAX, 11)
                .into_iter()
                .next()
                .expect("one batch")
        })
        .collect();
    let rows: Vec<usize> = requests.iter().map(BatchInputs::batch_size).collect();
    assert!(
        rows.iter().any(|&r| r != rows[0]),
        "batch row counts vary: {rows:?}"
    );

    // The sysbench engine loop's shape: one context, a workspace per
    // batch, the prediction handed back, everything recycled.
    let ctx = RuntimeCtx::sequential();
    let counts = Arc::new(dist.consumer_counts());
    let mut after_warm = 0;
    for i in 0..BATCHES {
        if i == WARM {
            after_warm = ctx.buffers.fresh_allocs();
        }
        let mut ws = Workspace::with_ctx(ctx.clone());
        ws.set_consumer_counts(Arc::clone(&counts));
        requests[i % requests.len()].load_into(&spec, &mut ws);
        let out = dist
            .run_overlapped(&mut ws, &mut NoopObserver)
            .expect("run");
        ctx.buffers.release(out.into_vec());
        ws.recycle_all();
    }
    let grew = ctx.buffers.fresh_allocs() - after_warm;
    println!(
        "fresh f32 stores: {after_warm} in {WARM} warm-up batches, {grew} in the next {}",
        BATCHES - WARM
    );
    assert_eq!(
        grew, 0,
        "steady-state batches allocated {grew} fresh f32 stores"
    );
}
