//! End-to-end properties of the intra-op runtime at the model level:
//! predictions are bit-exact for any worker count (DESIGN §3.3's
//! determinism contract), consumer-count moves never change results,
//! and steady-state requests stop allocating f32 backing stores once
//! the shared buffer pool is warm.

use dlrm_model::builder::blobs;
use dlrm_model::graph::{NoopObserver, SparseInput};
use dlrm_model::{
    build_model, Blob, EmbeddingTable, Model, ModelSpec, NetId, NetSpec, Pool, RuntimeCtx,
    TableId, TableSpec, Workspace,
};
use dlrm_runtime::KernelDispatch;
use dlrm_sim::SimRng;
use dlrm_tensor::Matrix;
use std::collections::HashMap;
use std::sync::Arc;

/// A compact single-net spec whose FC layers and SLS bags are large
/// enough (at `batch` items) to clear the kernels' parallel-grain
/// thresholds, so multi-worker pools genuinely fork.
fn spec(n_tables: usize) -> ModelSpec {
    let tables: Vec<TableSpec> = (0..n_tables)
        .map(|i| TableSpec {
            id: TableId(i),
            name: format!("tbl_{i}"),
            rows: 200,
            dim: 16,
            net: NetId(0),
            pooling_factor: 10.0,
        })
        .collect();
    let s = ModelSpec {
        name: "runtime-prop".into(),
        dense_features: 64,
        tables,
        nets: vec![NetSpec {
            id: NetId(0),
            name: "main".into(),
            bottom_mlp: vec![128, 64],
            top_mlp: vec![128, 64, 1],
            takes_prev_output: false,
        }],
        default_batch_size: 256,
        mean_items_per_request: 256.0,
    };
    s.validate().expect("spec is well-formed");
    s
}

/// Deterministic request inputs: a dense feature matrix plus one
/// sparse bag set per table (8–15 lookups per item, so a 256-item
/// batch crosses the SLS parallel threshold of 2048 lookups).
fn inputs(rng: &mut SimRng, spec: &ModelSpec, batch: usize) -> (Matrix, Vec<SparseInput>) {
    let dense_data: Vec<f32> = (0..batch * spec.dense_features)
        .map(|_| rng.next_range(-1.0, 1.0) as f32)
        .collect();
    let dense = Matrix::from_vec(batch, spec.dense_features, dense_data);
    let sparse = spec
        .tables
        .iter()
        .map(|t| {
            let lengths: Vec<u32> = (0..batch).map(|_| 8 + rng.next_index(8) as u32).collect();
            let total: usize = lengths.iter().map(|&l| l as usize).sum();
            let indices: Vec<u64> = (0..total).map(|_| rng.next_u64_below(t.rows)).collect();
            SparseInput { indices, lengths }
        })
        .collect();
    (dense, sparse)
}

fn load(ws: &mut Workspace, spec: &ModelSpec, dense: &Matrix, sparse: &[SparseInput]) {
    ws.put(blobs::DENSE_INPUT, Blob::Dense(dense.clone()));
    for (t, s) in spec.tables.iter().zip(sparse) {
        ws.put(blobs::sparse_input(t), Blob::Sparse(s.clone()));
    }
}

/// One request on a given context, overlapped executor.
fn run_once(
    model: &Model,
    ctx: &RuntimeCtx,
    counts: Option<&Arc<HashMap<String, usize>>>,
    dense: &Matrix,
    sparse: &[SparseInput],
) -> Matrix {
    let mut ws = Workspace::with_ctx(ctx.clone());
    if let Some(c) = counts {
        ws.set_consumer_counts(Arc::clone(c));
    }
    load(&mut ws, &model.spec, dense, sparse);
    let pred = model.run_overlapped(&mut ws, &mut NoopObserver).expect("run");
    ws.recycle_all();
    pred
}

#[test]
fn predictions_bit_exact_across_worker_counts() {
    let spec = spec(6);
    let model = build_model(&spec, 17).expect("build");
    let mut rng = SimRng::seed_from(0x52_55_4E).fork(1);
    let (dense, sparse) = inputs(&mut rng, &spec, 256);

    // Oracle: the plain sequential executor, no runtime context at all.
    let mut ws = Workspace::new();
    load(&mut ws, &spec, &dense, &sparse);
    let oracle = model.run(&mut ws, &mut NoopObserver).expect("oracle run");
    assert_eq!(oracle.rows(), 256);

    for workers in [1, 2, 4, 8] {
        let ctx = RuntimeCtx::new(Pool::new(workers));
        let pred = run_once(&model, &ctx, None, &dense, &sparse);
        assert_eq!(pred, oracle, "{workers} workers vs sequential oracle");
    }
}

/// The fused gather keeps one accumulator per output element, started
/// at +0.0 and fed the bag's rows in index order, so both tiers must
/// equal the per-row `out += row` loop bitwise — across ragged
/// embedding dims (below 8, not multiples of 8, past one 128-float
/// block), empty bags, and every worker count. Tiers the host lacks are
/// skipped; under the AVX-512 level the gather runs its AVX2 body.
#[test]
fn sls_simd_matches_scalar_bitwise_with_empty_bags_and_ragged_dims() {
    let tiers = KernelDispatch::exact_tiers();
    let mut rng = SimRng::seed_from(0x52_55_4E).fork(4);
    for dim in [1u32, 3, 8, 13, 16, 27, 64, 129, 200] {
        let table = EmbeddingTable::seeded("simd-sls", 500, dim, 7 + u64::from(dim));
        // 300 bags averaging ~10 lookups clears the 2048-lookup parallel
        // threshold; every 5th bag is empty (absent-feature semantics).
        let lengths: Vec<u32> = (0..300)
            .map(|b| if b % 5 == 0 { 0 } else { 8 + rng.next_index(8) as u32 })
            .collect();
        let total: usize = lengths.iter().map(|&l| l as usize).sum();
        let indices: Vec<u64> = (0..total).map(|_| rng.next_u64_below(500)).collect();
        let mut oracle = Matrix::zeros(lengths.len(), dim as usize);
        let mut cursor = 0usize;
        for (b, &len) in lengths.iter().enumerate() {
            for &idx in &indices[cursor..cursor + len as usize] {
                for (o, &v) in oracle.row_mut(b).iter_mut().zip(table.row(idx as usize)) {
                    *o += v;
                }
            }
            cursor += len as usize;
        }
        for &tier in &tiers {
            for workers in [1, 2, 4, 8] {
                let pool = Pool::with_dispatch(workers, tier);
                let got = table.sparse_lengths_sum_par(&indices, &lengths, &pool);
                assert_eq!(got, oracle, "dim {dim} on {} at {workers} workers", tier.level());
            }
        }
    }
}

/// Whole-model predictions are bitwise identical under every exact
/// dispatch tier the host runs, forced through the context's pool:
/// every kernel the graph touches (GEMM, transb GEMM, SLS) is exact by
/// construction. 128 rows over 2 workers are two full 28-row `zmm`
/// tiles and an 8-row one per worker.
#[test]
fn predictions_bit_exact_across_dispatch_tiers() {
    let spec = spec(4);
    let model = build_model(&spec, 41).expect("build");
    let mut rng = SimRng::seed_from(0x52_55_4E).fork(5);
    let (dense, sparse) = inputs(&mut rng, &spec, 128);
    let predict = |tier| {
        let ctx = RuntimeCtx::new(Pool::with_dispatch(2, tier));
        run_once(&model, &ctx, None, &dense, &sparse)
    };
    let scalar_pred = predict(KernelDispatch::scalar());
    for tier in KernelDispatch::exact_tiers().into_iter().skip(1) {
        assert_eq!(predict(tier), scalar_pred, "{} vs scalar", tier.level());
    }
}

#[test]
fn consumer_count_moves_do_not_change_predictions() {
    let spec = spec(4);
    let model = build_model(&spec, 23).expect("build");
    let counts = Arc::new(model.consumer_counts());
    let mut rng = SimRng::seed_from(0x52_55_4E).fork(2);
    for case in 0..4 {
        let (dense, sparse) = inputs(&mut rng, &spec, 32);
        let ctx = RuntimeCtx::sequential();
        let cloned = run_once(&model, &ctx, None, &dense, &sparse);
        let moved = run_once(&model, &ctx, Some(&counts), &dense, &sparse);
        assert_eq!(moved, cloned, "case {case}");
    }
}

#[test]
fn steady_state_requests_allocate_no_fresh_stores() {
    let spec = spec(4);
    let model = build_model(&spec, 31).expect("build");
    let counts = Arc::new(model.consumer_counts());
    let ctx = RuntimeCtx::sequential();
    let mut rng = SimRng::seed_from(0x52_55_4E).fork(3);
    let (dense, sparse) = inputs(&mut rng, &spec, 64);

    let serve = || {
        let pred = run_once(&model, &ctx, Some(&counts), &dense, &sparse);
        // The caller is done with the prediction: hand its store back,
        // as the serving workers do.
        ctx.buffers.release(pred.into_vec());
    };

    // Warm the pool: the first requests populate it with every dense
    // store the graph needs.
    for _ in 0..3 {
        serve();
    }
    let fresh_after_warmup = ctx.buffers.fresh_allocs();
    let reuses_after_warmup = ctx.buffers.reuses();

    for _ in 0..5 {
        serve();
    }
    assert_eq!(
        ctx.buffers.fresh_allocs(),
        fresh_after_warmup,
        "steady-state requests must not allocate fresh f32 stores"
    );
    assert!(
        ctx.buffers.reuses() > reuses_after_warmup,
        "steady-state requests must be served from the buffer pool"
    );
}
