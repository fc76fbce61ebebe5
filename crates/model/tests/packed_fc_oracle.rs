//! The prepacked FC path and the fused SLS gather against an
//! independent oracle.
//!
//! No golden predictions are pinned anywhere in the workspace, so
//! "the kernels changed no bit" needs a reference that does not run
//! them: a forward pass recomputed operator by operator in which every
//! `FullyConnected` is replaced by the naive `matmul_transb_reference`
//! on its `unpack()`ed weights plus bias, every `SparseLengthsSum` by
//! the per-row loop the fused gather replaced (zero the bag's row, then
//! `out += row` per lookup in index order), and every other operator
//! runs as is. `Model::run` must equal it bit for
//! bit on scaled RM1, RM2 and RM3 (all their real MLP widths and
//! embedding dims), at batch sizes that land on each row tile of the
//! GEMM kernels, under every exact kernel tier the host runs.

use dlrm_model::builder::blobs;
use dlrm_model::graph::{NoopObserver, SparseInput};
use dlrm_model::{build_model, rm, Blob, Model, ModelSpec, Pool, RuntimeCtx, Workspace};
use dlrm_runtime::KernelDispatch;
use dlrm_sim::SimRng;
use dlrm_tensor::Matrix;

/// One batch's named input blobs.
fn inputs(rng: &mut SimRng, spec: &ModelSpec, batch: usize) -> Vec<(String, Blob)> {
    let mut blobs_in = Vec::new();
    let dense: Vec<f32> = (0..batch * spec.dense_features)
        .map(|_| rng.next_range(-1.0, 1.0) as f32)
        .collect();
    blobs_in.push((
        blobs::DENSE_INPUT.to_string(),
        Blob::Dense(Matrix::from_vec(batch, spec.dense_features, dense)),
    ));
    for t in &spec.tables {
        let lengths: Vec<u32> = (0..batch).map(|_| 1 + rng.next_index(4) as u32).collect();
        let total: usize = lengths.iter().map(|&l| l as usize).sum();
        let indices: Vec<u64> = (0..total).map(|_| rng.next_u64_below(t.rows)).collect();
        blobs_in.push((blobs::sparse_input(t), Blob::Sparse(SparseInput { indices, lengths })));
    }
    blobs_in
}

/// A workspace holding `inputs` whose kernels run under `tier`.
fn load(tier: KernelDispatch, inputs: &[(String, Blob)]) -> Workspace {
    let mut ws = Workspace::with_ctx(RuntimeCtx::new(Pool::with_dispatch(1, tier)));
    for (name, blob) in inputs {
        ws.put(name.clone(), blob.clone());
    }
    ws
}

/// The forward pass with every FC and every SLS recomputed by its
/// naive reference.
fn oracle(model: &Model, ws: &mut Workspace) -> Matrix {
    for op in model.nets.iter().flat_map(|net| net.ops()) {
        if let Some(fc) = op.as_fully_connected() {
            let x = ws.dense(&op.inputs()[0], "oracle").expect("fc input");
            let mut y = x.matmul_transb_reference(&fc.weights().unpack());
            y.add_row_bias(fc.bias());
            ws.put(op.outputs().remove(0), Blob::Dense(y));
        } else if let Some(sls) = op.as_sparse_lengths_sum() {
            let s = ws.sparse(sls.input_blob(), "oracle").expect("sls input");
            let mut y = Matrix::zeros(s.lengths.len(), sls.table().dim());
            let mut cursor = 0usize;
            for (b, &len) in s.lengths.iter().enumerate() {
                for &idx in &s.indices[cursor..cursor + len as usize] {
                    for (o, &v) in y.row_mut(b).iter_mut().zip(sls.table().row(idx as usize)) {
                        *o += v;
                    }
                }
                cursor += len as usize;
            }
            ws.put(op.outputs().remove(0), Blob::Dense(y));
        } else {
            op.run(ws).expect("op outside the oracle");
        }
    }
    ws.take_dense(&model.output_blob, "oracle").expect("prediction")
}

/// Batches 1, 4 and 7 land on the `ymm` tiers' short, remainder and
/// full-plus-remainder tiles, and under the AVX-512 tier on the `ymm`
/// hand-off (1, 4) and the shortest `zmm` block (7); 30 is one full
/// 28-row `zmm` tile plus a two-row one. The tier is forced through the workspace's pool, not the
/// environment.
#[test]
fn model_run_equals_reference_forward_pass_bitwise() {
    let tiers = KernelDispatch::exact_tiers();
    for spec in [rm::rm1(), rm::rm2(), rm::rm3()] {
        let spec = spec.scaled_to_bytes(2 << 20);
        let model = build_model(&spec, 37).expect("build model");
        let mut rng = SimRng::seed_from(0x9AC4ED);
        for batch in [1, 4, 7, 30] {
            let inputs = inputs(&mut rng, &spec, batch);
            let expect = oracle(&model, &mut load(KernelDispatch::scalar(), &inputs));
            for &tier in &tiers {
                let got = model.run(&mut load(tier, &inputs), &mut NoopObserver).expect("run");
                assert_eq!(got, expect, "{} at batch {batch} on {}", spec.name, tier.level());
            }
        }
    }
}

/// The packed layout replaced the row-major weights; it is not kept
/// beside them: each layer holds `out × in × 4` bytes plus under one
/// cache line of alignment slack.
#[test]
fn fully_connected_holds_one_copy_of_its_weights() {
    let model = build_model(&rm::rm3().scaled_to_bytes(2 << 20), 37).expect("build model");
    let mut layers = 0;
    for fc in model.nets.iter().flat_map(|net| net.ops()).filter_map(|op| op.as_fully_connected()) {
        let exact = fc.weights().rows() * fc.weights().cols() * 4;
        assert_eq!(fc.weights().rows(), fc.out_dim());
        assert!(
            (exact..exact + 64).contains(&fc.weights().bytes()),
            "{} x {} layer holds {} bytes",
            fc.weights().rows(),
            fc.weights().cols(),
            fc.weights().bytes()
        );
        layers += 1;
    }
    assert!(layers > 0, "the model has FC layers to check");
}
