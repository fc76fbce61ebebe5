//! Concrete graph operators: the DLRM operator vocabulary.

use crate::builder::Draw;
use crate::graph::{Blob, GraphError, Operator, Workspace};
use crate::spec::OpGroup;
use crate::EmbeddingTable;
use dlrm_runtime::KernelDispatch;
use dlrm_tensor::{
    concat_cols_into, matmul_packed_into, relu_inplace, sigmoid_inplace, Matrix, PackedWeights,
};
use std::sync::Arc;

/// Fully-connected layer: `Y = X · Wᵀ + b`.
///
/// Weights are logically one output neuron per row (`out × in`),
/// matching Caffe2's `FC` operator layout, and held **only** in the
/// GEMM kernels' panel-major packing: they never change, so they are
/// packed once here and [`Operator::run`] never packs. Weights and bias
/// sit behind `Arc`, so a clone of the layer shares them.
#[derive(Debug, Clone)]
pub struct FullyConnected {
    name: String,
    input: String,
    output: String,
    weights: Arc<PackedWeights>,
    bias: Arc<[f32]>,
}

impl FullyConnected {
    /// Creates an FC layer with explicit parameters (`weights` is
    /// row-major `out × in`; it is packed and dropped).
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != weights.rows()`.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        input: impl Into<String>,
        output: impl Into<String>,
        weights: Matrix,
        bias: Vec<f32>,
    ) -> Self {
        let params = FcParams { weights: PackedWeights::pack(&weights), bias };
        Self::with_params(name, input, output, params)
    }

    /// Wires `params` into a layer reading `input` and writing `output`.
    pub(crate) fn with_params(
        name: impl Into<String>,
        input: impl Into<String>,
        output: impl Into<String>,
        params: FcParams,
    ) -> Self {
        assert_eq!(
            params.bias.len(),
            params.weights.rows(),
            "bias length must equal output width"
        );
        Self {
            name: name.into(),
            input: input.into(),
            output: output.into(),
            weights: Arc::new(params.weights),
            bias: params.bias.into(),
        }
    }

    /// Creates an FC layer with reproducible random parameters, uniform
    /// in `±1/sqrt(in_dim)` (keeps activations bounded through deep
    /// stacks): weight `(r, c)` is element `r·in_dim + c` of the uniform
    /// stream `seed` ([`dlrm_tensor::simd::fill_uniform`]) times
    /// `2/sqrt(in_dim)`, drawn straight into the packed panels, and bias
    /// `j` is element `out_dim·in_dim + j` times 0.1. One thread draws
    /// them here; the model builder draws the same panels on every core.
    #[must_use]
    pub fn seeded(
        name: impl Into<String>,
        input: impl Into<String>,
        output: impl Into<String>,
        in_dim: usize,
        out_dim: usize,
        seed: u64,
    ) -> Self {
        let mut params = FcParams::zeroed(in_dim, out_dim);
        let level = KernelDispatch::detect().level();
        params.draws(seed).for_each(|draw| draw.run(level));
        Self::with_params(name, input, output, params)
    }

    /// Output width (number of neurons).
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.weights.rows()
    }

    /// The packed weights (`out × in`).
    #[must_use]
    pub fn weights(&self) -> &Arc<PackedWeights> {
        &self.weights
    }

    /// The per-neuron bias.
    #[must_use]
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }
}

impl Operator for FullyConnected {
    fn as_fully_connected(&self) -> Option<&FullyConnected> {
        Some(self)
    }

    fn name(&self) -> &str {
        &self.name
    }
    fn group(&self) -> OpGroup {
        OpGroup::Fc
    }
    fn inputs(&self) -> Vec<String> {
        vec![self.input.clone()]
    }
    fn outputs(&self) -> Vec<String> {
        vec![self.output.clone()]
    }
    fn run(&self, ws: &mut Workspace) -> Result<(), GraphError> {
        let x = ws.dense(&self.input, &self.name)?;
        if x.cols() != self.weights.cols() {
            return Err(GraphError::OpFailed {
                op: self.name.clone(),
                message: format!(
                    "input width {} != weight width {}",
                    x.cols(),
                    self.weights.cols()
                ),
            });
        }
        let mut y = ws.alloc_dense(x.rows(), self.weights.rows());
        matmul_packed_into(x, &self.weights, &mut y, ws.pool());
        y.add_row_bias(&self.bias);
        ws.put(self.output.as_str(), Blob::Dense(y));
        Ok(())
    }
}

/// An FC layer's parameters before a graph wires them in: `out × in`
/// weights in packed order and the bias, zero until [`Self::draws`]
/// fills them.
#[derive(Debug)]
pub(crate) struct FcParams {
    weights: PackedWeights,
    bias: Vec<f32>,
}

impl FcParams {
    /// An `in_dim → out_dim` layer of zeros.
    pub(crate) fn zeroed(in_dim: usize, out_dim: usize) -> Self {
        Self { weights: PackedWeights::zeroed(out_dim, in_dim), bias: vec![0.0; out_dim] }
    }

    /// The draws that give these parameters [`FullyConnected::seeded`]'s
    /// values from stream `seed`: one per weight panel, then the bias.
    pub(crate) fn draws(&mut self, seed: u64) -> impl Iterator<Item = Draw<'_>> {
        let (k, n) = (self.weights.cols(), self.weights.rows());
        let scale = 2.0 / (k.max(1) as f32).sqrt();
        let panels = self.weights.panels_mut().map(move |(j, width, out)| Draw {
            key: seed,
            first: (j * k) as u64,
            width,
            scale,
            out,
        });
        let bias = &mut self.bias;
        let bias = Draw { key: seed, first: (n * k) as u64, width: 1, scale: 0.1, out: bias };
        panels.chain(std::iter::once(bias))
    }
}

/// Element-wise ReLU.
#[derive(Debug, Clone)]
pub struct Relu {
    name: String,
    input: String,
    output: String,
}

impl Relu {
    /// Creates a ReLU operator.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        input: impl Into<String>,
        output: impl Into<String>,
    ) -> Self {
        Self {
            name: name.into(),
            input: input.into(),
            output: output.into(),
        }
    }
}

impl Operator for Relu {
    fn name(&self) -> &str {
        &self.name
    }
    fn group(&self) -> OpGroup {
        OpGroup::Activation
    }
    fn inputs(&self) -> Vec<String> {
        vec![self.input.clone()]
    }
    fn outputs(&self) -> Vec<String> {
        vec![self.output.clone()]
    }
    fn run(&self, ws: &mut Workspace) -> Result<(), GraphError> {
        let mut m = ws.take_dense(&self.input, &self.name)?;
        relu_inplace(&mut m);
        ws.put(self.output.as_str(), Blob::Dense(m));
        Ok(())
    }
}

/// Element-wise logistic sigmoid (the final ranking probability).
#[derive(Debug, Clone)]
pub struct Sigmoid {
    name: String,
    input: String,
    output: String,
}

impl Sigmoid {
    /// Creates a sigmoid operator.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        input: impl Into<String>,
        output: impl Into<String>,
    ) -> Self {
        Self {
            name: name.into(),
            input: input.into(),
            output: output.into(),
        }
    }
}

impl Operator for Sigmoid {
    fn name(&self) -> &str {
        &self.name
    }
    fn group(&self) -> OpGroup {
        OpGroup::Activation
    }
    fn inputs(&self) -> Vec<String> {
        vec![self.input.clone()]
    }
    fn outputs(&self) -> Vec<String> {
        vec![self.output.clone()]
    }
    fn run(&self, ws: &mut Workspace) -> Result<(), GraphError> {
        let mut m = ws.take_dense(&self.input, &self.name)?;
        sigmoid_inplace(&mut m);
        ws.put(self.output.as_str(), Blob::Dense(m));
        Ok(())
    }
}

/// Feature-interaction assembly: concatenates dense blobs column-wise
/// (pooled embeddings + bottom-MLP output [+ previous net's output]).
#[derive(Debug, Clone)]
pub struct Concat {
    name: String,
    inputs: Vec<String>,
    output: String,
}

impl Concat {
    /// Creates a concat operator.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        inputs: Vec<String>,
        output: impl Into<String>,
    ) -> Self {
        assert!(!inputs.is_empty(), "concat needs at least one input");
        Self {
            name: name.into(),
            inputs,
            output: output.into(),
        }
    }
}

impl Operator for Concat {
    fn name(&self) -> &str {
        &self.name
    }
    fn group(&self) -> OpGroup {
        OpGroup::TensorTransform
    }
    fn inputs(&self) -> Vec<String> {
        self.inputs.clone()
    }
    fn outputs(&self) -> Vec<String> {
        vec![self.output.clone()]
    }
    fn run(&self, ws: &mut Workspace) -> Result<(), GraphError> {
        let mut parts = Vec::with_capacity(self.inputs.len());
        for i in &self.inputs {
            parts.push(ws.dense(i, &self.name)?);
        }
        let rows = parts[0].rows();
        if parts.iter().any(|p| p.rows() != rows) {
            return Err(GraphError::OpFailed {
                op: self.name.clone(),
                message: "concat inputs disagree on batch size".into(),
            });
        }
        let total_cols: usize = parts.iter().map(|p| p.cols()).sum();
        let mut out = ws.alloc_dense(rows, total_cols);
        concat_cols_into(&parts, &mut out);
        drop(parts);
        ws.put(self.output.as_str(), Blob::Dense(out));
        Ok(())
    }
}

/// The SparseLengthsSum operator: reads a sparse input blob, pools rows
/// of its embedding table, writes a dense `batch × dim` blob.
///
/// These are the operators the partitioner relocates to sparse shards;
/// they account for >97% of model capacity but only ~3–10% of operator
/// compute (Fig. 4).
#[derive(Debug, Clone)]
pub struct SparseLengthsSum {
    name: String,
    table: Arc<EmbeddingTable>,
    input: String,
    output: String,
}

impl SparseLengthsSum {
    /// Creates an SLS operator over `table`.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        table: Arc<EmbeddingTable>,
        input: impl Into<String>,
        output: impl Into<String>,
    ) -> Self {
        Self {
            name: name.into(),
            table,
            input: input.into(),
            output: output.into(),
        }
    }

    /// The table this operator pools from.
    #[must_use]
    pub fn table(&self) -> &Arc<EmbeddingTable> {
        &self.table
    }

    /// Input sparse-blob name.
    #[must_use]
    pub fn input_blob(&self) -> &str {
        &self.input
    }

    /// Output dense-blob name.
    #[must_use]
    pub fn output_blob(&self) -> &str {
        &self.output
    }
}

impl Operator for SparseLengthsSum {
    fn as_sparse_lengths_sum(&self) -> Option<&SparseLengthsSum> {
        Some(self)
    }

    fn name(&self) -> &str {
        &self.name
    }
    fn group(&self) -> OpGroup {
        OpGroup::Sls
    }
    fn inputs(&self) -> Vec<String> {
        vec![self.input.clone()]
    }
    fn outputs(&self) -> Vec<String> {
        vec![self.output.clone()]
    }
    fn run(&self, ws: &mut Workspace) -> Result<(), GraphError> {
        let s = ws.sparse(&self.input, &self.name)?;
        let mut out = ws.alloc_dense(s.lengths.len(), self.table.dim());
        self.table
            .try_sparse_lengths_sum_into(&s.indices, &s.lengths, &mut out, ws.pool())
            .map_err(|e| GraphError::OpFailed {
                op: self.name.clone(),
                message: e.to_string(),
            })?;
        ws.put(self.output.as_str(), Blob::Dense(out));
        Ok(())
    }
}

/// DLRM's dot-product feature interaction: given the bottom-MLP output
/// and the pooled embeddings — all `batch × d` with one shared `d` —
/// emits the bottom output concatenated with every pairwise dot product
/// `zᵢ · zⱼ (i < j)`, per batch element.
///
/// The paper's models use the traditional architecture of Fig. 2a (the
/// builder's default concat interaction); this operator is provided for
/// the open-source DLRM's interaction so interaction choice can be
/// ablated. The sharding partitioner is interaction-agnostic.
#[derive(Debug, Clone)]
pub struct DotInteraction {
    name: String,
    inputs: Vec<String>,
    output: String,
}

impl DotInteraction {
    /// Creates a dot-interaction operator; `inputs[0]` is the bottom-MLP
    /// output, the rest are pooled embeddings.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two inputs are given (no pairs to interact).
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        inputs: Vec<String>,
        output: impl Into<String>,
    ) -> Self {
        assert!(inputs.len() >= 2, "dot interaction needs at least two inputs");
        Self {
            name: name.into(),
            inputs,
            output: output.into(),
        }
    }

    /// Output feature width for `n` inputs of dimension `d`.
    #[must_use]
    pub fn output_width(n: usize, d: usize) -> usize {
        d + n * (n - 1) / 2
    }
}

impl Operator for DotInteraction {
    fn name(&self) -> &str {
        &self.name
    }
    fn group(&self) -> OpGroup {
        OpGroup::TensorTransform
    }
    fn inputs(&self) -> Vec<String> {
        self.inputs.clone()
    }
    fn outputs(&self) -> Vec<String> {
        vec![self.output.clone()]
    }
    fn run(&self, ws: &mut Workspace) -> Result<(), GraphError> {
        let mut parts = Vec::with_capacity(self.inputs.len());
        for i in &self.inputs {
            parts.push(ws.dense(i, &self.name)?);
        }
        let batch = parts[0].rows();
        let d = parts[0].cols();
        for (k, p) in parts.iter().enumerate() {
            if p.rows() != batch || p.cols() != d {
                return Err(GraphError::OpFailed {
                    op: self.name.clone(),
                    message: format!(
                        "input {k} is {}x{}, expected {batch}x{d} (dot interaction \
                         requires a uniform embedding dimension)",
                        p.rows(),
                        p.cols()
                    ),
                });
            }
        }
        let n = parts.len();
        let width = Self::output_width(n, d);
        let mut out = ws.alloc_dense(batch, width);
        for b in 0..batch {
            let row = out.row_mut(b);
            row[..d].copy_from_slice(&parts[0].row(b)[..d]);
            let mut col = d;
            for i in 0..n {
                for j in (i + 1)..n {
                    let dot: f32 = parts[i]
                        .row(b)
                        .iter()
                        .zip(parts[j].row(b))
                        .map(|(a, c)| a * c)
                        .sum();
                    row[col] = dot;
                    col += 1;
                }
            }
        }
        ws.put(self.output.as_str(), Blob::Dense(out));
        Ok(())
    }
}

/// Element-wise sum of N same-shaped dense blobs.
///
/// Used by the partitioner to recombine the partial pools of a
/// row-sharded table: sum pooling is additive, so summing each shard's
/// partial `SparseLengthsSum` output reproduces the whole-table result.
#[derive(Debug, Clone)]
pub struct ElementwiseSum {
    name: String,
    inputs: Vec<String>,
    output: String,
}

impl ElementwiseSum {
    /// Creates an element-wise sum operator.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        inputs: Vec<String>,
        output: impl Into<String>,
    ) -> Self {
        assert!(!inputs.is_empty(), "sum needs at least one input");
        Self {
            name: name.into(),
            inputs,
            output: output.into(),
        }
    }
}

impl Operator for ElementwiseSum {
    fn name(&self) -> &str {
        &self.name
    }
    fn group(&self) -> OpGroup {
        OpGroup::TensorTransform
    }
    fn inputs(&self) -> Vec<String> {
        self.inputs.clone()
    }
    fn outputs(&self) -> Vec<String> {
        vec![self.output.clone()]
    }
    fn run(&self, ws: &mut Workspace) -> Result<(), GraphError> {
        let mut acc = ws.take_dense(&self.inputs[0], &self.name)?;
        for i in &self.inputs[1..] {
            let next = ws.dense(i, &self.name)?;
            if (next.rows(), next.cols()) != (acc.rows(), acc.cols()) {
                return Err(GraphError::OpFailed {
                    op: self.name.clone(),
                    message: format!(
                        "sum input {i} is {}x{}, expected {}x{}",
                        next.rows(),
                        next.cols(),
                        acc.rows(),
                        acc.cols()
                    ),
                });
            }
            acc.add_assign(next);
        }
        ws.put(self.output.as_str(), Blob::Dense(acc));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{NoopObserver, SparseInput};
    use dlrm_tensor::simd;

    #[test]
    fn fc_computes_affine_map() {
        let fc = FullyConnected::new(
            "fc",
            "x",
            "y",
            Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 0.0]]),
            vec![0.5, -0.5],
        );
        let mut ws = Workspace::new();
        ws.put("x", Blob::Dense(Matrix::from_rows(&[&[3.0, 4.0]])));
        fc.run(&mut ws).unwrap();
        let y = ws.dense("y", "t").unwrap();
        assert_eq!(y.row(0), &[7.5, 5.5]);
    }

    #[test]
    fn fc_reports_shape_mismatch() {
        let fc = FullyConnected::seeded("fc", "x", "y", 4, 2, 1);
        let mut ws = Workspace::new();
        ws.put("x", Blob::Dense(Matrix::zeros(1, 3)));
        assert!(matches!(
            fc.run(&mut ws),
            Err(GraphError::OpFailed { .. })
        ));
    }

    #[test]
    fn seeded_fc_is_reproducible() {
        let a = FullyConnected::seeded("fc", "x", "y", 3, 2, 9);
        let b = FullyConnected::seeded("fc", "x", "y", 3, 2, 9);
        let mut wa = Workspace::new();
        wa.put("x", Blob::Dense(Matrix::from_rows(&[&[1.0, 2.0, 3.0]])));
        let mut wb = wa.clone();
        a.run(&mut wa).unwrap();
        b.run(&mut wb).unwrap();
        assert_eq!(wa.dense("y", "t").unwrap(), wb.dense("y", "t").unwrap());
    }

    /// The weights an FC layer draws do not depend on the layout it
    /// stores them in: weight `(r, c)` is element `r·in + c` of the
    /// layer's stream and bias `j` is element `out·in + j`, across a
    /// 16-wide panel, an 8-wide one and a ragged tail.
    #[test]
    fn seeded_fc_draws_weight_r_c_at_r_in_plus_c_then_bias() {
        let (in_dim, out_dim, seed) = (5, 27, 11);
        let fc = FullyConnected::seeded("fc", "x", "y", in_dim, out_dim, seed);
        let scale = 2.0 / (in_dim as f32).sqrt();
        let weights: Vec<f32> =
            (0..in_dim * out_dim).map(|i| simd::uniform(seed, i as u64) * scale).collect();
        let bias: Vec<f32> = (0..out_dim)
            .map(|j| simd::uniform(seed, (out_dim * in_dim + j) as u64) * 0.1)
            .collect();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(fc.weights().unpack().as_slice()), bits(&weights));
        assert_eq!(bits(fc.bias()), bits(&bias));
    }

    #[test]
    fn relu_then_sigmoid_pipeline() {
        let mut net = crate::graph::NetDef::new("n");
        net.push(Box::new(Relu::new("r", "x", "rx")));
        net.push(Box::new(Sigmoid::new("s", "rx", "sx")));
        let mut ws = Workspace::new();
        ws.put("x", Blob::Dense(Matrix::from_rows(&[&[-1.0, 0.0]])));
        net.run(&mut ws, &mut NoopObserver).unwrap();
        let out = ws.dense("sx", "t").unwrap();
        assert_eq!(out.row(0), &[0.5, 0.5]);
    }

    #[test]
    fn concat_assembles_interaction_input() {
        let op = Concat::new("c", vec!["a".into(), "b".into()], "out");
        let mut ws = Workspace::new();
        ws.put("a", Blob::Dense(Matrix::from_rows(&[&[1.0]])));
        ws.put("b", Blob::Dense(Matrix::from_rows(&[&[2.0, 3.0]])));
        op.run(&mut ws).unwrap();
        assert_eq!(ws.dense("out", "t").unwrap().row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn concat_rejects_batch_mismatch() {
        let op = Concat::new("c", vec!["a".into(), "b".into()], "out");
        let mut ws = Workspace::new();
        ws.put("a", Blob::Dense(Matrix::zeros(1, 1)));
        ws.put("b", Blob::Dense(Matrix::zeros(2, 1)));
        assert!(matches!(
            op.run(&mut ws),
            Err(GraphError::OpFailed { .. })
        ));
    }

    #[test]
    fn sls_op_pools_through_workspace() {
        let table = Arc::new(EmbeddingTable::from_weights(
            "t",
            Matrix::from_rows(&[&[1.0, 2.0], &[10.0, 20.0]]),
        ));
        let op = SparseLengthsSum::new("sls", table, "in", "out");
        let mut ws = Workspace::new();
        ws.put("in", Blob::Sparse(SparseInput::new(vec![0, 1], vec![2])));
        op.run(&mut ws).unwrap();
        assert_eq!(ws.dense("out", "t").unwrap().row(0), &[11.0, 22.0]);
    }

    #[test]
    fn dot_interaction_hand_computed() {
        let op = DotInteraction::new("dot", vec!["z0".into(), "z1".into(), "z2".into()], "out");
        let mut ws = Workspace::new();
        ws.put("z0", Blob::Dense(Matrix::from_rows(&[&[1.0, 2.0]])));
        ws.put("z1", Blob::Dense(Matrix::from_rows(&[&[3.0, 4.0]])));
        ws.put("z2", Blob::Dense(Matrix::from_rows(&[&[5.0, 6.0]])));
        op.run(&mut ws).unwrap();
        let out = ws.dense("out", "t").unwrap();
        // [z0 | z0·z1, z0·z2, z1·z2] = [1, 2 | 11, 17, 39]
        assert_eq!(out.row(0), &[1.0, 2.0, 11.0, 17.0, 39.0]);
        assert_eq!(out.cols(), DotInteraction::output_width(3, 2));
    }

    #[test]
    fn dot_interaction_rejects_mixed_dims() {
        let op = DotInteraction::new("dot", vec!["a".into(), "b".into()], "out");
        let mut ws = Workspace::new();
        ws.put("a", Blob::Dense(Matrix::zeros(1, 2)));
        ws.put("b", Blob::Dense(Matrix::zeros(1, 3)));
        assert!(matches!(op.run(&mut ws), Err(GraphError::OpFailed { .. })));
    }

    #[test]
    fn elementwise_sum_adds_blobs() {
        let op = ElementwiseSum::new("sum", vec!["a".into(), "b".into()], "out");
        let mut ws = Workspace::new();
        ws.put("a", Blob::Dense(Matrix::from_rows(&[&[1.0, 2.0]])));
        ws.put("b", Blob::Dense(Matrix::from_rows(&[&[10.0, 20.0]])));
        op.run(&mut ws).unwrap();
        assert_eq!(ws.dense("out", "t").unwrap().row(0), &[11.0, 22.0]);
    }

    #[test]
    fn elementwise_sum_rejects_shape_mismatch() {
        let op = ElementwiseSum::new("sum", vec!["a".into(), "b".into()], "out");
        let mut ws = Workspace::new();
        ws.put("a", Blob::Dense(Matrix::zeros(1, 2)));
        ws.put("b", Blob::Dense(Matrix::zeros(2, 2)));
        assert!(matches!(op.run(&mut ws), Err(GraphError::OpFailed { .. })));
    }

    #[test]
    fn sls_downcast_hook() {
        let table = Arc::new(EmbeddingTable::from_weights(
            "t",
            Matrix::from_rows(&[&[1.0]]),
        ));
        let sls = SparseLengthsSum::new("sls", table, "in", "out");
        assert!(sls.as_sparse_lengths_sum().is_some());
        let relu = Relu::new("r", "a", "b");
        assert!(relu.as_sparse_lengths_sum().is_none());
    }

    #[test]
    fn sls_op_reports_out_of_range() {
        let table = Arc::new(EmbeddingTable::from_weights(
            "t",
            Matrix::from_rows(&[&[1.0]]),
        ));
        let op = SparseLengthsSum::new("sls", table, "in", "out");
        let mut ws = Workspace::new();
        ws.put("in", Blob::Sparse(SparseInput::new(vec![9], vec![1])));
        assert!(matches!(
            op.run(&mut ws),
            Err(GraphError::OpFailed { .. })
        ));
    }
}
