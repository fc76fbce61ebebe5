//! Builds an executable [`Model`] from a [`ModelSpec`].

use crate::graph::{external_input_blobs, Model, NetDef, Schedule};
use crate::ops::{Concat, DotInteraction, FullyConnected, Relu, Sigmoid, SparseLengthsSum};
use crate::spec::{ModelSpec, TableSpec};
use crate::EmbeddingTable;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Errors from model construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The spec failed [`ModelSpec::validate`].
    InvalidSpec(String),
    /// Materializing the tables would exceed the memory guard.
    TooLarge {
        /// Bytes the spec's tables would occupy.
        bytes: u64,
        /// The configured guard.
        limit: u64,
    },
    /// The constructed graph failed [`Schedule::compile`]: some operator
    /// declared an input no earlier operator produces and no external
    /// load provides.
    InvalidGraph(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::InvalidSpec(msg) => write!(f, "invalid model spec: {msg}"),
            BuildError::TooLarge { bytes, limit } => write!(
                f,
                "materializing {bytes} bytes exceeds the {limit}-byte guard; \
                 call ModelSpec::scaled_to_bytes first"
            ),
            BuildError::InvalidGraph(msg) => write!(f, "builder produced {msg}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Default materialization guard: 2 GiB. Paper-scale specs (≈200 GB)
/// must be scaled down before building, exactly as the paper scaled its
/// models to fit one server (§V-A).
pub const DEFAULT_MATERIALIZE_LIMIT: u64 = 2 * 1024 * 1024 * 1024;

/// How a net joins its pooled embeddings with the dense path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InteractionKind {
    /// Column-wise concatenation (Fig. 2a's traditional architecture —
    /// the paper's models, and this builder's default).
    #[default]
    Concat,
    /// The open-source DLRM's pairwise dot-product interaction; requires
    /// a uniform embedding dimension equal to the bottom-MLP output
    /// width (and the previous net's output width for chained nets).
    Dot,
}

/// Blob-name helpers shared by the builder and the partitioner.
pub mod blobs {
    use crate::spec::{NetId, TableSpec};

    /// The dense-feature input blob.
    pub const DENSE_INPUT: &str = "dense";

    /// The sparse input blob feeding `table`'s SLS operator.
    #[must_use]
    pub fn sparse_input(table: &TableSpec) -> String {
        let mut name = String::new();
        push_sparse_input(&mut name, table);
        name
    }

    /// Appends [`sparse_input`]'s name to `buf`, so a caller naming
    /// every table per batch reuses one buffer.
    pub fn push_sparse_input(buf: &mut String, table: &TableSpec) {
        buf.push_str("sparse/");
        buf.push_str(&table.name);
    }

    /// The pooled (dense) output blob of `table`'s SLS operator.
    #[must_use]
    pub fn pooled(table: &TableSpec) -> String {
        format!("pooled/{}", table.name)
    }

    /// The final output blob of `net`.
    #[must_use]
    pub fn net_output(net: NetId) -> String {
        format!("{net}/out")
    }
}

/// Materializes `tables` on `workers` threads (the caller's among
/// them), each taking the largest table not yet taken. Each table is
/// drawn from its own `(seed, table id)` fork by one thread
/// ([`EmbeddingTable::from_spec`]), so the weights are bit-identical for
/// any worker count.
fn build_tables(tables: &[TableSpec], seed: u64, workers: usize) -> Vec<Arc<EmbeddingTable>> {
    let mut order: Vec<(usize, &TableSpec)> = tables.iter().enumerate().collect();
    order.sort_by_key(|(_, t)| std::cmp::Reverse(t.bytes()));
    let next = AtomicUsize::new(0);
    let built: Vec<OnceLock<Arc<EmbeddingTable>>> = tables.iter().map(|_| OnceLock::new()).collect();
    let work = || {
        while let Some(&(i, t)) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
            let first = built[i].set(Arc::new(EmbeddingTable::from_spec(t, seed)));
            assert!(first.is_ok(), "each table is taken once");
        }
    };
    std::thread::scope(|s| {
        for _ in 1..workers.min(tables.len()) {
            s.spawn(work);
        }
        work();
    });
    built.into_iter().map(|t| t.into_inner().expect("every table drawn")).collect()
}

/// Builds an executable model with materialized, seeded parameters.
///
/// Equivalent to [`build_model_with_limit`] with
/// [`DEFAULT_MATERIALIZE_LIMIT`].
///
/// # Errors
///
/// See [`build_model_with_limit`].
///
/// # Examples
///
/// ```
/// use dlrm_model::{build_model, rm};
///
/// let spec = rm::rm1().scaled_to_bytes(8 << 20); // 8 MiB toy copy
/// let model = build_model(&spec, 42)?;
/// assert_eq!(model.nets.len(), 2);
/// # Ok::<(), dlrm_model::builder::BuildError>(())
/// ```
pub fn build_model(spec: &ModelSpec, seed: u64) -> Result<Model, BuildError> {
    build_model_with_limit(spec, seed, DEFAULT_MATERIALIZE_LIMIT)
}

/// Builds an executable model, refusing to materialize more than
/// `limit` bytes of embedding weights.
///
/// The graph layout per net follows Fig. 2a: bottom MLP over the dense
/// features, one `SparseLengthsSum` per table, a `Concat` feature
/// interaction joining the pooled embeddings with the bottom-MLP output
/// (and the previous net's output for dependent nets), then the top MLP.
/// The last net ends in a sigmoid; earlier nets end in ReLU.
///
/// # Errors
///
/// - [`BuildError::InvalidSpec`] if the spec is inconsistent.
/// - [`BuildError::TooLarge`] if the tables exceed `limit` bytes.
pub fn build_model_with_limit(
    spec: &ModelSpec,
    seed: u64,
    limit: u64,
) -> Result<Model, BuildError> {
    build_model_with_options(spec, seed, limit, InteractionKind::Concat)
}

/// Builds an executable model with an explicit feature-interaction kind.
///
/// # Errors
///
/// As [`build_model_with_limit`], plus [`BuildError::InvalidSpec`] when
/// [`InteractionKind::Dot`] is requested for a net whose table
/// dimensions are not uniformly equal to its bottom-MLP output width.
pub fn build_model_with_options(
    spec: &ModelSpec,
    seed: u64,
    limit: u64,
    interaction: InteractionKind,
) -> Result<Model, BuildError> {
    spec.validate().map_err(BuildError::InvalidSpec)?;
    if interaction == InteractionKind::Dot {
        for net in &spec.nets {
            let d = *net.bottom_mlp.last().expect("validated non-empty");
            if let Some(t) = spec.tables_of_net(net.id).find(|t| t.dim as usize != d) {
                return Err(BuildError::InvalidSpec(format!(
                    "dot interaction needs uniform dim {d}; table {} has dim {}",
                    t.name, t.dim
                )));
            }
            if net.takes_prev_output {
                let prev = &spec.nets[net.id.0 - 1];
                let prev_w = *prev.top_mlp.last().expect("validated non-empty");
                if prev_w != d {
                    return Err(BuildError::InvalidSpec(format!(
                        "dot interaction needs the previous net's output width                          {prev_w} to equal {d}"
                    )));
                }
            }
        }
    }
    let bytes = spec.total_bytes();
    if bytes > limit {
        return Err(BuildError::TooLarge { bytes, limit });
    }

    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let tables = build_tables(&spec.tables, seed, workers);

    let mut nets = Vec::with_capacity(spec.nets.len());
    for net_spec in &spec.nets {
        let i = net_spec.id.0;
        let mut net = NetDef::new(net_spec.name.clone());
        let mut op_seed = seed ^ ((i as u64 + 1) << 32);

        // Bottom MLP over the dense features.
        let mut in_blob = blobs::DENSE_INPUT.to_string();
        let mut in_dim = spec.dense_features;
        for (j, &width) in net_spec.bottom_mlp.iter().enumerate() {
            let out_blob = format!("net{i}/bottom{j}");
            op_seed = op_seed.wrapping_add(1);
            net.push(Box::new(FullyConnected::seeded(
                format!("net{i}/fc_bottom{j}"),
                &in_blob,
                &out_blob,
                in_dim,
                width,
                op_seed,
            )));
            let act_blob = format!("net{i}/bottom{j}_relu");
            net.push(Box::new(Relu::new(
                format!("net{i}/relu_bottom{j}"),
                &out_blob,
                &act_blob,
            )));
            in_blob = act_blob;
            in_dim = width;
        }
        let bottom_out = in_blob;
        let bottom_dim = in_dim;

        // One SLS per table of this net, in table-id order (keeps the
        // float-summation order identical between singular and sharded
        // execution).
        let mut interact_inputs = vec![bottom_out];
        let mut interact_dim = bottom_dim;
        for t in spec.tables_of_net(net_spec.id) {
            net.push(Box::new(SparseLengthsSum::new(
                format!("net{i}/sls/{}", t.name),
                Arc::clone(&tables[t.id.0]),
                blobs::sparse_input(t),
                blobs::pooled(t),
            )));
            interact_inputs.push(blobs::pooled(t));
            interact_dim += t.dim as usize;
        }

        // Dependent nets consume the previous net's output (RM1/RM2).
        if net_spec.takes_prev_output {
            let prev = &spec.nets[i - 1];
            interact_inputs.push(blobs::net_output(prev.id));
            interact_dim += *prev.top_mlp.last().expect("validated non-empty");
        }

        match interaction {
            InteractionKind::Concat => {
                net.push(Box::new(Concat::new(
                    format!("net{i}/interaction_concat"),
                    interact_inputs,
                    format!("net{i}/interaction"),
                )));
            }
            InteractionKind::Dot => {
                let n_inputs = interact_inputs.len();
                net.push(Box::new(DotInteraction::new(
                    format!("net{i}/interaction_dot"),
                    interact_inputs,
                    format!("net{i}/interaction"),
                )));
                interact_dim = DotInteraction::output_width(n_inputs, bottom_dim);
            }
        }

        // Top MLP.
        let mut in_blob = format!("net{i}/interaction");
        let mut in_dim = interact_dim;
        let last = net_spec.top_mlp.len() - 1;
        for (j, &width) in net_spec.top_mlp.iter().enumerate() {
            let out_blob = format!("net{i}/top{j}");
            op_seed = op_seed.wrapping_add(1);
            net.push(Box::new(FullyConnected::seeded(
                format!("net{i}/fc_top{j}"),
                &in_blob,
                &out_blob,
                in_dim,
                width,
                op_seed,
            )));
            let is_final_layer = j == last;
            let act_blob = if is_final_layer {
                blobs::net_output(net_spec.id)
            } else {
                format!("net{i}/top{j}_relu")
            };
            let is_final_net = i == spec.nets.len() - 1;
            if is_final_layer && is_final_net {
                net.push(Box::new(Sigmoid::new(
                    format!("net{i}/sigmoid"),
                    &out_blob,
                    &act_blob,
                )));
            } else {
                net.push(Box::new(Relu::new(
                    format!("net{i}/relu_top{j}"),
                    &out_blob,
                    &act_blob,
                )));
            }
            in_blob = act_blob;
            in_dim = width;
        }
        nets.push(net);
    }

    let output_blob = blobs::net_output(spec.nets.last().expect("validated").id);
    // Compiling the overlap plan is also the graph check: a declared
    // input that nothing produces fails here rather than mid-run.
    let schedule = Schedule::compile(&nets, external_input_blobs(spec), &output_blob)
        .map_err(|e| BuildError::InvalidGraph(e.to_string()))?;
    Ok(Model {
        spec: spec.clone(),
        nets,
        tables,
        output_blob,
        schedule,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Blob, NoopObserver, SparseInput, Workspace};
    use crate::spec::{NetId, NetSpec, TableId, TableSpec};
    use dlrm_tensor::Matrix;

    fn two_net_spec() -> ModelSpec {
        ModelSpec {
            name: "test2".into(),
            dense_features: 6,
            tables: vec![
                TableSpec {
                    id: TableId(0),
                    name: "u0".into(),
                    rows: 50,
                    dim: 4,
                    net: NetId(0),
                    pooling_factor: 5.0,
                },
                TableSpec {
                    id: TableId(1),
                    name: "c0".into(),
                    rows: 80,
                    dim: 8,
                    net: NetId(1),
                    pooling_factor: 2.0,
                },
            ],
            nets: vec![
                NetSpec {
                    id: NetId(0),
                    name: "user".into(),
                    bottom_mlp: vec![8, 4],
                    top_mlp: vec![8, 4],
                    takes_prev_output: false,
                },
                NetSpec {
                    id: NetId(1),
                    name: "content".into(),
                    bottom_mlp: vec![8, 4],
                    top_mlp: vec![8, 1],
                    takes_prev_output: true,
                },
            ],
            default_batch_size: 4,
            mean_items_per_request: 8.0,
        }
    }

    fn seed_inputs(ws: &mut Workspace, spec: &ModelSpec, batch: usize) {
        ws.put(
            blobs::DENSE_INPUT,
            Blob::Dense(Matrix::from_vec(
                batch,
                spec.dense_features,
                (0..batch * spec.dense_features)
                    .map(|k| (k % 7) as f32 * 0.1)
                    .collect(),
            )),
        );
        for t in &spec.tables {
            let indices: Vec<u64> = (0..batch as u64 * 2).map(|k| k % t.rows).collect();
            let lengths = vec![2u32; batch];
            ws.put(
                blobs::sparse_input(t),
                Blob::Sparse(SparseInput::new(indices, lengths)),
            );
        }
    }

    #[test]
    fn builds_and_runs_two_net_model() {
        let spec = two_net_spec();
        let model = build_model(&spec, 7).unwrap();
        let mut ws = Workspace::new();
        seed_inputs(&mut ws, &spec, 4);
        let out = model.run(&mut ws, &mut NoopObserver).unwrap();
        assert_eq!(out.rows(), 4);
        assert_eq!(out.cols(), 1);
        // Sigmoid output is a probability.
        assert!(out.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn output_is_deterministic_for_seed() {
        let spec = two_net_spec();
        let m1 = build_model(&spec, 7).unwrap();
        let m2 = build_model(&spec, 7).unwrap();
        let mut w1 = Workspace::new();
        seed_inputs(&mut w1, &spec, 3);
        let mut w2 = w1.clone();
        let o1 = m1.run(&mut w1, &mut NoopObserver).unwrap();
        let o2 = m2.run(&mut w2, &mut NoopObserver).unwrap();
        assert_eq!(o1, o2);
    }

    /// Tables are bitwise equal for any worker count, and each equals
    /// the one-table redraw a tier step makes.
    #[test]
    fn tables_are_bit_identical_for_any_worker_count() {
        let spec = crate::rm::rm2().scaled_to_bytes(1 << 20);
        let bits = |t: &EmbeddingTable| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let serial: Vec<_> = spec.tables.iter().map(|t| bits(&EmbeddingTable::from_spec(t, 5))).collect();
        for workers in [1, 2, 3, 8] {
            let built = build_tables(&spec.tables, 5, workers);
            assert_eq!(built.iter().map(|t| bits(t)).collect::<Vec<_>>(), serial, "{workers} workers");
        }
    }

    #[test]
    fn different_seed_changes_output() {
        let spec = two_net_spec();
        let m1 = build_model(&spec, 7).unwrap();
        let m2 = build_model(&spec, 8).unwrap();
        let mut w1 = Workspace::new();
        seed_inputs(&mut w1, &spec, 3);
        let mut w2 = w1.clone();
        let o1 = m1.run(&mut w1, &mut NoopObserver).unwrap();
        let o2 = m2.run(&mut w2, &mut NoopObserver).unwrap();
        assert_ne!(o1, o2);
    }

    #[test]
    fn sparse_output_depends_on_indices() {
        let spec = two_net_spec();
        let model = build_model(&spec, 7).unwrap();
        let mut w1 = Workspace::new();
        seed_inputs(&mut w1, &spec, 2);
        let mut w2 = w1.clone();
        // Perturb one sparse input in w2.
        let t = &spec.tables[0];
        w2.put(
            blobs::sparse_input(t),
            Blob::Sparse(SparseInput::new(vec![3, 4, 5, 6], vec![2, 2])),
        );
        let o1 = model.run(&mut w1, &mut NoopObserver).unwrap();
        let o2 = model.run(&mut w2, &mut NoopObserver).unwrap();
        assert_ne!(o1, o2, "embedding lookups must influence the output");
    }

    /// A spec whose dims are uniform so dot interaction is legal.
    fn uniform_spec() -> ModelSpec {
        let mut s = two_net_spec();
        for t in &mut s.tables {
            t.dim = 4;
        }
        s.nets[0].bottom_mlp = vec![8, 4];
        s.nets[0].top_mlp = vec![8, 4];
        s.nets[1].bottom_mlp = vec![8, 4];
        s
    }

    #[test]
    fn dot_interaction_builds_and_runs() {
        let spec = uniform_spec();
        let model = crate::builder::build_model_with_options(
            &spec,
            7,
            DEFAULT_MATERIALIZE_LIMIT,
            InteractionKind::Dot,
        )
        .unwrap();
        let mut ws = Workspace::new();
        seed_inputs(&mut ws, &spec, 3);
        let out = model.run(&mut ws, &mut NoopObserver).unwrap();
        assert_eq!(out.rows(), 3);
        assert!(out.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn dot_interaction_differs_from_concat() {
        let spec = uniform_spec();
        let dot = crate::builder::build_model_with_options(
            &spec,
            7,
            DEFAULT_MATERIALIZE_LIMIT,
            InteractionKind::Dot,
        )
        .unwrap();
        let concat = build_model(&spec, 7).unwrap();
        let mut w1 = Workspace::new();
        seed_inputs(&mut w1, &spec, 2);
        let mut w2 = w1.clone();
        let a = dot.run(&mut w1, &mut NoopObserver).unwrap();
        let b = concat.run(&mut w2, &mut NoopObserver).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn dot_interaction_rejects_mixed_dims() {
        let spec = two_net_spec(); // dims 4 and 8
        let err = crate::builder::build_model_with_options(
            &spec,
            7,
            DEFAULT_MATERIALIZE_LIMIT,
            InteractionKind::Dot,
        )
        .unwrap_err();
        assert!(matches!(err, BuildError::InvalidSpec(_)));
    }

    #[test]
    fn refuses_oversized_materialization() {
        let rm1 = crate::rm::rm1();
        let err = build_model(&rm1, 1).unwrap_err();
        assert!(matches!(err, BuildError::TooLarge { .. }));
    }

    #[test]
    fn rejects_invalid_spec() {
        let mut spec = two_net_spec();
        spec.tables[0].net = NetId(9);
        assert!(matches!(
            build_model(&spec, 1),
            Err(BuildError::InvalidSpec(_))
        ));
    }

    #[test]
    fn built_models_schedule_every_op_once_in_list_order() {
        // A singular model has no asynchronous operator, so its compiled
        // plan is the sequential order.
        let uniform = crate::builder::build_model_with_options(
            &uniform_spec(),
            7,
            DEFAULT_MATERIALIZE_LIMIT,
            InteractionKind::Dot,
        )
        .unwrap();
        for model in [build_model(&two_net_spec(), 7).unwrap(), uniform] {
            let ops = model.nets.iter().map(|net| net.ops().len()).sum();
            let steps = model.schedule.steps().iter().copied();
            assert!(steps.eq((0..ops).map(crate::graph::Step::Run)));
        }
    }

    #[test]
    fn missing_sparse_input_surfaces_as_graph_error() {
        let spec = two_net_spec();
        let model = build_model(&spec, 7).unwrap();
        let mut ws = Workspace::new();
        ws.put(
            blobs::DENSE_INPUT,
            Blob::Dense(Matrix::zeros(1, spec.dense_features)),
        );
        assert!(model.run(&mut ws, &mut NoopObserver).is_err());
    }
}
