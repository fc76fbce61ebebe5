//! Builds an executable [`Model`] from a [`ModelSpec`].

use crate::graph::{external_input_blobs, Model, NetDef, Schedule};
use crate::ops::{
    Concat, DotInteraction, FcParams, FullyConnected, Relu, Sigmoid, SparseLengthsSum,
};
use crate::spec::{ModelSpec, NetSpec};
use crate::EmbeddingTable;
use dlrm_runtime::KernelDispatch;
use dlrm_tensor::simd::{self, SimdLevel};
use dlrm_tensor::AlignedSlab;
use std::sync::{Arc, Mutex};

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

/// Floats of a table one unit of the parameter draw covers: 1 MiB, so
/// every core shares a table as large as RM3's dominant one (57 of its
/// 64 MiB) and each unit still amortizes its queue pop over 256 Ki
/// stores. A constant, not a knob.
const TABLE_UNIT_FLOATS: usize = (1 << 20) / std::mem::size_of::<f32>();

/// One unit of the parameter draw: `out` holds elements of the uniform
/// stream `key` from `first`, in `width`-wide panel order when `width >
/// 1`, times `scale` ([`simd::fill_uniform_panel`]).
#[derive(Debug)]
pub(crate) struct Draw<'a> {
    pub(crate) key: u64,
    pub(crate) first: u64,
    pub(crate) width: usize,
    pub(crate) scale: f32,
    pub(crate) out: &'a mut [f32],
}

impl Draw<'_> {
    pub(crate) fn run(self, level: SimdLevel) {
        let Self { key, first, width, scale, out } = self;
        simd::fill_uniform_panel(level, key, first, width, scale, out);
    }
}

/// The stream of net `net`'s FC layer `layer` (bottom MLP then top,
/// counted from 0).
fn fc_seed(seed: u64, net: usize, layer: usize) -> u64 {
    (seed ^ ((net as u64 + 1) << 32)).wrapping_add(layer as u64 + 1)
}

/// Width of `net`'s feature interaction: its top MLP's input.
fn interaction_width(spec: &ModelSpec, net: &NetSpec, interaction: InteractionKind) -> usize {
    let bottom = *net.bottom_mlp.last().expect("validated non-empty");
    let prev = net.takes_prev_output.then(|| {
        *spec.nets[net.id.0 - 1].top_mlp.last().expect("validated non-empty")
    });
    let tables = spec.tables_of_net(net.id);
    match interaction {
        InteractionKind::Concat => {
            bottom + tables.map(|t| t.dim as usize).sum::<usize>() + prev.unwrap_or(0)
        }
        InteractionKind::Dot => {
            DotInteraction::output_width(1 + tables.count() + usize::from(prev.is_some()), bottom)
        }
    }
}

/// `(in, out)` widths of `net`'s FC layers: the bottom MLP over the
/// dense features, then the top MLP over the interaction.
fn fc_widths<'a>(
    spec: &'a ModelSpec,
    net: &'a NetSpec,
    interaction: InteractionKind,
) -> impl Iterator<Item = (usize, usize)> + 'a {
    let bottom_in = std::iter::once(spec.dense_features).chain(net.bottom_mlp.iter().copied());
    let top_in = std::iter::once(interaction_width(spec, net, interaction))
        .chain(net.top_mlp.iter().copied());
    let bottom = bottom_in.zip(net.bottom_mlp.iter().copied());
    bottom.chain(top_in.zip(net.top_mlp.iter().copied()))
}

/// Every parameter of the model, drawn in one pass: each table's slab
/// and each FC layer's packed weights are allocated zeroed on this
/// thread, cut into units — [`TABLE_UNIT_FLOATS`] of a table, or one
/// whole FC panel — and filled on `workers` threads (the caller's among
/// them), each taking the largest unit not yet taken, so the pages are
/// first touched on every core. A table equals
/// [`EmbeddingTable::from_spec`] and a layer [`FullyConnected::seeded`]
/// with [`fc_seed`]'s stream, bit for bit, for any worker count and
/// tier: each element depends on its stream index alone. Returns the
/// tables and, per net, its FC layers' parameters in graph order.
fn draw_parameters(
    spec: &ModelSpec,
    seed: u64,
    interaction: InteractionKind,
    workers: usize,
    level: SimdLevel,
) -> (Vec<Arc<EmbeddingTable>>, Vec<Vec<FcParams>>) {
    let mut slabs: Vec<AlignedSlab> =
        spec.tables.iter().map(|t| EmbeddingTable::unfilled_slab(t.rows, t.dim)).collect();
    let mut layers: Vec<Vec<FcParams>> = spec
        .nets
        .iter()
        .map(|net| fc_widths(spec, net, interaction).map(|(i, o)| FcParams::zeroed(i, o)).collect())
        .collect();
    let mut draws = Vec::new();
    for (t, slab) in spec.tables.iter().zip(&mut slabs) {
        let key = EmbeddingTable::stream_key(t, seed);
        draws.extend(slab.chunks_mut(TABLE_UNIT_FLOATS).enumerate().map(|(u, out)| Draw {
            key,
            first: (u * TABLE_UNIT_FLOATS) as u64,
            width: 1,
            scale: 1.0,
            out,
        }));
    }
    for (i, net) in layers.iter_mut().enumerate() {
        for (j, layer) in net.iter_mut().enumerate() {
            draws.extend(layer.draws(fc_seed(seed, i, j)));
        }
    }
    draws.sort_by_key(|d| std::cmp::Reverse(d.out.len()));
    let units = draws.len();
    let queue = Mutex::new(draws.into_iter());
    let work = || loop {
        // Pop in its own statement: the guard must not live through the
        // fill, or the workers would take turns.
        let next = queue.lock().expect("a draw never panics").next();
        let Some(draw) = next else { break };
        draw.run(level);
    };
    std::thread::scope(|s| {
        for _ in 1..workers.min(units) {
            s.spawn(work);
        }
        work();
    });
    let tables = spec.tables.iter().zip(slabs).map(|(t, slab)| {
        Arc::new(EmbeddingTable::from_slab(t.name.clone(), t.rows as usize, t.dim as usize, slab))
    });
    (tables.collect(), layers)
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
    let level = KernelDispatch::detect().level();
    let (tables, layers) = draw_parameters(spec, seed, interaction, workers, level);

    let mut nets = Vec::with_capacity(spec.nets.len());
    for (net_spec, layers) in spec.nets.iter().zip(layers) {
        let i = net_spec.id.0;
        let mut net = NetDef::new(net_spec.name.clone());
        let mut layers = layers.into_iter();
        let mut fc = |name: String, input: &str, output: &str| {
            let params = layers.next().expect("one drawn layer per FC");
            Box::new(FullyConnected::with_params(name, input, output, params))
        };

        // Bottom MLP over the dense features.
        let mut in_blob = blobs::DENSE_INPUT.to_string();
        for j in 0..net_spec.bottom_mlp.len() {
            let out_blob = format!("net{i}/bottom{j}");
            net.push(fc(format!("net{i}/fc_bottom{j}"), &in_blob, &out_blob));
            let act_blob = format!("net{i}/bottom{j}_relu");
            net.push(Box::new(Relu::new(
                format!("net{i}/relu_bottom{j}"),
                &out_blob,
                &act_blob,
            )));
            in_blob = act_blob;
        }
        let bottom_out = in_blob;

        // One SLS per table of this net, in table-id order (keeps the
        // float-summation order identical between singular and sharded
        // execution).
        let mut interact_inputs = vec![bottom_out];
        for t in spec.tables_of_net(net_spec.id) {
            net.push(Box::new(SparseLengthsSum::new(
                format!("net{i}/sls/{}", t.name),
                Arc::clone(&tables[t.id.0]),
                blobs::sparse_input(t),
                blobs::pooled(t),
            )));
            interact_inputs.push(blobs::pooled(t));
        }

        // Dependent nets consume the previous net's output (RM1/RM2).
        if net_spec.takes_prev_output {
            interact_inputs.push(blobs::net_output(spec.nets[i - 1].id));
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
                net.push(Box::new(DotInteraction::new(
                    format!("net{i}/interaction_dot"),
                    interact_inputs,
                    format!("net{i}/interaction"),
                )));
            }
        }

        // Top MLP.
        let mut in_blob = format!("net{i}/interaction");
        let last = net_spec.top_mlp.len() - 1;
        for j in 0..net_spec.top_mlp.len() {
            let out_blob = format!("net{i}/top{j}");
            net.push(fc(format!("net{i}/fc_top{j}"), &in_blob, &out_blob));
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

    /// The one-pass draw gives, for any worker count and on every exact
    /// tier, tables bitwise equal to the one-table redraw a tier step
    /// makes and FC layers bitwise equal to `FullyConnected::seeded`.
    /// RM3 at 8 MiB puts its dominant table across several units.
    #[test]
    fn tables_are_bit_identical_for_any_worker_count() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let fc_bits =
            |fc: FullyConnected| (bits(fc.weights().unpack().as_slice()), bits(fc.bias()));
        let concat = InteractionKind::Concat;
        let rm3 = crate::rm::rm3().scaled_to_bytes(8 << 20);
        let dominant = rm3.tables.iter().map(|t| t.bytes()).max().expect("rm3 has tables");
        assert!(dominant > 4 * (TABLE_UNIT_FLOATS * 4) as u64, "a table spans several units");
        for spec in [crate::rm::rm2().scaled_to_bytes(1 << 20), rm3] {
            let tables: Vec<_> = (spec.tables.iter())
                .map(|t| bits(EmbeddingTable::from_spec(t, 5).as_slice()))
                .collect();
            let layers: Vec<Vec<_>> = (spec.nets.iter().enumerate())
                .map(|(i, net)| {
                    let widths = fc_widths(&spec, net, concat).enumerate();
                    let seeded =
                        |(j, (k, n))| FullyConnected::seeded("", "", "", k, n, fc_seed(5, i, j));
                    widths.map(|layer| fc_bits(seeded(layer))).collect()
                })
                .collect();
            for tier in KernelDispatch::exact_tiers().into_iter().map(KernelDispatch::level) {
                for workers in [1, 2, 3, 8] {
                    let (built, params) = draw_parameters(&spec, 5, concat, workers, tier);
                    let built: Vec<_> = built.iter().map(|t| bits(t.as_slice())).collect();
                    assert_eq!(built, tables, "{} tables, {workers} workers on {tier}", spec.name);
                    let drawn: Vec<Vec<_>> = (params.into_iter().map(Vec::into_iter))
                        .map(|net| {
                            net.map(|p| fc_bits(FullyConnected::with_params("", "", "", p))).collect()
                        })
                        .collect();
                    let what = format!("{} FC layers, {workers} workers on {tier}", spec.name);
                    assert_eq!(drawn, layers, "{what}");
                }
            }
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
