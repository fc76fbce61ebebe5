//! Executable DLRM-like recommendation models and their specifications.
//!
//! This crate is the reproduction's substitute for the paper's Caffe2
//! models. It provides two representations of a deep recommendation
//! model:
//!
//! 1. **Specification** ([`ModelSpec`]): the aggregate attributes that the
//!    entire characterization depends on — embedding-table inventory
//!    (row counts, vector dimensions, per-table expected pooling factor,
//!    net membership), dense-layer architecture, and batching defaults.
//!    The published models RM1, RM2 and RM3 are regenerated from their
//!    printed statistics by [`rm::rm1`], [`rm::rm2`] and [`rm::rm3`].
//!
//! 2. **Executable graph** ([`graph::NetDef`] executed over a
//!    [`graph::Workspace`]): a Caffe2-style operator list over named
//!    blobs, with real `f32` kernels ([`ops`]) including the
//!    `SparseLengthsSum` family. The sharding partitioner (crate
//!    `dlrm-sharding`) rewrites these graphs, replacing sparse operators
//!    with RPC operators exactly as §III of the paper describes.
//!
//! Embedding tables at paper scale (138–200 GB) are **virtual**: the spec
//! carries their logical shape for the simulator, and
//! [`ModelSpec::scaled_to_bytes`] produces a proportionally downsized spec
//! that can be materialized in memory — mirroring the paper's own
//! down-scaling of oversized tables to fit a single 256 GB server (§V-A).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod embedding;
pub mod footprint;
pub mod graph;
pub mod growth;
pub mod ops;
pub mod publish;
pub mod rm;
pub mod spec;

pub use builder::{build_model, build_model_with_options, InteractionKind};
pub use dlrm_runtime::{BufferPool, Pool, RuntimeCtx};
pub use embedding::EmbeddingTable;
pub use footprint::Footprint;
pub use graph::{consumer_counts_of, Blob, Model, NetDef, Workspace};
pub use spec::{ModelSpec, NetId, NetSpec, OpGroup, TableId, TableSpec};

/// Bytes per single-precision float; all paper models are served
/// uncompressed in FP32 (§V-A).
pub const F32_BYTES: u64 = 4;

/// One gibibyte, the capacity unit used throughout the paper's tables.
pub const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
