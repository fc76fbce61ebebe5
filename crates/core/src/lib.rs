//! `dlrm-core`: the facade for the capacity-driven scale-out
//! recommendation-inference reproduction (ISPASS 2021).
//!
//! This crate ties the substrates together behind one API:
//!
//! 1. **Specify** a model ([`model::rm`] regenerates the paper's
//!    RM1/RM2/RM3) and a workload ([`workload::TraceDb`]).
//! 2. **Shard** it ([`sharding::plan`], Table I's strategies).
//! 3. **Verify** the distributed transformation against singular
//!    execution with the real f32 engine ([`verify_distributed_equivalence`]).
//! 4. **Simulate** serving ([`Study`], the front door of [`cluster`])
//!    to obtain the paper's measurements: E2E latency / CPU-time
//!    percentiles (Tables III–IV), cross-layer stacks (Figs. 8–9),
//!    per-shard breakdowns (Figs. 10–12), batching/platform/QPS effects
//!    (Figs. 13–16).
//! 5. **Serve** it for real on the engine in [`serving`]: the open-loop
//!    frontend, shard transports, replicas and tenancy.
//!
//! ```
//! use dlrm_core::{Study, sharding::ShardingStrategy};
//!
//! let mut study = Study::new(dlrm_core::model::rm::rm3()).with_requests(40);
//! let singular = study.run(ShardingStrategy::Singular).unwrap();
//! assert!(singular.e2e.p50 > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod verify;

pub use dlrm_cluster::Study;
pub use verify::{verify_distributed_equivalence, EquivalenceReport, VerifyError};

/// Measurement primitives (percentiles, summaries, overheads).
pub use dlrm_metrics as metrics;
/// Executable DLRM models and the RM1/RM2/RM3 specifications.
pub use dlrm_model as model;
/// Discrete-event simulation kernel.
pub use dlrm_sim as sim;
/// Sharding strategies, planner and graph partitioner.
pub use dlrm_sharding as sharding;
/// The serving engine: frontend, shard transports, replicas, tenancy.
pub use dlrm_serving as serving;
/// The calibrated cluster simulator and its experiment harness.
pub use dlrm_cluster as cluster;
/// Cross-layer distributed tracing.
pub use dlrm_trace as trace;
/// Quantization/pruning (Table V).
pub use dlrm_compress as compress;
/// Request workloads and pooling profiles.
pub use dlrm_workload as workload;
/// Dense tensor kernels.
pub use dlrm_tensor as tensor;
/// Intra-op thread pool and recycled-buffer runtime.
pub use dlrm_runtime as runtime;
