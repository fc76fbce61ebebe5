//! The calibrated cluster simulator.
//!
//! The paper characterizes its system on reserved bare-metal datacenter
//! servers running customized Thrift + Caffe2 (§III-C, §V-B); this crate
//! substitutes a deterministic discrete-event simulation of that tier,
//! with every latency/compute component the paper's cross-layer trace
//! distinguishes modeled as an explicitly calibrated cost:
//!
//! - [`PlatformSpec`]: SC-Large / SC-Small server classes (§V-B);
//! - [`CostModel`]: per-model calibrated operator, serialization,
//!   service, scheduling and network costs (§IV-B's layers);
//! - [`Cluster`] + [`simulate`]: the event-driven execution of a request
//!   trace against a sharding plan — per-batch asynchronous RPC fan-out,
//!   FCFS cores on every server, per-request batch lanes, memory-
//!   bandwidth contention between co-located SLS operators, clock skew
//!   between servers, Poisson or closed-loop (serial) arrivals;
//! - [`experiment`]: one-call reproduction of a (model, strategy)
//!   configuration yielding the paper's reporting unit — E2E latency and
//!   aggregate CPU-time percentiles plus cross-layer stacks — and
//!   [`Study`], one model and one workload replayed against many
//!   configurations;
//! - [`capacity`]: the highest QPS a configuration sustains under an SLA;
//! - [`replication`]: the §VII-C resource-efficiency planner (servers
//!   and DRAM needed to serve a QPS target, singular vs distributed);
//! - [`paging`]: the SSD-paging alternative to scale-out.
//!
//! Every simulated run is deterministic in its seed: paired request
//! streams, network draws and skews across configurations, which is
//! what makes the per-configuration comparisons of Tables III/IV
//! meaningful. The real engine lives in `dlrm-serving`; the two crates
//! share no code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacity;
mod cluster;
mod cost;
pub mod experiment;
pub mod paging;
mod platform;
pub mod replication;
mod study;

pub use cluster::{simulate, ArrivalProcess, Cluster, RunConfig, RunResult, ShardFault};
pub use cost::CostModel;
pub use experiment::{run_config, ConfigOptions, ConfigResult};
pub use platform::PlatformSpec;
pub use study::Study;
