//! Capacity-driven model sharding: the paper's core contribution.
//!
//! Terabyte-scale recommendation models cannot fit on one server, so the
//! model graph is *sharded*: every `SparseLengthsSum` operator and its
//! embedding table moves to a remote **sparse shard**, and the **main
//! shard** (all dense layers) reaches them through asynchronous RPC
//! operators (§III). This crate implements:
//!
//! - [`ShardingStrategy`]: the evaluated strategies of Table I —
//!   singular, 1-shard, capacity-balanced, load-balanced, and
//!   net-specific bin-packing (NSBP), at 2/4/8 shards;
//! - [`plan()`]: the planner producing a [`ShardingPlan`] (which table
//!   lives on which shard, including row-wise modulus partitioning of
//!   tables too large for any single shard, §III-A1);
//! - plan introspection reproducing Table II (per-shard capacity, table
//!   count, estimated pooling factor);
//! - [`partition()`]: the graph-rewrite tool of §III-C — builds per-shard
//!   sparse nets and replaces the main net's SLS operators with
//!   [`rpc::SparseRpc`] operators, verified bit-compatible with singular
//!   execution;
//! - [`ShardService`]: the one sparse-shard service, holding each hosted
//!   table at its storage [`Tier`] (DRAM f32, 8-bit quantized, or paged
//!   to a backing file);
//! - [`auto`]: an automatic sharding search (the paper's proposed future
//!   work) used for ablation benches.
//!
//! # Examples
//!
//! ```
//! use dlrm_sharding::{plan, ShardingStrategy};
//! use dlrm_workload::PoolingProfile;
//!
//! let spec = dlrm_model::rm::rm1();
//! let profile = PoolingProfile::from_spec(&spec);
//! let p = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(8))?;
//! assert_eq!(p.num_shards(), 8);
//! # Ok::<(), dlrm_sharding::PlanError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auto;
mod cache;
mod partition;
mod plan;
mod planner;
pub mod publish;
pub mod rpc;
mod shard_service;
mod store;
mod strategy;

pub use cache::{CacheTotals, HotRowCache};
pub use partition::{partition, partition_with_clients, DistributedModel, PartitionError};
pub use rpc::{RpcError, RpcPolicy};
pub use plan::{Location, ShardId, ShardingPlan, TablePlacement};
pub use planner::{plan, plan_with_stats, HotRowConfig, PlanError};
pub use shard_service::{InProcessClient, ShardService};
pub use store::{PagedTable, TableStore, Tier, TierBytes, DEMOTED_BITS};
pub use strategy::ShardingStrategy;
