//! Distributed-inference serving: the real engine.
//!
//! The open-loop [`frontend`], the shard transports ([`threaded`],
//! [`tcp`], [`shard_server`], [`wire`]), [`replica`] pools, the
//! [`epoch`] switch and transition pipeline, and multi-tenant
//! [`tenancy`] serve `dlrm-sharding`'s partitioned models under a
//! static placement. The calibrated simulator of the paper's serving
//! tier is a separate crate, `dlrm-cluster`; the two share no code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine_trace;
pub mod epoch;
pub mod fault;
pub mod frontend;
pub mod control;
pub mod replica;
pub mod shard_server;
pub mod tcp;
pub mod tenancy;
pub mod threaded;
pub mod wire;
