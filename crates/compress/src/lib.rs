//! Embedding-table compression: quantization and size accounting
//! (§VII-D).
//!
//! The paper evaluates the production compression pipeline on RM1
//! (Table V): "All tables were row-wise linear quantized to at least
//! 8-bits, and sufficiently large tables were quantized to 4-bits.
//! Tables were manually pruned ... based on a threshold magnitude or
//! training update frequency." The result — 5.56× smaller, marginally
//! *better* latency — supports the paper's conclusion that compression
//! is complementary to, not a substitute for, distributed inference.
//!
//! This crate implements the 8-bit kernel the engine's compressed tier
//! serves from ([`QuantizedTable`]) plus analytic size accounting
//! ([`CompressionPolicy`]) for paper-scale virtual tables; Table V's
//! 4-bit and pruning terms are analytic only. Table codecs only: the
//! shard service that holds a table quantized is
//! `dlrm_sharding::ShardService`, which depends on this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod policy;
mod quantize;

pub use policy::CompressionPolicy;
pub use quantize::QuantizedTable;
