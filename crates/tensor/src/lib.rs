//! Minimal dense `f32` linear-algebra kernels for the executable DLRM
//! engine.
//!
//! The recommendation models in the ISPASS'21 study are built from a small
//! operator vocabulary: fully-connected layers (matrix multiply + bias),
//! ReLU/Sigmoid activations, feature concatenation, and the sparse
//! `SparseLengthsSum` gather-and-pool (which lives in `dlrm-model` on top
//! of this crate's [`Matrix`] storage). This crate provides exactly those
//! dense kernels — row-major, with every `unsafe` block confined to the
//! audited SIMD tiers in [`simd`]. The GEMMs read one panel-major
//! operand layout ([`PackedWeights`]: packed once for FC weights via
//! [`matmul_packed_into`], per call for [`matmul_into`] and
//! [`matmul_transb_into`]), are register-tiled and optionally
//! output-row-parallel on a `dlrm_runtime::Pool`, and pick a
//! vectorized inner tile when the pool's `KernelDispatch` allows it —
//! while staying **bit-exact** with the naive reference kernels
//! ([`Matrix::matmul_reference`], [`Matrix::matmul_transb_reference`])
//! and across any worker count: every kernel tier keeps one accumulator
//! per output element folded in ascending-`k` order (the exact AVX2 and
//! AVX-512 tiers vectorize across output *columns*, one per lane, with
//! separate mul/add — see the [`simd`] module docs), and parallelism
//! only partitions output rows.
//!
//! # Examples
//!
//! ```
//! use dlrm_tensor::Matrix;
//!
//! let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let w = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
//! let y = x.matmul(&w);
//! assert_eq!(y, x);
//! ```

// `deny` (not `forbid`) so the one audited SIMD module can opt back in
// with an inner `#![allow(unsafe_code)]`; everywhere else unsafe is
// still a hard error.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod gemm;
mod matrix;
mod ops;
mod packed;
pub mod simd;
mod slab;

pub use gemm::{matmul_into, matmul_packed_into, matmul_transb_into};
pub use matrix::Matrix;
pub use packed::PackedWeights;
pub use slab::AlignedSlab;
pub use ops::{concat_cols, concat_cols_into, relu, relu_inplace, sigmoid, sigmoid_inplace};

/// Absolute tolerance used by [`Matrix::approx_eq`] in tests and
/// verification paths.
pub const DEFAULT_TOLERANCE: f32 = 1e-5;
