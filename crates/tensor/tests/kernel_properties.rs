//! Property-style tests for the blocked/parallel kernel runtime,
//! driven by deterministic [`SimRng`] case generation.
//!
//! Two contracts from DESIGN §3.3 are asserted here, **bitwise**:
//!
//! 1. The blocked/register-tiled kernels compute the exact same floats
//!    as the naive `_reference` oracles (one accumulator per output
//!    element, ascending-k fold).
//! 2. Results are identical for any worker count — row partitioning
//!    assigns each output row to exactly one task, so 1, 2, 4 and 8
//!    workers produce the same bits.
//!
//! Both hold for the prepacked path ([`matmul_packed_into`]) as for the
//! pack-per-call entry points, on every kernel tier.

use dlrm_runtime::{KernelDispatch, Pool};
use dlrm_sim::SimRng;
use dlrm_tensor::{
    concat_cols, concat_cols_into, matmul_into, matmul_packed_into, matmul_transb_into, Matrix,
    PackedWeights,
};

const CASES: usize = 48;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// An `r × c` matrix with elements uniform in `[-4, 4)` — small enough
/// to keep products finite, irregular enough to expose ordering bugs.
fn matrix(rng: &mut SimRng, r: usize, c: usize) -> Matrix {
    let data: Vec<f32> = (0..r * c)
        .map(|_| rng.next_range(-4.0, 4.0) as f32)
        .collect();
    Matrix::from_vec(r, c, data)
}

/// A random GEMM shape spanning the kernel's edge cases: below one
/// tile, straddling tile boundaries, and multi-tile.
fn shape(rng: &mut SimRng) -> (usize, usize, usize) {
    (
        1 + rng.next_index(40),
        1 + rng.next_index(40),
        1 + rng.next_index(40),
    )
}

#[test]
fn blocked_matmul_matches_reference_bitwise() {
    let mut rng = SimRng::seed_from(0x0B10_C4ED).fork(1);
    for case in 0..CASES {
        let (m, k, n) = shape(&mut rng);
        let a = matrix(&mut rng, m, k);
        let b = matrix(&mut rng, k, n);
        assert_eq!(
            a.matmul(&b),
            a.matmul_reference(&b),
            "case {case}: {m}x{k}x{n}"
        );
    }
}

#[test]
fn tiled_transb_matches_reference_bitwise() {
    let mut rng = SimRng::seed_from(0x0B10_C4ED).fork(2);
    for case in 0..CASES {
        let (m, k, n) = shape(&mut rng);
        let a = matrix(&mut rng, m, k);
        let b = matrix(&mut rng, n, k);
        assert_eq!(
            a.matmul_transb(&b),
            a.matmul_transb_reference(&b),
            "case {case}: {m}x{k}x({n}x{k})T"
        );
    }
}

#[test]
fn matmul_bit_exact_across_worker_counts() {
    let mut rng = SimRng::seed_from(0x0B10_C4ED).fork(3);
    // The fixed shape clears the parallel-grain threshold (2^18 MACs),
    // so multi-worker pools genuinely fork; the random shapes cover the
    // inline fast path and uneven row partitions.
    let mut shapes = vec![(96, 64, 64)];
    for _ in 0..12 {
        shapes.push(shape(&mut rng));
    }
    for (m, k, n) in shapes {
        let a = matrix(&mut rng, m, k);
        let b = matrix(&mut rng, k, n);
        let oracle = a.matmul_reference(&b);
        for workers in WORKER_COUNTS {
            assert_eq!(
                a.matmul_par(&b, &Pool::new(workers)),
                oracle,
                "{m}x{k}x{n} at {workers} workers"
            );
        }
    }
}

#[test]
fn transb_bit_exact_across_worker_counts() {
    let mut rng = SimRng::seed_from(0x0B10_C4ED).fork(4);
    let mut shapes = vec![(96, 64, 64)];
    for _ in 0..12 {
        shapes.push(shape(&mut rng));
    }
    for (m, k, n) in shapes {
        let a = matrix(&mut rng, m, k);
        let b = matrix(&mut rng, n, k);
        let oracle = a.matmul_transb_reference(&b);
        for workers in WORKER_COUNTS {
            assert_eq!(
                a.matmul_transb_par(&b, &Pool::new(workers)),
                oracle,
                "{m}x{k}x({n}x{k})T at {workers} workers"
            );
        }
    }
}

/// The exact AVX2 tier must be bitwise-equal to the scalar kernel:
/// it vectorizes across output columns with separate mul/add, so each
/// element's ascending-k fold is unchanged (DESIGN §3.8). Shapes from
/// `shape()` include plenty of dims that are not multiples of 8, so
/// every ragged-tail path is exercised. Skips (vacuously passes) on
/// hosts without AVX2.
#[test]
fn avx2_matmul_matches_scalar_bitwise_including_ragged_tails() {
    let Some(avx2) = KernelDispatch::forced_avx2() else {
        return;
    };
    let scalar = Pool::with_dispatch(1, KernelDispatch::scalar());
    let simd = Pool::with_dispatch(1, avx2);
    let mut rng = SimRng::seed_from(0x0B10_C4ED).fork(7);
    for case in 0..CASES {
        let (m, k, n) = shape(&mut rng);
        let a = matrix(&mut rng, m, k);
        let b = matrix(&mut rng, k, n);
        let mut expect = Matrix::zeros(m, n);
        let mut got = Matrix::zeros(m, n);
        matmul_into(&a, &b, &mut expect, &scalar);
        matmul_into(&a, &b, &mut got, &simd);
        assert_eq!(got, expect, "case {case}: {m}x{k}x{n}");
    }
}

/// As above for the `A · Bᵀ` kernel: the 8-column panel packing is pure
/// data movement, so the vectorized kernel must match the scalar tiles
/// bit for bit on every shape, ragged tails included.
#[test]
fn avx2_transb_matches_scalar_bitwise_including_ragged_tails() {
    let Some(avx2) = KernelDispatch::forced_avx2() else {
        return;
    };
    let scalar = Pool::with_dispatch(1, KernelDispatch::scalar());
    let simd = Pool::with_dispatch(1, avx2);
    let mut rng = SimRng::seed_from(0x0B10_C4ED).fork(8);
    for case in 0..CASES {
        let (m, k, n) = shape(&mut rng);
        let a = matrix(&mut rng, m, k);
        let b = matrix(&mut rng, n, k);
        let mut expect = Matrix::zeros(m, n);
        let mut got = Matrix::zeros(m, n);
        matmul_transb_into(&a, &b, &mut expect, &scalar);
        matmul_transb_into(&a, &b, &mut got, &simd);
        assert_eq!(got, expect, "case {case}: {m}x{k}x({n}x{k})T");
    }
}

/// SIMD dispatch composes with row-parallelism: the vectorized kernels
/// must stay bit-exact with the reference oracle for every worker
/// count, because chunking still only partitions output rows.
#[test]
fn avx2_kernels_bit_exact_across_worker_counts() {
    let Some(avx2) = KernelDispatch::forced_avx2() else {
        return;
    };
    let mut rng = SimRng::seed_from(0x0B10_C4ED).fork(9);
    let mut shapes = vec![(96, 64, 64)];
    for _ in 0..8 {
        shapes.push(shape(&mut rng));
    }
    for (m, k, n) in shapes {
        let a = matrix(&mut rng, m, k);
        let b = matrix(&mut rng, k, n);
        let bt = matrix(&mut rng, n, k);
        let oracle = a.matmul_reference(&b);
        let oracle_t = a.matmul_transb_reference(&bt);
        for workers in WORKER_COUNTS {
            let pool = Pool::with_dispatch(workers, avx2);
            let mut out = Matrix::zeros(m, n);
            matmul_into(&a, &b, &mut out, &pool);
            assert_eq!(out, oracle, "{m}x{k}x{n} at {workers} workers");
            let mut out = Matrix::zeros(m, n);
            matmul_transb_into(&a, &bt, &mut out, &pool);
            assert_eq!(out, oracle_t, "{m}x{k}x({n}x{k})T at {workers} workers");
        }
    }
}

/// The FMA-contracted tier drops one rounding per multiply-add, so it
/// is *not* bit-exact — but it must stay within the documented bound.
/// With elements in `[-4, 4)` every product is `< 16`, partial sums are
/// `< 16k`, and each of the `k` contractions perturbs the running sum
/// by at most one ulp, so `32 · k · ε_f32 · 16` is a conservative
/// absolute bound (DESIGN §3.8). Skips on hosts without AVX2+FMA.
#[test]
fn fma_gemm_matches_scalar_within_documented_tolerance() {
    let Some(fma) = KernelDispatch::forced_fma() else {
        return;
    };
    let pool = Pool::with_dispatch(1, fma);
    let mut rng = SimRng::seed_from(0x0B10_C4ED).fork(10);
    for case in 0..CASES {
        let (m, k, n) = shape(&mut rng);
        let tol = 32.0 * k as f32 * f32::EPSILON * 16.0;
        let a = matrix(&mut rng, m, k);
        let b = matrix(&mut rng, k, n);
        let oracle = a.matmul_reference(&b);
        let mut got = Matrix::zeros(m, n);
        matmul_into(&a, &b, &mut got, &pool);
        assert!(got.approx_eq(&oracle, tol), "case {case}: {m}x{k}x{n}");
        let bt = matrix(&mut rng, n, k);
        let oracle_t = a.matmul_transb_reference(&bt);
        let mut got = Matrix::zeros(m, n);
        matmul_transb_into(&a, &bt, &mut got, &pool);
        assert!(got.approx_eq(&oracle_t, tol), "case {case}: {m}x{k}x({n}x{k})T");
    }
}

/// The prepacked path over ragged shapes: the `n` values cover every
/// panel mix (16-wide, the single 8-wide, 1-wide tails, and each
/// alone), `k` is odd so the kernels' 2-deep k-unroll takes its
/// remainder step, and `m` in 1..=13 runs every row tile (6 and each
/// remainder 1–5) of the SIMD tiers and both scalar tiles. Scalar and exact AVX2 must
/// equal the reference bit for bit (hence each other); FMA must stay
/// inside the k-scaled tolerance of
/// `fma_gemm_matches_scalar_within_documented_tolerance`; and packing
/// must be lossless.
#[test]
fn packed_matches_reference_on_every_tier_panel_and_tile() {
    let mut exact = vec![Pool::with_dispatch(1, KernelDispatch::scalar())];
    exact.extend(KernelDispatch::forced_avx2().map(|d| Pool::with_dispatch(1, d)));
    let fma = KernelDispatch::forced_fma().map(|d| Pool::with_dispatch(1, d));
    let mut rng = SimRng::seed_from(0x0B10_C4ED).fork(11);
    for n in [1, 7, 8, 9, 15, 16, 17, 24, 33] {
        for k in [1, 7, 33] {
            let w = matrix(&mut rng, n, k);
            let packed = PackedWeights::pack(&w);
            assert_eq!((packed.rows(), packed.cols()), (n, k));
            assert_eq!(packed.unpack(), w, "unpack(pack(W)) for {n}x{k}");
            for m in 1..=13 {
                let a = matrix(&mut rng, m, k);
                let oracle = a.matmul_transb_reference(&w);
                for pool in &exact {
                    // Dirty output: every element must be overwritten.
                    let mut got = Matrix::from_vec(m, n, vec![f32::NAN; m * n]);
                    matmul_packed_into(&a, &packed, &mut got, pool);
                    let tier = pool.dispatch().level();
                    assert_eq!(got, oracle, "{m}x{k}x({n}x{k})T on {tier}");
                }
                if let Some(pool) = &fma {
                    let tol = 32.0 * k as f32 * f32::EPSILON * 16.0;
                    let mut got = Matrix::zeros(m, n);
                    matmul_packed_into(&a, &packed, &mut got, pool);
                    assert!(got.approx_eq(&oracle, tol), "{m}x{k}x({n}x{k})T on fma");
                }
            }
        }
    }
}

/// Row-parallelism over prepacked weights: chunking only partitions
/// output rows, so 1–8 workers agree with the reference bitwise. The
/// fixed shape clears the parallel-grain threshold so pools genuinely
/// fork; 13 rows over 8 workers leaves ragged (and empty) chunks.
#[test]
fn packed_bit_exact_across_worker_counts() {
    let mut rng = SimRng::seed_from(0x0B10_C4ED).fork(12);
    for (m, k, n) in [(96, 64, 64), (13, 129, 161), (7, 5, 3)] {
        let a = matrix(&mut rng, m, k);
        let w = matrix(&mut rng, n, k);
        let packed = PackedWeights::pack(&w);
        let oracle = a.matmul_transb_reference(&w);
        for workers in 1..=8 {
            let mut got = Matrix::zeros(m, n);
            matmul_packed_into(&a, &packed, &mut got, &Pool::new(workers));
            assert_eq!(got, oracle, "{m}x{k}x({n}x{k})T at {workers} workers");
        }
    }
}

#[test]
fn blocked_transpose_roundtrips_and_relocates_every_element() {
    let mut rng = SimRng::seed_from(0x0B10_C4ED).fork(5);
    // Shapes chosen around the 32-element transpose block: exact
    // multiples, remainders on one axis, and tiny matrices.
    for (r, c) in [(1, 1), (32, 32), (33, 31), (64, 40), (7, 100), (100, 7)] {
        let _ = rng.next_u64();
        let m = matrix(&mut rng, r, c);
        let t = m.transpose();
        assert_eq!((t.rows(), t.cols()), (c, r));
        for i in 0..r {
            for j in 0..c {
                assert_eq!(t.get(j, i), m.get(i, j), "({i}, {j}) of {r}x{c}");
            }
        }
        assert_eq!(t.transpose(), m, "{r}x{c} roundtrip");
    }
}

#[test]
fn concat_cols_into_matches_allocating_concat() {
    let mut rng = SimRng::seed_from(0x0B10_C4ED).fork(6);
    for case in 0..CASES {
        let rows = 1 + rng.next_index(8);
        let n_parts = 1 + rng.next_index(4);
        let parts: Vec<Matrix> = (0..n_parts)
            .map(|_| {
                let cols = 1 + rng.next_index(6);
                matrix(&mut rng, rows, cols)
            })
            .collect();
        let refs: Vec<&Matrix> = parts.iter().collect();
        let total: usize = parts.iter().map(Matrix::cols).sum();
        // Dirty output: the into-variant must overwrite every element.
        let mut out = Matrix::from_vec(rows, total, vec![f32::NAN; rows * total]);
        concat_cols_into(&refs, &mut out);
        assert_eq!(out, concat_cols(&refs), "case {case}");
    }
}
