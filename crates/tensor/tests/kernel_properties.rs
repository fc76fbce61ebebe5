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
//! pack-per-call entry points, on every exact kernel tier the host
//! runs (scalar, AVX2, AVX-512) — and for the bag-fused SLS gathers,
//! f32 ([`sls_bags`]) and 8-bit ([`sls_bags_u8`]), against the per-row
//! loops they replaced — and for the parameter draw ([`fill_uniform`]),
//! whose ranges also compose into one fill.

use dlrm_runtime::{KernelDispatch, Pool, SimdLevel};
use dlrm_sim::SimRng;
use dlrm_tensor::simd::{
    fill_uniform, fill_uniform_panel, sls_bags, sls_bags_u8, uniform, GatherError, U8Rows,
    GEMM_PREFETCH_BYTES, SLS_PREFETCH_ROWS,
};
use dlrm_tensor::{
    concat_cols, concat_cols_into, matmul_into, matmul_packed_into, matmul_transb_into, Matrix,
    PackedWeights,
};

const CASES: usize = 48;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Raw bit patterns: `-0.0` and `+0.0` differ, and so do two NaNs with
/// different signs or payloads.
fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Bit patterns with every NaN mapped to one, for the salted GEMM cases
/// only: IEEE 754 leaves the sign and payload of `NaN * NaN` or
/// `NaN + NaN` to the operand order the compiler picks for the scalar
/// oracle, and the tiers need only agree that the element *is* NaN.
fn bits_nan_class(values: &[f32]) -> Vec<u32> {
    let class = |v: &f32| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() };
    values.iter().map(class).collect()
}

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

/// The exact SIMD tiers must be bitwise-equal to the scalar kernel:
/// they vectorize across output columns with separate mul/add, so each
/// element's ascending-k fold is unchanged whatever the vector width
/// (DESIGN §3.8). Shapes from `shape()` include plenty of dims that are
/// not multiples of 8 or 16 and row counts on both sides of the
/// 28-row `zmm` tile, so every ragged-tail path is exercised — through
/// both pack-per-call entry points (packing is pure data movement).
#[test]
fn simd_gemm_matches_scalar_bitwise_including_ragged_tails() {
    let scalar = Pool::with_dispatch(1, KernelDispatch::scalar());
    for tier in KernelDispatch::exact_tiers().into_iter().skip(1) {
        let simd = Pool::with_dispatch(1, tier);
        let level = tier.level();
        let mut rng = SimRng::seed_from(0x0B10_C4ED).fork(7);
        for case in 0..CASES {
            let (m, k, n) = shape(&mut rng);
            let a = matrix(&mut rng, m, k);
            let b = matrix(&mut rng, k, n);
            let bt = matrix(&mut rng, n, k);
            let mut expect = Matrix::zeros(m, n);
            let mut got = Matrix::zeros(m, n);
            matmul_into(&a, &b, &mut expect, &scalar);
            matmul_into(&a, &b, &mut got, &simd);
            assert_eq!(got, expect, "case {case}: {m}x{k}x{n} on {level}");
            matmul_transb_into(&a, &bt, &mut expect, &scalar);
            matmul_transb_into(&a, &bt, &mut got, &simd);
            assert_eq!(got, expect, "case {case}: {m}x{k}x({n}x{k})T on {level}");
        }
    }
}

/// SIMD dispatch composes with row-parallelism: the vectorized kernels
/// must stay bit-exact with the reference oracle for every worker
/// count, because chunking still only partitions output rows.
#[test]
fn simd_kernels_bit_exact_across_worker_counts() {
    for tier in KernelDispatch::exact_tiers().into_iter().skip(1) {
        let level = tier.level();
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
                let pool = Pool::with_dispatch(workers, tier);
                let mut out = Matrix::zeros(m, n);
                matmul_into(&a, &b, &mut out, &pool);
                assert_eq!(out, oracle, "{m}x{k}x{n} on {level} at {workers} workers");
                let mut out = Matrix::zeros(m, n);
                matmul_transb_into(&a, &bt, &mut out, &pool);
                assert_eq!(
                    out, oracle_t,
                    "{m}x{k}x({n}x{k})T on {level} at {workers} workers"
                );
            }
        }
    }
}

/// `values` with a few elements overwritten by the operands a kernel
/// could mishandle: signed zeros, both infinities and NaN.
fn with_specials(rng: &mut SimRng, mut values: Matrix) -> Matrix {
    const SPECIALS: [f32; 6] = [-0.0, 0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1.0];
    let data = values.as_mut_slice();
    for _ in 0..1 + data.len() / 16 {
        data[rng.next_index(data.len())] = SPECIALS[rng.next_index(SPECIALS.len())];
    }
    values
}

/// The prepacked path over ragged shapes: the `n` values cover every
/// panel mix (16-wide, the single 8-wide, 1-wide tails, and each
/// alone), `k` is odd so the `ymm` kernels' 2-deep k-unroll takes its
/// remainder step, and `m` in 1..=33 runs every row tile of every
/// tier: the `ymm` tiers' 6 and each remainder 1–5, the `zmm` tier's
/// 28 and each remainder 1–27 (blocks under 7 rows it hands to the `ymm`
/// kernel), and both scalar tiles. Every exact tier
/// must equal the reference bit for bit (hence each other) on finite
/// operands and on operands salted with −0.0, ±∞ and NaN, into an
/// output full of garbage; and packing must be lossless.
#[test]
fn packed_matches_reference_on_every_tier_panel_and_tile() {
    let exact: Vec<Pool> = KernelDispatch::exact_tiers()
        .into_iter()
        .map(|d| Pool::with_dispatch(1, d))
        .collect();
    let mut rng = SimRng::seed_from(0x0B10_C4ED).fork(11);
    for n in [1, 7, 8, 9, 15, 16, 17, 24, 33] {
        for k in [1, 7, 33] {
            let w = matrix(&mut rng, n, k);
            let packed = PackedWeights::pack(&w);
            assert_eq!((packed.rows(), packed.cols()), (n, k));
            assert_eq!(packed.unpack(), w, "unpack(pack(W)) for {n}x{k}");
            let salted_w = with_specials(&mut rng, w.clone());
            let salted_packed = PackedWeights::pack(&salted_w);
            for m in 1..=33 {
                let a = matrix(&mut rng, m, k);
                let oracle = a.matmul_transb_reference(&w);
                let salted_a = with_specials(&mut rng, a.clone());
                let salted_oracle = salted_a.matmul_transb_reference(&salted_w);
                for pool in &exact {
                    let tier = pool.dispatch().level();
                    // Dirty output: every element must be overwritten.
                    let mut got = Matrix::from_vec(m, n, vec![f32::NAN; m * n]);
                    matmul_packed_into(&a, &packed, &mut got, pool);
                    assert_eq!(
                        bits(got.as_slice()),
                        bits(oracle.as_slice()),
                        "{m}x{k}x({n}x{k})T on {tier}"
                    );
                    got.as_mut_slice().fill(7.0);
                    matmul_packed_into(&salted_a, &salted_packed, &mut got, pool);
                    assert_eq!(
                        bits_nan_class(got.as_slice()),
                        bits_nan_class(salted_oracle.as_slice()),
                        "salted {m}x{k}x({n}x{k})T on {tier}"
                    );
                }
            }
        }
    }
}

/// Row-parallelism over prepacked weights: chunking only partitions
/// output rows, so 1–8 workers agree with the reference bitwise on
/// every exact tier. The fixed shape clears the parallel-grain
/// threshold so pools genuinely fork (one worker runs 96 rows as three
/// full `zmm` tiles and a 12-row one, eight run one 12-row tile each);
/// 13 rows over 8 workers leaves ragged (and empty) chunks, each short
/// enough for the `ymm` kernel. The other shapes are where the weight
/// prefetch's clamp binds: `k·64` bytes (one 16-wide panel) just under,
/// at and just over [`GEMM_PREFETCH_BYTES`], over n = 8 (one 8-wide
/// panel), 16, 24 (16 + 8) and 25 (16 + 8 + a 1-wide tail), with one
/// row (the `ymm` tile), seven (the `zmm` tile) and 600 (past the grain).
#[test]
fn packed_bit_exact_across_worker_counts() {
    let mut rng = SimRng::seed_from(0x0B10_C4ED).fork(12);
    let line_k = GEMM_PREFETCH_BYTES / 64;
    let clamped = [line_k - 1, line_k, line_k + 1].into_iter().flat_map(|k| {
        [8, 16, 24, 25].into_iter().flat_map(move |n| [1, 7, 600].map(|m| (m, k, n)))
    });
    for (m, k, n) in [(96, 64, 64), (13, 129, 161), (7, 5, 3)].into_iter().chain(clamped) {
        let a = matrix(&mut rng, m, k);
        let w = matrix(&mut rng, n, k);
        let packed = PackedWeights::pack(&w);
        let oracle = a.matmul_transb_reference(&w);
        for tier in KernelDispatch::exact_tiers() {
            for workers in 1..=8 {
                let mut got = Matrix::zeros(m, n);
                matmul_packed_into(&a, &packed, &mut got, &Pool::with_dispatch(workers, tier));
                let level = tier.level();
                assert_eq!(
                    bits(got.as_slice()),
                    bits(oracle.as_slice()),
                    "{m}x{k}x({n}x{k})T on {level} at {workers} workers"
                );
            }
        }
    }
}

/// The SLS inner loop the fused gather replaced, kept as the oracle:
/// zero the bag's output row, then `out += row` per lookup in index
/// order.
fn sls_per_row(slab: &[f32], dim: usize, indices: &[u64], lengths: &[u32]) -> Vec<f32> {
    let mut out = vec![0.0f32; lengths.len() * dim];
    let mut cursor = 0usize;
    for (&len, out_row) in lengths.iter().zip(out.chunks_exact_mut(dim)) {
        for &idx in &indices[cursor..cursor + len as usize] {
            let row = &slab[idx as usize * dim..(idx as usize + 1) * dim];
            for (o, &v) in out_row.iter_mut().zip(row) {
                *o += v;
            }
        }
        cursor += len as usize;
    }
    out
}

/// The exact tiers the host can run the gather on (under the AVX-512
/// level the gather keeps its AVX2 body; `Avx2`'s bits are the claim).
fn sls_tiers() -> Vec<SimdLevel> {
    KernelDispatch::exact_tiers()
        .into_iter()
        .map(KernelDispatch::level)
        .collect()
}

const SLS_ROWS: usize = 97;

/// A 97-row slab whose row 0 is all `-0.0`, row 1 all `+∞` and row 2
/// all `-∞`, and a run of bags built to hit the kernel's edges: bag
/// lengths on both sides of the prefetch distance `D`, a 1 000-row bag
/// (plenty of duplicate indices), a bag of one repeated index, a bag
/// holding only the `-0.0` row (the per-row loop pools it to `+0.0`, so
/// accumulators must start there, not at the first row), empty bags
/// between full ones, and a final bag shorter than `D` whose last
/// lookup is the slab's last row — every look-ahead from it must stay
/// inside `indices`.
fn sls_case(rng: &mut SimRng, dim: usize) -> (Vec<f32>, Vec<u64>, Vec<u32>) {
    let d = SLS_PREFETCH_ROWS as u32;
    let mut slab: Vec<f32> = (0..SLS_ROWS * dim).map(|_| rng.next_range(-4.0, 4.0) as f32).collect();
    slab[..dim].fill(-0.0);
    slab[dim..2 * dim].fill(f32::INFINITY);
    slab[2 * dim..3 * dim].fill(f32::NEG_INFINITY);
    let lengths = vec![1000, 0, d, 0, 0, d + 1, 1, 2 * d + 3, 0, d - 1, 2, 1000, 0, 3];
    let mut indices: Vec<u64> = Vec::new();
    let rows = SLS_ROWS as u64;
    for &len in &lengths {
        match len {
            1 => indices.push(0),
            2 => indices.extend([5, 5]),
            // The 1 000-row bags stay finite, so most elements compare
            // as sums rather than as NaN.
            1000 => indices.extend((0..len).map(|_| 3 + rng.next_u64_below(rows - 3))),
            _ => indices.extend((0..len).map(|_| rng.next_u64_below(rows))),
        }
    }
    *indices.last_mut().expect("the final bag has rows") = rows - 1;
    (slab, indices, lengths)
}

const SLS_DIMS: [usize; 18] = [1, 3, 7, 8, 9, 13, 16, 27, 31, 32, 33, 64, 100, 128, 129, 136, 200, 300];

/// The fused gather pools each bag in registers and stores each output
/// element once; per element that is still "start at +0.0, add the
/// rows in index order", so both tiers must equal the per-row loop bit
/// for bit — for every column-block mix (`dim` below 8, ragged, one
/// 128-float block, more than one), every bag length around the
/// prefetch distance, and into an output full of garbage.
#[test]
fn fused_sls_matches_the_per_row_loop_bitwise_on_every_tier() {
    let mut rng = SimRng::seed_from(0x0B10_C4ED).fork(13);
    for dim in SLS_DIMS {
        let (slab, indices, lengths) = sls_case(&mut rng, dim);
        let oracle = sls_per_row(&slab, dim, &indices, &lengths);
        assert_eq!(oracle[6 * dim].to_bits(), 0.0f32.to_bits(), "a -0.0 bag pools to +0.0");
        for level in sls_tiers() {
            let mut got = vec![f32::NAN; lengths.len() * dim];
            sls_bags(level, &slab, dim, &indices, &lengths, &mut got).expect("a valid run");
            assert_eq!(bits(&got), bits(&oracle), "dim {dim} on {level}");
        }
    }
}

/// The 8-bit SLS loop the bag loop replaced, kept as the oracle: zero
/// the bag's output row, then `out += f32(code) * scale + bias` per
/// lookup in index order.
fn sls_u8_per_row(
    (codes, scales, biases): (&[u8], &[f32], &[f32]),
    dim: usize,
    indices: &[u64],
    lengths: &[u32],
) -> Vec<f32> {
    let mut out = vec![0.0f32; lengths.len() * dim];
    let mut cursor = 0usize;
    for (&len, out_row) in lengths.iter().zip(out.chunks_exact_mut(dim)) {
        for &idx in &indices[cursor..cursor + len as usize] {
            let r = idx as usize;
            for (o, &code) in out_row.iter_mut().zip(&codes[r * dim..(r + 1) * dim]) {
                *o += f32::from(code) * scales[r] + biases[r];
            }
        }
        cursor += len as usize;
    }
    out
}

/// The 8-bit loop pools each bag in registers and stores each output
/// element once; per element that is still "start at +0.0, add each
/// decoded row in index order", so every tier must equal the per-row
/// loop bit for bit — over the same bags and dims as the f32 gather.
/// Row 0 decodes to all `-0.0` (scale and bias `-0.0`), so its bag of
/// one pools to `+0.0`; rows 1 and 2 have `±∞` biases.
#[test]
fn u8_sls_matches_the_per_row_loop_bitwise_on_every_tier() {
    let mut rng = SimRng::seed_from(0x0B10_C4ED).fork(15);
    for dim in SLS_DIMS {
        let (_, indices, lengths) = sls_case(&mut rng, dim);
        let codes: Vec<u8> = (0..SLS_ROWS * dim).map(|_| rng.next_u64_below(256) as u8).collect();
        let mut row_f32 = |lo, hi| -> Vec<f32> {
            (0..SLS_ROWS).map(|_| rng.next_range(lo, hi) as f32).collect()
        };
        let (mut scales, mut biases) = (row_f32(0.0, 0.05), row_f32(-4.0, 0.0));
        (scales[0], biases[0]) = (-0.0, -0.0);
        (biases[1], biases[2]) = (f32::INFINITY, f32::NEG_INFINITY);
        let oracle = sls_u8_per_row((&codes, &scales, &biases), dim, &indices, &lengths);
        assert_eq!(oracle[6 * dim].to_bits(), 0.0f32.to_bits(), "a -0.0 bag pools to +0.0");
        let rows = U8Rows::new(&codes, &scales, &biases, dim);
        for level in sls_tiers() {
            let mut got = vec![f32::NAN; lengths.len() * dim];
            sls_bags_u8(level, rows, &indices, &lengths, &mut got).expect("a valid run");
            assert_eq!(bits(&got), bits(&oracle), "dim {dim} on {level}");
            let err = sls_bags_u8(level, rows, &[0, u64::MAX], &[2], &mut got[..dim]).unwrap_err();
            assert_eq!(err, GatherError::IndexOutOfRange { index: u64::MAX, rows: SLS_ROWS });
        }
    }
}

/// The bag-parallel driver hands each worker a contiguous run of bags;
/// every output row is pooled by one kernel call, so 1–8 workers agree
/// with the per-row loop bitwise (2 089 lookups clear the fork
/// threshold; 14 bags over 8 workers leaves ragged chunks).
#[test]
fn fused_sls_bit_exact_across_worker_counts() {
    let mut rng = SimRng::seed_from(0x0B10_C4ED).fork(14);
    for dim in [3, 64, 129] {
        let (slab, indices, lengths) = sls_case(&mut rng, dim);
        let oracle = sls_per_row(&slab, dim, &indices, &lengths);
        for level in sls_tiers() {
            for workers in 1..=8 {
                let mut got = vec![f32::NAN; lengths.len() * dim];
                Pool::new(workers)
                    .par_bags(&indices, &lengths, dim, &mut got, |indices, lengths, out_rows| {
                        sls_bags(level, &slab, dim, indices, lengths, out_rows)
                    })
                    .expect("a valid run");
                assert_eq!(bits(&got), bits(&oracle), "dim {dim} on {level} at {workers} workers");
            }
        }
    }
}

/// A bad run is rejected by the kernel's one validation pass, before
/// any row is gathered: the error names the largest index, and the
/// output is untouched. `u64::MAX` as a row would fault if it were ever
/// turned into an address. The driver hands an uncovered run over
/// whole, so the same verdict comes back through it.
#[test]
fn fused_sls_rejects_bad_runs_without_gathering() {
    let slab = vec![1.0f32; 4 * 8];
    for level in sls_tiers() {
        let mut out = vec![7.0f32; 2 * 8];
        let err = sls_bags(level, &slab, 8, &[0, 4, u64::MAX], &[2, 1], &mut out).unwrap_err();
        assert_eq!(err, GatherError::IndexOutOfRange { index: u64::MAX, rows: 4 });
        let err = sls_bags(level, &slab, 8, &[0, 1, 2], &[2, 2], &mut out).unwrap_err();
        assert_eq!(err, GatherError::LengthMismatch { lengths_sum: 4, indices: 3 });
        assert_eq!(out, vec![7.0f32; 2 * 8], "a rejected run writes nothing");
    }
    let lengths = vec![100u32; 30];
    let mut out = vec![0.0f32; 30 * 8];
    let short = vec![0u64; 2999];
    let err = Pool::new(4)
        .par_bags(&short, &lengths, 8, &mut out, |indices, lengths, out_rows| {
            sls_bags(SimdLevel::Scalar, &slab, 8, indices, lengths, out_rows)
        })
        .unwrap_err();
    assert_eq!(err, GatherError::LengthMismatch { lengths_sum: 3000, indices: 2999 });
    let mut far = vec![0u64; 3000];
    far[2500] = 9;
    far[700] = 4;
    let err = Pool::new(4)
        .par_bags(&far, &lengths, 8, &mut out, |indices, lengths, out_rows| {
            sls_bags(SimdLevel::Scalar, &slab, 8, indices, lengths, out_rows)
        })
        .unwrap_err();
    assert_eq!(err, GatherError::IndexOutOfRange { index: 4, rows: 4 }, "the earliest run's error");
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

/// Index offsets the fill cases start from: zero, small, a ragged
/// 8-lane block, just under and over a high-word boundary of the
/// counter, and near the end of its range (indices wrap).
const FILL_STARTS: [u64; 7] = [0, 1, 7, 1 << 20, (1 << 32) - 13, (1 << 32) + 5, u64::MAX - 40];

/// The parameter draw on every exact tier equals the scalar loop, and
/// the scalar loop is [`uniform`] times the scale, for ragged lengths
/// and every start offset; filling a range in pieces of any size gives
/// the bits of one fill.
#[test]
fn fill_uniform_matches_scalar_on_every_tier_and_any_split_equals_one_fill() {
    let mut rng = SimRng::seed_from(0xF111_0000).fork(1);
    for case in 0..CASES {
        let len = rng.next_index(300);
        let start = FILL_STARTS[case % FILL_STARTS.len()].wrapping_add(rng.next_index(8) as u64);
        let (key, scale) = (rng.next_u64(), [1.0, 0.1, 0.37][case % 3]);
        let at = |j: usize| start.wrapping_add(j as u64);
        let oracle: Vec<f32> = (0..len).map(|j| uniform(key, at(j)) * scale).collect();
        for level in sls_tiers() {
            let mut one = vec![f32::NAN; len];
            fill_uniform(level, key, start, scale, &mut one);
            assert_eq!(bits(&one), bits(&oracle), "case {case}: {len} from {start} on {level}");
            let mut pieces = vec![f32::NAN; len];
            let mut j = 0;
            while j < len {
                let end = (j + 1 + rng.next_index(40)).min(len);
                fill_uniform(level, key, at(j), scale, &mut pieces[j..end]);
                j = end;
            }
            assert_eq!(bits(&pieces), bits(&oracle), "case {case}: pieces on {level}");
        }
    }
}

/// The packed-order draw holds element `first + l·k + kk` at
/// `kk·width + l` on every tier, for the FC panel widths (16, 8, the
/// 1-wide tail) and a width no panel has, including panels whose
/// indices cross a high-word boundary.
#[test]
fn fill_uniform_panel_places_element_l_k_plus_kk_on_every_tier() {
    let mut rng = SimRng::seed_from(0xF111_0000).fork(2);
    for case in 0..CASES {
        let (width, k) = ([16, 8, 1, 3][case % 4], rng.next_index(40));
        let first = FILL_STARTS[case % FILL_STARTS.len()].wrapping_add(rng.next_index(8) as u64);
        let (key, scale) = (rng.next_u64(), 0.25);
        let mut oracle = vec![0.0f32; width * k];
        for (kk, group) in oracle.chunks_exact_mut(width).enumerate() {
            for (l, v) in group.iter_mut().enumerate() {
                *v = uniform(key, first.wrapping_add((l * k + kk) as u64)) * scale;
            }
        }
        for level in sls_tiers() {
            let mut panel = vec![f32::NAN; width * k];
            fill_uniform_panel(level, key, first, width, scale, &mut panel);
            let what = format!("case {case}: {width}x{k} from {first} on {level}");
            assert_eq!(bits(&panel), bits(&oracle), "{what}");
        }
    }
}

/// The stream is a uniform on `[-0.5, 0.5)`, not a degenerate hash:
/// over 2²⁰ draws at each of three keys the mean is 0, the variance
/// 1/12 and neighbours are uncorrelated, each within about six standard
/// errors; every draw is on the 2⁻²⁴ grid and inside the interval.
#[test]
fn fill_uniform_has_the_moments_of_a_uniform() {
    let n = 1 << 20;
    for key in [0, 1, 0x9E37_79B9_7F4A_7C15] {
        let mut v = vec![0.0f32; n];
        fill_uniform(KernelDispatch::detect().level(), key, 0, 1.0, &mut v);
        let on_grid = |x: f32| (-0.5..0.5).contains(&x) && (x * (1 << 24) as f32).fract() == 0.0;
        assert!(v.iter().all(|&x| on_grid(x)), "key {key}: a draw off the 2^-24 grid");
        let mean = v.iter().map(|&x| f64::from(x)).sum::<f64>() / n as f64;
        let var = v.iter().map(|&x| (f64::from(x) - mean).powi(2)).sum::<f64>() / n as f64;
        let lag1 = v.windows(2).map(|w| f64::from(w[0]) * f64::from(w[1])).sum::<f64>() / n as f64;
        assert!(mean.abs() < 2e-3, "key {key}: mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 5e-4, "key {key}: variance {var}");
        assert!((lag1 / var).abs() < 6e-3, "key {key}: lag-1 correlation {}", lag1 / var);
    }
}
