//! SIMD≡scalar properties for the quantized decode kernels.
//!
//! The vectorized u8/u4 decode-accumulate performs the same three
//! roundings per element as the scalar expression
//! `*o += f32::from(code) * scale + bias` (widen, mul, add-bias, then
//! accumulate), so quantized SLS under every SIMD dispatch the host
//! runs must be **bitwise identical** to scalar dispatch — across both
//! bit widths, ragged and odd embedding dims, empty bags, and every
//! worker count. The AVX-512 level widens the GEMM only: the decode
//! runs its AVX2 body under it, and must give the AVX2 bits.

use dlrm_compress::QuantizedTable;
use dlrm_model::EmbeddingTable;
use dlrm_runtime::{KernelDispatch, Pool};
use dlrm_sim::SimRng;

/// Bags for `n_bags` batch elements over a `rows`-row table; every 7th
/// bag is empty (absent-feature semantics).
fn bags(rng: &mut SimRng, rows: u64, n_bags: usize) -> (Vec<u64>, Vec<u32>) {
    let lengths: Vec<u32> = (0..n_bags)
        .map(|b| if b % 7 == 0 { 0 } else { 6 + rng.next_index(10) as u32 })
        .collect();
    let total: usize = lengths.iter().map(|&l| l as usize).sum();
    let indices: Vec<u64> = (0..total).map(|_| rng.next_u64_below(rows)).collect();
    (indices, lengths)
}

#[test]
fn quantized_sls_simd_matches_scalar_bitwise_across_widths_and_dims() {
    let simd_tiers: Vec<KernelDispatch> = KernelDispatch::exact_tiers().split_off(1);
    let mut rng = SimRng::seed_from(0xDEC0).fork(1);
    for bits in [4u8, 8] {
        // Odd dims exercise the 4-bit high-nibble tail; 1 and 3 stay
        // entirely in the scalar tail of the vectorized kernel.
        for dim in [1u32, 3, 7, 8, 15, 16, 17, 33, 64] {
            let table = EmbeddingTable::seeded("q", 400, dim, u64::from(dim) * 31 + u64::from(bits));
            let q = QuantizedTable::quantize(&table, bits);
            // 300 bags averaging ~10 lookups clears the 2048-lookup
            // parallel threshold, so multi-worker pools genuinely fork.
            let (indices, lengths) = bags(&mut rng, 400, 300);
            let oracle = q.sparse_lengths_sum_par(
                &indices,
                &lengths,
                &Pool::with_dispatch(1, KernelDispatch::scalar()),
            );
            for &tier in &simd_tiers {
                for workers in [1, 2, 4, 8] {
                    let pool = Pool::with_dispatch(workers, tier);
                    let got = q.sparse_lengths_sum_par(&indices, &lengths, &pool);
                    let level = tier.level();
                    assert_eq!(got, oracle, "{bits}-bit dim {dim} on {level} at {workers} workers");
                }
            }
        }
    }
}

#[test]
fn row_into_matches_row_for_every_row_and_width() {
    let mut rng = SimRng::seed_from(0xDEC0).fork(2);
    for bits in [4u8, 8] {
        for dim in [1u32, 5, 8, 13, 16, 31] {
            let _ = rng.next_u64();
            let table = EmbeddingTable::seeded("r", 64, dim, u64::from(dim) + u64::from(bits) * 7);
            let q = QuantizedTable::quantize(&table, bits);
            let mut buf = vec![f32::NAN; dim as usize];
            for r in 0..q.rows() {
                q.row_into(r, &mut buf);
                assert_eq!(buf, q.row(r), "{bits}-bit dim {dim} row {r}");
            }
        }
    }
}

#[test]
fn dequantize_roundtrip_unchanged_by_dispatch() {
    // dequantize() runs under the process-detected dispatch; the decode
    // is bitwise-equal across tiers, so the roundtrip error bound from
    // the scalar-era suite must hold unchanged.
    let table = EmbeddingTable::seeded("d", 128, 27, 9);
    for bits in [4u8, 8] {
        let q = QuantizedTable::quantize(&table, bits);
        let deq = q.dequantize();
        for r in 0..q.rows() {
            assert_eq!(deq.row(r), q.row(r).as_slice(), "{bits}-bit row {r}");
        }
    }
}
