//! Property-style tests for the paged tier: a [`PagedTable`] reads the
//! blocks a slice touches into a slab and pools it with the DRAM tier's
//! kernel, so it must answer **bitwise** what its [`EmbeddingTable`]
//! twin answers — on every exact kernel tier, for any worker count, for
//! any slice. Cases are generated from [`SimRng`] streams, so every run
//! exercises the identical case set.

use dlrm_model::{EmbeddingTable, Pool};
use dlrm_sharding::PagedTable;
use dlrm_sim::SimRng;
use dlrm_tensor::simd::KernelDispatch;

const DIMS: [usize; 8] = [1, 2, 3, 7, 32, 64, 128, 257];

/// Raw bit patterns: `-0.0` and `+0.0` differ.
fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Rows per read block: one 4 KiB page rounded down to whole rows, at
/// least one row (the paged tier's documented layout).
fn block_rows(dim: usize) -> usize {
    (4096 / (dim * 4)).max(1)
}

/// `lengths.len()` bags of random rows below `rows`, each bag's first
/// row repeated at its end (a duplicate index per non-empty bag).
fn bags(rng: &mut SimRng, rows: u64, lengths: &[u32]) -> (Vec<u64>, Vec<u32>) {
    let mut indices = Vec::new();
    let mut out = Vec::new();
    for &len in lengths {
        let bag: Vec<u64> = (0..len).map(|_| rng.next_u64_below(rows)).collect();
        indices.extend(&bag);
        indices.extend(bag.first());
        out.push(len + u32::from(len > 0));
    }
    (indices, out)
}

/// The slices one table of `rows` rows and `block`-row blocks is asked:
/// random bags with duplicates and empty bags between full ones, bags
/// only inside the last (partial) block, a slice large enough to fork
/// the pool, an empty slice, bags of nothing, and every row once, in
/// descending order.
fn slices(rng: &mut SimRng, rows: usize, block: usize) -> Vec<(Vec<u64>, Vec<u32>)> {
    let rows64 = rows as u64;
    let last_block = (rows - rows % block) as u64;
    let (mut tail, tail_lengths) = bags(rng, rows64 - last_block, &[3, 0, 1]);
    for i in &mut tail {
        *i += last_block;
    }
    vec![
        bags(rng, rows64, &[0, 5, 0, 1, 17, 0, 3, 40]),
        (tail, tail_lengths),
        bags(rng, rows64, &[150; 16]),
        (vec![], vec![]),
        (vec![], vec![0, 0]),
        ((0..rows64).rev().collect(), vec![1, u32::try_from(rows - 1).expect("small table")]),
    ]
}

/// Every dim around the block arithmetic (a block of 1 024, 512, 341,
/// 146, 32, 16, 8 and 3 rows), each table 40 whole blocks plus a
/// partial one — enough that a sparse slice takes many reads — every
/// slice shape above, every exact tier and 1–3 workers: the paged
/// answer is the DRAM answer, bit for bit.
#[test]
fn paged_equals_dram_bitwise_for_every_dim_slice_tier_and_worker_count() {
    let mut rng = SimRng::seed_from(0x9A6E_D0D0).fork(1);
    for dim in DIMS {
        let block = block_rows(dim);
        let rows = 40 * block + 1 + rng.next_index(block.max(2) - 1);
        assert_ne!(rows % block, 0, "dim {dim}: the last block is partial");
        let dram = EmbeddingTable::seeded("p", rows as u64, dim as u32, 7 + dim as u64);
        let paged = PagedTable::from_table(&dram).expect("spill to a temp file");
        for (indices, lengths) in slices(&mut rng, rows, block) {
            for tier in KernelDispatch::exact_tiers() {
                for workers in 1..=3 {
                    let pool = Pool::with_dispatch(workers, tier);
                    let want = dram.sparse_lengths_sum_par(&indices, &lengths, &pool);
                    let got = paged
                        .sparse_lengths_sum_par(&indices, &lengths, &pool)
                        .expect("a valid slice");
                    assert_eq!(
                        bits(got.as_slice()),
                        bits(want.as_slice()),
                        "dim {dim}, {rows} rows, {} lookups in {} bags on {} at {workers} workers",
                        indices.len(),
                        lengths.len(),
                        tier.level()
                    );
                }
            }
        }
    }
}
