//! The SIMD kernel tiers (`core::arch::x86_64`, std-only): exact AVX2
//! and exact AVX-512 (GEMM only).
//!
//! Every `unsafe` block in the workspace lives in this module, behind
//! safe dispatch wrappers. The wrappers take the resolved
//! [`SimdLevel`] (see `dlrm_runtime::KernelDispatch`) and *re-verify*
//! CPU support at the boundary — `is_x86_feature_detected!` caches, so
//! the re-check is one atomic load — which makes every public function
//! here sound even if a caller fabricates a level the host cannot run:
//! it simply falls back to the widest tier the host does run.
//!
//! # Bit-exactness by construction
//!
//! Both tiers vectorize across **output columns** (one output
//! element per SIMD lane) with *separate* multiply and add
//! instructions — never a fused multiply-add, which would drop one
//! rounding per pair and change low-order bits. Each lane therefore performs
//! exactly the float-op sequence of the scalar kernel for that output
//! element: one accumulator, folding `k` (GEMM) or bag rows (SLS) in
//! ascending order, one rounding per multiply and one per add. Lanes
//! never interact (no horizontal reductions), so how many lanes a
//! register holds — 8 in a `ymm`, 16 in a `zmm` — cannot reach the
//! bits, and results are **bitwise identical** to the scalar oracles
//! for every shape, including ragged tails, which run the scalar kernel
//! itself. All tiers read the same packed-panel operand
//! ([`crate::PackedWeights`]); packing is pure data movement and
//! changes no bits.
//!
//! The AVX-512 tier ([`SimdLevel::Avx512`]) widens the GEMM only, and
//! only for blocks of at least [`ZMM_MIN_ROWS`] rows: one `zmm` holds a
//! whole 16-lane weight panel group, and a register tile of up to
//! [`ZMM_TILE_ROWS`] rows reads it once. The gather and the
//! quantized decode are bound by memory bandwidth, not issue width, so
//! under that level they run the same AVX2 bodies.
//!
//! [`sls_bags`] is the workspace's one f32 SparseLengthsSum inner loop
//! (plain tables, the hot-row cache and the slab a paged table reads
//! per call all gather through it): it keeps a bag's
//! accumulators in registers from `+0.0` and stores each output element
//! once, which per element is the same sequence of adds as zeroing the
//! row and adding each looked-up row to it — only the store-to-load
//! round trip per lookup is gone. [`sls_bags_u8`] is the same loop over
//! 8-bit row-wise quantized rows, decoding each row in registers.
//!
//! # Unsafe audit notes
//!
//! Each `#[target_feature]` function documents its safety contract:
//! slice-length preconditions are asserted in the safe wrappers, all
//! pointer arithmetic stays inside the asserted bounds (the loop
//! conditions `j + LANES <= n` guarantee every 32- or 64-byte
//! load/store is in-bounds; the gather range-checks every index before
//! its first load), and unaligned load/store intrinsics
//! (`loadu`/`storeu`) are used throughout so no alignment assumption
//! exists. The GEMM tiles' weight prefetches go through
//! `gemm_prefetch_offset`, which clamps every address to the last byte
//! of the packed buffer, as the gather's `prefetch` clamps to the
//! row's last byte. The only remaining obligation — the CPU actually supports
//! the instructions — is discharged by `level_supported` before every
//! unsafe call. On non-x86_64 targets the module compiles to the scalar
//! fallbacks only.

#![allow(unsafe_code)]

pub use dlrm_runtime::{level_supported, KernelDispatch, KernelStats, SimdLevel};

use crate::packed::panel_width;

/// Downgrades a requested level to what the running CPU can execute:
/// the tier kernels will actually take (and counters should record).
/// An unsupported SIMD level lands on the AVX2 tier when the CPU has
/// that, else on scalar.
#[must_use]
pub fn effective_level(level: SimdLevel) -> SimdLevel {
    if level_supported(level) {
        level
    } else if level_supported(SimdLevel::Avx2) {
        SimdLevel::Avx2
    } else {
        SimdLevel::Scalar
    }
}

/// Whether `level` should take the vectorized paths on this CPU.
#[inline]
fn usable(level: SimdLevel) -> bool {
    level.is_simd() && level_supported(SimdLevel::Avx2)
}

/// Rows of the AVX-512 GEMM register tile: 28 `zmm` accumulators, the
/// panel's lane group and one product fill 30 of the 32 registers, so
/// a merged serving batch of at most 28 rows reads each weight panel
/// once. Height is what pays: one thread on a Xeon (Ice Lake, model
/// 106), 2 900 × 256 weights, a single tile of M rows runs 72 GFLOP/s
/// at M = 8, 75 at 12, 81 at 16 and 82 at 20–28 (the exact `ymm` tile:
/// 49 at every M ≥ 4); on 13 400 × 512 weights streamed from DRAM, 54
/// at M = 16, 60 at 20, 65 at 24 and 67 at 28. A constant, not a knob.
pub const ZMM_TILE_ROWS: usize = 28;

/// The fewest rows of a block the AVX-512 tier runs on `zmm`
/// registers: a block the `ymm` kernel covers in one pass over each
/// panel (a batch of at most six rows) stays on the `ymm` kernel —
/// same bits. In a hot loop `zmm` already wins from three rows (same
/// host, 512 × 256: 16.3 → 12.8 µs at M = 3, 21.4 → 14.8 at M = 4),
/// but a serving worker is not a hot loop, and 512-bit execution
/// lowers the core's clock for the next millisecond or so, taxing
/// whatever runs after it. With 3–6-row batches on `zmm`,
/// `rm3_dense_inproc` measured `steady_p50_ms` 2.499 against 2.475 and
/// `saturation_qps` no better (11.87k against 12.02k req/s; `sysbench`,
/// six runs a side). Raising the bar further trades the other way: at
/// 13 rows a back-to-back loop of single requests never touches `zmm`
/// (`model.singular_ms` 0.200–0.205 ms against 0.198–0.226 at 7, parent
/// 0.197–0.204) but saturated batches of 7–12 rows lose their ×1.3–1.5
/// and `saturation_qps` gains 16 % instead of 33 %. A property of the
/// input, not a knob.
pub const ZMM_MIN_ROWS: usize = 7;

/// How many lookups ahead of the row being added the gather prefetches.
/// Measured on RM1 @ 512 MiB (all 257 tables, 134 676 uniform lookups
/// per request, one thread, exact AVX2; `sls_rm1_request_*` in
/// `benches/kernels.rs`): 8, 16 and 32 are a plateau at 13.1–15.0
/// ns/row against 15.3–16.2 with no prefetch; 4 is too short to cover a
/// DRAM miss and 64 is back at the no-prefetch time. A constant, not a
/// knob.
pub const SLS_PREFETCH_ROWS: usize = 16;

/// How far ahead of the k-step being multiplied the exact GEMM tiles
/// prefetch the packed weights: one `prefetcht0` per 64-byte panel line
/// consumed, this many bytes further on. Measured on 13 400 × 512
/// weights evicted by an RM1-shaped gather before each call
/// (`fc_m*_k13400_n512_cold*` in `benches/kernels.rs`, one thread, Xeon
/// model 207), median ms at M = 4 on the AVX2 / AVX-512 tiers over two
/// alternating rounds: no prefetch 4.8 / 4.7, 1 KiB 3.3–3.6 / 3.5,
/// 2 KiB 2.9–3.2 / 2.9, 4 KiB 2.9–3.0 / 2.9–3.0, 8 KiB 2.8 / 2.7,
/// 16 KiB 2.9–6.0 / 3.0–3.2. 4–8 KiB is the plateau at M = 1, 4 and 16; 4 KiB is its short end,
/// which fetches least past the end of a small layer. A constant, not a
/// knob.
pub const GEMM_PREFETCH_BYTES: usize = 4096;

/// The byte a GEMM tile prefetches on reaching byte `at` of its panel:
/// [`GEMM_PREFETCH_BYTES`] further on, clamped to the last of the
/// `rest > 0` bytes from the panel's start to the end of the packed
/// weights. Panels are contiguous, so past a panel's end this is the
/// head of the next panel, which the walk reads next; the clamp keeps
/// the address inside the buffer.
#[inline(always)]
fn gemm_prefetch_offset(at: usize, rest: usize) -> usize {
    (at + GEMM_PREFETCH_BYTES).min(rest - 1)
}

/// Why [`sls_bags`] refused a run of bags. Both are properties of the
/// caller's request, checked once per call before any row is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatherError {
    /// `Σ lengths` does not equal `indices.len()`.
    LengthMismatch {
        /// Sum of the bag lengths.
        lengths_sum: usize,
        /// Number of indices supplied.
        indices: usize,
    },
    /// An index addresses a row the slab does not have.
    IndexOutOfRange {
        /// The largest index of the run.
        index: u64,
        /// Rows in the slab.
        rows: usize,
    },
}

impl std::fmt::Display for GatherError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Self::LengthMismatch { lengths_sum, indices } => {
                write!(f, "lengths sum {lengths_sum} != indices len {indices}")
            }
            Self::IndexOutOfRange { index, rows } => {
                write!(f, "index {index} out of range ({rows} rows)")
            }
        }
    }
}

impl std::error::Error for GatherError {}

/// The request contract every SLS kernel shares: the bag lengths
/// partition `indices` exactly and every index addresses one of `rows`
/// rows. [`sls_bags`] and [`sls_bags_u8`] run it as their one
/// validation pass; the paged table, whose row reads assert, runs it
/// first.
///
/// # Errors
///
/// [`GatherError::LengthMismatch`], else [`GatherError::IndexOutOfRange`]
/// naming the largest index.
#[inline]
pub fn check_bags(indices: &[u64], lengths: &[u32], rows: usize) -> Result<(), GatherError> {
    let lengths_sum: usize = lengths.iter().map(|&l| l as usize).sum();
    if lengths_sum != indices.len() {
        return Err(GatherError::LengthMismatch {
            lengths_sum,
            indices: indices.len(),
        });
    }
    let max = indices.iter().fold(0u64, |m, &i| m.max(i));
    if !indices.is_empty() && max >= rows as u64 {
        return Err(GatherError::IndexOutOfRange { index: max, rows });
    }
    Ok(())
}

/// The workspace's one f32 SparseLengthsSum inner loop: pools a
/// contiguous run of bags from a row-major `slab` of `dim`-float rows.
/// Bag `b` owns the next `lengths[b]` entries of `indices` and output
/// row `b` of `out_rows`.
///
/// Each bag is pooled in registers: a block of columns keeps its
/// accumulators live across the whole bag, starts them at `+0.0`, adds
/// the bag's rows in index order and stores every output element
/// exactly once — so `out_rows` needs no zeroing and an empty bag
/// writes zeros. Per element that is the float-op sequence of the
/// naive "zero the row, `out += row` per lookup" loop, so every tier
/// is bitwise equal to it (a bag holding only `-0.0` still pools to
/// `+0.0`). The AVX2 tier also prefetches the row
/// [`SLS_PREFETCH_ROWS`] lookups ahead, across bag boundaries.
///
/// # Errors
///
/// [`GatherError`] when the lengths do not cover the indices or an
/// index is out of range; nothing is read from `slab` or written to
/// `out_rows` in that case.
///
/// # Panics
///
/// Panics if `dim` is zero, `slab` is not whole rows, or `out_rows` is
/// not `lengths.len() × dim`.
pub fn sls_bags(
    level: SimdLevel,
    slab: &[f32],
    dim: usize,
    indices: &[u64],
    lengths: &[u32],
    out_rows: &mut [f32],
) -> Result<(), GatherError> {
    assert!(dim > 0 && slab.len().is_multiple_of(dim), "slab must be whole rows of dim > 0");
    assert_eq!(out_rows.len(), lengths.len() * dim, "output must be one row per bag");
    check_bags(indices, lengths, slab.len() / dim)?;
    #[cfg(target_arch = "x86_64")]
    if usable(level) {
        // SAFETY: AVX2 verified by `usable`. The checks above are the
        // kernel's whole contract: every index addresses a full row
        // inside `slab`, the bag lengths partition `indices` exactly,
        // and `out_rows` holds one `dim`-float row per bag.
        unsafe { x86::sls_bags_avx2(slab, dim, indices, lengths, out_rows) };
        return Ok(());
    }
    let _ = level;
    bags_scalar(dim, 0, indices, lengths, out_rows, |acc, r, c| {
        for (a, &v) in acc.iter_mut().zip(&slab[r * dim + c..]) {
            *a += v;
        }
    });
    Ok(())
}

/// An 8-bit row-wise quantized table as [`sls_bags_u8`] reads it: `dim`
/// codes per row, row-major, and one `f32` scale and bias per row; row
/// `r` decodes to `f32(code) * scales[r] + biases[r]`.
#[derive(Debug, Clone, Copy)]
pub struct U8Rows<'a> {
    codes: &'a [u8],
    scales: &'a [f32],
    biases: &'a [f32],
    dim: usize,
}

impl<'a> U8Rows<'a> {
    /// Views `scales.len()` rows of `dim` codes each.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero or the three slices disagree on the row
    /// count.
    #[must_use]
    pub fn new(codes: &'a [u8], scales: &'a [f32], biases: &'a [f32], dim: usize) -> Self {
        assert!(
            dim > 0 && codes.len() == scales.len() * dim && biases.len() == scales.len(),
            "u8 rows must be whole {dim}-code rows with one scale and bias each"
        );
        Self {
            codes,
            scales,
            biases,
            dim,
        }
    }
}

/// The 8-bit quantized SparseLengthsSum loop: pools a contiguous run of
/// bags of `rows` as [`sls_bags`] pools f32 rows. Per bag, a block of
/// columns keeps its accumulators in registers from `+0.0` and adds each
/// looked-up row's `f32(code) * scale + bias` in index order — a
/// multiply, an add, then the accumulating add, never fused — and every
/// output element is stored once. Per element that is the float-op
/// sequence of zeroing the row and adding each decoded row to it, so
/// every tier is bitwise equal to that loop. The AVX2 tier prefetches
/// the row's codes, scale and bias [`SLS_PREFETCH_ROWS`] lookups ahead.
///
/// # Errors
///
/// As [`sls_bags`]: nothing is read or written on a [`GatherError`].
///
/// # Panics
///
/// Panics if `out_rows` is not `lengths.len() × dim`.
pub fn sls_bags_u8(
    level: SimdLevel,
    rows: U8Rows<'_>,
    indices: &[u64],
    lengths: &[u32],
    out_rows: &mut [f32],
) -> Result<(), GatherError> {
    let dim = rows.dim;
    assert_eq!(out_rows.len(), lengths.len() * dim, "output must be one row per bag");
    check_bags(indices, lengths, rows.scales.len())?;
    let add_row = |acc: &mut [f32], r: usize, c: usize| {
        let (scale, bias) = (rows.scales[r], rows.biases[r]);
        for (a, &code) in acc.iter_mut().zip(&rows.codes[r * dim + c..]) {
            *a += f32::from(code) * scale + bias;
        }
    };
    #[cfg(target_arch = "x86_64")]
    if usable(level) {
        // SAFETY: AVX2 verified by `usable`. `U8Rows::new` made the
        // codes whole `dim`-byte rows with one scale and bias each, and
        // the checks above put every index inside them, partition
        // `indices` by the bag lengths and give `out_rows` one
        // `dim`-float row per bag.
        unsafe { x86::sls_bags_u8_avx2(rows, indices, lengths, out_rows) };
        // The vector loop pools whole groups of 8 columns.
        bags_scalar(dim, dim - dim % 8, indices, lengths, out_rows, add_row);
        return Ok(());
    }
    let _ = level;
    bags_scalar(dim, 0, indices, lengths, out_rows, add_row);
    Ok(())
}

/// The portable tier of both bag loops, over columns `from..dim`: per
/// bag, column blocks of 32 and 8 accumulators and one pass for the
/// last `< 8`; `add_row(acc, r, c)` adds row `r`'s columns
/// `c..c + acc.len()` into `acc`.
fn bags_scalar(
    dim: usize,
    from: usize,
    indices: &[u64],
    lengths: &[u32],
    out_rows: &mut [f32],
    add_row: impl Fn(&mut [f32], usize, usize),
) {
    let mut start = 0usize;
    for (&len, out) in lengths.iter().zip(out_rows.chunks_exact_mut(dim)) {
        let bag = &indices[start..start + len as usize];
        start += len as usize;
        let mut c = from;
        while c < dim {
            c += match dim - c {
                32.. => bag_block_scalar::<32>(bag, c, 32, out, &add_row),
                8.. => bag_block_scalar::<8>(bag, c, 8, out, &add_row),
                w => bag_block_scalar::<7>(bag, c, w, out, &add_row),
            };
        }
    }
}

/// Columns `c..c + w` (`w ≤ W`) of one bag on the portable tier: `w`
/// independent accumulators from `+0.0` in a fixed-size array (the
/// autovectorizer may widen them; lanes never interact), rows added in
/// index order, one store per element. Returns `w`.
#[inline(always)]
fn bag_block_scalar<const W: usize>(
    bag: &[u64],
    c: usize,
    w: usize,
    out: &mut [f32],
    add_row: &impl Fn(&mut [f32], usize, usize),
) -> usize {
    let mut acc = [0.0f32; W];
    for &idx in bag {
        add_row(&mut acc[..w], idx as usize, c);
    }
    out[c..c + w].copy_from_slice(&acc[..w]);
    w
}

/// Quantized 8-bit decode (overwrite):
/// `out[i] = f32(codes[i]) * scale + bias` — the `row_into` primitive.
///
/// # Panics
///
/// Panics if `codes.len() != out.len()`.
pub fn decode_row_u8(level: SimdLevel, codes: &[u8], scale: f32, bias: f32, out: &mut [f32]) {
    assert_eq!(codes.len(), out.len(), "u8 decode length mismatch");
    #[cfg(target_arch = "x86_64")]
    if usable(level) {
        // SAFETY: AVX2 verified; codes.len() == out.len() asserted, and
        // the kernel's 8-byte loads stop at out.len() - 8.
        unsafe { x86::decode_u8_store_avx2(codes, scale, bias, out) };
        return;
    }
    let _ = level;
    for (o, &code) in out.iter_mut().zip(codes) {
        *o = f32::from(code) * scale + bias;
    }
}

/// `out = A · Wᵀ` over a contiguous block of `A` rows (`a_rows`,
/// `rows × k`) against packed weights (`panels`, the `k · n` floats of
/// a [`crate::PackedWeights`]), writing every element of the matching
/// `rows × n` output block.
///
/// Walks the panels in storage order and hands each to the kernel the
/// tier selects: `zmm` register tiles for the 16-wide panels of the
/// AVX-512 tier when the block has at least [`ZMM_MIN_ROWS`] rows,
/// `ymm` tiles for the 16- and 8-wide panels of the AVX2
/// tier, for the 8-wide panel of the AVX-512 tier and for its shorter
/// blocks, the portable [`panel_scalar`] for the scalar tier and for
/// the 1-wide ragged-tail panels of every tier. Each kernel keeps one accumulator
/// per output element and folds `k` in ascending order, so all exact
/// tiers agree bitwise.
///
/// # Panics
///
/// Panics if `k` or `n` is zero or slice lengths disagree with them.
pub(crate) fn packed_rows(
    level: SimdLevel,
    a_rows: &[f32],
    k: usize,
    panels: &[f32],
    n: usize,
    out_rows: &mut [f32],
) {
    assert!(k > 0 && n > 0, "empty products are the caller's case");
    assert_eq!(a_rows.len() % k, 0, "a block must be whole rows");
    assert_eq!(panels.len(), k * n, "packed weights must hold k x n");
    assert_eq!(out_rows.len(), a_rows.len() / k * n, "output block must be rows x n");
    let level = effective_level(level);
    #[cfg(target_arch = "x86_64")]
    let zmm_block = a_rows.len() / k >= ZMM_MIN_ROWS;
    let mut j = 0usize;
    while j < n {
        let w = panel_width(n, j);
        // The panel and every panel after it: the SIMD tiles read the
        // first `k·w` floats and prefetch up to the last.
        let rest = &panels[k * j..];
        let panel = &rest[..k * w];
        match (w, level) {
            #[cfg(target_arch = "x86_64")]
            (16, SimdLevel::Avx512) if zmm_block => {
                // SAFETY: `effective_level` verified the CPU runs
                // AVX-512F and AVX2; `rest` starts with k full 16-lane
                // groups and j + 16 <= n bounds every output store; the
                // asserts above give a_rows = rows·k and out_rows = rows·n.
                unsafe { x86::panel_avx512(a_rows, k, rest, out_rows, n, j) }
            }
            #[cfg(target_arch = "x86_64")]
            (16, SimdLevel::Avx2 | SimdLevel::Avx512) => {
                // SAFETY: AVX2 verified (the AVX-512 level requires it
                // too); bounds as above.
                unsafe { x86::panel_avx2::<2>(a_rows, k, rest, out_rows, n, j) }
            }
            #[cfg(target_arch = "x86_64")]
            (8, SimdLevel::Avx2 | SimdLevel::Avx512) => {
                // SAFETY: AVX2 verified; `rest` starts with k full 8-lane
                // groups and j + 8 <= n bounds every output store.
                unsafe { x86::panel_avx2::<1>(a_rows, k, rest, out_rows, n, j) }
            }
            (16, _) => panel_scalar::<16>(a_rows, k, panel, out_rows, n, j),
            (8, _) => panel_scalar::<8>(a_rows, k, panel, out_rows, n, j),
            _ => panel_scalar::<1>(a_rows, k, panel, out_rows, n, j),
        }
        j += w;
    }
}

/// Independent chains the roofline probe keeps in flight: enough to
/// cover a 4-cycle multiply feeding a 4-cycle add on up to three ports.
const PROBE_CHAINS: usize = 12;

/// Roofline probe for the exact GEMM tiers: `iters` rounds of
/// `PROBE_CHAINS` independent register-resident chains
/// `x = x·m + c` — a separate multiply and add per lane, nothing loaded
/// or stored — at the vector width `level`'s GEMM tile uses. Returns
/// the FLOPs executed (for a bench to divide by its wall time), or 0
/// when `level` is not an exact SIMD tier this CPU runs. The exact
/// tiers cannot beat this rate; the fused-multiply-add peak is twice it.
#[must_use]
pub fn exact_peak_probe(level: SimdLevel, iters: u64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY (both arms): `level_supported` verified the CPU runs
        // the instructions; the probes touch no memory but their own
        // stack.
        let lanes = match level {
            SimdLevel::Avx512 if level_supported(level) => {
                std::hint::black_box(unsafe { x86::probe_zmm(iters) });
                16
            }
            SimdLevel::Avx2 if level_supported(level) => {
                std::hint::black_box(unsafe { x86::probe_ymm(iters) });
                8
            }
            _ => 0,
        };
        iters * (PROBE_CHAINS * lanes * 2) as u64
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (level, iters);
        0
    }
}

/// The portable panel kernel: output columns `j..j + W` for every row
/// of the block, from one `W`-wide packed panel. Two rows per pass give
/// the FP adder independent chains; the `W` lanes of a row never
/// interact, so the autovectorizer may widen them without
/// reassociating anything.
fn panel_scalar<const W: usize>(
    a_rows: &[f32],
    k: usize,
    panel: &[f32],
    out: &mut [f32],
    n: usize,
    j: usize,
) {
    let rows = a_rows.len() / k;
    let row = |i: usize| &a_rows[i * k..(i + 1) * k];
    let mut i = 0usize;
    while i + 2 <= rows {
        let acc = tile_scalar::<W, 2>([row(i), row(i + 1)], panel);
        out[i * n + j..i * n + j + W].copy_from_slice(&acc[0]);
        out[(i + 1) * n + j..(i + 1) * n + j + W].copy_from_slice(&acc[1]);
        i += 2;
    }
    if i < rows {
        let acc = tile_scalar::<W, 1>([row(i)], panel);
        out[i * n + j..i * n + j + W].copy_from_slice(&acc[0]);
    }
}

/// `R × W` independent accumulators, each folding `k` in ascending
/// order with a separate multiply and add — the reference kernels'
/// float-op sequence per element.
#[inline(always)]
fn tile_scalar<const W: usize, const R: usize>(a: [&[f32]; R], panel: &[f32]) -> [[f32; W]; R] {
    let mut acc = [[0.0f32; W]; R];
    for (kk, group) in panel.chunks_exact(W).enumerate() {
        for r in 0..R {
            let x = a[r][kk];
            for l in 0..W {
                acc[r][l] += x * group[l];
            }
        }
    }
    acc
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_cvtepi32_ps, _mm256_cvtepu8_epi32,
        _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps,
        _mm512_add_ps, _mm512_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
        _mm512_storeu_ps, _mm_loadl_epi64, _mm_prefetch, _MM_HINT_T0,
    };

    /// Prefetches the line holding byte `gemm_prefetch_offset(at, rest)`
    /// of the packed weights from the panel start `pp`, which `rest`
    /// bytes separate from the end of the buffer.
    #[inline(always)]
    unsafe fn fetch_ahead(pp: *const f32, at: usize, rest: usize) {
        _mm_prefetch::<_MM_HINT_T0>(pp.cast::<i8>().add(super::gemm_prefetch_offset(at, rest)));
    }

    /// One k-step of a register tile: load the panel's `VECS` lane
    /// groups once, broadcast each row's `A[kk]`, accumulate.
    #[inline(always)]
    unsafe fn k_step<const ROWS: usize, const VECS: usize>(
        a: *const f32,
        k: usize,
        pp: *const f32,
        kk: usize,
        acc: &mut [[__m256; VECS]; ROWS],
    ) {
        let mut vb = [_mm256_setzero_ps(); VECS];
        for (v, slot) in vb.iter_mut().enumerate() {
            *slot = _mm256_loadu_ps(pp.add((kk * VECS + v) * 8));
        }
        for (r, row) in acc.iter_mut().enumerate() {
            let va = _mm256_set1_ps(*a.add(r * k + kk));
            for v in 0..VECS {
                row[v] = _mm256_add_ps(row[v], _mm256_mul_ps(va, vb[v]));
            }
        }
    }

    /// A `ROWS × (8·VECS)` register tile over one packed panel: `a`
    /// points at the tile's first `A` row, `o` at its first output
    /// element. Accumulators fold `k` in ascending order — one per
    /// output element, a multiply then an add, never a fused one — so
    /// the tile matches the scalar kernel bitwise. The const loops unroll fully, so the accumulator array
    /// lives in registers (6 × 2 uses 15 of 16 — the widest tile that
    /// doesn't spill); the 2-deep k-unroll keeps issue under the
    /// 4-wide frontend limit. A k-step pair consumes `VECS` whole panel
    /// lines (the panel is 64-byte aligned) and prefetches each one's
    /// counterpart [`super::GEMM_PREFETCH_BYTES`] ahead; the odd last
    /// step starts a line and prefetches once.
    #[inline(always)]
    unsafe fn tile<const ROWS: usize, const VECS: usize>(
        a: *const f32,
        k: usize,
        (pp, rest): (*const f32, usize),
        o: *mut f32,
        n: usize,
    ) {
        let mut acc = [[_mm256_setzero_ps(); VECS]; ROWS];
        let mut kk = 0usize;
        while kk + 2 <= k {
            for line in 0..VECS {
                fetch_ahead(pp, kk * VECS * 32 + line * 64, rest);
            }
            k_step::<ROWS, VECS>(a, k, pp, kk, &mut acc);
            k_step::<ROWS, VECS>(a, k, pp, kk + 1, &mut acc);
            kk += 2;
        }
        if kk < k {
            fetch_ahead(pp, kk * VECS * 32, rest);
            k_step::<ROWS, VECS>(a, k, pp, kk, &mut acc);
        }
        for (r, row) in acc.iter().enumerate() {
            for (v, &c) in row.iter().enumerate() {
                _mm256_storeu_ps(o.add(r * n + v * 8), c);
            }
        }
    }

    /// Output columns `j..j + 8·VECS` of the packed panel at the head
    /// of `pack` (the rest of the buffer is only prefetched) for every
    /// row of the block: 6-row tiles, then one tile of exactly the rows
    /// left, so a block of at most six rows — a serving batch — streams
    /// the panel once.
    ///
    /// # Safety
    ///
    /// Caller verifies AVX2 support, `a_rows.len() = rows·k` with
    /// `k > 0`, `pack.len() ≥ k·8·VECS`, `out.len() = rows·n`, and
    /// `j + 8·VECS ≤ n` (asserted/maintained by the safe wrapper).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn panel_avx2<const VECS: usize>(
        a_rows: &[f32],
        k: usize,
        pack: &[f32],
        out: &mut [f32],
        n: usize,
        j: usize,
    ) {
        let rows = a_rows.len() / k;
        let panel = (pack.as_ptr(), pack.len() * 4);
        let mut a = a_rows.as_ptr();
        let mut o = out.as_mut_ptr().add(j);
        for _ in 0..rows / 6 {
            tile::<6, VECS>(a, k, panel, o, n);
            a = a.add(6 * k);
            o = o.add(6 * n);
        }
        match rows % 6 {
            5 => tile::<5, VECS>(a, k, panel, o, n),
            4 => tile::<4, VECS>(a, k, panel, o, n),
            3 => tile::<3, VECS>(a, k, panel, o, n),
            2 => tile::<2, VECS>(a, k, panel, o, n),
            1 => tile::<1, VECS>(a, k, panel, o, n),
            _ => {}
        }
    }

    /// A `ROWS × 16` register tile of the AVX-512 tier over one 16-wide
    /// packed panel: per `k` one `zmm` load of the panel's lane group,
    /// then per row a broadcast of `A[r][kk]`, a multiply and an add —
    /// separate instructions, never a fused one — into that row's
    /// accumulator, which starts at `+0.0` and folds `k` in ascending
    /// order. A lane is one output element, so this is the scalar
    /// kernel's float-op sequence per element whatever the vector
    /// width. `ROWS` accumulators, the panel group and one product
    /// live in registers: 28 rows use 30 of the 32. Each k-step consumes
    /// one panel line and prefetches the line
    /// [`super::GEMM_PREFETCH_BYTES`] ahead.
    #[inline(always)]
    unsafe fn tile512<const ROWS: usize>(
        a: *const f32,
        k: usize,
        (pp, rest): (*const f32, usize),
        o: *mut f32,
        n: usize,
    ) {
        let mut acc = [_mm512_setzero_ps(); ROWS];
        for kk in 0..k {
            fetch_ahead(pp, kk * 64, rest);
            let vb = _mm512_loadu_ps(pp.add(kk * 16));
            for (r, c) in acc.iter_mut().enumerate() {
                let va = _mm512_set1_ps(*a.add(r * k + kk));
                *c = _mm512_add_ps(*c, _mm512_mul_ps(va, vb));
            }
        }
        for (r, &c) in acc.iter().enumerate() {
            _mm512_storeu_ps(o.add(r * n), c);
        }
    }

    /// Exact AVX-512 panel kernel over the 16-wide packed panel at the
    /// head of `pack` (the rest is only prefetched):
    /// [`super::ZMM_TILE_ROWS`]-row tiles, then one tile of exactly the
    /// rows left, so a block of at most that many rows — a merged
    /// serving batch — streams the panel once.
    ///
    /// # Safety
    ///
    /// Caller verifies AVX-512F support, `a_rows.len() = rows·k` with
    /// `k > 0`, `pack.len() ≥ k·16`, `out.len() = rows·n`, and
    /// `j + 16 ≤ n` (asserted/maintained by the safe wrapper).
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn panel_avx512(
        a_rows: &[f32],
        k: usize,
        pack: &[f32],
        out: &mut [f32],
        n: usize,
        j: usize,
    ) {
        const FULL: usize = super::ZMM_TILE_ROWS;
        let rows = a_rows.len() / k;
        let panel = (pack.as_ptr(), pack.len() * 4);
        let mut a = a_rows.as_ptr();
        let mut o = out.as_mut_ptr().add(j);
        for _ in 0..rows / FULL {
            tile512::<FULL>(a, k, panel, o, n);
            a = a.add(FULL * k);
            o = o.add(FULL * n);
        }
        // Tile heights are const generics: one arm per remainder.
        const _: () = assert!(FULL == 28);
        macro_rules! remainder {
            ($($r:literal)+) => {
                match rows % FULL {
                    $($r => tile512::<$r>(a, k, panel, o, n),)+
                    _ => {}
                }
            };
        }
        remainder!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27);
    }

    /// [`super::exact_peak_probe`] at one vector width — one body for
    /// both register files, so the bench-only unsafe surface is a
    /// single loop.
    ///
    /// # Safety
    ///
    /// Caller of the generated fn verifies `$feature` support.
    macro_rules! probe {
        ($name:ident, $feature:literal, $lanes:literal, $set1:ident, $mul:ident, $add:ident, $store:ident) => {
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn $name(iters: u64) -> f32 {
                let (m, c) = ($set1(0.999_999), $set1(1e-6));
                let mut x = [$set1(0.5); super::PROBE_CHAINS];
                for _ in 0..iters {
                    // Multiplies, then adds: issued pairwise the two
                    // ports fill unevenly and the loop reads 5 % under
                    // the real rate.
                    for v in &mut x {
                        *v = $mul(*v, m);
                    }
                    for v in &mut x {
                        *v = $add(*v, c);
                    }
                }
                let mut lanes = [0.0f32; $lanes];
                let sum = x.iter().fold($set1(0.0), |s, &v| $add(s, v));
                $store(lanes.as_mut_ptr(), sum);
                lanes[0]
            }
        };
    }
    probe!(probe_zmm, "avx512f", 16, _mm512_set1_ps, _mm512_mul_ps, _mm512_add_ps, _mm512_storeu_ps);
    probe!(probe_ymm, "avx2", 8, _mm256_set1_ps, _mm256_mul_ps, _mm256_add_ps, _mm256_storeu_ps);

    /// What every bag pass of one [`sls_bags_avx2`] call shares.
    struct Gather {
        slab: *const f32,
        dim: usize,
        indices: *const u64,
        /// `indices.len()`: the look-ahead stops here, not at the bag's
        /// end, so a bag's tail prefetches the next bag's head.
        n: usize,
    }

    /// Prefetches every cache line of the `len > 0` bytes at `bytes`.
    #[inline(always)]
    unsafe fn prefetch(bytes: *const i8, len: usize) {
        let last = len - 1;
        let mut off = 0usize;
        loop {
            // Rows are not line-aligned, so the row's last byte may sit
            // one line past the last 64-byte step.
            _mm_prefetch::<_MM_HINT_T0>(bytes.add(off.min(last)));
            if off >= last {
                break;
            }
            off += 64;
        }
    }

    /// Lookup `p` of a bag pass at column `c`: on the bag's first pass
    /// prefetches the row `SLS_PREFETCH_ROWS` lookups ahead, then
    /// returns the current row's columns from `c`. Every index was
    /// range-checked, so both pointers stay inside the slab.
    #[inline(always)]
    unsafe fn gather_step(g: &Gather, p: usize, c: usize) -> *const f32 {
        let ahead = p + super::SLS_PREFETCH_ROWS;
        if c == 0 && ahead < g.n {
            prefetch(g.slab.add(*g.indices.add(ahead) as usize * g.dim).cast(), g.dim * 4);
        }
        g.slab.add(*g.indices.add(p) as usize * g.dim + c)
    }

    /// Columns `c..c + 8·NV` of the bag at `indices[start..end]`: `NV`
    /// `ymm` accumulators from `+0.0`, rows added in index order, each
    /// output element stored once. The const loops unroll, the loads
    /// fold into `vaddps`, so 16 accumulators use all 16 registers
    /// without spilling.
    #[inline(always)]
    unsafe fn bag_block<const NV: usize>(
        g: &Gather,
        start: usize,
        end: usize,
        c: usize,
        out: *mut f32,
    ) -> usize {
        let mut acc = [_mm256_setzero_ps(); NV];
        for p in start..end {
            let row = gather_step(g, p, c);
            for (v, a) in acc.iter_mut().enumerate() {
                *a = _mm256_add_ps(*a, _mm256_loadu_ps(row.add(8 * v)));
            }
        }
        for (v, &a) in acc.iter().enumerate() {
            _mm256_storeu_ps(out.add(c + 8 * v), a);
        }
        8 * NV
    }

    /// The last `w < 8` columns of a bag, on scalar accumulators.
    #[inline(always)]
    unsafe fn bag_tail(
        g: &Gather,
        start: usize,
        end: usize,
        c: usize,
        w: usize,
        out: *mut f32,
    ) -> usize {
        let mut acc = [0.0f32; 7];
        for p in start..end {
            let row = gather_step(g, p, c);
            for (l, a) in acc.iter_mut().enumerate().take(w) {
                *a += *row.add(l);
            }
        }
        for (l, &a) in acc.iter().enumerate().take(w) {
            *out.add(c + l) = a;
        }
        w
    }

    /// The bag-fused gather (see [`super::sls_bags`]): per bag, column
    /// blocks of 16/8/4/2/1 `ymm` accumulators and a scalar tail, so a
    /// `dim ≤ 128` power of two is one pass over the bag and wider or
    /// ragged rows take further passes over the same (now cached) rows.
    ///
    /// # Safety
    ///
    /// Caller verifies AVX2 support, `dim > 0`, every index `<
    /// slab.len() / dim`, `Σ lengths == indices.len()` and
    /// `out_rows.len() == lengths.len() · dim`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sls_bags_avx2(
        slab: &[f32],
        dim: usize,
        indices: &[u64],
        lengths: &[u32],
        out_rows: &mut [f32],
    ) {
        let g = Gather {
            slab: slab.as_ptr(),
            dim,
            indices: indices.as_ptr(),
            n: indices.len(),
        };
        let mut out = out_rows.as_mut_ptr();
        let mut start = 0usize;
        for &len in lengths {
            let end = start + len as usize;
            let mut c = 0usize;
            while c < dim {
                c += match dim - c {
                    128.. => bag_block::<16>(&g, start, end, c, out),
                    64.. => bag_block::<8>(&g, start, end, c, out),
                    32.. => bag_block::<4>(&g, start, end, c, out),
                    16.. => bag_block::<2>(&g, start, end, c, out),
                    8.. => bag_block::<1>(&g, start, end, c, out),
                    w => bag_tail(&g, start, end, c, w, out),
                };
            }
            start = end;
            out = out.add(dim);
        }
    }

    /// Columns `c..c + 8·NV` of the 8-bit bag at `indices[start..end]`:
    /// `NV` `ymm` accumulators from `+0.0`; per row the codes are
    /// widened u8→f32, multiplied by the broadcast scale, the bias is
    /// added and the result accumulated — three separate roundings, in
    /// index order — and each output element is stored once. Up to 8
    /// accumulators, the scale, the bias and the decoded row fit the 16
    /// registers without spilling. On the bag's first pass each lookup
    /// prefetches the codes, scale and bias of the row
    /// `SLS_PREFETCH_ROWS` lookups ahead, across bag boundaries; every
    /// index was range-checked, so all pointers stay inside the table.
    #[inline(always)]
    unsafe fn bag_block_u8<const NV: usize>(
        rows: &super::U8Rows<'_>,
        indices: &[u64],
        (start, end): (usize, usize),
        c: usize,
        out: *mut f32,
    ) -> usize {
        let (codes, scales) = (rows.codes.as_ptr(), rows.scales.as_ptr());
        let (biases, at) = (rows.biases.as_ptr(), indices.as_ptr());
        let mut acc = [_mm256_setzero_ps(); NV];
        for p in start..end {
            let ahead = p + super::SLS_PREFETCH_ROWS;
            if c == 0 && ahead < indices.len() {
                let r = *at.add(ahead) as usize;
                prefetch(codes.add(r * rows.dim).cast(), rows.dim);
                prefetch(scales.add(r).cast(), 4);
                prefetch(biases.add(r).cast(), 4);
            }
            let r = *at.add(p) as usize;
            let row = codes.add(r * rows.dim + c);
            let (vs, vb) = (_mm256_set1_ps(*scales.add(r)), _mm256_set1_ps(*biases.add(r)));
            for (v, a) in acc.iter_mut().enumerate() {
                let raw = _mm_loadl_epi64(row.add(8 * v).cast());
                let w = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(raw));
                *a = _mm256_add_ps(*a, _mm256_add_ps(_mm256_mul_ps(w, vs), vb));
            }
        }
        for (v, &a) in acc.iter().enumerate() {
            _mm256_storeu_ps(out.add(c + 8 * v), a);
        }
        8 * NV
    }

    /// The 8-bit bag loop (see [`super::sls_bags_u8`]) over every whole
    /// group of 8 columns: per bag, column blocks of 8/4/2/1 `ymm`
    /// accumulators, so a `dim ≤ 64` multiple of 8 is one pass over the
    /// bag and wider rows take further passes over the same (now cached)
    /// rows. The last `dim % 8` columns are left to the caller.
    ///
    /// # Safety
    ///
    /// Caller verifies AVX2 support, every index `< rows`, `Σ lengths ==
    /// indices.len()` and `out_rows.len() == lengths.len() · dim`
    /// (`U8Rows::new` already holds the table to whole rows).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sls_bags_u8_avx2(
        rows: super::U8Rows<'_>,
        indices: &[u64],
        lengths: &[u32],
        out_rows: &mut [f32],
    ) {
        let mut out = out_rows.as_mut_ptr();
        let mut start = 0usize;
        for &len in lengths {
            let bag = (start, start + len as usize);
            let mut c = 0usize;
            while c + 8 <= rows.dim {
                c += match rows.dim - c {
                    64.. => bag_block_u8::<8>(&rows, indices, bag, c, out),
                    32.. => bag_block_u8::<4>(&rows, indices, bag, c, out),
                    16.. => bag_block_u8::<2>(&rows, indices, bag, c, out),
                    _ => bag_block_u8::<1>(&rows, indices, bag, c, out),
                };
            }
            start = bag.1;
            out = out.add(rows.dim);
        }
    }

    /// 8-bit decode-overwrite (`row_into`): widen u8→f32, then
    /// `w·scale + bias`.
    ///
    /// # Safety
    ///
    /// Caller verifies AVX2 support and `codes.len() == out.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn decode_u8_store_avx2(
        codes: &[u8],
        scale: f32,
        bias: f32,
        out: &mut [f32],
    ) {
        let n = out.len();
        let vs = _mm256_set1_ps(scale);
        let vb = _mm256_set1_ps(bias);
        let cp = codes.as_ptr();
        let op = out.as_mut_ptr();
        let mut j = 0usize;
        while j + 8 <= n {
            let raw = _mm_loadl_epi64(cp.add(j).cast());
            let w = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(raw));
            _mm256_storeu_ps(op.add(j), _mm256_add_ps(_mm256_mul_ps(w, vs), vb));
            j += 8;
        }
        while j < n {
            *op.add(j) = f32::from(*cp.add(j)) * scale + bias;
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The SIMD levels whose decode bodies this CPU runs (one AVX2 body
    /// serves them all; each level must reach it).
    fn simd_levels() -> Vec<SimdLevel> {
        let all = [SimdLevel::Avx2, SimdLevel::Avx512];
        all.into_iter().filter(|&l| level_supported(l)).collect()
    }

    #[test]
    fn u8_decode_matches_scalar_bitwise() {
        for (level, n) in simd_levels()
            .into_iter()
            .flat_map(|l| [1, 5, 8, 13, 16, 33, 64, 100].map(|n| (l, n)))
        {
            let codes: Vec<u8> = (0..n).map(|i| (i * 37 % 256) as u8).collect();
            let (scale, bias) = (0.017_f32, -1.3_f32);
            let mut scalar_row = vec![f32::NAN; n];
            let mut simd_row = vec![f32::NAN; n];
            decode_row_u8(SimdLevel::Scalar, &codes, scale, bias, &mut scalar_row);
            decode_row_u8(level, &codes, scale, bias, &mut simd_row);
            assert_eq!(scalar_row, simd_row, "store n={n} on {level}");
        }
    }

    #[test]
    fn effective_level_downgrades_only_when_unsupported() {
        use SimdLevel::{Avx2, Avx512, Scalar};
        assert_eq!(effective_level(Scalar), Scalar);
        let below = if level_supported(Avx2) { Avx2 } else { Scalar };
        for level in [Avx2, Avx512] {
            let want = if level_supported(level) { level } else { below };
            assert_eq!(effective_level(level), want, "{level}");
        }
    }

    /// The last k-steps of the last SIMD panel prefetch inside the
    /// packed buffer, clamped to its last byte, for weights smaller than
    /// the prefetch distance, a last panel 8 wide and a 1-wide ragged
    /// tail after it; no prefetch anywhere leaves the buffer or falls
    /// behind the line being consumed.
    #[test]
    fn gemm_prefetch_is_clamped_to_the_packed_weights() {
        let d = GEMM_PREFETCH_BYTES;
        for (n, k) in [(16, d / 128), (24, d / 16 + 3), (25, d / 16 + 5)] {
            let total = n * k * 4;
            let mut last = None;
            let mut j = 0;
            while j < n {
                let (w, start) = (panel_width(n, j), k * j * 4);
                // The tiles prefetch once per 64-byte line of a SIMD
                // panel; the 1-wide panels run the scalar kernel.
                let simd_bytes = if w > 1 { k * w * 4 } else { 0 };
                for at in (0..simd_bytes).step_by(64) {
                    let byte = start + gemm_prefetch_offset(at, total - start);
                    assert!(byte < total && byte >= start + at, "{n}x{k}: line {at} of panel {j}");
                    last = Some(byte);
                }
                j += w;
            }
            assert_eq!(last, Some(total - 1), "{n}x{k}: the last line's prefetch is clamped");
        }
    }

    #[test]
    fn peak_probe_counts_flops_per_lane_width() {
        assert_eq!(exact_peak_probe(SimdLevel::Scalar, 10), 0);
        for (level, lanes) in [(SimdLevel::Avx2, 8), (SimdLevel::Avx512, 16)] {
            let want = if level_supported(level) {
                10 * PROBE_CHAINS as u64 * lanes * 2
            } else {
                0
            };
            assert_eq!(exact_peak_probe(level, 10), want, "{level}");
        }
    }
}
