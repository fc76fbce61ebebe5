//! How a shard holds a table: the storage tier of each hosted slice.
//!
//! A sparse shard answers one question — "pool these rows of this
//! table" (§III-A1) — and §VII-D's point is that compression *composes*
//! with it. So the tier a table lives on is a property of its storage,
//! not of the service in front of it (RecShard's cut): a
//! [`ShardService`](crate::ShardService) holds one [`TableStore`] per
//! hosted slice and every tier answers the same
//! [`TableSlice`] through [`TableStore::pool`]. The rungs, hottest to
//! coldest:
//!
//! 1. **DRAM** — full-precision f32 rows; a whole table shares the
//!    model's `Arc`.
//! 2. **Quantized** — [`DEMOTED_BITS`]-bit row-wise quantization
//!    ([`QuantizedTable`]), ~4× smaller, answers within the
//!    quantization error bound.
//! 3. **Paged** — the f32 rows live in a backing file ([`PagedTable`]),
//!    DRAM holds only metadata; bit-exact with DRAM, only slower.

use crate::rpc::TableSlice;
use dlrm_compress::QuantizedTable;
use dlrm_model::{EmbeddingTable, Footprint, Pool};
use dlrm_tensor::simd::{check_bags, GatherError};
use dlrm_tensor::Matrix;
use std::fs::File;
use std::io::{self, Write};
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bit width demoted tables are quantized at. 8-bit keeps the output
/// drift within the bound the compression tests establish (< 0.05 on
/// the final sigmoid), which is what demotion verification checks.
pub const DEMOTED_BITS: u8 = 8;

/// The storage rung one table currently occupies. Ordered hottest to
/// coldest: demotion moves right, promotion moves left.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// Full-precision f32 rows resident in DRAM.
    Dram,
    /// 8-bit row-wise quantized, resident in DRAM at ~1/4 the bytes.
    Quantized,
    /// f32 rows in a backing file; only metadata resident.
    Paged,
}

impl Tier {
    /// The next rung down the ladder, or `None` from the coldest.
    #[must_use]
    pub fn demoted(self) -> Option<Tier> {
        match self {
            Tier::Dram => Some(Tier::Quantized),
            Tier::Quantized => Some(Tier::Paged),
            Tier::Paged => None,
        }
    }

    /// The next rung up the ladder, or `None` from the hottest.
    #[must_use]
    pub fn promoted(self) -> Option<Tier> {
        match self {
            Tier::Dram => None,
            Tier::Quantized => Some(Tier::Dram),
            Tier::Paged => Some(Tier::Quantized),
        }
    }

    /// Stable lowercase label for logs and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Tier::Dram => "dram",
            Tier::Quantized => "quantized",
            Tier::Paged => "paged",
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Byte totals split by tier. `dram + quantized` is what counts against
/// the host DRAM budget; `paged` is backing-file bytes that do not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierBytes {
    /// Full-precision resident bytes.
    pub dram: u64,
    /// Quantized resident bytes (codes + per-row scale/bias).
    pub quantized: u64,
    /// Backing-file bytes of paged tables (not DRAM-resident).
    pub paged: u64,
}

impl TierBytes {
    /// Bytes counting against the DRAM budget.
    #[must_use]
    pub fn resident(&self) -> u64 {
        self.dram + self.quantized
    }

    /// Accumulates another breakdown into this one.
    pub fn absorb(&mut self, other: TierBytes) {
        self.dram += other.dram;
        self.quantized += other.quantized;
        self.paged += other.paged;
    }
}

impl std::fmt::Display for TierBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        const MIB: f64 = 1024.0 * 1024.0;
        write!(
            f,
            "resident {:.2} MiB (dram {:.2}, quantized {:.2}) + paged {:.2} MiB",
            self.resident() as f64 / MIB,
            self.dram as f64 / MIB,
            self.quantized as f64 / MIB,
            self.paged as f64 / MIB
        )
    }
}

/// The slice of `full` that part `part` of `parts` hosts. A whole table
/// (`parts == 1`) shares the model's `Arc`; a row-sharded one
/// materializes its partition, local row `j` = global row
/// `j * parts + part` (the modulus layout of §III-A1).
pub(crate) fn local_slice(
    full: &Arc<EmbeddingTable>,
    parts: usize,
    part: usize,
) -> Arc<EmbeddingTable> {
    if parts == 1 {
        return Arc::clone(full);
    }
    let rows = full.rows();
    let local_rows = rows.div_ceil(parts).max(1);
    let mut m = Matrix::zeros(local_rows, full.dim());
    for j in 0..local_rows {
        let global = j * parts + part;
        if global < rows {
            m.row_mut(j).copy_from_slice(full.row(global));
        }
    }
    Arc::new(EmbeddingTable::from_weights(
        format!("{}[part {part}/{parts}]", full.name()),
        m,
    ))
}

/// One hosted table slice, stored at its tier.
#[derive(Debug)]
pub(crate) enum TableStore {
    Dram(Arc<EmbeddingTable>),
    Quantized(QuantizedTable),
    Paged(PagedTable),
}

impl TableStore {
    /// Stores `local` at `tier`.
    ///
    /// # Errors
    ///
    /// An I/O error message if a paged table's backing file cannot be
    /// created.
    pub(crate) fn new(local: Arc<EmbeddingTable>, tier: Tier) -> Result<Self, String> {
        Ok(match tier {
            Tier::Dram => Self::Dram(local),
            Tier::Quantized => Self::Quantized(QuantizedTable::quantize(&local, DEMOTED_BITS)),
            Tier::Paged => Self::Paged(
                PagedTable::from_table(&local)
                    .map_err(|e| format!("paging {}: {e}", local.name()))?,
            ),
        })
    }

    /// This slice's bytes, under the tier that holds them.
    pub(crate) fn bytes(&self) -> TierBytes {
        let mut b = TierBytes::default();
        match self {
            Self::Dram(t) => b.dram = t.footprint_bytes(),
            Self::Quantized(t) => b.quantized = t.footprint_bytes(),
            Self::Paged(t) => b.paged = t.backing_bytes(),
        }
        b
    }

    /// Pools one wire slice from wherever its rows live. Every tier
    /// validates the slice once, before any row is read, and rejects it
    /// with the same text: the f32 gather kernel checks as its own single
    /// pass, the tiers whose row decoders assert are checked in front.
    ///
    /// # Errors
    ///
    /// The caller's [`RpcError::ShardFault`](crate::RpcError::ShardFault)
    /// text when the lengths do not cover the indices, an index is out
    /// of range, or a paged read fails.
    pub(crate) fn pool(&self, slice: &TableSlice, pool: &Pool) -> Result<Matrix, String> {
        let malformed = |e: GatherError| match e {
            GatherError::IndexOutOfRange { index, rows } => {
                format!("index {index} out of range for {} ({rows} local rows)", slice.table)
            }
            GatherError::LengthMismatch { .. } => format!("{e} for {}", slice.table),
        };
        let (indices, lengths) = (&slice.indices[..], &slice.lengths[..]);
        match self {
            Self::Dram(t) => {
                let mut out = Matrix::zeros(lengths.len(), t.dim());
                t.try_sparse_lengths_sum_into(indices, lengths, &mut out, pool)
                    .map_err(malformed)?;
                Ok(out)
            }
            Self::Quantized(t) => {
                check_bags(indices, lengths, t.rows()).map_err(malformed)?;
                Ok(t.sparse_lengths_sum_par(indices, lengths, pool))
            }
            Self::Paged(t) => {
                check_bags(indices, lengths, t.rows()).map_err(malformed)?;
                t.sparse_lengths_sum(indices, lengths)
                    .map_err(|e| format!("paged read for {}: {e}", slice.table))
            }
        }
    }
}

/// Distinguishes concurrently created paged-table backing files within
/// one process.
static PAGED_FILE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A file-backed embedding table: the servable paged tier.
///
/// The weights are spilled to an anonymous temp file (unlinked at
/// creation, so the space is reclaimed when the table drops) and read
/// back row-by-row per lookup via positional reads — no mmap, no
/// unsafe. DRAM residency is metadata only, which is what makes
/// demoting a table here free the pressure controller's budget. The SLS
/// accumulates rows in index order with the same element-wise adds as
/// the DRAM kernel, so a paged table answers **bitwise identically** to
/// its DRAM twin — only slower.
///
/// # Examples
///
/// ```
/// use dlrm_model::EmbeddingTable;
/// use dlrm_sharding::PagedTable;
///
/// let dram = EmbeddingTable::seeded("t", 32, 8, 7);
/// let paged = PagedTable::from_table(&dram).unwrap();
/// let a = dram.sparse_lengths_sum(&[1, 5, 9], &[2, 1]);
/// let b = paged.sparse_lengths_sum(&[1, 5, 9], &[2, 1]).unwrap();
/// assert_eq!(a.as_slice(), b.as_slice()); // bitwise, not approximate
/// ```
#[derive(Debug)]
pub struct PagedTable {
    name: String,
    rows: usize,
    dim: usize,
    file: File,
}

impl PagedTable {
    /// Spills `table` to an unlinked temp file in row-major
    /// little-endian `f32`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the backing file.
    pub fn from_table(table: &EmbeddingTable) -> io::Result<Self> {
        let seq = PAGED_FILE_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "dlrm-paged-{}-{}.bin",
            std::process::id(),
            seq
        ));
        let mut file = File::options()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        // Unlink immediately: the open handle keeps the data reachable,
        // and the kernel reclaims it on drop even if the process dies.
        std::fs::remove_file(&path)?;
        let mut buf = Vec::with_capacity(table.dim() * 4);
        for r in 0..table.rows() {
            buf.clear();
            for &v in table.row(r) {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            file.write_all(&buf)?;
        }
        Ok(Self {
            name: table.name().to_string(),
            rows: table.rows(),
            dim: table.dim(),
            file,
        })
    }

    /// Table name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Embedding dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Bytes occupied on the backing device (`rows × dim × 4`).
    #[must_use]
    pub fn backing_bytes(&self) -> u64 {
        self.rows as u64 * self.dim as u64 * 4
    }

    /// Reads row `r` from the backing file into `out`.
    ///
    /// # Errors
    ///
    /// Any I/O error on the positional read.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range or `out.len() != dim`.
    pub fn row_into(&self, r: usize, out: &mut [f32]) -> io::Result<()> {
        assert!(r < self.rows, "row {r} out of range for {}", self.name);
        assert_eq!(out.len(), self.dim, "row buffer must be dim-sized");
        let mut bytes = vec![0u8; self.dim * 4];
        self.file.read_exact_at(&mut bytes, (r * self.dim * 4) as u64)?;
        for (v, chunk) in out.iter_mut().zip(bytes.chunks_exact(4)) {
            *v = f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        Ok(())
    }

    /// SparseLengthsSum against the backing file: rows are read and
    /// accumulated per bag in index order with plain element-wise adds —
    /// the same order and operation as [`EmbeddingTable::
    /// sparse_lengths_sum`], so the result is bitwise identical to the
    /// DRAM tier.
    ///
    /// # Errors
    ///
    /// Any I/O error reading a row.
    ///
    /// # Panics
    ///
    /// Panics if the lengths don't cover `indices` exactly or any index
    /// is out of range.
    pub fn sparse_lengths_sum(&self, indices: &[u64], lengths: &[u32]) -> io::Result<Matrix> {
        let total: usize = lengths.iter().map(|&l| l as usize).sum();
        assert_eq!(
            total,
            indices.len(),
            "lengths sum {total} != indices len {} in table {}",
            indices.len(),
            self.name
        );
        let mut out = Matrix::zeros(lengths.len(), self.dim);
        let mut row = vec![0.0f32; self.dim];
        let mut cursor = 0usize;
        for (b, &len) in lengths.iter().enumerate() {
            let out_row = out.row_mut(b);
            for &idx in &indices[cursor..cursor + len as usize] {
                let idx = usize::try_from(idx).expect("index exceeds usize");
                self.row_into(idx, &mut row)?;
                for (o, &v) in out_row.iter_mut().zip(&row) {
                    *o += v;
                }
            }
            cursor += len as usize;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paged_table_round_trips_rows_bitwise() {
        let dram = EmbeddingTable::seeded("rt", 64, 12, 19);
        let paged = PagedTable::from_table(&dram).unwrap();
        assert_eq!(paged.rows(), 64);
        assert_eq!(paged.dim(), 12);
        assert_eq!(paged.backing_bytes(), 64 * 12 * 4);
        let mut row = vec![0.0f32; 12];
        for r in [0usize, 1, 31, 63] {
            paged.row_into(r, &mut row).unwrap();
            assert_eq!(row.as_slice(), dram.row(r), "row {r}");
        }
    }

    #[test]
    fn paged_sls_is_bit_exact_with_dram() {
        let dram = EmbeddingTable::seeded("sls", 40, 8, 23);
        let paged = PagedTable::from_table(&dram).unwrap();
        let indices = [3u64, 3, 17, 0, 39, 21];
        let lengths = [2u32, 0, 3, 1];
        let a = dram.sparse_lengths_sum(&indices, &lengths);
        let b = paged.sparse_lengths_sum(&indices, &lengths).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn paged_rejects_out_of_range_index() {
        let dram = EmbeddingTable::seeded("oob", 4, 2, 1);
        let paged = PagedTable::from_table(&dram).unwrap();
        let _ = paged.sparse_lengths_sum(&[9], &[1]);
    }
}
