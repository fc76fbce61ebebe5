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
//!    DRAM holds only metadata; a slice reads each page it touches once
//!    and pools it with the DRAM tier's kernel, so it is bit-exact with
//!    DRAM, only slower.

use crate::rpc::TableSlice;
use dlrm_compress::QuantizedTable;
use dlrm_model::embedding::sls_rows_into;
use dlrm_model::{BufferPool, EmbeddingTable, Footprint, Pool};
use dlrm_tensor::simd::{check_bags, GatherError};
use dlrm_tensor::Matrix;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::ops::Range;
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
    let name = format!("{}[part {part}/{parts}]", full.name());
    Arc::new(EmbeddingTable::from_row_fn(name, local_rows, full.dim(), |j, row| {
        let global = j * parts + part;
        if global < rows {
            row.copy_from_slice(full.row(global));
        }
    }))
}

/// One hosted table slice, stored at its tier. Every variant is an
/// `Arc`: services that hold the slice at the same tier share one
/// store, and a paged slice's backing file lives until its last holder
/// drops.
#[derive(Debug, Clone)]
pub enum TableStore {
    /// Full-precision rows; a whole table shares the model's `Arc`.
    Dram(Arc<EmbeddingTable>),
    /// [`DEMOTED_BITS`]-bit row-wise quantized rows.
    Quantized(Arc<QuantizedTable>),
    /// Rows in a backing file.
    Paged(Arc<PagedTable>),
}

impl TableStore {
    /// Stores `local` at `tier`: the one place that decides how a slice
    /// is held on a rung.
    ///
    /// # Errors
    ///
    /// An I/O error message if a paged table's backing file cannot be
    /// created.
    pub(crate) fn new(local: Arc<EmbeddingTable>, tier: Tier) -> Result<Self, String> {
        Ok(match tier {
            Tier::Dram => Self::Dram(local),
            Tier::Quantized => {
                Self::Quantized(Arc::new(QuantizedTable::quantize(&local, DEMOTED_BITS)))
            }
            Tier::Paged => Self::Paged(Arc::new(
                PagedTable::from_table(&local)
                    .map_err(|e| format!("paging {}: {e}", local.name()))?,
            )),
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
    /// validates the slice once, as its kernel's first pass, before any
    /// row is read, and rejects it with the same text.
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
                // The kernel writes every element (`sls_bags`), so the
                // store, recycled through the shared pool, needs no zero
                // fill.
                let store = BufferPool::shared().acquire_unzeroed(lengths.len() * t.dim());
                let mut out = Matrix::from_vec(lengths.len(), t.dim(), store);
                t.try_sparse_lengths_sum_into(indices, lengths, &mut out, pool)
                    .map_err(malformed)?;
                Ok(out)
            }
            Self::Quantized(t) => t
                .try_sparse_lengths_sum_par(indices, lengths, pool)
                .map_err(malformed),
            Self::Paged(t) => t.sparse_lengths_sum_par(indices, lengths, pool).map_err(|e| {
                match e.get_ref().and_then(|inner| inner.downcast_ref::<GatherError>()) {
                    Some(&g) => malformed(g),
                    None => format!("paged read for {}: {e}", slice.table),
                }
            }),
        }
    }
}

/// The paged tier's read granularity: one page of the page cache.
const PAGE_BYTES: usize = 4096;

/// Bytes per write when a table is spilled to its backing file.
const SPILL_BYTES: usize = 1 << 20;

/// Distinguishes concurrently created paged-table backing files within
/// one process.
static PAGED_FILE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A file-backed embedding table: the servable paged tier.
///
/// The weights are spilled to an anonymous temp file (unlinked at
/// creation, so the space is reclaimed when the table drops) and read
/// back per slice via positional reads — no mmap, no unsafe. A slice
/// reads every block it touches once (a block is one 4 KiB page rounded
/// down to whole rows, at least one row), touched rows less than a
/// block apart in one read, into a compact slab that lives for the
/// call; DRAM residency is metadata only, which is what makes demoting
/// a table here free the pressure controller's budget. The slab is
/// pooled in place by the DRAM tier's own kernel ([`sls_rows_into`]),
/// over the same rows in the same order, so a paged table answers
/// **bitwise identically** to its DRAM twin — only slower.
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
        let file = File::options()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        // Unlink immediately: the open handle keeps the data reachable,
        // and the kernel reclaims it on drop even if the process dies.
        std::fs::remove_file(&path)?;
        let mut image = BufWriter::with_capacity(SPILL_BYTES, &file);
        for &v in table.as_slice() {
            image.write_all(&v.to_le_bytes())?;
        }
        image.flush()?;
        drop(image);
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

    /// Rows per read block: one [`PAGE_BYTES`] page rounded down to
    /// whole rows, at least one row.
    fn block_rows(&self) -> usize {
        (PAGE_BYTES / (self.dim * 4)).max(1)
    }

    /// The positional reads one slice needs, ascending: its distinct
    /// in-range rows, where two consecutive ones share a read when fewer
    /// than a block of rows lies between them, each read running from
    /// its first row through its last. Rows of one block always share a
    /// read, so every touched block is read once; a dense slice reads
    /// the table in one go, and a sparse one about the rows it pools —
    /// a read never crosses a page of rows nobody asked for to save a
    /// syscall (copying the bytes costs more than the call).
    fn reads(&self, indices: &[u64]) -> Vec<Range<usize>> {
        let block = self.block_rows();
        let mut rows: Vec<usize> = indices.iter().map(|&i| i as usize).collect();
        rows.sort_unstable();
        rows.dedup();
        rows.chunk_by(|a, b| b - a <= block)
            .map(|run| run[0]..run[run.len() - 1] + 1)
            .collect()
    }

    /// SparseLengthsSum against the backing file, on one worker; see
    /// [`Self::sparse_lengths_sum_par`].
    ///
    /// # Errors
    ///
    /// As [`Self::sparse_lengths_sum_par`].
    pub fn sparse_lengths_sum(&self, indices: &[u64], lengths: &[u32]) -> io::Result<Matrix> {
        self.sparse_lengths_sum_par(indices, lengths, &Pool::sequential())
    }

    /// SparseLengthsSum against the backing file: checks the slice,
    /// reads the rows it touches once into a compact slab (one read per
    /// run of touched blocks), then pools the slab bag-parallel on
    /// `pool` with the DRAM tier's kernel — the same rows in the same
    /// order as [`EmbeddingTable::sparse_lengths_sum`], so the result is
    /// bitwise identical to the DRAM tier. The slab is dropped before
    /// returning.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] wrapping the [`GatherError`] when
    /// the lengths do not cover `indices` or an index is out of range
    /// (nothing is read then), or any I/O error reading the file.
    pub fn sparse_lengths_sum_par(
        &self,
        indices: &[u64],
        lengths: &[u32],
        pool: &Pool,
    ) -> io::Result<Matrix> {
        let invalid = |e: GatherError| io::Error::new(io::ErrorKind::InvalidInput, e);
        check_bags(indices, lengths, self.rows).map_err(invalid)?;
        let dim = self.dim;
        let mut out = Matrix::zeros(lengths.len(), dim);
        if dim == 0 {
            return Ok(out);
        }
        let reads = self.reads(indices);
        let rows_read = reads.iter().map(ExactSizeIterator::len);
        let mut bytes = vec![0u8; rows_read.clone().max().unwrap_or(0) * dim * 4];
        let mut slab = Vec::with_capacity(rows_read.sum::<usize>() * dim);
        // Slab row of each read's first row.
        let mut starts = Vec::with_capacity(reads.len());
        for rows in &reads {
            starts.push(slab.len() / dim);
            let run = &mut bytes[..rows.len() * dim * 4];
            self.file.read_exact_at(run, (rows.start * dim * 4) as u64)?;
            slab.extend(run.chunks_exact(4).map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])));
        }
        drop(bytes);
        let local: Vec<u64> = indices
            .iter()
            .map(|&i| {
                let i = i as usize;
                let k = reads.partition_point(|rows| rows.end <= i);
                (starts[k] + i - reads[k].start) as u64
            })
            .collect();
        sls_rows_into(&slab, dim, &local, lengths, &mut out, pool).map_err(invalid)?;
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
        let rows = [0u64, 1, 31, 63];
        let pooled = paged.sparse_lengths_sum(&rows, &[1; 4]).unwrap();
        for (b, &r) in rows.iter().enumerate() {
            assert_eq!(pooled.row(b), dram.row(r as usize), "row {r}");
        }
    }

    /// One positional read per run of touched rows less than a block
    /// apart, spanning the run's first to last row: rows of 192 floats
    /// (768 bytes) make blocks of 5 rows, and 23 rows end in a partial
    /// block (rows 20..23).
    #[test]
    fn a_slice_reads_each_touched_block_once() {
        let paged = PagedTable::from_table(&EmbeddingTable::seeded("io", 23, 192, 3)).unwrap();
        assert_eq!(paged.block_rows(), 5);
        let every_row: Vec<u64> = (0..23).rev().chain(0..23).collect();
        assert_eq!(paged.reads(&every_row), vec![0..23], "every row: 1 read");
        assert_eq!(paged.reads(&[12, 3]), vec![3..4, 12..13], "blocks 0 and 2: 2 reads");
        assert_eq!(paged.reads(&[9, 5]), vec![5..10], "one block: 1 read");
        assert_eq!(paged.reads(&[17, 3, 12, 22, 19]), vec![3..4, 12..23]);
        assert_eq!(paged.reads(&[4, 1, 4, 6]), vec![1..7], "4 rows apart: 1 read");
        assert_eq!(paged.reads(&[0, 9]), vec![0..1, 9..10], "8 rows apart: 2 reads");
        assert_eq!(paged.reads(&[]), vec![]);
        let wide = PagedTable::from_table(&EmbeddingTable::seeded("w", 3, 2000, 3)).unwrap();
        assert_eq!(wide.block_rows(), 1, "a row wider than a page is its own block");
        assert_eq!(wide.reads(&[2, 0]), vec![0..1, 2..3]);
        assert_eq!(wide.reads(&[1, 0]), vec![0..2]);
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
    fn paged_rejects_out_of_range_index() {
        let dram = EmbeddingTable::seeded("oob", 4, 2, 1);
        let paged = PagedTable::from_table(&dram).unwrap();
        for (indices, lengths, want) in [
            (&[9u64][..], &[1u32][..], GatherError::IndexOutOfRange { index: 9, rows: 4 }),
            (&[0, 1], &[1], GatherError::LengthMismatch { lengths_sum: 1, indices: 2 }),
        ] {
            let err = paged.sparse_lengths_sum(indices, lengths).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            let inner = err.get_ref().and_then(|e| e.downcast_ref::<GatherError>());
            assert_eq!(inner, Some(&want));
        }
    }
}
