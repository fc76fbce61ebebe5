//! Panel-major packed weights: the one operand layout every GEMM
//! kernel tier reads.
//!
//! A [`PackedWeights`] holds a logical `rows × cols` matrix `W` (the FC
//! layout: one output neuron per row, `cols` = input width `k`) cut
//! into column panels of the product `A · Wᵀ`: 16-wide panels, then at
//! most one 8-wide panel, then the ragged tail as 1-wide panels. The
//! panel starting at output column `j` with width `w` occupies
//! `k·j .. k·(j + w)` and stores `W[j + l][kk]` at `k·j + kk·w + l`, so
//! a kernel walking `kk` upward reads one contiguous `w`-float group
//! per step (one cache line for `w = 16`: the storage is 64-byte
//! aligned) and a 1-wide panel is simply the row of `W` itself.
//!
//! Packing is pure data movement — no arithmetic touches the values —
//! so it cannot change a result bit (DESIGN §3.8). Weights that never
//! change are packed once ([`crate::matmul_packed_into`] then runs
//! pack-free); the `Matrix`-operand entry points pack per call.

use crate::slab::AlignedSlab;
use crate::Matrix;

/// Width of the panel that starts at output column `j` of an
/// `n`-column packing (`j` must be a panel start).
pub(crate) fn panel_width(n: usize, j: usize) -> usize {
    if j + 16 <= n {
        16
    } else if j + 8 <= n {
        8
    } else {
        1
    }
}

/// An immutable `rows × cols` weight matrix in panel-major layout (see
/// the module docs). It is the only copy of the weights an FC layer
/// holds: `rows · cols` floats plus under one cache line of alignment
/// slack.
///
/// # Examples
///
/// ```
/// use dlrm_tensor::{Matrix, PackedWeights};
///
/// let w = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
/// let packed = PackedWeights::pack(&w);
/// assert_eq!((packed.rows(), packed.cols()), (3, 2));
/// assert_eq!(packed.unpack(), w);
/// ```
#[derive(Debug)]
pub struct PackedWeights {
    rows: usize,
    cols: usize,
    /// The `rows · cols` panel floats.
    buf: AlignedSlab,
}

impl PackedWeights {
    fn zeroed(rows: usize, cols: usize) -> Self {
        Self { rows, cols, buf: AlignedSlab::zeroed(rows * cols) }
    }

    /// Builds the packing in place from a generator called once per
    /// element in **row-major** order (`W[0][0], W[0][1], …`), so a
    /// seeded RNG yields the same weights it would for a row-major
    /// matrix without one ever existing.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut() -> f32) -> Self {
        let mut packed = Self::zeroed(rows, cols);
        for r in 0..rows {
            let (base, stride) = packed.row_span(r);
            let data = packed.panels_mut();
            for c in 0..cols {
                data[base + c * stride] = f();
            }
        }
        packed
    }

    /// Packs a row-major `rows × cols` weight matrix (`A · Wᵀ` operand):
    /// panels fill in storage order, each group gathering one column
    /// of `W` across the panel's rows.
    #[must_use]
    pub fn pack(w: &Matrix) -> Self {
        let (n, k) = (w.rows(), w.cols());
        let src = w.as_slice();
        let mut packed = Self::zeroed(n, k);
        let data = packed.panels_mut();
        let mut j = 0;
        while j < n {
            let width = panel_width(n, j);
            let panel = &mut data[k * j..k * (j + width)];
            for (kk, group) in panel.chunks_exact_mut(width).enumerate() {
                for (l, dst) in group.iter_mut().enumerate() {
                    *dst = src[(j + l) * k + kk];
                }
            }
            j += width;
        }
        packed
    }

    /// Packs the `k × n` right operand of a plain `A · B` product (the
    /// logical weights are `Bᵀ`): each panel group is a contiguous run
    /// of one row of `B`, so one sequential sweep of `B` deals every row
    /// out to the panels in short copies.
    pub(crate) fn pack_transposed(b: &Matrix) -> Self {
        let (k, n) = (b.rows(), b.cols());
        let mut packed = Self::zeroed(n, k);
        let data = packed.panels_mut();
        for (kk, b_row) in b.as_slice().chunks_exact(n.max(1)).enumerate() {
            let mut j = 0;
            while j < n {
                let width = panel_width(n, j);
                let at = k * j + kk * width;
                if width == 16 {
                    // Constant length: two vector moves, not a memcpy call.
                    data[at..at + 16].copy_from_slice(&b_row[j..j + 16]);
                } else {
                    data[at..at + width].copy_from_slice(&b_row[j..j + width]);
                }
                j += width;
            }
        }
        packed
    }

    /// `(offset of W[r][0], stride between W[r][c] and W[r][c + 1])`
    /// within [`Self::panels`].
    fn row_span(&self, r: usize) -> (usize, usize) {
        let (n16, n8) = (self.rows / 16 * 16, self.rows / 8 * 8);
        let (start, width) = if r < n16 {
            (r / 16 * 16, 16)
        } else if r < n8 {
            (n16, 8)
        } else {
            (r, 1)
        };
        (self.cols * start + (r - start), width)
    }

    /// Output neurons (rows of `W`, columns of `A · Wᵀ`).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Input width (`k`).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Heap bytes held, alignment slack included.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.buf.heap_bytes()
    }

    /// The row-major matrix this packing was built from, bit for bit.
    #[must_use]
    pub fn unpack(&self) -> Matrix {
        let mut w = Matrix::zeros(self.rows, self.cols);
        let data = self.panels();
        for r in 0..self.rows {
            let (base, stride) = self.row_span(r);
            for (c, v) in w.row_mut(r).iter_mut().enumerate() {
                *v = data[base + c * stride];
            }
        }
        w
    }

    /// The `rows · cols` panel floats, 64-byte aligned.
    pub(crate) fn panels(&self) -> &[f32] {
        &self.buf
    }

    fn panels_mut(&mut self) -> &mut [f32] {
        &mut self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slab::LINE;

    fn counting(rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|i| i as f32).collect())
    }

    #[test]
    fn layout_is_panel_major_with_contiguous_tail() {
        // 27 rows = one 16-panel, one 8-panel, three 1-wide tail panels.
        let (n, k) = (27, 3);
        let packed = PackedWeights::pack(&counting(n, k));
        let data = packed.panels();
        assert_eq!(data.as_ptr() as usize % 64, 0);
        assert_eq!(data.len(), n * k);
        // W[r][c] = r·k + c.
        assert_eq!(data[0], 0.0); // W[0][0]
        assert_eq!(data[1], 3.0); // W[1][0]
        assert_eq!(data[16], 1.0); // W[0][1]
        assert_eq!(data[k * 16], 48.0); // W[16][0] opens the 8-panel
        assert_eq!(data[k * 16 + 8], 49.0); // W[16][1]
        assert_eq!(&data[k * 24..k * 25], &[72.0, 73.0, 74.0]); // row 24 verbatim
    }

    #[test]
    fn every_constructor_agrees_and_unpack_inverts() {
        for (n, k) in [(1, 1), (7, 5), (8, 1), (17, 4), (33, 9), (40, 0), (0, 3)] {
            let w = counting(n, k);
            let mut next = 0.0f32;
            let filled = PackedWeights::from_fn(n, k, || {
                next += 1.0;
                next - 1.0
            });
            let packed = PackedWeights::pack(&w);
            let transposed = PackedWeights::pack_transposed(&w.transpose());
            assert_eq!(packed.panels(), filled.panels(), "{n}x{k} from_fn");
            assert_eq!(packed.panels(), transposed.panels(), "{n}x{k} transposed");
            assert_eq!(packed.unpack(), w, "{n}x{k} unpack");
            assert!(packed.bytes() < (n * k + LINE) * 4);
        }
    }
}
