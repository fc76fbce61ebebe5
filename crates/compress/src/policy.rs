//! Analytic size accounting for paper-scale (virtual) tables.

use dlrm_model::{ModelSpec, TableSpec};

/// The production compression policy of §VII-D: row-wise linear
/// quantization at 8 bits, 4 bits for sufficiently large tables, plus
/// magnitude/frequency pruning.
///
/// Applied analytically to a [`ModelSpec`] (whose tables are virtual at
/// paper scale) to compute the compressed footprint of Table V; the
/// one real kernel is the 8-bit [`crate::QuantizedTable`].
///
/// # Examples
///
/// ```
/// use dlrm_compress::CompressionPolicy;
///
/// let rm1 = dlrm_model::rm::rm1();
/// let ratio = CompressionPolicy::production().compression_ratio(&rm1);
/// // Table V: the compressed model is 5.56× smaller.
/// assert!(ratio > 4.5 && ratio < 7.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionPolicy {
    /// Bits for ordinary tables.
    pub small_bits: u8,
    /// Bits for tables at or above [`Self::large_threshold_bytes`].
    pub large_bits: u8,
    /// Size boundary between "ordinary" and "sufficiently large".
    pub large_threshold_bytes: u64,
    /// Fraction of rows pruned per table.
    pub prune_fraction: f64,
}

impl CompressionPolicy {
    /// The deployed data-center policy calibrated to Table V's 5.56×
    /// reduction on RM1.
    #[must_use]
    pub fn production() -> Self {
        Self {
            small_bits: 8,
            large_bits: 4,
            large_threshold_bytes: 512 << 20, // 512 MiB
            prune_fraction: 0.12,
        }
    }

    /// Compressed footprint of one table: surviving rows × (packed codes
    /// + 8 bytes of row metadata).
    #[must_use]
    pub fn table_bytes(&self, table: &TableSpec) -> u64 {
        let bits = if table.bytes() >= self.large_threshold_bytes {
            self.large_bits
        } else {
            self.small_bits
        };
        let rows = ((table.rows as f64) * (1.0 - self.prune_fraction)).ceil() as u64;
        let row_code_bytes = (u64::from(table.dim) * u64::from(bits)).div_ceil(8);
        rows * (row_code_bytes + 8)
    }

    /// Compressed footprint of the whole model's embedding tables.
    #[must_use]
    pub fn model_bytes(&self, spec: &ModelSpec) -> u64 {
        spec.tables.iter().map(|t| self.table_bytes(t)).sum()
    }

    /// `uncompressed / compressed` (Table V reports 5.56× for RM1).
    #[must_use]
    pub fn compression_ratio(&self, spec: &ModelSpec) -> f64 {
        spec.total_bytes() as f64 / self.model_bytes(spec) as f64
    }

    /// The SLS speed factor under compression: smaller rows mean fewer
    /// bytes touched per lookup, which the paper credits for the
    /// marginal latency *improvement* ("we speculate the cause is
    /// improved memory locality"). Expressed as the ratio of compressed
    /// to uncompressed bytes-per-lookup, averaged over tables weighted
    /// by pooling factor; values < 1 speed SLS up.
    #[must_use]
    pub fn sls_cost_factor(&self, spec: &ModelSpec) -> f64 {
        let mut weighted = 0.0;
        let mut weight = 0.0;
        for t in &spec.tables {
            let bits = if t.bytes() >= self.large_threshold_bytes {
                self.large_bits
            } else {
                self.small_bits
            };
            // Dequantization adds a little compute per element; memory
            // traffic shrinks by 32/bits. Net effect modeled as traffic
            // ratio with a fixed decode overhead.
            let traffic = f64::from(bits) / 32.0;
            let decode_overhead = 0.12;
            weighted += (traffic + decode_overhead).min(1.0) * t.pooling_factor;
            weight += t.pooling_factor;
        }
        if weight == 0.0 {
            1.0
        } else {
            weighted / weight
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_model::rm;

    #[test]
    fn rm1_ratio_near_table_v() {
        let ratio = CompressionPolicy::production().compression_ratio(&rm::rm1());
        assert!((ratio - 5.56).abs() < 1.2, "ratio {ratio}");
    }

    #[test]
    fn rm3_compresses_more_aggressively() {
        // RM3's dominant table is far above the 4-bit threshold, so most
        // bytes get the 8× treatment.
        let p = CompressionPolicy::production();
        let r3 = p.compression_ratio(&rm::rm3());
        let r1 = p.compression_ratio(&rm::rm1());
        assert!(r3 > r1, "rm3 {r3} vs rm1 {r1}");
    }

    #[test]
    fn compressed_model_still_exceeds_commodity_dram() {
        // §VII-D: "even with these savings, large models will still not
        // be able to fit on one, two, or even four commodity servers
        // configured with ~50GB of usable DRAM" — for the *original*
        // data-center models, many times larger than the scaled RM1.
        // The scaled RM1 compresses to ~35 GB; a 10× original would be
        // ~350 GB, far beyond 4 × 50 GB.
        let p = CompressionPolicy::production();
        let compressed_gb = p.model_bytes(&rm::rm1()) as f64 / 1e9;
        assert!((compressed_gb - 35.0).abs() < 8.0, "compressed {compressed_gb} GB");
        let original_scale = compressed_gb * 10.0;
        assert!(original_scale > 4.0 * 50.0);
    }

    #[test]
    fn sls_cost_factor_speeds_up_lookups() {
        let p = CompressionPolicy::production();
        for spec in rm::all() {
            let f = p.sls_cost_factor(&spec);
            assert!(f < 1.0 && f > 0.1, "{}: factor {f}", spec.name);
        }
    }

    #[test]
    fn threshold_splits_bit_widths() {
        let p = CompressionPolicy::production();
        let rm1 = rm::rm1();
        let small = rm1
            .tables
            .iter()
            .find(|t| t.bytes() < p.large_threshold_bytes)
            .unwrap();
        let large = rm1
            .tables
            .iter()
            .find(|t| t.bytes() >= p.large_threshold_bytes)
            .unwrap();
        // bytes-per-row ratio reflects bit width + overhead.
        let per_row = |t: &TableSpec| p.table_bytes(t) as f64 / t.rows as f64;
        let small_density = per_row(small) / f64::from(small.dim);
        let large_density = per_row(large) / f64::from(large.dim);
        assert!(small_density > large_density);
    }
}
