//! Unified byte accounting for everything that occupies memory.
//!
//! Historically each layer carried its own ad-hoc size method with its
//! own integer type — `TableSpec::bytes() -> u64`,
//! `EmbeddingTable::bytes() -> usize`, `QuantizedTable::bytes() ->
//! usize`, and `f64` bin sizes inside the sharding planner. The
//! capacity-pressure controller (`dlrm_serving::tenancy`) budgets host
//! DRAM against per-tenant footprints and needs *one* consistent
//! number, so every sizeable type now implements [`Footprint`] and the
//! legacy inherent methods delegate here.

use crate::spec::{ModelSpec, TableSpec};
use crate::EmbeddingTable;
use crate::F32_BYTES;

/// Something whose resident memory footprint can be stated in bytes.
///
/// All byte accounting in the workspace flows through this trait: the
/// sharding planner balances `footprint_bytes()`, the shard services
/// report it as capacity, and the tenancy pressure controller sums it
/// against the host DRAM budget. Implementations must be exact (no
/// estimates) and cheap (no traversal of the payload).
pub trait Footprint {
    /// Resident size in bytes.
    fn footprint_bytes(&self) -> u64;

    /// Resident size in GiB (derived; for display only).
    fn footprint_gib(&self) -> f64 {
        self.footprint_bytes() as f64 / crate::GIB
    }
}

impl Footprint for TableSpec {
    /// Logical FP32 size: `rows × dim × 4`.
    fn footprint_bytes(&self) -> u64 {
        self.rows * u64::from(self.dim) * F32_BYTES
    }
}

impl Footprint for ModelSpec {
    /// Sum of all embedding-table footprints (dense layers are
    /// negligible at paper scale — §II).
    fn footprint_bytes(&self) -> u64 {
        self.tables.iter().map(Footprint::footprint_bytes).sum()
    }
}

impl Footprint for EmbeddingTable {
    /// Materialized FP32 weights: `rows × dim × 4`.
    fn footprint_bytes(&self) -> u64 {
        self.as_slice().len() as u64 * F32_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rm;

    #[test]
    fn spec_and_materialized_footprints_agree() {
        let spec = rm::rm3().scaled_to_bytes(1 << 20);
        let t = &spec.tables[1];
        let mat = EmbeddingTable::from_spec(t, 7);
        assert_eq!(t.footprint_bytes(), mat.footprint_bytes());
        assert_eq!(t.footprint_bytes(), t.bytes());
        assert_eq!(spec.footprint_bytes(), spec.total_bytes());
    }

    #[test]
    fn gib_derivation() {
        let spec = rm::rm1();
        assert!((spec.footprint_gib() - spec.total_gib()).abs() < 1e-9);
    }
}
