//! Model specifications: the aggregate attributes the study varies.

use crate::{Footprint, GIB};

/// Identifies an embedding table within a [`ModelSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableId(pub usize);

impl std::fmt::Display for TableId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Identifies a net (sub-network) within a model. RM1 and RM2 have two
/// nets — the user net and the content/product net, executed
/// sequentially — while RM3 has a single net (§V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub usize);

impl std::fmt::Display for NetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "net{}", self.0)
    }
}

/// Operator groups used for compute attribution (Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpGroup {
    /// Fully-connected (dense matmul) layers.
    Fc,
    /// The SparseLengthsSum family: embedding lookup + pooling.
    Sls,
    /// Tensor reshapes/concats/splits around the feature interaction.
    TensorTransform,
    /// Element-wise activations.
    Activation,
    /// Everything else (copies, bookkeeping).
    Other,
}

impl std::fmt::Display for OpGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            OpGroup::Fc => "FC",
            OpGroup::Sls => "SLS",
            OpGroup::TensorTransform => "TensorTransform",
            OpGroup::Activation => "Activation",
            OpGroup::Other => "Other",
        };
        f.write_str(s)
    }
}

/// Static description of one embedding table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSpec {
    /// Stable identifier (index into [`ModelSpec::tables`]).
    pub id: TableId,
    /// Human-readable name.
    pub name: String,
    /// Logical (hash-bucket) row count. At paper scale this may be
    /// billions; materialization downsizes it.
    pub rows: u64,
    /// Embedding vector dimension.
    pub dim: u32,
    /// Which net's sparse features index this table.
    pub net: NetId,
    /// Expected number of lookups into this table per inference request
    /// (the "pooling factor" of Table II, estimated in the paper by
    /// sampling 1000 requests).
    pub pooling_factor: f64,
}

impl TableSpec {
    /// Size of the table in bytes at FP32 precision (the
    /// [`Footprint`] of the spec).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.footprint_bytes()
    }

    /// Size of the table in GiB at FP32 precision.
    #[must_use]
    pub fn gib(&self) -> f64 {
        self.bytes() as f64 / GIB
    }
}

/// Dense-side architecture of one net.
#[derive(Debug, Clone, PartialEq)]
pub struct NetSpec {
    /// Which net this describes.
    pub id: NetId,
    /// Human-readable name (e.g. `"user"`, `"content"`).
    pub name: String,
    /// Bottom-MLP layer widths, ending at the embedding dimension so the
    /// dense path can join the feature interaction.
    pub bottom_mlp: Vec<usize>,
    /// Top-MLP layer widths after feature interaction; the final net ends
    /// in a single logit.
    pub top_mlp: Vec<usize>,
    /// Whether this net consumes the previous net's output (RM1/RM2:
    /// the user net's output feeds the content net, forcing sequential
    /// execution — §III-B3).
    pub takes_prev_output: bool,
}

/// Complete static description of a recommendation model.
///
/// # Examples
///
/// ```
/// let rm1 = dlrm_model::rm::rm1();
/// assert_eq!(rm1.tables.len(), 257);
/// assert!((rm1.total_gib() - 194.05).abs() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Model name ("RM1", "RM2", "RM3", or custom).
    pub name: String,
    /// Number of dense (continuous) input features.
    pub dense_features: usize,
    /// All embedding tables, indexed by [`TableId`].
    pub tables: Vec<TableSpec>,
    /// The nets, in execution order.
    pub nets: Vec<NetSpec>,
    /// Default number of items ranked per batch in the serving tier.
    pub default_batch_size: usize,
    /// Mean number of candidate items per inference request (drives the
    /// number of batches per request).
    pub mean_items_per_request: f64,
}

impl ModelSpec {
    /// Total embedding capacity in bytes (the [`Footprint`] of the
    /// spec).
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.footprint_bytes()
    }

    /// Total embedding capacity in GiB.
    #[must_use]
    pub fn total_gib(&self) -> f64 {
        self.total_bytes() as f64 / GIB
    }

    /// Sum of per-table pooling factors (the model's expected lookups
    /// per request; the "Estimated Pooling Factor" for a 1-shard
    /// configuration in Table II).
    #[must_use]
    pub fn total_pooling_factor(&self) -> f64 {
        self.tables.iter().map(|t| t.pooling_factor).sum()
    }

    /// Tables belonging to `net`, in table-id order.
    pub fn tables_of_net(&self, net: NetId) -> impl Iterator<Item = &TableSpec> {
        self.tables.iter().filter(move |t| t.net == net)
    }

    /// Looks up a table spec by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn table(&self, id: TableId) -> &TableSpec {
        &self.tables[id.0]
    }

    /// A proportionally downsized copy whose total embedding capacity is
    /// at most `target_bytes`, preserving the *relative* size
    /// distribution (Fig. 5's shape), dims, nets and pooling factors.
    ///
    /// Mirrors the paper's methodology: "Embedding tables larger than a
    /// given threshold were scaled down by a proportional factor to fit
    /// the entire model on a single 256GB server" (§V-A).
    ///
    /// Row counts are clamped to at least 8 so every table remains
    /// materializable and shardable.
    ///
    /// # Panics
    ///
    /// Panics if `target_bytes` is zero.
    #[must_use]
    pub fn scaled_to_bytes(&self, target_bytes: u64) -> ModelSpec {
        assert!(target_bytes > 0, "target size must be non-zero");
        let total = self.total_bytes();
        let factor = if total <= target_bytes {
            1.0
        } else {
            target_bytes as f64 / total as f64
        };
        let mut out = self.clone();
        if factor < 1.0 {
            for t in &mut out.tables {
                t.rows = ((t.rows as f64 * factor).round() as u64).max(8);
            }
        }
        out
    }

    /// Validates internal consistency; called by the generators and
    /// useful after hand-construction.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant: table ids
    /// must be dense and ordered, every table's net must exist, nets
    /// must be non-empty and ordered, and only the first net may lack
    /// `takes_prev_output == false`.
    pub fn validate(&self) -> Result<(), String> {
        if self.nets.is_empty() {
            return Err("model has no nets".into());
        }
        for (i, n) in self.nets.iter().enumerate() {
            if n.id != NetId(i) {
                return Err(format!("net {i} has id {}", n.id));
            }
            if i == 0 && n.takes_prev_output {
                return Err("first net cannot take previous output".into());
            }
            if n.top_mlp.is_empty() || n.bottom_mlp.is_empty() {
                return Err(format!("net {i} has empty MLP stack"));
            }
        }
        for (i, t) in self.tables.iter().enumerate() {
            if t.id != TableId(i) {
                return Err(format!("table {i} has id {}", t.id));
            }
            if t.net.0 >= self.nets.len() {
                return Err(format!("table {i} references missing {}", t.net));
            }
            if t.rows == 0 || t.dim == 0 {
                return Err(format!("table {i} has degenerate shape"));
            }
            if t.pooling_factor < 0.0 || t.pooling_factor.is_nan() {
                return Err(format!("table {i} has invalid pooling factor"));
            }
        }
        if self.default_batch_size == 0 {
            return Err("default batch size must be non-zero".into());
        }
        if self.mean_items_per_request <= 0.0 || self.mean_items_per_request.is_nan() {
            return Err("mean items per request must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ModelSpec {
        ModelSpec {
            name: "tiny".into(),
            dense_features: 4,
            tables: vec![
                TableSpec {
                    id: TableId(0),
                    name: "t0".into(),
                    rows: 100,
                    dim: 8,
                    net: NetId(0),
                    pooling_factor: 10.0,
                },
                TableSpec {
                    id: TableId(1),
                    name: "t1".into(),
                    rows: 1000,
                    dim: 8,
                    net: NetId(0),
                    pooling_factor: 2.0,
                },
            ],
            nets: vec![NetSpec {
                id: NetId(0),
                name: "main".into(),
                bottom_mlp: vec![16, 8],
                top_mlp: vec![16, 1],
                takes_prev_output: false,
            }],
            default_batch_size: 16,
            mean_items_per_request: 32.0,
        }
    }

    #[test]
    fn byte_accounting() {
        let s = tiny_spec();
        assert_eq!(s.tables[0].bytes(), 100 * 8 * 4);
        assert_eq!(s.total_bytes(), (100 + 1000) * 8 * 4);
        assert_eq!(s.total_pooling_factor(), 12.0);
    }

    #[test]
    fn validate_accepts_consistent_spec() {
        assert_eq!(tiny_spec().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_table_net() {
        let mut s = tiny_spec();
        s.tables[1].net = NetId(5);
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_rejects_misnumbered_ids() {
        let mut s = tiny_spec();
        s.tables[1].id = TableId(7);
        assert!(s.validate().is_err());
    }

    #[test]
    fn scaling_preserves_distribution_shape() {
        let s = tiny_spec();
        let scaled = s.scaled_to_bytes(s.total_bytes() / 2);
        assert!(scaled.total_bytes() <= s.total_bytes() / 2 + 64);
        // Relative order preserved.
        assert!(scaled.tables[1].rows > scaled.tables[0].rows);
        // Pooling untouched.
        assert_eq!(scaled.total_pooling_factor(), 12.0);
    }

    #[test]
    fn scaling_no_op_when_already_small() {
        let s = tiny_spec();
        let scaled = s.scaled_to_bytes(u64::MAX);
        assert_eq!(scaled, s);
    }

    #[test]
    fn scaling_clamps_to_min_rows() {
        let s = tiny_spec();
        let scaled = s.scaled_to_bytes(1);
        assert!(scaled.tables.iter().all(|t| t.rows >= 8));
    }

    #[test]
    fn tables_of_net_filters() {
        let mut s = tiny_spec();
        s.nets.push(NetSpec {
            id: NetId(1),
            name: "second".into(),
            bottom_mlp: vec![8],
            top_mlp: vec![1],
            takes_prev_output: true,
        });
        s.tables[1].net = NetId(1);
        assert_eq!(s.tables_of_net(NetId(0)).count(), 1);
        assert_eq!(s.tables_of_net(NetId(1)).count(), 1);
    }
}
