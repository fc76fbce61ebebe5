//! Every `f32` row store starts its rows on a 64-byte cache line,
//! however the table was made: drawn from its spec, from explicit
//! weights, cloned, dequantized, or cut into a row-split shard slice.
//! (The hot-row cache's rows are checked in `cache.rs`, where they are
//! visible.) Equality compares rows, and a table's footprint is its
//! rows alone, so the alignment slack moves no byte identity.

use dlrm_compress::QuantizedTable;
use dlrm_model::{EmbeddingTable, Footprint, NetId, TableId, TableSpec};
use dlrm_sharding::{
    Location, ShardId, ShardService, ShardingPlan, ShardingStrategy, TablePlacement, TableStore,
};
use dlrm_tensor::Matrix;
use std::sync::Arc;

fn assert_aligned(table: &EmbeddingTable, made_by: &str) {
    let at = table.as_slice().as_ptr() as usize % 64;
    assert_eq!(at, 0, "{made_by}: row 0 of {} starts {at} bytes past a line", table.name());
    let rows_bytes = table.rows() * table.dim() * 4;
    assert_eq!(table.footprint_bytes(), rows_bytes as u64, "{made_by}: footprint");
}

#[test]
fn every_table_constructor_starts_row_zero_on_a_cache_line() {
    // Small tables come from malloc's bins and large ones from mmap, at
    // different offsets from a line.
    for (rows, dim) in [(1, 1), (3, 5), (40, 16), (257, 64), (20_000, 64)] {
        let spec = TableSpec {
            id: TableId(0),
            name: format!("t{rows}x{dim}"),
            rows,
            dim,
            net: NetId(0),
            pooling_factor: 1.0,
        };
        let drawn = EmbeddingTable::from_spec(&spec, 3);
        assert_aligned(&drawn, "from_spec");
        let rows = rows as usize;
        let weights = Matrix::from_vec(rows, dim as usize, drawn.as_slice().to_vec());
        let explicit = EmbeddingTable::from_weights(spec.name.as_str(), weights);
        assert_aligned(&explicit, "from_weights");
        assert!(explicit == drawn, "from_weights keeps the rows");
        let clone = drawn.clone();
        assert_aligned(&clone, "clone");
        assert!(clone == drawn, "a clone equals its source");
        assert_aligned(&QuantizedTable::quantize(&drawn, 8).dequantize(), "dequantize");

        let placement = TablePlacement {
            table: TableId(0),
            location: Location::Shards((0..3).map(ShardId).collect()),
        };
        let strategy = ShardingStrategy::NetSpecificBinPacking(3);
        let plan = ShardingPlan::new(strategy, 3, vec![placement]);
        let tables = [Arc::new(drawn)];
        for shard in 0..3 {
            let service = ShardService::build(&tables, &plan, ShardId(shard));
            match service.store(TableId(0)) {
                Some(TableStore::Dram(slice)) => assert_aligned(slice, "row-split slice"),
                other => panic!("shard {shard} holds {other:?}"),
            }
        }
    }
}
