//! The graph partitioner: rewrites a model for distributed inference.
//!
//! "A custom partitioning tool employs a user-supplied configuration to
//! group embedding tables and their operators, insert RPC operators,
//! generate new Caffe2 nets, and then serialize the model" (§III-C).
//! [`partition`] is that tool: it consumes a built [`Model`] and a
//! [`ShardingPlan`] and produces a [`DistributedModel`] whose main-shard
//! nets contain [`SparseRpc`] operators in place of the relocated
//! `SparseLengthsSum` operators, plus per-shard [`ShardService`]s.

use crate::cache::HotRowCache;
use crate::plan::{ShardId, ShardingPlan};
use crate::rpc::{RpcFetch, SparseRpc, SparseShardClient};
use crate::{InProcessClient, ShardService};
use dlrm_model::graph::{
    external_input_blobs, ExecutionObserver, GraphError, NetDef, Operator, Schedule, Step,
    Workspace,
};
use dlrm_model::ops::ElementwiseSum;
use dlrm_model::{Model, ModelSpec, NetId, TableId};
use dlrm_tensor::Matrix;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Errors from graph partitioning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// The plan does not match the model.
    PlanMismatch(String),
    /// An SLS operator referenced a table the spec does not know.
    UnknownTable {
        /// The operator.
        op: String,
        /// The unknown table name.
        table: String,
    },
    /// The rewritten nets do not compile to a schedule (a rewrite bug:
    /// some operator's declared input is produced by nothing).
    InvalidGraph(String),
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::PlanMismatch(m) => write!(f, "plan does not match model: {m}"),
            PartitionError::UnknownTable { op, table } => {
                write!(f, "operator {op} references unknown table {table}")
            }
            PartitionError::InvalidGraph(m) => write!(f, "partitioner produced {m}"),
        }
    }
}

impl std::error::Error for PartitionError {}

/// A model partitioned for distributed inference: rewritten main-shard
/// nets plus the sparse-shard services they call. A clone shares the
/// services, the operators' parameters, the cache and the schedule.
#[derive(Debug, Clone)]
pub struct DistributedModel {
    /// The model's static description.
    pub spec: ModelSpec,
    /// Main-shard nets with RPC operators in place of remote SLS ops.
    pub nets: Vec<NetDef>,
    /// One service per sparse shard, indexed by [`ShardId`].
    pub shards: Vec<Arc<ShardService>>,
    /// The plan this model was partitioned under.
    pub plan: ShardingPlan,
    /// Name of the final prediction blob.
    pub output_blob: String,
    /// The main shard's hot-row cache, when the plan carries hot-row
    /// sets (see [`crate::plan_with_stats`]). Shared by every
    /// [`SparseRpc`] operator and read-only; each op reports what it
    /// absorbed in its `RpcOutcome`.
    pub cache: Option<Arc<HotRowCache>>,
    /// The overlap plan of `nets`, compiled by the partitioner and
    /// shared by every successor ([`Self::with_shards`]).
    schedule: Arc<Schedule>,
}

impl DistributedModel {
    /// Walks the compiled overlap plan ([`Schedule::walk`]): every
    /// [`SparseRpc`] of every net reads only request inputs, so all
    /// shard requests leave before the first dense operator and overlap
    /// with each other and with the dense compute of both nets (§IV-A).
    /// Bit-exact with running the nets in order with [`NetDef::run`].
    ///
    /// # Errors
    ///
    /// Propagates the first operator failure; RPCs still in flight are
    /// abandoned.
    pub fn run_overlapped(
        &self,
        ws: &mut Workspace,
        observer: &mut dyn ExecutionObserver,
    ) -> Result<Matrix, GraphError> {
        self.schedule.walk(&self.nets, ws, observer)?;
        ws.take_dense(&self.output_blob, "distributed-output")
    }

    /// A copy of the compiled plan's consumer counts
    /// ([`Schedule::consumers`]); kept only for the benchmark's pinned
    /// calls (ROADMAP 4 (a) deletes it).
    #[must_use]
    pub fn consumer_counts(&self) -> std::collections::HashMap<String, usize> {
        (**self.schedule.consumers()).clone()
    }

    /// Applies one fault-tolerance [`RpcPolicy`](crate::rpc::RpcPolicy)
    /// to every [`SparseRpc`] operator across all nets (via the
    /// [`Operator::as_any_mut`] downcast hook), and returns how many
    /// operators were configured.
    /// Call after partitioning, before serving.
    pub fn set_rpc_policy(&mut self, policy: crate::rpc::RpcPolicy) -> usize {
        let mut configured = 0;
        for net in &mut self.nets {
            for op in net.ops_mut() {
                let Some(any) = op.as_any_mut() else { continue };
                if let Some(rpc) = any.downcast_mut::<SparseRpc>() {
                    rpc.set_policy(policy);
                    configured += 1;
                }
            }
        }
        configured
    }

    /// The successor of this model that serves each shard in `replaced`
    /// from its new `(service, client)` pair, the shard being the
    /// service's own: a clone of this model in which only the RPC
    /// operators calling a replaced shard call its new client.
    #[must_use]
    pub fn with_shards(
        &self,
        replaced: Vec<(Arc<ShardService>, Arc<dyn SparseShardClient>)>,
    ) -> Self {
        let mut next = self.clone();
        for (service, client) in replaced {
            let shard = service.shard_id();
            for op in next.nets.iter_mut().flat_map(NetDef::ops_mut) {
                let rpc = op.as_any_mut().and_then(|any| any.downcast_mut::<SparseRpc>());
                if let Some(rpc) = rpc.filter(|rpc| rpc.shard_id() == shard) {
                    rpc.set_client(Arc::clone(&client));
                }
            }
            next.shards[shard.0] = service;
        }
        next
    }

    /// Number of RPC operators across all nets — one RPC issued per
    /// operator per batch, the quantity compute overhead is proportional
    /// to (§VI-C1).
    #[must_use]
    pub fn rpc_ops_per_inference(&self) -> usize {
        let issues = self.schedule.steps().iter();
        issues.filter(|step| matches!(step, Step::Issue(_))).count()
    }
}

/// Partitions `model` under `plan` with in-process shard clients — the
/// configuration used for correctness verification.
///
/// # Errors
///
/// See [`partition_with_clients`].
///
/// # Examples
///
/// ```
/// use dlrm_sharding::{partition, plan, ShardingStrategy};
/// use dlrm_workload::PoolingProfile;
///
/// let spec = dlrm_model::rm::rm3().scaled_to_bytes(4 << 20);
/// let profile = PoolingProfile::from_spec(&spec);
/// let p = plan(&spec, &profile, ShardingStrategy::OneShard)?;
/// let model = dlrm_model::build_model(&spec, 1).unwrap();
/// let dist = partition(model, &p).unwrap();
/// assert_eq!(dist.shards.len(), 1);
/// # Ok::<(), dlrm_sharding::PlanError>(())
/// ```
pub fn partition(model: Model, plan: &ShardingPlan) -> Result<DistributedModel, PartitionError> {
    let services: Vec<Arc<ShardService>> = plan
        .shards()
        .map(|s| Arc::new(ShardService::build(&model.tables, plan, s)))
        .collect();
    let clients: Vec<Arc<dyn SparseShardClient>> = services
        .iter()
        .map(|s| Arc::new(InProcessClient::new(Arc::clone(s))) as Arc<dyn SparseShardClient>)
        .collect();
    partition_with_clients(model, plan, services, clients)
}

/// Partitions `model` under `plan`, wiring the rewritten nets to the
/// provided shard clients (which must be ordered by [`ShardId`]).
///
/// # Errors
///
/// - [`PartitionError::PlanMismatch`] if the plan fails validation
///   against the model's spec or the client list is mis-sized.
/// - [`PartitionError::UnknownTable`] if an SLS operator references a
///   table absent from the spec.
pub fn partition_with_clients(
    model: Model,
    plan: &ShardingPlan,
    services: Vec<Arc<ShardService>>,
    clients: Vec<Arc<dyn SparseShardClient>>,
) -> Result<DistributedModel, PartitionError> {
    plan.validate(&model.spec)
        .map_err(PartitionError::PlanMismatch)?;
    if clients.len() != plan.num_shards() {
        return Err(PartitionError::PlanMismatch(format!(
            "{} clients for {} shards",
            clients.len(),
            plan.num_shards()
        )));
    }

    // Materialize the plan's hot-row sets while the full tables are
    // still at hand; every RPC operator below shares this cache.
    let cache = if plan.has_hot_rows() {
        Some(Arc::new(HotRowCache::build(&model.tables, plan)))
    } else {
        None
    };

    let spec = model.spec.clone();
    let output_blob = model.output_blob.clone();
    // Table lookup by name (builder names tables uniquely).
    let by_name: BTreeMap<&str, TableId> =
        spec.tables.iter().map(|t| (t.name.as_str(), t.id)).collect();

    let mut new_nets = Vec::with_capacity(model.nets.len());
    for (net_idx, net) in model.nets.into_iter().enumerate() {
        let net_id = NetId(net_idx);
        let net_name = net.name().to_string();
        let mut fetches_by_shard: BTreeMap<ShardId, Vec<RpcFetch>> = BTreeMap::new();
        // (table name, part blobs in part order, combined output blob)
        let mut combines: Vec<(String, Vec<String>, String)> = Vec::new();
        let mut rewritten: Vec<Box<dyn Operator>> = Vec::new();
        let mut insert_at: Option<usize> = None;

        for op in net.into_ops() {
            let Some(sls) = op.as_sparse_lengths_sum() else {
                rewritten.push(op);
                continue;
            };
            let table_id = *by_name.get(sls.table().name()).ok_or_else(|| {
                PartitionError::UnknownTable {
                    op: sls.name().to_string(),
                    table: sls.table().name().to_string(),
                }
            })?;
            let placement = plan.placement(table_id);
            let crate::plan::Location::Shards(shards) = &placement.location else {
                // Singular: keep the SLS op on the main shard.
                rewritten.push(op);
                continue;
            };
            insert_at.get_or_insert(rewritten.len());
            let parts = shards.len();
            let mut part_blobs = Vec::with_capacity(parts);
            for (part, &shard) in shards.iter().enumerate() {
                let output_blob = if parts == 1 {
                    sls.output_blob().to_string()
                } else {
                    format!("{}/part{part}", sls.output_blob())
                };
                part_blobs.push(output_blob.clone());
                fetches_by_shard.entry(shard).or_default().push(RpcFetch {
                    table: table_id,
                    input_blob: sls.input_blob().to_string(),
                    output_blob,
                    parts,
                    part,
                    dim: spec.table(table_id).dim as usize,
                });
            }
            if parts > 1 {
                combines.push((
                    spec.table(table_id).name.clone(),
                    part_blobs,
                    sls.output_blob().to_string(),
                ));
            }
            // The SLS op itself is dropped: its table now lives remotely.
        }

        if let Some(pos) = insert_at {
            let mut inserted: Vec<Box<dyn Operator>> = Vec::new();
            for (shard, fetches) in fetches_by_shard {
                let mut rpc = SparseRpc::new(
                    format!("{net_name}/rpc/{shard}"),
                    net_id,
                    Arc::clone(&clients[shard.0]),
                    fetches,
                );
                if let Some(cache) = &cache {
                    rpc.set_cache(Arc::clone(cache));
                }
                inserted.push(Box::new(rpc));
            }
            for (table_name, parts, output) in combines {
                inserted.push(Box::new(ElementwiseSum::new(
                    format!("{net_name}/combine/{table_name}"),
                    parts,
                    output,
                )));
            }
            rewritten.splice(pos..pos, inserted);
        }

        let mut new_net = NetDef::new(net_name);
        new_net.set_ops(rewritten);
        new_nets.push(new_net);
    }

    // The rewrite moved and replaced operators: compiling the overlap
    // plan is where a partitioner bug surfaces, not mid-run.
    let schedule = Schedule::compile(&new_nets, external_input_blobs(&spec), &output_blob)
        .map_err(|e| PartitionError::InvalidGraph(e.to_string()))?;

    Ok(DistributedModel {
        spec,
        nets: new_nets,
        shards: services,
        plan: plan.clone(),
        output_blob,
        cache,
        schedule: Arc::new(schedule),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{plan as make_plan, ShardingStrategy};
    use dlrm_model::graph::NoopObserver;
    use dlrm_model::{build_model, rm};
    use dlrm_workload::{materialize_request, PoolingProfile, TraceDb};

    /// Runs singular and distributed execution on the same inputs and
    /// returns both outputs.
    fn run_both(
        spec: &dlrm_model::ModelSpec,
        strategy: ShardingStrategy,
    ) -> (Matrix, Matrix, DistributedModel) {
        let profile = PoolingProfile::from_spec(spec);
        let p = make_plan(spec, &profile, strategy).unwrap();
        let singular = build_model(spec, 42).unwrap();
        let distributed = partition(build_model(spec, 42).unwrap(), &p).unwrap();

        let db = TraceDb::generate(spec, 3, 5);
        let batches = materialize_request(spec, db.get(0), 8, 9);
        let mut ws_a = Workspace::new();
        batches[0].load_into(spec, &mut ws_a);
        let mut ws_b = ws_a.clone();

        let out_a = singular.run(&mut ws_a, &mut NoopObserver).unwrap();
        let out_b = distributed.run_overlapped(&mut ws_b, &mut NoopObserver).unwrap();
        (out_a, out_b, distributed)
    }

    #[test]
    fn one_shard_matches_singular_bit_for_bit() {
        let spec = rm::rm1().scaled_to_bytes(4 << 20);
        let (a, b, dist) = run_both(&spec, ShardingStrategy::OneShard);
        assert_eq!(a, b);
        assert_eq!(dist.shards.len(), 1);
    }

    #[test]
    fn balanced_strategies_match_singular_bit_for_bit() {
        let spec = rm::rm1().scaled_to_bytes(4 << 20);
        for strategy in [
            ShardingStrategy::CapacityBalanced(4),
            ShardingStrategy::LoadBalanced(4),
            ShardingStrategy::NetSpecificBinPacking(4),
        ] {
            let (a, b, _) = run_both(&spec, strategy);
            // Whole-table placement preserves float summation order.
            assert_eq!(a, b, "{strategy}");
        }
    }

    #[test]
    fn row_sharded_rm3_matches_within_float_tolerance() {
        let spec = rm::rm3().scaled_to_bytes(4 << 20);
        let (a, b, dist) = run_both(&spec, ShardingStrategy::NetSpecificBinPacking(4));
        // Partial sums change float addition order; results must agree
        // to tolerance.
        assert!(
            a.approx_eq(&b, 1e-4),
            "max diff {}",
            a.max_abs_diff(&b)
        );
        assert!(dist.plan.placement(TableId(0)).is_row_sharded());
    }

    #[test]
    fn rpc_count_nsbp_is_one_per_shard() {
        let spec = rm::rm1().scaled_to_bytes(4 << 20);
        let (_, _, dist) = run_both(&spec, ShardingStrategy::NetSpecificBinPacking(8));
        // NSBP: each shard holds one net's tables only → exactly one RPC
        // op per shard across both nets.
        assert_eq!(dist.rpc_ops_per_inference(), 8);
    }

    #[test]
    fn rpc_count_balanced_exceeds_shard_count() {
        let spec = rm::rm1().scaled_to_bytes(4 << 20);
        let (_, _, dist) = run_both(&spec, ShardingStrategy::LoadBalanced(8));
        // Net-agnostic placement mixes nets on shards, so most shards are
        // called once per net (§III-B3's motivating inefficiency).
        assert!(
            dist.rpc_ops_per_inference() > 8,
            "got {}",
            dist.rpc_ops_per_inference()
        );
        assert!(dist.rpc_ops_per_inference() <= 16);
    }

    #[test]
    fn singular_plan_is_identity_transform() {
        let spec = rm::rm2().scaled_to_bytes(4 << 20);
        let profile = PoolingProfile::from_spec(&spec);
        let p = make_plan(&spec, &profile, ShardingStrategy::Singular).unwrap();
        let dist = partition(build_model(&spec, 42).unwrap(), &p).unwrap();
        assert!(dist.shards.is_empty());
        assert_eq!(dist.rpc_ops_per_inference(), 0);
    }

    #[test]
    fn shard_capacity_sums_to_model_capacity() {
        let spec = rm::rm1().scaled_to_bytes(4 << 20);
        let profile = PoolingProfile::from_spec(&spec);
        let p = make_plan(&spec, &profile, ShardingStrategy::CapacityBalanced(4)).unwrap();
        let dist = partition(build_model(&spec, 42).unwrap(), &p).unwrap();
        let shard_total: usize = dist.shards.iter().map(|s| s.capacity_bytes()).sum();
        let model_total: usize = spec.tables.iter().map(|t| t.bytes() as usize).sum();
        assert_eq!(shard_total, model_total);
    }

    #[test]
    fn hot_row_aware_cache_matches_singular_bit_for_bit() {
        use crate::{plan_with_stats, CacheTotals, HotRowConfig};
        use dlrm_model::graph::{ExecutionObserver, Operator, RpcOutcome};
        use std::time::Instant;
        use dlrm_workload::{materialize_request_with, IndexDist, RowStats};

        /// Sums the cache split every collected RPC reports.
        struct CacheTally(CacheTotals);
        impl ExecutionObserver for CacheTally {
            fn on_op(&mut self, _net: &str, _op: &dyn Operator, _elapsed_secs: f64) {}
            fn on_rpc(&mut self, _: &str, _: &dyn Operator, _: Instant, _: Instant, o: &RpcOutcome) {
                self.0.merge(&CacheTotals {
                    hits: o.cache_hits,
                    misses: o.cache_misses,
                    local_rows: o.cache_local_rows,
                });
            }
        }

        let spec = rm::rm1().scaled_to_bytes(4 << 20);
        let profile = PoolingProfile::from_spec(&spec);
        let stats = RowStats::for_spec(&spec, 4_000, 1.1, 7);
        let p = plan_with_stats(
            &spec,
            &profile,
            ShardingStrategy::HotRowAware(4),
            &stats,
            &HotRowConfig::default(),
        )
        .unwrap();
        let singular = build_model(&spec, 42).unwrap();
        let dist = partition(build_model(&spec, 42).unwrap(), &p).unwrap();
        let cache = dist.cache.as_ref().expect("hot plan installs a cache");
        assert!(cache.resident_rows() > 0);

        // Zipf traffic matching the profiled skew, so the hot set is
        // actually exercised.
        let mut tally = CacheTally(CacheTotals::default());
        let db = TraceDb::generate(&spec, 2, 5);
        for batch in materialize_request_with(&spec, db.get(0), 8, 9, IndexDist::Zipf(1.1)) {
            let mut ws_a = Workspace::new();
            batch.load_into(&spec, &mut ws_a);
            let mut ws_b = ws_a.clone();
            let a = singular.run(&mut ws_a, &mut NoopObserver).unwrap();
            let b = dist.run_overlapped(&mut ws_b, &mut tally).unwrap();
            assert_eq!(a, b, "cache tier must be bit-exact with singular");
        }
        let totals = tally.0;
        assert!(totals.hits > 0, "skewed traffic must hit the hot set: {totals}");
        assert!(totals.local_rows > 0);
    }

    #[test]
    fn mismatched_client_count_rejected() {
        let spec = rm::rm3().scaled_to_bytes(2 << 20);
        let profile = PoolingProfile::from_spec(&spec);
        let p = make_plan(&spec, &profile, ShardingStrategy::OneShard).unwrap();
        let model = build_model(&spec, 1).unwrap();
        let err = partition_with_clients(model, &p, vec![], vec![]).unwrap_err();
        assert!(matches!(err, PartitionError::PlanMismatch(_)));
    }
}
