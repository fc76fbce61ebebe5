//! Epoch-versioned serving state: the atomically-swappable pointer a
//! frontend lane reads, and the one pipeline every epoch transition goes
//! through.
//!
//! One *epoch* is one immutable serving configuration — a partitioned
//! [`DistributedModel`] wired to its shard clients. The switch numbers
//! epochs: the first is 0 and every successor is built numbered the
//! epoch it was derived from + 1 (plans carry no epoch), so the epoch
//! number is also the count of cutovers. Cutting over is publishing a new epoch: an
//! atomic `Arc` swap that takes effect on the next batch any frontend
//! worker picks up. Workers resolve the current epoch *once per batch*,
//! so no batch ever mixes two epochs' state.
//!
//! [`EpochSwitch::transition`] is the sequence the tenancy
//! [`PressureController`](crate::tenancy::PressureController) runs for
//! every tier step: take a successor built from a named serving epoch →
//! **verify** it by replaying probe inputs against expected outputs
//! ([`ProbeCheck`]) → **publish** it, only if the epoch it was derived
//! from (its own number − 1) is still the one serving. The retiree is handed back and
//! dropped: its stores are freed when the last in-flight batch holding
//! its `Arc` releases it. A successor that fails to build or to verify,
//! or whose parent was already replaced, is dropped and nothing is
//! published. An epoch holds a model, not a pool: whoever spawned the
//! transport behind a model's clients stops it. Placement itself is
//! static: no controller re-plans or reshards a serving tier.

use crate::engine_trace::RpcTracingObserver;
use dlrm_model::{ModelSpec, Workspace};
use dlrm_sharding::DistributedModel;
use dlrm_tensor::Matrix;
use dlrm_trace::TraceId;
use dlrm_workload::{BatchInputs, TraceDb};
use std::sync::{Arc, RwLock};

/// One immutable serving epoch: the partitioned model, wired to its
/// shard clients.
#[derive(Debug)]
pub struct EpochServing {
    /// The epoch number: 0 for the first configuration behind a switch,
    /// and each successor's is the epoch it was derived from + 1, which
    /// [`EpochSwitch::publish`] checks.
    pub epoch: u64,
    /// The model partitioned under this epoch's plan.
    pub model: DistributedModel,
}

/// The atomically-swappable pointer to the current [`EpochServing`].
///
/// Readers ([`current`](Self::current)) take a short read lock to clone
/// the `Arc`; the write lock is held only for the pointer swap itself,
/// so cutover never blocks behind request execution.
#[derive(Debug)]
pub struct EpochSwitch {
    current: RwLock<Arc<EpochServing>>,
}

impl EpochSwitch {
    /// A switch serving `initial`.
    #[must_use]
    pub fn new(initial: EpochServing) -> Self {
        Self {
            current: RwLock::new(Arc::new(initial)),
        }
    }

    /// The current epoch's serving state. Callers hold the returned
    /// `Arc` for exactly one batch — holding it longer keeps a retired
    /// epoch's stores alive after a cutover.
    #[must_use]
    pub fn current(&self) -> Arc<EpochServing> {
        Arc::clone(&self.current.read().expect("epoch switch lock"))
    }

    /// The current epoch number, which is also how many cutovers this
    /// switch has published.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.current().epoch
    }

    /// Atomically cuts over to `next` if the epoch it was derived from,
    /// `next.epoch - 1`, is still serving, and hands back the retired
    /// epoch. Its stores are freed when the caller and every batch still
    /// running on it have dropped their `Arc`s.
    ///
    /// # Errors
    ///
    /// If `next` does not succeed the serving epoch — another step
    /// replaced its parent first; `next` is dropped and the serving
    /// epoch stays as it was.
    pub fn publish(&self, next: EpochServing) -> Result<Arc<EpochServing>, String> {
        let mut slot = self.current.write().expect("epoch switch lock");
        if next.epoch != slot.epoch + 1 {
            return Err(format!(
                "epoch {} does not succeed the serving epoch {}: its parent was replaced",
                next.epoch, slot.epoch
            ));
        }
        Ok(std::mem::replace(&mut *slot, Arc::new(next)))
    }

    /// The transition pipeline: verify `candidate` against `check`, then
    /// [`publish`](Self::publish) it and drop the retiree. On any abort
    /// — the build failed, a probe errored or came back degraded, the
    /// outputs diverged, or the candidate's parent was replaced
    /// meanwhile — the candidate is dropped, the serving epoch stays as
    /// it was, and the reason is returned.
    ///
    /// # Errors
    ///
    /// The abort reason.
    pub fn transition(
        &self,
        candidate: Result<EpochServing, String>,
        check: &ProbeCheck<'_>,
    ) -> Result<(), String> {
        let next = candidate.map_err(|e| format!("warm failed: {e}"))?;
        check.verify(&next.model)?;
        self.publish(next).map(drop)
    }
}

/// Seeded probe inputs for dual-read verification: `n` whole requests
/// drawn from `spec`'s trace distribution.
#[must_use]
pub fn probe_inputs(spec: &ModelSpec, n: usize, seed: u64) -> Vec<BatchInputs> {
    TraceDb::generate(spec, n, seed)
        .iter()
        .map(|shape| crate::frontend::materialize_whole(spec, shape, seed))
        .collect()
}

/// Replays every probe input through `model`, demanding full-fidelity
/// answers: any engine error or degraded RPC is a failure.
///
/// # Errors
///
/// The first failing probe, by index.
pub fn probe_all(
    spec: &ModelSpec,
    model: &DistributedModel,
    inputs: &[BatchInputs],
) -> Result<Vec<Matrix>, String> {
    inputs
        .iter()
        .enumerate()
        .map(|(i, inputs)| {
            let mut ws = Workspace::new();
            inputs.load_into(spec, &mut ws);
            let mut obs = RpcTracingObserver::new(TraceId(u64::MAX));
            let out = model
                .run_overlapped(&mut ws, &mut obs)
                .map_err(|e| format!("probe {i}: {e}"))?;
            if obs.tally().degraded > 0 {
                return Err(format!("probe {i}: degraded response during dual read"));
            }
            Ok(out)
        })
        .collect()
}

/// What a candidate epoch must reproduce before it may publish.
#[derive(Debug, Clone, Copy)]
pub struct ProbeCheck<'a> {
    /// The model spec the inputs were drawn for.
    pub spec: &'a ModelSpec,
    /// Probe requests replayed through the candidate.
    pub inputs: &'a [BatchInputs],
    /// The outputs it must reproduce, one per input.
    pub expected: &'a [Matrix],
    /// Largest allowed absolute output drift; 0 demands bitwise-equal
    /// predictions.
    pub tolerance: f32,
}

impl ProbeCheck<'_> {
    /// The dual read: replays the probe inputs through `candidate` and
    /// compares against the expected outputs under the tolerance.
    ///
    /// # Errors
    ///
    /// The first probe that errors, degrades, or diverges.
    pub fn verify(&self, candidate: &DistributedModel) -> Result<(), String> {
        let got = probe_all(self.spec, candidate, self.inputs)
            .map_err(|e| format!("warmed epoch: {e}"))?;
        for (i, (out, want)) in got.iter().zip(self.expected).enumerate() {
            let same = if self.tolerance == 0.0 {
                out == want
            } else {
                out.max_abs_diff(want) <= self.tolerance
            };
            if !same {
                return Err(format!(
                    "probe {i}: dual read diverges from the expected output by {} (tolerance {})",
                    out.max_abs_diff(want),
                    self.tolerance
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenancy::build_tiered_epoch;
    use dlrm_model::rm;
    use dlrm_sharding::{plan, ShardingStrategy, Tier};
    use dlrm_workload::PoolingProfile;

    /// An in-process epoch, numbered `epoch`.
    fn epoch_state(epoch: u64) -> EpochServing {
        let mut spec = rm::rm1().scaled_to_bytes(1 << 20);
        spec.mean_items_per_request = 4.0;
        spec.default_batch_size = 4;
        let profile = PoolingProfile::from_spec(&spec);
        let p = plan(&spec, &profile, ShardingStrategy::OneShard).unwrap();
        let tiers = vec![Tier::Dram; spec.tables.len()];
        build_tiered_epoch(&spec, &p, 1, &tiers, epoch).unwrap().0
    }

    #[test]
    fn publish_swaps_atomically_and_hands_back_the_retiree() {
        let switch = EpochSwitch::new(epoch_state(0));
        assert_eq!(switch.epoch(), 0);
        let held = switch.current();
        let retiree = switch.publish(epoch_state(1)).unwrap();
        assert_eq!(switch.epoch(), 1);
        // The held Arc still serves epoch 0 — a batch that resolved the
        // switch before the cutover finishes on the old state — and it
        // is the retiree handed back.
        assert_eq!(held.epoch, 0);
        assert!(Arc::ptr_eq(&held, &retiree));
        let gone = Arc::downgrade(&retiree);
        drop(retiree);
        assert!(gone.upgrade().is_some(), "freed under an in-flight batch");
        drop(held);
        assert!(gone.upgrade().is_none(), "the last holder did not free it");
    }

    #[test]
    fn a_step_derived_from_a_replaced_epoch_is_refused() {
        let switch = EpochSwitch::new(epoch_state(0));
        drop(switch.publish(epoch_state(1)).unwrap());
        let serving = switch.current();
        // A second step derived from epoch 0, which no longer serves.
        let err = switch.publish(epoch_state(1)).unwrap_err();
        assert!(err.contains("parent was replaced"), "{err}");
        assert_eq!(switch.epoch(), 1);
        assert!(Arc::ptr_eq(&serving, &switch.current()), "the serving epoch moved");
    }
}
