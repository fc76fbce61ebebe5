//! Epoch-versioned serving state: the atomically-swappable pointer a
//! frontend lane reads, and the one pipeline every epoch transition goes
//! through.
//!
//! One *epoch* is one immutable serving configuration — a partitioned
//! [`DistributedModel`] wired to its shard clients. The switch numbers
//! epochs: the first is 0 and every successor is the serving epoch + 1
//! (plans carry no epoch). Cutting over is publishing a new epoch: an
//! atomic `Arc` swap that takes effect on the next batch any frontend
//! worker picks up. Workers resolve the current epoch *once per batch*,
//! so no batch ever mixes two epochs' state.
//!
//! [`EpochSwitch::transition`] is the sequence the tenancy
//! [`PressureController`](crate::tenancy::PressureController) runs for
//! every tier step: take a built successor → **verify** it by replaying
//! probe inputs against expected outputs ([`ProbeCheck`]) → **publish**
//! → hand the retiree to a [`DrainQueue`], which drops it on the
//! controller's thread once the last in-flight batch holding its `Arc`
//! completes. A successor that fails to build or to verify is dropped
//! and nothing is published. An epoch holds a model, not a pool: whoever
//! spawned the transport behind a model's clients stops it. Placement
//! itself is static: no controller re-plans or reshards a serving tier.

use crate::engine_trace::RpcTracingObserver;
use dlrm_model::{ModelSpec, Workspace};
use dlrm_sharding::DistributedModel;
use dlrm_tensor::Matrix;
use dlrm_trace::TraceId;
use dlrm_workload::{BatchInputs, TraceDb};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// One immutable serving epoch: the partitioned model, wired to its
/// shard clients.
#[derive(Debug)]
pub struct EpochServing {
    /// The epoch number: 0 for the first configuration behind a switch,
    /// and [`EpochSwitch::publish`] sets each successor's to the serving
    /// epoch + 1.
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
    cutovers: AtomicU64,
}

impl EpochSwitch {
    /// A switch serving `initial`.
    #[must_use]
    pub fn new(initial: EpochServing) -> Self {
        Self {
            current: RwLock::new(Arc::new(initial)),
            cutovers: AtomicU64::new(0),
        }
    }

    /// The current epoch's serving state. Callers hold the returned
    /// `Arc` for exactly one batch — holding it longer delays the
    /// retired epoch's drain after a cutover.
    #[must_use]
    pub fn current(&self) -> Arc<EpochServing> {
        Arc::clone(&self.current.read().expect("epoch switch lock"))
    }

    /// The current epoch number.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.current().epoch
    }

    /// Atomically cuts over to `next`, numbered the serving epoch + 1
    /// whatever it was built as, and returns the retired epoch for the
    /// caller to drain (see [`DrainQueue`]).
    pub fn publish(&self, mut next: EpochServing) -> Arc<EpochServing> {
        let mut slot = self.current.write().expect("epoch switch lock");
        next.epoch = slot.epoch + 1;
        let old = std::mem::replace(&mut *slot, Arc::new(next));
        drop(slot);
        self.cutovers.fetch_add(1, Ordering::Relaxed);
        old
    }

    /// How many cutovers this switch has published.
    #[must_use]
    pub fn cutovers(&self) -> u64 {
        self.cutovers.load(Ordering::Relaxed)
    }

    /// The transition pipeline: verify `candidate` against `check`,
    /// publish it, and queue the retired epoch on `drain`. On any abort
    /// — the build failed, a probe errored or came back degraded, or
    /// the outputs diverged — the candidate is dropped, the serving
    /// epoch and [`cutovers`](Self::cutovers) stay as they were, and
    /// the reason is returned.
    ///
    /// # Errors
    ///
    /// The abort reason.
    pub fn transition(
        &self,
        candidate: Result<EpochServing, String>,
        check: &ProbeCheck<'_>,
        drain: &mut DrainQueue,
    ) -> Result<(), String> {
        let next = candidate.map_err(|e| format!("warm failed: {e}"))?;
        check.verify(&next.model)?;
        drain.retire(self.publish(next));
        Ok(())
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

/// Retired epochs waiting for their last in-flight batch. Workers
/// release their per-batch `Arc`s promptly, so an epoch usually drains
/// within one batch time of its cutover. Draining drops the retiree here,
/// on the controller's thread, so a demoted table's memory and its paged
/// backing file are freed off the request path.
#[derive(Debug, Default)]
pub struct DrainQueue {
    retired: Vec<Arc<EpochServing>>,
}

impl DrainQueue {
    /// Queues a retired epoch.
    pub fn retire(&mut self, epoch: Arc<EpochServing>) {
        self.retired.push(epoch);
    }

    /// Drops every retired epoch nobody references any more; epochs
    /// still held by an in-flight batch stay queued.
    pub fn poll(&mut self) {
        for entry in std::mem::take(&mut self.retired) {
            if let Err(still_held) = Arc::try_unwrap(entry) {
                self.retired.push(still_held);
            }
        }
    }

    /// Polls until the queue is empty or `deadline` passes; returns how
    /// many epochs are still undrained (they stay queued).
    pub fn finish(&mut self, deadline: Instant) -> usize {
        loop {
            self.poll();
            if self.retired.is_empty() || Instant::now() >= deadline {
                return self.retired.len();
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenancy::build_tiered_epoch;
    use dlrm_model::rm;
    use dlrm_sharding::{plan, ShardingStrategy, Tier};
    use dlrm_workload::PoolingProfile;

    /// An in-process epoch, built as epoch 0.
    fn epoch_state() -> EpochServing {
        let mut spec = rm::rm1().scaled_to_bytes(1 << 20);
        spec.mean_items_per_request = 4.0;
        spec.default_batch_size = 4;
        let profile = PoolingProfile::from_spec(&spec);
        let p = plan(&spec, &profile, ShardingStrategy::OneShard).unwrap();
        let tiers = vec![Tier::Dram; spec.tables.len()];
        build_tiered_epoch(&spec, &p, 1, &tiers, 0).unwrap().0
    }

    #[test]
    fn publish_numbers_and_swaps_atomically_and_the_retiree_drains_once_released() {
        let switch = EpochSwitch::new(epoch_state());
        assert_eq!(switch.epoch(), 0);
        assert_eq!(switch.cutovers(), 0);
        let held = switch.current();
        let mut drain = DrainQueue::default();
        // Built as epoch 0 too: the switch numbers it.
        drain.retire(switch.publish(epoch_state()));
        assert_eq!(switch.epoch(), 1);
        assert_eq!(switch.cutovers(), 1);
        // The held Arc still serves epoch 0 — a batch that resolved the
        // switch before the cutover finishes on the old state, and the
        // retiree cannot drain under it.
        assert_eq!(held.epoch, 0);
        assert_eq!(drain.finish(Instant::now()), 1);
        drop(held);
        // With the last outside reference gone the retiree drains.
        assert_eq!(drain.finish(Instant::now()), 0);
    }
}
