//! Deterministic fault injection for the shard transport.
//!
//! The paper's premise is that capacity-driven scale-out turns one
//! model into a distributed system whose availability is set by its
//! least reliable shard (§III, §V). This module supplies the failure
//! modes that dominate real fleets — latency spikes, dropped replies,
//! transient errors, worker panics, hard crashes — on a *fully seeded,
//! reproducible* schedule: a [`FaultPlan`] is sampled from a
//! [`SimRng`] fork-salted per (shard, replica), and
//! each replica worker consults its [`ReplicaFaultSchedule`] by request
//! ordinal, so the same seed injects the same faults at the same points
//! in every rerun.

use dlrm_sharding::rpc::{RpcError, ShardRequest, ShardResponse};
use dlrm_sharding::ShardService;
use dlrm_sim::SimRng;
use std::collections::BTreeMap;
use std::time::Duration;

/// One injected fault, applied to a single request at a single replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Sleep this long before serving (a latency spike / slow replica).
    Delay(Duration),
    /// Serve the request but drop the reply (the caller sees a
    /// transport disconnect).
    DropReply,
    /// Fail the request with an injected transient transport error.
    TransientError,
    /// Panic inside the worker while serving (exercises the
    /// catch-unwind → `RpcError::Poisoned` path).
    Panic,
    /// Kill the worker before serving this request: the reply is
    /// dropped, the queue dies, and every later send to this replica
    /// fails — a hard replica crash.
    Crash,
}

/// The faults one replica worker injects, keyed by the 0-based ordinal
/// of the requests it receives. Ordinals are per-replica receive order,
/// which the deterministic harnesses control exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicaFaultSchedule {
    /// Fault per request ordinal (requests not listed serve normally).
    at: BTreeMap<u64, FaultAction>,
    /// Fault applied to *every* request with no per-ordinal entry —
    /// how a persistently slow or flaky replica is modeled.
    every: Option<FaultAction>,
}

impl ReplicaFaultSchedule {
    /// An empty schedule (serves everything normally).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds a fault at one request ordinal.
    #[must_use]
    pub fn with(mut self, ordinal: u64, action: FaultAction) -> Self {
        self.at.insert(ordinal, action);
        self
    }

    /// Applies `action` to every request without a per-ordinal entry.
    #[must_use]
    pub fn with_every(mut self, action: FaultAction) -> Self {
        self.every = Some(action);
        self
    }

    /// A replica that is slow on every request.
    #[must_use]
    pub fn always_slow(delay: Duration) -> Self {
        Self::none().with_every(FaultAction::Delay(delay))
    }

    /// A replica that crashes at request `ordinal`.
    #[must_use]
    pub fn crash_at(ordinal: u64) -> Self {
        Self::none().with(ordinal, FaultAction::Crash)
    }

    /// The fault for request `ordinal`, if any.
    #[must_use]
    pub fn action_at(&self, ordinal: u64) -> Option<FaultAction> {
        self.at.get(&ordinal).copied().or(self.every)
    }

    /// Whether the schedule injects nothing at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.at.is_empty() && self.every.is_none()
    }
}

/// Probabilities and ranges for sampling a random [`FaultPlan`].
/// Category probabilities are evaluated per (replica, ordinal) in
/// order: delay, drop, transient, panic; at most one fires. Crashes are
/// sampled once per replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Request ordinals `0..horizon` are eligible for faults.
    pub horizon: u64,
    /// Per-request probability of a latency spike.
    pub delay_prob: f64,
    /// Latency-spike range (uniform), milliseconds.
    pub delay_range_ms: (f64, f64),
    /// Per-request probability of a dropped reply.
    pub drop_prob: f64,
    /// Per-request probability of an injected transient error.
    pub transient_prob: f64,
    /// Per-request probability of a worker panic.
    pub panic_prob: f64,
    /// Per-replica probability of one hard crash at a uniform ordinal.
    pub crash_prob: f64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self {
            horizon: 64,
            delay_prob: 0.02,
            delay_range_ms: (1.0, 5.0),
            drop_prob: 0.02,
            transient_prob: 0.02,
            panic_prob: 0.0,
            crash_prob: 0.1,
        }
    }
}

/// A complete, seeded fault-injection plan: one
/// [`ReplicaFaultSchedule`] per (shard, replica). Wholly determined by
/// its seed (and any explicit insertions), so reruns reproduce the
/// exact same fault sequence.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    schedules: BTreeMap<(usize, usize), ReplicaFaultSchedule>,
}

impl FaultPlan {
    /// An empty plan (no faults anywhere).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds (replacing) the schedule for `(shard, replica)`.
    #[must_use]
    pub fn with(mut self, shard: usize, replica: usize, schedule: ReplicaFaultSchedule) -> Self {
        self.schedules.insert((shard, replica), schedule);
        self
    }

    /// Samples a random plan for `shards × replicas_per_shard` replicas.
    /// Each replica's schedule is drawn from `rng_seed` forked with a
    /// salt derived from its (shard, replica) coordinates alone, so the
    /// draw is independent of sampling order.
    #[must_use]
    pub fn sample(rng_seed: u64, shards: usize, replicas_per_shard: usize, spec: &FaultSpec) -> Self {
        let root = SimRng::seed_from(rng_seed);
        let mut plan = Self::none();
        for shard in 0..shards {
            for replica in 0..replicas_per_shard {
                let salt = (shard as u64) << 20 | replica as u64;
                let mut rng = root.fork(salt);
                let mut schedule = ReplicaFaultSchedule::none();
                for ordinal in 0..spec.horizon {
                    let roll = rng.next_f64();
                    let action = if roll < spec.delay_prob {
                        let ms = rng.next_range(spec.delay_range_ms.0, spec.delay_range_ms.1);
                        Some(FaultAction::Delay(Duration::from_micros((ms * 1e3) as u64)))
                    } else if roll < spec.delay_prob + spec.drop_prob {
                        Some(FaultAction::DropReply)
                    } else if roll < spec.delay_prob + spec.drop_prob + spec.transient_prob {
                        Some(FaultAction::TransientError)
                    } else if roll
                        < spec.delay_prob + spec.drop_prob + spec.transient_prob + spec.panic_prob
                    {
                        Some(FaultAction::Panic)
                    } else {
                        None
                    };
                    if let Some(action) = action {
                        schedule = schedule.with(ordinal, action);
                    }
                }
                if rng.next_f64() < spec.crash_prob && spec.horizon > 0 {
                    let ordinal = rng.next_u64_below(spec.horizon);
                    schedule = schedule.with(ordinal, FaultAction::Crash);
                }
                if !schedule.is_empty() {
                    plan = plan.with(shard, replica, schedule);
                }
            }
        }
        plan
    }

    /// The schedule for `(shard, replica)`, if the plan has one.
    #[must_use]
    pub fn schedule(&self, shard: usize, replica: usize) -> Option<&ReplicaFaultSchedule> {
        self.schedules.get(&(shard, replica))
    }

    /// Number of replicas with a non-empty schedule.
    #[must_use]
    pub fn len(&self) -> usize {
        self.schedules.len()
    }

    /// Whether the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.schedules.is_empty()
    }
}

/// What a seat did with one request under its fault schedule.
pub(crate) enum Served {
    /// [`FaultAction::Crash`]: the seat dies before serving — a worker
    /// thread exits with its queue undrained, a server process stand-in
    /// takes its listener and every connection with it.
    Crashed,
    /// [`FaultAction::DropReply`]: served, but the reply is lost — the
    /// caller sees a transport loss, exactly like a connection reset
    /// after the request was accepted.
    Dropped,
    /// The reply to deliver: the service's answer, an injected
    /// transient error, or a caught panic as [`RpcError::Poisoned`].
    Reply(Result<ShardResponse, RpcError>),
}

/// Serves `request` on `service` the way every seat backend does — a
/// worker thread or a TCP server alike: sleep the injected base `delay`,
/// apply `action` (the schedule's entry for this request ordinal), and
/// catch panics while serving, injected or organic, so they surface as
/// a typed error instead of killing the seat.
pub(crate) fn serve_under_fault(
    service: &ShardService,
    request: &ShardRequest,
    delay: Duration,
    action: Option<FaultAction>,
) -> Served {
    if action == Some(FaultAction::Crash) {
        return Served::Crashed;
    }
    if !delay.is_zero() {
        std::thread::sleep(delay);
    }
    match action {
        Some(FaultAction::Delay(spike)) => std::thread::sleep(spike),
        Some(FaultAction::DropReply) => {
            let _ = service.execute(request);
            return Served::Dropped;
        }
        Some(FaultAction::TransientError) => {
            return Served::Reply(Err(RpcError::Transport {
                shard: service.shard_id(),
                message: "injected transient fault".to_string(),
            }));
        }
        _ => {}
    }
    let inject_panic = action == Some(FaultAction::Panic);
    let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        assert!(!inject_panic, "injected worker panic");
        service.execute(request)
    }));
    Served::Reply(served.unwrap_or_else(|payload| {
        let message = if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        Err(RpcError::Poisoned {
            shard: service.shard_id(),
            message,
        })
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_consult_ordinal_then_every() {
        let s = ReplicaFaultSchedule::always_slow(Duration::from_millis(2))
            .with(3, FaultAction::Crash);
        assert_eq!(
            s.action_at(0),
            Some(FaultAction::Delay(Duration::from_millis(2)))
        );
        assert_eq!(s.action_at(3), Some(FaultAction::Crash));
        assert!(!s.is_empty());
        assert_eq!(ReplicaFaultSchedule::none().action_at(7), None);
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let spec = FaultSpec::default();
        let a = FaultPlan::sample(42, 3, 2, &spec);
        let b = FaultPlan::sample(42, 3, 2, &spec);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = FaultPlan::sample(43, 3, 2, &spec);
        assert_ne!(
            format!("{a:?}"),
            format!("{c:?}"),
            "different seeds should (overwhelmingly) differ"
        );
    }

    #[test]
    fn sampling_is_order_independent_per_replica() {
        // The (2, 1) replica's schedule is identical whether the plan
        // covers 3×2 or 4×3 replicas: the fork salt depends only on the
        // coordinates.
        let spec = FaultSpec {
            crash_prob: 1.0,
            ..FaultSpec::default()
        };
        let small = FaultPlan::sample(7, 3, 2, &spec);
        let large = FaultPlan::sample(7, 4, 3, &spec);
        assert_eq!(small.schedule(2, 1), large.schedule(2, 1));
    }

    #[test]
    fn crash_prob_one_crashes_every_replica() {
        let spec = FaultSpec {
            delay_prob: 0.0,
            drop_prob: 0.0,
            transient_prob: 0.0,
            panic_prob: 0.0,
            crash_prob: 1.0,
            ..FaultSpec::default()
        };
        let plan = FaultPlan::sample(1, 2, 2, &spec);
        assert_eq!(plan.len(), 4);
        for shard in 0..2 {
            for replica in 0..2 {
                let s = plan.schedule(shard, replica).unwrap();
                assert!(
                    (0..spec.horizon).any(|o| s.action_at(o) == Some(FaultAction::Crash)),
                    "replica ({shard},{replica}) must crash"
                );
            }
        }
    }
}
