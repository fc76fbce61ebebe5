//! Rebalance smoke test: online resharding + replica autoscaling under
//! live diurnal traffic, gated in `scripts/verify.sh`.
//!
//! One seeded configuration (RM1, 2 shards, Zipf-1.2 traffic whose hot
//! set shifts halfway through, diurnal arrival ramp). A [`Rebalancer`]
//! runs beside the live frontend and must, during/around the run:
//!
//! 1. **Migrate live** — profile the traffic, warm a hot-row-aware
//!    successor plan in the background, dual-read verify it, and cut
//!    the tier over at least twice (the second migration chases the
//!    shifted hot set), with every vacated epoch drained.
//! 2. **Autoscale** — add a replica under the diurnal peak and remove
//!    one when traffic ebbs.
//! 3. **Stay invisible** — zero shed, zero failed, zero degraded
//!    requests, and every prediction bit-exact with a static run of the
//!    original plan: cutovers change *where* rows are served, never
//!    what any request computes.
//! 4. **Account for the handoff** — requests land in
//!    `FrontendReport::epochs_served` under the epoch that executed
//!    them (≥ 2 epochs visible), and the hot-row cache hits of the
//!    successor epochs, retired or live, reach the report through each
//!    batch's RPC tally.
//!
//! Wall-clock phases (warm timing, exactly when a tick fires) vary run
//! to run, so the gates poll controller milestones with deadlines and
//! pin identities, never exact times.

use dlrm_bench::harness::{deterministic_policy, fail, smoke_spec, solo_predictions};
use dlrm_core::model::{rm, ModelSpec};
use dlrm_core::serving::frontend::{
    run_lane, EpochSource, FrontendConfig, FrontendRequest, Lane,
};
use dlrm_core::serving::rebalance::{
    build_epoch_serving, EpochSwitch, RebalanceConfig, Rebalancer,
};
use dlrm_core::sharding::{plan, HotRowConfig, ShardingStrategy};
use dlrm_core::tensor::Matrix;
use dlrm_core::workload::{
    materialize_request_with, ArrivalSchedule, IndexDist, OnlineProfiler, PoolingProfile, TraceDb,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 73;
const SHARDS: usize = 2;
const REQUESTS: usize = 300;
const SKEW: f64 = 1.2;
const MEAN_QPS: f64 = 500.0;
const DIURNAL_AMPLITUDE: f64 = 0.5;
const TICK: Duration = Duration::from_millis(20);

fn spec() -> ModelSpec {
    smoke_spec(rm::rm1(), 1 << 20, 6.0, 4)
}

/// Zipf-skewed requests whose hot set shifts at the halfway mark: the
/// first half draws indices under one seed, the second under another,
/// so the profiled hot rows genuinely drift mid-run.
fn shifting_requests(spec: &ModelSpec) -> Vec<FrontendRequest> {
    let db = TraceDb::generate(spec, REQUESTS, SEED);
    (0..REQUESTS)
        .map(|i| {
            let shape = db.get(i);
            let phase_seed = if i < REQUESTS / 2 { SEED ^ 0xA } else { SEED ^ 0xB };
            let inputs =
                materialize_request_with(spec, shape, usize::MAX, phase_seed, IndexDist::Zipf(SKEW))
                    .into_iter()
                    .next()
                    .expect("one engine batch per request");
            FrontendRequest {
                id: shape.id,
                inputs,
            }
        })
        .collect()
}

fn main() {
    let spec = spec();
    let profile = PoolingProfile::from_spec(&spec);
    let initial =
        plan(&spec, &profile, ShardingStrategy::CapacityBalanced(SHARDS)).expect("initial plan");

    let ctrl_cfg = RebalanceConfig {
        profile_min_accesses: 60,
        dual_read_requests: 3,
        dual_read_seed: SEED ^ 17,
        // A generous cache budget so successor epochs serve whole bags
        // locally — the refresh-handoff gate below needs real hits.
        hot_rows: HotRowConfig {
            coverage: 0.95,
            budget_fraction: 0.5,
        },
        cooldown_ticks: 30,
        min_replicas: 1,
        max_replicas: 2,
        // A busy shard is asked for one or two full batches' rows per
        // 20 ms tick, ~40 000 rows each (measured here over three runs
        // at batches of ~3.9: 38 005 – 46 878 rows per call).
        scale_up_rows_per_tick: 80_000,
        scale_down_rows_per_tick: 0,
        sustain_ticks: 2,
        max_migrations: 2,
        rpc_policy: Some(deterministic_policy()),
        ..RebalanceConfig::default()
    };
    let epoch0 =
        build_epoch_serving(&spec, &initial, SEED, 1, &ctrl_cfg).expect("build serving epoch 0");
    let switch = Arc::new(EpochSwitch::new(epoch0));
    let profiler = Arc::new(OnlineProfiler::for_spec(&spec));
    let rebalancer = Rebalancer::new(
        spec.clone(),
        SEED,
        Arc::clone(&switch),
        Arc::clone(&profiler),
        ctrl_cfg,
    )
    .spawn(TICK);

    let requests = shifting_requests(&spec);

    // Static baseline on the original plan: the invariant every epoch is
    // judged against.
    let baseline: Vec<(u64, Matrix)> = solo_predictions(&spec, &initial, SEED, &requests);

    // Diurnal ramp: instantaneous rate swings ±50% around the mean over
    // one simulated day — the peak pressures the replicas, the trough
    // and the post-run idle let the autoscaler contract.
    let schedule = ArrivalSchedule::trace_replay(
        REQUESTS,
        MEAN_QPS,
        DIURNAL_AMPLITUDE,
        1.0,
        SEED ^ 6,
    );
    let cfg = FrontendConfig {
        queue_capacity: REQUESTS,
        max_batch_requests: 4,
        sla: Duration::from_millis(250),
        workers: 2,
        ..FrontendConfig::default()
    };
    println!(
        "rebalance_smoke: {} requests over {:.0}ms ({}x{} shards/replicas initially)",
        REQUESTS,
        schedule.duration_ms(),
        SHARDS,
        1
    );
    // One lane behind the switch, feeding the controller's profiler.
    let mut lane = Lane::new(EpochSource::Switch(&switch), requests, &schedule, &cfg);
    lane.profiler = Some(&profiler);
    let report = run_lane(lane, &cfg);

    // Controller milestones, polled with deadlines (the controller
    // keeps ticking on its own thread after traffic ends): replicas
    // back at the floor, then the second migration chasing the shifted
    // hot set.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let at_floor = {
            let current = switch.current();
            let pool = current.pool.as_ref().expect("serving pool");
            pool.replica_counts().iter().all(|&c| c == 1)
        };
        if at_floor {
            break;
        }
        if Instant::now() >= deadline {
            fail("replicas never scaled back to the floor after traffic ended");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while switch.epoch() < 2 {
        if Instant::now() >= deadline {
            fail(&format!(
                "second migration (shifted hot set) never published: epoch {}",
                switch.epoch()
            ));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    // One more beat so the controller can drain the last retiree.
    std::thread::sleep(Duration::from_millis(100));
    let rb_report = rebalancer.stop();

    let mut transport = {
        let current = switch.current();
        current.pool.as_ref().expect("serving pool").transport_summary()
    };
    transport.absorb_retired(&rb_report.retired_transport);

    println!("{rb_report}");
    println!("served by epoch: {:?}", report.epochs_served);
    println!("live transport + retired: {transport}");

    // Gate 1: at least two live migrations, fully drained.
    if rb_report.completed_migrations() < 2 {
        fail(&format!(
            "expected >= 2 completed migrations, got {} ({} aborted)",
            rb_report.completed_migrations(),
            rb_report.aborted_migrations()
        ));
    }
    if rb_report.cutovers < 2 {
        fail(&format!("expected >= 2 cutovers, got {}", rb_report.cutovers));
    }
    if rb_report.undrained != 0 {
        fail(&format!("{} retired epochs never drained", rb_report.undrained));
    }
    for m in &rb_report.migrations {
        if !m.aborted && (m.moved_tables == 0 || m.moved_bytes == 0) {
            fail(&format!(
                "completed migration {} -> {} moved nothing",
                m.from_epoch, m.to_epoch
            ));
        }
    }

    // Gate 2: the autoscaler both expanded under the peak and
    // contracted afterwards.
    let (ups, downs) = rb_report.scale_counts();
    if ups == 0 {
        fail("diurnal peak never triggered a replica scale-up");
    }
    if downs == 0 {
        fail("traffic ebb never triggered a replica scale-down");
    }

    // Gate 3: rebalancing was invisible to availability. Nothing shed
    // (queue sized for the run), nothing failed, nothing degraded.
    if report.offered != REQUESTS as u64 {
        fail(&format!("offered {} != {}", report.offered, REQUESTS));
    }
    if report.shed != 0 {
        fail(&format!("{} requests shed during rebalancing", report.shed));
    }
    if report.failed != 0 {
        fail(&format!("{} requests failed during rebalancing", report.failed));
    }
    if report.degraded != 0 {
        fail(&format!("{} requests degraded during rebalancing", report.degraded));
    }
    if report.completed != REQUESTS as u64 {
        fail(&format!("completed {} != {}", report.completed, REQUESTS));
    }

    // Gate 4: the cutover is visible in the report — requests were
    // served by at least two distinct epochs, and the attribution
    // exactly covers the completions.
    if report.epochs_served.len() < 2 {
        fail(&format!(
            "cutover not visible in epochs_served: {:?}",
            report.epochs_served
        ));
    }
    let attributed: u64 = report.epochs_served.iter().map(|(_, c)| c).sum();
    if attributed != report.completed {
        fail(&format!(
            "epoch attribution {attributed} != completed {}",
            report.completed
        ));
    }

    // Gate 5: bit-exactness across every epoch — all predictions match
    // the static run of the original plan.
    let mut mismatches = 0usize;
    for (id, pred) in &report.predictions {
        let Some((_, expect)) = baseline.iter().find(|(b, _)| b == id) else {
            fail(&format!("prediction for unknown request id {id}"));
        };
        if pred != expect {
            mismatches += 1;
        }
    }
    if mismatches != 0 {
        fail(&format!(
            "{mismatches}/{} predictions diverged from the static plan",
            report.predictions.len()
        ));
    }

    // Gate 6: the successor epochs' cache hits reached the report. The
    // initial plan is capacity-only, so every hit was served by a
    // hot-row epoch published by a migration, retired or live, and
    // counted once, in its batch's RPC tally.
    if report.cache_hits == 0 {
        fail(&format!(
            "no cache hits reported across {} served epochs",
            report.epochs_served.len()
        ));
    }

    println!(
        "OK: {} migrations ({} epochs served traffic, {} cache hits), {} scale-ups / {} \
         scale-downs, {}/{} bit-exact, 0 shed / 0 failed / 0 degraded",
        rb_report.completed_migrations(),
        report.epochs_served.len(),
        report.cache_hits,
        ups,
        downs,
        report.predictions.len(),
        REQUESTS
    );
}
