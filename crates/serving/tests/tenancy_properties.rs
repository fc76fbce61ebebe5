//! Tenancy properties: colocation must never leak across tenant
//! boundaries. Pinned here:
//!
//! - **Round trip** — walking one tenant's table down the full demotion
//!   ladder (DRAM → quantized → paged) and back restores its resident
//!   bytes exactly and its predictions bit for bit; the quantized rung
//!   serves within the published drift tolerance, the paged rung
//!   bit-exactly. Every other tenant's epoch and predictions are
//!   bitwise untouched at *every* step of the walk. The tenant's switch
//!   numbers the epochs: each published step is the next one, and a
//!   refused step (skipped rung, lost race, failed dual read) moves
//!   neither the epoch nor the tiers.
//! - **Derived steps** — a ladder step derives its candidate from the
//!   serving epoch instead of rebuilding the model; along seeded random
//!   walks over a plan that row-splits a table, every step serves the
//!   predictions and byte breakdown of an epoch built from scratch at
//!   the same tier assignment, bit for bit.
//! - **Isolation** — a tenant offered 4× its admission capacity sheds
//!   the overload out of its own bounded queue; its neighbor's SLA hit
//!   rate and availability match that neighbor's solo-run values within
//!   the smoke band, because the excess never reaches the shared
//!   workers.

use dlrm_model::{build_model, rm, ModelSpec, TableId};
use dlrm_serving::epoch::probe_all;
use dlrm_serving::frontend::{materialize_frontend_requests, run_frontend, FrontendConfig};
use dlrm_serving::tenancy::{
    build_tiered_epoch, run_tenant_set, PressureConfig, TenancyRunConfig, TenantSet, TenantSpec,
    TenantWorkload, Tier, TierBytes,
};
use dlrm_sharding::{partition, plan, ShardingStrategy};
use dlrm_sim::SimRng;
use dlrm_workload::{ArrivalSchedule, PoolingProfile, TraceDb};
use std::time::Duration;

/// The quantized rung serves approximations; everything else on the
/// ladder is bit-exact. Matches `PressureConfig::quantized_tolerance`.
const QUANT_TOLERANCE: f32 = 0.05;

fn small_spec(base: ModelSpec) -> ModelSpec {
    let mut s = base.scaled_to_bytes(1 << 20);
    s.mean_items_per_request = 4.0;
    s.default_batch_size = 4;
    s
}

fn tenant(name: &str, spec: ModelSpec, seed: u64, queue_capacity: usize) -> TenantSpec {
    TenantSpec {
        name: name.to_string(),
        spec,
        seed,
        strategy: ShardingStrategy::CapacityBalanced(2),
        weight: 1,
        queue_capacity,
        sla: Duration::from_millis(500),
    }
}

fn three_tenants() -> TenantSet {
    TenantSet::build(
        vec![
            tenant("rm1", small_spec(rm::rm1()), 3, 64),
            tenant("rm2", small_spec(rm::rm2()), 5, 64),
            tenant("rm3", small_spec(rm::rm3()), 7, 64),
        ],
        PressureConfig::default(),
    )
    .expect("build tenant set")
}

/// Asserts every tenant except `skip` still answers bitwise-identically
/// to its witness predictions and has seen no cutover.
fn assert_neighbors_untouched(
    set: &TenantSet,
    skip: usize,
    witnesses: &[Vec<dlrm_tensor::Matrix>],
    step: &str,
) {
    for (i, witness) in witnesses.iter().enumerate() {
        if i == skip {
            continue;
        }
        assert_eq!(
            set.tenant(i).epoch(),
            0,
            "{step}: neighbor {i} saw a cutover"
        );
        let now = set.tenant(i).probe_current().expect("neighbor probe");
        for (a, b) in now.iter().zip(witness) {
            assert_eq!(a.as_slice(), b.as_slice(), "{step}: neighbor {i} drifted");
        }
    }
}

#[test]
fn full_ladder_round_trip_is_bit_exact_and_neighbors_never_move() {
    let set = three_tenants();
    let witnesses: Vec<_> = (0..set.len())
        .map(|i| set.tenant(i).probe_current().expect("witness probe"))
        .collect();
    let before = set.tenant(0).bytes_by_tier();

    // Walk two different tables through the ladder so the property
    // covers more than one slicing geometry.
    let mut epoch = 0;
    for table in [0usize, 1] {
        // Down: DRAM -> quantized. Serving drifts, but inside the
        // published tolerance — and only for the affected tenant.
        step(&set, table, Tier::Quantized, &mut epoch);
        let quantized = set.tenant(0).probe_current().expect("quantized probe");
        let mut drift = 0.0f32;
        for (a, g) in quantized.iter().zip(set.tenant(0).golden()) {
            drift = drift.max(a.max_abs_diff(g));
        }
        assert!(
            drift <= QUANT_TOLERANCE,
            "table {table}: quantized drift {drift} above tolerance"
        );
        assert_neighbors_untouched(&set, 0, &witnesses, "after quantize");

        // Down: quantized -> paged. Paged rows are the same f32 bits
        // read from disk: predictions return to bit-exact.
        step(&set, table, Tier::Paged, &mut epoch);
        let paged = set.tenant(0).probe_current().expect("paged probe");
        for (a, g) in paged.iter().zip(set.tenant(0).golden()) {
            assert_eq!(a.as_slice(), g.as_slice(), "paged tier must be bit-exact");
        }
        assert!(set.tenant(0).bytes_by_tier().resident() < before.resident());
        assert_neighbors_untouched(&set, 0, &witnesses, "after page-out");

        // Back up the ladder.
        step(&set, table, Tier::Quantized, &mut epoch);
        step(&set, table, Tier::Dram, &mut epoch);
        assert_neighbors_untouched(&set, 0, &witnesses, "after promote");
    }
    assert_eq!(set.tenant(0).epoch(), epoch);

    // Round trip complete: resident bytes restored exactly, predictions
    // bit-exact with the all-DRAM goldens, every transition verified.
    assert_eq!(set.tenant(0).bytes_by_tier(), before);
    assert!(set.tenant(0).tiers().iter().all(|&t| t == Tier::Dram));
    let after = set.tenant(0).probe_current().expect("final probe");
    for (a, g) in after.iter().zip(set.tenant(0).golden()) {
        assert_eq!(a.as_slice(), g.as_slice(), "round trip must be bit-exact");
    }
    assert!(set.controller().verify_failures().is_empty());
    assert_eq!(set.controller().demotions(), 4);
    assert_eq!(set.controller().promotions(), 4);

    // Refused steps move neither the epoch nor the tiers. A skipped
    // rung is refused up front.
    assert!(set.force_transition(0, 0, Tier::Paged).is_err());
    assert_serving(&set, 0, epoch, Tier::Dram);
    // Two racers for the same demotion: exactly one publishes, as the
    // next epoch; the loser is refused whichever side of the cutover it
    // read the tiers on. The barrier lines both up so both usually build
    // from the same tiers and meet at publish.
    let start = std::sync::Barrier::new(2);
    let raced: Vec<_> = std::thread::scope(|s| {
        let racers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    set.force_transition(0, 0, Tier::Quantized)
                })
            })
            .collect();
        racers
            .into_iter()
            .map(|r| r.join().expect("racer"))
            .collect()
    });
    let won: Vec<_> = raced.iter().filter_map(|r| r.as_ref().ok()).collect();
    assert_eq!(won.len(), 1, "exactly one racer publishes: {raced:?}");
    epoch += 1;
    assert_eq!(won[0].epoch, epoch);
    assert_serving(&set, 0, epoch, Tier::Quantized);
    assert_eq!(set.tenant(0).epoch(), epoch);
    step(&set, 0, Tier::Dram, &mut epoch);

    // A failed dual read: with no drift allowed, the quantized rung
    // cannot verify.
    let strict = TenantSet::build(
        vec![tenant("rm2", small_spec(rm::rm2()), 5, 64)],
        PressureConfig {
            quantized_tolerance: 0.0,
            ..PressureConfig::default()
        },
    )
    .expect("build strict tenant set");
    let err = strict
        .force_transition(0, 0, Tier::Quantized)
        .expect_err("a quantized epoch must fail a bitwise dual read");
    assert!(err.contains("diverges"), "{err}");
    assert_serving(&strict, 0, 0, Tier::Dram);
    assert_eq!(strict.tenant(0).epoch(), 0);
}

/// Forces one ladder step on tenant 0's `table`: the action publishes
/// as `*epoch + 1`, which the tenant then serves.
fn step(set: &TenantSet, table: usize, to: Tier, epoch: &mut u64) {
    let action = set
        .force_transition(0, table, to)
        .unwrap_or_else(|e| panic!("table {table} -> {to}: {e}"));
    *epoch += 1;
    assert_eq!(action.epoch, *epoch, "table {table} -> {to}: action epoch");
    assert_serving(set, table, *epoch, to);
}

/// Tenant 0 serves `epoch` with `table` on `tier`.
fn assert_serving(set: &TenantSet, table: usize, epoch: u64, tier: Tier) {
    assert_eq!(set.tenant(0).epoch(), epoch, "serving epoch");
    assert_eq!(set.tenant(0).tiers()[table], tier, "table {table} tier");
}

/// Seeded random ladder walks, each step one adjacent rung of a table
/// drawn from a few (the row-split one among them): after every step
/// the tenant serves what a fresh `build_tiered_epoch` at the same tier
/// assignment serves — the same golden-probe predictions and the same
/// bytes on every tier, bit for bit.
#[test]
fn derived_steps_match_a_fresh_build_at_every_assignment() {
    const STEPS: usize = 8;
    let spec = small_spec(rm::rm3());
    let strategy = ShardingStrategy::NetSpecificBinPacking(4);
    let p = plan(&spec, &PoolingProfile::from_spec(&spec), strategy).expect("plan");
    let split = (0..spec.tables.len())
        .find(|&t| p.placement(TableId(t)).is_row_sharded())
        .expect("the plan row-splits a table");
    let walked = [split, 1, 2];
    let mut promotions_to_dram = 0;
    for seed in [41u64, 42, 43] {
        let t = TenantSpec {
            strategy,
            ..tenant("rm3", spec.clone(), seed, 64)
        };
        let set = TenantSet::build(vec![t], PressureConfig::default()).expect("build");
        let inputs = set.tenant(0).golden_inputs();
        let mut rng = SimRng::seed_from(seed);
        for step in 0..STEPS {
            let table = walked[rng.next_index(walked.len())];
            let from = set.tenant(0).tiers()[table];
            let to = match (from.demoted(), from.promoted()) {
                (Some(down), Some(up)) => [down, up][rng.next_index(2)],
                (down, up) => down.or(up).expect("every rung has a neighbour"),
            };
            set.force_transition(0, table, to)
                .unwrap_or_else(|e| panic!("seed {seed} step {step}: {e}"));
            promotions_to_dram += usize::from(to == Tier::Dram);

            let tiers = set.tenant(0).tiers();
            let (fresh, _) = build_tiered_epoch(&spec, &p, seed, &tiers, 0).expect("fresh build");
            let want = probe_all(&spec, &fresh.model, inputs).expect("fresh probe");
            let got = set.tenant(0).probe_current().expect("derived probe");
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.as_slice(), b.as_slice(), "seed {seed} step {step}: {tiers:?}");
            }
            let mut bytes = TierBytes::default();
            for s in &fresh.model.shards {
                bytes.absorb(s.bytes_by_tier());
            }
            assert_eq!(set.tenant(0).bytes_by_tier(), bytes, "seed {seed} step {step}");
        }
        assert!(set.controller().verify_failures().is_empty());
    }
    assert!(promotions_to_dram > 0, "the walks must promote back to DRAM");
}

/// One tenant's open-loop workload: `n` seeded requests at `qps`.
fn workload(spec: &ModelSpec, n: usize, qps: f64, seed: u64) -> TenantWorkload {
    let db = TraceDb::generate(spec, n, seed);
    let requests = materialize_frontend_requests(spec, &db, seed ^ 1);
    let schedule = ArrivalSchedule::poisson(requests.len(), qps, seed ^ 2);
    TenantWorkload { requests, schedule }
}

#[test]
fn overloaded_tenant_sheds_locally_and_neighbor_keeps_its_solo_sla() {
    const B_REQUESTS: usize = 24;
    const B_QPS: f64 = 2_000.0;
    const A_QUEUE: usize = 8;
    /// Availability/SLA band the colocated neighbor must stay inside of
    /// relative to its solo run. Wall-clock latencies jitter; outcome
    /// accounting does not.
    const BAND: f64 = 0.10;

    let b_spec = small_spec(rm::rm2());

    // Solo baseline: tenant B alone on the host.
    let solo_set = TenantSet::build(
        vec![tenant("rm2", b_spec.clone(), 5, 64)],
        PressureConfig::default(),
    )
    .expect("solo set");
    let solo = run_tenant_set(
        &solo_set,
        vec![workload(&b_spec, B_REQUESTS, B_QPS, 17)],
        &TenancyRunConfig::default(),
    );
    let solo_b = &solo.per_tenant[0];
    assert_eq!(solo_b.shed, 0, "solo baseline must not shed");
    assert_eq!(solo_b.failed, 0);

    // Colocated: tenant A is offered 4x its admission capacity in one
    // effectively instantaneous burst; B replays its solo workload.
    let a_spec = small_spec(rm::rm1());
    let set = TenantSet::build(
        vec![
            tenant("rm1", a_spec.clone(), 3, A_QUEUE),
            tenant("rm2", b_spec.clone(), 5, 64),
        ],
        PressureConfig::default(),
    )
    .expect("colocated set");
    let report = run_tenant_set(
        &set,
        vec![
            workload(&a_spec, 4 * A_QUEUE, 1_000_000.0, 29),
            workload(&b_spec, B_REQUESTS, B_QPS, 17),
        ],
        &TenancyRunConfig::default(),
    );
    let a = &report.per_tenant[0];
    let b = &report.per_tenant[1];

    // A's overload is absorbed by A's own queue: real shedding, closed
    // accounting, and nothing admitted ever fails.
    assert_eq!(a.offered, (4 * A_QUEUE) as u64);
    assert!(a.shed > 0, "4x admission capacity must shed at A's queue");
    assert_eq!(a.offered, a.admitted + a.shed);
    assert_eq!(a.completed + a.failed, a.admitted);
    assert_eq!(a.failed, 0);

    // B never sheds or fails — the overload was never B's problem — and
    // its SLA outcomes stay within the smoke band of its solo run.
    assert_eq!(b.offered, B_REQUESTS as u64);
    assert_eq!(b.shed, 0, "neighbor must not shed under A's overload");
    assert_eq!(b.failed, 0);
    assert!(
        b.availability() >= solo_b.availability() - BAND,
        "colocated availability {} fell out of band vs solo {}",
        b.availability(),
        solo_b.availability()
    );
    assert!(
        b.sla_hit_rate() >= solo_b.sla_hit_rate() - BAND,
        "colocated SLA hit rate {} fell out of band vs solo {}",
        b.sla_hit_rate(),
        solo_b.sla_hit_rate()
    );
    assert!(set.controller().verify_failures().is_empty());
}

/// One run loop, two entry points: a one-tenant `run_tenant_set` and
/// `run_frontend` on the same model, requests, schedule and knobs agree
/// on every count and every prediction, for every seed swept.
#[test]
fn one_tenant_set_and_run_frontend_agree_on_counts_and_predictions() {
    let spec = small_spec(rm::rm1());
    let cfg = FrontendConfig {
        queue_capacity: 64,
        max_batch_requests: 4,
        sla: Duration::from_millis(500),
        workers: 2,
        ..FrontendConfig::default()
    };
    for seed in [2u64, 9, 17] {
        let db = TraceDb::generate(&spec, 16, seed);
        let requests = materialize_frontend_requests(&spec, &db, seed ^ 1);
        let schedule = ArrivalSchedule::poisson(requests.len(), 2_000.0, seed ^ 2);

        let t = tenant("solo", spec.clone(), seed, cfg.queue_capacity);
        let set = TenantSet::build(vec![t], PressureConfig::default()).expect("build");
        let workload = TenantWorkload {
            requests: requests.clone(),
            schedule: schedule.clone(),
        };
        let run_cfg = TenancyRunConfig {
            max_batch_requests: cfg.max_batch_requests,
            workers: cfg.workers,
            pressure_every: None,
            ..TenancyRunConfig::default()
        };
        let tenancy = run_tenant_set(&set, vec![workload], &run_cfg);

        let profile = PoolingProfile::from_spec(&spec);
        let p = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(2)).expect("plan");
        let dist = partition(build_model(&spec, seed).expect("build"), &p).expect("partition");
        let single = run_frontend(&dist, requests, &schedule, &cfg);

        let multi = &tenancy.per_tenant[0];
        let counts = |r: &dlrm_serving::frontend::FrontendReport| {
            (
                r.offered,
                r.admitted,
                r.shed,
                r.completed,
                r.failed,
                r.degraded,
            )
        };
        assert_eq!(counts(multi), counts(&single), "seed {seed}");
        assert_eq!(counts(multi), (16, 16, 0, 16, 0, 0), "seed {seed}");
        // Reports sort predictions by request id.
        assert_eq!(multi.predictions, single.predictions, "seed {seed}");
    }
}
