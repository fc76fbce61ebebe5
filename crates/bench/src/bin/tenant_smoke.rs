//! Tenancy smoke test: multi-tenant colocation with capacity-pressure
//! eviction and SLA isolation, gated in `scripts/verify.sh`.
//!
//! Three tenants (RM1 + RM2 + RM3, smoke-scaled) share one frontend
//! host. The run drives the two failure axes the tenancy layer exists
//! for, at once:
//!
//! - **Capacity pressure** — the host DRAM budget is set just below the
//!   tenants' all-DRAM footprint, so the pressure controller must
//!   demote cold tables down the storage ladder (DRAM → quantized →
//!   paged) while traffic flows; afterwards the budget is lifted and
//!   the controller must promote everything back to DRAM, every
//!   transition dual-read verified.
//! - **Admission overload** — tenant A's arrivals spike to 200× its
//!   rate mid-run against a tiny admission queue. A must shed at its
//!   own door; B and C must ride through with their solo-grade
//!   availability and SLA outcomes.
//!
//! Gates: accounting identities close per tenant, zero failed requests
//! anywhere, A sheds (and only A), B/C availability ≥ 99% with SLA hit
//! rates in band, ≥ 1 demotion and ≥ 1 promotion published with zero
//! dual-read failures, and the post-promotion epochs answer the golden
//! probes bit for bit.

use dlrm_bench::harness::{fail, smoke_spec};
use dlrm_core::model::{rm, ModelSpec};
use dlrm_core::serving::tenancy::{
    run_tenant_set, PressureConfig, TenancyRunConfig, TenantSet, TenantSpec, TenantWorkload, Tier,
};
use dlrm_core::serving::frontend::materialize_frontend_requests;
use dlrm_core::sharding::ShardingStrategy;
use dlrm_core::workload::{ArrivalSchedule, TraceDb};
use std::time::Duration;

const SEED: u64 = 41;
const B_REQUESTS: usize = 24;
const BC_QPS: f64 = 12.0;
const A_REQUESTS: usize = 48;
const A_QUEUE: usize = 2;
const SLA_FLOOR: f64 = 0.80;
const AVAILABILITY_FLOOR: f64 = 0.99;
/// How far under the all-DRAM footprint the tight budget sits.
const PRESSURE_GAP: u64 = 16 << 10;

fn tenant(name: &str, spec: ModelSpec, seed: u64, weight: u64, queue: usize) -> TenantSpec {
    TenantSpec {
        name: name.to_string(),
        spec,
        seed,
        strategy: ShardingStrategy::CapacityBalanced(2),
        weight,
        queue_capacity: queue,
        sla: Duration::from_millis(500),
    }
}

fn workload(spec: &ModelSpec, n: usize, schedule: ArrivalSchedule, seed: u64) -> TenantWorkload {
    let db = TraceDb::generate(spec, n, seed);
    let requests = materialize_frontend_requests(spec, &db, seed ^ 1);
    TenantWorkload { requests, schedule }
}

fn main() {
    let a_spec = smoke_spec(rm::rm1(), 1 << 20, 4.0, 4);
    let b_spec = smoke_spec(rm::rm2(), 1 << 20, 4.0, 4);
    let c_spec = smoke_spec(rm::rm3(), 1 << 20, 4.0, 4);

    let set = TenantSet::build(
        vec![
            tenant("rm1", a_spec.clone(), SEED, 2, A_QUEUE),
            tenant("rm2", b_spec.clone(), SEED ^ 5, 1, 64),
            tenant("rm3", c_spec.clone(), SEED ^ 9, 1, 64),
        ],
        // One cutover per tick: each rebuild+verify costs real CPU on a
        // small box, and the gates are about convergence, not rate.
        PressureConfig {
            max_actions_per_tick: 1,
            ..PressureConfig::default()
        },
    )
    .unwrap_or_else(|e| fail(&format!("build tenant set: {e}")));

    // Tight budget: just under the all-DRAM footprint, so the very
    // first pressure tick must start demoting.
    let all_dram = set.bytes_by_tier().resident();
    if all_dram <= 2 * PRESSURE_GAP {
        fail("smoke models too small to express capacity pressure");
    }
    let tight = all_dram - PRESSURE_GAP;
    set.controller().set_budget(tight);
    println!(
        "==== tenant smoke: 3 tenants, {:.2} MiB all-DRAM, budget {:.2} MiB ====",
        all_dram as f64 / (1 << 20) as f64,
        tight as f64 / (1 << 20) as f64
    );

    // Tenant A's rate spikes 200x for the middle half of its arrivals —
    // an effectively instantaneous clump its 2-slot admission queue
    // cannot hold; B and C run plain Poisson streams the host can serve
    // comfortably.
    let workloads = vec![
        workload(
            &a_spec,
            A_REQUESTS,
            ArrivalSchedule::poisson_burst(A_REQUESTS, 50.0, 200.0, 0.25, 0.5, SEED ^ 2),
            SEED ^ 3,
        ),
        workload(
            &b_spec,
            B_REQUESTS,
            ArrivalSchedule::poisson(B_REQUESTS, BC_QPS, SEED ^ 4),
            SEED ^ 5,
        ),
        workload(
            &c_spec,
            B_REQUESTS,
            ArrivalSchedule::poisson(B_REQUESTS, BC_QPS, SEED ^ 6),
            SEED ^ 7,
        ),
    ];
    let cfg = TenancyRunConfig {
        pressure_every: Some(Duration::from_millis(100)),
        ..TenancyRunConfig::default()
    };
    let report = run_tenant_set(&set, workloads, &cfg);
    let tenants: Vec<_> = set.tenants().iter().zip(&report.per_tenant).collect();

    // ---- Gate 1: per-tenant accounting identities, zero failures. ----
    for (t, r) in &tenants {
        let name = t.name();
        println!("---- tenant {name}: {} ----\n{r}", t.bytes_by_tier());
        if r.offered != r.admitted + r.shed {
            fail(&format!("{name}: offered != admitted + shed"));
        }
        if r.completed + r.failed != r.admitted {
            fail(&format!("{name}: completed + failed != admitted"));
        }
        if r.failed != 0 {
            fail(&format!("{name}: {} requests failed", r.failed));
        }
        if r.degraded != 0 {
            fail(&format!("{name}: {} degraded responses", r.degraded));
        }
    }

    // ---- Gate 2: the overload stays A's problem. ----
    let a = tenants[0].1;
    if a.shed == 0 {
        fail("tenant A's burst never overflowed its admission queue");
    }
    for (t, r) in &tenants[1..] {
        let name = t.name();
        if r.shed != 0 {
            fail(&format!("{name} shed {} requests under tenant A's overload", r.shed));
        }
        if r.availability() < AVAILABILITY_FLOOR {
            fail(&format!(
                "{name} availability {:.4} under colocation (floor {AVAILABILITY_FLOOR})",
                r.availability()
            ));
        }
        if r.sla_hit_rate() < SLA_FLOOR {
            fail(&format!(
                "{name} SLA hit rate {:.4} under colocation (floor {SLA_FLOOR})",
                r.sla_hit_rate()
            ));
        }
    }

    // ---- Gate 3: pressure demoted under the tight budget. The live
    // ---- ticks normally finish the job; bounded catch-up ticks keep
    // ---- the gate about *convergence*, not tick-loop timing. ----
    for _ in 0..12 {
        if set.bytes_by_tier().resident() <= tight {
            break;
        }
        let _ = set.pressure_tick();
    }
    let squeezed = set.bytes_by_tier();
    if squeezed.resident() > tight {
        fail(&format!(
            "resident {} still over budget {} after catch-up ticks",
            squeezed.resident(),
            tight
        ));
    }
    if set.controller().demotions() == 0 {
        fail("capacity pressure published no demotions");
    }
    println!(
        "under pressure: {} ({} demotions)",
        squeezed,
        set.controller().demotions()
    );

    // ---- Gate 4: lifting the budget promotes everything home. ----
    set.controller().set_budget(u64::MAX);
    for _ in 0..60 {
        let all_dram_again = set
            .tenants()
            .iter()
            .all(|t| t.tiers().iter().all(|&tier| tier == Tier::Dram));
        if all_dram_again {
            break;
        }
        let _ = set.pressure_tick();
    }
    for t in set.tenants() {
        if !t.tiers().iter().all(|&tier| tier == Tier::Dram) {
            fail(&format!(
                "{}: tables still demoted after the budget lifted",
                t.name()
            ));
        }
    }
    if set.controller().promotions() == 0 {
        fail("budget lift published no promotions");
    }
    let restored = set.bytes_by_tier();
    if restored.resident() != all_dram {
        fail(&format!(
            "resident bytes {} != all-DRAM footprint {} after promotion",
            restored.resident(),
            all_dram
        ));
    }

    // ---- Gate 5: every transition verified, and the promoted epochs
    // ---- answer the golden probes bit for bit. ----
    let failures = set.controller().verify_failures();
    if !failures.is_empty() {
        fail(&format!("dual-read verification failures: {failures:?}"));
    }
    for t in set.tenants() {
        let replay = t
            .probe_current()
            .unwrap_or_else(|e| fail(&format!("{}: final probe: {e}", t.name())));
        for (got, want) in replay.iter().zip(t.golden()) {
            if got.as_slice() != want.as_slice() {
                fail(&format!(
                    "{}: post-promotion predictions differ from golden",
                    t.name()
                ));
            }
        }
    }

    println!(
        "\nOK: A shed {} of {} offered; B/C availability {:.4}/{:.4}, SLA {:.4}/{:.4}; \
         {} demotions + {} promotions, all verified, all-DRAM restored bit-exact",
        a.shed,
        a.offered,
        tenants[1].1.availability(),
        tenants[2].1.availability(),
        tenants[1].1.sla_hit_rate(),
        tenants[2].1.sla_hit_rate(),
        set.controller().demotions(),
        set.controller().promotions()
    );
}
