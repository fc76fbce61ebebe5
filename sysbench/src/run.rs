//! One workload, one process: setup → steady (warm-up first) →
//! saturation → verify → (with `--trace 1`) the traced run.

use crate::deploy::{self, Deployment, SetupTimes};
use crate::layers;
use crate::phases::{self, Pass, Phase};
use crate::report::{self, Metrics};
use crate::spans::Tracer;
use crate::spec::{self, Workload};
use crate::stats::{self, median, percentile, Completion};
use dlrm_core::model::Model;
use dlrm_core::runtime::KernelStats;
use dlrm_core::serving::frontend::FrontendReport;
use dlrm_core::serving::replica::TransportSummary;
use dlrm_core::serving::tenancy::PressureConfig;
use dlrm_core::trace::export;
use std::path::PathBuf;
use std::time::Instant;

/// Where a run may write: traces and the paged tier's backing files.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Pins what the environment would otherwise decide. Must run before
/// any thread starts.
fn pin_environment() -> Result<(), String> {
    if std::env::var_os("DLRM_SIMD").is_some() {
        return Err("DLRM_SIMD is set; the benchmark measures the default kernel dispatch".into());
    }
    // Intra-op pools of `nproc` threads under two frontend workers
    // oversubscribe a two-core host (README, sizing note b).
    std::env::set_var("DLRM_THREADS", "1");
    // The paged tier writes its backing files to the temp dir; keep
    // them inside the checkout.
    let tmp = out_dir().join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);
    Ok(())
}

fn transport_summary(deployment: &Deployment) -> TransportSummary {
    match deployment {
        Deployment::Single(single) => single.pool.summary(),
        Deployment::Tenants(_) => TransportSummary::default(),
    }
}

/// Admission-queue slots: the whole saturation backlog of a measured
/// run, so that nothing is shed (also what the tenants are built with).
fn queue_capacity(w: &Workload, seconds: f64) -> usize {
    let backlog = seconds * (1.0 - spec::STEADY_SHARE) * w.saturation_qps;
    let steady = (spec::WARM_SECONDS + seconds * spec::STEADY_SHARE) * w.steady_qps;
    backlog.max(steady).round() as usize
}

/// The two load passes of a run and what was counted around them.
struct Load {
    steady: Pass,
    saturation: Pass,
    /// Requests due before this offset are warm-up.
    warm_ms: f64,
    materialize_ms_per_req: f64,
    /// Transport counters before and after the steady pass.
    transport: (TransportSummary, TransportSummary),
    /// Share of kernel calls the steady pass ran vectorized.
    simd_fraction: f64,
}

impl Load {
    fn run(
        w: &Workload,
        deployment: &Deployment,
        seed: u64,
        seconds: f64,
        load_share: f64,
    ) -> Self {
        let warm_ms = spec::WARM_SECONDS * 1e3;
        let steady_s = seconds * spec::STEADY_SHARE * load_share;
        let steady_n = ((spec::WARM_SECONDS + steady_s) * w.steady_qps).round() as usize;
        let backlog_s = seconds * (1.0 - spec::STEADY_SHARE) * load_share;
        let backlog_n = (backlog_s * w.saturation_qps).round() as usize;
        let cfg = phases::frontend_config(w, queue_capacity(w, seconds));

        let (steady_inputs, materialize_ms_per_req) =
            phases::materialize_streams(w, seed, steady_n);
        println!(
            "phase materialize requests_per_stream={steady_n} ms_per_req={materialize_ms_per_req:.3}"
        );
        // The saturation backlog replays the steady requests in order,
        // as often as it takes: a 1 MB request costs milliseconds to
        // draw, and a second visit seconds later finds nothing of the
        // first in any cache (one pass over the steady set touches
        // gigabytes of rows).
        let backlog_inputs = steady_inputs
            .iter()
            .map(|stream| stream.iter().cycle().take(backlog_n).cloned().collect())
            .collect();

        let kernels_before = KernelStats::global().summary();
        let transport_before = transport_summary(deployment);
        let steady = phases::run_pass(
            deployment,
            &cfg,
            seed,
            steady_inputs,
            w.steady_qps,
            Some(warm_ms),
        );
        let transport_after = transport_summary(deployment);
        let simd_fraction = KernelStats::global()
            .summary()
            .since(&kernels_before)
            .simd_fraction();
        let backlog_qps = w.steady_qps * spec::SATURATION_RATE_FACTOR;
        let saturation =
            phases::run_pass(deployment, &cfg, seed, backlog_inputs, backlog_qps, None);
        Self {
            steady,
            saturation,
            warm_ms,
            materialize_ms_per_req,
            transport: (transport_before, transport_after),
            simd_fraction,
        }
    }

    fn attempted(&self) -> u64 {
        self.steady.attempted() + self.saturation.attempted()
    }

    fn failed(&self) -> u64 {
        self.steady.failed() + self.saturation.failed()
    }

    /// Completions of the measured steady part, per stream.
    fn steady_completions(&self) -> Vec<Vec<Completion>> {
        self.steady.completions(self.warm_ms)
    }

    /// The end-to-end metrics the load passes produce.
    fn end_to_end(&self, w: &Workload, m: &mut Metrics) -> Result<(), String> {
        let mut latency: Vec<f64> = self
            .steady_completions()
            .iter()
            .flatten()
            .map(Completion::latency_ms)
            .collect();
        if latency.is_empty() {
            return Err("steady phase completed no request".into());
        }
        let offered = self.steady.offered(self.warm_ms);
        let degraded: u64 = self.steady.served.reports.iter().map(|r| r.degraded).sum();
        let in_sla = latency.iter().filter(|&&l| l < w.sla_ms).count() as u64;
        m.set("steady_p50_ms", percentile(&mut latency, 50.0));
        m.set(
            "steady_sla_hit",
            in_sla.saturating_sub(degraded) as f64 / offered as f64,
        );
        println!(
            "samples steady_latency={} steady_offered={offered}",
            latency.len()
        );

        let done: Vec<Completion> = self
            .saturation
            .completions(0.0)
            .into_iter()
            .flatten()
            .collect();
        if done.is_empty() {
            return Err("saturation phase completed no request".into());
        }
        let first_due = self
            .saturation
            .offsets_ms
            .iter()
            .map(|o| o[0])
            .fold(f64::INFINITY, f64::min);
        let last_done = done.iter().map(|c| c.done_ms).fold(0.0, f64::max);
        m.set(
            "saturation_qps",
            done.len() as f64 / ((last_done - first_due) / 1e3),
        );
        m.set("cpu_ms_per_req", self.saturation.cpu_ms / done.len() as f64);
        println!("samples saturation_completed={}", done.len());

        m.set(
            "served_share",
            1.0 - self.failed() as f64 / self.attempted() as f64,
        );
        Ok(())
    }

    /// The output check. Any violation fails the run before a metric is
    /// printed.
    fn verify(&self, deployment: &Deployment, singular: &Model) -> Result<(), String> {
        self.steady.check_identities("steady")?;
        self.saturation.check_identities("saturation")?;
        let tolerance = match deployment {
            Deployment::Single(_) => vec![0.0],
            // Tenant A serves from 8-bit tables; tenant B never leaves
            // DRAM.
            Deployment::Tenants(_) => vec![PressureConfig::default().quantized_tolerance, 0.0],
        };
        phases::verify_predictions(singular, &self.steady, &tolerance)?;
        if let Deployment::Tenants(t) = deployment {
            let mut failures = t.set.controller().verify_failures();
            failures.extend(self.steady.served.transition_errors.iter().cloned());
            if !failures.is_empty() {
                return Err(format!(
                    "tier transitions failed verification: {failures:?}"
                ));
            }
        }
        Ok(())
    }

    /// Per-layer metrics read off the passes' reports and counters.
    fn layers(&self, deployment: &Deployment, setup: SetupTimes, m: &mut Metrics) {
        m.set("sharding.plan_ms", setup.plan_ms);
        m.set("sharding.partition_ms", setup.partition_ms);
        m.set("runtime.simd_fraction", self.simd_fraction);
        m.set(
            "workload.materialize_ms_per_req",
            self.materialize_ms_per_req,
        );

        let reports = &self.steady.served.reports;
        let completed = self.steady.completed().max(1) as f64;
        let steady_sum = |of: fn(&FrontendReport) -> f64| reports.iter().map(of).sum::<f64>();
        m.set(
            "frontend.queue_wait_ms",
            steady_sum(|r| r.queue_wait_ms.sum()) / completed,
        );
        m.set(
            "frontend.batch_wait_ms",
            steady_sum(|r| r.batch_wait_ms.sum()) / completed,
        );
        m.set(
            "frontend.compute_ms",
            steady_sum(|r| r.compute_ms.sum()) / completed,
        );
        let mean_batch = |pass: &Pass| {
            let batches: u64 = pass.served.reports.iter().map(|r| r.batches).sum();
            pass.completed() as f64 / batches.max(1) as f64
        };
        m.set("frontend.mean_batch", mean_batch(&self.steady));
        m.set("frontend.sat_mean_batch", mean_batch(&self.saturation));
        let both = || {
            self.steady
                .served
                .reports
                .iter()
                .chain(&self.saturation.served.reports)
        };
        m.set(
            "frontend.max_queue_depth",
            both().map(|r| r.max_queue_depth).max().unwrap_or(0) as f64,
        );
        m.set("frontend.shed", both().map(|r| r.shed).sum::<u64>() as f64);

        let by_stream = self.steady_completions();
        let latency_of = |done: &[Completion]| {
            done.iter()
                .map(Completion::latency_ms)
                .collect::<Vec<f64>>()
        };
        let mut late: Vec<f64> = by_stream
            .iter()
            .flatten()
            .map(Completion::generator_late_ms)
            .collect();
        let mut all: Vec<f64> = by_stream.iter().flat_map(|s| latency_of(s)).collect();
        m.set("frontend.gen_late_p99_ms", percentile(&mut late, 99.0));
        m.set("frontend.e2e_p90_ms", percentile(&mut all, 90.0));
        m.set("frontend.e2e_p99_ms", percentile(&mut all, 99.0));

        let hits = steady_sum(|r| r.cache_hits as f64);
        let misses = steady_sum(|r| r.cache_misses as f64);
        if hits + misses > 0.0 {
            m.set("sharding.cache_hit_rate", hits / (hits + misses));
        }
        m.set(
            "sharding.cache_local_rows_per_req",
            steady_sum(|r| r.cache_local_rows as f64) / completed,
        );
        m.set("replica.retries", steady_sum(|r| r.rpc_retries as f64));
        m.set("replica.hedges", steady_sum(|r| r.rpc_hedges as f64));

        let (before, after) = &self.transport;
        m.set(
            "replica.failovers",
            (after.failovers - before.failovers) as f64,
        );
        m.set(
            "replica.errors",
            (after.errors_by_kind.total() - before.errors_by_kind.total()) as f64,
        );
        let rows_sent = after.rows_sent - before.rows_sent;
        if rows_sent > 0 {
            // What actually left the main shard, after the cache's cut.
            m.set("sharding.rows_per_req", rows_sent as f64 / completed);
        }
        let frames = after.wire.frames_sent - before.wire.frames_sent;
        if frames > 0 {
            let bytes = (after.wire.bytes_sent + after.wire.bytes_received)
                - (before.wire.bytes_sent + before.wire.bytes_received);
            m.set("wire.bytes_per_rpc", bytes as f64 / frames as f64);
            let serde_ms = (after.wire.serde_ns - before.wire.serde_ns) as f64 / 1e6;
            m.set("wire.serde_share", serde_ms / self.steady.wall_ms);
        }

        if let Deployment::Tenants(t) = deployment {
            let mut steps = self.steady.served.transition_ms.clone();
            if !steps.is_empty() {
                m.set("tenancy.transition_ms", median(&mut steps));
            }
            m.set(
                "tenancy.transitions",
                t.set.controller().actions().len() as f64,
            );
            let bytes = t.set.bytes_by_tier();
            let mib = |b: u64| b as f64 / f64::from(1 << 20);
            m.set("tenancy.bytes_dram_mib", mib(bytes.dram));
            m.set("tenancy.bytes_quantized_mib", mib(bytes.quantized));
            m.set("tenancy.bytes_paged_mib", mib(bytes.paged));
            m.set(
                "tenancy.victim_p90_ms",
                percentile(&mut latency_of(&by_stream[0]), 90.0),
            );
            m.set(
                "tenancy.neighbor_p90_ms",
                percentile(&mut latency_of(&by_stream[1]), 90.0),
            );
            m.set(
                "tenancy.verify_failures",
                t.set.controller().verify_failures().len() as f64,
            );
        }
    }
}

pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<(), String> {
    pin_environment()?;
    print!("{}", report::fingerprint(w, seed, seconds, trace));

    // setup: the traced run needs one deployment; a measured run builds
    // it several times and reports the median.
    let mut e2e = Metrics::end_to_end();
    let mut setup_s = Vec::new();
    let mut built: Option<(Deployment, SetupTimes)> = None;
    for i in 0..if trace { 1 } else { spec::SETUPS } {
        if let Some((previous, _)) = built.take() {
            previous.shutdown();
        }
        let (deployment, times) = deploy::setup(w, queue_capacity(w, seconds));
        if i == 0 {
            // Before any request exists: the capacity cost of the
            // deployment alone.
            e2e.set("resident_mib", stats::resident_mib());
        }
        setup_s.push(times.total_s);
        built = Some((deployment, times));
    }
    let (mut deployment, setup_times) = built.expect("at least one setup");
    println!("phase setup builds={} seconds={setup_s:.3?}", setup_s.len());
    e2e.set("setup_s", median(&mut setup_s));

    let load_share = if trace { spec::TRACED_LOAD_SHARE } else { 1.0 };
    let load = Load::run(w, &deployment, seed, seconds, load_share);
    load.end_to_end(w, &mut e2e)?;

    let t = Instant::now();
    let singular = phases::singular_model(&w.spec());
    load.verify(&deployment, &singular)?;
    println!(
        "phase verify_s={:.3} verified_requests_per_stream={}",
        t.elapsed().as_secs_f64(),
        load.steady.kept_ids.len()
    );

    let metrics = if trace {
        let mut m = Metrics::per_layer();
        let mut tracer = Tracer::new();
        let inputs = phases::materialize(
            &w.spec(),
            w.dist,
            seed,
            Phase::Traced,
            0,
            spec::TRACED_REQUESTS,
        );
        let engine_spans = layers::measure(
            w,
            &mut deployment,
            &singular,
            &inputs,
            seed,
            &mut tracer,
            &mut m,
        )?;
        // After `measure`, so the recorded-request figure for rows per
        // request yields to what the transport counted.
        load.layers(&deployment, setup_times, &mut m);
        let late = m.get("frontend.gen_late_p99_ms");
        let p50 = e2e.get("steady_p50_ms");
        if late > 0.1 * p50 {
            // Not fatal: latency is timed from the due time, so lateness
            // is inside the reported latencies, not hidden by them.
            eprintln!(
                "sysbench: warning: load generator p99 lateness {late:.3} ms is over a tenth of steady p50 {p50:.3} ms"
            );
        }
        let dir = out_dir();
        let write = |name: String, text: String| {
            std::fs::write(dir.join(&name), text).map_err(|e| format!("write {name}: {e}"))
        };
        write(format!("{}.trace.jsonl", w.name), tracer.to_jsonl())?;
        write(
            format!("{}.engine.jsonl", w.name),
            export::to_jsonl(&engine_spans),
        )?;
        m
    } else {
        e2e
    };
    deployment.shutdown();

    for (name, unit, value) in metrics.rows() {
        println!("metric {name} {value} {unit}");
    }
    println!(
        "{}",
        report::result_json(true, load.attempted(), load.failed(), &metrics)
    );
    Ok(())
}
