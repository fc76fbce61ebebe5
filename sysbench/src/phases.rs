//! The load phases of a run — steady (with its warm-up), saturation —
//! and the output check.

use crate::deploy::{Deployment, Served, Stream};
use crate::idle;
use crate::spec::{self, Workload};
use crate::stats::{self, Completion};
use dlrm_core::model::graph::NoopObserver;
use dlrm_core::model::{build_model, Model, ModelSpec, Workspace};
use dlrm_core::serving::frontend::{FrontendConfig, FrontendRequest};
use dlrm_core::tensor::Matrix;
use dlrm_core::workload::{
    materialize_request_with, ArrivalSchedule, BatchInputs, IndexDist, TraceDb,
};
use std::time::{Duration, Instant};

/// What a seed is used for; keeps every stream of every phase on its
/// own random sequence.
#[derive(Clone, Copy)]
pub enum Phase {
    Steady = 1,
    Saturation = 2,
    Traced = 3,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Steady => "steady",
            Phase::Saturation => "saturation",
            Phase::Traced => "traced",
        }
    }
}

fn derive_seed(seed: u64, phase: Phase, stream: usize, purpose: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ ((phase as u64) << 16 | (stream as u64) << 8 | purpose)
}

/// `n` materialized requests (one engine batch each), ids `0..n`.
pub fn materialize(
    spec: &ModelSpec,
    dist: IndexDist,
    seed: u64,
    phase: Phase,
    stream: usize,
    n: usize,
) -> Vec<BatchInputs> {
    let db = TraceDb::generate(spec, n, derive_seed(seed, phase, stream, 1));
    let index_seed = derive_seed(seed, phase, stream, 2);
    (0..n)
        .map(|i| {
            materialize_request_with(spec, db.get(i), usize::MAX, index_seed, dist)
                .into_iter()
                .next()
                .expect("a request has at least one item")
        })
        .collect()
}

fn stream_of(inputs: Vec<BatchInputs>, qps: f64, seed: u64) -> Stream {
    let schedule = ArrivalSchedule::poisson(inputs.len(), qps, seed);
    let requests = inputs
        .into_iter()
        .enumerate()
        .map(|(id, inputs)| FrontendRequest {
            id: id as u64,
            inputs,
        })
        .collect();
    Stream { requests, schedule }
}

pub fn frontend_config(w: &Workload, queue_capacity: usize) -> FrontendConfig {
    FrontendConfig {
        queue_capacity,
        max_batch_requests: spec::MAX_BATCH_REQUESTS,
        batch_timeout: Duration::from_millis(spec::BATCH_TIMEOUT_MS),
        sla: Duration::from_secs_f64(w.sla_ms / 1e3),
        workers: spec::WORKERS,
    }
}

/// One open-loop pass and what was offered in it.
#[derive(Debug)]
pub struct Pass {
    pub served: Served,
    /// Scheduled offsets per stream, ms.
    pub offsets_ms: Vec<Vec<f64>>,
    /// Process CPU consumed while the pass ran, ms (a steady pass: with
    /// its idle spinners').
    pub cpu_ms: f64,
    pub wall_ms: f64,
    /// Ids of the requests whose outputs `verify` checks, and their
    /// inputs per stream (cloned before the pass consumed them).
    pub kept_ids: Vec<usize>,
    pub kept_inputs: Vec<Vec<BatchInputs>>,
}

impl Pass {
    /// Completions per stream whose due time is at or after `from_ms`.
    pub fn completions(&self, from_ms: f64) -> Vec<Vec<Completion>> {
        self.served
            .reports
            .iter()
            .zip(&self.offsets_ms)
            .map(|(report, offsets)| {
                let mut done = stats::completions(offsets, &report.trace);
                done.retain(|c| c.due_ms >= from_ms);
                done
            })
            .collect()
    }

    pub fn offered(&self, from_ms: f64) -> usize {
        self.offsets_ms
            .iter()
            .map(|o| o.iter().filter(|&&due| due >= from_ms).count())
            .sum()
    }

    pub fn attempted(&self) -> u64 {
        self.served.reports.iter().map(|r| r.offered).sum()
    }

    pub fn completed(&self) -> u64 {
        self.served.reports.iter().map(|r| r.completed).sum()
    }

    /// Requests that were shed, failed or served degraded.
    pub fn failed(&self) -> u64 {
        self.served
            .reports
            .iter()
            .map(|r| r.shed + r.failed + r.degraded)
            .sum()
    }

    /// The accounting identities every pass must satisfy.
    pub fn check_identities(&self, phase: &str) -> Result<(), String> {
        for (i, (r, offsets)) in self.served.reports.iter().zip(&self.offsets_ms).enumerate() {
            let broken = if r.offered != offsets.len() as u64 {
                "offered != scheduled"
            } else if r.offered != r.admitted + r.shed {
                "offered != admitted + shed"
            } else if r.completed + r.failed != r.admitted {
                "completed + failed != admitted"
            } else if r.predictions.len() as u64 != r.completed {
                "predictions != completed"
            } else {
                continue;
            };
            return Err(format!(
                "{phase} stream {i}: {broken} (offered {} admitted {} shed {} completed {} failed {} predictions {})",
                r.offered, r.admitted, r.shed, r.completed, r.failed, r.predictions.len()
            ));
        }
        Ok(())
    }
}

/// Materializes `n` requests for each of the workload's streams and
/// reports the cost per request.
pub fn materialize_streams(w: &Workload, seed: u64, n: usize) -> (Vec<Vec<BatchInputs>>, f64) {
    let spec = w.spec();
    let t = Instant::now();
    let inputs = (0..w.streams())
        .map(|s| materialize(&spec, w.dist, seed, Phase::Steady, s, n))
        .collect();
    (
        inputs,
        t.elapsed().as_secs_f64() * 1e3 / (n * w.streams()) as f64,
    )
}

/// Offers `inputs[stream]` to each stream at `qps` per stream, in
/// order, on a fresh Poisson schedule. `steady_from_ms` marks the
/// steady pass and where its warm-up ends: tenant A churns while it
/// runs, and the inputs of [`verified_indices`] are kept for the output
/// check. Without it the pass is the saturation backlog.
pub fn run_pass(
    deployment: &Deployment,
    cfg: &FrontendConfig,
    seed: u64,
    inputs: Vec<Vec<BatchInputs>>,
    qps: f64,
    steady_from_ms: Option<f64>,
) -> Pass {
    let phase = if steady_from_ms.is_some() {
        Phase::Steady
    } else {
        Phase::Saturation
    };
    let n = inputs[0].len();
    let streams: Vec<Stream> = inputs
        .into_iter()
        .enumerate()
        .map(|(s, inputs)| stream_of(inputs, qps, derive_seed(seed, phase, s, 3)))
        .collect();
    let offsets_ms: Vec<Vec<f64>> = streams
        .iter()
        .map(|s| s.schedule.offsets_ms().to_vec())
        .collect();
    let kept_ids = steady_from_ms.map_or(Vec::new(), |from| verified_indices(&offsets_ms[0], from));
    let kept_inputs = streams
        .iter()
        .map(|s| {
            kept_ids
                .iter()
                .map(|&i| s.requests[i].inputs.clone())
                .collect()
        })
        .collect();

    let cpu_before = stats::process_cpu_ms();
    let start = Instant::now();
    // The steady pass leaves the CPUs idle most of the time; see `idle`
    // for why they are kept from halting. The backlog keeps them busy
    // itself, and its CPU time is a metric.
    let (served, idle_spinners) = if steady_from_ms.is_some() {
        idle::keep_awake(|| deployment.serve(streams, cfg, true))
    } else {
        (deployment.serve(streams, cfg, false), 0)
    };
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let cpu_ms = stats::process_cpu_ms() - cpu_before;
    println!(
        "phase {} requests_per_stream={n} serve_s={:.3} cpu_s={:.3} idle_spinners={idle_spinners}",
        phase.name(),
        wall_ms / 1e3,
        cpu_ms / 1e3
    );
    Pass {
        served,
        offsets_ms,
        cpu_ms,
        wall_ms,
        kept_ids,
        kept_inputs,
    }
}

/// Indices of the steady-phase requests whose outputs are checked:
/// evenly spaced over the requests due after the warm-up.
pub fn verified_indices(offsets_ms: &[f64], warm_ms: f64) -> Vec<usize> {
    let first = offsets_ms.partition_point(|&due| due < warm_ms);
    let measured = offsets_ms.len() - first;
    let count = spec::VERIFIED_REQUESTS.min(measured);
    (0..count).map(|k| first + k * measured / count).collect()
}

pub fn singular_model(spec: &ModelSpec) -> Model {
    build_model(spec, spec::WEIGHT_SEED).expect("build singular model")
}

pub fn singular_prediction(model: &Model, inputs: &BatchInputs) -> Matrix {
    let mut ws = Workspace::new();
    inputs.load_into(&model.spec, &mut ws);
    model.run(&mut ws, &mut NoopObserver).expect("singular run")
}

fn bits_equal(a: &Matrix, b: &Matrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Checks the served predictions of the kept requests against the
/// singular model: bit for bit, or within `tolerance[stream]` where a
/// stream is allowed quantization drift.
pub fn verify_predictions(singular: &Model, pass: &Pass, tolerance: &[f32]) -> Result<(), String> {
    for (s, report) in pass.served.reports.iter().enumerate() {
        for (&id, inputs) in pass.kept_ids.iter().zip(&pass.kept_inputs[s]) {
            let served = report
                .predictions
                .iter()
                .find(|(pid, _)| *pid == id as u64)
                .map(|(_, m)| m)
                .ok_or_else(|| format!("stream {s}: request {id} has no prediction"))?;
            let expected = singular_prediction(singular, inputs);
            let ok = if tolerance[s] == 0.0 {
                bits_equal(served, &expected)
            } else {
                served.rows() == expected.rows()
                    && served.cols() == expected.cols()
                    && served.max_abs_diff(&expected) <= tolerance[s]
            };
            if !ok {
                return Err(format!(
                    "stream {s}: request {id} differs from the singular model (max abs diff {})",
                    served.max_abs_diff(&expected)
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verified_requests_are_spread_over_the_measured_part() {
        let offsets: Vec<f64> = (0..100).map(|i| f64::from(i) * 10.0).collect();
        let picked = verified_indices(&offsets, 200.0);
        assert_eq!(picked.len(), spec::VERIFIED_REQUESTS);
        assert_eq!(picked[0], 20);
        assert!(picked.windows(2).all(|w| w[0] < w[1]));
        assert!(*picked.last().unwrap() < 100);
        assert_eq!(verified_indices(&offsets[..22], 200.0), vec![20, 21]);
    }

    #[test]
    fn seeds_differ_by_phase_stream_and_purpose() {
        let all: std::collections::HashSet<u64> = [Phase::Steady, Phase::Saturation, Phase::Traced]
            .into_iter()
            .flat_map(|p| (0..2).flat_map(move |s| (1..4).map(move |u| derive_seed(9, p, s, u))))
            .collect();
        assert_eq!(all.len(), 18);
        assert_ne!(
            derive_seed(1, Phase::Steady, 0, 1),
            derive_seed(2, Phase::Steady, 0, 1)
        );
    }
}
