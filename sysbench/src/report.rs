//! What a run prints: the host fingerprint, one line per metric, and
//! the result object the driver reads from the last line.

use crate::spec;
use dlrm_core::runtime::KernelDispatch;

/// The metrics of one run, in the order `BENCHMARK.json` lists them.
/// Every metric is present from the start (a per-layer metric with no
/// meaning on the workload stays 0), and only listed names can be set.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    rows: Vec<(&'static str, &'static str, f64)>,
}

impl Metrics {
    pub fn end_to_end() -> Self {
        let rows = spec::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, 0.0))
            .collect();
        Self { rows }
    }

    pub fn per_layer() -> Self {
        let rows = spec::PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, unit, 0.0))
            .collect();
        Self { rows }
    }

    /// # Panics
    ///
    /// Panics on a name the benchmark does not define, or a value that
    /// is not a finite number.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is {value}");
        let row = self
            .rows
            .iter_mut()
            .find(|r| r.0 == name)
            .unwrap_or_else(|| panic!("metric {name} is not in BENCHMARK.json"));
        row.2 = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.rows.iter().find(|r| r.0 == name).map_or(0.0, |r| r.2)
    }

    pub fn rows(&self) -> &[(&'static str, &'static str, f64)] {
        &self.rows
    }
}

/// The driver's result object, on one line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .rows()
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The commit of the enclosing git checkout, read without running git;
/// `none` in a plain directory (the driver's checkout is one).
fn git_commit() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let Ok(head) = std::fs::read_to_string(format!("{root}/HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!("{root}/{reference}")).map_or_else(
            |_| format!("unresolved:{reference}"),
            |s| s.trim().to_string(),
        ),
        None => head.to_string(),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Host identity and every pinned literal the run used, one `key=value`
/// per line, so a result can be traced back to what produced it.
pub fn fingerprint(w: &spec::Workload, seed: u64, seconds: f64, trace: bool) -> String {
    let threads = std::env::var("DLRM_THREADS").unwrap_or_default();
    [
        format!("cpu_model={}", cpu_model()),
        format!("nproc={}", nproc()),
        format!("kernel_dispatch={}", KernelDispatch::detect().level().name()),
        format!("DLRM_THREADS={threads}"),
        format!("git_commit={}", git_commit()),
        format!("workload={} seed={seed} seconds={seconds} trace={}", w.name, u8::from(trace)),
        format!(
            "model_mib={} transport={:?} index_dist={:?} weight_seed={} shards={}",
            w.mib, w.transport, w.dist, spec::WEIGHT_SEED, spec::SHARDS
        ),
        format!(
            "workers={} max_batch_requests={} batch_timeout_ms={} mean_items_per_request={} default_batch_size={}",
            spec::WORKERS, spec::MAX_BATCH_REQUESTS, spec::BATCH_TIMEOUT_MS,
            spec::MEAN_ITEMS_PER_REQUEST, spec::DEFAULT_BATCH_SIZE
        ),
        format!(
            "streams={} steady_qps={} sla_ms={} saturation_qps_nominal={} steady_share={} warm_s={} saturation_rate_factor={} setups={}",
            w.streams(), w.steady_qps, w.sla_ms, w.saturation_qps, spec::STEADY_SHARE,
            spec::WARM_SECONDS, spec::SATURATION_RATE_FACTOR, spec::SETUPS
        ),
    ]
    .map(|line| format!("fingerprint {line}\n"))
    .concat()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_object_has_exactly_the_contract_keys_and_full_precision() {
        let mut m = Metrics::end_to_end();
        m.set("setup_s", 0.812_734_5);
        m.set("steady_p50_ms", 29.25);
        let line = result_json(true, 1000, 0, &m);
        assert!(!line.contains('\n'));
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.8127345, \"unit\": \"s\"}"));
        assert!(line.contains("\"steady_p50_ms\": {\"value\": 29.25, \"unit\": \"ms\"}"));
        assert_eq!(line.matches("\"value\"").count(), spec::END_TO_END.len());
        assert!(line.ends_with("}}"));
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }

    #[test]
    #[should_panic(expected = "not in BENCHMARK.json")]
    fn unknown_metric_is_refused() {
        Metrics::per_layer().set("frontend.typo", 1.0);
    }

    #[test]
    #[should_panic(expected = "is NaN")]
    fn non_finite_value_is_refused() {
        Metrics::per_layer().set("frontend.shed", f64::NAN);
    }
}
