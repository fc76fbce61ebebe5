//! Report formatting for paper-vs-measured comparisons.

use crate::paper::PaperCell;
use dlrm_core::metrics::Percentiles;
use dlrm_core::serving::ConfigResult;

/// Formats one paper-vs-measured row for a Table III/IV-style report.
#[must_use]
pub fn compare_row(paper: &PaperCell, measured: &ConfigResult) -> String {
    format!(
        "{:<10} e2e paper[{}] measured[{}] | cpu paper[{}] measured[{}]",
        paper.strategy.label(),
        paper.e2e,
        measured.e2e,
        paper.cpu,
        measured.cpu,
    )
}

/// Formats a percentile triple as overheads versus a baseline (the
/// Fig. 6/7/16 quantity).
#[must_use]
pub fn overhead_row(label: &str, value: &Percentiles, baseline: &Percentiles) -> String {
    let o = value.overhead_vs(baseline);
    format!(
        "{label:<10} overhead% p50={:+6.1} p90={:+6.1} p99={:+6.1}",
        o.p50, o.p90, o.p99
    )
}

/// Renders a horizontal bar of `value` scaled against `max` (stack
/// figures as text).
#[must_use]
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "█".repeat(n.min(width))
}

/// Section header used by every bench target.
#[must_use]
pub fn header(id: &str, title: &str) -> String {
    format!("\n==== {id}: {title} ====")
}

/// One benchmark's machine-readable result: its headline p50 and an
/// optional derived throughput (`GFLOP/s` for GEMMs, `bags/s` for the
/// SparseLengthsSum family).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark name, as printed by the timing harness.
    pub name: String,
    /// Median (p50) per-iteration value — nanoseconds unless `unit`
    /// says otherwise.
    pub median_ns: f64,
    /// Unit of the headline values; `None` means nanoseconds. Set this
    /// for records whose quantity is not a latency (bytes, row counts)
    /// so consumers stop reading everything as `p50_ns`.
    pub unit: Option<String>,
    /// Optional `(unit, value)` throughput derived from the median.
    pub throughput: Option<(String, f64)>,
}

impl BenchRecord {
    /// A latency record: p50 only, in nanoseconds.
    #[must_use]
    pub fn p50(name: impl Into<String>, median_ns: f64) -> Self {
        BenchRecord {
            name: name.into(),
            median_ns,
            unit: None,
            throughput: None,
        }
    }

    /// A non-latency scalar (bytes, rows, ...) labeled with its unit.
    #[must_use]
    pub fn scalar(name: impl Into<String>, value: f64, unit: impl Into<String>) -> Self {
        BenchRecord {
            unit: Some(unit.into()),
            ..Self::p50(name, value)
        }
    }
}

/// Escapes a string for embedding in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a float as a JSON number (JSON has no NaN/∞; those clamp
/// to 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0.000".into()
    }
}

/// Serializes bench records as a JSON array — the in-tree,
/// std-only emitter behind `BENCH_kernels.json`.
#[must_use]
pub fn bench_records_json(records: &[BenchRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        // Historical key name: `p50_ns` keeps its suffix even when
        // `unit` overrides the quantity — the unit field is the source
        // of truth for non-latency records.
        out.push_str(&format!(
            "  {{\"name\": \"{}\", \"p50_ns\": {}",
            json_escape(&r.name),
            json_num(r.median_ns)
        ));
        if let Some(unit) = &r.unit {
            out.push_str(&format!(", \"unit\": \"{}\"", json_escape(unit)));
        }
        if let Some((unit, value)) = &r.throughput {
            out.push_str(&format!(
                ", \"throughput_unit\": \"{}\", \"throughput\": {}",
                json_escape(unit),
                json_num(*value)
            ));
        }
        out.push('}');
        if i + 1 < records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out.push('\n');
    out
}

/// Writes bench records to `path` as JSON.
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn write_bench_json(path: &std::path::Path, records: &[BenchRecord]) -> std::io::Result<()> {
    std::fs::write(path, bench_records_json(records))
}

/// Requests replayed per configuration by the reproduction targets.
/// Override with `DLRM_REPRO_REQUESTS` (more requests → smoother
/// percentiles, longer runs).
#[must_use]
pub fn repro_requests() -> usize {
    std::env::var("DLRM_REPRO_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(200)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10), "█████");
        assert_eq!(bar(20.0, 10.0, 10).chars().count(), 10);
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn bench_records_serialize_as_json() {
        let mut gemm = BenchRecord::p50("gemm", 1234.5);
        gemm.throughput = Some(("GFLOP/s".into(), 42.25));
        let records = vec![
            gemm,
            BenchRecord::p50("sls \"quoted\"", f64::NAN),
            BenchRecord::scalar("wire_bytes", 4096.0, "bytes"),
        ];
        let json = bench_records_json(&records);
        assert!(json.starts_with("[\n"));
        assert!(json.contains(
            "\"name\": \"gemm\", \"p50_ns\": 1234.500, \"throughput_unit\": \"GFLOP/s\", \"throughput\": 42.250}"
        ));
        assert!(json.contains("sls \\\"quoted\\\""));
        assert!(json.contains("\"p50_ns\": 0.000"));
        assert!(json.contains("\"name\": \"wire_bytes\", \"p50_ns\": 4096.000, \"unit\": \"bytes\""));
        // A p50-only record carries no phantom throughput key.
        let sls_line = json.lines().find(|l| l.contains("sls")).unwrap();
        assert!(!sls_line.contains("throughput"));
        // Exactly two separating commas between the three objects.
        assert_eq!(json.matches("},\n").count(), 2);
    }

    #[test]
    fn overhead_row_formats() {
        let base = Percentiles {
            p50: 10.0,
            p90: 10.0,
            p99: 10.0,
        };
        let v = Percentiles {
            p50: 11.0,
            p90: 9.0,
            p99: 10.0,
        };
        let s = overhead_row("x", &v, &base);
        assert!(s.contains("+10.0"));
        assert!(s.contains("-10.0"));
    }
}
