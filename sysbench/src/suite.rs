//! The full set: every workload in its own fresh process, measured and
//! traced, `--repeat` times; with two or more repeats, a repeatability
//! check against the bounds of `BENCHMARK.json`.

use crate::spec;
use std::process::{Command, Stdio};

/// The `metric <name> <value> <unit>` lines of one child run.
type RunMetrics = Vec<(String, f64, String)>;

fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<RunMetrics, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) failed: {}",
            u8::from(trace),
            output.status
        ));
    }
    Ok(stdout
        .lines()
        .filter_map(|line| {
            let mut f = line.strip_prefix("metric ")?.split(' ');
            Some((
                f.next()?.to_string(),
                f.next()?.parse().ok()?,
                f.next()?.to_string(),
            ))
        })
        .collect())
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
fn worsening(better: &str, first: f64, second: f64) -> f64 {
    let change = (second - first) / first;
    if better == "lower" {
        change
    } else {
        -change
    }
}

pub fn run(seed: u64, repeat: usize, seconds: f64) -> Result<(), String> {
    // runs[repeat][workload] = end-to-end metrics
    let mut runs: Vec<Vec<RunMetrics>> = Vec::new();
    for rep in 0..repeat.max(1) {
        let mut per_workload = Vec::new();
        for w in &spec::WORKLOADS {
            println!("==== {} (repeat {rep}, seed {seed}) ====", w.name);
            per_workload.push(run_child(w.name, seed, seconds, false)?);
            run_child(w.name, seed, seconds, true)?;
        }
        runs.push(per_workload);
    }

    println!("==== end-to-end summary (seed {seed}) ====");
    let mut exceeded = Vec::new();
    for (wi, w) in spec::WORKLOADS.iter().enumerate() {
        for (mi, metric) in spec::END_TO_END.iter().enumerate() {
            let values: Vec<f64> = runs.iter().map(|r| r[wi][mi].1).collect();
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            let mut line = format!(
                "{:<24} {:<16} {:>6} {}",
                w.name,
                metric.name,
                metric.unit,
                shown.join(" ")
            );
            if let [first, .., last] = values[..] {
                // Run-to-run difference in either direction, against the
                // bound a regression is judged by.
                let diff = worsening(metric.better, first, last).abs();
                line.push_str(&format!(
                    "  diff {:.2}% bound {:.2}%",
                    diff * 100.0,
                    metric.bound * 100.0
                ));
                if diff > metric.bound {
                    line.push_str("  EXCEEDED");
                    exceeded.push(format!("{} {}", w.name, metric.name));
                }
            }
            println!("{line}");
        }
    }
    if exceeded.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "repeats differ by more than the bound: {}",
            exceeded.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening("lower", 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening("higher", 10.0, 11.0) + 0.1).abs() < 1e-12);
        assert!((worsening("higher", 100.0, 93.0) - 0.07).abs() < 1e-12);
    }
}
