//! Measurement primitives for latency/compute characterization.
//!
//! The ISPASS'21 study reports P50/P90/P99 end-to-end latency and aggregate
//! CPU time for every sharding configuration (Tables III and IV), overhead
//! percentages relative to a baseline (Figs. 6, 7, 16), and stacked
//! per-layer attributions (Figs. 8, 9, 13, 14). This crate provides the
//! small, dependency-free measurement toolkit those reports are built on:
//!
//! - [`PercentileSketch`]: exact percentile estimation over a recorded
//!   sample set (the study's request counts are small enough that exact
//!   order statistics are preferable to approximate digests),
//! - [`Summary`]: count/mean/min/max/stddev accumulator,
//! - [`CauseCounts`]: failure counters keyed by cause, for the serving
//!   tier's failure-by-cause breakdowns,
//! - [`overhead_pct`]: the overhead-vs-baseline arithmetic used by the
//!   figure reproductions.
//!
//! # Examples
//!
//! ```
//! use dlrm_metrics::PercentileSketch;
//!
//! let mut lat = PercentileSketch::new();
//! for v in [1.0, 2.0, 3.0, 4.0, 100.0] {
//!     lat.record(v);
//! }
//! let p = lat.percentiles();
//! assert_eq!(p.p50, 3.0);
//! assert!(p.p99 >= p.p90);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod causes;
mod percentile;
mod summary;

pub use causes::CauseCounts;
pub use percentile::{PercentileSketch, Percentiles, TailPercentiles};
pub use summary::Summary;

/// Relative overhead of `value` versus `baseline`, in percent.
///
/// This is the quantity plotted in Figs. 6, 7 and 16 of the paper:
/// `(value - baseline) / baseline * 100`. Negative results mean `value`
/// *improved* on the baseline (as the paper observes for distributed
/// inference at high QPS).
///
/// # Examples
///
/// ```
/// assert_eq!(dlrm_metrics::overhead_pct(110.0, 100.0), 10.0);
/// assert_eq!(dlrm_metrics::overhead_pct(95.0, 100.0), -5.0);
/// ```
///
/// # Panics
///
/// Panics if `baseline` is not strictly positive; an overhead against a
/// zero or negative baseline is meaningless for latency/compute data.
pub fn overhead_pct(value: f64, baseline: f64) -> f64 {
    assert!(
        baseline > 0.0,
        "overhead baseline must be positive, got {baseline}"
    );
    (value - baseline) / baseline * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_pct_basic() {
        assert_eq!(overhead_pct(200.0, 100.0), 100.0);
        assert_eq!(overhead_pct(100.0, 100.0), 0.0);
    }

    #[test]
    fn overhead_pct_improvement_is_negative() {
        assert!(overhead_pct(90.0, 100.0) < 0.0);
    }

    #[test]
    #[should_panic(expected = "baseline must be positive")]
    fn overhead_pct_rejects_zero_baseline() {
        let _ = overhead_pct(1.0, 0.0);
    }
}
