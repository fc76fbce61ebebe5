//! Embedding-table access traces and cache analysis.
//!
//! §IX points research at "trace-driven experimentation: Bandana used
//! embedding table access traces — which can be collected offline — to
//! reduce effective DRAM requirements ... explorations of table
//! placement and frequency-based caching are also valuable directions".
//! This module generates per-table row-access traces with realistic
//! Zipfian skew and provides the offline analyses those explorations
//! need: frequency profiles and LRU hit-rate curves (which also back the
//! SSD-paging cost model's skew parameter empirically).

use dlrm_model::ModelSpec;
use dlrm_sim::SimRng;

/// A stream of row accesses against one embedding table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessTrace {
    rows: u64,
    accesses: Vec<u64>,
}

impl AccessTrace {
    /// Samples `n` accesses over a `rows`-row table from a Zipf(`s`)
    /// popularity distribution with a seeded random row permutation
    /// (hot rows are scattered across the index space, as hashing
    /// scatters hot features).
    ///
    /// Uses the rejection-inversion-free approximate Zipf sampler:
    /// inverse-CDF over the harmonic weights via the continuous
    /// approximation, exact enough for cache studies.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero, `n` is zero, or `s` is not in `(0, 5]`.
    #[must_use]
    pub fn zipf(rows: u64, n: usize, s: f64, seed: u64) -> Self {
        assert!(rows > 0, "table needs rows");
        assert!(n > 0, "trace needs accesses");
        assert!(s > 0.0 && s <= 5.0, "zipf exponent {s} out of range");
        let mut rng = SimRng::seed_from(seed).fork(0x00AC_CE55);
        let accesses = (0..n).map(|_| zipf_index(&mut rng, rows, s)).collect();
        Self { rows, accesses }
    }

    /// Builds a trace from explicit accesses.
    ///
    /// # Panics
    ///
    /// Panics if any access is out of range.
    #[must_use]
    pub fn from_accesses(rows: u64, accesses: Vec<u64>) -> Self {
        assert!(accesses.iter().all(|&a| a < rows), "access out of range");
        Self { rows, accesses }
    }

    /// Number of accesses.
    #[must_use]
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// The accessed row ids, in order.
    #[must_use]
    pub fn accesses(&self) -> &[u64] {
        &self.accesses
    }

    /// Number of distinct rows touched.
    #[must_use]
    pub fn unique_rows(&self) -> usize {
        let mut seen: Vec<u64> = self.accesses.clone();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// Fraction of accesses captured by the `top_fraction` most popular
    /// rows — the skew statistic behind frequency-based caching (and
    /// the paging model's `skew_theta`).
    ///
    /// # Panics
    ///
    /// Panics if `top_fraction` is outside `(0, 1]`.
    #[must_use]
    pub fn coverage_of_hottest(&self, top_fraction: f64) -> f64 {
        assert!(
            top_fraction > 0.0 && top_fraction <= 1.0,
            "fraction {top_fraction} out of range"
        );
        let mut counts: std::collections::HashMap<u64, u64> = Default::default();
        for &a in &self.accesses {
            *counts.entry(a).or_insert(0) += 1;
        }
        let mut freqs: Vec<u64> = counts.into_values().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let k = ((self.rows as f64 * top_fraction).ceil() as usize).max(1);
        let covered: u64 = freqs.iter().take(k).sum();
        covered as f64 / self.accesses.len() as f64
    }

    /// Simulated LRU hit rate with a cache of `capacity` rows.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn lru_hit_rate(&self, capacity: usize) -> f64 {
        assert!(capacity > 0, "cache needs capacity");
        // Classic LRU with a hash map + monotone clock; eviction scans
        // are avoided with a BTreeMap over last-use stamps.
        let mut last_use: std::collections::HashMap<u64, u64> = Default::default();
        let mut by_stamp: std::collections::BTreeMap<u64, u64> = Default::default();
        let mut clock = 0u64;
        let mut hits = 0usize;
        for &row in &self.accesses {
            clock += 1;
            if let Some(&stamp) = last_use.get(&row) {
                hits += 1;
                by_stamp.remove(&stamp);
            } else if last_use.len() >= capacity {
                // Evict the least recently used row.
                let (&oldest, &victim) = by_stamp.iter().next().expect("cache non-empty");
                by_stamp.remove(&oldest);
                last_use.remove(&victim);
            }
            last_use.insert(row, clock);
            by_stamp.insert(clock, row);
        }
        hits as f64 / self.accesses.len() as f64
    }

    /// LRU hit rate at several cache sizes (the miss-ratio curve of
    /// cache studies), as `(capacity, hit_rate)` pairs.
    #[must_use]
    pub fn lru_curve(&self, capacities: &[usize]) -> Vec<(usize, f64)> {
        capacities
            .iter()
            .map(|&c| (c, self.lru_hit_rate(c)))
            .collect()
    }
}

/// Maps a popularity rank onto a row id by scattering ranks over the
/// index space with a multiplicative permutation (a large odd stride,
/// falling back to identity for tiny tables) — hot rows land scattered
/// across the index space, as hashing scatters hot features. The map
/// depends only on `rows`, so every consumer of the same table agrees
/// on which row holds each rank.
pub(crate) fn scatter_rank(rank: u64, rows: u64) -> u64 {
    let stride = 0x9E37_79B9_7F4A_7C15u64 | 1;
    if rows <= 2 {
        rank % rows
    } else {
        (rank.wrapping_mul(stride)) % rows
    }
}

/// Samples one Zipf(`s`)-distributed row id over a `rows`-row table:
/// the shared sampler behind [`AccessTrace::zipf`], [`RowStats`]
/// sampling, and skewed request materialization — all three see the
/// same rank-to-row scatter, so their hot sets coincide.
pub(crate) fn zipf_index(rng: &mut SimRng, rows: u64, s: f64) -> u64 {
    scatter_rank(zipf_rank(rng, rows, s), rows)
}

/// Samples a 1-based Zipf rank over `n` items with exponent `s` via the
/// continuous inverse-CDF approximation, returning a 0-based rank.
fn zipf_rank(rng: &mut SimRng, n: u64, s: f64) -> u64 {
    let u: f64 = rng.next_f64().max(1e-12);
    let rank = if (s - 1.0).abs() < 1e-9 {
        // H(x) ≈ ln(x): invert ln(x)/ln(n) = u.
        (n as f64).powf(u)
    } else {
        // H(x) ≈ (x^(1-s) - 1)/(1-s): invert against H(n).
        let one_minus_s = 1.0 - s;
        let hn = ((n as f64).powf(one_minus_s) - 1.0) / one_minus_s;
        (1.0 + u * hn * one_minus_s).powf(1.0 / one_minus_s)
    };
    (rank.floor() as u64).clamp(1, n) - 1
}

/// Per-table row-access frequency statistics: the ranked access counts
/// and their CDF, distilled from an [`AccessTrace`].
///
/// This is the RecShard-style input to statistics-driven placement: the
/// planner reads the CDF to decide which rows deserve main-shard
/// residency (`dlrm_sharding`'s `HotRowAware` strategy), and the
/// hot-set summary serializes so a control plane can ship it alongside
/// the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowStats {
    rows: u64,
    total: u64,
    /// `(row, count)` sorted by count descending, row ascending — the
    /// frequency profile. Rows never accessed are absent.
    ranked: Vec<(u64, u64)>,
}

impl RowStats {
    /// Distills frequency statistics from a trace.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    #[must_use]
    pub fn from_trace(trace: &AccessTrace) -> Self {
        assert!(!trace.is_empty(), "row stats need accesses");
        let mut counts: std::collections::HashMap<u64, u64> = Default::default();
        for &a in trace.accesses() {
            *counts.entry(a).or_insert(0) += 1;
        }
        let mut ranked: Vec<(u64, u64)> = counts.into_iter().collect();
        ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        Self {
            rows: trace.rows,
            total: trace.len() as u64,
            ranked,
        }
    }

    /// Distills statistics from raw `(row, count)` access counts — the
    /// online-profiling entry point, where counts come from observed
    /// serving traffic rather than a synthetic trace. Returns `None`
    /// when the counts are empty or all zero (no statistics to rank).
    #[must_use]
    pub fn from_counts(rows: u64, counts: impl IntoIterator<Item = (u64, u64)>) -> Option<Self> {
        let mut ranked: Vec<(u64, u64)> = counts.into_iter().filter(|&(_, c)| c > 0).collect();
        if ranked.is_empty() {
            return None;
        }
        ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let total = ranked.iter().map(|&(_, c)| c).sum();
        Some(Self {
            rows,
            total,
            ranked,
        })
    }

    /// Samples `n` Zipf(`s`) accesses over a `rows`-row table and
    /// distills them — the offline profiling pass in one call. Uses the
    /// same sampler (and the same rank-to-row scatter) as skewed request
    /// materialization, so the hot set here is the hot set requests
    /// actually touch.
    #[must_use]
    pub fn sample_zipf(rows: u64, n: usize, s: f64, seed: u64) -> Self {
        Self::from_trace(&AccessTrace::zipf(rows, n, s, seed))
    }

    /// One [`RowStats`] per table of `spec` (indexed by table id), each
    /// from `n` sampled Zipf(`s`) accesses with a per-table seed fork.
    #[must_use]
    pub fn for_spec(spec: &ModelSpec, n: usize, s: f64, seed: u64) -> Vec<Self> {
        spec.tables
            .iter()
            .enumerate()
            .map(|(ti, t)| {
                let table_seed = seed ^ (ti as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                Self::sample_zipf(t.rows, n, s, table_seed)
            })
            .collect()
    }

    /// Number of rows in the profiled table.
    #[must_use]
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Total accesses behind these statistics.
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        self.total
    }

    /// The frequency profile: `(row, count)` by count descending (ties
    /// broken by row id ascending).
    #[must_use]
    pub fn ranked(&self) -> &[(u64, u64)] {
        &self.ranked
    }

    /// The access CDF by popularity rank: entry `k` is the fraction of
    /// accesses covered by the `k + 1` hottest rows. Monotone, ends at
    /// 1.0.
    #[must_use]
    pub fn cdf(&self) -> Vec<f64> {
        let mut acc = 0u64;
        self.ranked
            .iter()
            .map(|&(_, c)| {
                acc += c;
                acc as f64 / self.total as f64
            })
            .collect()
    }

    /// Fraction of accesses covered by the `k` hottest rows.
    #[must_use]
    pub fn coverage_of_top(&self, k: usize) -> f64 {
        let covered: u64 = self.ranked.iter().take(k).map(|&(_, c)| c).sum();
        covered as f64 / self.total as f64
    }

    /// The smallest hot-set size whose coverage reaches `target`
    /// (clamped to the number of distinct rows accessed).
    ///
    /// # Panics
    ///
    /// Panics if `target` is outside `(0, 1]`.
    #[must_use]
    pub fn rows_for_coverage(&self, target: f64) -> usize {
        assert!(target > 0.0 && target <= 1.0, "coverage target {target}");
        let goal = (target * self.total as f64).ceil() as u64;
        let mut acc = 0u64;
        for (k, &(_, c)) in self.ranked.iter().enumerate() {
            acc += c;
            if acc >= goal {
                return k + 1;
            }
        }
        self.ranked.len()
    }

    /// The `k` hottest row ids, sorted ascending (deterministic given
    /// the ranking's tie-break).
    #[must_use]
    pub fn hot_rows(&self, k: usize) -> Vec<u64> {
        let mut rows: Vec<u64> = self.ranked.iter().take(k).map(|&(r, _)| r).collect();
        rows.sort_unstable();
        rows
    }

    /// Serializes the table size, access total, and the `k` hottest
    /// rows with their counts into a line-oriented text summary.
    #[must_use]
    pub fn summary_text(&self, k: usize) -> String {
        let mut out = String::from("rowstats v1\n");
        out.push_str(&format!("rows {}\n", self.rows));
        out.push_str(&format!("total {}\n", self.total));
        for &(row, count) in self.ranked.iter().take(k) {
            out.push_str(&format!("hot {row} {count}\n"));
        }
        out
    }

    /// Parses a [`Self::summary_text`] document back into (truncated)
    /// statistics: the hot set is exact, cold rows are absent.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_summary_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        if lines.next() != Some("rowstats v1") {
            return Err("missing rowstats v1 header".to_string());
        }
        let mut rows = None;
        let mut total = None;
        let mut ranked = Vec::new();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("rows") => {
                    rows = Some(
                        parts
                            .next()
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| format!("bad rows record {line:?}"))?,
                    );
                }
                Some("total") => {
                    total = Some(
                        parts
                            .next()
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| format!("bad total record {line:?}"))?,
                    );
                }
                Some("hot") => {
                    let row: u64 = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| format!("bad hot record {line:?}"))?;
                    let count: u64 = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| format!("bad hot record {line:?}"))?;
                    ranked.push((row, count));
                }
                _ => return Err(format!("unknown record {line:?}")),
            }
        }
        let rows = rows.ok_or("missing rows record")?;
        let total = total.ok_or("missing total record")?;
        if ranked.windows(2).any(|w| w[0].1 < w[1].1) {
            return Err("hot records not sorted by count descending".to_string());
        }
        if ranked.iter().any(|&(r, _)| r >= rows) {
            return Err("hot row out of range".to_string());
        }
        Ok(Self {
            rows,
            total,
            ranked,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_trace_is_skewed_and_in_range() {
        let t = AccessTrace::zipf(10_000, 50_000, 1.0, 7);
        assert!(t.accesses().iter().all(|&a| a < 10_000));
        // Hot 1% of rows should cover far more than 1% of accesses.
        let c = t.coverage_of_hottest(0.01);
        assert!(c > 0.3, "coverage {c}");
    }

    #[test]
    fn higher_exponent_means_more_skew() {
        let mild = AccessTrace::zipf(10_000, 30_000, 0.6, 3);
        let steep = AccessTrace::zipf(10_000, 30_000, 1.4, 3);
        assert!(
            steep.coverage_of_hottest(0.01) > mild.coverage_of_hottest(0.01) + 0.1
        );
    }

    #[test]
    fn lru_hit_rate_monotone_in_capacity() {
        let t = AccessTrace::zipf(5_000, 20_000, 1.0, 11);
        let curve = t.lru_curve(&[10, 100, 1000, 5000]);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1, "curve not monotone: {curve:?}");
        }
        // A cache holding every row hits on everything after cold
        // misses.
        let (_, full) = curve[curve.len() - 1];
        let cold = t.unique_rows() as f64 / t.len() as f64;
        assert!((full - (1.0 - cold)).abs() < 1e-9);
    }

    #[test]
    fn lru_exact_on_a_hand_trace() {
        // Accesses: a b a c a b, capacity 2.
        let t = AccessTrace::from_accesses(3, vec![0, 1, 0, 2, 0, 1]);
        // a miss, b miss, a hit, c miss (evict b), a hit, b miss.
        assert!((t.lru_hit_rate(2) - 2.0 / 6.0).abs() < 1e-12);
        // Capacity 3: a b a(c) hit...: misses a,b,c; hits a,a,b.
        assert!((t.lru_hit_rate(3) - 3.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn determinism() {
        assert_eq!(
            AccessTrace::zipf(1000, 5000, 1.1, 42),
            AccessTrace::zipf(1000, 5000, 1.1, 42)
        );
        assert_ne!(
            AccessTrace::zipf(1000, 5000, 1.1, 42),
            AccessTrace::zipf(1000, 5000, 1.1, 43)
        );
    }

    #[test]
    fn skewed_traffic_caches_better_than_uniform() {
        // The Bandana observation: skew makes small caches effective.
        let skewed = AccessTrace::zipf(50_000, 40_000, 1.2, 5);
        let uniform = AccessTrace::zipf(50_000, 40_000, 0.1, 5);
        let cap = 2_500; // 5% of rows
        assert!(
            skewed.lru_hit_rate(cap) > uniform.lru_hit_rate(cap) + 0.2,
            "skewed {} vs uniform {}",
            skewed.lru_hit_rate(cap),
            uniform.lru_hit_rate(cap)
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_accesses_validates() {
        let _ = AccessTrace::from_accesses(2, vec![5]);
    }

    #[test]
    fn row_stats_rank_and_cdf() {
        // 0 ×3, 2 ×2, 1 ×1.
        let t = AccessTrace::from_accesses(4, vec![0, 2, 0, 1, 2, 0]);
        let s = RowStats::from_trace(&t);
        assert_eq!(s.ranked(), &[(0, 3), (2, 2), (1, 1)]);
        assert_eq!(s.total_accesses(), 6);
        let cdf = s.cdf();
        assert!((cdf[0] - 0.5).abs() < 1e-12);
        assert!((cdf[2] - 1.0).abs() < 1e-12);
        assert!((s.coverage_of_top(2) - 5.0 / 6.0).abs() < 1e-12);
        assert_eq!(s.rows_for_coverage(0.5), 1);
        assert_eq!(s.rows_for_coverage(1.0), 3);
        assert_eq!(s.hot_rows(2), vec![0, 2]);
    }

    #[test]
    fn row_stats_tie_break_is_deterministic() {
        let t = AccessTrace::from_accesses(5, vec![3, 1, 4, 1, 3, 4]);
        let s = RowStats::from_trace(&t);
        // All counts equal: rank by row id ascending.
        assert_eq!(s.ranked(), &[(1, 2), (3, 2), (4, 2)]);
    }

    #[test]
    fn row_stats_same_seed_same_stats() {
        let a = RowStats::sample_zipf(10_000, 30_000, 1.1, 99);
        let b = RowStats::sample_zipf(10_000, 30_000, 1.1, 99);
        assert_eq!(a, b);
        assert_eq!(a.cdf(), b.cdf());
        let c = RowStats::sample_zipf(10_000, 30_000, 1.1, 98);
        assert_ne!(a, c);
    }

    #[test]
    fn row_stats_skew_concentrates_the_hot_set() {
        let s = RowStats::sample_zipf(50_000, 60_000, 1.2, 7);
        // A few hundred rows out of 50k cover most of the traffic.
        let k = s.rows_for_coverage(0.8);
        assert!(k < 2_500, "needed {k} rows for 80% coverage");
        assert!(s.coverage_of_top(k) >= 0.8);
    }

    #[test]
    fn hot_set_summary_round_trips() {
        let s = RowStats::sample_zipf(5_000, 20_000, 1.1, 13);
        let k = 100;
        let text = s.summary_text(k);
        let parsed = RowStats::from_summary_text(&text).unwrap();
        assert_eq!(parsed.rows(), s.rows());
        assert_eq!(parsed.total_accesses(), s.total_accesses());
        assert_eq!(parsed.ranked(), &s.ranked()[..k.min(s.ranked().len())]);
        assert_eq!(parsed.hot_rows(k), s.hot_rows(k));
        assert!(RowStats::from_summary_text("nope").is_err());
        assert!(RowStats::from_summary_text("rowstats v1\nrows 2\ntotal 1\nhot 7 1\n").is_err());
    }
}
