//! Runtime SIMD kernel dispatch: feature detection, the `DLRM_SIMD`
//! override, and process-wide dispatch counters.
//!
//! The hot kernels (GEMM, SparseLengthsSum, quantized
//! decode-accumulate) exist in up to three tiers, all *exact*: the
//! portable scalar kernels that double as bit-exactness oracles, an
//! AVX2 tier and an AVX-512 tier whose per-output-element float-op
//! sequence is *identical* to the scalar kernels (vectorization across
//! output columns with separate mul/add, never a fused multiply-add —
//! bitwise-equal results at any vector width). AVX-512 widens the GEMM
//! only; every other kernel is bandwidth-bound and keeps its AVX2 body
//! under that level.
//!
//! Which tier runs is decided **once per process** by
//! [`KernelDispatch::detect`]: CPU feature detection gated by the
//! `DLRM_SIMD` environment variable (`off`/`scalar`/`0`, `avx2`; unset
//! or `avx512` = auto: the widest tier the CPU has).
//! The resolved decision rides on every [`Pool`](crate::Pool) — and
//! thereby on [`RuntimeCtx`](crate::RuntimeCtx) — so kernels read it
//! from the pool they already receive. On non-x86_64 targets detection
//! always resolves to [`SimdLevel::Scalar`].
//!
//! Every top-level kernel invocation records which tier it took in the
//! process-wide [`KernelStats`], surfaced as a [`KernelSummary`] (the
//! `TransportSummary` idiom) on serving reports.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// The kernel tier a dispatch decision selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdLevel {
    /// Portable scalar kernels — the bit-exactness oracles.
    Scalar,
    /// AVX2 column-vectorized kernels, bitwise-equal to scalar
    /// (separate mul/add, per-element fold order preserved).
    Avx2,
    /// AVX-512 GEMM register tiles (one `zmm` per 16-lane weight panel,
    /// separate mul/add), bitwise-equal to scalar. Every non-GEMM
    /// kernel takes its exact AVX2 path under this level.
    Avx512,
}

impl SimdLevel {
    /// Whether this level runs vectorized kernels at all.
    #[must_use]
    pub fn is_simd(self) -> bool {
        self != SimdLevel::Scalar
    }

    /// Short name used in logs and bench records.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether the running CPU supports the instructions a level needs.
/// `is_x86_feature_detected!` caches internally, so this is one atomic
/// load after the first call.
#[must_use]
pub fn level_supported(level: SimdLevel) -> bool {
    match level {
        SimdLevel::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
        // The non-GEMM kernels run AVX2 bodies under this level.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("avx512f")
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => false,
    }
}

/// The resolved kernel-dispatch decision threaded through
/// [`Pool`](crate::Pool) and [`RuntimeCtx`](crate::RuntimeCtx).
///
/// Constructors never hand out a level the CPU cannot execute: forcing
/// an unsupported tier yields `None`, and [`Self::detect`] falls back
/// to scalar. Kernels may therefore trust `level()` — and still
/// re-verify cheaply at the unsafe boundary.
///
/// # Examples
///
/// ```
/// use dlrm_runtime::KernelDispatch;
///
/// let d = KernelDispatch::detect();
/// // Whatever was resolved, the scalar oracle is always available.
/// assert!(KernelDispatch::scalar().level().name() == "scalar");
/// let _ = d.level();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelDispatch {
    level: SimdLevel,
}

impl Default for KernelDispatch {
    /// The process-wide detected dispatch (`DLRM_SIMD`-aware).
    fn default() -> Self {
        Self::detect()
    }
}

/// What a `DLRM_SIMD` value asks for. `Auto` is the widest tier
/// the CPU runs — which is also all that `avx512` can ask for, so that
/// value is a spelled-out synonym of unset.
enum Request {
    Auto,
    Scalar,
    Avx2,
}

/// The meaning of a (trimmed) `DLRM_SIMD` value; `None` for a value
/// that is set, non-empty and not recognised.
fn parse_request(requested: Option<&str>) -> Option<Request> {
    Some(match requested {
        None | Some("" | "avx512") => Request::Auto,
        Some("off" | "scalar" | "0") => Request::Scalar,
        Some("avx2") => Request::Avx2,
        Some(_) => return None,
    })
}

/// The tier a `DLRM_SIMD` value resolves to on a CPU with the given
/// features: the requested tier when the CPU runs it, otherwise the
/// next tier down (AVX-512 → AVX2 → scalar). Unset or unrecognised
/// values auto-select the widest tier.
fn resolve(requested: Option<&str>, has_avx2: bool, has_avx512: bool) -> SimdLevel {
    match parse_request(requested).unwrap_or(Request::Auto) {
        Request::Scalar => SimdLevel::Scalar,
        Request::Auto if has_avx2 && has_avx512 => SimdLevel::Avx512,
        _ if has_avx2 => SimdLevel::Avx2,
        _ => SimdLevel::Scalar,
    }
}

impl KernelDispatch {
    /// The process-wide dispatch decision, resolved exactly once:
    /// `DLRM_SIMD=off|scalar|0` forces scalar, `avx2` pins the AVX2
    /// tier, and unset — or `avx512`, its synonym — auto-selects the
    /// widest tier the CPU supports (the AVX-512 GEMM tier where it
    /// exists). A requested tier the CPU lacks falls to the next tier
    /// down; an unrecognised value is reported on stderr once and then
    /// treated as unset.
    #[must_use]
    pub fn detect() -> Self {
        static RESOLVED: OnceLock<SimdLevel> = OnceLock::new();
        let level = *RESOLVED.get_or_init(|| {
            let requested = std::env::var("DLRM_SIMD").ok();
            let requested = requested.as_deref().map(str::trim);
            if parse_request(requested).is_none() {
                eprintln!(
                    "DLRM_SIMD={:?} is not one of off|scalar|0, avx2, avx512; auto-detecting",
                    requested.unwrap_or_default()
                );
            }
            resolve(
                requested,
                level_supported(SimdLevel::Avx2),
                level_supported(SimdLevel::Avx512),
            )
        });
        Self { level }
    }

    /// A dispatch pinned to the scalar oracle kernels.
    #[must_use]
    pub fn scalar() -> Self {
        Self {
            level: SimdLevel::Scalar,
        }
    }

    /// A dispatch pinned to the exact AVX2 tier, or `None` when the CPU
    /// lacks AVX2 (callers — typically tests and benches — skip).
    #[must_use]
    pub fn forced_avx2() -> Option<Self> {
        level_supported(SimdLevel::Avx2).then_some(Self {
            level: SimdLevel::Avx2,
        })
    }

    /// A dispatch pinned to the exact AVX-512 GEMM tier, or `None` when
    /// the CPU lacks `avx512f`.
    #[must_use]
    pub fn forced_avx512() -> Option<Self> {
        level_supported(SimdLevel::Avx512).then_some(Self {
            level: SimdLevel::Avx512,
        })
    }

    /// Every exact tier this CPU runs, scalar first — what a test
    /// iterates to pin "same bits under every dispatch". A tier the CPU
    /// lacks is named on stderr, so a green run on such a host does not
    /// read as proof about a kernel that never ran.
    #[must_use]
    pub fn exact_tiers() -> Vec<Self> {
        let mut tiers = vec![Self::scalar()];
        for (tier, name) in [(Self::forced_avx2(), "AVX2"), (Self::forced_avx512(), "AVX-512")] {
            match tier {
                Some(tier) => tiers.push(tier),
                None => eprintln!("note: this CPU lacks the {name} tier; it is skipped"),
            }
        }
        tiers
    }

    /// The resolved tier.
    #[must_use]
    pub fn level(self) -> SimdLevel {
        self.level
    }
}

/// Process-wide dispatch counters: how many top-level kernel
/// invocations took each tier. Incremented once per kernel *call* (not
/// per row), so the cost is one relaxed atomic add against an entire
/// GEMM or SLS pass.
#[derive(Debug, Default)]
pub struct KernelStats {
    gemm_scalar: AtomicU64,
    gemm_avx2: AtomicU64,
    gemm_avx512: AtomicU64,
    gemm_packs: AtomicU64,
    sls_scalar: AtomicU64,
    sls_avx2: AtomicU64,
    sls_rows: AtomicU64,
    qsls_scalar: AtomicU64,
    qsls_avx2: AtomicU64,
}

/// The single process-wide counter set.
static KERNEL_STATS: KernelStats = KernelStats {
    gemm_scalar: AtomicU64::new(0),
    gemm_avx2: AtomicU64::new(0),
    gemm_avx512: AtomicU64::new(0),
    gemm_packs: AtomicU64::new(0),
    sls_scalar: AtomicU64::new(0),
    sls_avx2: AtomicU64::new(0),
    sls_rows: AtomicU64::new(0),
    qsls_scalar: AtomicU64::new(0),
    qsls_avx2: AtomicU64::new(0),
};

impl KernelStats {
    /// The process-wide counters.
    #[must_use]
    pub fn global() -> &'static KernelStats {
        &KERNEL_STATS
    }

    /// Records one dense GEMM dispatch.
    pub fn record_gemm(&self, level: SimdLevel) {
        match level {
            SimdLevel::Scalar => &self.gemm_scalar,
            SimdLevel::Avx2 => &self.gemm_avx2,
            SimdLevel::Avx512 => &self.gemm_avx512,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one per-call pack of a GEMM's right operand — work the
    /// prepacked FC path never does, so a serving run should leave this
    /// at zero.
    pub fn record_gemm_pack(&self) {
        self.gemm_packs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one f32 SparseLengthsSum dispatch gathering `rows` rows
    /// (the hot-row cache counts here too — same gather kernel).
    pub fn record_sls(&self, level: SimdLevel, rows: usize) {
        if level.is_simd() {
            &self.sls_avx2
        } else {
            &self.sls_scalar
        }
        .fetch_add(1, Ordering::Relaxed);
        self.sls_rows.fetch_add(rows as u64, Ordering::Relaxed);
    }

    /// Records one quantized decode-accumulate SLS dispatch. The
    /// quantized path runs its AVX2 body under the AVX-512 level too, so
    /// it only distinguishes scalar from AVX2.
    pub fn record_qsls(&self, level: SimdLevel) {
        if level.is_simd() {
            &self.qsls_avx2
        } else {
            &self.qsls_scalar
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time snapshot of the counters.
    #[must_use]
    pub fn summary(&self) -> KernelSummary {
        KernelSummary {
            level: KernelDispatch::detect().level(),
            gemm_scalar: self.gemm_scalar.load(Ordering::Relaxed),
            gemm_avx2: self.gemm_avx2.load(Ordering::Relaxed),
            gemm_avx512: self.gemm_avx512.load(Ordering::Relaxed),
            gemm_packs: self.gemm_packs.load(Ordering::Relaxed),
            sls_scalar: self.sls_scalar.load(Ordering::Relaxed),
            sls_avx2: self.sls_avx2.load(Ordering::Relaxed),
            sls_rows: self.sls_rows.load(Ordering::Relaxed),
            qsls_scalar: self.qsls_scalar.load(Ordering::Relaxed),
            qsls_avx2: self.qsls_avx2.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of the process-wide kernel-dispatch counters — the
/// `TransportSummary`-style record serving reports attach so operators
/// can see which tier actually served their traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelSummary {
    /// The process's detected dispatch level at snapshot time.
    pub level: SimdLevel,
    /// Dense GEMMs that ran the scalar kernels.
    pub gemm_scalar: u64,
    /// Dense GEMMs that ran the exact AVX2 kernels.
    pub gemm_avx2: u64,
    /// Dense GEMMs that ran the exact AVX-512 kernels.
    pub gemm_avx512: u64,
    /// Right-operand packs done per GEMM call (not counted in
    /// [`Self::total`]: a pack is overhead, not a kernel dispatch).
    pub gemm_packs: u64,
    /// f32 SLS passes on the scalar kernel.
    pub sls_scalar: u64,
    /// f32 SLS passes on the AVX2 gather kernel.
    pub sls_avx2: u64,
    /// Rows those f32 SLS passes gathered (not counted in
    /// [`Self::total`]: work done, not a kernel dispatch) — a window's
    /// rows over its wall time is the live gather rate.
    pub sls_rows: u64,
    /// Quantized decode-accumulate SLS passes on the scalar kernel.
    pub qsls_scalar: u64,
    /// Quantized decode-accumulate SLS passes on the AVX2 kernel.
    pub qsls_avx2: u64,
}

impl KernelSummary {
    /// Counter-wise difference against an earlier snapshot (saturating,
    /// so windowed reports never underflow); the level is taken from
    /// `self`.
    #[must_use]
    pub fn since(&self, earlier: &KernelSummary) -> KernelSummary {
        KernelSummary {
            level: self.level,
            gemm_scalar: self.gemm_scalar.saturating_sub(earlier.gemm_scalar),
            gemm_avx2: self.gemm_avx2.saturating_sub(earlier.gemm_avx2),
            gemm_avx512: self.gemm_avx512.saturating_sub(earlier.gemm_avx512),
            gemm_packs: self.gemm_packs.saturating_sub(earlier.gemm_packs),
            sls_scalar: self.sls_scalar.saturating_sub(earlier.sls_scalar),
            sls_avx2: self.sls_avx2.saturating_sub(earlier.sls_avx2),
            sls_rows: self.sls_rows.saturating_sub(earlier.sls_rows),
            qsls_scalar: self.qsls_scalar.saturating_sub(earlier.qsls_scalar),
            qsls_avx2: self.qsls_avx2.saturating_sub(earlier.qsls_avx2),
        }
    }

    /// Total kernel invocations counted in this snapshot.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.gemm_scalar
            + self.gemm_avx2
            + self.gemm_avx512
            + self.sls_scalar
            + self.sls_avx2
            + self.qsls_scalar
            + self.qsls_avx2
    }

    /// Fraction of counted invocations that took a vectorized path
    /// (0.0 when nothing was counted).
    #[must_use]
    pub fn simd_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let simd = self.gemm_avx2 + self.gemm_avx512 + self.sls_avx2 + self.qsls_avx2;
        simd as f64 / total as f64
    }
}

impl std::fmt::Display for KernelSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dispatch {}: gemm {}/{}/{} (scalar/avx2/avx512) with {} per-call packs, \
             sls {}/{} (scalar/avx2) over {} rows, qsls {}/{} (scalar/avx2), \
             {:.3} simd fraction",
            self.level,
            self.gemm_scalar,
            self.gemm_avx2,
            self.gemm_avx512,
            self.gemm_packs,
            self.sls_scalar,
            self.sls_avx2,
            self.sls_rows,
            self.qsls_scalar,
            self.qsls_avx2,
            self.simd_fraction()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_dispatch_is_always_available() {
        assert_eq!(KernelDispatch::scalar().level(), SimdLevel::Scalar);
        assert!(level_supported(SimdLevel::Scalar));
    }

    #[test]
    fn detect_is_stable_across_calls() {
        assert_eq!(KernelDispatch::detect(), KernelDispatch::detect());
    }

    #[test]
    fn forced_tiers_match_cpu_support() {
        match KernelDispatch::forced_avx2() {
            Some(d) => {
                assert_eq!(d.level(), SimdLevel::Avx2);
                assert!(level_supported(SimdLevel::Avx2));
            }
            None => assert!(!level_supported(SimdLevel::Avx2)),
        }
        match KernelDispatch::forced_avx512() {
            Some(d) => assert_eq!(d.level(), SimdLevel::Avx512),
            None => assert!(!level_supported(SimdLevel::Avx512)),
        }
        let exact = KernelDispatch::exact_tiers();
        assert_eq!(exact[0], KernelDispatch::scalar());
    }

    #[test]
    fn dlrm_simd_values_resolve_to_the_documented_tiers() {
        use SimdLevel::{Avx2, Avx512, Scalar};
        // (value, [no SIMD, AVX2 only, AVX2+AVX-512])
        let table: [(Option<&str>, [SimdLevel; 3]); 8] = [
            (None, [Scalar, Avx2, Avx512]),
            (Some("off"), [Scalar; 3]),
            (Some("scalar"), [Scalar; 3]),
            (Some("0"), [Scalar; 3]),
            (Some("avx2"), [Scalar, Avx2, Avx2]),
            // Typos — and the retired `fma` — auto-detect (after one
            // stderr line from `detect`).
            (Some("avx-512"), [Scalar, Avx2, Avx512]),
            (Some("fma"), [Scalar, Avx2, Avx512]),
            // Set but empty is how a shell spells unset.
            (Some(""), [Scalar, Avx2, Avx512]),
        ];
        let hosts = [(false, false), (true, false), (true, true)];
        for (value, want) in table {
            for ((avx2, avx512), want) in hosts.into_iter().zip(want) {
                assert_eq!(
                    resolve(value, avx2, avx512),
                    want,
                    "{value:?} on {avx2}/{avx512}"
                );
            }
        }
        assert!(parse_request(Some("fma")).is_none());
        assert!(parse_request(Some("avx-512")).is_none());
        // The documented synonym of unset: the `None` row above is its row.
        assert!(matches!(parse_request(Some("avx512")), Some(Request::Auto)));
        assert!(parse_request(None).is_some() && parse_request(Some("")).is_some());
    }

    #[test]
    fn counters_accumulate_and_diff() {
        let before = KernelStats::global().summary();
        KernelStats::global().record_gemm(SimdLevel::Scalar);
        KernelStats::global().record_gemm(SimdLevel::Avx2);
        KernelStats::global().record_gemm(SimdLevel::Avx512);
        KernelStats::global().record_gemm_pack();
        KernelStats::global().record_sls(SimdLevel::Avx2, 40);
        KernelStats::global().record_qsls(SimdLevel::Scalar);
        let delta = KernelStats::global().summary().since(&before);
        assert!(delta.gemm_packs >= 1);
        assert!(delta.sls_rows >= 40);
        assert!(delta.gemm_scalar >= 1);
        assert!(delta.gemm_avx2 >= 1);
        assert!(delta.gemm_avx512 >= 1);
        assert!(delta.sls_avx2 >= 1);
        assert!(delta.qsls_scalar >= 1);
        assert!(delta.total() >= 5);
        let only_zmm = KernelSummary {
            gemm_avx512: 3,
            ..delta.since(&delta)
        };
        assert_eq!(only_zmm.total(), 3);
        assert!((only_zmm.simd_fraction() - 1.0).abs() < f64::EPSILON);
        let line = delta.to_string();
        assert!(line.contains("gemm") && line.contains("rows"), "{line}");
    }

    #[test]
    fn gemm_only_level_counts_avx2_paths_for_non_gemm() {
        let before = KernelStats::global().summary();
        KernelStats::global().record_sls(SimdLevel::Avx512, 0);
        KernelStats::global().record_qsls(SimdLevel::Avx512);
        let delta = KernelStats::global().summary().since(&before);
        assert!(delta.sls_avx2 >= 1);
        assert!(delta.qsls_avx2 >= 1);
    }
}
