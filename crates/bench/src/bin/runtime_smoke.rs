//! Runtime smoke test: the CI gate for the intra-op parallel kernel
//! runtime (DESIGN §3.3, §3.8).
//!
//! Four bounds, checked on a fixed model and a fixed GEMM shape:
//!
//! 1. **Determinism** — predictions from the full model are bit-exact
//!    across explicit 1-worker and 4-worker pools (and against the
//!    plain sequential executor). Always asserted: the contract holds
//!    on any machine. The same runs must do **zero** per-call weight
//!    packs (`KernelStats::gemm_packs`, a count): FC weights are packed
//!    once at model build.
//! 2. **Single-thread GEMM throughput** — the blocked/register-tiled
//!    *scalar* kernel (dispatch pinned to scalar) must beat the naive
//!    reference by ≥3× at 256×512×512. Always asserted: this is an
//!    ILP/locality win, not a core-count or SIMD win.
//! 3. **SIMD GEMM tiers** — the exact AVX2 tier must stay bit-exact
//!    with the reference, and `KernelStats` must show the AVX2 pool's
//!    five timed GEMMs ran on the AVX2 tier and on no other: a tier that
//!    silently runs the scalar body fails the count. Its speed against
//!    the scalar blocked kernel is printed as INFO, not gated: the ratio
//!    has read anywhere from 1.1× to 2.9× on one host with the kernels
//!    unchanged. Auto-skipped on hosts without AVX2 (nothing to check:
//!    the tier cannot run). Where the host has `avx512f`, the exact
//!    AVX-512 tier is checked the same way (bit-exact, its pool's GEMMs
//!    counted on the AVX-512 tier only; 256 rows run as full 28-row
//!    `zmm` tiles), and its speed against exact AVX2 is INFO too:
//!    512-bit execution moves with the host's clock, and the ratio has
//!    read anywhere from 0.8× to 1.3× on one host with the kernel
//!    unchanged.
//! 4. **Parallel speedup** — a large-batch model run on a 4-worker
//!    pool must be ≥1.5× faster than on a 1-worker pool. Only asserted
//!    when the host actually has ≥4 cores (otherwise printed as SKIP —
//!    forking 4 ways on 1 core cannot speed anything up).
//!
//! Exits non-zero on any violated bound — invoked from
//! `scripts/verify.sh` as the runtime gate, once per exact dispatch
//! tier (`DLRM_SIMD=off`, `=avx2`, unset) so the model-level checks run
//! on every code path.

use dlrm_core::model::graph::NoopObserver;
use dlrm_core::model::{build_model, rm, Pool, RuntimeCtx, Workspace};
use dlrm_core::runtime::{KernelDispatch, KernelStats, KernelSummary};
use dlrm_core::tensor::Matrix;
use dlrm_core::workload::{materialize_request, TraceDb};
use std::sync::Arc;
use std::time::Instant;

/// Single-thread blocked-vs-naive GEMM bound (acceptance criterion).
const GEMM_SPEEDUP_BOUND: f64 = 3.0;
/// 4-worker vs 1-worker model-run bound (only on ≥4-core hosts).
const PAR_SPEEDUP_BOUND: f64 = 1.5;
/// GEMM acceptance shape.
const GEMM_SHAPE: (usize, usize, usize) = (256, 512, 512);

fn median_secs(mut runs: Vec<f64>) -> f64 {
    runs.sort_by(f64::total_cmp);
    runs[runs.len() / 2]
}

/// Times `f` a few times and returns the median wall-clock seconds.
fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut runs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        runs.push(t0.elapsed().as_secs_f64());
    }
    median_secs(runs)
}

fn main() {
    let mut failures = 0usize;
    println!(
        "dispatch: {} (DLRM_SIMD={})",
        KernelDispatch::detect().level(),
        std::env::var("DLRM_SIMD").unwrap_or_else(|_| "<unset>".into())
    );

    // --- Fixed model: a scaled RM3 with a large batch, so FC and SLS
    // --- kernels clear their parallel-grain thresholds.
    let mut spec = rm::rm3().scaled_to_bytes(8 << 20);
    spec.mean_items_per_request = 512.0;
    spec.default_batch_size = 256;
    let model = build_model(&spec, 7).expect("build model");
    let db = TraceDb::generate(&spec, 1, 13);
    let batches = materialize_request(&spec, db.get(0), 256, 13);
    let batch = &batches[0];

    let run_on = |pool: Pool| -> Matrix {
        let ctx = RuntimeCtx::new(pool);
        let counts = Arc::new(model.consumer_counts());
        let mut ws = Workspace::with_ctx(ctx);
        ws.set_consumer_counts(counts);
        batch.load_into(&spec, &mut ws);
        model
            .run_overlapped(&mut ws, &mut NoopObserver)
            .expect("model run")
    };

    // --- 1. Determinism across worker counts.
    let kernels_before = KernelStats::global().summary();
    let sequential = {
        let mut ws = Workspace::new();
        batch.load_into(&spec, &mut ws);
        model.run(&mut ws, &mut NoopObserver).expect("sequential run")
    };
    let one = run_on(Pool::new(1));
    let four = run_on(Pool::new(4));
    if one == sequential && four == sequential {
        println!(
            "PASS determinism: predictions bit-exact across sequential / 1-worker / 4-worker \
             ({} rows)",
            sequential.rows()
        );
    } else {
        println!("FAIL determinism: predictions differ across worker counts");
        failures += 1;
    }
    let kernels = KernelStats::global().summary().since(&kernels_before);
    let pack_free = kernels.gemm_packs == 0 && kernels.total() > 0;
    println!(
        "{} pack-free (0 per-call weight packs over run + run_overlapped) — {kernels}",
        if pack_free { "PASS" } else { "FAIL" }
    );
    if !pack_free {
        failures += 1;
    }

    // --- 2. Blocked vs naive GEMM, single thread, dispatch pinned to
    // --- scalar so the bound measures blocking/tiling, not SIMD.
    let (m, k, n) = GEMM_SHAPE;
    let scalar_pool = Pool::with_dispatch(1, KernelDispatch::scalar());
    let a = Matrix::from_vec(m, k, (0..m * k).map(|i| (i % 17) as f32 * 0.1).collect());
    let b = Matrix::from_vec(k, n, (0..k * n).map(|i| (i % 13) as f32 * 0.01).collect());
    if a.matmul_par(&b, &scalar_pool) != a.matmul_reference(&b) {
        println!("FAIL gemm: blocked kernel is not bit-exact with the reference");
        failures += 1;
    }
    let blocked = time_median(5, || a.matmul_par(&b, &scalar_pool));
    let naive = time_median(5, || a.matmul_reference(&b));
    let gemm_speedup = naive / blocked.max(1e-12);
    let gflop = 2.0 * (m * k * n) as f64 / 1e9;
    println!(
        "{} gemm {m}x{k}x{n}: blocked {:.2} GFLOP/s vs naive {:.2} GFLOP/s — {gemm_speedup:.2}x \
         (bound {GEMM_SPEEDUP_BOUND}x)",
        if gemm_speedup >= GEMM_SPEEDUP_BOUND { "PASS" } else { "FAIL" },
        gflop / blocked,
        gflop / naive,
    );
    if gemm_speedup < GEMM_SPEEDUP_BOUND {
        failures += 1;
    }

    // --- 3. SIMD tiers: bit-exact, and every timed GEMM dispatched to
    // --- the pool's tier (each auto-skips without the hardware).
    let reference = a.matmul_reference(&b);
    let mut timed_on = |tier: &str, pool: &Pool, on_tier: fn(&KernelSummary) -> u64| -> f64 {
        if a.matmul_par(&b, pool) != reference {
            println!("FAIL simd gemm: exact {tier} tier is not bit-exact with the reference");
            failures += 1;
        }
        let before = KernelStats::global().summary();
        let secs = time_median(5, || a.matmul_par(&b, pool));
        let ran = KernelStats::global().summary().since(&before);
        let only_tier =
            on_tier(&ran) == 5 && ran.gemm_scalar + ran.gemm_avx2 + ran.gemm_avx512 == 5;
        println!(
            "{} simd gemm {m}x{k}x{n}: the {tier} pool's GEMMs ran on {tier} \
             ({}/{}/{} scalar/avx2/avx512)",
            if only_tier { "PASS" } else { "FAIL" },
            ran.gemm_scalar,
            ran.gemm_avx2,
            ran.gemm_avx512,
        );
        failures += usize::from(!only_tier);
        secs
    };
    if let Some(avx2) = KernelDispatch::forced_avx2() {
        let avx2_pool = Pool::with_dispatch(1, avx2);
        let simd = timed_on("avx2", &avx2_pool, |ran| ran.gemm_avx2);
        println!(
            "INFO simd gemm {m}x{k}x{n}: avx2 {:.2} GFLOP/s vs scalar blocked {:.2} GFLOP/s — \
             {:.2}x (not gated)",
            gflop / simd,
            gflop / blocked,
            blocked / simd.max(1e-12),
        );
        if let Some(avx512) = KernelDispatch::forced_avx512() {
            let ymm = time_median(5, || a.matmul_par(&b, &avx2_pool));
            let zmm_pool = Pool::with_dispatch(1, avx512);
            let zmm = timed_on("avx512", &zmm_pool, |ran| ran.gemm_avx512);
            println!(
                "INFO simd gemm {m}x{k}x{n}: avx512 {:.2} GFLOP/s vs exact avx2 {:.2} GFLOP/s — \
                 {:.2}x (not gated)",
                gflop / zmm,
                gflop / ymm,
                ymm / zmm.max(1e-12),
            );
        } else {
            println!("SKIP avx512 gemm: host lacks avx512f, dispatch gate not applicable");
        }
    } else {
        println!("SKIP simd gemm: host lacks AVX2, dispatch gate not applicable");
    }

    // --- 4. 4-worker vs 1-worker model run (needs real cores).
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cores >= 4 {
        let t1 = time_median(5, || run_on(Pool::new(1)));
        let t4 = time_median(5, || run_on(Pool::new(4)));
        let speedup = t1 / t4.max(1e-12);
        println!(
            "{} parallel: 4 workers {:.1} ms vs 1 worker {:.1} ms — {speedup:.2}x \
             (bound {PAR_SPEEDUP_BOUND}x)",
            if speedup >= PAR_SPEEDUP_BOUND { "PASS" } else { "FAIL" },
            t4 * 1e3,
            t1 * 1e3,
        );
        if speedup < PAR_SPEEDUP_BOUND {
            failures += 1;
        }
    } else {
        println!(
            "SKIP parallel speedup: host has {cores} core(s), need >= 4 for a meaningful \
             wall-clock bound (determinism was still asserted above)"
        );
    }

    if failures > 0 {
        eprintln!("runtime_smoke: {failures} bound(s) violated");
        std::process::exit(1);
    }
    println!("runtime_smoke: all bounds hold");
}
