//! Microbenchmarks of the reproduction's hot kernels, on the in-tree
//! timing harness (`dlrm_bench::timing`): the SparseLengthsSum family
//! (plain f32, 8-bit quantized) and dense GEMM (plain and
//! FC-transposed), each swept across the dispatch tiers the host
//! supports (scalar / exact AVX2 / exact AVX-512) plus
//! the naive reference, FC at the serving shapes (small batches against
//! the models' MLP layers, prepacked, per exact SIMD tier, beside a
//! stream-copy ceiling and the tier's separate-mul-add peak) and SLS at
//! the serving shape (one whole RM1 request against the same ceiling),
//! the parameter draw beside the first-touch and read ceilings it
//! competes with, then quantization, sharding planning, and one
//! end-to-end simulated replay.
//!
//! Run with `cargo bench -p dlrm-bench --offline`. Pass `--quick` (or
//! set `DLRM_BENCH_QUICK=1`) for a fast smoke run, and an optional
//! substring filter to select benchmarks by name, e.g.
//! `cargo bench -p dlrm-bench -- sls`.
//!
//! Besides the per-bench console lines, the run writes
//! `BENCH_kernels.json` (one record per executed bench: p50 ns plus
//! derived GFLOP/s for GEMMs and bags/s for the SLS family) so scripts
//! can track kernel throughput across commits.

use dlrm_bench::report::{write_bench_json, BenchRecord};
use dlrm_bench::timing::Harness;
use dlrm_core::compress::QuantizedTable;
use dlrm_core::model::{rm, EmbeddingTable};
use dlrm_core::runtime::{KernelDispatch, Pool};
use dlrm_core::cluster::experiment::trace_config_for;
use dlrm_core::cluster::{simulate, Cluster, CostModel, RunConfig};
use dlrm_core::sharding::{plan, ShardingStrategy};
use dlrm_core::sim::SimRng;
use dlrm_core::tensor::simd::{self, exact_peak_probe};
use dlrm_core::tensor::{matmul_packed_into, AlignedSlab, Matrix, PackedWeights};
use dlrm_core::workload::{PoolingProfile, TraceDb};
use std::hint::black_box;

struct Runner {
    harness: Harness,
    filter: Option<String>,
    records: Vec<BenchRecord>,
}

impl Runner {
    fn wants(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    /// Runs one bench (subject to the name filter), records its p50 and
    /// returns it in nanoseconds. `throughput` is `(unit,
    /// work-per-iteration)` in the unit's numerator — e.g. GFLOPs for
    /// `GFLOP/s`, bags for `bags/s` — from which the per-second rate is
    /// derived.
    fn bench<R>(
        &mut self,
        name: &str,
        throughput: Option<(&str, f64)>,
        routine: impl FnMut() -> R,
    ) -> Option<f64> {
        if !self.wants(name) {
            return None;
        }
        let median_ns = self.harness.bench(name, routine).median_ns();
        Some(self.record(name, median_ns, throughput))
    }

    /// Records a p50 measured elsewhere, with `throughput` as
    /// [`Runner::bench`] takes it, and returns the p50.
    fn record(&mut self, name: &str, median_ns: f64, throughput: Option<(&str, f64)>) -> f64 {
        let mut record = BenchRecord::p50(name, median_ns);
        record.throughput = throughput
            .map(|(unit, work)| (unit.to_string(), work / (median_ns * 1e-9).max(1e-15)));
        self.records.push(record);
        median_ns
    }
}

/// The dispatch tiers the kernel matrix covers: a 1-worker pool pinned
/// to each level the host supports. `scalar` is always present; `avx2`
/// and `avx512` appear only on capable hardware, so the emitted JSON is
/// honest about what actually ran.
fn dispatch_tiers() -> Vec<(&'static str, Pool)> {
    let simd = [
        ("avx2", KernelDispatch::forced_avx2()),
        ("avx512", KernelDispatch::forced_avx512()),
    ];
    let mut tiers = vec![("scalar", Pool::with_dispatch(1, KernelDispatch::scalar()))];
    tiers.extend(simd.into_iter().filter_map(|(name, d)| Some((name, Pool::with_dispatch(1, d?)))));
    tiers
}

fn bench_sls(r: &mut Runner) {
    let table = EmbeddingTable::seeded("bench", 100_000, 64, 7);
    let indices: Vec<u64> = (0..4096).map(|i| (i * 37) % 100_000).collect();
    let lengths = vec![64u32; 64];
    let bags = lengths.len() as f64;

    // Plain f32 and 8-bit quantized SLS, each per dispatch tier (the
    // SLS kernels have no AVX-512 path — that tier measures the same
    // kernel the avx2 tier does, so skip it).
    let q8 = QuantizedTable::quantize(&table, 8);
    let mut off16 = AlignedSlab::zeroed(table.as_slice().len() + 4);
    off16[4..].copy_from_slice(table.as_slice());
    for (tier, pool) in dispatch_tiers() {
        if tier == "avx512" {
            continue;
        }
        r.bench(
            &format!("sls_4096_lookups_dim64_{tier}"),
            Some(("bags/s", bags)),
            || black_box(table.sparse_lengths_sum_par(black_box(&indices), &lengths, &pool)),
        );
        // The same gather over the same rows 16 bytes past a line, the
        // offset of a block malloc mmaps: each 64-float row then touches
        // five lines, not four.
        let level = simd::effective_level(pool.dispatch().level());
        r.bench(&format!("sls_4096_lookups_dim64_off16_{tier}"), Some(("bags/s", bags)), || {
            let mut out = Matrix::zeros(lengths.len(), 64);
            simd::sls_bags(level, &off16[4..], 64, black_box(&indices), &lengths, out.as_mut_slice())
                .expect("indices in range");
            black_box(out)
        });
        r.bench(
            &format!("sls_quantized8_4096_lookups_{tier}"),
            Some(("bags/s", bags)),
            || black_box(q8.sparse_lengths_sum_par(black_box(&indices), &lengths, &pool)),
        );
    }

    let pool = Pool::from_env();
    let name = format!("sls_4096_lookups_dim64_par{}", pool.threads());
    r.bench(&name, Some(("bags/s", bags)), || {
        black_box(table.sparse_lengths_sum_par(black_box(&indices), &lengths, &pool))
    });
}

fn bench_gemm(r: &mut Runner) {
    // The acceptance shape for the blocked-vs-naive comparison:
    // 256×512 · 512×512, 2·m·k·n = 0.134 GFLOP per product.
    let (m, k, n) = (256usize, 512usize, 512usize);
    let gflop = 2.0 * (m * k * n) as f64 / 1e9;
    let a = Matrix::from_vec(m, k, (0..m * k).map(|i| (i % 17) as f32 * 0.1).collect());
    let b = Matrix::from_vec(k, n, (0..k * n).map(|i| (i % 13) as f32 * 0.01).collect());
    r.bench("gemm_256x512x512_reference", Some(("GFLOP/s", gflop)), || {
        black_box(a.matmul_reference(black_box(&b)))
    });
    for (tier, pool) in dispatch_tiers() {
        let name = match tier {
            "scalar" => "gemm_256x512x512_blocked".to_string(),
            _ => format!("gemm_256x512x512_{tier}"),
        };
        r.bench(&name, Some(("GFLOP/s", gflop)), || {
            black_box(a.matmul_par(black_box(&b), &pool))
        });
    }
    let pool = Pool::from_env();
    let name = format!("gemm_256x512x512_par{}", pool.threads());
    r.bench(&name, Some(("GFLOP/s", gflop)), || {
        black_box(a.matmul_par(black_box(&b), &pool))
    });

    // The FC layout (B transposed), at the original fc bench shape.
    let (fm, fk, fn_) = (64usize, 512usize, 256usize);
    let fc_gflop = 2.0 * (fm * fk * fn_) as f64 / 1e9;
    let x = Matrix::from_vec(fm, fk, (0..fm * fk).map(|i| (i % 17) as f32 * 0.1).collect());
    let w = Matrix::from_vec(fn_, fk, (0..fn_ * fk).map(|i| (i % 13) as f32 * 0.01).collect());
    r.bench(
        "fc_64x512_to_256_reference",
        Some(("GFLOP/s", fc_gflop)),
        || black_box(x.matmul_transb_reference(black_box(&w))),
    );
    for (tier, pool) in dispatch_tiers() {
        let name = match tier {
            "scalar" => "fc_64x512_to_256".to_string(),
            _ => format!("fc_64x512_to_256_{tier}"),
        };
        r.bench(&name, Some(("GFLOP/s", fc_gflop)), || {
            black_box(x.matmul_transb_par(black_box(&w), &pool))
        });
    }
}

/// A large-copy ceiling in GB/s (bytes read plus written, the
/// definition `sysbench`'s `host.stream_gbps` uses) for the
/// serving-shape rows to report their share of.
fn bench_stream_copy(r: &mut Runner) -> Option<f64> {
    let src = vec![1.0f32; 16 << 20];
    let mut dst = vec![0.0f32; 16 << 20];
    let copy_gb = 2.0 * (src.len() * 4) as f64 / 1e9;
    r.bench("stream_copy_64mib", Some(("GB/s", copy_gb)), || {
        dst.copy_from_slice(black_box(&src));
    })
    .map(|ns| copy_gb / (ns * 1e-9))
}

/// What materializing a model costs per byte: the parameter draw alone
/// into a pre-faulted 64 MiB buffer on the scalar and AVX2 tiers, the
/// first touch of 64 MiB of fresh zeroed pages (one write per 4 KiB
/// page, the buffer's allocation and release untimed), and the read
/// ceiling of one and of two threads summing 256 MiB.
fn bench_setup(r: &mut Runner) {
    const FLOATS: usize = 16 << 20;
    let gb = (FLOATS * 4) as f64 / 1e9;
    let mut buf = vec![1.0f32; FLOATS];
    for (tier, pool) in dispatch_tiers() {
        if tier == "avx512" {
            continue;
        }
        let level = pool.dispatch().level();
        r.bench(&format!("fill_uniform_64mib_{tier}"), Some(("GB/s", gb)), || {
            simd::fill_uniform(level, 7, 0, 1.0, black_box(&mut buf));
        });
    }
    drop(buf);
    if r.wants("first_touch_64mib") {
        let spent = std::cell::Cell::new(None);
        let touch = r.harness.bench_batched(
            "first_touch_64mib",
            || {
                spent.take();
                vec![0u8; FLOATS * 4]
            },
            |mut fresh| {
                fresh.iter_mut().step_by(4096).for_each(|b| *b = 1);
                spent.set(Some(fresh));
            },
        );
        let ns = touch.median_ns();
        r.record("first_touch_64mib", ns, Some(("GB/s", gb)));
    }
    let words = vec![1u64; 32 << 20];
    let read_gb = (words.len() * 8) as f64 / 1e9;
    let sum = |part: &[u64]| part.iter().fold(0u64, |a, &w| a.wrapping_add(w));
    for threads in [1, 2] {
        r.bench(&format!("read_gbps_{threads}_threads"), Some(("GB/s", read_gb)), || {
            std::thread::scope(|s| {
                let parts: Vec<_> =
                    words.chunks(words.len() / threads).map(|p| s.spawn(move || sum(p))).collect();
                let sums = parts.into_iter().map(|p| p.join().expect("a sum never panics"));
                sums.fold(0, u64::wrapping_add)
            })
        });
    }
}

/// SLS as a sparse shard runs it: one whole RM1 @ 512 MiB request —
/// every table, its pooling factor split over the request's bags as the
/// materializer splits it, uniform indices, so nearly every row is a
/// cache miss. Each row also reports ns per gathered row, the gathered
/// GB/s (rows × dim × 4: the row bytes the kernel must read, nothing
/// else counted) and that rate as a share of the copy ceiling.
fn bench_sls_serving(r: &mut Runner, ceiling: Option<f64>) {
    if !r.wants("sls_rm1_request") {
        return;
    }
    let spec = rm::rm1().scaled_to_bytes(512 << 20);
    let tables: Vec<EmbeddingTable> =
        spec.tables.iter().map(|t| EmbeddingTable::from_spec(t, 37)).collect();
    for bags in [4usize, 16] {
        // Eight different requests taken in turn: one request gathers
        // ~30 MB of rows, which a large L3 would otherwise keep.
        let mut rng = SimRng::seed_from(bags as u64);
        let requests: Vec<Vec<(Vec<u64>, Vec<u32>)>> = (0..8)
            .map(|_| {
                let slices = spec.tables.iter().map(|t| {
                    let l = t.pooling_factor.round() as usize;
                    let lengths = (0..bags).map(|b| (l / bags + usize::from(b < l % bags)) as u32);
                    ((0..l).map(|_| rng.next_u64_below(t.rows)).collect(), lengths.collect())
                });
                slices.collect()
            })
            .collect();
        let mut outs: Vec<Matrix> =
            spec.tables.iter().map(|t| Matrix::zeros(bags, t.dim as usize)).collect();
        let rows: usize = requests[0].iter().map(|(indices, _)| indices.len()).sum();
        let bytes: usize =
            requests[0].iter().zip(&outs).map(|((i, _), o)| i.len() * o.cols() * 4).sum();
        for (tier, pool) in dispatch_tiers() {
            if tier == "avx512" {
                continue;
            }
            let name = format!("sls_rm1_request_{bags}bags_{tier}");
            let mut turn = 0usize;
            let Some(ns) = r.bench(&name, Some(("rows/s", rows as f64)), || {
                turn += 1;
                let request = &requests[turn % requests.len()];
                for ((table, (indices, lengths)), out) in tables.iter().zip(request).zip(&mut outs) {
                    table.sparse_lengths_sum_into(black_box(indices), lengths, out, &pool);
                }
            }) else {
                continue;
            };
            let gbps = bytes as f64 / ns;
            r.records
                .push(BenchRecord::scalar(format!("{name}_ns_per_row"), ns / rows as f64, "ns"));
            r.records
                .push(BenchRecord::scalar(format!("{name}_gathered_gbps"), gbps, "GB/s"));
            if let Some(ceiling) = ceiling {
                r.records.push(BenchRecord::scalar(
                    format!("{name}_share_of_stream"),
                    gbps / ceiling,
                    "share",
                ));
            }
        }
    }
}

/// The exact tiers' real ceilings: register-resident separate multiply
/// and add at each tile's vector width (`simd::exact_peak_probe`; the
/// fused-multiply-add peak is twice this). Returns `(row suffix, pool,
/// GFLOP/s)` per exact SIMD tier the host runs; the AVX2 suffix is
/// empty, so its FC rows keep the names they have had since PR 13.
fn bench_exact_peaks(r: &mut Runner) -> Vec<(&'static str, Pool, Option<f64>)> {
    const ITERS: u64 = 1 << 20;
    let tiers = [
        ("", "ymm", KernelDispatch::forced_avx2()),
        ("_avx512", "zmm", KernelDispatch::forced_avx512()),
    ];
    let mut peaks = Vec::new();
    for (tier, width, dispatch) in tiers {
        let Some(dispatch) = dispatch else { continue };
        let gflop = (exact_peak_probe(dispatch.level(), 1) * ITERS) as f64 / 1e9;
        let ns = r.bench(&format!("exact_peak_{width}_gflops"), Some(("GFLOP/s", gflop)), || {
            black_box(exact_peak_probe(dispatch.level(), black_box(ITERS)))
        });
        peaks.push((tier, Pool::with_dispatch(1, dispatch), ns.map(|ns| gflop / (ns * 1e-9))));
    }
    peaks
}

/// `n × k` FC weights of copy `c`: element `e` (row-major, from 1) is
/// `((c + e) % 13) · 0.01`, so copies differ.
fn fc_weights(n: usize, k: usize, c: usize) -> PackedWeights {
    let w = (1..=n * k).map(|e| ((c + e) % 13) as f32 * 0.01);
    PackedWeights::pack(&Matrix::from_vec(n, k, w.collect()))
}

/// FC as the serving path runs it: a 1- to 32-row batch (steady batches
/// are 4–6 rows, saturated ones 6–36) against the widest top-MLP, a mid
/// and a bottom-MLP layer shape, prepacked, on each exact SIMD tier.
/// Four copies of the widest layer (108 MB) take turns. That does not
/// make them cold: the host behind `BENCH_kernels.json` reports a
/// 300 MB L3, shared with whatever else runs on the socket, so these
/// rows land anywhere between warm and cold; [`bench_fc_cold`] measures
/// the cold case by construction. Each row also reports the weight bytes
/// moved per second, that rate as a share of the copy
/// ceiling (what binds a short batch) and its GFLOP/s as a share of the
/// tier's exact peak (what binds a tall one).
fn bench_fc_serving(r: &mut Runner, ceiling: Option<f64>, tiers: &[(&str, Pool, Option<f64>)]) {
    for (k, n, copies) in [(13_400usize, 512usize, 4usize), (2_900, 256, 1), (512, 256, 1)] {
        let packed: Vec<PackedWeights> = (0..copies).map(|c| fc_weights(n, k, c)).collect();
        for m in [1usize, 4, 8, 16, 32] {
            let x = Matrix::from_vec(m, k, (0..m * k).map(|i| (i % 17) as f32 * 0.1).collect());
            let mut out = Matrix::zeros(m, n);
            let gflop = 2.0 * (m * k * n) as f64 / 1e9;
            for (tier, pool, peak) in tiers {
                let name = format!("fc_m{m}_k{k}_n{n}_prepacked{tier}");
                let mut turn = 0usize;
                let Some(ns) = r.bench(&name, Some(("GFLOP/s", gflop)), || {
                    turn += 1;
                    matmul_packed_into(black_box(&x), &packed[turn % copies], &mut out, pool);
                }) else {
                    continue;
                };
                let weight_gbps = (n * k * 4) as f64 / ns;
                let mut derived = vec![("weight_gbps", weight_gbps, "GB/s")];
                derived.extend(ceiling.map(|c| ("share_of_stream", weight_gbps / c, "share")));
                derived.extend(peak.map(|p| ("share_of_exact_peak", gflop / (ns * 1e-9) / p, "share")));
                for (what, value, unit) in derived {
                    r.records.push(BenchRecord::scalar(format!("{name}_{what}"), value, unit));
                }
            }
        }
    }
}

/// The widest top-MLP layer as a serving worker meets it: between
/// requests the worker gathers tens of MB of embedding rows, which evict
/// the layer's 27 MB of weights. So each timed call of the FC alone
/// follows an RM1-shaped uniform gather (134 400 lookups, 1 680 bags of
/// 80, over a 512 MiB table of 64-float rows: 34 MB of rows), on each
/// exact SIMD tier.
fn bench_fc_cold(r: &mut Runner, tiers: &[(&str, Pool, Option<f64>)]) {
    if !r.wants("_k13400_n512_cold") {
        return;
    }
    const BAGS: usize = 1_680;
    let (k, n, dim) = (13_400usize, 512usize, 64usize);
    let rows = (512 << 20) / (dim * 4);
    let table = EmbeddingTable::seeded("cold", rows as u64, dim as u32, 11);
    let lengths = vec![80u32; BAGS];
    let mut pooled = Matrix::zeros(BAGS, dim);
    let mut rng = SimRng::seed_from(13);
    let packed = fc_weights(n, k, 0);
    for m in [1usize, 4, 16] {
        let x = Matrix::from_vec(m, k, (0..m * k).map(|i| (i % 17) as f32 * 0.1).collect());
        let mut out = Matrix::zeros(m, n);
        for (tier, pool, _) in tiers {
            let name = format!("fc_m{m}_k{k}_n{n}_cold{tier}");
            let gather = || {
                let indices: Vec<u64> =
                    (0..BAGS * 80).map(|_| rng.next_u64_below(rows as u64)).collect();
                table.sparse_lengths_sum_into(&indices, &lengths, &mut pooled, pool);
            };
            let median_ns = r
                .harness
                .bench_batched(&name, gather, |()| {
                    matmul_packed_into(black_box(&x), &packed, &mut out, pool);
                })
                .median_ns();
            r.record(&name, median_ns, Some(("GFLOP/s", 2.0 * (m * k * n) as f64 / 1e9)));
        }
    }
}

fn bench_planner(r: &mut Runner) {
    let spec = rm::rm1();
    let profile = PoolingProfile::from_spec(&spec);
    r.bench("plan_rm1_lb8", None, || {
        plan(&spec, &profile, ShardingStrategy::LoadBalanced(8)).unwrap()
    });
    r.bench("plan_rm1_nsbp8", None, || {
        plan(&spec, &profile, ShardingStrategy::NetSpecificBinPacking(8)).unwrap()
    });
}

fn bench_quantize(r: &mut Runner) {
    if !r.wants("quantize_10k_rows_8bit") {
        return;
    }
    let table = EmbeddingTable::seeded("q", 10_000, 64, 3);
    let median_ns = r
        .harness
        .bench_batched(
            "quantize_10k_rows_8bit",
            || table.clone(),
            |t| black_box(QuantizedTable::quantize(&t, 8)),
        )
        .median_ns();
    r.records.push(BenchRecord::p50("quantize_10k_rows_8bit", median_ns));
}

fn bench_simulate(r: &mut Runner) {
    if !r.wants("simulate_rm3_nsbp4_64req") {
        return;
    }
    let spec = rm::rm3();
    let db = TraceDb::generate_with(&spec, 64, 1, &trace_config_for(&spec));
    let profile = db.pooling_profile(64);
    let sharding_plan =
        plan(&spec, &profile, ShardingStrategy::NetSpecificBinPacking(4)).unwrap();
    let cost = CostModel::for_model(&spec);
    let cluster = Cluster::sc_large();
    let mut cfg = RunConfig::serial(64, 9);
    cfg.collect_traces = false;
    r.bench("simulate_rm3_nsbp4_64req", None, || {
        black_box(simulate(&spec, &sharding_plan, &cost, &cluster, &db, &cfg))
    });
}

fn bench_trace_analysis(r: &mut Runner) {
    if !r.wants("trace_median_latency_stack_64req") {
        return;
    }
    // Analyze a realistic collected trace: one nsbp-4 RM3 run.
    let spec = rm::rm3();
    let db = TraceDb::generate_with(&spec, 64, 2, &trace_config_for(&spec));
    let profile = db.pooling_profile(64);
    let p = plan(&spec, &profile, ShardingStrategy::NetSpecificBinPacking(4)).unwrap();
    let cost = CostModel::for_model(&spec);
    let result = simulate(
        &spec,
        &p,
        &cost,
        &Cluster::sc_large(),
        &db,
        &RunConfig::serial(64, 3),
    );
    let ids = result.collector.trace_ids();
    r.bench("trace_median_latency_stack_64req", None, || {
        let analysis = dlrm_core::trace::TraceAnalysis::new(&result.collector);
        black_box(analysis.median_latency_stack(black_box(&ids)))
    });
}

fn bench_event_queue(r: &mut Runner) {
    use dlrm_core::sim::{EventQueue, SimTime};
    r.bench("event_queue_push_pop_10k", None, || {
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.push(SimTime::from_millis(((i * 7919) % 1000) as f64), i);
        }
        let mut acc = 0u64;
        while let Some((_, e)) = q.pop() {
            acc = acc.wrapping_add(e);
        }
        black_box(acc)
    });
}

fn bench_lru(r: &mut Runner) {
    use dlrm_core::workload::AccessTrace;
    let trace = AccessTrace::zipf(100_000, 100_000, 1.1, 3);
    r.bench("lru_hit_rate_100k_accesses", None, || {
        black_box(trace.lru_hit_rate(black_box(5_000)))
    });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick")
        || std::env::var_os("DLRM_BENCH_QUICK").is_some()
        // If cargo ever invokes this target in test mode, do a smoke
        // pass instead of the full measurement.
        || args.iter().any(|a| a == "--test");
    let filter = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned();
    let harness = if quick { Harness::quick() } else { Harness::new() };
    let mut runner = Runner {
        harness,
        filter,
        records: Vec::new(),
    };

    bench_sls(&mut runner);
    bench_gemm(&mut runner);
    let ceiling = bench_stream_copy(&mut runner);
    bench_setup(&mut runner);
    let exact_tiers = bench_exact_peaks(&mut runner);
    bench_fc_serving(&mut runner, ceiling, &exact_tiers);
    bench_fc_cold(&mut runner, &exact_tiers);
    bench_sls_serving(&mut runner, ceiling);
    bench_planner(&mut runner);
    bench_quantize(&mut runner);
    bench_simulate(&mut runner);
    bench_trace_analysis(&mut runner);
    bench_event_queue(&mut runner);
    bench_lru(&mut runner);

    // Emit at the workspace root regardless of the cwd cargo picks for
    // bench executables.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernels.json");
    write_bench_json(&path, &runner.records).expect("write BENCH_kernels.json");
    println!(
        "\nwrote {} bench records to {}",
        runner.records.len(),
        path.display()
    );
}
