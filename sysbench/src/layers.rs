//! The traced run: per-layer numbers, measured from outside the program
//! by timing calls into public functions. Never feeds an end-to-end
//! metric.

use crate::deploy::{Deployment, ShardPool};
use crate::report::{nproc, Metrics};
use crate::spans::{covered_ms, self_ms, Tracer};
use crate::spec::{self, Workload};
use crate::stats::{median, percentile};
use dlrm_core::compress::QuantizedTable;
use dlrm_core::model::graph::{GroupTimingObserver, NoopObserver};
use dlrm_core::model::{EmbeddingTable, Model, ModelSpec, OpGroup, Pool, RuntimeCtx, Workspace};
use dlrm_core::serving::engine_trace::RpcTracingObserver;
use dlrm_core::serving::tenancy::{build_tiered_epoch, Tier, TieredShardService};
use dlrm_core::serving::wire::{encode_request_frame, try_decode};
use dlrm_core::sharding::rpc::{RpcError, ShardRequest, SparseRpc, SparseShardClient, TableSlice};
use dlrm_core::sharding::{DistributedModel, ShardId, ShardingPlan};
use dlrm_core::sim::SimRng;
use dlrm_core::tensor::{matmul_into, Matrix};
use dlrm_core::trace::{TraceCollector, TraceId};
use dlrm_core::workload::{AccessTrace, BatchInputs, IndexDist, OnlineProfiler};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Each micro-measurement repeats its call for about this long.
const MICRO_BUDGET: Duration = Duration::from_millis(250);
/// Lookups per SLS kernel pass: large enough that the rows touched
/// (tens of MB) do not fit the 4 MiB L2.
const SLS_LOOKUPS: usize = 1 << 18;
/// Requests whose shard RPCs are recorded and replayed layer by layer.
const RECORDED_REQUESTS: usize = 16;

/// Calls `f` repeatedly for [`MICRO_BUDGET`] (at least three times) and
/// returns the median seconds per call.
fn median_secs(mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 3 || start.elapsed() < MICRO_BUDGET {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&mut samples)
}

// ---------------------------------------------------------------------
// host: the ceilings the kernel and transport numbers are read against
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_chains_avx2(iters: u64) -> f32 {
    use std::arch::x86_64::{_mm256_fmadd_ps, _mm256_set1_ps, _mm256_storeu_ps};
    // Ten independent chains cover the FMA latency on two issue ports.
    let mut acc = [_mm256_set1_ps(0.5); 10];
    let a = _mm256_set1_ps(0.999_999);
    let b = _mm256_set1_ps(1e-6);
    for _ in 0..iters {
        for r in &mut acc {
            *r = _mm256_fmadd_ps(*r, a, b);
        }
    }
    let mut lanes = [0.0f32; 8];
    let mut sum = 0.0;
    for r in acc {
        // SAFETY: `lanes` is 8 f32s, exactly one unaligned 256-bit store.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), r) };
        sum += lanes.iter().sum::<f32>();
    }
    sum
}

/// Peak single-core f32 multiply-add rate.
fn fma_gflops() -> f64 {
    const ITERS: u64 = 2_000_000;
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        let secs = median_secs(|| {
            // SAFETY: AVX2 and FMA were detected on this CPU just above.
            black_box(unsafe { fma_chains_avx2(black_box(ITERS)) });
        });
        return (ITERS * 10 * 8 * 2) as f64 / secs / 1e9;
    }
    let secs = median_secs(|| {
        let mut acc = [0.5f32; 32];
        for _ in 0..black_box(ITERS) {
            for r in &mut acc {
                *r = *r * 0.999_999 + 1e-6;
            }
        }
        black_box(acc);
    });
    (ITERS * 32 * 2) as f64 / secs / 1e9
}

/// Large-copy bandwidth, counting the bytes read plus the bytes written.
fn stream_gbps() -> f64 {
    const BYTES: usize = 128 << 20;
    let src = vec![1u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    let secs = median_secs(|| {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    (2 * BYTES) as f64 / secs / 1e9
}

/// Median round trip of one byte over a loopback TCP connection.
fn loopback_rtt_us() -> f64 {
    const PINGS: usize = 2_000;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("listener address");
    let echo = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept ping connection");
        conn.set_nodelay(true).expect("nodelay");
        let mut byte = [0u8; 1];
        while conn.read_exact(&mut byte).is_ok() {
            if conn.write_all(&byte).is_err() {
                break;
            }
        }
    });
    let mut conn = TcpStream::connect(addr).expect("connect loopback");
    conn.set_nodelay(true).expect("nodelay");
    let mut byte = [7u8; 1];
    let mut samples = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t = Instant::now();
        conn.write_all(&byte).expect("ping");
        conn.read_exact(&mut byte).expect("pong");
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(conn);
    echo.join().expect("echo thread panicked");
    median(&mut samples)
}

fn host(m: &mut Metrics) {
    m.set("host.stream_gbps", stream_gbps());
    m.set("host.fma_gflops", fma_gflops());
    m.set("host.loopback_rtt_us", loopback_rtt_us());
}

// ---------------------------------------------------------------------
// tensor, compress, runtime: kernels at the workload's shapes
// ---------------------------------------------------------------------

/// `(k, n)` of the model's largest fully connected layer.
fn largest_fc(spec: &ModelSpec) -> (usize, usize) {
    let mut best = (1, 1);
    let mut prev_out = 0;
    for net in &spec.nets {
        let mut shapes = Vec::new();
        let mut width = spec.dense_features;
        for &out in &net.bottom_mlp {
            shapes.push((width, out));
            width = out;
        }
        // Concat interaction: bottom output, every pooled embedding of
        // the net, and the previous net's output where it is taken.
        width += spec
            .tables_of_net(net.id)
            .map(|t| t.dim as usize)
            .sum::<usize>();
        if net.takes_prev_output {
            width += prev_out;
        }
        for &out in &net.top_mlp {
            shapes.push((width, out));
            width = out;
        }
        prev_out = width;
        for s in shapes {
            if s.0 * s.1 > best.0 * best.1 {
                best = s;
            }
        }
    }
    best
}

/// Index and length vectors for one SLS pass over `table` under the
/// workload's index distribution, bags of the table's pooling factor.
fn sls_pass(spec: &ModelSpec, table: usize, dist: IndexDist, seed: u64) -> (Vec<u64>, Vec<u32>) {
    let t = &spec.tables[table];
    let indices = match dist {
        IndexDist::Uniform => {
            let mut rng = SimRng::seed_from(seed);
            (0..SLS_LOOKUPS)
                .map(|_| rng.next_u64_below(t.rows))
                .collect()
        }
        IndexDist::Zipf(s) => AccessTrace::zipf(t.rows, SLS_LOOKUPS, s, seed)
            .accesses()
            .to_vec(),
    };
    let bag = (t.pooling_factor.round() as usize).clamp(1, 128);
    let mut lengths = vec![bag as u32; SLS_LOOKUPS / bag];
    let rest = SLS_LOOKUPS - lengths.len() * bag;
    if rest > 0 {
        lengths.push(rest as u32);
    }
    (indices, lengths)
}

fn kernels(
    w: &Workload,
    spec: &ModelSpec,
    tables: &[Arc<EmbeddingTable>],
    seed: u64,
    m: &mut Metrics,
) {
    let pool = Pool::from_env();

    let (k, n) = largest_fc(spec);
    let rows = spec::MAX_BATCH_REQUESTS * spec::MEAN_ITEMS_PER_REQUEST as usize;
    let a = Matrix::from_vec(
        rows,
        k,
        (0..rows * k).map(|i| (i % 13) as f32 * 0.01).collect(),
    );
    let b = Matrix::from_vec(k, n, (0..k * n).map(|i| (i % 7) as f32 * 0.01).collect());
    let mut out = Matrix::zeros(rows, n);
    let secs = median_secs(|| matmul_into(black_box(&a), black_box(&b), &mut out, &pool));
    m.set("tensor.gemm_gflops", (2 * rows * k * n) as f64 / secs / 1e9);

    let largest = (0..spec.tables.len())
        .max_by_key(|&t| spec.tables[t].bytes())
        .expect("a model has tables");
    let table = &tables[largest];
    let (indices, lengths) = sls_pass(spec, largest, w.dist, seed);
    let mut pooled = Matrix::zeros(lengths.len(), table.dim());
    let secs = median_secs(|| {
        table.sparse_lengths_sum_into(black_box(&indices), &lengths, &mut pooled, &pool);
    });
    m.set("tensor.sls_rows_per_s", indices.len() as f64 / secs);
    m.set(
        "tensor.sls_gbps",
        (indices.len() * table.dim() * 4) as f64 / secs / 1e9,
    );

    let t = Instant::now();
    let quantized = QuantizedTable::quantize(table, 8);
    let quantize_ms = t.elapsed().as_secs_f64() * 1e3;
    m.set(
        "compress.quantize_ms_per_mib",
        quantize_ms / (table.bytes() as f64 / (1 << 20) as f64),
    );
    let secs = median_secs(|| {
        black_box(quantized.sparse_lengths_sum(black_box(&indices), &lengths));
    });
    m.set("compress.qsls8_rows_per_s", indices.len() as f64 / secs);

    let fork = Pool::new(nproc());
    let mut cells = vec![0u8; nproc()];
    let secs = median_secs(|| fork.par_chunks_mut(&mut cells, 1, |_, _| {}));
    m.set("runtime.pool_fork_us", secs * 1e6);
}

// ---------------------------------------------------------------------
// model, engine: closed loops over the same requests
// ---------------------------------------------------------------------

/// A worker-style workspace: recycled buffers and static consumer
/// counts, as the frontend's workers set theirs up.
fn workspace(ctx: &RuntimeCtx, consumers: &Arc<HashMap<String, usize>>) -> Workspace {
    let mut ws = Workspace::with_ctx(ctx.clone());
    ws.set_consumer_counts(Arc::clone(consumers));
    ws
}

/// `Model::run` closed loop: p50 of load + run per request, and the
/// operator-group split.
fn singular_loop(model: &Model, inputs: &[BatchInputs], m: &mut Metrics) -> f64 {
    let ctx = RuntimeCtx::from_env();
    let consumers = Arc::new(model.consumer_counts());
    let mut groups = GroupTimingObserver::new();
    let mut samples = Vec::with_capacity(inputs.len());
    for inp in inputs {
        let t = Instant::now();
        let mut ws = workspace(&ctx, &consumers);
        inp.load_into(&model.spec, &mut ws);
        let out = model.run(&mut ws, &mut groups).expect("singular run");
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        ctx.buffers.release(black_box(out).into_vec());
        ws.recycle_all();
    }
    let p50 = median(&mut samples);
    m.set("model.singular_ms", p50);
    m.set("model.fc_share", groups.fraction(OpGroup::Fc));
    m.set("model.sls_share", groups.fraction(OpGroup::Sls));
    p50
}

/// Where one request's time went, ms; the six parts after `total` add
/// up to it exactly, except that `rpc_outstanding` is informative (its
/// blocking part is `rpc_exposed`).
#[derive(Default)]
struct EngineSamples {
    total: Vec<f64>,
    load: Vec<f64>,
    dense: Vec<f64>,
    sparse_local: Vec<f64>,
    rpc_outstanding: Vec<f64>,
    rpc_exposed: Vec<f64>,
    sched: Vec<f64>,
}

/// `run_overlapped` closed loop with a root span per request and
/// `load_into` and `run_overlapped` under it. With `observe`, the run
/// carries an `RpcTracingObserver` whose spans are adopted under
/// `run_overlapped` (and appended to `engine_spans`); without, a
/// `NoopObserver`, and everything lands in `sched`. The two variants
/// differ in nothing else, so their difference is the tracing overhead.
fn engine_loop(
    dist: &DistributedModel,
    inputs: &[BatchInputs],
    root_name: &'static str,
    observe: bool,
    tracer: &mut Tracer,
    engine_spans: &mut TraceCollector,
    m: &mut Metrics,
) -> EngineSamples {
    // Leading requests that only fill the buffer pool.
    const WARM: usize = 10;
    let ctx = RuntimeCtx::from_env();
    let consumers = Arc::new(dist.consumer_counts());
    let mut out = EngineSamples::default();
    let mut allocs_after_warm = 0;
    for (i, inp) in inputs.iter().enumerate() {
        if i == WARM {
            allocs_after_warm = ctx.buffers.fresh_allocs();
        }
        let id = i as u64;
        let root = tracer.open(root_name, None, id);
        let mut ws = workspace(&ctx, &consumers);
        let ((), load_ms) = tracer.time("workload.load_into", Some(root), id, || {
            inp.load_into(&dist.spec, &mut ws)
        });
        let run = tracer.open("sharding.run_overlapped", Some(root), id);
        let (prediction, engine) = if observe {
            let mut obs = RpcTracingObserver::new(TraceId(id));
            let p = dist.run_overlapped(&mut ws, &mut obs);
            (p, Some(obs))
        } else {
            (dist.run_overlapped(&mut ws, &mut NoopObserver), None)
        };
        tracer.close(run);
        tracer.close(root);
        ctx.buffers
            .release(black_box(prediction.expect("closed-loop run")).into_vec());
        ws.recycle_all();
        if let Some(obs) = engine {
            let engine = obs.finish();
            tracer.adopt_engine_spans(run, &engine);
            for s in engine.spans() {
                engine_spans.record(s.clone());
            }
        }

        let run_span = &tracer.spans[run];
        let (lo, hi) = (run_span.start_ms, run_span.end_ms);
        let of = |name: &'static str| {
            tracer
                .children(run)
                .filter(move |s| s.name == name)
                .map(|s| (s.start_ms, s.end_ms))
        };
        if i < WARM {
            // Buffers are still being acquired; not a steady sample.
            continue;
        }
        // Synchronous operators run one at a time on this thread; an RPC
        // window is exposed only where none of them covers it.
        let busy = covered_ms(lo, hi, of("engine.dense_op").chain(of("engine.sparse_op")));
        let run_self = self_ms(
            run_span,
            tracer.children(run).map(|s| (s.start_ms, s.end_ms)),
        );
        // Scheduler and bookkeeping: what no child span covers.
        let root_self = self_ms(
            &tracer.spans[root],
            tracer.children(root).map(|s| (s.start_ms, s.end_ms)),
        );
        out.total.push(tracer.spans[root].duration_ms());
        out.load.push(load_ms);
        out.dense.push(covered_ms(lo, hi, of("engine.dense_op")));
        out.sparse_local
            .push(covered_ms(lo, hi, of("engine.sparse_op")));
        out.rpc_outstanding
            .push(covered_ms(lo, hi, of("engine.rpc_outstanding")));
        out.rpc_exposed
            .push(run_span.duration_ms() - run_self - busy);
        out.sched.push(run_self + root_self);
    }
    if !observe {
        m.set(
            "runtime.buffer_fresh_allocs",
            (ctx.buffers.fresh_allocs() - allocs_after_warm) as f64,
        );
    }
    out
}

// ---------------------------------------------------------------------
// sharding, wire, tcp, tiered: recorded shard requests, replayed
// ---------------------------------------------------------------------

struct Recorded {
    request_id: u64,
    shard: ShardId,
    request: ShardRequest,
}

/// The shard requests `inputs` would send, built by each `SparseRpc`
/// operator from the loaded workspace.
fn record_rpcs(dist: &mut DistributedModel, inputs: &[BatchInputs]) -> Vec<Recorded> {
    let mut recorded = Vec::new();
    for (i, inp) in inputs.iter().enumerate() {
        let mut ws = Workspace::new();
        inp.load_into(&dist.spec, &mut ws);
        for net in &mut dist.nets {
            for op in net.ops_mut() {
                let Some(rpc) = op
                    .as_any_mut()
                    .and_then(|any| any.downcast_mut::<SparseRpc>())
                else {
                    continue;
                };
                recorded.push(Recorded {
                    request_id: i as u64,
                    shard: rpc.shard_id(),
                    request: rpc.build_request(&ws).expect("build shard request"),
                });
            }
        }
    }
    recorded
}

/// Median ms of `f` over the recorded requests of one shard, each call
/// a span named `name`.
fn replay_ms(
    tracer: &mut Tracer,
    name: &'static str,
    recorded: &[Recorded],
    shard: ShardId,
    mut f: impl FnMut(&Recorded),
) -> f64 {
    let mut samples: Vec<f64> = recorded
        .iter()
        .filter(|r| r.shard == shard)
        .map(|r| tracer.time(name, None, r.request_id, || f(r)).1)
        .collect();
    median(&mut samples)
}

type Execute<'a> = &'a dyn Fn(&Recorded) -> Result<(), RpcError>;

/// `sharding.*` from the recorded requests; returns the slowest shard
/// and its median execute time in µs.
fn sharding_layer(
    tracer: &mut Tracer,
    recorded: &[Recorded],
    execute: Execute,
    m: &mut Metrics,
) -> (ShardId, f64) {
    let requests = RECORDED_REQUESTS as f64;
    let mut slowest = (ShardId(0), 0.0);
    let mut lookups = [0usize; spec::SHARDS];
    for shard in (0..spec::SHARDS).map(ShardId) {
        let ms = replay_ms(tracer, "sharding.shard_execute", recorded, shard, |r| {
            execute(r).expect("shard execute");
        });
        if ms * 1e3 > slowest.1 {
            slowest = (shard, ms * 1e3);
        }
    }
    for r in recorded {
        lookups[r.shard.0] += r.request.total_lookups();
    }
    let total: usize = lookups.iter().sum();
    let max = *lookups.iter().max().expect("at least one shard") as f64;
    m.set("sharding.shard_execute_us", slowest.1);
    m.set("sharding.rpcs_per_req", recorded.len() as f64 / requests);
    m.set("sharding.rows_per_req", total as f64 / requests);
    m.set(
        "sharding.shard_imbalance",
        max / (total as f64 / spec::SHARDS as f64),
    );
    slowest
}

/// `wire.encode_us`, `wire.decode_us` and `tcp.*` on the slowest
/// shard's recorded requests, through the pool's own client.
fn socket_layers(
    tracer: &mut Tracer,
    recorded: &[Recorded],
    client: &dyn SparseShardClient,
    execute_us: f64,
    m: &mut Metrics,
) {
    let shard = client.shard_id();
    let encode_us = 1e3
        * replay_ms(tracer, "wire.encode_request_frame", recorded, shard, |r| {
            black_box(encode_request_frame(r.request_id, shard, &r.request));
        });
    let mut decode = Vec::new();
    for r in recorded.iter().filter(|r| r.shard == shard) {
        let frame = encode_request_frame(r.request_id, shard, &r.request);
        let (decoded, ms) =
            tracer.time("wire.try_decode", None, r.request_id, || try_decode(&frame));
        assert!(
            matches!(decoded, Ok(Some((_, consumed))) if consumed == frame.len()),
            "an encoded frame must decode whole"
        );
        decode.push(ms * 1e3);
    }
    let decode_us = median(&mut decode);
    m.set("wire.encode_us", encode_us);
    m.set("wire.decode_us", decode_us);

    let rpc_us = 1e3
        * replay_ms(tracer, "tcp.rpc", recorded, shard, |r| {
            let pending = client.begin_execute(&r.request).expect("send rpc");
            black_box(pending.wait().expect("rpc reply"));
        });
    m.set("tcp.rpc_us", rpc_us);
    m.set(
        "tcp.rpc_overhead_us",
        rpc_us - execute_us - encode_us - decode_us,
    );

    // The floor: one row of one table the shard hosts.
    let first = &recorded
        .iter()
        .find(|r| r.shard == shard)
        .expect("a recorded rpc")
        .request;
    let one_row = ShardRequest {
        net: first.net,
        slices: vec![TableSlice {
            table: first.slices[0].table,
            indices: vec![0],
            lengths: vec![1],
        }],
    };
    let mut floor: Vec<f64> = (0..200)
        .map(|i| {
            tracer
                .time("tcp.rpc_floor", None, i, || {
                    black_box(client.execute(&one_row).expect("one-row rpc"));
                })
                .1
                * 1e3
        })
        .collect();
    m.set("tcp.rpc_floor_us", median(&mut floor));
}

/// `tiered.execute_*`: the same recorded requests against a shard whose
/// every table sits at one tier. The all-DRAM services are the ones the
/// closed loops already ran on; the other two tiers are built here.
fn tiered_layer(
    tracer: &mut Tracer,
    spec: &ModelSpec,
    plan: &ShardingPlan,
    dram: &[Arc<TieredShardService>],
    recorded: &[Recorded],
    shard: ShardId,
    m: &mut Metrics,
) {
    let mut execute_us = |services: &[Arc<TieredShardService>]| {
        let ms = replay_ms(tracer, "tiered.execute", recorded, shard, |r| {
            black_box(
                services[r.shard.0]
                    .execute(&r.request)
                    .expect("tiered execute"),
            );
        });
        ms * 1e3
    };
    m.set("tiered.execute_dram_us", execute_us(dram));
    for (tier, name) in [
        (Tier::Quantized, "tiered.execute_q8_us"),
        (Tier::Paged, "tiered.execute_paged_us"),
    ] {
        let tiers = vec![tier; spec.tables.len()];
        let (_epoch, services) = build_tiered_epoch(spec, plan, spec::WEIGHT_SEED, &tiers, 0)
            .expect("build single-tier epoch");
        m.set(name, execute_us(&services));
    }
}

// ---------------------------------------------------------------------

/// Runs every per-layer measurement that does not come from the load
/// phases. Returns the engine's spans of the traced loop.
///
/// # Errors
///
/// When the traced self times do not add up to the traced latency.
pub fn measure(
    w: &Workload,
    deployment: &mut Deployment,
    singular: &Model,
    inputs: &[BatchInputs],
    seed: u64,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Result<TraceCollector, String> {
    let spec = w.spec();
    host(m);
    kernels(w, &spec, &singular.tables, seed, m);

    let profiler = OnlineProfiler::for_spec(&spec);
    let mut observe_us: Vec<f64> = inputs[..RECORDED_REQUESTS]
        .iter()
        .map(|inp| {
            let t = Instant::now();
            profiler.observe(inp);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.set("workload.profiler_observe_us", median(&mut observe_us));

    let singular_ms = singular_loop(singular, inputs, m);

    // The tenants publish no model handle, so their closed loops run on
    // an all-DRAM epoch built the way the tenant set builds its own.
    let mut tenant_epoch = None;
    let dist: &mut DistributedModel = match deployment {
        Deployment::Single(single) => &mut single.dist,
        Deployment::Tenants(t) => {
            let tiers = vec![Tier::Dram; spec.tables.len()];
            let built = build_tiered_epoch(&spec, &t.plan, spec::WEIGHT_SEED, &tiers, 0)
                .expect("build all-DRAM epoch");
            &mut tenant_epoch.insert(built).0.model
        }
    };

    let mut engine_spans = TraceCollector::new();
    let mut closed = engine_loop(
        dist,
        inputs,
        "engine.closed_request",
        false,
        tracer,
        &mut engine_spans,
        m,
    );
    let closed_p50 = percentile(&mut closed.total, 50.0);
    m.set("engine.closed_p50_ms", closed_p50);
    m.set("engine.closed_p90_ms", percentile(&mut closed.total, 90.0));
    m.set(
        "model.dist_overhead_pct",
        100.0 * (closed_p50 - singular_ms) / singular_ms,
    );
    let mut traced = engine_loop(
        dist,
        inputs,
        "engine.traced_request",
        true,
        tracer,
        &mut engine_spans,
        m,
    );
    let traced_p50 = median(&mut traced.total);
    m.set("engine.traced_p50_ms", traced_p50);
    m.set(
        "engine.trace_overhead_pct",
        100.0 * (traced_p50 - closed_p50) / closed_p50,
    );
    // Medians of per-request self times; per request they add up to the
    // root span exactly.
    m.set("engine.load_ms", median(&mut traced.load));
    m.set("engine.dense_ms", median(&mut traced.dense));
    m.set("engine.sparse_local_ms", median(&mut traced.sparse_local));
    m.set(
        "engine.rpc_outstanding_ms",
        median(&mut traced.rpc_outstanding),
    );
    m.set("engine.rpc_exposed_ms", median(&mut traced.rpc_exposed));
    m.set("engine.sched_ms", median(&mut traced.sched));
    let self_sum: f64 = ["load", "dense", "sparse_local", "rpc_exposed", "sched"]
        .iter()
        .map(|part| m.get(&format!("engine.{part}_ms")))
        .sum();
    if (self_sum - traced_p50).abs() > 0.1 * traced_p50 {
        return Err(format!(
            "traced self times sum to {self_sum:.3} ms, over 10% away from engine.traced_p50_ms {traced_p50:.3}"
        ));
    }

    let recorded = record_rpcs(dist, &inputs[..RECORDED_REQUESTS]);
    match deployment {
        Deployment::Single(single) => {
            let shards = &single.dist.shards;
            let execute = |r: &Recorded| shards[r.shard.0].execute(&r.request).map(drop);
            let (slowest, execute_us) = sharding_layer(tracer, &recorded, &execute, m);
            if let ShardPool::Tcp(pool) = &single.pool {
                let client = &pool.clients()[slowest.0];
                socket_layers(tracer, &recorded, client.as_ref(), execute_us, m);
            }
        }
        Deployment::Tenants(t) => {
            let services = &tenant_epoch.as_ref().expect("built above").1;
            let execute = |r: &Recorded| services[r.shard.0].execute(&r.request).map(drop);
            let (slowest, _) = sharding_layer(tracer, &recorded, &execute, m);
            tiered_layer(tracer, &spec, &t.plan, services, &recorded, slowest, m);
        }
    }
    Ok(engine_spans)
}
