//! Network smoke test: the multi-process deployment end to end, gated
//! in `scripts/verify.sh`.
//!
//! This is the one gate where the shard servers are real OS processes:
//! it spawns the `control_plane` binary and two `shard_server` binaries
//! (sibling executables in the same target directory), lets them
//! register and receive their replica seats, bootstraps a client
//! cluster from the control plane's routing table — every listener on
//! an ephemeral loopback port — and drives an open-loop frontend run
//! while **killing one shard-server process mid-run** (SIGKILL, no
//! drain: the unplanned capacity loss of §III-B).
//!
//! Gates, in the spirit of `chaos_smoke` but across process
//! boundaries:
//!
//! - accounting identities close (`offered == admitted + shed`,
//!   `completed + failed == admitted`, one prediction per completion);
//! - availability ≥ 99% and zero degraded responses — the surviving
//!   replica of every shard absorbs the load via retry/failover;
//! - every prediction is bit-exact against a fault-free solo run in
//!   this process: two processes that rebuilt their tables from the
//!   published spec + seed answer identically;
//! - failovers were actually exercised, and wire accounting shows real
//!   frames/bytes crossed the sockets;
//! - orchestrated shutdown stops the surviving fleet.

use dlrm_bench::harness::{check_identities, fail, smoke_spec, solo_predictions};
use dlrm_core::model::{rm, ModelSpec};
use dlrm_core::serving::control::{self, TcpCluster};
use dlrm_core::serving::frontend::{
    materialize_frontend_requests, run_frontend, FrontendConfig,
};
use dlrm_core::serving::replica::HealthPolicy;
use dlrm_core::sharding::{plan, RpcPolicy, ShardingStrategy};
use dlrm_core::workload::{ArrivalSchedule, PoolingProfile, TraceDb};
use std::io::BufRead as _;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SEED: u64 = 23;
const SHARDS: usize = 3;
const REPLICAS: usize = 2;
const REQUESTS: usize = 24;
const QPS: f64 = 40.0;
/// When the replica-0 host is SIGKILLed, relative to frontend start.
const KILL_AFTER: Duration = Duration::from_millis(150);
const AVAILABILITY_FLOOR: f64 = 0.99;

fn spec() -> ModelSpec {
    smoke_spec(rm::rm1(), 1 << 20, 4.0, 8)
}

/// Path to a sibling binary of this executable (same target dir).
fn sibling(name: &str) -> std::path::PathBuf {
    let exe = std::env::current_exe().expect("current_exe");
    let dir = exe.parent().expect("exe dir");
    let path = dir.join(name);
    if !path.exists() {
        fail(&format!(
            "{} not found — build the workspace first (cargo build --workspace --release)",
            path.display()
        ));
    }
    path
}

/// Reads child stdout lines until one contains `needle`; returns it.
fn await_line(child: &mut Child, needle: &str, who: &str) -> String {
    let stdout = child.stdout.take().unwrap_or_else(|| {
        fail(&format!("{who}: stdout not piped"));
    });
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => fail(&format!("{who} exited before printing {needle:?}")),
            Ok(_) => {
                print!("  [{who}] {line}");
                if line.contains(needle) {
                    // Keep draining the rest in the background so the
                    // child never blocks on a full pipe.
                    std::thread::spawn(move || {
                        for l in reader.lines().map_while(Result::ok) {
                            drop(l);
                        }
                    });
                    return line.trim().to_string();
                }
            }
            Err(e) => fail(&format!("{who}: read stdout: {e}")),
        }
    }
}

/// Waits up to `timeout` for `child` to exit; kills it if it does not.
fn reap(mut child: Child, who: &str, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        match child.try_wait() {
            Ok(Some(_)) => return,
            Ok(None) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20))
            }
            Ok(None) => {
                eprintln!("  [{who}] did not exit within {timeout:?}; killing");
                let _ = child.kill();
                let _ = child.wait();
                return;
            }
            Err(e) => fail(&format!("{who}: wait: {e}")),
        }
    }
}

fn main() {
    let spec = spec();
    let profile = PoolingProfile::from_spec(&spec);
    let p = plan(&spec, &profile, ShardingStrategy::CapacityBalanced(SHARDS)).expect("plan");
    let spec_text = dlrm_core::model::publish::spec_to_text(&spec);
    let plan_text = dlrm_core::sharding::publish::plan_to_text(&p);

    // Publish spec + plan where the control-plane process can read them.
    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    let spec_path = tmp.join(format!("dlrm_net_smoke_{pid}_spec.txt"));
    let plan_path = tmp.join(format!("dlrm_net_smoke_{pid}_plan.txt"));
    std::fs::write(&spec_path, &spec_text).expect("write spec");
    std::fs::write(&plan_path, &plan_text).expect("write plan");

    println!("== net smoke: 1 control plane + {REPLICAS} shard-server processes, {SHARDS} shards ==");

    // ---- Control plane process. ----
    let mut cp = Command::new(sibling("control_plane"))
        .args(["--spec"])
        .arg(&spec_path)
        .arg("--plan")
        .arg(&plan_path)
        .args(["--seed", &SEED.to_string()])
        .args(["--replicas", &REPLICAS.to_string()])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn control_plane");
    let line = await_line(&mut cp, "listening on", "control_plane");
    let control_addr = line
        .rsplit(' ')
        .next()
        .unwrap_or_else(|| fail("no address in control_plane banner"))
        .to_string();

    // ---- Shard-server processes: server k hosts replica k. ----
    let mut servers = Vec::new();
    for k in 0..REPLICAS {
        let mut child = Command::new(sibling("shard_server"))
            .args(["--control", &control_addr])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn shard_server");
        await_line(&mut child, "serving seats", &format!("shard_server {k}"));
        servers.push(child);
    }

    // ---- Client bootstrap from the routing table. ----
    // The "pool" is the remote fleet: nothing to spawn, only connect.
    let (mut dist, cluster) = TcpCluster::assemble(&spec, &p, SEED, |_| {
        control::connect_cluster(
            &control_addr,
            Duration::from_secs(10),
            HealthPolicy::default(),
        )
        .map_err(|e| e.to_string())
    })
    .unwrap_or_else(|e| fail(&format!("connect_cluster: {e}")));
    if !cluster.routes().complete || cluster.routes().shard_count() != SHARDS {
        fail(&format!("bad routing table: {:?}", cluster.routes()));
    }
    if dist.set_rpc_policy(RpcPolicy::resilient().with_hedge_from_p99_ms(1.0)) == 0 {
        fail("no SparseRpc operator accepted the policy");
    }

    // ---- Open-loop run; replica-0 host dies mid-run. ----
    let db = TraceDb::generate(&spec, REQUESTS, SEED);
    let requests = materialize_frontend_requests(&spec, &db, SEED ^ 1);
    let n = requests.len();
    let expected = solo_predictions(&spec, &p, SEED, &requests);
    let schedule = ArrivalSchedule::poisson(n, QPS, SEED ^ 2);
    let cfg = FrontendConfig {
        queue_capacity: n, // everything fits: shed must be zero
        max_batch_requests: 4,
        sla: Duration::from_millis(500),
        workers: 2,
        ..FrontendConfig::default()
    };
    let victim = servers.remove(0);
    let killer = std::thread::spawn(move || {
        std::thread::sleep(KILL_AFTER);
        let mut victim = victim;
        let _ = victim.kill(); // SIGKILL: no drain, no goodbye
        let _ = victim.wait();
        println!("  [net_smoke] killed shard_server 0 at +{KILL_AFTER:?}");
    });
    let mut report = run_frontend(&dist, requests, &schedule, &cfg);
    report.transport = Some(cluster.transport_summary());
    killer.join().expect("killer thread");

    println!("\n== frontend report ({n} requests, one replica host killed mid-run) ==");
    print!("{report}");

    // ---- Gates. ----
    check_identities(&report, n, "net smoke");
    let availability = report.availability();
    if availability < AVAILABILITY_FLOOR {
        fail(&format!(
            "availability {availability:.4} after killing one replica host (floor {AVAILABILITY_FLOOR})"
        ));
    }
    if report.degraded != 0 {
        fail(&format!(
            "{} degraded responses with a healthy replica per shard",
            report.degraded
        ));
    }
    let mut mismatches = 0;
    for (id, pred) in &report.predictions {
        let (_, want) = expected.iter().find(|(e, _)| e == id).expect("known id");
        if pred != want {
            mismatches += 1;
        }
    }
    if mismatches != 0 {
        fail(&format!(
            "{mismatches} predictions differ from the fault-free solo run: \
             cross-process table rebuild is not bit-exact"
        ));
    }
    let transport = report.transport.as_ref().expect("transport summary");
    if transport.failovers == 0 {
        fail("no failovers recorded despite a killed replica host");
    }
    if transport.wire.is_zero() || transport.wire.bytes_received == 0 {
        fail(&format!("no wire activity recorded: {:?}", transport.wire));
    }

    // ---- Orchestrated shutdown of the survivors. ----
    control::shutdown_cluster(&control_addr, Duration::from_secs(30))
        .unwrap_or_else(|e| fail(&format!("shutdown_cluster: {e}")));
    for (k, child) in servers.into_iter().enumerate() {
        reap(child, &format!("shard_server {}", k + 1), Duration::from_secs(10));
    }
    reap(cp, "control_plane", Duration::from_secs(10));
    let _ = std::fs::remove_file(&spec_path);
    let _ = std::fs::remove_file(&plan_path);

    println!(
        "\nOK: availability {availability:.4} across a mid-run process kill, \
         {} failovers, bit-exact predictions, wire {}",
        transport.failovers, transport.wire
    );
}
