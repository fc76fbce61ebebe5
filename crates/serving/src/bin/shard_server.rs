//! The shard-server binary: one OS process hosting sparse-shard
//! services behind a TCP listener.
//!
//! Usage:
//!
//! ```text
//! shard_server --control HOST:PORT [--delay-us N]
//! ```
//!
//! Flow: bind `127.0.0.1:0` (ephemeral port), register the bound
//! address with the control plane, receive an assignment (seats +
//! published spec/plan + weight seed), rebuild the model tables
//! deterministically from the seed, stand up one `ShardService` per
//! assigned seat, and serve until a control-frame shutdown (or SIGKILL,
//! which is what the chaos gate does to a replica). Placement is fixed
//! once served: a server registering beyond the cluster's replica count
//! gets no seats, says so, and exits non-zero.

use dlrm_serving::control;
use dlrm_serving::fault::ReplicaFaultSchedule;
use dlrm_serving::shard_server::TcpShardServer;
use dlrm_sharding::ShardService;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!("usage: shard_server --control HOST:PORT [--delay-us N]");
    std::process::exit(2)
}

fn main() {
    let mut control_addr: Option<String> = None;
    let mut delay = Duration::ZERO;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--control" => control_addr = args.next(),
            "--delay-us" => {
                let us: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                delay = Duration::from_micros(us);
            }
            _ => usage(),
        }
    }
    let Some(control_addr) = control_addr else {
        usage()
    };

    let server = TcpShardServer::spawn_empty().unwrap_or_else(|e| {
        eprintln!("shard_server: bind failed: {e}");
        std::process::exit(1)
    });
    let my_addr = server.addr().to_string();
    println!("shard_server listening on {my_addr}");

    let assignment = control::register(&control_addr, &my_addr, Duration::from_secs(10))
        .unwrap_or_else(|e| {
            eprintln!("shard_server: registration with {control_addr} failed: {e}");
            std::process::exit(1)
        });

    if assignment.seats.is_empty() {
        eprintln!("shard_server: {control_addr} assigned no seats (every replica seat is taken)");
        std::process::exit(1)
    }

    let spec = dlrm_model::publish::spec_from_text(&assignment.spec_text).unwrap_or_else(|e| {
        eprintln!("shard_server: bad spec from control plane: {e}");
        std::process::exit(1)
    });
    let plan = dlrm_sharding::publish::plan_from_text(&assignment.plan_text).unwrap_or_else(|e| {
        eprintln!("shard_server: bad plan from control plane: {e}");
        std::process::exit(1)
    });
    let model = dlrm_model::build_model(&spec, assignment.seed).unwrap_or_else(|e| {
        eprintln!("shard_server: model build failed: {e}");
        std::process::exit(1)
    });

    let seats: Vec<(Arc<ShardService>, ReplicaFaultSchedule)> = assignment
        .seats
        .iter()
        .map(|&(shard, _replica)| {
            (
                Arc::new(ShardService::build(&model.tables, &plan, shard)),
                ReplicaFaultSchedule::none(),
            )
        })
        .collect();
    let seat_names: Vec<String> = assignment
        .seats
        .iter()
        .map(|(s, r)| format!("{s}r{r}"))
        .collect();
    server.install_seats(seats, delay);
    println!("shard_server serving seats [{}]", seat_names.join(", "));

    // Park until a control-frame shutdown stops the accept loop.
    server.wait();
    println!("shard_server stopped");
}
