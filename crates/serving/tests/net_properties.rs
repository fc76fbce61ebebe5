//! Network properties: the chaos guarantees must survive the move from
//! in-process channels to real sockets. The four properties every
//! replicated transport keeps (`chaos/mod.rs`) run here over the same
//! replicated-transport stack as `chaos_properties`, but each (shard,
//! replica) seat lives behind its own TCP listener on an ephemeral
//! loopback port ([`TcpShardPool`]), so every RPC pays real serde and
//! kernel time.
//!
//! On top of them, this file pins the transport-specific contracts:
//!
//! - **Graceful drain** — a draining server finishes every admitted
//!   request before acking; late arrivals are *refused* with a
//!   retryable error, never dropped.
//! - **Control plane** — registration assigns replica seats, the
//!   routing table propagates ephemeral ports, [`connect_cluster`]
//!   builds clients that are bit-exact with the in-process baseline,
//!   and [`shutdown_cluster`] stops the whole fleet.
//! - **Robustness** — a peer speaking garbage is dropped without
//!   disturbing the server or other connections.

mod chaos;

use chaos::{chaos_spec, deterministic_policy, no_ejection, request_inputs, services_for, SEED};
use dlrm_model::graph::NoopObserver;
use dlrm_model::{build_model, NetId, Workspace};
use dlrm_serving::control::{self, ControlPlane};
use dlrm_serving::fault::{FaultPlan, ReplicaFaultSchedule};
use dlrm_serving::replica::HealthPolicy;
use dlrm_serving::shard_server::{TcpShardPool, TcpShardServer};
use dlrm_serving::tcp::TcpShardClient;
use dlrm_serving::wire::Message;
use dlrm_sharding::rpc::{ShardRequest, SparseShardClient};
use dlrm_sharding::{partition, partition_with_clients, ShardService};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Two single-seat loopback servers per shard.
fn tcp(services: Vec<Arc<ShardService>>, faults: &FaultPlan, health: HealthPolicy) -> TcpShardPool {
    TcpShardPool::spawn(services, 2, Duration::ZERO, faults, health).expect("spawn tcp pool")
}

// ---------------------------------------------------------------------
// The chaos properties, transported over TCP loopback
// ---------------------------------------------------------------------

/// A `Crash` here kills a whole server process stand-in — listener and
/// all.
#[test]
fn tcp_non_degraded_completions_are_bit_exact_under_faults() {
    let wire = chaos::non_degraded_completions_are_bit_exact(tcp).wire;
    // Real sockets were crossed, at least one frame per request.
    assert!(!wire.is_zero(), "no wire activity recorded: {wire:?}");
    assert!(wire.frames_sent >= 16);
}

#[test]
fn tcp_same_fault_seed_reproduces_per_request_outcomes() {
    let first = chaos::same_fault_seed_reproduces_outcomes(tcp, false);
    assert!(
        first.iter().any(|&(ok, d, _)| !ok || d > 0),
        "fault plan injected nothing observable: {first:?}"
    );
}

#[test]
fn tcp_frontend_accounting_identities_hold_under_faults() {
    let report = chaos::frontend_identities_hold_under_faults(tcp);
    // Per-shard wire accounting surfaces in the report: over a real
    // socket transport the totals are non-zero and rendered.
    let transport = report.transport.as_ref().expect("transport attached");
    assert!(
        !transport.wire.is_zero(),
        "TCP run recorded no wire activity"
    );
    assert!(transport.wire.bytes_sent > 0 && transport.wire.bytes_received > 0);
    assert!(report.to_string().contains("wire:"), "{report}");
}

/// Every racing attempt is read while another pends: the hedge's
/// socket must be polled even though the slow primary's read never
/// returns a frame.
#[test]
fn tcp_hedge_wins_against_a_slow_primary() {
    chaos::hedge_wins_against_a_slow_primary(tcp);
}

// ---------------------------------------------------------------------
// Graceful drain
// ---------------------------------------------------------------------

#[test]
fn graceful_drain_never_drops_admitted_requests() {
    let spec = chaos_spec();
    let (_p, services) = services_for(&spec, 1);
    // 100ms of injected service time keeps requests in flight while the
    // drain arrives.
    let server = TcpShardServer::spawn(
        vec![(Arc::clone(&services[0]), ReplicaFaultSchedule::none())],
        Duration::from_millis(100),
    )
    .expect("spawn server");
    let client = TcpShardClient::new(
        services[0].shard_id(),
        &server.addr().to_string(),
        Duration::from_secs(1),
    )
    .expect("client");
    let request = ShardRequest {
        net: NetId(0),
        slices: vec![],
    };

    // Three requests in flight, each on its own connection.
    let completions: Vec<_> = (0..3)
        .map(|_| client.begin_execute(&request).expect("begin"))
        .collect();
    // Let the server admit them before the drain lands.
    std::thread::sleep(Duration::from_millis(30));

    // Drain over a control connection: must block until every admitted
    // request finished, then report them all served.
    let drain_started = Instant::now();
    let ack = control::call(
        &server.addr().to_string(),
        &Message::Drain,
        Duration::from_secs(10),
    )
    .expect("drain call");
    let Message::DrainAck { served } = ack else {
        panic!("expected DrainAck, got {ack:?}");
    };
    assert_eq!(served, 3, "drain acked before admitted requests finished");
    assert!(
        drain_started.elapsed() >= Duration::from_millis(30),
        "drain acked while 100ms requests were still running"
    );

    // No admitted request was dropped: every reply arrives intact.
    for (i, completion) in completions.into_iter().enumerate() {
        let result = completion.wait();
        assert!(result.is_ok(), "admitted request {i} dropped: {result:?}");
    }
    assert_eq!(server.served(), 3);

    // Late arrivals are refused — retryably, so a replicated client
    // fails over instead of erroring out.
    let err = client.execute(&request).expect_err("draining server admitted");
    assert_eq!(err.kind(), "transport");
    assert!(err.is_retryable());
    assert!(err.to_string().contains("draining"), "{err}");
    server.shutdown();
}

// ---------------------------------------------------------------------
// Control plane end to end
// ---------------------------------------------------------------------

#[test]
fn control_plane_routes_clients_end_to_end() {
    let spec = chaos_spec();
    let (p, services) = services_for(&spec, 2);
    let spec_text = dlrm_model::publish::spec_to_text(&spec);
    let plan_text = dlrm_sharding::publish::plan_to_text(&p);
    let cp = ControlPlane::spawn(&spec_text, &plan_text, SEED, 2).expect("spawn control plane");
    let control_addr = cp.addr().to_string();

    // Two "processes": each registers its ephemeral address, receives
    // its seats (server k = replica k of every shard), rebuilds the
    // model from the published texts, and installs its services — the
    // exact flow the shard_server binary runs.
    let mut servers = Vec::new();
    for k in 0..2 {
        let server = TcpShardServer::spawn_empty().expect("spawn server");
        let assignment = control::register(
            &control_addr,
            &server.addr().to_string(),
            Duration::from_secs(5),
        )
        .expect("register");
        let expected: Vec<_> = p.shards().map(|s| (s, k)).collect();
        assert_eq!(assignment.seats, expected, "server {k} misassigned");
        let remote_spec =
            dlrm_model::publish::spec_from_text(&assignment.spec_text).expect("spec round trip");
        let remote_plan =
            dlrm_sharding::publish::plan_from_text(&assignment.plan_text).expect("plan round trip");
        let model = build_model(&remote_spec, assignment.seed).expect("rebuild model");
        let seats = assignment
            .seats
            .iter()
            .map(|&(shard, _)| {
                (
                    Arc::new(ShardService::build(&model.tables, &remote_plan, shard)),
                    ReplicaFaultSchedule::none(),
                )
            })
            .collect();
        server.install_seats(seats, Duration::ZERO);
        servers.push(server);
    }

    // A third registrant is seatless: placement is fixed once served.
    let seatless = TcpShardServer::spawn_empty().expect("spawn seatless registrant");
    let extra = control::register(
        &control_addr,
        &seatless.addr().to_string(),
        Duration::from_secs(5),
    )
    .expect("register seatless registrant");
    assert!(extra.seats.is_empty(), "seatless registrant got seats: {:?}", extra.seats);

    // Client bootstrap: the routing table is complete, carries the
    // ephemeral ports, and the metadata reproduces the published spec.
    let cluster = control::connect_cluster(&control_addr, Duration::from_secs(5), no_ejection())
        .expect("connect cluster");
    assert!(cluster.routes().complete);
    assert_eq!(cluster.routes().shard_count(), 2);
    assert_eq!(cluster.meta().replicas, 2);
    assert_eq!(cluster.meta().spec_text, spec_text);
    for (k, server) in servers.iter().enumerate() {
        for shard in p.shards() {
            assert_eq!(
                cluster.routes().addr(shard, k),
                Some(server.addr().to_string().as_str()),
                "route for ({shard}, replica {k})"
            );
        }
    }

    // The TCP cluster is bit-exact with the in-process baseline.
    let inputs = request_inputs(&spec, 6);
    let baseline_dist = partition(build_model(&spec, SEED).expect("build"), &p).expect("partition");
    let mut dist = partition_with_clients(
        build_model(&spec, SEED).expect("build"),
        &p,
        services,
        cluster.clients(),
    )
    .expect("partition");
    assert!(dist.set_rpc_policy(deterministic_policy()) >= 1);
    for (i, inp) in inputs.iter().enumerate() {
        let mut ws = Workspace::new();
        inp.load_into(&spec, &mut ws);
        let expect = baseline_dist
            .run_overlapped(&mut ws, &mut NoopObserver)
            .expect("baseline");
        let mut ws = Workspace::new();
        inp.load_into(&spec, &mut ws);
        let got = dist
            .run_overlapped(&mut ws, &mut NoopObserver)
            .expect("tcp run");
        assert_eq!(got, expect, "request {i} diverged over TCP");
    }
    assert!(!cluster.transport_summary().wire.is_zero());

    // Orchestrated shutdown: drain + stop every registered server, ack,
    // then the control plane itself exits.
    control::shutdown_cluster(&control_addr, Duration::from_secs(10)).expect("shutdown");
    for (k, server) in servers.iter().enumerate() {
        assert!(server.is_stopped(), "server {k} survived cluster shutdown");
    }
    assert!(
        seatless.is_stopped(),
        "seatless registrant survived cluster shutdown"
    );
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cp.is_stopped() {
        assert!(Instant::now() < deadline, "control plane never stopped");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_server_refuses_until_its_seats_are_installed_once() {
    let spec = chaos_spec();
    let (_p, services) = services_for(&spec, 1);
    let shard = services[0].shard_id();
    let server = TcpShardServer::spawn_empty().expect("spawn server");
    let client = TcpShardClient::new(shard, &server.addr().to_string(), Duration::from_secs(1))
        .expect("client");
    let request = ShardRequest {
        net: NetId(0),
        slices: vec![],
    };
    // Seatless until the first install: refused, retryably.
    let err = client.execute(&request).expect_err("a seatless server served");
    assert!(err.is_retryable(), "{err}");
    assert!(err.to_string().contains("not hosted"), "{err}");
    server.install_seats(
        vec![(Arc::clone(&services[0]), ReplicaFaultSchedule::none())],
        Duration::ZERO,
    );
    assert_eq!(server.shards(), vec![shard]);
    assert!(client.execute(&request).is_ok());
    // The seat map is set once: a second install panics and leaves the
    // installed seats serving.
    let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        server.install_seats(vec![], Duration::ZERO);
    }));
    assert!(again.is_err(), "a second install was accepted");
    assert_eq!(server.shards(), vec![shard]);
    assert!(client.execute(&request).is_ok());
    server.shutdown();
}

// ---------------------------------------------------------------------
// Robustness
// ---------------------------------------------------------------------

#[test]
fn garbage_speaking_peer_is_dropped_without_disturbing_the_server() {
    use std::io::{Read as _, Write as _};

    let spec = chaos_spec();
    let (_p, services) = services_for(&spec, 1);
    let server = TcpShardServer::spawn(
        vec![(Arc::clone(&services[0]), ReplicaFaultSchedule::none())],
        Duration::ZERO,
    )
    .expect("spawn server");

    // A peer that speaks HTTP at the shard port gets its connection
    // dropped — no reply, no panic, no server death.
    {
        let mut conn = std::net::TcpStream::connect(server.addr()).expect("connect");
        conn.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("send garbage");
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 16];
        assert!(
            matches!(conn.read(&mut buf), Ok(0) | Err(_)),
            "server answered garbage instead of hanging up"
        );
    }
    assert!(!server.is_stopped(), "garbage killed the server");

    // Real clients on fresh connections are unaffected.
    let client = TcpShardClient::new(
        services[0].shard_id(),
        &server.addr().to_string(),
        Duration::from_secs(1),
    )
    .expect("client");
    let request = ShardRequest {
        net: NetId(0),
        slices: vec![],
    };
    assert!(client.execute(&request).is_ok());
    server.shutdown();
}
