//! The control plane: shard-server registration, (shard, replica) →
//! address assignment, routing tables for clients, and orchestrated
//! drain/shutdown.
//!
//! The paper's deployment has an implicit control plane — something
//! decides which server hosts which shard and tells clients where to
//! send lookups. [`ControlPlane`] makes it explicit and minimal: it
//! loads a published model spec + sharding plan, and over the
//! [`crate::wire`] protocol it
//!
//! 1. answers a shard server's [`Message::Register`] with a
//!    [`Message::Assign`] — registration order decides placement: the
//!    k-th server to register hosts **replica k of every shard**, and
//!    receives the spec/plan text + weight seed to rebuild its tables
//!    deterministically (no weight shipping; shards are stateless,
//!    §III-A1);
//! 2. answers clients' [`Message::GetRoutes`] with the versioned
//!    [`RoutingTable`] (ephemeral ports included — every listener binds
//!    `127.0.0.1:0`) and [`Message::FetchMeta`] with the cluster
//!    metadata they need to build the main-shard model;
//! 3. on [`Message::Shutdown`], walks every registered server with a
//!    graceful `Drain` (finish in-flight, refuse new) followed by
//!    `Shutdown`, then acks and exits — the whole fleet stops without
//!    dropping an admitted request.
//!
//! [`connect_cluster`] is the client-side bootstrap: poll routes until
//! complete, fetch metadata, and build one replicated TCP client per
//! shard on a [`ShardPool`] — the exact failover stack the in-process
//! pools use.

use crate::replica::{HealthPolicy, ReplicaGroupSet, ShardPool};
use crate::tcp::{listen_loopback, TcpShardClient, POLL_TICK};
use crate::wire::{
    self, Assignment, ClusterMeta, Message, ReadError, RouteEntry, RoutingTable,
};
use dlrm_sharding::rpc::SparseShardClient;
use dlrm_sharding::ShardId;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A control-plane or cluster-bootstrap failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlError {
    /// What went wrong.
    pub message: String,
}

impl ControlError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ControlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "control plane: {}", self.message)
    }
}

impl std::error::Error for ControlError {}

/// Mutable control-plane state behind one lock.
struct CpState {
    /// Registered shard-server addresses, in registration order.
    servers: Vec<String>,
    routes: RoutingTable,
}

struct CpShared {
    meta: ClusterMeta,
    state: Mutex<CpState>,
    stop: AtomicBool,
}

/// The control-plane server. See the module docs.
pub struct ControlPlane {
    addr: SocketAddr,
    shared: Arc<CpShared>,
    accept_handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ControlPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlPlane")
            .field("addr", &self.addr)
            .finish()
    }
}

impl ControlPlane {
    /// Binds `127.0.0.1:0` and serves the control protocol for a
    /// cluster of `replicas` servers. `spec_text` is the published v1
    /// spec and `plan_text` the published plan (v1, or v2 with hot
    /// rows); the plan is parsed here to learn the shard count (and to
    /// fail fast on a bad plan).
    ///
    /// # Errors
    ///
    /// [`ControlError`] on an unparsable plan or a bind failure.
    pub fn spawn(
        spec_text: &str,
        plan_text: &str,
        seed: u64,
        replicas: usize,
    ) -> Result<Self, ControlError> {
        let plan = dlrm_sharding::publish::plan_from_text(plan_text)
            .map_err(|e| ControlError::new(format!("bad plan: {e}")))?;
        let meta = ClusterMeta {
            spec_text: spec_text.to_string(),
            plan_text: plan_text.to_string(),
            seed,
            shards: plan.num_shards(),
            replicas: replicas.max(1),
        };
        let shared = Arc::new(CpShared {
            meta,
            state: Mutex::new(CpState {
                servers: Vec::new(),
                routes: RoutingTable::default(),
            }),
            stop: AtomicBool::new(false),
        });
        let (addr, accept_handle) = listen_loopback(
            "control-plane",
            &shared,
            |shared| shared.stop.load(Ordering::SeqCst),
            serve_connection,
        )
        .map_err(|e| ControlError::new(format!("listen: {e}")))?;
        Ok(Self {
            addr,
            shared,
            accept_handle: Some(accept_handle),
        })
    }

    /// The bound (ephemeral) address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current routing table snapshot.
    #[must_use]
    pub fn routes(&self) -> RoutingTable {
        self.shared.state.lock().expect("cp state lock").routes.clone()
    }

    /// Whether a `Shutdown` has been processed.
    #[must_use]
    pub fn is_stopped(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Blocks until the control plane stops (the binary parks here).
    pub fn wait(mut self) {
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }

    /// Stops the control plane without touching the shard servers
    /// (what dropping it does).
    pub fn shutdown(self) {}
}

impl Drop for ControlPlane {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }
}

fn serve_connection(mut conn: TcpStream, shared: &Arc<CpShared>) {
    let _ = conn.set_nodelay(true);
    let _ = conn.set_read_timeout(Some(POLL_TICK));
    let mut scratch = Vec::new();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let message = match wire::read_message(&mut conn, &mut scratch) {
            Ok(frame) => frame.message,
            Err(ReadError::TimedOut) => continue,
            Err(_) => return,
        };
        let reply = match message {
            Message::Register { addr } => Some(register_server(shared, addr)),
            Message::GetRoutes => Some(Message::Routes(
                shared.state.lock().expect("cp state lock").routes.clone(),
            )),
            Message::FetchMeta => Some(Message::Meta(shared.meta.clone())),
            Message::Ping => Some(Message::Pong),
            Message::Shutdown => {
                orchestrate_shutdown(shared);
                let _ = wire::write_message(&mut conn, &Message::ShutdownAck);
                shared.stop.store(true, Ordering::SeqCst);
                return;
            }
            _ => return, // protocol violation
        };
        if let Some(reply) = reply {
            if wire::write_message(&mut conn, &reply).is_err() {
                return;
            }
        }
    }
}

/// Handles one registration: assigns seats, updates the routing table.
fn register_server(shared: &Arc<CpShared>, addr: String) -> Message {
    let mut state = shared.state.lock().expect("cp state lock");
    let k = state.servers.len();
    state.servers.push(addr.clone());
    // The k-th registrant hosts replica k of every shard. A registrant
    // beyond the replica count gets no seats (placement is fixed once
    // served) but is still stopped by the orchestrated shutdown.
    let seats: Vec<(ShardId, usize)> = if k < shared.meta.replicas {
        (0..shared.meta.shards).map(|s| (ShardId(s), k)).collect()
    } else {
        Vec::new()
    };
    for &(shard, replica) in &seats {
        state.routes.entries.push(RouteEntry {
            shard,
            replica,
            addr: addr.clone(),
        });
    }
    state.routes.version += 1;
    let expected = shared.meta.shards * shared.meta.replicas;
    state.routes.complete = state.routes.entries.len() >= expected;
    Message::Assign(Assignment {
        seats,
        spec_text: shared.meta.spec_text.clone(),
        plan_text: shared.meta.plan_text.clone(),
        seed: shared.meta.seed,
    })
}

/// Gracefully stops every registered shard server: drain, then
/// shutdown. Dead servers are skipped (their drain just fails).
fn orchestrate_shutdown(shared: &Arc<CpShared>) {
    let servers = shared
        .state
        .lock()
        .expect("cp state lock")
        .servers
        .clone();
    for addr in servers {
        let _ = call(&addr, &Message::Drain, Duration::from_secs(10));
        // Shut the server down whether or not the drain acked — a
        // crashed server cannot drain, and a drained one must stop.
        let _ = call(&addr, &Message::Shutdown, Duration::from_secs(5));
    }
}

/// One request/reply exchange with `addr` over a fresh connection.
///
/// # Errors
///
/// [`ControlError`] on connect/send/receive failure or timeout.
pub fn call(addr: &str, msg: &Message, timeout: Duration) -> Result<Message, ControlError> {
    let sock: SocketAddr = addr
        .parse()
        .map_err(|_| ControlError::new(format!("bad address {addr:?}")))?;
    let mut conn = TcpStream::connect_timeout(&sock, timeout)
        .map_err(|e| ControlError::new(format!("connect {addr}: {e}")))?;
    conn.set_nodelay(true).ok();
    conn.set_read_timeout(Some(timeout))
        .map_err(|e| ControlError::new(format!("arm timeout: {e}")))?;
    wire::write_message(&mut conn, msg)
        .map_err(|e| ControlError::new(format!("send to {addr}: {e}")))?;
    let mut scratch = Vec::new();
    let deadline = Instant::now() + timeout;
    loop {
        match wire::read_message(&mut conn, &mut scratch) {
            Ok(frame) => return Ok(frame.message),
            Err(ReadError::TimedOut) if Instant::now() < deadline => continue,
            Err(ReadError::TimedOut) => {
                return Err(ControlError::new(format!("{addr} reply timed out")))
            }
            Err(e) => return Err(ControlError::new(format!("recv from {addr}: {e}"))),
        }
    }
}

/// The error for a reply of the wrong kind.
fn unexpected(wanted: &str, got: &Message) -> ControlError {
    ControlError::new(format!("expected {wanted}, got frame kind {}", got.kind()))
}

/// Registers a shard server with the control plane and returns its
/// assignment.
///
/// # Errors
///
/// [`ControlError`] on transport failure or an unexpected reply.
pub fn register(
    control_addr: &str,
    my_addr: &str,
    timeout: Duration,
) -> Result<Assignment, ControlError> {
    let addr = my_addr.to_string();
    match call(control_addr, &Message::Register { addr }, timeout)? {
        Message::Assign(a) => Ok(a),
        other => Err(unexpected("Assign", &other)),
    }
}

/// Asks the control plane to gracefully stop the whole cluster (drain +
/// shutdown every shard server, then itself).
///
/// # Errors
///
/// [`ControlError`] on transport failure or an unexpected reply.
pub fn shutdown_cluster(control_addr: &str, timeout: Duration) -> Result<(), ControlError> {
    match call(control_addr, &Message::Shutdown, timeout)? {
        Message::ShutdownAck => Ok(()),
        other => Err(unexpected("ShutdownAck", &other)),
    }
}

/// The remote [`ShardPool`]: one replicated client per shard of a TCP
/// cluster whose servers are other processes. The backend is only what
/// the control plane said about them — this side owns no seat, so
/// [`ShardPool::shutdown`] stops nothing (stop the fleet with
/// [`shutdown_cluster`]).
pub type TcpCluster = ShardPool<(ClusterMeta, RoutingTable)>;

impl ShardPool<(ClusterMeta, RoutingTable)> {
    /// Spec/plan text, weight seed, and fleet shape from the control
    /// plane.
    #[must_use]
    pub fn meta(&self) -> &ClusterMeta {
        &self.backend.0
    }

    /// The routing table the clients were built from.
    #[must_use]
    pub fn routes(&self) -> &RoutingTable {
        &self.backend.1
    }
}

/// Client bootstrap: polls the control plane until the routing table is
/// complete (every (shard, replica) seat assigned), fetches the cluster
/// metadata, and builds one replicated [`TcpShardClient`] group per
/// shard under `health`.
///
/// # Errors
///
/// [`ControlError`] when the table never completes within `timeout` or
/// any exchange fails.
pub fn connect_cluster(
    control_addr: &str,
    timeout: Duration,
    health: HealthPolicy,
) -> Result<TcpCluster, ControlError> {
    let deadline = Instant::now() + timeout;
    let routes = loop {
        match call(control_addr, &Message::GetRoutes, timeout)? {
            Message::Routes(t) if t.complete => break t,
            Message::Routes(t) => {
                if Instant::now() >= deadline {
                    return Err(ControlError::new(format!(
                        "routing table incomplete after {timeout:?} ({} of expected entries)",
                        t.entries.len()
                    )));
                }
                std::thread::sleep(POLL_TICK);
            }
            other => return Err(unexpected("Routes", &other)),
        }
    };
    let meta = match call(control_addr, &Message::FetchMeta, timeout)? {
        Message::Meta(m) => m,
        other => return Err(unexpected("Meta", &other)),
    };
    let mut set = ReplicaGroupSet::new(health);
    for shard in 0..meta.shards {
        let shard = ShardId(shard);
        let addrs = routes.replicas_of(shard);
        if addrs.is_empty() {
            return Err(ControlError::new(format!("no routes for {shard}")));
        }
        let mut seats = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let client = TcpShardClient::new(shard, addr, Duration::from_secs(1))
                .map_err(|e| ControlError::new(e.to_string()))?;
            let stats = client.stats();
            seats.push((Arc::new(client) as Arc<dyn SparseShardClient>, stats));
        }
        set.add_group(shard, seats);
    }
    Ok(TcpCluster::new(set, (meta, routes)))
}
