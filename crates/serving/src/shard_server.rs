//! The shard server: hosts one or more [`ShardService`]s behind a TCP
//! listener speaking the [`crate::wire`] protocol.
//!
//! This is the missing process boundary of the paper's deployment: "each
//! shard runs a full service handler and ML framework instance"
//! (§III-A2) as its *own server*. [`TcpShardServer`] is that server,
//! embeddable in-process (tests, [`TcpShardPool`]) or hosted by the
//! `shard_server` binary as a real OS process.
//!
//! Protocol per connection: clients send [`Message::Request`] frames and
//! get a correlated `ReplyOk`/`ReplyErr` each; `Ping` gets `Pong`.
//! Control connections may send [`Message::Drain`] — the server stops
//! admitting new requests (refusals are retryable transport errors, so
//! clients fail over), finishes every admitted one, then answers
//! `DrainAck` — and [`Message::Shutdown`], which stops the listener.
//! No admitted request is ever dropped by a graceful drain.
//!
//! Listeners always bind `127.0.0.1:0`: the OS picks an ephemeral port,
//! [`TcpShardServer::addr`] reports it, and the control plane's routing
//! table propagates it — tests never collide on fixed ports.
//!
//! Fault injection mirrors the in-process worker exactly (same
//! [`ReplicaFaultSchedule`] consulted by per-seat request ordinal), with
//! [`FaultAction::Crash`](crate::fault::FaultAction::Crash) escalated
//! to whole-server death — the listener closes, in-flight replies are
//! lost, later connects are refused —
//! because a process, unlike a thread, takes all its seats with it.

use crate::fault::{serve_under_fault, ReplicaFaultSchedule, Served};
use crate::tcp::{listen_loopback, POLL_TICK};
use crate::wire::{self, Message, ReadError};
use dlrm_model::BufferPool;
use dlrm_sharding::rpc::{RpcError, ShardRequest};
use dlrm_sharding::{ShardId, ShardService};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server lifecycle states (stored in an `AtomicU8`).
const RUNNING: u8 = 0;
const DRAINING: u8 = 1;
const STOPPED: u8 = 2;

/// One (shard, replica) seat hosted by a server.
struct Seat {
    service: Arc<ShardService>,
    faults: ReplicaFaultSchedule,
    /// Receive-order ordinal driving the fault schedule.
    ordinal: AtomicU64,
    /// Injected base service delay (stands in for remote compute).
    delay: Duration,
}

/// State shared by the accept loop and every connection thread.
struct ServerShared {
    /// Seats by shard index, installed once: a request reads the map
    /// without a lock.
    seats: OnceLock<HashMap<usize, Seat>>,
    state: AtomicU8,
    /// Admitted-but-unfinished requests; drain completes at zero.
    in_flight: AtomicU64,
    /// Lifetime completed requests (reported in `DrainAck`).
    served: AtomicU64,
}

impl ServerShared {
    fn state(&self) -> u8 {
        self.state.load(Ordering::SeqCst)
    }

    /// Raises the lifecycle state (never lowers it).
    fn raise_state(&self, to: u8) {
        self.state.fetch_max(to, Ordering::SeqCst);
    }
}

/// A TCP server hosting shard seats. See the module docs for protocol
/// and lifecycle.
pub struct TcpShardServer {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept_handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for TcpShardServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpShardServer")
            .field("addr", &self.addr)
            .field("state", &self.shared.state())
            .finish()
    }
}

impl TcpShardServer {
    /// Binds `127.0.0.1:0` and starts serving the given seats. Each
    /// seat is `(service, fault schedule)`; the replica index a seat
    /// represents only matters to the control plane's routing table,
    /// not to the server.
    ///
    /// # Errors
    ///
    /// The bind error, if the loopback listener cannot be created.
    pub fn spawn(
        seats: Vec<(Arc<ShardService>, ReplicaFaultSchedule)>,
        delay: Duration,
    ) -> io::Result<Self> {
        let server = Self::spawn_empty()?;
        server.install_seats(seats, delay);
        Ok(server)
    }

    /// Binds `127.0.0.1:0` and starts serving with no seats yet —
    /// requests are refused (retryably) until [`Self::install_seats`].
    /// The `shard_server` binary uses this to learn its address, then
    /// registers with the control plane and installs the seats it is
    /// assigned.
    ///
    /// # Errors
    ///
    /// The bind error, if the loopback listener cannot be created.
    pub fn spawn_empty() -> io::Result<Self> {
        let shared = Arc::new(ServerShared {
            seats: OnceLock::new(),
            state: AtomicU8::new(RUNNING),
            in_flight: AtomicU64::new(0),
            served: AtomicU64::new(0),
        });
        let (addr, accept_handle) = listen_loopback(
            "shard-server",
            &shared,
            |shared| shared.state() == STOPPED,
            serve_connection,
        )?;
        Ok(Self {
            addr,
            shared,
            accept_handle: Some(accept_handle),
        })
    }

    /// Installs the hosted seats. Placement is fixed once served: a
    /// server installs its seats once, at start-up, and a request sees
    /// no seats or all of them, never a half-built map.
    ///
    /// # Panics
    ///
    /// On a second call: the seat map is set once.
    pub fn install_seats(
        &self,
        seats: Vec<(Arc<ShardService>, ReplicaFaultSchedule)>,
        delay: Duration,
    ) {
        let map = seats
            .into_iter()
            .map(|(service, faults)| {
                let seat = Seat {
                    service,
                    faults,
                    ordinal: AtomicU64::new(0),
                    delay,
                };
                (seat.service.shard_id().0, seat)
            })
            .collect();
        assert!(
            self.shared.seats.set(map).is_ok(),
            "shard server seats are installed once"
        );
    }

    /// The bound (ephemeral) address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shards hosted, ascending.
    #[must_use]
    pub fn shards(&self) -> Vec<ShardId> {
        let mut v: Vec<ShardId> = self
            .shared
            .seats
            .get()
            .into_iter()
            .flat_map(HashMap::keys)
            .map(|&s| ShardId(s))
            .collect();
        v.sort_unstable();
        v
    }

    /// Lifetime completed requests.
    #[must_use]
    pub fn served(&self) -> u64 {
        self.shared.served.load(Ordering::SeqCst)
    }

    /// Whether the server has stopped (crashed or shut down).
    #[must_use]
    pub fn is_stopped(&self) -> bool {
        self.shared.state() == STOPPED
    }

    /// Kills the server abruptly, as a process crash would: the
    /// listener closes, connection threads die at their next tick,
    /// in-flight replies are lost. Test/chaos hook — graceful stop is a
    /// [`Message::Drain`] + [`Message::Shutdown`] over the wire.
    pub fn crash(&self) {
        self.shared.raise_state(STOPPED);
    }

    /// Stops serving and joins the accept loop (what dropping the
    /// server does). Does not drain — send [`Message::Drain`] first for
    /// a graceful stop.
    pub fn shutdown(self) {}

    /// Blocks until the server stops (the `shard_server` binary's main
    /// thread parks here).
    pub fn wait(mut self) {
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TcpShardServer {
    fn drop(&mut self) {
        self.shared.raise_state(STOPPED);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }
}

/// Serves one connection until it closes, errors, or the server stops.
fn serve_connection(mut conn: TcpStream, shared: &Arc<ServerShared>) {
    let _ = conn.set_nodelay(true);
    let _ = conn.set_read_timeout(Some(POLL_TICK));
    // Per-connection frame buffers: requests are read into `scratch`,
    // replies encoded into `frame`, each grown once to its largest.
    let mut scratch = Vec::new();
    let mut frame = Vec::new();
    loop {
        if shared.state() == STOPPED {
            return; // abrupt: in-flight replies on this conn are lost
        }
        let message = match wire::read_message(&mut conn, &mut scratch) {
            Ok(frame) => frame.message,
            Err(ReadError::TimedOut) => continue,
            // Peer closed, transport died, or sent garbage: a stateless
            // server just drops the connection.
            Err(ReadError::Closed | ReadError::Io(_) | ReadError::Malformed(_)) => return,
        };
        match message {
            Message::Request { id, shard, request } => {
                if !serve_request(&mut conn, &mut frame, shared, id, shard, &request) {
                    return;
                }
            }
            Message::Ping => {
                if wire::write_message(&mut conn, &Message::Pong).is_err() {
                    return;
                }
            }
            Message::Drain => {
                shared.raise_state(DRAINING);
                // Admitted requests run on other connection threads;
                // wait for all of them to finish.
                while shared.in_flight.load(Ordering::SeqCst) > 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let served = shared.served.load(Ordering::SeqCst);
                if wire::write_message(&mut conn, &Message::DrainAck { served }).is_err() {
                    return;
                }
            }
            Message::Shutdown => {
                shared.raise_state(STOPPED);
                let _ = wire::write_message(&mut conn, &Message::ShutdownAck);
                return;
            }
            // Anything else is a protocol violation; drop the peer.
            _ => return,
        }
    }
}

/// Writes `msg` through the connection's reply buffer. A reply's pooled
/// outputs go back to the shared pool the shard draws them from.
fn send_reply(conn: &mut TcpStream, frame: &mut Vec<u8>, msg: Message) -> bool {
    use std::io::Write as _;
    wire::encode_message_into(&msg, frame);
    if let Message::ReplyOk { response, .. } = msg {
        for (_, pooled) in response.pooled {
            BufferPool::shared().release(pooled.into_vec());
        }
    }
    conn.write_all(frame).and_then(|()| conn.flush()).is_ok()
}

/// Serves one data-plane request. Returns `false` when the connection
/// must close (crash fault, dropped reply, dead peer).
fn serve_request(
    conn: &mut TcpStream,
    frame: &mut Vec<u8>,
    shared: &Arc<ServerShared>,
    id: u64,
    shard: ShardId,
    request: &ShardRequest,
) -> bool {
    // Admission: increment in_flight *before* checking the drain flag,
    // so the drainer (which raises the flag, then waits for in_flight
    // to hit zero) can never ack while an admitted request is running.
    // A request that loses the race is refused with a retryable error
    // and the client fails over — refused, never dropped.
    shared.in_flight.fetch_add(1, Ordering::SeqCst);
    if shared.state() != RUNNING {
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        let error = RpcError::Transport {
            shard,
            message: "server is draining".to_string(),
        };
        return send_reply(conn, frame, Message::ReplyErr { id, error });
    }
    let (reply, keep_conn) = execute_with_faults(shared, id, shard, request);
    shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    shared.served.fetch_add(1, Ordering::SeqCst);
    match reply {
        Some(msg) => keep_conn && send_reply(conn, frame, msg),
        None => keep_conn,
    }
}

/// Runs the seat lookup, fault schedule, and service execution.
/// Returns the reply to write (`None` = deliberately dropped) and
/// whether the connection stays open.
fn execute_with_faults(
    shared: &Arc<ServerShared>,
    id: u64,
    shard: ShardId,
    request: &ShardRequest,
) -> (Option<Message>, bool) {
    let reply_err = |error: RpcError| (Some(Message::ReplyErr { id, error }), true);
    let Some(seat) = shared.seats.get().and_then(|map| map.get(&shard.0)) else {
        // No seat for this shard (not assigned, or not installed yet):
        // retryable, the client should try another replica.
        return reply_err(RpcError::Transport {
            shard,
            message: format!("{shard} is not hosted on this server"),
        });
    };
    let action = seat.faults.action_at(seat.ordinal.fetch_add(1, Ordering::SeqCst));
    match serve_under_fault(&seat.service, request, seat.delay, action) {
        Served::Crashed => {
            // A process crash takes the whole server: stop the listener
            // and every connection, lose this reply.
            shared.raise_state(STOPPED);
            (None, false)
        }
        // Lose the reply by closing the connection.
        Served::Dropped => (None, false),
        Served::Reply(Ok(response)) => (Some(Message::ReplyOk { id, response }), true),
        Served::Reply(Err(error)) => reply_err(error),
    }
}

// ---------------------------------------------------------------------
// TcpShardPool: the loopback-socket instantiation of ShardPool
// ---------------------------------------------------------------------

use crate::fault::FaultPlan;
use crate::replica::{HealthPolicy, ReplicaGroupSet, ShardPool};
use crate::tcp::TcpShardClient;
use dlrm_sharding::rpc::SparseShardClient;

/// The loopback-socket [`ShardPool`]: in-process [`TcpShardServer`]s —
/// one per (shard, replica), in that order, each on its own ephemeral
/// port — fronted by the same replicated clients as
/// [`crate::replica::ReplicatedShardPool`]. Drop-in for the threaded
/// pool in tests and benches: every RPC genuinely crosses a socket, and
/// the chaos stack (failover, ejection, half-open probing, degraded
/// serving) runs unchanged on top.
pub type TcpShardPool = ShardPool<Vec<TcpShardServer>>;

impl ShardPool<Vec<TcpShardServer>> {
    /// Spawns `replicas_per_shard` servers per service, each hosting a
    /// single seat, with fault schedules drawn from `faults` by
    /// `(service index, replica index)` — mirroring
    /// [`ReplicatedShardPool::spawn`](crate::replica::ReplicatedShardPool::spawn).
    ///
    /// # Errors
    ///
    /// Bind or address errors while standing up the loopback servers.
    pub fn spawn(
        services: Vec<Arc<ShardService>>,
        replicas_per_shard: usize,
        delay: Duration,
        faults: &FaultPlan,
        policy: HealthPolicy,
    ) -> io::Result<Self> {
        let replicas_per_shard = replicas_per_shard.max(1);
        let mut servers = Vec::with_capacity(services.len() * replicas_per_shard);
        let mut set = ReplicaGroupSet::new(policy);
        for (index, service) in services.into_iter().enumerate() {
            let shard = service.shard_id();
            let mut seats = Vec::with_capacity(replicas_per_shard);
            for r in 0..replicas_per_shard {
                let schedule = faults.schedule(index, r).cloned().unwrap_or_default();
                let server =
                    TcpShardServer::spawn(vec![(Arc::clone(&service), schedule)], delay)?;
                let client = TcpShardClient::new(
                    shard,
                    &server.addr().to_string(),
                    Duration::from_secs(1),
                )
                .map_err(|e| io::Error::other(e.to_string()))?;
                let stats = client.stats();
                seats.push((
                    Arc::new(client) as Arc<dyn SparseShardClient>,
                    stats,
                ));
                servers.push(server);
            }
            set.add_group(shard, seats);
        }
        Ok(Self::new(set, servers))
    }
}
