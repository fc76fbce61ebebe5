//! TCP shard transport: [`TcpShardClient`] speaks the
//! [`crate::wire`] frame format to a shard server over `std::net`.
//!
//! This is the process-boundary twin of
//! [`ThreadedClient`](crate::threaded::ThreadedClient): the same
//! [`SparseShardClient`] contract (send now, collect at
//! [`RpcCompletion::wait`]), but the request crosses a real socket —
//! serde and kernel time are paid, not simulated, and recorded in the
//! client's [`WireTotals`](crate::threaded::WireTotals). The call ledger
//! (in flight, calls, rows) is the replica seat's, as for every
//! transport; this client records only what is specific to the wire:
//! frames, bytes and serde time.
//!
//! Connection discipline: a small per-client pool of idle connections.
//! Each in-flight RPC owns one connection exclusively (one request, one
//! reply — no multiplexing), so a hedge naturally rides a second
//! connection and the first reply wins. A connection is returned to the
//! pool only when its call settled cleanly; dropping an unsettled
//! completion (losing hedge, abandoned call) closes the socket, which
//! is how the server learns the reply is unwanted. A call that finds
//! its peer closed or reset closes the pool's idle connections too, so
//! the next call dials rather than spending a transmission on another
//! stale socket. Every transport
//! failure — connect refused, reset, malformed frame, mismatched reply
//! — surfaces as a retryable [`RpcError::Transport`], never a panic,
//! so the retry/hedge/failover stack above behaves exactly as it does
//! in-process.

use crate::threaded::RpcStats;
use crate::wire::{self, Message, ReadError};
use dlrm_sharding::rpc::{RpcCompletion, RpcError, ShardRequest, ShardResponse, SparseShardClient};
use dlrm_sharding::ShardId;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked accepts, reads and route polls wake up to check
/// whether their server has stopped.
pub(crate) const POLL_TICK: Duration = Duration::from_millis(20);

/// The listener both servers ([`crate::shard_server::TcpShardServer`],
/// [`crate::control::ControlPlane`]) run: binds `127.0.0.1:0` (the OS
/// picks an ephemeral port, so tests never collide) and accepts on a
/// background thread until `stopped(shared)`, serving each connection
/// on its own thread with `serve`. Nonblocking accept + sleep keeps the
/// loop responsive to a stop without needing a self-connect to unblock.
/// Joining the returned handle joins every connection thread; the
/// listener closes with it, so later connects are refused.
///
/// # Errors
///
/// Bind, address or thread-spawn errors.
pub(crate) fn listen_loopback<S: Send + Sync + 'static>(
    name: &'static str,
    shared: &Arc<S>,
    stopped: fn(&S) -> bool,
    serve: fn(TcpStream, &Arc<S>),
) -> io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let shared = Arc::clone(shared);
    let accept = move || {
        let mut conns: Vec<JoinHandle<()>> = Vec::new();
        while !stopped(&shared) {
            match listener.accept() {
                Ok((conn, _peer)) => {
                    let shared = Arc::clone(&shared);
                    let spawned = std::thread::Builder::new()
                        .name(format!("{name}-conn"))
                        .spawn(move || serve(conn, &shared));
                    conns.extend(spawned);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL_TICK),
                Err(_) => break,
            }
            // Reap finished connection threads so the vec stays bounded.
            conns.retain(|h| !h.is_finished());
        }
        for h in conns {
            let _ = h.join();
        }
    };
    let handle = std::thread::Builder::new()
        .name(format!("{name}:{}", addr.port()))
        .spawn(accept)?;
    Ok((addr, handle))
}

/// Idle connections kept per client; excess connections are closed on
/// check-in. The steady state needs one per RPC in flight to this seat
/// at once: a primary and a hedge per concurrent batch.
const POOL_CAP: usize = 4;

/// Floor for socket read timeouts: `set_read_timeout(0)` is an error,
/// and sub-100µs timeouts just burn syscalls.
const MIN_READ_TIMEOUT: Duration = Duration::from_micros(100);

/// One connection and the frame buffers that travel with it: the
/// request it encodes into and the reply bytes it reads into, each
/// grown once to the largest frame it has carried.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    frame: Vec<u8>,
    scratch: Vec<u8>,
}

/// A pool of idle connections to one shard-server address.
#[derive(Debug)]
struct ConnPool {
    addr: SocketAddr,
    connect_timeout: Duration,
    idle: Mutex<Vec<Conn>>,
}

impl ConnPool {
    /// Checks out an idle connection or dials a new one.
    fn checkout(&self) -> io::Result<Conn> {
        if let Some(conn) = self.idle.lock().expect("conn pool lock").pop() {
            return Ok(conn);
        }
        let stream = TcpStream::connect_timeout(&self.addr, self.connect_timeout)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            frame: Vec::new(),
            scratch: Vec::new(),
        })
    }

    /// Returns a connection whose call settled cleanly.
    fn checkin(&self, conn: Conn) {
        let mut idle = self.idle.lock().expect("conn pool lock");
        if idle.len() < POOL_CAP {
            idle.push(conn);
        }
        // Else: drop closes the excess connection.
    }

    /// Closes every idle connection: once one call finds its peer gone,
    /// the others dialed before it went are stale too, and each would
    /// spend a transmission failing after its send. The next call dials
    /// instead, and to a dead host is refused at once.
    fn close_idle(&self) {
        self.idle.lock().expect("conn pool lock").clear();
    }
}

/// A connection object to one remote shard seat (one `host:port`).
///
/// Cloneable and cheap to share; clones share the connection pool and
/// wire totals. Usually a replica seat of a
/// [`ReplicatedClient`](crate::replica::ReplicatedClient) rather than
/// used directly.
#[derive(Debug, Clone)]
pub struct TcpShardClient {
    shard: ShardId,
    pool: Arc<ConnPool>,
    stats: Arc<RpcStats>,
    next_id: Arc<AtomicU64>,
}

impl TcpShardClient {
    /// A client for `shard` served at `addr` (e.g. `"127.0.0.1:4170"`).
    ///
    /// Dialing is lazy: no connection is made until the first call, so
    /// constructing clients from a routing table never blocks.
    ///
    /// # Errors
    ///
    /// [`RpcError::Transport`] when `addr` does not parse.
    pub fn new(
        shard: ShardId,
        addr: &str,
        connect_timeout: Duration,
    ) -> Result<Self, RpcError> {
        let addr: SocketAddr = addr.parse().map_err(|_| RpcError::Transport {
            shard,
            message: format!("bad shard server address {addr:?}"),
        })?;
        Ok(Self {
            shard,
            pool: Arc::new(ConnPool {
                addr,
                connect_timeout,
                idle: Mutex::new(Vec::new()),
            }),
            stats: Arc::default(),
            next_id: Arc::new(AtomicU64::new(1)),
        })
    }

    /// The client's instrumentation, shared with the replica seat that
    /// wraps it: this client writes the wire totals, the seat the call
    /// ledger.
    pub(crate) fn stats(&self) -> Arc<RpcStats> {
        Arc::clone(&self.stats)
    }

    /// The address this client dials.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.pool.addr
    }

    fn transport_err(&self, message: impl Into<String>) -> RpcError {
        RpcError::Transport {
            shard: self.shard,
            message: message.into(),
        }
    }
}

impl SparseShardClient for TcpShardClient {
    fn shard_id(&self) -> ShardId {
        self.shard
    }

    /// Encodes the shared request straight into the connection's frame.
    fn begin_shared(
        &self,
        request: &Arc<ShardRequest>,
    ) -> Result<Box<dyn RpcCompletion>, RpcError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut conn = self
            .pool
            .checkout()
            .map_err(|e| self.transport_err(format!("connect {}: {e}", self.pool.addr)))?;
        let t0 = Instant::now();
        wire::encode_request_frame_into(id, self.shard, request, &mut conn.frame);
        self.stats.add_serde(t0.elapsed());
        {
            use std::io::Write as _;
            let Conn { stream, frame, .. } = &mut conn;
            stream
                .write_all(frame)
                .and_then(|()| stream.flush())
                .map_err(|e| {
                    self.pool.close_idle();
                    self.transport_err(format!("send to {}: {e}", self.pool.addr))
                })?;
        }
        self.stats.on_wire_sent(conn.frame.len());
        Ok(Box::new(TcpCompletion {
            shard: self.shard,
            id,
            conn: Some(conn),
            pool: Arc::clone(&self.pool),
            stats: Arc::clone(&self.stats),
        }))
    }
}

/// A request written to a socket whose reply has not been read yet.
struct TcpCompletion {
    shard: ShardId,
    id: u64,
    /// The connection this call owns, its scratch holding partial reply
    /// bytes across bounded waits; `None` after settling. Dropping an
    /// unsettled call (losing hedge, timed-out call) closes the socket:
    /// the server sees the hangup and discards the reply.
    conn: Option<Conn>,
    pool: Arc<ConnPool>,
    stats: Arc<RpcStats>,
}

impl TcpCompletion {
    fn transport_err(&self, message: impl Into<String>) -> RpcError {
        RpcError::Transport {
            shard: self.shard,
            message: message.into(),
        }
    }

    /// The peer closed or reset the call's connection: the pool's idle
    /// connections to it go too.
    fn peer_gone(&self, message: String) -> RpcError {
        self.pool.close_idle();
        self.transport_err(message)
    }

    /// Lets go of the call's connection: back to the pool when
    /// `reusable` (the exchange finished cleanly), closed otherwise.
    fn settle(
        &mut self,
        result: Result<ShardResponse, RpcError>,
        reusable: bool,
    ) -> Result<ShardResponse, RpcError> {
        match self.conn.take() {
            Some(conn) if reusable && conn.scratch.is_empty() => self.pool.checkin(conn),
            _ => {} // drop closes it
        }
        result
    }

    /// One bounded attempt to read the reply. `None` timeout = wait
    /// forever.
    fn poll_reply(&mut self, timeout: Option<Duration>) -> Option<Result<ShardResponse, RpcError>> {
        let conn = self.conn.as_mut().expect("unsettled completion has a conn");
        if conn.stream.set_read_timeout(timeout).is_err() {
            return Some(Err(RpcError::Transport {
                shard: self.shard,
                message: "could not arm read timeout".to_string(),
            }));
        }
        match wire::read_message(&mut conn.stream, &mut conn.scratch) {
            Ok(frame) => {
                self.stats.on_wire_received(frame.bytes);
                self.stats.add_serde(frame.decode_time);
                Some(match frame.message {
                    Message::ReplyOk { id, response } if id == self.id => Ok(response),
                    Message::ReplyErr { id, error } if id == self.id => Err(error),
                    Message::ReplyOk { id, .. } | Message::ReplyErr { id, .. } => {
                        Err(self.transport_err(format!(
                            "reply correlation mismatch: sent {}, got {id}",
                            self.id
                        )))
                    }
                    other => Err(self.transport_err(format!(
                        "unexpected frame kind {} awaiting reply",
                        other.kind()
                    ))),
                })
            }
            Err(ReadError::TimedOut) => None,
            Err(ReadError::Closed) => Some(Err(
                self.peer_gone("connection closed before the reply".into())
            )),
            Err(ReadError::Io(e)) => Some(Err(self.peer_gone(format!("recv: {e}")))),
            Err(ReadError::Malformed(e)) => Some(Err(self.transport_err(format!("{e}")))),
        }
    }

    /// Whether this result leaves the connection at a clean frame
    /// boundary (only a correlated reply does).
    fn reusable(result: &Result<ShardResponse, RpcError>) -> bool {
        match result {
            Ok(_) => true,
            // A typed server-side error still completed the exchange.
            Err(RpcError::ShardFault { .. })
            | Err(RpcError::Poisoned { .. })
            | Err(RpcError::Timeout { .. }) => true,
            Err(RpcError::Transport { .. }) => false,
        }
    }
}

impl RpcCompletion for TcpCompletion {
    fn wait_until(&mut self, deadline: Option<Instant>) -> Option<Result<ShardResponse, RpcError>> {
        loop {
            // A bounded read lasts at least MIN_READ_TIMEOUT, so even a
            // deadline that already passed reads the socket once.
            let timeout = deadline
                .map(|d| d.saturating_duration_since(Instant::now()).max(MIN_READ_TIMEOUT));
            if let Some(result) = self.poll_reply(timeout) {
                let reusable = Self::reusable(&result);
                return Some(self.settle(result, reusable));
            }
            // With no deadline, only a spurious WouldBlock gets here.
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::TcpListener;

    fn empty_request() -> ShardRequest {
        ShardRequest {
            net: dlrm_model::NetId(0),
            slices: vec![],
        }
    }

    /// Reads one request from `conn` and, `delay` later, answers it.
    fn answer(conn: &mut TcpStream, delay: Duration) {
        let frame = wire::read_message(conn, &mut Vec::new()).unwrap();
        let Message::Request { id, .. } = frame.message else {
            panic!("expected request");
        };
        std::thread::sleep(delay);
        let reply = Message::ReplyOk {
            id,
            response: ShardResponse { pooled: vec![] },
        };
        wire::write_message(conn, &reply).unwrap();
    }

    #[test]
    fn bad_address_is_a_transport_error() {
        let err = TcpShardClient::new(ShardId(0), "not-an-addr", Duration::from_millis(10))
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.kind(), "transport");
    }

    #[test]
    fn connection_refused_is_a_retryable_transport_error() {
        // Bind and immediately drop to learn a port nobody listens on.
        let port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let client = TcpShardClient::new(
            ShardId(0),
            &format!("127.0.0.1:{port}"),
            Duration::from_millis(200),
        )
        .unwrap();
        let err = client.execute(&empty_request()).unwrap_err();
        assert_eq!(err.kind(), "transport");
        assert!(err.is_retryable());
    }

    #[test]
    fn garbage_reply_surfaces_as_transport_error_not_panic() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            // Ignore the request; answer with bytes that are not a frame.
            conn.write_all(b"HTTP/1.1 200 OK\r\n\r\n").unwrap();
        });
        let client =
            TcpShardClient::new(ShardId(0), &addr.to_string(), Duration::from_secs(1)).unwrap();
        let err = client.execute(&empty_request()).unwrap_err();
        assert_eq!(err.kind(), "transport");
        assert!(err.to_string().contains("malformed"), "{err}");
        server.join().unwrap();
    }

    #[test]
    fn mismatched_correlation_id_rejected_and_connection_not_reused() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut scratch = Vec::new();
            let frame = wire::read_message(&mut conn, &mut scratch).unwrap();
            let Message::Request { id, .. } = frame.message else {
                panic!("expected request");
            };
            let reply = Message::ReplyOk {
                id: id + 999,
                response: ShardResponse { pooled: vec![] },
            };
            wire::write_message(&mut conn, &reply).unwrap();
        });
        let client =
            TcpShardClient::new(ShardId(0), &addr.to_string(), Duration::from_secs(1)).unwrap();
        let err = client.execute(&empty_request()).unwrap_err();
        assert!(err.to_string().contains("correlation"), "{err}");
        server.join().unwrap();
        // The poisoned connection was closed, not pooled.
        assert!(client.pool.idle.lock().unwrap().is_empty());
    }

    #[test]
    fn a_closed_peer_empties_the_pool_so_the_next_call_dials() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // One call answered on each of two connections, then the
            // server goes: both sockets and the listener close.
            let mut conns: Vec<_> = (0..2).map(|_| listener.accept().unwrap().0).collect();
            conns.iter_mut().for_each(|conn| answer(conn, Duration::ZERO));
        });
        let client =
            TcpShardClient::new(ShardId(0), &addr.to_string(), Duration::from_secs(1)).unwrap();
        // Two calls in flight at once ride two connections; both pool.
        let first = client.begin_execute(&empty_request()).unwrap();
        let second = client.begin_execute(&empty_request()).unwrap();
        assert!(first.wait().is_ok() && second.wait().is_ok());
        server.join().unwrap();
        assert_eq!(client.pool.idle.lock().unwrap().len(), 2);
        // The next call finds its pooled socket closed after the send ...
        let err = client.execute(&empty_request()).unwrap_err();
        assert!(!err.to_string().contains(": connect "), "{err}");
        // ... and the other stale socket goes with it: the call after
        // dials and is refused instead of failing after its send.
        assert!(client.pool.idle.lock().unwrap().is_empty());
        let err = client.execute(&empty_request()).unwrap_err();
        assert!(err.to_string().contains(": connect "), "{err}");
    }

    #[test]
    fn wait_until_returns_none_then_settles_and_reuses_the_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            for _ in 0..2 {
                answer(&mut conn, Duration::from_millis(30));
            }
        });
        let client =
            TcpShardClient::new(ShardId(0), &addr.to_string(), Duration::from_secs(1)).unwrap();
        let mut pending = client.begin_execute(&empty_request()).unwrap();
        if let Some(r) = pending.wait_until(Some(Instant::now() + Duration::from_millis(1))) {
            panic!("30ms reply arrived in 1ms: {r:?}");
        }
        let settled = pending.wait_until(Some(Instant::now() + Duration::from_secs(10)));
        let r = settled.expect("reply never arrived");
        assert!(r.is_ok(), "{r:?}");
        // The settled connection went back to the pool; the second call
        // must reuse it (the server only accepts once).
        assert_eq!(client.pool.idle.lock().unwrap().len(), 1);
        assert!(client.execute(&empty_request()).is_ok());
        server.join().unwrap();
        let wire_totals = client.stats.wire_totals();
        assert_eq!(wire_totals.frames_sent, 2);
        assert_eq!(wire_totals.frames_received, 2);
        assert!(wire_totals.bytes_sent > 0 && wire_totals.bytes_received > 0);
    }
}
