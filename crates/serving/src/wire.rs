//! The transport-neutral wire layer: length-prefixed, versioned frames.
//!
//! The paper's scale-out tier is a fleet of sparse-shard *services*
//! reached over an intranet (§III, Thrift RPC). Everything that crosses
//! a process boundary in this workspace — sparse-lookup requests and
//! replies, control-plane registration, routing tables, drain/shutdown
//! — is one [`Message`], encoded as a single binary frame:
//!
//! ```text
//! magic "DLRM" (4) | version u8 | kind u8 | reserved u16 = 0 | payload_len u32 | payload
//! ```
//!
//! All integers are little-endian; floats travel as IEEE-754 bit
//! patterns (`f32::to_bits`), so a pooled embedding matrix round-trips
//! *bit-exactly* — the property every bit-exactness gate in this repo
//! relies on. Strings are `u32` length-prefixed UTF-8. Bulk text
//! payloads (model specs, sharding plans, routing tables) reuse the
//! `publish` serialization conventions: the human-diffable v1 text
//! formats travel inside string fields rather than growing a parallel
//! binary schema.
//!
//! Versioning rules: the header version is bumped on any incompatible
//! payload change; a decoder rejects frames whose version it does not
//! speak (surfaced by the TCP client as
//! [`RpcError::Transport`](dlrm_sharding::RpcError), never a panic).
//! Unknown frame kinds, bad magic, non-zero reserved bits, oversized
//! lengths, short payloads and trailing bytes are all malformed — the
//! decoder returns a [`WireError`] and the connection is dropped.
//!
//! [`try_decode`] is *resumable*: handed a prefix of a valid frame it
//! returns `Ok(None)` ("need more bytes"), which is what lets the TCP
//! completion honor bounded waits mid-frame.

use dlrm_model::{NetId, TableId};
use dlrm_sharding::rpc::{RpcError, ShardRequest, ShardResponse, TableSlice};
use dlrm_sharding::ShardId;
use dlrm_tensor::Matrix;
use std::io::{Read, Write};
use std::time::Duration;

/// Current wire format version.
pub const WIRE_VERSION: u8 = 1;

/// Frame magic, first on the wire.
pub const MAGIC: [u8; 4] = *b"DLRM";

/// Fixed frame header length in bytes.
pub const HEADER_LEN: usize = 12;

/// Ceiling on a single frame's payload (defends length-field
/// corruption; far above any real batch).
pub const MAX_PAYLOAD: u32 = 1 << 28;

/// A malformed frame or payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What was wrong with the bytes.
    pub message: String,
}

impl WireError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed frame: {}", self.message)
    }
}

impl std::error::Error for WireError {}

/// One (shard, replica) → address row of a routing table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteEntry {
    /// The sparse shard.
    pub shard: ShardId,
    /// Replica index within the shard's replica set.
    pub replica: usize,
    /// `host:port` of the shard server seat.
    pub addr: String,
}

/// The control plane's (shard, replica) → address map, versioned so
/// clients can detect staleness.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoutingTable {
    /// Monotonic table version (bumps on every assignment).
    pub version: u64,
    /// Whether every expected (shard, replica) seat has an address.
    pub complete: bool,
    /// The rows, in (shard, replica) order.
    pub entries: Vec<RouteEntry>,
}

impl RoutingTable {
    /// The address serving `(shard, replica)`, if assigned.
    #[must_use]
    pub fn addr(&self, shard: ShardId, replica: usize) -> Option<&str> {
        self.entries
            .iter()
            .find(|e| e.shard == shard && e.replica == replica)
            .map(|e| e.addr.as_str())
    }

    /// Number of distinct shards with at least one route.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        let mut shards: Vec<ShardId> = self.entries.iter().map(|e| e.shard).collect();
        shards.sort_unstable();
        shards.dedup();
        shards.len()
    }

    /// Addresses of replicas of `shard`, in replica order.
    #[must_use]
    pub fn replicas_of(&self, shard: ShardId) -> Vec<&str> {
        let mut rows: Vec<(usize, &str)> = self
            .entries
            .iter()
            .filter(|e| e.shard == shard)
            .map(|e| (e.replica, e.addr.as_str()))
            .collect();
        rows.sort_unstable_by_key(|(r, _)| *r);
        rows.into_iter().map(|(_, a)| a).collect()
    }
}

/// What a shard-server seat is told to serve, and everything it needs
/// to build the service deterministically: the published model spec and
/// sharding plan plus the weight seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// `(shard, replica)` seats this server hosts.
    pub seats: Vec<(ShardId, usize)>,
    /// The model spec, in `dlrm_model::publish` v1 text.
    pub spec_text: String,
    /// The sharding plan, in `dlrm_sharding::publish` text (v1, or v2
    /// with hot rows).
    pub plan_text: String,
    /// Seed the embedding weights are built from.
    pub seed: u64,
}

/// Cluster metadata the control plane hands to clients so they can
/// build the main-shard model and partition it against the fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterMeta {
    /// The model spec, in `dlrm_model::publish` v1 text.
    pub spec_text: String,
    /// The sharding plan, in `dlrm_sharding::publish` text (v1, or v2
    /// with hot rows).
    pub plan_text: String,
    /// Seed the embedding weights are built from.
    pub seed: u64,
    /// Number of sparse shards in the plan.
    pub shards: usize,
    /// Replicas expected per shard.
    pub replicas: usize,
}

/// Every message that travels in a frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A sparse-lookup request to one shard (data plane).
    Request {
        /// Correlation id, echoed in the reply.
        id: u64,
        /// The shard addressed (sanity-checked server-side).
        shard: ShardId,
        /// The lookups.
        request: ShardRequest,
    },
    /// A successful sparse-lookup reply.
    ReplyOk {
        /// Correlation id of the request answered.
        id: u64,
        /// The pooled embeddings.
        response: ShardResponse,
    },
    /// A failed sparse-lookup reply carrying the typed error.
    ReplyErr {
        /// Correlation id of the request answered.
        id: u64,
        /// Why the call failed.
        error: RpcError,
    },
    /// Shard server → control plane: "I am listening at `addr`".
    Register {
        /// The server's `host:port` (ephemeral port already bound).
        addr: String,
    },
    /// Control plane → shard server: the seats to host.
    Assign(Assignment),
    /// Client → control plane: send me the routing table.
    GetRoutes,
    /// Control plane → client: the routing table.
    Routes(RoutingTable),
    /// Client → control plane: send me the cluster metadata.
    FetchMeta,
    /// Control plane → client: cluster metadata.
    Meta(ClusterMeta),
    /// Finish in-flight requests, refuse new ones.
    Drain,
    /// Drain finished; `served` requests were completed in total.
    DrainAck {
        /// Lifetime served-request count at drain completion.
        served: u64,
    },
    /// Stop serving entirely (a drained server exits).
    Shutdown,
    /// Shutdown acknowledged.
    ShutdownAck,
    /// Liveness probe.
    Ping,
    /// Liveness reply.
    Pong,
}

impl Message {
    /// The frame-kind byte for this message.
    #[must_use]
    pub fn kind(&self) -> u8 {
        match self {
            Message::Request { .. } => 1,
            Message::ReplyOk { .. } => 2,
            Message::ReplyErr { .. } => 3,
            Message::Register { .. } => 4,
            Message::Assign(_) => 5,
            Message::GetRoutes => 6,
            Message::Routes(_) => 7,
            Message::FetchMeta => 8,
            Message::Meta(_) => 9,
            Message::Drain => 10,
            Message::DrainAck { .. } => 11,
            Message::Shutdown => 12,
            Message::ShutdownAck => 13,
            Message::Ping => 14,
            Message::Pong => 15,
        }
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Appends `vals` as `N`-byte little-endian words in one bulk pass
/// (grow once, then fill fixed-size chunks) — the index, length and
/// matrix-element arrays are all but a few bytes of a data-plane frame.
fn put_words<T: Copy, const N: usize>(out: &mut Vec<u8>, vals: &[T], le: impl Fn(T) -> [u8; N]) {
    let at = out.len();
    out.resize(at + vals.len() * N, 0);
    for (dst, &v) in out[at..].chunks_exact_mut(N).zip(vals) {
        dst.copy_from_slice(&le(v));
    }
}

fn put_matrix(out: &mut Vec<u8>, m: &Matrix) {
    put_u32(out, m.rows() as u32);
    put_u32(out, m.cols() as u32);
    put_words(out, m.as_slice(), |v| v.to_bits().to_le_bytes());
}

fn put_request(out: &mut Vec<u8>, id: u64, shard: ShardId, request: &ShardRequest) {
    put_u64(out, id);
    put_u32(out, shard.0 as u32);
    put_u32(out, request.net.0 as u32);
    put_u32(out, request.slices.len() as u32);
    for s in &request.slices {
        put_u32(out, s.table.0 as u32);
        put_u32(out, s.indices.len() as u32);
        put_u32(out, s.lengths.len() as u32);
        put_words(out, &s.indices, u64::to_le_bytes);
        put_words(out, &s.lengths, u32::to_le_bytes);
    }
}

/// Exact payload size of a request, so its frame is allocated once.
fn request_payload_len(request: &ShardRequest) -> usize {
    let slices = request.slices.iter();
    20 + slices.map(|s| 12 + s.indices.len() * 8 + s.lengths.len() * 4).sum::<usize>()
}

/// Payload size to allocate for `msg` up front: exact for the two
/// data-plane kinds that carry arrays, a small guess for the rest.
fn payload_len_hint(msg: &Message) -> usize {
    match msg {
        Message::Request { request, .. } => request_payload_len(request),
        Message::ReplyOk { response, .. } => {
            12 + response.pooled.iter().map(|(_, m)| 12 + m.len() * 4).sum::<usize>()
        }
        _ => 64,
    }
}

fn encode_payload(msg: &Message, out: &mut Vec<u8>) {
    match msg {
        Message::Request { id, shard, request } => put_request(out, *id, *shard, request),
        Message::ReplyOk { id, response } => {
            put_u64(out, *id);
            put_u32(out, response.pooled.len() as u32);
            for (table, m) in &response.pooled {
                put_u32(out, table.0 as u32);
                put_matrix(out, m);
            }
        }
        Message::ReplyErr { id, error } => {
            put_u64(out, *id);
            let (code, shard, waited_us, message): (u8, ShardId, u64, &str) = match error {
                RpcError::Timeout { shard, waited } => {
                    (0, *shard, waited.as_micros() as u64, "")
                }
                RpcError::Transport { shard, message } => (1, *shard, 0, message),
                RpcError::ShardFault { shard, message } => (2, *shard, 0, message),
                RpcError::Poisoned { shard, message } => (3, *shard, 0, message),
            };
            out.push(code);
            put_u32(out, shard.0 as u32);
            put_u64(out, waited_us);
            put_str(out, message);
        }
        Message::Register { addr } => put_str(out, addr),
        Message::Assign(a) => {
            put_u32(out, a.seats.len() as u32);
            for (shard, replica) in &a.seats {
                put_u32(out, shard.0 as u32);
                put_u32(out, *replica as u32);
            }
            put_str(out, &a.spec_text);
            put_str(out, &a.plan_text);
            put_u64(out, a.seed);
        }
        Message::Routes(t) => {
            put_u64(out, t.version);
            out.push(u8::from(t.complete));
            put_u32(out, t.entries.len() as u32);
            for e in &t.entries {
                put_u32(out, e.shard.0 as u32);
                put_u32(out, e.replica as u32);
                put_str(out, &e.addr);
            }
        }
        Message::Meta(m) => {
            put_str(out, &m.spec_text);
            put_str(out, &m.plan_text);
            put_u64(out, m.seed);
            put_u32(out, m.shards as u32);
            put_u32(out, m.replicas as u32);
        }
        Message::DrainAck { served } => put_u64(out, *served),
        Message::GetRoutes
        | Message::FetchMeta
        | Message::Drain
        | Message::Shutdown
        | Message::ShutdownAck
        | Message::Ping
        | Message::Pong => {}
    }
}

/// Replaces `out`'s contents with one frame, reserving its exact size
/// up front: a buffer reused across frames stops growing once it has
/// held the largest.
fn frame_into(out: &mut Vec<u8>, kind: u8, payload_len: usize, fill: impl FnOnce(&mut Vec<u8>)) {
    out.clear();
    out.reserve(HEADER_LEN + payload_len);
    out.extend_from_slice(&MAGIC);
    out.push(WIRE_VERSION);
    out.push(kind);
    put_u16(out, 0); // reserved
    put_u32(out, 0); // payload length backpatched below
    fill(out);
    let len = (out.len() - HEADER_LEN) as u32;
    out[8..12].copy_from_slice(&len.to_le_bytes());
}

/// Encodes one complete frame (header + payload).
#[must_use]
pub fn encode_message(msg: &Message) -> Vec<u8> {
    let mut out = Vec::new();
    encode_message_into(msg, &mut out);
    out
}

/// [`encode_message`] into a caller's buffer, replacing its contents —
/// the shard server reuses one per connection for its replies.
pub(crate) fn encode_message_into(msg: &Message, out: &mut Vec<u8>) {
    frame_into(out, msg.kind(), payload_len_hint(msg), |out| {
        encode_payload(msg, out)
    });
}

/// Encodes a data-plane request frame without cloning the request —
/// the TCP client's hot path ([`Message::Request`] owns its request, so
/// going through [`encode_message`] would copy every index vector).
#[must_use]
pub fn encode_request_frame(id: u64, shard: ShardId, request: &ShardRequest) -> Vec<u8> {
    let mut out = Vec::new();
    encode_request_frame_into(id, shard, request, &mut out);
    out
}

/// [`encode_request_frame`] into a caller's buffer, replacing its
/// contents — the TCP client reuses one per pooled connection.
pub(crate) fn encode_request_frame_into(
    id: u64,
    shard: ShardId,
    request: &ShardRequest,
    out: &mut Vec<u8>,
) {
    frame_into(out, 1, request_payload_len(request), |out| {
        put_request(out, id, shard, request)
    });
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Bounded cursor over a payload.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::new(format!(
                "payload truncated reading {what}: need {n}, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn str(&mut self, what: &str) -> Result<String, WireError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::new(format!("{what} is not UTF-8")))
    }

    /// Validates that `count` elements of `elem_size` bytes each can
    /// still fit in the remaining payload, so a corrupt count cannot
    /// trigger a huge allocation.
    fn check_count(&self, count: usize, elem_size: usize, what: &str) -> Result<(), WireError> {
        let need = count.checked_mul(elem_size);
        match need {
            Some(n) if n <= self.remaining() => Ok(()),
            _ => Err(WireError::new(format!(
                "{what} count {count} exceeds payload ({} bytes left)",
                self.remaining()
            ))),
        }
    }

    /// Reads `count` `N`-byte little-endian words in one bulk pass:
    /// one bounds check for the whole array ([`Self::check_count`],
    /// which also keeps a corrupt count from allocating), then
    /// fixed-size chunks.
    fn words<T, const N: usize>(
        &mut self,
        count: usize,
        what: &str,
        from_le: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, WireError> {
        self.check_count(count, N, what)?;
        let bytes = self.take(count * N, what)?;
        Ok(bytes
            .chunks_exact(N)
            .map(|c| from_le(c.try_into().expect("chunks_exact yields N bytes")))
            .collect())
    }

    fn matrix(&mut self) -> Result<Matrix, WireError> {
        let rows = self.u32("matrix rows")? as usize;
        let cols = self.u32("matrix cols")? as usize;
        let n = rows
            .checked_mul(cols)
            .ok_or_else(|| WireError::new("matrix shape overflow"))?;
        let data = self.words(n, "matrix elements", |b| f32::from_bits(u32::from_le_bytes(b)))?;
        if rows == 0 || cols == 0 {
            // Matrix::from_vec(0, c, []) is a valid empty matrix only
            // through zeros(); normalize.
            return Ok(Matrix::zeros(rows, cols));
        }
        Ok(Matrix::from_vec(rows, cols, data))
    }
}

fn decode_payload(kind: u8, payload: &[u8]) -> Result<Message, WireError> {
    let mut c = Cur::new(payload);
    let msg = match kind {
        1 => {
            let id = c.u64("request id")?;
            let shard = ShardId(c.u32("shard id")? as usize);
            let net = NetId(c.u32("net id")? as usize);
            let n_slices = c.u32("slice count")? as usize;
            // Each slice costs at least 12 header bytes.
            c.check_count(n_slices, 12, "slices")?;
            let mut slices = Vec::with_capacity(n_slices);
            for _ in 0..n_slices {
                let table = TableId(c.u32("table id")? as usize);
                let n_idx = c.u32("index count")? as usize;
                let n_len = c.u32("length count")? as usize;
                let indices = c.words(n_idx, "indices", u64::from_le_bytes)?;
                let lengths = c.words(n_len, "lengths", u32::from_le_bytes)?;
                slices.push(TableSlice {
                    table,
                    indices,
                    lengths,
                });
            }
            Message::Request {
                id,
                shard,
                request: ShardRequest { net, slices },
            }
        }
        2 => {
            let id = c.u64("reply id")?;
            let n_tables = c.u32("table count")? as usize;
            c.check_count(n_tables, 12, "pooled tables")?;
            let mut pooled = Vec::with_capacity(n_tables);
            for _ in 0..n_tables {
                let table = TableId(c.u32("table id")? as usize);
                pooled.push((table, c.matrix()?));
            }
            Message::ReplyOk {
                id,
                response: ShardResponse { pooled },
            }
        }
        3 => {
            let id = c.u64("reply id")?;
            let code = c.u8("error code")?;
            let shard = ShardId(c.u32("shard id")? as usize);
            let waited_us = c.u64("waited")?;
            let message = c.str("error message")?;
            let error = match code {
                0 => RpcError::Timeout {
                    shard,
                    waited: Duration::from_micros(waited_us),
                },
                1 => RpcError::Transport { shard, message },
                2 => RpcError::ShardFault { shard, message },
                3 => RpcError::Poisoned { shard, message },
                other => {
                    return Err(WireError::new(format!("unknown error code {other}")));
                }
            };
            Message::ReplyErr { id, error }
        }
        4 => Message::Register {
            addr: c.str("register addr")?,
        },
        5 => {
            let n_seats = c.u32("seat count")? as usize;
            c.check_count(n_seats, 8, "seats")?;
            let mut seats = Vec::with_capacity(n_seats);
            for _ in 0..n_seats {
                let shard = ShardId(c.u32("seat shard")? as usize);
                let replica = c.u32("seat replica")? as usize;
                seats.push((shard, replica));
            }
            Message::Assign(Assignment {
                seats,
                spec_text: c.str("spec text")?,
                plan_text: c.str("plan text")?,
                seed: c.u64("seed")?,
            })
        }
        6 => Message::GetRoutes,
        7 => {
            let version = c.u64("routes version")?;
            let complete = c.u8("routes complete")? != 0;
            let n = c.u32("route count")? as usize;
            c.check_count(n, 12, "routes")?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push(RouteEntry {
                    shard: ShardId(c.u32("route shard")? as usize),
                    replica: c.u32("route replica")? as usize,
                    addr: c.str("route addr")?,
                });
            }
            Message::Routes(RoutingTable {
                version,
                complete,
                entries,
            })
        }
        8 => Message::FetchMeta,
        9 => Message::Meta(ClusterMeta {
            spec_text: c.str("spec text")?,
            plan_text: c.str("plan text")?,
            seed: c.u64("seed")?,
            shards: c.u32("shard count")? as usize,
            replicas: c.u32("replica count")? as usize,
        }),
        10 => Message::Drain,
        11 => Message::DrainAck {
            served: c.u64("served count")?,
        },
        12 => Message::Shutdown,
        13 => Message::ShutdownAck,
        14 => Message::Ping,
        15 => Message::Pong,
        other => return Err(WireError::new(format!("unknown frame kind {other}"))),
    };
    if c.remaining() != 0 {
        return Err(WireError::new(format!(
            "{} trailing bytes after kind-{kind} payload",
            c.remaining()
        )));
    }
    Ok(msg)
}

/// Attempts to decode one frame from the front of `buf`.
///
/// Returns `Ok(None)` when `buf` holds only a prefix of a frame (read
/// more and call again), `Ok(Some((message, consumed)))` when a full
/// frame was decoded, and an error when the bytes can never become a
/// valid frame.
///
/// # Errors
///
/// [`WireError`] on bad magic, unsupported version, non-zero reserved
/// bits, oversized length, unknown kind, or a malformed payload.
pub fn try_decode(buf: &[u8]) -> Result<Option<(Message, usize)>, WireError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    if buf[0..4] != MAGIC {
        return Err(WireError::new(format!(
            "bad magic {:02x}{:02x}{:02x}{:02x}",
            buf[0], buf[1], buf[2], buf[3]
        )));
    }
    let version = buf[4];
    if version != WIRE_VERSION {
        return Err(WireError::new(format!(
            "unsupported wire version {version} (speak {WIRE_VERSION})"
        )));
    }
    let kind = buf[5];
    let reserved = u16::from_le_bytes([buf[6], buf[7]]);
    if reserved != 0 {
        return Err(WireError::new(format!("non-zero reserved bits {reserved:#x}")));
    }
    let len = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]);
    if len > MAX_PAYLOAD {
        return Err(WireError::new(format!(
            "payload length {len} exceeds cap {MAX_PAYLOAD}"
        )));
    }
    let total = HEADER_LEN + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let msg = decode_payload(kind, &buf[HEADER_LEN..total])?;
    Ok(Some((msg, total)))
}

// ---------------------------------------------------------------------
// Framed IO helpers (shared by the TCP client, server and control plane)
// ---------------------------------------------------------------------

/// Why a framed read did not produce a message.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the stream cleanly between frames.
    Closed,
    /// The read timed out (stream has a read timeout set); the bytes
    /// consumed so far stay in the scratch buffer, so the read can be
    /// resumed by calling again.
    TimedOut,
    /// An IO failure (connection reset, mid-frame EOF).
    Io(std::io::Error),
    /// The bytes can never become a valid frame.
    Malformed(WireError),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Closed => write!(f, "connection closed"),
            ReadError::TimedOut => write!(f, "read timed out"),
            ReadError::Io(e) => write!(f, "io error: {e}"),
            ReadError::Malformed(e) => write!(f, "{e}"),
        }
    }
}

/// Writes one frame and flushes.
///
/// # Errors
///
/// Propagates the underlying IO error.
pub fn write_message<W: Write>(w: &mut W, msg: &Message) -> std::io::Result<usize> {
    let frame = encode_message(msg);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(frame.len())
}

/// One frame read off a stream: the message, its size on the wire, and
/// the time spent decoding it (IO wait excluded) — the decode half of
/// the serde accounting in
/// [`WireTotals`](crate::threaded::WireTotals).
#[derive(Debug)]
pub struct FrameIn {
    /// The decoded message.
    pub message: Message,
    /// Frame size in bytes (header + payload).
    pub bytes: usize,
    /// Time spent in the decoder (not waiting on the socket).
    pub decode_time: Duration,
}

/// Reads one frame, accumulating partial bytes in `scratch` so a timed
/// read can resume. On success the consumed frame is removed from
/// `scratch` (pipelined follow-on bytes are kept).
///
/// # Errors
///
/// [`ReadError::Closed`] on clean EOF at a frame boundary,
/// [`ReadError::TimedOut`] when the stream's read timeout expires (call
/// again to resume), [`ReadError::Io`] on transport failure or
/// mid-frame EOF, [`ReadError::Malformed`] on undecodable bytes.
pub fn read_message<R: Read>(r: &mut R, scratch: &mut Vec<u8>) -> Result<FrameIn, ReadError> {
    let mut decode_time = Duration::ZERO;
    loop {
        let t0 = std::time::Instant::now();
        let decoded = try_decode(scratch).map_err(ReadError::Malformed)?;
        decode_time += t0.elapsed();
        if let Some((message, consumed)) = decoded {
            // A frame that was the whole buffer leaves no tail to move.
            scratch.drain(..consumed);
            return Ok(FrameIn {
                message,
                bytes: consumed,
                decode_time,
            });
        }
        // Read exactly what the frame still needs — the header first,
        // then (`try_decode` accepted it, so its length is within
        // MAX_PAYLOAD) the rest in one reservation — straight into the
        // buffer's spare capacity. An error mid-way (a timeout) keeps
        // the bytes already read, so the next call resumes.
        let total = match scratch.get(8..HEADER_LEN) {
            Some(len) => HEADER_LEN + u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize,
            None => HEADER_LEN,
        };
        let missing = total - scratch.len();
        scratch.reserve(missing);
        // (`read_to_end` retries an interrupted read itself.)
        let n = match r.by_ref().take(missing as u64).read_to_end(scratch) {
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(ReadError::TimedOut)
            }
            Err(e) => return Err(ReadError::Io(e)),
        };
        if n == 0 {
            return Err(if scratch.is_empty() {
                ReadError::Closed
            } else {
                ReadError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "stream ended mid-frame",
                ))
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Message {
        Message::Request {
            id: 7,
            shard: ShardId(2),
            request: ShardRequest {
                net: NetId(1),
                slices: vec![
                    TableSlice {
                        table: TableId(0),
                        indices: vec![5, 9, 1_000_000_007],
                        lengths: vec![2, 1],
                    },
                    TableSlice {
                        table: TableId(3),
                        indices: vec![],
                        lengths: vec![0, 0],
                    },
                ],
            },
        }
    }

    #[test]
    fn request_round_trips() {
        let msg = sample_request();
        let frame = encode_message(&msg);
        assert_eq!(frame.len(), HEADER_LEN + payload_len_hint(&msg), "sized up front");
        let (back, consumed) = try_decode(&frame).unwrap().unwrap();
        assert_eq!(consumed, frame.len());
        assert_eq!(back, msg);
    }

    #[test]
    fn reply_matrices_round_trip_bit_exactly() {
        let m = Matrix::from_vec(2, 3, vec![1.5, -0.0, f32::MIN_POSITIVE, 3.25e-9, 7.0, -2.5]);
        let msg = Message::ReplyOk {
            id: 9,
            response: ShardResponse {
                pooled: vec![(TableId(4), m.clone())],
            },
        };
        let frame = encode_message(&msg);
        assert_eq!(frame.len(), HEADER_LEN + payload_len_hint(&msg), "sized up front");
        let (back, _) = try_decode(&frame).unwrap().unwrap();
        let Message::ReplyOk { response, .. } = back else {
            panic!("wrong kind");
        };
        // Bit-level comparison, not float equality: -0.0 must survive.
        for (a, b) in m.as_slice().iter().zip(response.pooled[0].1.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn every_error_variant_round_trips() {
        let errors = vec![
            RpcError::Timeout {
                shard: ShardId(1),
                waited: Duration::from_micros(1234),
            },
            RpcError::Transport {
                shard: ShardId(0),
                message: "conn reset".into(),
            },
            RpcError::ShardFault {
                shard: ShardId(3),
                message: "t9 not hosted".into(),
            },
            RpcError::Poisoned {
                shard: ShardId(2),
                message: "worker panicked".into(),
            },
        ];
        for error in errors {
            let msg = Message::ReplyErr { id: 1, error: error.clone() };
            let (back, _) = try_decode(&encode_message(&msg)).unwrap().unwrap();
            assert_eq!(back, Message::ReplyErr { id: 1, error });
        }
    }

    #[test]
    fn truncated_prefixes_ask_for_more_never_error() {
        let frame = encode_message(&sample_request());
        for cut in 0..frame.len() {
            let r = try_decode(&frame[..cut]).unwrap();
            assert!(r.is_none(), "prefix of {cut} bytes decoded early");
        }
    }

    #[test]
    fn pipelined_frames_decode_one_at_a_time() {
        let a = encode_message(&Message::Ping);
        let b = encode_message(&sample_request());
        let mut buf = a.clone();
        buf.extend_from_slice(&b);
        let (m1, c1) = try_decode(&buf).unwrap().unwrap();
        assert_eq!(m1, Message::Ping);
        let (m2, c2) = try_decode(&buf[c1..]).unwrap().unwrap();
        assert_eq!(m2, sample_request());
        assert_eq!(c1 + c2, buf.len());
    }

    #[test]
    fn corrupt_headers_are_rejected() {
        let frame = encode_message(&Message::Ping);
        // Bad magic.
        let mut f = frame.clone();
        f[0] = b'X';
        assert!(try_decode(&f).is_err());
        // Unsupported version.
        let mut f = frame.clone();
        f[4] = 99;
        assert!(try_decode(&f).unwrap_err().message.contains("version"));
        // Unknown kind.
        let mut f = frame.clone();
        f[5] = 200;
        assert!(try_decode(&f).unwrap_err().message.contains("kind"));
        // Reserved bits.
        let mut f = frame.clone();
        f[6] = 1;
        assert!(try_decode(&f).unwrap_err().message.contains("reserved"));
        // Oversized length.
        let mut f = frame;
        f[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(try_decode(&f).unwrap_err().message.contains("cap"));
    }

    #[test]
    fn corrupt_counts_cannot_trigger_huge_allocations() {
        // A request frame whose slice count claims 2^31 entries.
        let mut frame = encode_message(&sample_request());
        let count_off = HEADER_LEN + 8 + 4 + 4; // id + shard + net
        frame[count_off..count_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = try_decode(&frame).unwrap_err();
        assert!(err.message.contains("exceeds payload"), "{err}");
    }

    #[test]
    fn trailing_bytes_inside_a_frame_are_malformed() {
        let mut frame = encode_message(&Message::Ping);
        // Grow the declared payload by one byte of junk.
        frame.push(0xAB);
        frame[8..12].copy_from_slice(&1u32.to_le_bytes());
        let err = try_decode(&frame).unwrap_err();
        assert!(err.message.contains("trailing"), "{err}");
    }

    #[test]
    fn routing_table_lookups() {
        let table = RoutingTable {
            version: 4,
            complete: true,
            entries: vec![
                RouteEntry {
                    shard: ShardId(0),
                    replica: 0,
                    addr: "127.0.0.1:4000".into(),
                },
                RouteEntry {
                    shard: ShardId(0),
                    replica: 1,
                    addr: "127.0.0.1:4001".into(),
                },
                RouteEntry {
                    shard: ShardId(1),
                    replica: 0,
                    addr: "127.0.0.1:4002".into(),
                },
            ],
        };
        assert_eq!(table.shard_count(), 2);
        assert_eq!(table.addr(ShardId(0), 1), Some("127.0.0.1:4001"));
        assert_eq!(
            table.replicas_of(ShardId(0)),
            vec!["127.0.0.1:4000", "127.0.0.1:4001"]
        );
    }

    #[test]
    fn read_message_resumes_across_split_frames() {
        struct Chunked {
            data: Vec<u8>,
            pos: usize,
            step: usize,
        }
        impl Read for Chunked {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = self.step.min(self.data.len() - self.pos).min(buf.len());
                buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }
        let frame = encode_message(&sample_request());
        let mut r = Chunked {
            data: frame.clone(),
            pos: 0,
            step: 3,
        };
        let mut scratch = Vec::new();
        let frame_in = read_message(&mut r, &mut scratch).unwrap();
        assert_eq!(frame_in.message, sample_request());
        assert_eq!(frame_in.bytes, frame.len());
        assert!(scratch.is_empty());
        // Clean EOF at a boundary reads as Closed.
        match read_message(&mut r, &mut scratch) {
            Err(ReadError::Closed) => {}
            other => panic!("expected Closed, got {other:?}"),
        }
    }
}
