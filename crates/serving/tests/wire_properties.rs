//! Wire-protocol properties: every frame type round-trips bit-exactly,
//! every truncation is resumable, and no corruption — header or payload,
//! targeted or random — can make the decoder panic or allocate wildly.
//!
//! The generator is [`SimRng`]-driven, so a failing seed reproduces
//! exactly. Malformed inputs must surface as [`wire::WireError`] /
//! [`ReadError::Malformed`]; the TCP client maps those to retryable
//! `RpcError::Transport`, so "never panic" here is what keeps a
//! byte-flipping peer from taking down a serving process.

use dlrm_model::{NetId, TableId};
use dlrm_serving::wire::{
    self, Assignment, ClusterMeta, Message, ReadError, RouteEntry, RoutingTable, HEADER_LEN,
    MAX_PAYLOAD,
};
use dlrm_sharding::rpc::{RpcError, ShardRequest, ShardResponse, TableSlice};
use dlrm_sharding::ShardId;
use dlrm_sim::SimRng;
use dlrm_tensor::Matrix;
use std::time::Duration;

// ---------------------------------------------------------------------
// Seeded generators
// ---------------------------------------------------------------------

fn rand_string(rng: &mut SimRng) -> String {
    // Mixed-width alphabet: multi-byte UTF-8 must survive the
    // byte-length-prefixed encoding.
    const ALPHABET: &[char] = &['a', 'Z', '0', '.', ':', '-', ' ', 'é', 'λ', '日'];
    let len = rng.next_index(16);
    (0..len)
        .map(|_| ALPHABET[rng.next_index(ALPHABET.len())])
        .collect()
}

fn rand_matrix(rng: &mut SimRng) -> Matrix {
    let rows = rng.next_index(4);
    let cols = rng.next_index(5);
    if rows == 0 || cols == 0 {
        return Matrix::zeros(rows, cols);
    }
    let data = (0..rows * cols)
        .map(|_| (rng.next_f32() - 0.5) * 1e3)
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn rand_request(rng: &mut SimRng) -> ShardRequest {
    let slices = (0..rng.next_index(4))
        .map(|_| TableSlice {
            table: TableId(rng.next_index(128)),
            indices: (0..rng.next_index(8)).map(|_| rng.next_u64()).collect(),
            lengths: (0..rng.next_index(6))
                .map(|_| rng.next_u64() as u32)
                .collect(),
        })
        .collect();
    ShardRequest {
        net: NetId(rng.next_index(4)),
        slices,
    }
}

fn rand_error(rng: &mut SimRng) -> RpcError {
    let shard = ShardId(rng.next_index(64));
    match rng.next_index(4) {
        0 => RpcError::Timeout {
            shard,
            // Whole microseconds: that is the wire resolution.
            waited: Duration::from_micros(rng.next_u64() >> 20),
        },
        1 => RpcError::Transport {
            shard,
            message: rand_string(rng),
        },
        2 => RpcError::ShardFault {
            shard,
            message: rand_string(rng),
        },
        _ => RpcError::Poisoned {
            shard,
            message: rand_string(rng),
        },
    }
}

fn rand_routes(rng: &mut SimRng) -> RoutingTable {
    RoutingTable {
        version: rng.next_u64(),
        complete: rng.next_index(2) == 0,
        entries: (0..rng.next_index(6))
            .map(|_| RouteEntry {
                shard: ShardId(rng.next_index(8)),
                replica: rng.next_index(4),
                addr: format!("127.0.0.1:{}", rng.next_index(65536)),
            })
            .collect(),
    }
}

/// One random message; over many draws this covers all 15 frame kinds.
fn rand_message(rng: &mut SimRng) -> Message {
    match rng.next_index(15) {
        0 => Message::Request {
            id: rng.next_u64(),
            shard: ShardId(rng.next_index(64)),
            request: rand_request(rng),
        },
        1 => Message::ReplyOk {
            id: rng.next_u64(),
            response: ShardResponse {
                pooled: (0..rng.next_index(4))
                    .map(|_| (TableId(rng.next_index(128)), rand_matrix(rng)))
                    .collect(),
            },
        },
        2 => Message::ReplyErr {
            id: rng.next_u64(),
            error: rand_error(rng),
        },
        3 => Message::Register {
            addr: rand_string(rng),
        },
        4 => Message::Assign(Assignment {
            seats: (0..rng.next_index(6))
                .map(|_| (ShardId(rng.next_index(8)), rng.next_index(4)))
                .collect(),
            spec_text: rand_string(rng),
            plan_text: rand_string(rng),
            seed: rng.next_u64(),
        }),
        5 => Message::GetRoutes,
        6 => Message::Routes(rand_routes(rng)),
        7 => Message::FetchMeta,
        8 => Message::Meta(ClusterMeta {
            spec_text: rand_string(rng),
            plan_text: rand_string(rng),
            seed: rng.next_u64(),
            shards: rng.next_index(16),
            replicas: rng.next_index(8),
        }),
        9 => Message::Drain,
        10 => Message::DrainAck {
            served: rng.next_u64(),
        },
        11 => Message::Shutdown,
        12 => Message::ShutdownAck,
        13 => Message::Ping,
        14 => Message::Pong,
        _ => unreachable!(),
    }
}

/// A fixed covering set: one representative of every frame kind.
fn one_of_each() -> Vec<Message> {
    let mut rng = SimRng::seed_from(0x00FE);
    vec![
        Message::Request {
            id: 7,
            shard: ShardId(1),
            request: rand_request(&mut rng),
        },
        Message::ReplyOk {
            id: 7,
            response: ShardResponse {
                pooled: vec![(TableId(3), rand_matrix(&mut rng))],
            },
        },
        Message::ReplyErr {
            id: 8,
            error: RpcError::ShardFault {
                shard: ShardId(2),
                message: "bad index".to_string(),
            },
        },
        Message::Register {
            addr: "127.0.0.1:41700".to_string(),
        },
        Message::Assign(Assignment {
            seats: vec![(ShardId(0), 1), (ShardId(1), 1)],
            spec_text: "dlrm-model v1\n".to_string(),
            plan_text: "dlrm-plan v1\n".to_string(),
            seed: 41,
        }),
        Message::GetRoutes,
        Message::Routes(rand_routes(&mut rng)),
        Message::FetchMeta,
        Message::Meta(ClusterMeta {
            spec_text: "s".to_string(),
            plan_text: "p".to_string(),
            seed: 1,
            shards: 2,
            replicas: 2,
        }),
        Message::Drain,
        Message::DrainAck { served: 1234 },
        Message::Shutdown,
        Message::ShutdownAck,
        Message::Ping,
        Message::Pong,
    ]
}

// ---------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------

#[test]
fn every_frame_kind_round_trips() {
    let msgs = one_of_each();
    // All 15 kinds, each exactly once.
    let mut kinds: Vec<u8> = msgs.iter().map(Message::kind).collect();
    kinds.sort_unstable();
    assert_eq!(kinds, (1..=15).collect::<Vec<u8>>());
    for msg in &msgs {
        let buf = wire::encode_message(msg);
        let (decoded, consumed) = wire::try_decode(&buf)
            .expect("valid frame")
            .expect("complete frame");
        assert_eq!(&decoded, msg);
        assert_eq!(consumed, buf.len(), "kind {} leaves bytes behind", msg.kind());
    }
}

#[test]
fn fuzzed_messages_round_trip() {
    let mut rng = SimRng::seed_from(0xD12A);
    for i in 0..400 {
        let msg = rand_message(&mut rng);
        let buf = wire::encode_message(&msg);
        let (decoded, consumed) = wire::try_decode(&buf)
            .unwrap_or_else(|e| panic!("iteration {i}: {e} for {msg:?}"))
            .unwrap_or_else(|| panic!("iteration {i}: complete frame read as partial"));
        assert_eq!(decoded, msg, "iteration {i}");
        assert_eq!(consumed, buf.len(), "iteration {i}");
    }
}

#[test]
fn back_to_back_frames_decode_one_at_a_time() {
    let msgs = one_of_each();
    let mut buf = Vec::new();
    for m in &msgs {
        buf.extend_from_slice(&wire::encode_message(m));
    }
    let mut decoded = Vec::new();
    let mut off = 0;
    while off < buf.len() {
        let (msg, consumed) = wire::try_decode(&buf[off..])
            .expect("valid stream")
            .expect("complete frame");
        decoded.push(msg);
        off += consumed;
    }
    assert_eq!(decoded, msgs);
}

#[test]
fn f32_payloads_round_trip_bit_exactly() {
    // The wire carries f32 as raw bits: negative zero, subnormals,
    // infinities and NaN must all survive untouched.
    let tricky: Vec<f32> = vec![
        -0.0,
        f32::MIN_POSITIVE,
        f32::from_bits(1), // smallest subnormal
        f32::MAX,
        f32::NEG_INFINITY,
        f32::NAN,
    ];
    let msg = Message::ReplyOk {
        id: 1,
        response: ShardResponse {
            pooled: vec![(TableId(0), Matrix::from_vec(2, 3, tricky.clone()))],
        },
    };
    let buf = wire::encode_message(&msg);
    let (decoded, _) = wire::try_decode(&buf).unwrap().unwrap();
    let Message::ReplyOk { response, .. } = decoded else {
        panic!("wrong kind");
    };
    let got = response.pooled[0].1.as_slice();
    for (i, (a, b)) in tricky.iter().zip(got).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "element {i} changed bits");
    }
}

// ---------------------------------------------------------------------
// Truncation and corruption
// ---------------------------------------------------------------------

#[test]
fn every_truncation_of_a_valid_frame_is_a_resumable_prefix() {
    for msg in one_of_each() {
        let buf = wire::encode_message(&msg);
        for cut in 0..buf.len() {
            match wire::try_decode(&buf[..cut]) {
                Ok(None) => {}
                other => panic!(
                    "kind {} cut at {cut}/{}: expected Ok(None), got {other:?}",
                    msg.kind(),
                    buf.len()
                ),
            }
        }
    }
}

#[test]
fn corrupt_header_fields_are_rejected() {
    let buf = wire::encode_message(&Message::DrainAck { served: 9 });
    // Magic bytes.
    for i in 0..4 {
        let mut bad = buf.clone();
        bad[i] ^= 0xFF;
        assert!(wire::try_decode(&bad).is_err(), "magic byte {i} accepted");
    }
    // Unsupported version.
    let mut bad = buf.clone();
    bad[4] += 1;
    assert!(wire::try_decode(&bad).is_err(), "future version accepted");
    // Non-zero reserved bits.
    for i in 6..8 {
        let mut bad = buf.clone();
        bad[i] = 0xAB;
        assert!(wire::try_decode(&bad).is_err(), "reserved byte {i} accepted");
    }
    // Unknown frame kind.
    let mut bad = buf.clone();
    bad[5] = 200;
    assert!(wire::try_decode(&bad).is_err(), "unknown kind accepted");
    // Kind 16 is retired: a frame with its old payload (one address
    // string, as `Register` carries) is unknown, not decoded.
    let mut retired = wire::encode_message(&Message::Register {
        addr: "127.0.0.1:41701".to_string(),
    });
    retired[5] = 16;
    let err = wire::try_decode(&retired).expect_err("retired kind 16 accepted");
    assert!(err.message.contains("unknown frame kind 16"), "{err}");
    // Oversized declared payload: rejected outright, not "wait for 256 MiB".
    let mut bad = buf.clone();
    bad[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    assert!(wire::try_decode(&bad).is_err(), "oversized length accepted");
    // Understated payload length: the payload decoder sees truncated or
    // trailing bytes and must error, never panic.
    let mut bad = buf;
    bad[8..12].copy_from_slice(&2u32.to_le_bytes());
    assert!(wire::try_decode(&bad).is_err(), "understated length accepted");
}

#[test]
fn corrupt_counts_cannot_trigger_huge_allocations() {
    // A Request frame whose slice count claims 2^32-ish elements: the
    // decoder must bounds-check counts against the remaining payload
    // before allocating.
    let msg = Message::Request {
        id: 1,
        shard: ShardId(0),
        request: ShardRequest {
            net: NetId(0),
            slices: vec![TableSlice {
                table: TableId(0),
                indices: vec![1, 2, 3],
                lengths: vec![3],
            }],
        },
    };
    let mut buf = wire::encode_message(&msg);
    // Payload layout: id(8) shard(4) net(4) then slice count at 16.
    buf[HEADER_LEN + 16..HEADER_LEN + 20].copy_from_slice(&u32::MAX.to_le_bytes());
    let err = wire::try_decode(&buf).expect_err("absurd count accepted");
    assert!(err.to_string().contains("count"), "{err}");
}

#[test]
fn random_byte_flips_never_panic() {
    let mut rng = SimRng::seed_from(0xF11B);
    for _ in 0..600 {
        let msg = rand_message(&mut rng);
        let mut buf = wire::encode_message(&msg);
        for _ in 0..1 + rng.next_index(4) {
            let i = rng.next_index(buf.len());
            buf[i] ^= 1 << rng.next_index(8);
        }
        // Any outcome is legal — decode to something, ask for more
        // bytes, or error — as long as it returns.
        let _ = wire::try_decode(&buf);
    }
    // Pure noise buffers too.
    for _ in 0..200 {
        let len = rng.next_index(96);
        let noise: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let _ = wire::try_decode(&noise);
    }
}

// ---------------------------------------------------------------------
// Streamed reads
// ---------------------------------------------------------------------

/// A reader that trickles out a fixed buffer a few bytes per call —
/// worst-case TCP segmentation.
struct Trickle {
    data: Vec<u8>,
    pos: usize,
    chunk: usize,
}

impl std::io::Read for Trickle {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = self
            .chunk
            .min(out.len())
            .min(self.data.len() - self.pos);
        out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[test]
fn read_message_reassembles_split_frames() {
    for msg in one_of_each() {
        let encoded = wire::encode_message(&msg);
        let total = encoded.len();
        let mut r = Trickle {
            data: encoded,
            pos: 0,
            chunk: 3,
        };
        let mut scratch = Vec::new();
        let frame = wire::read_message(&mut r, &mut scratch).expect("reassemble");
        assert_eq!(frame.message, msg);
        assert_eq!(frame.bytes, total);
        // Nothing left over: next read is a clean EOF.
        assert!(matches!(
            wire::read_message(&mut r, &mut scratch),
            Err(ReadError::Closed)
        ));
    }
}

#[test]
fn read_message_classifies_eof_and_garbage() {
    // EOF mid-frame is an I/O error (the peer died), not a clean close.
    let encoded = wire::encode_message(&Message::Ping);
    let mut r = Trickle {
        data: encoded[..encoded.len().min(HEADER_LEN - 2)].to_vec(),
        pos: 0,
        chunk: 64,
    };
    let mut scratch = Vec::new();
    assert!(matches!(
        wire::read_message(&mut r, &mut scratch),
        Err(ReadError::Io(_))
    ));
    // Garbage is malformed, not an I/O failure.
    let mut r = Trickle {
        data: b"HTTP/1.1 200 OK\r\n\r\n".to_vec(),
        pos: 0,
        chunk: 64,
    };
    let mut scratch = Vec::new();
    assert!(matches!(
        wire::read_message(&mut r, &mut scratch),
        Err(ReadError::Malformed(_))
    ));
}
