//! A pooled TCP connection carries its frame buffers: the client
//! encodes each request into, and reads each reply into, buffers that
//! travel with the connection, and the shard server encodes every reply
//! on a connection into one frame. After the first call, further calls
//! on the connection allocate no frame buffer. Its own test binary,
//! because it watches every allocation in the process through a
//! counting global allocator.

use dlrm_model::{EmbeddingTable, NetId, TableId};
use dlrm_serving::fault::ReplicaFaultSchedule;
use dlrm_serving::shard_server::TcpShardServer;
use dlrm_serving::tcp::TcpShardClient;
use dlrm_serving::wire::{encode_message, encode_request_frame, Message};
use dlrm_sharding::rpc::{ShardRequest, ShardResponse, SparseShardClient, TableSlice};
use dlrm_sharding::{
    Location, ShardId, ShardService, ShardingPlan, ShardingStrategy, TablePlacement,
};
use dlrm_tensor::Matrix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Counts allocations (and reallocations) of at least `AT_LEAST` bytes.
struct LargeCounting;

static AT_LEAST: AtomicUsize = AtomicUsize::new(usize::MAX);
static LARGE: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    if size >= AT_LEAST.load(Ordering::Relaxed) {
        LARGE.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: forwards every call to `System` unchanged; only counts.
unsafe impl GlobalAlloc for LargeCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: LargeCounting = LargeCounting;

const DIM: usize = 16;
const LOOKUPS: usize = 20_000;

/// Allocations of at least `frame_bytes` over ten calls of
/// `request`, after one warm-up call.
fn large_allocations(client: &TcpShardClient, request: &ShardRequest, frame_bytes: usize) -> u64 {
    client.execute(request).expect("warm-up call");
    AT_LEAST.store(frame_bytes, Ordering::SeqCst);
    let before = LARGE.load(Ordering::SeqCst);
    for _ in 0..10 {
        client.execute(request).expect("call");
    }
    let large = LARGE.load(Ordering::SeqCst) - before;
    AT_LEAST.store(usize::MAX, Ordering::SeqCst);
    large
}

#[test]
fn calls_on_a_pooled_connection_allocate_no_frame_buffer() {
    let table = Arc::new(EmbeddingTable::seeded("t", 64, DIM as u32, 3));
    let placement = TablePlacement {
        table: TableId(0),
        location: Location::Shards(vec![ShardId(0)]),
    };
    let plan = ShardingPlan::new(ShardingStrategy::OneShard, 1, vec![placement]);
    let service = Arc::new(ShardService::build(&[table], &plan, ShardId(0)));
    let server = TcpShardServer::spawn(
        vec![(service, ReplicaFaultSchedule::none())],
        Duration::ZERO,
    )
    .expect("server");
    let client = TcpShardClient::new(
        ShardId(0),
        &server.addr().to_string(),
        Duration::from_secs(1),
    )
    .expect("client");
    let request = |lengths: Vec<u32>| ShardRequest {
        net: NetId(0),
        slices: vec![TableSlice {
            table: TableId(0),
            indices: (0..LOOKUPS as u64).map(|i| i % 64).collect(),
            lengths,
        }],
    };

    // A large request with a one-row reply: only the request frame (the
    // client's encode buffer, the server's read buffer) is as large as
    // the request frame — the decoded index vector is smaller.
    let one_bag = request(vec![LOOKUPS as u32]);
    let request_frame = encode_request_frame(1, ShardId(0), &one_bag).len();
    let large = large_allocations(&client, &one_bag, request_frame);
    assert_eq!(
        large, 0,
        "request frames: {large} allocations of >= {request_frame} bytes in 10 calls"
    );

    // One row per lookup: a reply frame far larger than the request, and
    // than the decoded reply matrix.
    let one_row_each = request(vec![1; LOOKUPS]);
    let reply = Message::ReplyOk {
        id: 1,
        response: ShardResponse {
            pooled: vec![(TableId(0), Matrix::zeros(LOOKUPS, DIM))],
        },
    };
    let reply_frame = encode_message(&reply).len();
    let large = large_allocations(&client, &one_row_each, reply_frame);
    assert_eq!(
        large, 0,
        "reply frames: {large} allocations of >= {reply_frame} bytes in 10 calls"
    );
    server.shutdown();
}
