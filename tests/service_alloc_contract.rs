//! The served read path's structural contract, as a count of allocator
//! calls across the whole process.
//!
//! One worker, the channel transport, two connections each keeping a
//! window of 32 requests in flight — the shape of the benchmark's
//! `svc-read`. Once warm, a window is one message each way, every frame is
//! encoded into and decoded from a buffer that is already there, and the
//! buffers go round (a connection's used-up sink message is its next
//! outbound buffer, the worker's used-up inbound message is the session's
//! next outbox), so a `Get` costs the allocator nothing on either side.
//! Neither do the two queues the messages cross (`tm_server::queue`): each
//! is a `VecDeque` that keeps the room it grew to in the warm-up.
//!
//! Measured on the reference box, 157 passes of 64 requests (10 048):
//!
//! * all `Get`: **0** allocator calls in the process, every run, debug
//!   and release — and the bound is 0;
//! * every tenth request a `MultiGet` of 4 keys: **4 016** calls, 0.40 a
//!   request — for each of the 1 004 `MultiGet`s, the four key/value
//!   vectors it and its `Values` are made of (built here, decoded by the
//!   worker, read by the worker, decoded here) — against a bound of 0.5 a
//!   request.
//!
//! The worker is another thread, so the counter is process-wide (the
//! thread-local one in `hot_path_contract.rs` would not see it), and this
//! file holds a single test so nothing else in the process allocates while
//! it counts. The timings that go with these counts are ledger rows
//! (`server.allocs_per_op`, `server.worker_cpu_ns_per_op`, … in
//! `benchmark/`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tm_birthday::prelude::*;
use tm_birthday::server::{start, ChannelConn, Request, Response, ServerConfig};

/// Global allocator shim that counts allocation events (not bytes).
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a static atomic
// no allocation depends on.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const KEYS: u64 = 1 << 10;
const WINDOW: u64 = 32;
const MULTI: u64 = 4;
const WARMUP_PASSES: u64 = 16;
/// 157 passes × 2 connections × 32 requests = 10 048 requests.
const PASSES: u64 = 157;
const TIMEOUT: Duration = Duration::from_secs(10);

/// `passes` rounds of a full window on each connection, then its answers;
/// every `multi_every`-th request is a `MultiGet`. Returns the requests
/// made and the allocator calls the process made meanwhile.
fn windows(conns: &mut [ChannelConn; 2], passes: u64, multi_every: Option<u64>) -> (u64, u64) {
    let before = ALLOC_EVENTS.load(Ordering::Relaxed);
    let mut issued = 0u64;
    for _ in 0..passes {
        let first = issued;
        for conn in conns.iter_mut() {
            for _ in 0..WINDOW {
                issued += 1;
                let key = issued % KEYS;
                conn.send(match multi_every {
                    Some(n) if issued.is_multiple_of(n) => Request::MultiGet {
                        keys: (0..MULTI).map(|k| (key + k) % KEYS).collect(),
                    },
                    _ => Request::Get { key },
                });
            }
        }
        let mut answered = first;
        for conn in conns.iter_mut() {
            for _ in 0..WINDOW {
                answered += 1;
                let frame = conn.recv_timeout(TIMEOUT).expect("answered");
                match (multi_every, frame.response) {
                    (Some(n), Response::Values(v)) if answered.is_multiple_of(n) => {
                        assert_eq!(v.len() as u64, MULTI)
                    }
                    (_, Response::Value(0)) => {}
                    (_, other) => panic!("request {answered} answered {other:?}"),
                }
            }
        }
    }
    (issued, ALLOC_EVENTS.load(Ordering::Relaxed) - before)
}

#[test]
fn a_served_read_allocates_nothing_once_warm() {
    let engine = Arc::new(
        StmBuilder::new()
            .heap_words(KEYS as usize)
            .table_entries(1 << 12)
            .build_tagless(),
    );
    let mut config = ServerConfig::new(KEYS);
    config.shards = 1;
    let server = start(engine, config);
    let mut conns = [server.connect(), server.connect()];

    // Warm up with the larger frames, so every buffer in the loop has
    // grown to what either mix needs.
    windows(&mut conns, WARMUP_PASSES, Some(10));

    let (requests, allocs) = windows(&mut conns, PASSES, None);
    assert_eq!(
        allocs, 0,
        "{allocs} allocator calls for {requests} Gets: something on the read path allocates \
         per request or per window again"
    );

    let (requests, allocs) = windows(&mut conns, PASSES, Some(10));
    assert!(
        (allocs as f64) < 0.5 * requests as f64,
        "{allocs} allocator calls for {requests} requests, a tenth of them MultiGets"
    );
    // The four vectors of each MultiGet are real: a count far below them
    // would mean the counter is not seeing the worker.
    assert!(
        allocs >= 4 * (requests / 10),
        "{allocs} is too few to be true"
    );

    drop(conns);
    server.shutdown();
}
