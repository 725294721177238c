//! Smoke of the service layer through the facade: a 4-table sharded engine
//! served over loopback TCP to two pipelining clients.
//!
//! Each client owns the keys of one parity, and a session is answered in
//! order, so the answer to every request is known when it is sent: every
//! response is checked against a model, and at the end the heap must sum
//! to the increments the clients saw acknowledged.
//!
//! A second test sends one connection a window several times longer than
//! what a worker answers between two deliveries, so its responses cross
//! many multi-frame sink messages and socket writes and must still arrive
//! in order.
//!
//! A third sends writes one at a time: nothing follows a write, so the
//! worker's empty queue commits it and no round trip waits for a timer.
//!
//! Sandboxes without loopback can't bind: those runs skip.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use tm_birthday::prelude::*;
use tm_birthday::server::{
    serve_tcp, start, Request, Response, ServerConfig, ServerHandle, TcpConn, TcpTransport,
};

const KEYS: u64 = 1 << 10;
const CONNS: u64 = 2;
const WINDOWS: u64 = 3;
const WINDOW: u64 = 32;
const LONG_WINDOW: u64 = 600;
const TIMEOUT: Duration = Duration::from_secs(5);

/// Request `i` of a connection's stream and, from `model` (updated in
/// place), the one response that answers it.
fn exchange(conn: u64, i: u64, model: &mut [u64]) -> (Request, Response) {
    // Keys of this connection's parity, wandering over the whole universe.
    let key = |n: u64| (n * 2 + conn) % KEYS;
    match i % 4 {
        0 | 2 => {
            let (key, delta) = (key(i * 37), i + 1);
            model[key as usize] += delta;
            let added = Response::Added(model[key as usize]);
            (Request::Add { key, delta }, added)
        }
        1 => {
            // One key in each quarter of the universe: with four tables
            // the commit spans them.
            let keys: Vec<u64> = (0..4).map(|q| key(q * KEYS / 8 + i)).collect();
            keys.iter().for_each(|&k| model[k as usize] += 3);
            (
                Request::MultiAdd { keys, delta: 3 },
                Response::MultiAdded { applied: 4 },
            )
        }
        // Reads a key this window wrote: read-your-writes.
        _ => {
            let key = key((i - 1) * 37);
            (Request::Get { key }, Response::Value(model[key as usize]))
        }
    }
}

/// The 4-table engine served over loopback with `conns` clients connected;
/// `None` (after saying so) where loopback cannot be bound.
fn serve(conns: u64) -> Option<(Arc<impl TmEngine>, ServerHandle, TcpTransport, Vec<TcpConn>)> {
    let engine = Arc::new(
        StmBuilder::new()
            .heap_words(KEYS as usize)
            .table_entries(1 << 10)
            .shards(4)
            .build_sharded_tagless(),
    );
    let server = start(Arc::clone(&engine), ServerConfig::new(KEYS));
    let transport = match serve_tcp(&server, "127.0.0.1:0") {
        Ok(transport) => transport,
        Err(e) => {
            eprintln!("skipping TCP service smoke: bind failed: {e}");
            server.shutdown();
            return None;
        }
    };
    let conns = (0..conns)
        .map(|_| TcpConn::connect(transport.local_addr()).expect("connect over loopback"))
        .collect();
    Some((engine, server, transport, conns))
}

#[test]
fn pipelined_windows_over_tcp_match_the_model() {
    let Some((engine, server, transport, mut conns)) = serve(CONNS) else {
        return;
    };

    let mut model = vec![0u64; KEYS as usize];
    let mut expected: Vec<VecDeque<(u64, Response)>> = vec![VecDeque::new(); CONNS as usize];
    for window in 0..WINDOWS {
        // A window of sends on every connection, then every answer.
        for (c, conn) in conns.iter_mut().enumerate() {
            for i in window * WINDOW..(window + 1) * WINDOW {
                let (request, response) = exchange(c as u64, i, &mut model);
                assert!(
                    i % WINDOW != WINDOW - 1 || matches!(request, Request::Get { .. }),
                    "a window ends in a read"
                );
                let id = conn.send(request).expect("queue a request");
                expected[c].push_back((id, response));
            }
        }
        for (c, conn) in conns.iter_mut().enumerate() {
            while let Some((id, response)) = expected[c].pop_front() {
                let frame = conn
                    .recv_timeout(TIMEOUT)
                    .expect("socket read")
                    .expect("answered in time");
                assert_eq!((frame.id, frame.response), (id, response), "conn {c}");
            }
        }
    }

    drop(conns);
    transport.stop();
    server.shutdown();
    // Every increment in the model was acknowledged (asserted above), so
    // the model's sum is the acknowledged sum.
    let acked: u64 = model.iter().sum();
    assert!(acked > 0);
    assert_eq!(engine.heap_sum(KEYS as usize), acked);
}

#[test]
fn one_long_window_over_tcp_is_answered_in_order() {
    let Some((engine, server, transport, mut conns)) = serve(1) else {
        return;
    };
    let conn = &mut conns[0];

    let mut model = vec![0u64; KEYS as usize];
    let expected: Vec<(u64, Response)> = (0..LONG_WINDOW)
        .map(|i| {
            let (request, response) = exchange(0, i, &mut model);
            (conn.send(request).expect("queue a request"), response)
        })
        .collect();
    for (id, response) in expected {
        let frame = conn
            .recv_timeout(TIMEOUT)
            .expect("socket read")
            .expect("answered in time");
        assert_eq!((frame.id, frame.response), (id, response));
    }

    drop(conns);
    transport.stop();
    server.shutdown();
    assert_eq!(engine.heap_sum(KEYS as usize), model.iter().sum::<u64>());
}

#[test]
fn lone_writes_over_tcp_do_not_wait_for_the_latency_budget() {
    let Some((engine, server, transport, mut conns)) = serve(1) else {
        return;
    };
    let conn = &mut conns[0];
    let budget = ServerConfig::new(KEYS).batch.latency_budget;

    // A commit held for company would make every round trip at least the
    // budget long; the fastest of a hundred is far below it.
    let fastest = (1..=100u64)
        .map(|n| {
            let sent = std::time::Instant::now();
            let id = conn.send(Request::Add { key: 5, delta: 1 }).expect("queue");
            let frame = conn
                .recv_timeout(TIMEOUT)
                .expect("socket read")
                .expect("answered in time");
            assert_eq!((frame.id, frame.response), (id, Response::Added(n)));
            sent.elapsed()
        })
        .min()
        .expect("a hundred round trips");
    assert!(fastest < budget / 5, "fastest of 100: {fastest:?}");

    drop(conns);
    transport.stop();
    server.shutdown();
    assert_eq!(engine.heap_sum(KEYS as usize), 100);
}
