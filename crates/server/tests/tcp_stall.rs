//! A TCP client that stops reading cannot hold its worker.
//!
//! A session's worker writes the session's responses to its socket itself,
//! so a client that leaves its socket full blocks that worker, and with it
//! every other session the worker serves. The write gives up after
//! `WRITE_STALL` and closes the session. One worker serves every session
//! here:
//!
//! * **(a)** session A pipelines a burst of answers several times larger
//!   than loopback's socket buffers and reads nothing. Once the bound has
//!   passed, A reads EOF behind the whole frames already written: the
//!   burst was cut short.
//! * **(b)** session B, on the same worker, gets every answer while A
//!   stalls it, and its round trips are quick again once A is closed.
//! * **(c)** a client that drains the same burst late, but within the
//!   bound, gets every answer, in order.
//!
//! Sandboxes without loopback can't bind: those runs skip, matching the
//! other TCP tests.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tm_server::protocol::{Request, Response};
use tm_server::server::{start, ServerConfig, ServerHandle};
use tm_server::transport::{serve_tcp, TcpConn, TcpTransport, WRITE_STALL};
use tm_stm::{HashKind, StmBuilder};

const KEYS: u64 = 1024;
/// Keys per `MultiGet`: an answer is about 8 KB.
const WIDTH: u64 = 1000;
/// `MultiGet`s in a burst: about 8 MB of answers, where loopback buffers a
/// megabyte or two for a peer that does not read.
const BURST: u64 = 1024;
/// Long enough for any round trip that is not stuck behind a stall.
const TIMEOUT: Duration = Duration::from_secs(10);

/// A one-worker server over TCP, or `None` where loopback can't be bound.
fn serve() -> Option<(ServerHandle, TcpTransport)> {
    let engine = Arc::new(
        StmBuilder::new()
            .heap_words(KEYS as usize)
            .table_entries(1 << 10)
            .hash(HashKind::Multiplicative)
            .build_tagless(),
    );
    let mut config = ServerConfig::new(KEYS);
    config.shards = 1;
    let server = start(engine, config);
    match serve_tcp(&server, "127.0.0.1:0") {
        Ok(transport) => Some((server, transport)),
        Err(e) => {
            eprintln!("skipping TCP stall test: bind failed: {e}");
            server.shutdown();
            None
        }
    }
}

/// Pipeline the burst onto the wire without reading anything.
fn send_burst(conn: &mut TcpConn) {
    for i in 0..BURST {
        assert_eq!(
            conn.send(Request::MultiGet {
                keys: (0..WIDTH).collect(),
            })
            .unwrap(),
            i + 1
        );
    }
    conn.flush().unwrap();
}

/// Read the burst's answers until all have arrived or `recv_timeout` comes
/// back empty. Returns how many arrived, each checked to be the next of the
/// burst, and whether an early end was EOF (well before `TIMEOUT`) rather
/// than the deadline.
fn drain(conn: &mut TcpConn) -> (u64, bool) {
    let mut answered = 0;
    while answered < BURST {
        let asked = Instant::now();
        let Some(frame) = conn.recv_timeout(TIMEOUT).unwrap() else {
            return (answered, asked.elapsed() < TIMEOUT / 2);
        };
        answered += 1;
        assert_eq!(frame.id, answered, "answers in order");
        assert_eq!(frame.response, Response::Values(vec![0; WIDTH as usize]));
    }
    (answered, false)
}

/// One `Ping` round trip on `conn`, which must be answered; returns its time.
fn round_trip(conn: &mut TcpConn) -> Duration {
    let asked = Instant::now();
    let id = conn.send(Request::Ping).unwrap();
    let pong = conn.recv_timeout(TIMEOUT).unwrap().expect("B is answered");
    assert_eq!((pong.id, pong.response), (id, Response::Pong));
    asked.elapsed()
}

#[test]
fn a_stalled_client_is_closed_and_its_worker_recovers() {
    let Some((server, transport)) = serve() else {
        return;
    };
    let mut a = TcpConn::connect(transport.local_addr()).expect("connect A");
    let mut b = TcpConn::connect(transport.local_addr()).expect("connect B");
    round_trip(&mut b);

    send_burst(&mut a);
    // (b) B keeps asking while the worker is stuck on A's socket, and past
    // the point where the bound closed A (with room for a slow box).
    let stalled = Instant::now();
    let mut slowest = Duration::ZERO;
    while stalled.elapsed() < 3 * WRITE_STALL {
        slowest = slowest.max(round_trip(&mut b));
    }

    // (a) A reads what was written before the close, then EOF.
    let (answered, eof) = drain(&mut a);
    assert!(
        answered < BURST,
        "A was never closed: all {BURST} answers arrived"
    );
    assert!(eof, "A's read ended at the deadline, not at EOF");

    // (b) With A gone, B's round trips are quick again.
    for _ in 0..20 {
        let rtt = round_trip(&mut b);
        assert!(
            rtt < WRITE_STALL / 4,
            "B still waits {rtt:?} a round trip after A was closed"
        );
    }
    eprintln!(
        "A got {answered} of {BURST} answers before EOF; B's slowest round trip \
         during the stall was {slowest:?}"
    );
    drop((a, b));
    transport.stop();
    server.shutdown();
}

#[test]
fn a_client_that_reads_late_within_the_bound_loses_nothing() {
    let Some((server, transport)) = serve() else {
        return;
    };
    let mut c = TcpConn::connect(transport.local_addr()).expect("connect C");
    send_burst(&mut c);
    // (c) Start reading well inside the bound: the worker is blocked on
    // C's full socket by now, and resumes as C drains it.
    std::thread::sleep(WRITE_STALL / 4);
    let (answered, _) = drain(&mut c);
    assert_eq!(answered, BURST, "every answer of the burst, in order");
    drop(c);
    transport.stop();
    server.shutdown();
}
