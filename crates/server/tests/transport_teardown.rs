//! TCP transport teardown: the per-connection reader thread must exit —
//! not leak — on either side hanging up.
//!
//! Two exit chains are under test:
//!
//! * **peer disconnect**: client closes the socket → reader sees EOF,
//!   sends `Disconnect` and exits → the shard drops the session's socket
//!   sink, which shuts the socket down.
//! * **server shutdown**: shards exit and drop every sink → each sink
//!   shuts its socket down (both halves: the client reads EOF, and the
//!   reader's blocked `read` returns) → each reader exits.
//!
//! `TcpTransport::join_connections` polls the spawned handles with a
//! deadline, so a stuck thread fails the test instead of hanging it.
//!
//! Sandboxes without loopback can't bind: those runs skip, matching the
//! other TCP tests (the channel transport carries the logic coverage).

use std::sync::Arc;
use std::time::Duration;

use tm_server::protocol::{Request, Response};
use tm_server::server::{start, ServerConfig};
use tm_server::transport::{serve_tcp, TcpConn};
use tm_stm::{HashKind, StmBuilder};

const JOIN_TIMEOUT: Duration = Duration::from_secs(5);

fn engine() -> Arc<tm_stm::Stm<tm_stm::ConcurrentTaglessTable>> {
    Arc::new(
        StmBuilder::new()
            .heap_words(256)
            .table_entries(1 << 10)
            .hash(HashKind::Multiplicative)
            .build_tagless(),
    )
}

#[test]
fn peer_disconnect_reaps_connection_threads() {
    let eng = engine();
    let server = start(Arc::clone(&eng), ServerConfig::new(256));
    let transport = match serve_tcp(&server, "127.0.0.1:0") {
        Ok(t) => t,
        Err(e) => {
            eprintln!("skipping TCP teardown test: bind failed: {e}");
            server.shutdown();
            return;
        }
    };
    let addr = transport.local_addr();

    // Several concurrent connections, each exercised before hanging up so
    // the reader/writer pairs are demonstrably live when torn down.
    let mut conns = Vec::new();
    for _ in 0..4 {
        let mut conn = TcpConn::connect(addr).expect("connect");
        conn.send(Request::Ping).unwrap();
        let resp = conn
            .recv_timeout(JOIN_TIMEOUT)
            .unwrap()
            .expect("live connection answers");
        assert_eq!(resp.response, Response::Pong);
        conns.push(conn);
    }

    // Clients hang up; every reader and writer must exit on its own.
    drop(conns);
    assert!(
        transport.join_connections(JOIN_TIMEOUT),
        "connection threads leaked after peer disconnect"
    );

    transport.stop();
    server.shutdown();
}

#[test]
fn server_shutdown_reaps_connection_threads() {
    let eng = engine();
    let server = start(Arc::clone(&eng), ServerConfig::new(256));
    let transport = match serve_tcp(&server, "127.0.0.1:0") {
        Ok(t) => t,
        Err(e) => {
            eprintln!("skipping TCP teardown test: bind failed: {e}");
            server.shutdown();
            return;
        }
    };
    let addr = transport.local_addr();

    let mut a = TcpConn::connect(addr).expect("connect a");
    let mut b = TcpConn::connect(addr).expect("connect b");
    a.send(Request::Add { key: 1, delta: 2 }).unwrap();
    b.send(Request::Get { key: 1 }).unwrap();
    assert!(a.recv_timeout(JOIN_TIMEOUT).unwrap().is_some());
    assert!(b.recv_timeout(JOIN_TIMEOUT).unwrap().is_some());

    // Shut the server down while both clients are still connected. The
    // sinks drop with the shards; writers close their sockets (both
    // halves), unblocking the readers.
    server.shutdown();
    assert!(
        transport.join_connections(JOIN_TIMEOUT),
        "connection threads leaked after server shutdown"
    );

    // The clients observe EOF, not a hang.
    assert_eq!(
        a.recv_timeout(Duration::from_millis(500)).unwrap(),
        None,
        "client sees EOF after server shutdown"
    );
    transport.stop();
}

#[test]
fn join_connections_is_idempotent_and_empty_safe() {
    let eng = engine();
    let server = start(Arc::clone(&eng), ServerConfig::new(256));
    let transport = match serve_tcp(&server, "127.0.0.1:0") {
        Ok(t) => t,
        Err(e) => {
            eprintln!("skipping TCP teardown test: bind failed: {e}");
            server.shutdown();
            return;
        }
    };
    // No connections were ever made: joining trivially succeeds, twice.
    assert!(transport.join_connections(Duration::from_millis(50)));
    assert!(transport.join_connections(Duration::from_millis(50)));
    transport.stop();
    server.shutdown();
}
