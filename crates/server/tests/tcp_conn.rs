//! `TcpConn`'s send-buffer contract over loopback.
//!
//! `send` queues; the bytes leave on the next `recv_timeout` that has to
//! wait, on `flush`, on drop, or once 64 KiB are queued. Each test pins one
//! of those, plus the read side: responses split across reads reassemble
//! in order, and an idle `recv_timeout` honours its deadline.
//!
//! Sandboxes without loopback can't bind: those runs skip, matching the
//! other TCP tests.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tm_server::protocol::{FrameBuf, Request, RequestFrame, Response, ResponseFrame};
use tm_server::server::{start, ServerConfig, ServerHandle};
use tm_server::transport::{serve_tcp, TcpConn, TcpTransport, COALESCE_BYTES};
use tm_stm::{ConcurrentTaglessTable, HashKind, Stm, StmBuilder, TmEngine};

const TIMEOUT: Duration = Duration::from_secs(5);
const KEYS: u64 = 256;

struct Served {
    engine: Arc<Stm<ConcurrentTaglessTable>>,
    server: ServerHandle,
    transport: TcpTransport,
}

impl Served {
    /// `None` (after saying so) where loopback cannot be bound.
    fn start() -> Option<Self> {
        let engine = Arc::new(
            StmBuilder::new()
                .heap_words(KEYS as usize)
                .table_entries(1 << 10)
                .hash(HashKind::Multiplicative)
                .build_tagless(),
        );
        let server = start(Arc::clone(&engine), ServerConfig::new(KEYS));
        match serve_tcp(&server, "127.0.0.1:0") {
            Ok(transport) => Some(Self {
                engine,
                server,
                transport,
            }),
            Err(e) => {
                eprintln!("skipping TcpConn test: bind failed: {e}");
                server.shutdown();
                None
            }
        }
    }

    fn connect(&self) -> TcpConn {
        TcpConn::connect(self.transport.local_addr()).expect("connect over loopback")
    }

    /// Shut down (every accepted write flushes) and return the heap sum.
    fn finish(self) -> u64 {
        self.transport.stop();
        self.server.shutdown();
        self.engine.heap_sum(KEYS as usize)
    }
}

#[test]
fn sends_then_receives_arrive_in_order() {
    let Some(served) = Served::start() else {
        return;
    };
    let mut conn = served.connect();
    let n = 100u64;
    let ids: Vec<u64> = (0..n)
        .map(|i| conn.send(Request::Add { key: 7, delta: i }).unwrap())
        .collect();
    for (i, id) in ids.into_iter().enumerate() {
        let frame = conn.recv_timeout(TIMEOUT).unwrap().expect("answered");
        let running: u64 = (0..=i as u64).sum();
        assert_eq!((frame.id, frame.response), (id, Response::Added(running)));
    }
    drop(conn);
    assert_eq!(served.finish(), (0..n).sum::<u64>());
}

#[test]
fn drop_transmits_what_was_sent() {
    let Some(served) = Served::start() else {
        return;
    };
    let mut conn = served.connect();
    // One round trip first, so the acceptor has the connection and its
    // threads are there to be joined below.
    conn.send(Request::Ping).unwrap();
    assert!(conn.recv_timeout(TIMEOUT).unwrap().is_some());
    conn.send(Request::Add { key: 3, delta: 41 }).unwrap();
    drop(conn); // never received on: the drop is what writes the request
    assert!(
        served.transport.join_connections(TIMEOUT),
        "server saw the request and then the hang-up"
    );
    assert_eq!(served.finish(), 41);
}

#[test]
fn flush_makes_a_send_visible_to_another_connection() {
    let Some(served) = Served::start() else {
        return;
    };
    let (mut writer, mut reader) = (served.connect(), served.connect());
    writer.send(Request::Add { key: 9, delta: 5 }).unwrap();
    writer.flush().unwrap();
    // `writer` never receives, so only the flush can have sent the `Add`.
    // The server applies it on its own schedule: poll from the side.
    let deadline = Instant::now() + TIMEOUT;
    loop {
        reader.send(Request::Get { key: 9 }).unwrap();
        let frame = reader.recv_timeout(TIMEOUT).unwrap().expect("answered");
        match frame.response {
            Response::Value(5) => break,
            Response::Value(0) => assert!(Instant::now() < deadline, "Add never applied"),
            other => panic!("unexpected answer {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    drop((writer, reader));
    assert_eq!(served.finish(), 5);
}

#[test]
fn frames_ahead_of_a_lost_framing_are_served_before_the_hang_up() {
    use std::io::Write;
    let Some(served) = Served::start() else {
        return;
    };
    // Three good frames and a length prefix no frame may have, in one
    // write: the reader forwards the three, then gives the stream up.
    let mut bytes = Vec::new();
    for id in 1..=3 {
        let request = Request::Add { key: 4, delta: 1 };
        bytes.extend(RequestFrame { id, request }.encode());
    }
    bytes.extend(u32::MAX.to_le_bytes());
    let mut stream = std::net::TcpStream::connect(served.transport.local_addr()).unwrap();
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    stream.write_all(&bytes).unwrap();

    let mut fb = FrameBuf::new();
    let mut answers = Vec::new();
    while fb.read_from(&mut stream).expect("a hang-up, not a timeout") > 0 {
        while let Some(frame) = fb.pop_frame().unwrap() {
            let frame = ResponseFrame::decode(frame).unwrap();
            answers.push((frame.id, frame.response));
        }
    }
    let wanted: Vec<_> = (1..=3).map(|n| (n, Response::Added(n))).collect();
    assert_eq!(answers, wanted);
    assert_eq!(served.finish(), 3);
}

#[test]
fn long_pipeline_returns_every_id_in_order() {
    let Some(served) = Served::start() else {
        return;
    };
    let mut conn = served.connect();
    let n = 10_000u64;
    // 22 bytes a `Get`: the queue passes the coalescing bound several
    // times, so `send` itself transmits, and the answers come back split
    // across many reads at arbitrary byte boundaries.
    assert!(n as usize * 22 > 3 * COALESCE_BYTES);
    for i in 0..n {
        assert_eq!(conn.send(Request::Get { key: i % KEYS }).unwrap(), i + 1);
    }
    for i in 0..n {
        let frame = conn.recv_timeout(TIMEOUT).unwrap().expect("answered");
        assert_eq!((frame.id, frame.response), (i + 1, Response::Value(0)));
    }
    drop(conn);
    assert_eq!(served.finish(), 0);
}

#[test]
fn idle_recv_timeout_honours_each_deadline() {
    let Some(served) = Served::start() else {
        return;
    };
    let mut conn = served.connect();
    // Different timeouts in a row: each must re-arm the socket, not
    // inherit the one before it.
    for millis in [120u64, 30, 120] {
        let timeout = Duration::from_millis(millis);
        // Never early. Late by under 50 ms, on one of three tries: a
        // neighbour on the box can delay any one wake-up.
        let in_time = (0..3).any(|_| {
            let t0 = Instant::now();
            assert_eq!(conn.recv_timeout(timeout).unwrap(), None);
            let waited = t0.elapsed();
            assert!(
                waited + Duration::from_millis(2) >= timeout,
                "{waited:?} is short of {timeout:?}"
            );
            waited < timeout + Duration::from_millis(50)
        });
        assert!(in_time, "three waits of {timeout:?} each ran 50 ms over");
    }
    // The connection still works after timing out.
    conn.send(Request::Ping).unwrap();
    let frame = conn.recv_timeout(TIMEOUT).unwrap().expect("answered");
    assert_eq!(frame.response, Response::Pong);
    drop(conn);
    assert_eq!(served.finish(), 0);
}
