//! Reads answered where they arrive, seen from the clients.
//!
//! A message of `Get`/`MultiGet` frames from a session with nothing
//! outstanding at its worker is answered by the thread that received it —
//! the `ChannelConn` caller, or the TCP connection's reader — and
//! everything else goes to the worker. Whichever path a window takes, every
//! answer here is checked against a model of the store:
//!
//! * windows `[Get…]`, `[Add, Get]`, `[Get]` on one session keep FIFO across
//!   the two paths, and a `Get` behind an unanswered `Add` sees it;
//! * after `Close`, a later `Get` is not answered, and after `shutdown`
//!   `recv_timeout` returns `None`;
//! * a `Get` whose payload is cut short is answered `Error(Malformed)` and
//!   counted once;
//! * `Ping` is still answered, in order between reads (the `transport`
//!   unit tests watch it cross to the worker);
//! * a TCP pipeline of reads and writes larger than the socket buffers,
//!   read late, loses nothing (the read-only one is `tcp_stall` (c));
//! * eight threads reading at once under the transport's one engine id
//!   lose no count.
//!
//! Sandboxes without loopback can't bind: the TCP halves skip, matching
//! the other TCP tests.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use tm_server::protocol::{ErrorCode, FrameBuf, Request, RequestFrame, Response, ResponseFrame};
use tm_server::server::{start, ServerConfig, ServerHandle};
use tm_server::transport::{serve_tcp, ChannelConn, TcpConn, TcpTransport, WRITE_STALL};
use tm_stm::{ConcurrentTaglessTable, HashKind, Stm, StmBuilder, TmEngine};

const KEYS: u64 = 1024;
const TIMEOUT: Duration = Duration::from_secs(10);
/// How long an answer that must never come is waited for.
const NEVER: Duration = Duration::from_millis(300);

type Engine = Stm<ConcurrentTaglessTable>;

/// A server with `workers` workers over a fresh `KEYS`-word engine.
fn serve(workers: u32) -> (Arc<Engine>, ServerHandle) {
    let engine = Arc::new(
        StmBuilder::new()
            .heap_words(KEYS as usize)
            .table_entries(1 << 10)
            .hash(HashKind::Multiplicative)
            .build_tagless(),
    );
    let mut config = ServerConfig::new(KEYS);
    config.shards = workers;
    (Arc::clone(&engine), start(engine, config))
}

/// A TCP front-end for `server`, or `None` (after saying so) where
/// loopback cannot be bound.
fn tcp(server: &ServerHandle) -> Option<TcpTransport> {
    match serve_tcp(server, "127.0.0.1:0") {
        Ok(transport) => Some(transport),
        Err(e) => {
            eprintln!("skipping the TCP half: bind failed: {e}");
            None
        }
    }
}

/// The two client connection types behind one interface.
trait Client {
    fn send(&mut self, request: Request) -> u64;
    fn flush(&mut self);
    /// The next answer, or `None` on a deadline, a hang-up or an error.
    fn recv(&mut self, timeout: Duration) -> Option<ResponseFrame>;
}

impl Client for ChannelConn {
    fn send(&mut self, request: Request) -> u64 {
        ChannelConn::send(self, request)
    }
    fn flush(&mut self) {
        ChannelConn::flush(self)
    }
    fn recv(&mut self, timeout: Duration) -> Option<ResponseFrame> {
        self.recv_timeout(timeout)
    }
}

impl Client for TcpConn {
    fn send(&mut self, request: Request) -> u64 {
        TcpConn::send(self, request).expect("queued")
    }
    fn flush(&mut self) {
        // A hang-up shows at the next `recv`.
        let _ = TcpConn::flush(self);
    }
    fn recv(&mut self, timeout: Duration) -> Option<ResponseFrame> {
        self.recv_timeout(timeout).ok().flatten()
    }
}

/// Send `window` as one window, then check its answers, in order.
fn exchange(client: &mut dyn Client, window: &[(Request, Response)]) {
    let ids: Vec<u64> = window.iter().map(|(r, _)| client.send(r.clone())).collect();
    for (id, (request, wanted)) in ids.into_iter().zip(window) {
        let frame = client.recv(TIMEOUT).expect("answered");
        assert_eq!((frame.id, &frame.response), (id, wanted), "{request:?}");
    }
}

fn get(key: u64, value: u64) -> (Request, Response) {
    (Request::Get { key }, Response::Value(value))
}

fn add(key: u64, delta: u64, now: u64) -> (Request, Response) {
    (Request::Add { key, delta }, Response::Added(now))
}

/// The windows of the first bullet, on one session.
fn fifo_across_both_paths(client: &mut dyn Client) {
    // All reads, nothing outstanding: answered where they arrive.
    let reads: Vec<_> = (0..8).map(|k| get(k, 0)).collect();
    exchange(client, &reads);
    // A mixed window goes to the worker; its `Get` reads its `Add`.
    exchange(client, &[add(3, 5, 5), get(3, 5)]);
    // Settled again: answered where it arrives, and sees the write.
    exchange(client, &[get(3, 5)]);
    let multi = (
        Request::MultiGet { keys: vec![3, 4] },
        Response::Values(vec![5, 0]),
    );
    exchange(client, &[multi]);
    // A `Get` behind an `Add` the worker has not answered yet waits for it
    // and sees it.
    let (a, added) = add(3, 2, 7);
    let a = client.send(a);
    client.flush();
    let (g, value) = get(3, 7);
    let g = client.send(g);
    for (id, wanted) in [(a, added), (g, value)] {
        let frame = client.recv(TIMEOUT).expect("answered");
        assert_eq!((frame.id, frame.response), (id, wanted));
    }
}

/// `Close` is answered, and nothing after it is.
fn nothing_after_close(client: &mut dyn Client) {
    exchange(client, &[get(9, 0)]);
    exchange(client, &[(Request::Close, Response::Closed)]);
    client.send(Request::Get { key: 9 });
    assert_eq!(client.recv(NEVER), None, "a Get after Close");
}

#[test]
fn fifo_and_read_your_writes_hold_across_both_paths_over_channels() {
    let (engine, server) = serve(1);
    fifo_across_both_paths(&mut server.connect());
    let stats = server.shutdown();
    assert_eq!((stats.requests, stats.reads), (14, 12));
    assert_eq!(engine.heap_sum(KEYS as usize), 7);
}

#[test]
fn fifo_and_read_your_writes_hold_across_both_paths_over_tcp() {
    let (engine, server) = serve(1);
    let Some(transport) = tcp(&server) else {
        server.shutdown();
        return;
    };
    let mut conn = TcpConn::connect(transport.local_addr()).expect("connect");
    fifo_across_both_paths(&mut conn);
    drop(conn);
    transport.stop();
    let stats = server.shutdown();
    assert_eq!((stats.requests, stats.reads), (14, 12));
    assert_eq!(engine.heap_sum(KEYS as usize), 7);
}

#[test]
fn a_get_after_close_is_not_answered() {
    let (_, server) = serve(1);
    nothing_after_close(&mut server.connect());
    let mut read = 2;
    if let Some(transport) = tcp(&server) {
        let mut conn = TcpConn::connect(transport.local_addr()).expect("connect");
        nothing_after_close(&mut conn);
        read += 2;
        drop(conn);
        transport.stop();
    }
    let stats = server.shutdown();
    assert_eq!(stats.requests, read, "the Gets after Close went unread");
}

#[test]
fn after_shutdown_a_get_is_not_answered() {
    let (_, server) = serve(1);
    let mut conn = server.connect();
    exchange(&mut conn, &[get(1, 0)]);
    conn.send(Request::Get { key: 1 });
    server.shutdown();
    assert_eq!(conn.recv_timeout(NEVER), None);
    assert_eq!(conn.try_recv(), None);
}

/// A `Get` frame whose payload is one byte short, its length prefix
/// matching: the envelope is readable, the payload is not.
fn cut_get(id: u64) -> Vec<u8> {
    let mut frame = RequestFrame {
        id,
        request: Request::Get { key: 1 },
    }
    .encode();
    frame.pop();
    let len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame
}

#[test]
fn a_cut_get_is_answered_malformed_and_counted_once() {
    let (_, server) = serve(1);
    // Over a channel `send_raw` hands the frame to the worker.
    let mut conn = server.connect();
    conn.send_raw(cut_get(41));
    let frame = conn.recv_timeout(TIMEOUT).expect("answered");
    assert_eq!(
        (frame.id, frame.response),
        (41, Response::Error(ErrorCode::Malformed))
    );
    let mut expected = (0, 1);
    // Over TCP the reader answers it, between two reads, as the worker
    // does.
    if let Some(transport) = tcp(&server) {
        let mut raw = TcpStream::connect(transport.local_addr()).expect("connect");
        let mut message = RequestFrame {
            id: 1,
            request: Request::Get { key: 1 },
        }
        .encode();
        message.extend(cut_get(2));
        message.extend(
            RequestFrame {
                id: 3,
                request: Request::MultiGet { keys: vec![1, 2] },
            }
            .encode(),
        );
        raw.write_all(&message).expect("write");
        raw.set_read_timeout(Some(TIMEOUT)).expect("timeout");
        let mut fb = FrameBuf::new();
        let mut answers = Vec::new();
        let mut buf = [0u8; 256];
        while answers.len() < 3 {
            let n = raw.read(&mut buf).expect("read");
            assert!(n > 0, "hung up after {answers:?}");
            fb.extend(&buf[..n]);
            while let Some(frame) = fb.next_frame().expect("whole frames") {
                let frame = ResponseFrame::decode(&frame).expect("valid");
                answers.push((frame.id, frame.response));
            }
        }
        let wanted = [
            (1, Response::Value(0)),
            (2, Response::Error(ErrorCode::Malformed)),
            (3, Response::Values(vec![0, 0])),
        ];
        assert_eq!(answers, wanted);
        expected = (2, 2);
        drop(raw);
        transport.stop();
    }
    let stats = server.shutdown();
    assert_eq!((stats.requests, stats.malformed), expected);
    assert_eq!(stats.sessions_closed, 0);
}

#[test]
fn ping_is_answered_in_order_between_reads() {
    let (_, server) = serve(1);
    let mut conn = server.connect();
    let pong = conn.request(Request::Ping, TIMEOUT).expect("answered");
    assert_eq!(pong.response, Response::Pong);
    exchange(&mut conn, &[get(1, 0), (Request::Ping, Response::Pong)]);
    let stats = server.shutdown();
    assert_eq!((stats.requests, stats.reads), (3, 3));
}

#[test]
fn a_mixed_tcp_pipeline_larger_than_the_socket_buffers_read_late_loses_nothing() {
    /// Keys per `MultiGet`: an answer is about 8 KB.
    const WIDTH: u64 = 1000;
    /// Requests in the burst: about 8 MB of answers, where loopback
    /// buffers a megabyte or two for a peer that does not read.
    const BURST: u64 = 1024;
    let (engine, server) = serve(1);
    let Some(transport) = tcp(&server) else {
        server.shutdown();
        return;
    };
    let mut conn = TcpConn::connect(transport.local_addr()).expect("connect");
    // Every sixteenth request bumps key 0, which every `MultiGet` reads.
    let mut wanted = Vec::new();
    let mut bumps = 0;
    for i in 0..BURST {
        let request = if i % 16 == 15 {
            bumps += 1;
            wanted.push(Response::Added(bumps));
            Request::Add { key: 0, delta: 1 }
        } else {
            let mut values = vec![0; WIDTH as usize];
            values[0] = bumps;
            wanted.push(Response::Values(values));
            Request::MultiGet {
                keys: (0..WIDTH).collect(),
            }
        };
        assert_eq!(conn.send(request).expect("queued"), i + 1);
    }
    conn.flush().expect("written");
    // Start reading well inside the bound.
    std::thread::sleep(WRITE_STALL / 4);
    for (id, wanted) in (1..).zip(wanted) {
        let frame = conn.recv_timeout(TIMEOUT).expect("read").expect("answered");
        assert_eq!((frame.id, frame.response), (id, wanted));
    }
    drop(conn);
    transport.stop();
    let stats = server.shutdown();
    assert_eq!(stats.requests, BURST);
    assert_eq!(engine.heap_sum(KEYS as usize), bumps);
}

#[test]
fn eight_readers_under_the_transport_id_lose_no_count() {
    const THREADS: u64 = 8;
    const GETS: u64 = 10_000;
    let (engine, server) = serve(1);
    let before = engine.engine_stats().read_only_commits;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let mut conn = server.connect();
            s.spawn(move || {
                for i in 0..GETS {
                    let key = (t * GETS + i) % KEYS;
                    let frame = conn.request(Request::Get { key }, TIMEOUT);
                    assert_eq!(frame.expect("answered").response, Response::Value(0));
                }
            });
        }
    });
    let reads = engine.engine_stats().read_only_commits - before;
    let stats = server.shutdown();
    assert_eq!(reads, THREADS * GETS);
    assert_eq!(stats.reads, THREADS * GETS);
}
