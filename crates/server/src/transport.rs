//! Transports: how encoded frames reach the ingress plane.
//!
//! Two implementations share one contract: deliver request frames as
//! [`ServerMsg::Frames`] — messages of whole frames, as many as were ready
//! — and take the session's responses, whole frames too, back:
//!
//! * **channel** — an in-process transport over [`crate::queue`]: the
//!   worker's inbound queue one way, the session's sink the other. Frames
//!   are *fully encoded and decoded* on both directions, so the wire
//!   format is exercised end to end, but no sockets are involved: CI,
//!   tests, and the load generator run hermetically.
//! * **tcp** — a `std::net` listener with one reader thread per
//!   connection, whose session's worker writes the responses to the socket
//!   itself ([`SocketSink`]), and [`TcpConn`] on the client side.
//!
//! A hand-over — a socket call, or a channel send and the wake-up behind
//! it — costs a microsecond where a frame costs tens of nanoseconds, so
//! every stage moves as many frames per hand-over as are ready:
//!
//! * **one send rule for both connection types.** [`ChannelConn::send`] and
//!   [`TcpConn::send`] encode into a retained outbound buffer. It leaves —
//!   as one ingress message, as one socket write — when the caller turns
//!   to receive and has to wait, on `flush()`, when the connection is
//!   dropped, or at once when it holds [`COALESCE_BYTES`]. One request in
//!   flight is still one hand-over each way; a pipelined window is one
//!   each way too. A caller that sends and then waits for the effect
//!   through some other channel must `flush` first.
//! * the server's socket **reader** reads straight into [`FrameBuf`]'s
//!   spare room and forwards everything up to the last whole frame as one
//!   message; the **worker** writes a session's outbox — the responses it
//!   made in one wake-up — to the socket in one `write`, so an answer
//!   crosses no thread on its way out.
//! * both clients decode responses **in place** — [`ChannelConn`] from the
//!   sink message, [`TcpConn`] from its [`FrameBuf`] — and the TCP client
//!   re-arms its socket timeout only when it changes.
//! * the buffers **go round**. A [`ChannelConn`]'s used-up sink message is
//!   its next outbound buffer, and a worker's used-up inbound message is
//!   that session's next outbox
//!   ([`SessionRegistry::recycle`](crate::session::SessionRegistry::recycle)),
//!   so a steady window of reads over the channel transport allocates
//!   nothing on either side. A TCP session's outbox is written and reused
//!   in place.
//!
//! Every stage stops gathering at [`COALESCE_BYTES`], which bounds the
//! buffers; how far a TCP client can pipeline before it must receive is
//! bounded by the kernel's socket buffers, as it is for any TCP peer. A TCP
//! session's responses queue in its outbox and the kernel's socket buffers
//! only: a client that stops reading is closed after [`WRITE_STALL`]. The
//! other queues are not bounded: see DESIGN.md "Transport".

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::protocol::{frame_len, DecodeError, FrameBuf, Request, RequestFrame, ResponseFrame};
use crate::queue::{channel, Receiver};
use crate::server::{Ingress, ServerHandle};
use crate::session::{ServerMsg, SessionId, Sink};

impl ServerHandle {
    /// Open an in-process connection: a fresh session over the channel
    /// transport. Panics if the server has already shut down.
    pub fn connect(&self) -> ChannelConn {
        let session = self.alloc_session();
        let (sink, rx) = channel();
        let ingress = self.ingress();
        ingress
            .send(ServerMsg::Connect {
                session,
                sink: Sink::Channel(sink),
            })
            .expect("server is running");
        ChannelConn {
            ingress,
            session,
            rx,
            out: Vec::new(),
            message: Vec::new(),
            cursor: 0,
            next_id: 1,
        }
    }
}

/// One client connection over the in-process channel transport.
///
/// Pipelining is the intended use: issue many [`ChannelConn::send`]s, then
/// drain responses — the server answers a session's requests in order, and
/// the returned correlation ids let the client match them up regardless.
/// Requests collect in an outbound buffer and reach the server as one
/// message when the caller turns to receive.
pub struct ChannelConn {
    ingress: Ingress,
    session: SessionId,
    rx: Receiver<Vec<u8>>,
    /// Encoded requests not yet handed to the server.
    out: Vec<u8>,
    /// The sink message being read — one or more whole frames — and where
    /// in it the next frame starts.
    message: Vec<u8>,
    cursor: usize,
    next_id: u64,
}

impl ChannelConn {
    /// This connection's session id.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// Encode and queue one request; returns its correlation id.
    ///
    /// The server may not have the request when this returns. It is handed
    /// over by the next [`ChannelConn::try_recv`] or
    /// [`ChannelConn::recv_timeout`] that finds no response already
    /// delivered, by [`ChannelConn::flush`], when the connection is
    /// disconnected or dropped, or at once when [`COALESCE_BYTES`] are
    /// queued. A caller that sends and then waits for the effect through
    /// some other channel must `flush` first.
    pub fn send(&mut self, request: Request) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        if self.out.capacity() == 0 && self.cursor == self.message.len() {
            // The sink message just read through is the next outbound
            // buffer: in a steady exchange neither side allocates.
            self.out = std::mem::take(&mut self.message);
            self.out.clear();
            self.cursor = 0;
        }
        RequestFrame { id, request }.encode_into(&mut self.out);
        if self.out.len() >= COALESCE_BYTES {
            self.flush();
        }
        id
    }

    /// Hand every queued request to the server now, as one message.
    /// Dropped silently if the server is gone.
    pub fn flush(&mut self) {
        if !self.out.is_empty() {
            let bytes = std::mem::take(&mut self.out);
            self.send_message(bytes);
        }
    }

    /// Send pre-encoded bytes as a message of their own, behind anything
    /// [`ChannelConn::send`] had queued (tests and fault injection use this
    /// to deliver malformed frames). Dropped silently if the server is gone.
    pub fn send_raw(&mut self, bytes: Vec<u8>) {
        self.flush();
        self.send_message(bytes);
    }

    fn send_message(&self, bytes: Vec<u8>) {
        let _ = self.ingress.send(ServerMsg::Frames {
            session: self.session,
            bytes,
        });
    }

    /// Non-blocking poll for the next response.
    pub fn try_recv(&mut self) -> Option<ResponseFrame> {
        self.pop_frame(|rx| rx.try_recv().ok())
    }

    /// Wait up to `timeout` for the next response.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Option<ResponseFrame> {
        self.pop_frame(|rx| rx.recv_timeout(timeout).ok())
    }

    /// Decode the next frame of the current sink message in place. Once
    /// that message is used up, the server must have the requests whose
    /// answers this waits for: flush, then take the next message from
    /// `refill`.
    fn pop_frame(
        &mut self,
        refill: impl FnOnce(&Receiver<Vec<u8>>) -> Option<Vec<u8>>,
    ) -> Option<ResponseFrame> {
        if self.cursor == self.message.len() {
            self.flush();
            self.message = refill(&self.rx)?;
            self.cursor = 0;
        }
        let rest = &self.message[self.cursor..];
        let len = frame_len(rest)
            .ok()
            .flatten()
            .expect("server emits whole frames");
        self.cursor += len;
        Some(ResponseFrame::decode(&rest[..len]).expect("server emits valid frames"))
    }

    /// Convenience round-trip: send `request`, wait up to `timeout` for
    /// its response (asserting in-order answering: the next response must
    /// carry this request's id).
    pub fn request(&mut self, request: Request, timeout: Duration) -> Option<ResponseFrame> {
        let id = self.send(request);
        let resp = self.recv_timeout(timeout)?;
        assert_eq!(resp.id, id, "session responses must arrive in order");
        Some(resp)
    }

    /// Tell the server this session hung up (behind everything sent so
    /// far), without dropping the connection object. Fault injection uses
    /// this to model an abrupt peer disconnect mid-conversation; any
    /// responses already queued can still be drained from the local
    /// receiver.
    pub fn disconnect(&mut self) {
        self.flush();
        let _ = self.ingress.send(ServerMsg::Disconnect {
            session: self.session,
        });
    }
}

impl Drop for ChannelConn {
    fn drop(&mut self) {
        // Requests sent but never waited for still reach the server.
        self.disconnect();
    }
}

/// Bytes gathered before they are passed on: into one socket write on
/// either end of a TCP connection, and into one sink message in a session's
/// outbox. Bounds those buffers (a session's outbox, and so one write of
/// it, to this plus one frame) without costing throughput: a write this
/// large already amortises its syscall, or its wake-up, over thousands of
/// frames.
pub const COALESCE_BYTES: usize = 64 * 1024;

/// The longest one write of a TCP session's outbox may block its worker.
/// A client that leaves a write unfinished that long is closed, the way an
/// unreadable envelope closes it: it reads EOF behind the bytes already
/// written. That bounds what a TCP session can hold queued on the server to
/// the kernel's socket buffers plus one outbox.
///
/// The trade-off: while a worker waits on one client's socket, every other
/// session on that worker waits too, so this is also how long one stalled
/// client can delay them at a time (a peer whose kernel still takes bytes
/// in bursts, as loopback's does, can make more than one write wait before
/// one fails). One second is far longer than a live client takes to start
/// reading — it is blocked in `recv` already, or about to be — even on a
/// loaded one-core box, and short enough that the sessions sharing a
/// worker with a dead peer recover within a second or two.
pub const WRITE_STALL: Duration = Duration::from_secs(1);

/// A TCP session's sink: the accepted socket's write half, to which the
/// session's worker writes each outbox itself. Dropping it shuts the socket
/// down both ways, so the client reads EOF behind the last answer written
/// and the connection's reader thread wakes from its `read` and exits.
#[derive(Debug)]
pub struct SocketSink(TcpStream);

impl SocketSink {
    /// Write all of `bytes` in one call, or fail. A blocking socket's write
    /// returns short only when its write timeout, [`WRITE_STALL`], ran out
    /// (or a signal cut it): the client has stalled.
    pub(crate) fn write(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        loop {
            match self.0.write(bytes) {
                Ok(n) if n == bytes.len() => return Ok(()),
                Ok(_) => return Err(std::io::ErrorKind::TimedOut.into()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for SocketSink {
    fn drop(&mut self) {
        let _ = self.0.shutdown(Shutdown::Both);
    }
}

/// A running TCP front-end for a server.
pub struct TcpTransport {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// Serve `handle` over TCP on `bind` (e.g. `"127.0.0.1:0"`). Returns the
/// transport whose [`TcpTransport::local_addr`] carries the actual port.
pub fn serve_tcp(handle: &ServerHandle, bind: impl ToSocketAddrs) -> std::io::Result<TcpTransport> {
    let listener = TcpListener::bind(bind)?;
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let ingress = handle.ingress();
    let sessions = handle.session_counter();
    let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let stop2 = Arc::clone(&stop);
    let conns2 = Arc::clone(&conns);
    let accept_thread = std::thread::Builder::new()
        .name("tm-server-tcp-accept".into())
        .spawn(move || accept_loop(listener, ingress, sessions, stop2, conns2))
        .expect("spawn accept thread");

    Ok(TcpTransport {
        local_addr,
        stop,
        accept_thread: Some(accept_thread),
        conns,
    })
}

impl TcpTransport {
    /// The bound address (resolves `:0` to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting new connections. Established connections live until
    /// their clients hang up.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    /// Wait up to `timeout` for every per-connection reader thread spawned
    /// so far to exit. Returns `true` if they all joined in time.
    ///
    /// Threads only exit once their exit condition holds (peer hung up,
    /// or the session's worker dropped its sink and so shut the socket
    /// down) — this does not force them out, it verifies teardown actually
    /// completes.
    pub fn join_connections(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let handle = {
                let mut conns = self.conns.lock().expect("conns lock");
                conns.pop()
            };
            let Some(handle) = handle else { return true };
            // `JoinHandle` has no timed join: poll `is_finished` so one
            // stuck thread can't hang the caller forever.
            while !handle.is_finished() {
                if Instant::now() >= deadline {
                    // Put it back so a later call can retry.
                    self.conns.lock().expect("conns lock").push(handle);
                    return false;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            let _ = handle.join();
        }
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

fn accept_loop(
    listener: TcpListener,
    ingress: Ingress,
    sessions: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    use std::io::ErrorKind::{ConnectionAborted, Interrupted};
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let session = sessions.fetch_add(1, Ordering::Relaxed);
                if spawn_connection(stream, session, &ingress, &conns).is_err() {
                    // Setup failed (clone/spawn); drop the connection.
                }
            }
            // About that one connection or call, not the listener: the
            // next `accept` is as good as any.
            Err(e) if matches!(e.kind(), Interrupted | ConnectionAborted) => {}
            // Nothing pending (`WouldBlock`), or a shortage that may pass
            // (`EMFILE`, `ENOMEM`): look again shortly. Only `stop` ends
            // the acceptor.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Wire one accepted socket into the ingress plane: the session's worker
/// gets the write half as its sink, a reader thread reassembles frames and
/// forwards them.
fn spawn_connection(
    stream: TcpStream,
    session: SessionId,
    ingress: &Ingress,
    conns: &Mutex<Vec<JoinHandle<()>>>,
) -> std::io::Result<()> {
    // The listener is non-blocking and on some platforms (BSD, macOS) an
    // accepted socket inherits that; the reader would take `WouldBlock`
    // for a hang-up.
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(WRITE_STALL))?;
    let sink = Sink::Socket(SocketSink(stream.try_clone()?));
    if ingress.send(ServerMsg::Connect { session, sink }).is_err() {
        return Ok(()); // server already gone
    }

    let reader_ingress = ingress.clone();
    let reader = std::thread::Builder::new()
        .name(format!("tm-server-tcp-r-{session}"))
        .spawn(move || reader_loop(stream, session, reader_ingress))
        .inspect_err(|_| {
            // No thread will ever send this session's `Disconnect`: send it
            // now, so the worker forgets the session and drops the sink,
            // which closes the socket.
            let _ = ingress.send(ServerMsg::Disconnect { session });
        })?;

    let mut conns = conns.lock().expect("conns lock");
    // Forget the threads of connections that have since closed, so a
    // long-lived server holds handles for live connections only.
    conns.retain(|h| !h.is_finished());
    conns.push(reader);
    Ok(())
}

fn reader_loop(mut stream: TcpStream, session: SessionId, ingress: Ingress) {
    let mut fb = FrameBuf::new();
    // EOF or error: hang up.
    'read: while matches!(fb.read_from(&mut stream), Ok(n) if n > 0) {
        // One message per read: everything up to the last whole frame.
        loop {
            match fb.pop_frames() {
                Ok([]) => break,
                Ok(frames) => {
                    let bytes = frames.to_vec();
                    if ingress.send(ServerMsg::Frames { session, bytes }).is_err() {
                        return; // server gone
                    }
                }
                // Framing lost (oversized prefix): unrecoverable. The
                // frames ahead of it went out in the round before.
                Err(_) => break 'read,
            }
        }
    }
    let _ = ingress.send(ServerMsg::Disconnect { session });
}

/// A client connection over TCP (the counterpart of [`ChannelConn`]).
///
/// Built for the same pipelined use: issue many [`TcpConn::send`]s, then
/// drain responses. Requests collect in an outbound buffer and leave in
/// one socket write when the caller turns to receive.
pub struct TcpConn {
    stream: TcpStream,
    fb: FrameBuf,
    next_id: u64,
    /// Encoded requests not yet written to the socket.
    out: Vec<u8>,
    /// The read timeout currently set on the socket, so `recv_timeout`
    /// pays the `setsockopt` only when it changes.
    armed: Option<Duration>,
}

impl TcpConn {
    /// Connect to a served address.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            fb: FrameBuf::new(),
            next_id: 1,
            out: Vec::new(),
            armed: None,
        })
    }

    /// Encode and queue one request; returns its correlation id.
    ///
    /// The bytes may not be on the wire when this returns. They are
    /// written by the next [`TcpConn::recv_timeout`] that has to wait for
    /// the socket, by [`TcpConn::flush`], when the connection is dropped
    /// (best effort), or at once when [`COALESCE_BYTES`] are queued. A
    /// caller that sends and then waits for the effect through some other
    /// channel must `flush` first.
    pub fn send(&mut self, request: Request) -> std::io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        RequestFrame { id, request }.encode_into(&mut self.out);
        if self.out.len() >= COALESCE_BYTES {
            self.flush()?;
        }
        Ok(id)
    }

    /// Write every queued request to the socket now. On error the queued
    /// bytes are discarded: part of them may have been written, so the
    /// stream can no longer be trusted to frame.
    pub fn flush(&mut self) -> std::io::Result<()> {
        let written = self.stream.write_all(&self.out);
        self.out.clear();
        written
    }

    /// Wait up to `timeout` for the next response frame. `Ok(None)` means
    /// the deadline passed or the server hung up.
    pub fn recv_timeout(&mut self, timeout: Duration) -> std::io::Result<Option<ResponseFrame>> {
        if let Some(frame) = self.buffered_frame()? {
            return Ok(Some(frame));
        }
        let deadline = Instant::now() + timeout;
        // About to block on the socket: the server must have the requests
        // whose answers this waits for.
        self.flush()?;
        // The first read may wait the whole `timeout`; one after a read
        // that ended mid-frame, what is left of it.
        let mut wait = timeout;
        while !wait.is_zero() {
            if self.armed != Some(wait) {
                self.stream.set_read_timeout(Some(wait))?;
                self.armed = Some(wait);
            }
            match self.fb.read_from(&mut self.stream) {
                Ok(0) => return Ok(None), // server hung up
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(e),
            }
            if let Some(frame) = self.buffered_frame()? {
                return Ok(Some(frame));
            }
            wait = deadline.saturating_duration_since(Instant::now());
        }
        Ok(None)
    }

    /// The next response already read from the socket, if a whole one is,
    /// decoded in place.
    fn buffered_frame(&mut self) -> std::io::Result<Option<ResponseFrame>> {
        match self.fb.pop_frame().map_err(decode_to_io)? {
            Some(frame) => ResponseFrame::decode(frame).map(Some).map_err(decode_to_io),
            None => Ok(None),
        }
    }
}

impl Drop for TcpConn {
    fn drop(&mut self) {
        // Best effort: requests sent but never waited for still reach the
        // server, as they did when `send` wrote them itself.
        let _ = self.flush();
    }
}

fn decode_to_io(e: DecodeError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e)
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::protocol::{count_frames, Response};
    use crate::server::{start, ServerConfig};

    /// A one-worker server over a 64-word engine.
    fn tiny_server() -> ServerHandle {
        let engine = tm_stm::StmBuilder::new()
            .heap_words(64)
            .table_entries(64)
            .build_tagless();
        let mut config = ServerConfig::new(64);
        config.shards = 1;
        start(Arc::new(engine), config)
    }

    /// A connection whose ingress this test reads: what `conn` hands over
    /// arrives on the returned receiver instead of at a worker.
    fn intercepted(server: &ServerHandle) -> (ChannelConn, Receiver<ServerMsg>) {
        let mut conn = server.connect();
        let (tx, rx) = channel();
        conn.ingress = Ingress { workers: vec![tx] };
        (conn, rx)
    }

    /// The bytes of the next message, which must be a `Frames`.
    fn next_frames(rx: &Receiver<ServerMsg>) -> Vec<u8> {
        match rx.try_recv() {
            Ok(ServerMsg::Frames { bytes, .. }) => bytes,
            other => panic!("expected a Frames message, got {other:?}"),
        }
    }

    #[test]
    fn send_alone_delivers_nothing_and_every_handover_delivers() {
        let server = tiny_server();
        let mut probe = server.connect();
        // One worker serves both sessions in queue order, so once the
        // probe's round trip is answered everything handed over before it
        // has been counted. Returns the requests served beyond the probes.
        let mut probes = 0;
        let mut served = |server: &ServerHandle| {
            probes += 1;
            let pong = probe.request(Request::Ping, Duration::from_secs(5));
            assert_eq!(pong.expect("probe answered").response, Response::Pong);
            server.stats().requests - probes
        };

        let mut conn = server.connect();
        conn.send(Request::Ping);
        assert_eq!(served(&server), 0, "send only queues");
        conn.flush();
        assert_eq!(served(&server), 1, "flush hands over");
        conn.flush();
        assert_eq!(served(&server), 1, "nothing queued, nothing sent");

        conn.send(Request::Ping);
        assert!(conn.try_recv().is_some(), "the first Pong");
        assert_eq!(
            served(&server),
            2,
            "try_recv with nothing buffered hands over"
        );

        // Two requests in one message are answered in one message.
        let timeout = Duration::from_secs(5);
        conn.send(Request::Ping);
        conn.send(Request::Ping);
        assert!(conn.recv_timeout(timeout).is_some(), "the second Pong");
        assert_eq!(served(&server), 4, "so does recv_timeout");
        assert!(conn.recv_timeout(timeout).is_some(), "the third Pong");
        conn.send(Request::Ping);
        assert!(conn.try_recv().is_some(), "the fourth, already delivered");
        assert_eq!(served(&server), 4, "a buffered response is not a wait");
        assert!(conn.recv_timeout(timeout).is_some(), "the fifth Pong");
        assert_eq!(served(&server), 5);

        conn.send(Request::Ping);
        conn.disconnect();
        assert_eq!(served(&server), 6, "disconnect hands over first");

        let mut dropped = server.connect();
        dropped.send(Request::Ping);
        drop(dropped);
        assert_eq!(served(&server), 7, "so does drop");
    }

    #[test]
    fn a_window_of_sends_is_one_message_of_whole_frames() {
        let server = tiny_server();
        let (mut conn, rx) = intercepted(&server);
        let mut expected = Vec::new();
        for key in 0..32 {
            let id = conn.send(Request::Get { key });
            expected.extend(
                RequestFrame {
                    id,
                    request: Request::Get { key },
                }
                .encode(),
            );
        }
        assert!(rx.try_recv().is_err(), "send only queues");
        conn.flush();
        assert_eq!(next_frames(&rx), expected);
        assert!(rx.try_recv().is_err(), "one message");
    }

    #[test]
    fn coalesce_bytes_forces_a_message_out_early() {
        let server = tiny_server();
        let (mut conn, rx) = intercepted(&server);
        let keys = vec![7u64; 1000]; // ~8 KB a frame
        let mut sent = 0;
        while rx.try_recv().is_err() {
            conn.send(Request::MultiGet { keys: keys.clone() });
            sent += 1;
            assert!(sent < 100, "the bound never triggered");
        }
        assert!(sent * 8000 >= COALESCE_BYTES);
        // The early message took everything queued: the next send starts a
        // new one.
        let id = conn.send(Request::Ping);
        conn.flush();
        let request = Request::Ping;
        assert_eq!(next_frames(&rx), RequestFrame { id, request }.encode());
    }

    #[test]
    fn send_raw_is_its_own_message_behind_queued_sends() {
        let server = tiny_server();
        let (mut conn, rx) = intercepted(&server);
        let id = conn.send(Request::Ping);
        conn.send_raw(vec![1, 2, 3]);
        let request = Request::Ping;
        assert_eq!(next_frames(&rx), RequestFrame { id, request }.encode());
        assert_eq!(next_frames(&rx), [1, 2, 3]);
        // And the same with nothing queued: no empty message ahead of it.
        conn.send_raw(vec![4]);
        assert_eq!(next_frames(&rx), [4]);
    }

    #[test]
    fn a_used_up_sink_message_is_the_next_outbound_buffer() {
        let server = tiny_server();
        let (mut conn, rx) = intercepted(&server);
        let (sink, sink_rx) = channel();
        conn.rx = sink_rx;

        let mut message = Vec::with_capacity(4096);
        ResponseFrame {
            id: 1,
            response: Response::Pong,
        }
        .encode_into(&mut message);
        let buffer = message.as_ptr();
        sink.send(message).unwrap();
        assert!(conn.try_recv().is_some());
        conn.send(Request::Ping);
        conn.flush();
        let handed_over = next_frames(&rx);
        assert_eq!(handed_over.as_ptr(), buffer, "the same allocation");
        assert_eq!(count_frames(&handed_over), Some(1), "holding only the Ping");
    }

    #[test]
    fn channel_conn_pops_a_sink_message_one_frame_at_a_time() {
        let server = tiny_server();
        let mut conn = server.connect();
        // Play the worker: this test owns the other end of the sink.
        let (sink, rx) = channel();
        conn.rx = rx;

        let message = |ids: std::ops::Range<u64>| {
            let mut out = Vec::new();
            for id in ids {
                let response = Response::Values(vec![id; id as usize]);
                ResponseFrame { id, response }.encode_into(&mut out);
            }
            out
        };
        sink.send(message(0..3)).unwrap();
        sink.send(message(3..6)).unwrap();
        for id in 0..6 {
            let frame = match id % 2 {
                0 => conn.try_recv(),
                _ => conn.recv_timeout(Duration::from_secs(5)),
            }
            .expect("six frames queued");
            let values = vec![id; id as usize];
            assert_eq!((frame.id, frame.response), (id, Response::Values(values)));
        }
        assert_eq!(conn.try_recv(), None, "both messages consumed");
        assert_eq!(conn.recv_timeout(Duration::from_millis(1)), None);
        drop(sink);
        assert_eq!(conn.recv_timeout(Duration::from_secs(5)), None, "hang-up");
    }
}
