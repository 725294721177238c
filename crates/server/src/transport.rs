//! Transports: how encoded frames reach the ingress plane.
//!
//! Two implementations share one contract (deliver complete encoded
//! request frames as [`ServerMsg::Frame`], carry encoded response frames
//! back):
//!
//! * **channel** — an in-process transport over `mpsc` channels. Frames
//!   are *fully encoded and decoded* on both directions, so the wire
//!   format is exercised end to end, but no sockets are involved: CI,
//!   tests, and the load generator run hermetically.
//! * **tcp** — a `std::net` listener with one reader and one writer thread
//!   per connection, and [`TcpConn`] on the client side. A socket call
//!   costs microseconds where a frame costs tens of nanoseconds, so both
//!   ends move as many frames per call as are ready:
//!
//!   * every **write** carries everything queued. The server's writer
//!     blocks for one sink message (the responses a worker made in one
//!     wake-up), gathers whatever else the workers queued while it was
//!     not running, and issues one `write_all`; [`TcpConn`]
//!     collects `send`s in an outbound buffer and writes it when the caller
//!     turns to receive (or calls [`TcpConn::flush`], or drops the
//!     connection). One request in flight is still one write each way; a
//!     pipelined window is one write each way too.
//!   * every **read** goes straight into [`FrameBuf`]'s spare room and
//!     yields every complete frame in it; the client re-arms its socket
//!     timeout only when it changes.
//!
//!   Either side stops gathering at [`COALESCE_BYTES`], which bounds the
//!   buffers; how far a client can pipeline before it must receive is
//!   bounded by the kernel's socket buffers, as it is for any TCP peer.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::protocol::{frame_len, DecodeError, FrameBuf, Request, RequestFrame, ResponseFrame};
use crate::server::{Ingress, ServerHandle};
use crate::session::{ServerMsg, SessionId};

impl ServerHandle {
    /// Open an in-process connection: a fresh session over the channel
    /// transport. Panics if the server has already shut down.
    pub fn connect(&self) -> ChannelConn {
        let session = self.alloc_session();
        let (sink, rx) = channel();
        let ingress = self.ingress();
        ingress
            .send(ServerMsg::Connect { session, sink })
            .expect("server is running");
        ChannelConn {
            ingress,
            session,
            rx,
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
pub struct ChannelConn {
    ingress: Ingress,
    session: SessionId,
    rx: Receiver<Vec<u8>>,
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

    /// Encode and send one request; returns its correlation id.
    pub fn send(&mut self, request: Request) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let bytes = RequestFrame { id, request }.encode();
        self.send_raw(bytes);
        id
    }

    /// Send pre-encoded frame bytes (tests use this to deliver malformed
    /// frames). Dropped silently if the server is gone.
    pub fn send_raw(&self, bytes: Vec<u8>) {
        let _ = self.ingress.send(ServerMsg::Frame {
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

    /// Decode the next frame of the current sink message, taking the next
    /// message from `refill` once this one is used up.
    fn pop_frame(
        &mut self,
        refill: impl FnOnce(&Receiver<Vec<u8>>) -> Option<Vec<u8>>,
    ) -> Option<ResponseFrame> {
        if self.cursor == self.message.len() {
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

    /// Tell the server this session hung up, without dropping the
    /// connection object. Fault injection uses this to model an abrupt
    /// peer disconnect mid-conversation; any responses already queued can
    /// still be drained from the local receiver.
    pub fn disconnect(&self) {
        let _ = self.ingress.send(ServerMsg::Disconnect {
            session: self.session,
        });
    }
}

impl Drop for ChannelConn {
    fn drop(&mut self) {
        let _ = self.ingress.send(ServerMsg::Disconnect {
            session: self.session,
        });
    }
}

/// Bytes gathered before they are passed on: into one socket write on
/// either end of a TCP connection, and into one sink message in a session's
/// outbox. Bounds those buffers (a session's outbox to this plus one frame,
/// the server's write buffer to this plus one sink message) without costing
/// throughput: a write this large already amortises its syscall, or its
/// wake-up, over thousands of frames.
pub const COALESCE_BYTES: usize = 64 * 1024;

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

    /// Wait up to `timeout` for every per-connection reader/writer thread
    /// spawned so far to exit. Returns `true` if they all joined in time.
    ///
    /// Threads only exit once their exit condition holds (peer hung up,
    /// or the server shut down and the writer closed the socket) — this
    /// does not force them out, it verifies teardown actually completes.
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

/// Wire one accepted socket into the ingress plane: a writer thread drains
/// the session sink into the socket, a reader thread reassembles frames
/// and forwards them.
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
    let write_half = stream.try_clone()?;
    let (sink, sink_rx) = channel::<Vec<u8>>();
    if ingress.send(ServerMsg::Connect { session, sink }).is_err() {
        return Ok(()); // server already gone
    }

    let writer = std::thread::Builder::new()
        .name(format!("tm-server-tcp-w-{session}"))
        .spawn(move || writer_loop(write_half, sink_rx))?;

    let ingress = ingress.clone();
    let reader = std::thread::Builder::new()
        .name(format!("tm-server-tcp-r-{session}"))
        .spawn(move || reader_loop(stream, session, ingress))?;

    let mut conns = conns.lock().expect("conns lock");
    // Forget the threads of connections that have since closed, so a
    // long-lived server holds handles for live connections only.
    conns.retain(|h| !h.is_finished());
    conns.push(writer);
    conns.push(reader);
    Ok(())
}

/// Fill `out` with `first` and every sink message already queued behind it
/// on `rx`, in order, stopping once `out` holds [`COALESCE_BYTES`]. Sink
/// messages are whole frames, so `out` is too. A sink that disconnects
/// mid-gather just ends it: what was gathered stays in `out`, and the
/// caller's next `recv` reports the disconnect.
fn gather(first: &[u8], rx: &Receiver<Vec<u8>>, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(first);
    while out.len() < COALESCE_BYTES {
        let Ok(message) = rx.try_recv() else { break };
        out.extend_from_slice(&message);
    }
}

fn writer_loop(mut stream: TcpStream, rx: Receiver<Vec<u8>>) {
    // One socket write per wake-up: whatever the workers queued while this
    // thread was not running leaves in the same `write_all`.
    let mut out = Vec::new();
    while let Ok(first) = rx.recv() {
        gather(&first, &rx, &mut out);
        if stream.write_all(&out).is_err() {
            return;
        }
    }
    // Session dropped server-side: signal EOF to the client, and shut the
    // read half too so our own reader thread unblocks and exits instead
    // of waiting for the peer to hang up.
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

fn reader_loop(mut stream: TcpStream, session: SessionId, ingress: Ingress) {
    let mut fb = FrameBuf::new();
    // EOF or error: hang up.
    while matches!(fb.read_from(&mut stream), Ok(n) if n > 0) {
        loop {
            match fb.next_frame() {
                Ok(Some(frame)) => {
                    if ingress
                        .send(ServerMsg::Frame {
                            session,
                            bytes: frame,
                        })
                        .is_err()
                    {
                        return; // server gone
                    }
                }
                Ok(None) => break,
                // Framing lost (oversized prefix): unrecoverable.
                Err(_) => {
                    let _ = ingress.send(ServerMsg::Disconnect { session });
                    return;
                }
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

    /// The next response already read from the socket, if a whole one is.
    fn buffered_frame(&mut self) -> std::io::Result<Option<ResponseFrame>> {
        match self.fb.next_frame().map_err(decode_to_io)? {
            Some(frame) => ResponseFrame::decode(&frame)
                .map(Some)
                .map_err(decode_to_io),
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

    #[test]
    fn channel_conn_pops_a_sink_message_one_frame_at_a_time() {
        use crate::protocol::Response;
        use crate::server::{start, ServerConfig};

        let engine = tm_stm::StmBuilder::new()
            .heap_words(64)
            .table_entries(64)
            .build_tagless();
        let server = start(Arc::new(engine), ServerConfig::new(64));
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

    /// A frame-sized chunk whose every byte is `tag`, so order shows.
    fn chunk(tag: u8, len: usize) -> Vec<u8> {
        vec![tag; len]
    }

    #[test]
    fn gather_takes_everything_queued_in_order() {
        let (tx, rx) = channel();
        for tag in 2..=5 {
            tx.send(chunk(tag, 3)).unwrap();
        }
        let mut out = vec![0xEE; 7]; // stale bytes of the previous write
        gather(&chunk(1, 3), &rx, &mut out);
        assert_eq!(out, [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5]);
        assert!(rx.try_recv().is_err(), "queue drained");

        // Nothing queued: the write is the one frame (depth-1 traffic).
        gather(&chunk(9, 2), &rx, &mut out);
        assert_eq!(out, [9, 9]);
    }

    #[test]
    fn gather_stops_at_the_coalescing_bound() {
        let (tx, rx) = channel();
        let frame = 1000;
        let queued = 2 * COALESCE_BYTES / frame;
        for i in 0..queued {
            tx.send(chunk(i as u8, frame)).unwrap();
        }
        let mut out = Vec::new();
        gather(&chunk(0xFF, frame), &rx, &mut out);
        // Whole frames only, and the last one taken is the one that
        // crossed the bound.
        assert_eq!(out.len() % frame, 0);
        assert!(out.len() >= COALESCE_BYTES);
        assert!(out.len() < COALESCE_BYTES + frame);
        // The rest is still queued, and the next gather starts with it.
        let taken = out.len() / frame - 1;
        let next = rx.try_recv().expect("frames left behind");
        assert_eq!(next, chunk(taken as u8, frame));
        gather(&next, &rx, &mut out);
        assert_eq!(out.len(), (queued - taken) * frame);
    }

    #[test]
    fn gather_keeps_what_it_has_when_the_sink_disconnects() {
        let (tx, rx) = channel();
        tx.send(chunk(2, 2)).unwrap();
        tx.send(chunk(3, 2)).unwrap();
        drop(tx); // the session is gone; its last responses are queued
        let first = rx.recv().unwrap();
        let mut out = Vec::new();
        gather(&first, &rx, &mut out);
        assert_eq!(out, [2, 2, 3, 3]);
        // The writer's next blocking receive is what sees the disconnect.
        assert!(rx.recv().is_err());
    }
}
