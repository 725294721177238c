//! Per-connection session state and the server's internal message plane.
//!
//! A **session** is one client connection: a stable id, an outbound
//! [`Sink`] for encoded response frames, and an ordering guarantee.
//! Sessions are spread over the workers by `session_id % workers`; one
//! transport thread feeds a session and its worker processes the frames in
//! arrival order, so each session sees its own requests answered in the
//! order it sent them — pipelining (many requests in flight before reading
//! responses) is safe without any client-side windowing protocol.
//!
//! Both directions carry **messages of whole frames**: one `Vec<u8>` holding
//! one or more complete encoded frames, in order, never a part of one.
//!
//! Transports (TCP, in-process channel) reduce to the same three-message
//! lifecycle on the ingress plane: [`ServerMsg::Connect`] registers the
//! sink, [`ServerMsg::Frames`] carries the request frames a session had
//! ready (a window a client queued, everything one socket read brought),
//! [`ServerMsg::Disconnect`] abandons the session (the writes it still has
//! batched commit first, and their acks are the last thing its sink gets).
//! A fourth, [`ServerMsg::Answers`], carries answers a TCP connection's
//! reader made itself but could not write without blocking: the worker
//! writes them for it.
//! [`ServerMsg::Shutdown`] drains everything: the server handle queues it
//! on every worker *behind* whatever that worker had already been sent, so
//! a worker that sees it has already answered everything ahead of it.
//!
//! Responses leave in the other direction through each session's
//! **outbox**: [`SessionRegistry::respond`] appends the encoded frame, and
//! [`SessionRegistry::flush_out`] hands every outbox with something in it
//! to its sink as *one* message of whole frames — a channel send, or one
//! write to a TCP session's socket. A worker calls it when it is about to
//! block, so a client is woken once per worker wake-up rather than once per
//! answer.
//!
//! The buffers go round instead of being allocated: an inbound message the
//! worker has finished with is given back through
//! [`SessionRegistry::recycle`] and becomes a channel session's next outbox
//! the moment the current one leaves for the sink. A socket session's
//! outbox is written and cleared in place.
//!
//! Each socket write also publishes how many answers it carried
//! ([`SocketSink`]): a connection's reader answers a message of reads
//! itself only when every frame it handed to the worker has been answered
//! on the wire.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use crate::protocol::{Response, ResponseFrame};
use crate::queue::Sender;
use crate::transport::{SocketSink, COALESCE_BYTES};

/// Stable identifier of one client connection.
pub type SessionId = u64;

/// Default per-session dedup-window capacity (tokens remembered).
pub const DEFAULT_DEDUP_WINDOW: usize = 1024;

/// What the dedup window says about an incoming idempotency token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DedupVerdict {
    /// Never seen: proceed, the window now tracks it as in flight.
    New,
    /// An earlier delivery of this token is still being processed — drop
    /// this duplicate silently (the original will answer).
    InFlight,
    /// Already applied: replay the recorded answer, do not re-apply.
    Done(Response),
    /// The token fell below the eviction floor; its outcome is forgotten.
    Expired,
}

/// Bounded per-session idempotency window: token → outcome, evicting
/// oldest-first with a monotone floor.
///
/// Exactly-once depends on two properties working together: a token that
/// was *applied* replays its recorded response instead of re-applying
/// ([`DedupVerdict::Done`]), and a token evicted from the bounded cache is
/// *refused* ([`DedupVerdict::Expired`]) rather than treated as new —
/// forgetting must never silently turn into re-applying. Clients issue
/// tokens monotonically per session, so the floor (highest evicted token)
/// cleanly separates "too old to know" from "genuinely new".
///
/// Capacity 0 disables deduplication entirely — every token looks new.
/// That configuration exists *only* so the chaos suite can prove it
/// notices the resulting double-applies (the mutation check).
#[derive(Debug)]
pub struct DedupWindow {
    capacity: usize,
    entries: HashMap<u64, Option<Response>>,
    /// Insertion order for eviction (tokens, oldest first).
    order: VecDeque<u64>,
    /// Highest evicted token; lower absent tokens are `Expired`, not new.
    floor: u64,
}

impl DedupWindow {
    /// Window remembering up to `capacity` tokens.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: HashMap::new(),
            order: VecDeque::new(),
            floor: 0,
        }
    }

    /// Classify `token` and (when new) start tracking it as in flight.
    pub fn begin(&mut self, token: u64) -> DedupVerdict {
        if self.capacity == 0 {
            return DedupVerdict::New; // dedup disabled (mutation-check mode)
        }
        match self.entries.get(&token) {
            Some(Some(resp)) => return DedupVerdict::Done(resp.clone()),
            Some(None) => return DedupVerdict::InFlight,
            None => {}
        }
        if token <= self.floor {
            return DedupVerdict::Expired;
        }
        if self.entries.len() >= self.capacity {
            // Evict oldest until there is room. `order` and `entries` hold
            // exactly the same tokens (`abandon` removes from both), so
            // every pop frees one slot.
            while self.entries.len() >= self.capacity {
                let Some(old) = self.order.pop_front() else {
                    break;
                };
                if self.entries.remove(&old).is_some() {
                    self.floor = self.floor.max(old);
                }
            }
        }
        self.entries.insert(token, None);
        self.order.push_back(token);
        DedupVerdict::New
    }

    /// Record the applied outcome of an in-flight token.
    pub fn complete(&mut self, token: u64, response: Response) {
        if let Some(slot) = self.entries.get_mut(&token) {
            *slot = Some(response);
        }
    }

    /// Forget an in-flight token whose write did **not** apply (`Busy`
    /// shed, worker crash): a retry must be allowed to apply it.
    pub fn abandon(&mut self, token: u64) {
        if matches!(self.entries.get(&token), Some(None)) {
            self.entries.remove(&token);
            // Drop its order slot too. A stale slot would let a retry of
            // this token occupy a second one; eviction would then pop the
            // stale slot, delete the *live* entry, and raise the floor to
            // a recent token — prematurely expiring replayable answers.
            if let Some(pos) = self.order.iter().position(|&t| t == token) {
                self.order.remove(pos);
            }
        }
    }

    /// Tokens currently tracked (in flight + done).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Nothing tracked?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Where a session's encoded [`ResponseFrame`]s go: one or more whole
/// frames at a time, in order.
#[derive(Debug)]
pub enum Sink {
    /// The channel transport: each outbox is handed over as one message.
    Channel(Sender<Vec<u8>>),
    /// The TCP transport: the worker writes each outbox to the socket
    /// itself. Dropping the sink closes the connection.
    Socket(SocketSink),
}

/// One message on the server's ingress plane (transport → worker).
#[derive(Debug)]
pub enum ServerMsg {
    /// A new session with its outbound frame sink.
    Connect {
        /// The new session's id (allocated by the transport).
        session: SessionId,
        /// Where this session's responses go: a channel, or the accepted
        /// socket's write half. The session's worker owns it from here on
        /// and drops it when the session ends.
        sink: Sink,
    },
    /// One or more complete encoded request frames from a session, in
    /// order. A message that is anything else (a cut or garbled frame) is
    /// treated whole as one undecodable frame.
    Frames {
        /// Originating session.
        session: SessionId,
        /// The frames, length prefixes included, back to back.
        bytes: Vec<u8>,
    },
    /// Answers a TCP connection's reader made for a message of reads but
    /// could not write without blocking, with nothing before them owed:
    /// the session's worker writes them, on its own schedule.
    Answers {
        /// The session they answer.
        session: SessionId,
        /// What of the encoded answers is still to be written; it may
        /// start inside a frame.
        bytes: Vec<u8>,
        /// How many answers the message held.
        answers: u64,
    },
    /// The session's connection is gone; forget it.
    Disconnect {
        /// The departed session.
        session: SessionId,
    },
    /// Drain pending work and exit (the handle sends one to every worker).
    Shutdown,
}

/// One live session's worker-local state.
#[derive(Debug)]
struct SessionState {
    sink: Sink,
    dedup: DedupWindow,
    /// Encoded responses not yet handed to `sink`: whole frames, in order.
    outbox: Vec<u8>,
    /// How many responses `outbox` holds.
    answers: u64,
    /// An emptied inbound message: the outbox after this one (channel
    /// sessions only; a socket session keeps its outbox).
    spare: Vec<u8>,
}

/// Hashes a [`SessionId`] with one multiplication by 2^64 / φ. The server
/// issues the ids in sequence, so no client chooses them and SipHash's
/// defence against chosen keys buys nothing; the product still spreads
/// consecutive ids over the low bits and the high ones, which the map
/// uses for bucket and tag. (A dedup window's tokens are the client's
/// choice, and keep SipHash.)
#[derive(Default)]
struct SessionHasher(u64);

impl Hasher for SessionHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A worker's view of its live sessions. Single-threaded (each worker owns
/// one), so plain `HashMap` and no locking.
#[derive(Debug)]
pub struct SessionRegistry {
    sessions: HashMap<SessionId, SessionState, BuildHasherDefault<SessionHasher>>,
    dedup_window: usize,
    /// Sessions whose outbox went from empty to non-empty since the last
    /// [`SessionRegistry::flush_out`], in that order.
    dirty: Vec<SessionId>,
}

impl Default for SessionRegistry {
    fn default() -> Self {
        Self::new(DEFAULT_DEDUP_WINDOW)
    }
}

impl SessionRegistry {
    /// Empty registry whose sessions each get a dedup window of
    /// `dedup_window` tokens (0 disables dedup — test-only).
    pub fn new(dedup_window: usize) -> Self {
        Self {
            sessions: HashMap::default(),
            dedup_window,
            dirty: Vec::new(),
        }
    }

    /// Register a session's outbound sink.
    pub fn connect(&mut self, session: SessionId, sink: Sink) {
        self.sessions.insert(
            session,
            SessionState {
                sink,
                dedup: DedupWindow::new(self.dedup_window),
                outbox: Vec::new(),
                answers: 0,
                spare: Vec::new(),
            },
        );
    }

    /// Forget a session. What its outbox holds goes to the sink first, so
    /// every response made before this call is delivered; later ones are
    /// dropped, and so is the sink (a socket is shut down). Its dedup window
    /// dies with it (tokens are per-connection; a reconnect is a new
    /// session).
    pub fn disconnect(&mut self, session: SessionId) {
        self.deliver(session);
        self.sessions.remove(&session);
    }

    /// Is this session still registered?
    ///
    /// The ingress plane uses this to discard frames addressed to a
    /// session that has already been closed (by a [`disconnect`] or an
    /// unattributable malformed frame). Processing such a frame would
    /// resurrect a dedup-less ghost of the session: a retried idempotent
    /// write whose first delivery is still in the batcher would classify
    /// as `New` and apply a second time.
    ///
    /// [`disconnect`]: SessionRegistry::disconnect
    pub fn contains(&self, session: SessionId) -> bool {
        self.sessions.contains_key(&session)
    }

    /// Live session count.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// No live sessions?
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Classify an idempotency token for a session (see
    /// [`DedupWindow::begin`]). Unknown sessions get `New`: their writes
    /// still flush (PR semantics: accepted writes apply even after a
    /// disconnect), and with no live window there is nothing to replay to.
    pub fn dedup_begin(&mut self, session: SessionId, token: u64) -> DedupVerdict {
        match self.sessions.get_mut(&session) {
            Some(state) => state.dedup.begin(token),
            None => DedupVerdict::New,
        }
    }

    /// Record an in-flight token's applied outcome.
    pub fn dedup_complete(&mut self, session: SessionId, token: u64, response: Response) {
        if let Some(state) = self.sessions.get_mut(&session) {
            state.dedup.complete(token, response);
        }
    }

    /// Forget an in-flight token whose write did not apply.
    pub fn dedup_abandon(&mut self, session: SessionId, token: u64) {
        if let Some(state) = self.sessions.get_mut(&session) {
            state.dedup.abandon(token);
        }
    }

    /// Encode one response into a session's outbox. It reaches the sink at
    /// the next [`flush_out`], or at once if the outbox has grown to
    /// [`COALESCE_BYTES`]. A response to a departed session (client hung up
    /// between request and response) is silently dropped — the disconnect
    /// path owns cleanup.
    ///
    /// [`flush_out`]: SessionRegistry::flush_out
    pub fn respond(&mut self, session: SessionId, id: u64, response: Response) {
        self.queue(session, 1, |outbox| {
            ResponseFrame { id, response }.encode_into(outbox)
        });
    }

    /// Queue `answers` responses already encoded elsewhere — `bytes`, which
    /// may start inside a frame whose head the socket already took — behind
    /// whatever the session's outbox holds, exactly as [`respond`] queues
    /// one. Dropped for a departed session.
    ///
    /// [`respond`]: SessionRegistry::respond
    pub(crate) fn append(&mut self, session: SessionId, bytes: &[u8], answers: u64) {
        self.queue(session, answers, |outbox| outbox.extend_from_slice(bytes));
    }

    /// The step [`respond`] and [`append`] share: `write` adds `answers`
    /// responses to the session's outbox, which joins the dirty list when
    /// it stops being empty and goes to the sink at once when it reaches
    /// [`COALESCE_BYTES`]. Nothing is written for a departed session.
    ///
    /// [`respond`]: SessionRegistry::respond
    /// [`append`]: SessionRegistry::append
    fn queue(&mut self, session: SessionId, answers: u64, write: impl FnOnce(&mut Vec<u8>)) {
        let Some(state) = self.sessions.get_mut(&session) else {
            return;
        };
        if state.outbox.is_empty() {
            self.dirty.push(session);
        }
        write(&mut state.outbox);
        state.answers += answers;
        if state.outbox.len() >= COALESCE_BYTES {
            self.deliver(session);
        }
    }

    /// Take back the buffer of an inbound message of `session` whose frames
    /// have all been handled: emptied, it is a channel session's next
    /// outbox. The responses to the *next* message are then encoded into
    /// room that is already there, where an outbox starting from nothing
    /// would grow by doubling once per wake-up. A socket session's outbox
    /// never leaves, and a departed session has none: their buffers are
    /// dropped.
    pub fn recycle(&mut self, session: SessionId, mut buffer: Vec<u8>) {
        if let Some(state) = self.sessions.get_mut(&session) {
            if let Sink::Channel(_) = state.sink {
                buffer.clear();
                state.spare = buffer;
            }
        }
    }

    /// Hand every non-empty outbox to its sink, one message per session.
    pub fn flush_out(&mut self) {
        for i in 0..self.dirty.len() {
            self.deliver(self.dirty[i]);
        }
        self.dirty.clear();
    }

    /// Send a session's outbox, if it holds anything, as one sink message:
    /// hand it over with the spare put in its place, or write it to the
    /// socket and clear it.
    fn deliver(&mut self, session: SessionId) {
        let Some(state) = self.sessions.get_mut(&session) else {
            return;
        };
        if state.outbox.is_empty() {
            return;
        }
        let answers = std::mem::take(&mut state.answers);
        let delivered = match &mut state.sink {
            Sink::Channel(sink) => {
                let next = std::mem::take(&mut state.spare);
                sink.send(std::mem::replace(&mut state.outbox, next))
                    .is_ok()
            }
            Sink::Socket(socket) => {
                let written = socket.write(&state.outbox, answers).is_ok();
                state.outbox.clear();
                written
            }
        };
        if !delivered {
            // Receiver dropped without a Disconnect (abrupt client death),
            // or a socket that failed or stalled past `WRITE_STALL`: close
            // the session now, the way an unreadable envelope does, rather
            // than fail on every send.
            self.sessions.remove(&session);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::channel;

    /// Split one sink message into the frames it holds.
    fn frames(message: &[u8]) -> Vec<ResponseFrame> {
        let mut fb = crate::protocol::FrameBuf::new();
        fb.extend(message);
        let mut out = Vec::new();
        while let Some(frame) = fb.next_frame().unwrap() {
            out.push(ResponseFrame::decode(&frame).unwrap());
        }
        assert_eq!(fb.pending_bytes(), 0, "a sink message is whole frames");
        out
    }

    #[test]
    fn respond_routes_encoded_frames() {
        let mut reg = SessionRegistry::default();
        let (tx_a, rx_a) = channel();
        let (tx_b, rx_b) = channel();
        reg.connect(7, Sink::Channel(tx_a));
        reg.connect(8, Sink::Channel(tx_b));
        assert_eq!(reg.len(), 2);

        for id in 1..=5 {
            reg.respond(7, id, Response::Value(id * 10));
        }
        reg.respond(8, 99, Response::Pong);
        // Unknown session: dropped, not panicked.
        reg.respond(9, 1, Response::Pong);
        assert!(rx_a.try_recv().is_err(), "nothing leaves before flush_out");
        assert!(rx_b.try_recv().is_err());

        reg.flush_out();
        let got = frames(&rx_a.try_recv().expect("one message"));
        assert_eq!(got.len(), 5, "every response in the one message");
        for (frame, id) in got.iter().zip(1..) {
            assert_eq!((frame.id, &frame.response), (id, &Response::Value(id * 10)));
        }
        assert!(rx_a.try_recv().is_err(), "one message per flush_out");
        let got = frames(&rx_b.try_recv().expect("one message"));
        assert_eq!(got[0].id, 99);

        // Nothing queued: flush_out sends nothing.
        reg.flush_out();
        assert!(rx_a.try_recv().is_err());
        assert!(rx_b.try_recv().is_err());
    }

    #[test]
    fn outbox_past_the_coalescing_bound_leaves_early() {
        let mut reg = SessionRegistry::default();
        let (tx, rx) = channel();
        reg.connect(1, Sink::Channel(tx));
        let values = vec![7u64; 1000]; // ~8 KB a frame
        let mut sent = 0;
        while rx.try_recv().is_err() {
            reg.respond(1, sent, Response::Values(values.clone()));
            sent += 1;
            assert!(sent < 100, "the bound never triggered");
        }
        assert!(sent as usize * 8000 >= COALESCE_BYTES);
        // The early message took everything; the next response starts a
        // new one, in order.
        reg.respond(1, sent, Response::Pong);
        reg.flush_out();
        let got = frames(&rx.try_recv().expect("the rest"));
        assert_eq!((got.len(), got[0].id), (1, sent));
    }

    #[test]
    fn a_recycled_buffer_is_the_next_outbox() {
        let mut reg = SessionRegistry::default();
        let (tx, rx) = channel();
        reg.connect(1, Sink::Channel(tx));
        // The buffer is kept while this round's responses wait...
        reg.respond(1, 1, Response::Pong);
        let mut inbound = Vec::with_capacity(4096);
        inbound.extend_from_slice(b"request frames, all handled");
        let buffer = inbound.as_ptr();
        reg.recycle(1, inbound);
        reg.flush_out();
        assert_eq!(frames(&rx.try_recv().expect("the Pong")).len(), 1);
        // ...whose responses are encoded into it, behind nothing stale.
        reg.respond(1, 2, Response::Value(9));
        reg.flush_out();
        let message = rx.try_recv().expect("the Value");
        assert_eq!(message.as_ptr(), buffer, "the same allocation");
        let got = frames(&message);
        assert_eq!((got.len(), got[0].id), (1, 2));

        // A departed session's buffer is dropped, not kept.
        reg.recycle(99, Vec::with_capacity(64));
    }

    #[test]
    fn dead_sink_is_reaped_on_send() {
        let mut reg = SessionRegistry::default();
        let (tx, rx) = channel();
        reg.connect(3, Sink::Channel(tx));
        drop(rx);
        reg.respond(3, 1, Response::Pong);
        assert_eq!(reg.len(), 1, "respond only queues");
        reg.flush_out();
        assert!(reg.is_empty(), "dead session reclaimed");
    }

    #[test]
    fn disconnect_delivers_the_outbox_and_forgets_the_session() {
        let mut reg = SessionRegistry::default();
        let (tx, rx) = channel();
        reg.connect(1, Sink::Channel(tx));
        reg.respond(1, 1, Response::Written);
        reg.respond(1, 2, Response::Closed);
        reg.disconnect(1);
        assert!(reg.is_empty());
        let got = frames(&rx.try_recv().expect("queued responses delivered"));
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].response, Response::Closed);
        assert!(rx.recv().is_err(), "then the sink is dropped");
        // The stale dirty entry is harmless.
        reg.flush_out();
    }

    #[test]
    fn dedup_lifecycle_new_inflight_done() {
        let mut w = DedupWindow::new(8);
        assert_eq!(w.begin(1), DedupVerdict::New);
        assert_eq!(w.begin(1), DedupVerdict::InFlight, "duplicate in flight");
        w.complete(1, Response::Added(5));
        assert_eq!(
            w.begin(1),
            DedupVerdict::Done(Response::Added(5)),
            "applied token replays its answer"
        );
        // Abandon releases an in-flight token for a clean retry.
        assert_eq!(w.begin(2), DedupVerdict::New);
        w.abandon(2);
        assert_eq!(w.begin(2), DedupVerdict::New, "abandoned token retries");
        // Abandon must not erase a completed outcome.
        w.abandon(1);
        assert_eq!(w.begin(1), DedupVerdict::Done(Response::Added(5)));
    }

    #[test]
    fn dedup_eviction_floor_expires_old_tokens() {
        let mut w = DedupWindow::new(4);
        for t in 1..=4u64 {
            assert_eq!(w.begin(t), DedupVerdict::New);
            w.complete(t, Response::Added(t));
        }
        // Token 5 evicts token 1; the floor rises to 1.
        assert_eq!(w.begin(5), DedupVerdict::New);
        assert_eq!(w.len(), 4);
        assert_eq!(
            w.begin(1),
            DedupVerdict::Expired,
            "evicted tokens must be refused, not re-applied"
        );
        // Still-resident tokens replay.
        assert_eq!(w.begin(3), DedupVerdict::Done(Response::Added(3)));
    }

    #[test]
    fn abandoned_token_leaves_no_stale_order_slot() {
        let mut w = DedupWindow::new(2);
        assert_eq!(w.begin(1), DedupVerdict::New);
        w.abandon(1); // e.g. a Busy shed
        assert_eq!(w.begin(2), DedupVerdict::New);
        assert_eq!(w.begin(1), DedupVerdict::New, "abandoned token retries");
        w.complete(1, Response::Added(7));
        // Evicting for token 3 must pop token 2 (the true oldest), not the
        // stale slot token 1's abandon would have left at the front.
        assert_eq!(w.begin(3), DedupVerdict::New);
        assert_eq!(
            w.begin(1),
            DedupVerdict::Done(Response::Added(7)),
            "the re-inserted live entry must survive eviction and replay"
        );
        assert_eq!(w.begin(2), DedupVerdict::Expired, "token 2 was evicted");
    }

    #[test]
    fn dedup_capacity_zero_forgets_everything() {
        let mut w = DedupWindow::new(0);
        assert_eq!(w.begin(1), DedupVerdict::New);
        w.complete(1, Response::Added(1));
        assert_eq!(
            w.begin(1),
            DedupVerdict::New,
            "disabled window is the deliberately broken mutation-check mode"
        );
        assert!(w.is_empty());
    }

    #[test]
    fn registry_dedup_routes_per_session() {
        let mut reg = SessionRegistry::new(8);
        let (tx_a, _rx_a) = channel();
        let (tx_b, _rx_b) = channel();
        reg.connect(1, Sink::Channel(tx_a));
        reg.connect(2, Sink::Channel(tx_b));
        assert_eq!(reg.dedup_begin(1, 7), DedupVerdict::New);
        assert_eq!(
            reg.dedup_begin(2, 7),
            DedupVerdict::New,
            "tokens are per-session"
        );
        reg.dedup_complete(1, 7, Response::Written);
        assert_eq!(reg.dedup_begin(1, 7), DedupVerdict::Done(Response::Written));
        assert_eq!(reg.dedup_begin(2, 7), DedupVerdict::InFlight);
        // Unknown session: New (nothing to replay to).
        assert_eq!(reg.dedup_begin(99, 1), DedupVerdict::New);
    }
}
