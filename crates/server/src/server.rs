//! The service core: worker threads, each fed directly by the transports,
//! executing transactions on the shared engine.
//!
//! # Threading model
//!
//! ```text
//! transport threads ──ingress──┬──▶ worker 0 ──▶ engine (ThreadId 0)
//!  (session % workers)         ├──▶ worker 1 ──▶ engine (ThreadId 1)
//!        │                     └──▶ ...
//!        └── all-read messages of settled sessions ──▶ engine (TRANSPORT_READER)
//!
//! worker i ──outbox, one message per session per wake-up──┬──▶ channel sinks
//!                                                         └──▶ TCP sockets
//! ```
//!
//! There is one hop in, and what crosses it is a message of whole frames:
//! a transport thread puts the request frames a session had ready, as one
//! [`ServerMsg::Frames`], straight on the queue of its session's worker
//! (`Ingress`). A worker takes everything queued without blocking, walks
//! each message frame by frame in place, and only when its queue is empty
//! commits the writes still batched, hands each session the responses made
//! since (one message of whole frames per session, see
//! [`SessionRegistry::flush_out`]) and blocks until the next message. Out
//! is one hop for a channel session (its receiver) and none for a TCP
//! session: the worker writes the message to the socket itself.
//!
//! Sessions are pinned to workers (`session % workers`; the count is
//! [`ServerConfig::shards`]), which buys three properties at once:
//!
//! * **per-session ordering** — one thread feeds a session and one worker
//!   processes its frames in arrival order, so pipelined requests are
//!   answered in order;
//! * **lock-free coalescing** — each worker owns a private [`Batcher`], and
//!   cross-session group commit happens because one worker serves many
//!   sessions, not because workers share state;
//! * **bounded engine concurrency** — the engine sees exactly one writer
//!   identity per worker (`ThreadId` = worker index), so the paper's `C` is
//!   a deployment knob rather than an emergent property of client count.
//!
//! Reads bypass the batcher: `Get`/`MultiGet` run on the engine's
//! wait-free read path ([`TmEngine::run_read`]), acquiring no ownership and
//! stalling no writer; a `MultiGet` is one read-only transaction, so its
//! values are a consistent snapshot. The one coupling point is ordering: a
//! read from a session with writes still pending in the batcher flushes
//! them first, so pipelined responses stay FIFO per session and every read
//! observes the session's own earlier writes.
//!
//! # Reads answered where they arrive
//!
//! A read needs neither of the things a worker is for — being one of the
//! `C` writers, and group commit — so a message whose frames are all
//! `Get`/`MultiGet`, from a session with nothing outstanding at its worker,
//! never crosses to it: the thread that received the message answers it
//! (`Reads`; the channel client's own thread, or the TCP connection's
//! reader). With nothing outstanding there is nothing for the answers to
//! overtake, so per-session FIFO and read-your-writes hold as before. Every
//! other message goes to the worker: writes, `Ping` (the worker's liveness
//! probe), `Close`, mixed messages, and anything behind an unanswered
//! frame. On a fault-armed server ([`ServerConfig::faults`]) every frame
//! goes to the worker, because the crash points are stages of its
//! pipeline. Transport threads read under one engine id from the engine's
//! shared range, `TRANSPORT_READER`, and count what they serve in one
//! extra [`ServerStats`] block that [`ServerHandle::stats`] sums with the
//! workers'.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use tm_stm::{Aborted, EngineStats, ReadOps, TmEngine, TxnOps, WORD_BYTES};

use crate::backpressure::{Admission, AdmissionPolicy};
use crate::batch::{BatchPolicy, Batcher, Group, PendingWrite, WriteOp};
use crate::fault::{CrashPoint, FaultState};
use crate::protocol::{
    count_frames, frame_len, peek_id, ErrorCode, Request, RequestFrame, Response, ResponseFrame,
    PROTOCOL_VERSION,
};
use crate::queue::{channel, Receiver, SendError, Sender, TryRecvError};
use crate::session::{DedupVerdict, ServerMsg, SessionId, SessionRegistry, DEFAULT_DEDUP_WINDOW};

/// Frames (and connects and disconnects) a worker handles in one drain
/// before it hands responses over anyway. A queue that never empties (more
/// producers than the worker can keep up with) would otherwise hold every
/// answer back forever. Frames, not messages: one message can hold
/// thousands.
const DELIVER_EVERY: u32 = 128;

/// Write ops between admission-controller observations (worker 0 only).
const OBSERVE_EVERY: u64 = 256;

/// Deployment knobs of one server instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Commit worker threads — the engine's writer concurrency `C`. The
    /// engine must have been built to tolerate at least this many distinct
    /// `ThreadId`s.
    pub shards: u32,
    /// Number of distinct keys the store exposes; client keys are
    /// canonicalized modulo this, and the engine heap must hold at least
    /// this many words.
    pub key_universe: u64,
    /// Group-commit policy (see [`BatchPolicy`]).
    pub batch: BatchPolicy,
    /// Admission-control policy (see [`AdmissionPolicy`]).
    pub admission: AdmissionPolicy,
    /// Yield between transactional operations inside write bodies. On
    /// machines with fewer cores than workers this interleaves partial
    /// footprints the way the harness's `yield_per_op` does — the
    /// cross-check tests rely on it; production configs leave it off.
    pub yield_in_txn: bool,
    /// Per-session idempotency dedup window (tokens remembered). `0`
    /// disables deduplication — a deliberately broken configuration that
    /// exists only so the chaos suite can prove it catches the resulting
    /// double-applies.
    pub dedup_window: usize,
    /// Armed fault plan; `None` (production) evaluates no crash points and
    /// no abort storm.
    pub faults: Option<Arc<FaultState>>,
    /// Audit `heap_sum == applied_delta` during single-worker crash
    /// recovery (valid only for increment-only traffic; a `Put` disables
    /// the check). Chaos configs turn this on.
    pub audit_increments: bool,
}

impl ServerConfig {
    /// A small default: 4 workers, 64Ki keys, grouped commit, default
    /// admission.
    pub fn new(key_universe: u64) -> Self {
        Self {
            shards: 4,
            key_universe,
            batch: BatchPolicy::grouped(),
            admission: AdmissionPolicy::default(),
            yield_in_txn: false,
            dedup_window: DEFAULT_DEDUP_WINDOW,
            faults: None,
            audit_increments: false,
        }
    }
}

/// One worker's monotone service counters. Each worker has its own block,
/// aligned so no two share a cache line, and only that worker's thread
/// writes it (recovery included), so a bump is a plain load and store
/// rather than a locked read-modify-write. One more block counts the reads
/// the transport threads answer themselves; any number of them write it,
/// with `fetch_add`. [`ServerHandle::stats`] sums the blocks.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct ServerStats {
    requests: AtomicU64,
    reads: AtomicU64,
    writes_enqueued: AtomicU64,
    busy: AtomicU64,
    malformed: AtomicU64,
    groups_committed: AtomicU64,
    ops_committed: AtomicU64,
    duplicates: AtomicU64,
    expired: AtomicU64,
    shard_restarts: AtomicU64,
    poisoned_writes: AtomicU64,
    sessions_closed: AtomicU64,
    applied_delta: AtomicU64,
    put_writes: AtomicU64,
    audit_failures: AtomicU64,
}

/// Point-in-time sum of every [`ServerStats`] block: the workers' and the
/// transport threads'.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStatsSnapshot {
    /// Frames decoded into requests.
    pub requests: u64,
    /// Read-path operations served (`Ping`, `Get`, `MultiGet`).
    pub reads: u64,
    /// Write operations admitted into the batcher.
    pub writes_enqueued: u64,
    /// Write operations refused with `Busy`.
    pub busy: u64,
    /// Frames that failed to decode.
    pub malformed: u64,
    /// Write transactions committed (groups).
    pub groups_committed: u64,
    /// Write operations committed (across all groups).
    pub ops_committed: u64,
    /// Idempotent retries recognized by the dedup window (replays of a
    /// recorded answer plus in-flight duplicates swallowed).
    pub duplicates: u64,
    /// Idempotent requests refused because their token fell below a
    /// session's dedup-window floor.
    pub expired: u64,
    /// Worker-thread panics contained and recovered.
    pub shard_restarts: u64,
    /// Writes poisoned with `ShardRestarted` (vanished without applying).
    pub poisoned_writes: u64,
    /// Sessions closed because a frame's envelope was unreadable (no
    /// correlation id to answer under).
    pub sessions_closed: u64,
    /// Sum of increments applied by committed groups (`Add` deltas plus
    /// `MultiAdd` deltas × keys) — the server's side of the conservation
    /// ledger.
    pub applied_delta: u64,
    /// `Put` operations committed. Overwrites break increment-only
    /// accounting, so any nonzero count disables the recovery audit.
    pub put_writes: u64,
    /// Recovery audits that found `heap_sum != applied_delta`. Anything
    /// nonzero means exactly-once accounting was violated.
    pub audit_failures: u64,
}

impl ServerStatsSnapshot {
    /// Mean requests per committed write transaction — the group-commit
    /// coalescing factor (1.0 means no coalescing happened).
    pub fn coalescing_factor(&self) -> f64 {
        if self.groups_committed == 0 {
            0.0
        } else {
            self.ops_committed as f64 / self.groups_committed as f64
        }
    }
}

/// Add `n` to a counter of the calling worker's own block. No other thread
/// writes the block, so nothing lands between the load and the store. The
/// counters publish no other data, hence `Relaxed`: a reader that has heard
/// from the worker since (a response received, the thread joined) sees every
/// bump made before it.
fn bump(counter: &AtomicU64, n: u64) {
    let now = counter.load(Ordering::Relaxed);
    counter.store(now.wrapping_add(n), Ordering::Relaxed);
}

/// The sum of every block (wrapping, as `applied_delta` is).
fn snapshot(blocks: &[ServerStats]) -> ServerStatsSnapshot {
    let add = |sum: &mut u64, counter: &AtomicU64| {
        *sum = sum.wrapping_add(counter.load(Ordering::Relaxed));
    };
    let mut total = ServerStatsSnapshot::default();
    for s in blocks {
        add(&mut total.requests, &s.requests);
        add(&mut total.reads, &s.reads);
        add(&mut total.writes_enqueued, &s.writes_enqueued);
        add(&mut total.busy, &s.busy);
        add(&mut total.malformed, &s.malformed);
        add(&mut total.groups_committed, &s.groups_committed);
        add(&mut total.ops_committed, &s.ops_committed);
        add(&mut total.duplicates, &s.duplicates);
        add(&mut total.expired, &s.expired);
        add(&mut total.shard_restarts, &s.shard_restarts);
        add(&mut total.poisoned_writes, &s.poisoned_writes);
        add(&mut total.sessions_closed, &s.sessions_closed);
        add(&mut total.applied_delta, &s.applied_delta);
        add(&mut total.put_writes, &s.put_writes);
        add(&mut total.audit_failures, &s.audit_failures);
    }
    total
}

/// A running server: its ingress plane and worker threads. Dropping the
/// handle shuts the server down (see [`ServerHandle::shutdown`] for the
/// orderly spelling).
pub struct ServerHandle {
    ingress: Ingress,
    next_session: Arc<AtomicU64>,
    /// One counter block per worker, indexed by worker id, then the
    /// transport threads' block.
    stats: Arc<[ServerStats]>,
    /// The read path the transports answer reads on; `None` on a
    /// fault-armed server.
    reads: Option<Reads>,
    admission: Arc<Admission>,
    workers: Vec<JoinHandle<()>>,
}

/// The ingress plane as a transport sees it: the workers' queues, with each
/// session's messages going to worker `session % workers`. Every thread that
/// feeds the server holds its own clone.
#[derive(Clone)]
pub(crate) struct Ingress {
    pub(crate) workers: Vec<Sender<ServerMsg>>,
}

impl Ingress {
    /// Queue `msg` on its session's worker; `Shutdown` goes to every
    /// worker. Fails when that worker has exited (the server shut down).
    pub(crate) fn send(&self, msg: ServerMsg) -> Result<(), SendError<ServerMsg>> {
        let session = match &msg {
            ServerMsg::Connect { session, .. }
            | ServerMsg::Frames { session, .. }
            | ServerMsg::Answers { session, .. }
            | ServerMsg::Disconnect { session } => *session,
            ServerMsg::Shutdown => {
                for worker in &self.workers {
                    // A failed send means that worker is already gone.
                    let _ = worker.send(ServerMsg::Shutdown);
                }
                return Ok(());
            }
        };
        self.workers[(session % self.workers.len() as u64) as usize].send(msg)
    }
}

/// The engine id the transport threads answer reads under. It lies in the
/// engine's shared range (from `tm_ownership::slots::SHARED` on), whose
/// counter slot is bumped with `fetch_add`, so any number of transport
/// threads may use it at once; a worker's id stays its own.
const TRANSPORT_READER: u32 = u32::MAX;

/// A server's read path as a transport thread reaches it: answer a message
/// of request frames on the calling thread, appending the response frames
/// to the buffer, and return how many were appended — or `None`, with
/// nothing run and nothing appended, when the message must go to the
/// worker (see [`answer_reads`]). The caller decides whether the session
/// has anything outstanding; this decides whether the message is all
/// reads.
pub(crate) type Reads = Arc<dyn Fn(&[u8], &mut Vec<u8>) -> Option<u64> + Send + Sync>;

/// The answer to a decoded `Get` or `MultiGet`: one read-only transaction
/// under engine id `me`. A `MultiGet`'s values are one consistent
/// snapshot. The one read implementation, for the workers and the
/// transport threads alike.
fn serve_read<E: TmEngine>(engine: &E, me: u32, key_universe: u64, request: &Request) -> Response {
    let addr = |key: u64| (key % key_universe) * WORD_BYTES;
    match request {
        Request::Get { key } => Response::Value(engine.run_read(me, |txn| txn.read(addr(*key)))),
        Request::MultiGet { keys } => Response::Values(engine.run_read(me, |txn| {
            keys.iter()
                .map(|&k| txn.read(addr(k)))
                .collect::<Result<Vec<_>, _>>()
        })),
        other => unreachable!("{other:?} is not a read"),
    }
}

/// The tag of the whole frame at the front of `bytes`, if its envelope is
/// readable: the frame is all there, long enough to hold a tag, and of
/// [`PROTOCOL_VERSION`]. What it says about the payload is nothing.
fn peek_tag(bytes: &[u8]) -> Option<u8> {
    let len = frame_len(bytes).ok()??;
    (len > 13 && bytes[4] == PROTOCOL_VERSION).then(|| bytes[13])
}

/// Whether a tag peek finds a `Close` (6) among the whole frames `message`
/// starts with.
pub(crate) fn says_close(mut message: &[u8]) -> bool {
    while let Ok(Some(len)) = frame_len(message) {
        if peek_tag(message) == Some(6) {
            return true;
        }
        message = &message[len..];
    }
    false
}

/// How many frames `message` holds if it is a run of whole frames that a
/// tag peek finds all `Get` (1) or `MultiGet` (4); `None` otherwise.
fn all_reads(message: &[u8]) -> Option<u64> {
    let mut rest = message;
    let mut frames = 0;
    while !rest.is_empty() {
        if !matches!(peek_tag(rest), Some(1 | 4)) {
            return None;
        }
        rest = &rest[frame_len(rest).ok()??..];
        frames += 1;
    }
    (frames > 0).then_some(frames)
}

/// Answer `message` on the calling thread if it is all reads (see
/// [`Reads`]), each frame as its worker would: a decoded read through
/// [`serve_read`] under [`TRANSPORT_READER`], a payload that does not
/// decode with `Error(Malformed)` under the frame's own id (the tag peek
/// found the envelope readable, so there is one). The counts go to the
/// transport threads' block, one `fetch_add` per counter per message.
fn answer_reads<E: TmEngine>(
    engine: &E,
    key_universe: u64,
    stats: &ServerStats,
    message: &[u8],
    out: &mut Vec<u8>,
) -> Option<u64> {
    let frames = all_reads(message)?;
    let mut malformed = 0;
    let mut rest = message;
    while let Ok(Some(len)) = frame_len(rest) {
        let (frame, tail) = rest.split_at(len);
        rest = tail;
        let (id, response) = match RequestFrame::decode(frame) {
            Ok(RequestFrame { id, request }) => (
                id,
                serve_read(engine, TRANSPORT_READER, key_universe, &request),
            ),
            Err(_) => {
                malformed += 1;
                let id = peek_id(frame).expect("a tag peek read the envelope");
                (id, Response::Error(ErrorCode::Malformed))
            }
        };
        ResponseFrame { id, response }.encode_into(out);
    }
    let served = frames - malformed;
    if served > 0 {
        stats.requests.fetch_add(served, Ordering::Relaxed);
        stats.reads.fetch_add(served, Ordering::Relaxed);
    }
    if malformed > 0 {
        stats.malformed.fetch_add(malformed, Ordering::Relaxed);
    }
    Some(frames)
}

/// Start a server over `engine` with `config`. The engine is shared — the
/// caller keeps its own `Arc` for invariant checks (`heap_sum`) and stats.
pub fn start<E>(engine: Arc<E>, config: ServerConfig) -> ServerHandle
where
    E: TmEngine + Send + Sync + 'static,
{
    assert!(config.shards >= 1, "need at least one worker");
    assert!(config.key_universe >= 1, "need at least one key");
    assert!(
        engine.heap().len() as u64 >= config.key_universe,
        "engine heap smaller than the key universe"
    );

    // One block per worker, then the transport threads'.
    let stats: Arc<[ServerStats]> = (0..=config.shards)
        .map(|_| ServerStats::default())
        .collect();
    let admission = Arc::new(Admission::new(config.admission));
    let reads = config.faults.is_none().then(|| {
        let engine = Arc::clone(&engine);
        let stats = Arc::clone(&stats);
        let key_universe = config.key_universe;
        let transport = config.shards as usize;
        Arc::new(move |message: &[u8], out: &mut Vec<u8>| {
            answer_reads(&*engine, key_universe, &stats[transport], message, out)
        }) as Reads
    });

    let mut worker_txs = Vec::with_capacity(config.shards as usize);
    let mut worker_handles = Vec::with_capacity(config.shards as usize);
    for id in 0..config.shards {
        let (tx, rx) = channel::<ServerMsg>();
        worker_txs.push(tx);
        let engine = Arc::clone(&engine);
        let stats = Arc::clone(&stats);
        let admission = Arc::clone(&admission);
        let config = config.clone();
        worker_handles.push(
            std::thread::Builder::new()
                .name(format!("tm-server-shard-{id}"))
                .spawn(move || worker_thread(id, rx, engine, config, stats, admission))
                .expect("spawn worker thread"),
        );
    }

    ServerHandle {
        ingress: Ingress {
            workers: worker_txs,
        },
        next_session: Arc::new(AtomicU64::new(1)),
        stats,
        reads,
        admission,
        workers: worker_handles,
    }
}

impl ServerHandle {
    /// A clone of the ingress plane (what transports feed).
    pub(crate) fn ingress(&self) -> Ingress {
        self.ingress.clone()
    }

    /// Allocate a fresh session id.
    pub(crate) fn alloc_session(&self) -> SessionId {
        self.next_session.fetch_add(1, Ordering::Relaxed)
    }

    /// The read path transports answer all-read messages on, or `None`
    /// when every frame must go to a worker (a fault-armed server).
    pub(crate) fn reads(&self) -> Option<Reads> {
        self.reads.clone()
    }

    /// The shared session-id allocator (transports running on their own
    /// threads clone this).
    pub(crate) fn session_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.next_session)
    }

    /// Service counters.
    pub fn stats(&self) -> ServerStatsSnapshot {
        snapshot(&self.stats)
    }

    /// The admission gauge (budget, inflight, shed count).
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// A clone of the shared admission gauge. It outlives the handle, so
    /// post-shutdown audits (the chaos runner) can verify every admitted
    /// write — delivered, vanished, or poisoned — released its cost.
    pub fn admission_handle(&self) -> Arc<Admission> {
        Arc::clone(&self.admission)
    }

    /// Drain pending batches, answer everything accepted so far, stop all
    /// threads, and wait for them. Frames still in transport buffers after
    /// this returns are dropped. Returns the final counters (the drain can
    /// still commit groups, so this is the only snapshot that accounts
    /// everything).
    pub fn shutdown(mut self) -> ServerStatsSnapshot {
        self.shutdown_inner();
        snapshot(&self.stats)
    }

    fn shutdown_inner(&mut self) {
        // Each worker finds `Shutdown` behind everything it was sent before
        // this call (channel FIFO), so the drain ordering is trivial.
        // Idempotent: workers that already exited are skipped.
        let _ = self.ingress.send(ServerMsg::Shutdown);
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// A write caught between admission and the batcher: the window where the
/// [`CrashPoint::BatchEnqueue`] crash point can strand admitted cost.
struct ProcessingWrite {
    session: SessionId,
    id: u64,
    token: Option<u64>,
    cost: u64,
}

/// The group currently running its engine transaction. `committed` flips
/// from `None` to `Some` the instant the transaction has committed —
/// recovery uses it to decide between "deliver the acks anyway" and "the
/// group vanished".
struct InFlightGroup {
    group: Group,
    committed: Option<Vec<Response>>,
}

/// The inbound message a worker is walking. It lives in the [`Worker`],
/// outside the unwind, so a contained panic costs the one frame it struck
/// and not the frames behind it in the same message: the restarted loop
/// resumes at `next`.
#[derive(Default)]
struct Inbound {
    session: SessionId,
    bytes: Vec<u8>,
    /// Where the first frame not yet handled starts.
    next: usize,
    /// Frames not yet handled. A message that is not exactly a run of whole
    /// frames counts as one: all of it, undecodable.
    left: usize,
}

impl Inbound {
    fn new(session: SessionId, bytes: Vec<u8>) -> Self {
        let left = count_frames(&bytes).unwrap_or(1);
        Self {
            session,
            bytes,
            next: 0,
            left,
        }
    }

    /// Where the next frame lies in `bytes`. It is taken off *before* it is
    /// handled, so a panic while handling it makes it vanish, not repeat.
    fn pop(&mut self) -> Option<Range<usize>> {
        self.left = self.left.checked_sub(1)?;
        let start = self.next;
        let rest = &self.bytes[start..];
        self.next += match self.left {
            0 => rest.len(),
            _ => frame_len(rest)
                .ok()
                .flatten()
                .expect("whole frames, counted on arrival"),
        };
        Some(start..self.next)
    }
}

/// What a worker counts from unit to unit (a unit is a frame, a connect or
/// a disconnect). Started afresh with the worker and after every restart.
struct Pace {
    /// Engine counters at the last admission observation.
    last_engine: EngineStats,
    /// Write ops admitted since then.
    writes_since_observe: u64,
    /// Units handled since responses were last handed over.
    handled: u32,
    /// The clock reading of the current message, taken the first time a
    /// write needs it; cleared when the worker takes a message off its
    /// queue and every [`DELIVER_EVERY`] units. See [`Pace::now`].
    now: Option<Instant>,
}

impl Pace {
    fn new<E: TmEngine>(engine: &E) -> Self {
        Self {
            last_engine: engine.engine_stats(),
            writes_since_observe: 0,
            handled: 0,
            now: None,
        }
    }

    /// What a batched write is stamped with and what the oldest one's age
    /// is measured against: one clock reading per message (per
    /// [`DELIVER_EVERY`] units of a longer one), not two per write, and
    /// none for a message of reads with nothing batched.
    fn now(&mut self) -> Instant {
        *self.now.get_or_insert_with(Instant::now)
    }
}

/// Worker thread: serve under `catch_unwind`; on a panic, repair the
/// worker's state and serve again. The engine itself never unwinds
/// mid-transaction — every crash point sits outside `TmEngine::run` — so
/// containment is a server-state problem, which is exactly what
/// [`Worker::recover`] repairs.
fn worker_thread<E: TmEngine>(
    id: u32,
    rx: Receiver<ServerMsg>,
    engine: Arc<E>,
    config: ServerConfig,
    stats: Arc<[ServerStats]>,
    admission: Arc<Admission>,
) {
    let mut worker = Worker::new(id, &*engine, &config, &stats[id as usize], &admission);
    while catch_unwind(AssertUnwindSafe(|| worker.serve(&rx))).is_err() {
        worker.recover();
    }
}

/// One worker: decode, serve reads inline, batch writes, flush on fill or
/// on an empty queue, observe abort ratio into the admission budget.
///
/// It borrows what the server shares and owns everything that must survive
/// a contained panic. It lives in the worker thread's frame, *outside*
/// `catch_unwind`, so [`Worker::recover`] can audit and repair it after an
/// unwind.
struct Worker<'a, E> {
    /// The engine's `ThreadId` for this worker, and its index.
    id: u32,
    engine: &'a E,
    config: &'a ServerConfig,
    /// This worker's own counter block.
    stats: &'a ServerStats,
    admission: &'a Admission,
    registry: SessionRegistry,
    batcher: Batcher,
    /// Write mid-handoff into the batcher (see [`ProcessingWrite`]).
    processing: Option<ProcessingWrite>,
    /// Groups drained out of the batcher but not yet run. They live here —
    /// not in a flush-local temporary — so a panic partway through a
    /// multi-group flush leaves the remainder reachable for recovery to
    /// vanish (release cost, abandon tokens, poison sessions) instead of
    /// silently leaking it.
    pending_groups: VecDeque<Group>,
    /// Group mid-commit (see [`InFlightGroup`]).
    current: Option<InFlightGroup>,
    inbound: Inbound,
    pace: Pace,
}

impl<'a, E: TmEngine> Worker<'a, E> {
    fn new(
        id: u32,
        engine: &'a E,
        config: &'a ServerConfig,
        stats: &'a ServerStats,
        admission: &'a Admission,
    ) -> Self {
        Self {
            id,
            engine,
            config,
            stats,
            admission,
            registry: SessionRegistry::new(config.dedup_window),
            batcher: Batcher::with_faults(config.batch, config.faults.clone()),
            processing: None,
            pending_groups: VecDeque::new(),
            current: None,
            inbound: Inbound::default(),
            pace: Pace::new(engine),
        }
    }

    /// Serve `rx` until `Shutdown`. Each wake-up drains the queue without
    /// blocking, commits what is still batched, hands every session its
    /// responses in one message, then blocks: a client is woken when its
    /// answers are complete, no write waits a timer.
    fn serve(&mut self, rx: &Receiver<ServerMsg>) {
        // A restart: the frames behind the one the panic struck come first.
        if self.inbound.left > 0 {
            self.walk();
        }
        loop {
            let next = match rx.try_recv() {
                Err(TryRecvError::Empty) => {
                    self.on_idle();
                    rx.recv().ok()
                }
                ready => ready.ok(),
            };
            // A queue whose senders are all gone ends like `Shutdown`.
            if !self.on_message(next.unwrap_or(ServerMsg::Shutdown)) {
                return;
            }
        }
    }

    /// About to block: nothing more will join the pending groups, so commit
    /// them and hand every session its responses.
    fn on_idle(&mut self) {
        self.flush();
        self.registry.flush_out();
        self.pace.handled = 0;
    }

    /// Handle one message off the queue; `false` once it was `Shutdown`.
    fn on_message(&mut self, msg: ServerMsg) -> bool {
        self.pace.now = None;
        match msg {
            ServerMsg::Connect { session, sink } => self.registry.connect(session, sink),
            ServerMsg::Answers {
                session,
                bytes,
                answers,
            } => self.registry.append(session, &bytes, answers),
            ServerMsg::Disconnect { session } => self.disconnect(session),
            ServerMsg::Frames { session, bytes } => {
                self.inbound = Inbound::new(session, bytes);
                self.walk();
                return true;
            }
            ServerMsg::Shutdown => {
                // Graceful drain: in-flight groups fully commit, their acks
                // reach the sinks before the registry (and the sinks with
                // it) is dropped, and nothing new is accepted after this.
                self.on_idle();
                return false;
            }
        }
        self.after_unit();
        true
    }

    /// Forget `session`. As for `Close`: its accepted writes commit and
    /// are acknowledged before it is forgotten. A peer whose stream the
    /// reader gave up on, or whose envelope was unreadable, is still there
    /// to read.
    fn disconnect(&mut self, session: SessionId) {
        if self.batcher.has_session(session) {
            self.flush();
        }
        self.registry.disconnect(session);
    }

    /// Handle what is left of the inbound message, one frame at a time,
    /// each with every per-frame guarantee (the closed-session guard and the
    /// ingress crash point in [`Worker::handle_frame`], then
    /// [`Worker::after_unit`]); then hand the emptied buffer to its session.
    fn walk(&mut self) {
        let session = self.inbound.session;
        while let Some(frame) = self.inbound.pop() {
            self.handle_frame(session, frame);
            self.after_unit();
        }
        self.registry
            .recycle(session, std::mem::take(&mut self.inbound.bytes));
    }

    /// What follows every unit: commit at the cap, hand responses over (and
    /// let the clock be read again) every [`DELIVER_EVERY`] units, fold the
    /// abort ratio into the admission budget every [`OBSERVE_EVERY`] writes.
    fn after_unit(&mut self) {
        // A group is full, or this drain has outlasted `latency_budget` by
        // the worker's reading of the clock for this message.
        if !self.batcher.is_empty() && self.batcher.should_flush(self.pace.now()) {
            self.flush();
        }
        self.pace.handled += 1;
        if self.pace.handled >= DELIVER_EVERY {
            self.registry.flush_out();
            self.pace.handled = 0;
            // One message can hold thousands of frames: a fresh reading
            // keeps the age cap within `DELIVER_EVERY` units of the truth.
            self.pace.now = None;
        }
        // Worker 0 periodically folds the windowed abort ratio into the
        // shared admission budget (one observer keeps windows disjoint).
        if self.id == 0 && self.pace.writes_since_observe >= OBSERVE_EVERY {
            let now_stats = self.engine.engine_stats();
            self.admission
                .observe(now_stats.since(&self.pace.last_engine).abort_ratio());
            self.pace.last_engine = now_stats;
            self.pace.writes_since_observe = 0;
        }
    }

    /// Handle the frame at `frame` in the inbound message from `session`.
    fn handle_frame(&mut self, session: SessionId, frame: Range<usize>) {
        // Frames addressed to a session this worker already closed are
        // discarded unread — exactly like bytes arriving after a TCP reset.
        // Processing them would resurrect the session without its dedup
        // window, so a still-in-flight retry of an enqueued idempotent
        // write would classify as `New` and apply twice.
        if !self.registry.contains(session) {
            return;
        }
        // Crash point: before any processing — an injected panic here makes
        // the frame vanish entirely (never applied, never answered).
        if let Some(f) = &self.config.faults {
            f.crash_point(CrashPoint::FrameIngress);
        }
        let frame = match RequestFrame::decode(&self.inbound.bytes[frame.clone()]) {
            Ok(decoded) => decoded,
            Err(_) => {
                bump(&self.stats.malformed, 1);
                match peek_id(&self.inbound.bytes[frame]) {
                    // The envelope was readable: answer under the frame's
                    // own correlation id so the client can match the error.
                    Some(id) => {
                        self.registry
                            .respond(session, id, Response::Error(ErrorCode::Malformed));
                    }
                    // No recoverable id. Answering under a fabricated id
                    // would desynchronize the client's pipeline (it would
                    // attribute the error to a request it never made), so
                    // close the session instead: it reads its earlier
                    // answers, then EOF.
                    None => {
                        bump(&self.stats.sessions_closed, 1);
                        self.disconnect(session);
                    }
                }
                return;
            }
        };
        bump(&self.stats.requests, 1);
        let id = frame.id;

        // Unwrap the idempotency envelope through the session's dedup window.
        let (token, request) = match frame.request {
            Request::Idempotent { token, op } => match self.registry.dedup_begin(session, token) {
                DedupVerdict::New => (Some(token), *op),
                DedupVerdict::InFlight => {
                    // The original delivery is still working; it will answer.
                    bump(&self.stats.duplicates, 1);
                    return;
                }
                DedupVerdict::Done(resp) => {
                    // Applied already: replay the recorded answer under the
                    // retry's id, apply nothing.
                    bump(&self.stats.duplicates, 1);
                    self.registry.respond(session, id, resp);
                    return;
                }
                DedupVerdict::Expired => {
                    bump(&self.stats.expired, 1);
                    self.registry
                        .respond(session, id, Response::Error(ErrorCode::Expired));
                    return;
                }
            },
            other => (None, other),
        };

        let key_universe = self.config.key_universe;
        let canon = |key: u64| key % key_universe;

        // Inline-answered requests must not overtake the same session's
        // batched writes: flush first so per-session responses stay FIFO and
        // reads see the session's own writes (other sessions' groups ride
        // along — the batcher drains whole, which only shortens their
        // latency).
        if !request.is_write() && self.batcher.has_session(session) {
            self.flush();
        }

        match request {
            Request::Ping => {
                bump(&self.stats.reads, 1);
                self.registry.respond(session, id, Response::Pong);
            }
            read @ (Request::Get { .. } | Request::MultiGet { .. }) => {
                bump(&self.stats.reads, 1);
                let response = serve_read(self.engine, self.id, key_universe, &read);
                self.registry.respond(session, id, response);
            }
            Request::Close => {
                // Complete the session's earlier writes before saying
                // goodbye, so Closed acknowledges a fully applied history.
                self.flush();
                self.registry.respond(session, id, Response::Closed);
                self.registry.disconnect(session);
            }
            req @ (Request::Put { .. }
            | Request::Add { .. }
            | Request::MultiAdd { .. }
            | Request::MultiPut { .. }) => {
                let cost = req.cost();
                if !self.admission.try_admit(cost) {
                    bump(&self.stats.busy, 1);
                    if let Some(token) = token {
                        // The write was not applied; a retry must be
                        // allowed to apply it.
                        self.registry.dedup_abandon(session, token);
                    }
                    self.registry.respond(session, id, Response::Busy);
                    return;
                }
                bump(&self.stats.writes_enqueued, 1);
                self.pace.writes_since_observe += 1;
                let op = match req {
                    Request::Put { key, value } => WriteOp::Put {
                        key: canon(key),
                        value,
                    },
                    Request::Add { key, delta } => WriteOp::Add {
                        key: canon(key),
                        delta,
                    },
                    Request::MultiAdd { keys, delta } => WriteOp::MultiAdd {
                        keys: keys.into_iter().map(canon).collect(),
                        delta,
                    },
                    Request::MultiPut { pairs } => WriteOp::MultiPut {
                        keys: pairs.iter().map(|&(k, _)| canon(k)).collect(),
                        values: pairs.into_iter().map(|(_, v)| v).collect(),
                    },
                    _ => unreachable!("matched write variants above"),
                };
                // Bracket the admission→batcher handoff so recovery can
                // repair a crash inside `push` (the BatchEnqueue crash
                // point).
                self.processing = Some(ProcessingWrite {
                    session,
                    id,
                    token,
                    cost,
                });
                self.batcher.push(
                    PendingWrite {
                        session,
                        id,
                        token,
                        op,
                    },
                    self.pace.now(),
                );
                self.processing = None;
            }
            Request::Idempotent { .. } => {
                // Decode rejects nested wrappers; `dedup_begin` already
                // unwrapped one level.
                unreachable!("idempotent envelope unwrapped above")
            }
        }
    }

    /// Execute every pending group, one engine transaction per group, then
    /// answer and release admission cost. Drained groups park in
    /// `pending_groups` and move into `current` one at a time, so a panic
    /// anywhere in here leaves every undelivered group reachable for
    /// [`Worker::recover`] — nothing is stranded in a stack-local.
    fn flush(&mut self) {
        self.pending_groups.extend(self.batcher.drain());
        while let Some(group) = self.pending_groups.pop_front() {
            self.current = Some(InFlightGroup {
                group,
                committed: None,
            });
            self.run_current_group();
        }
    }

    /// Run `current` through one engine transaction and deliver its acks.
    /// The commit handoff is deliberately tight: the responses (and the
    /// applied-delta ledger) are recorded into `current` immediately after
    /// `TmEngine::run` returns, with no crash point in between, so a panic
    /// can never lose the fact that the heap moved.
    fn run_current_group(&mut self) {
        // Crash point: the group is out of the batcher but not yet
        // committed — it must vanish whole.
        let faults = self.config.faults.as_deref();
        if let Some(f) = faults {
            f.crash_point(CrashPoint::BeforeGroupCommit);
        }
        let yield_in_txn = self.config.yield_in_txn;
        let ifg = self.current.as_mut().expect("flush set the group");
        let group = &ifg.group;
        // The body reruns from scratch on abort, so responses are rebuilt per
        // attempt and only the committed attempt's vector escapes.
        let responses = self.engine.run(self.id, |txn| {
            // The abort-storm fault probe: a forced voluntary abort, retried
            // like any real conflict (attributed ExplicitRetry in telemetry).
            if faults.is_some_and(FaultState::force_abort) {
                return Err(Aborted);
            }
            let mut out = Vec::with_capacity(group.ops.len());
            for pw in &group.ops {
                let resp = match &pw.op {
                    WriteOp::Put { key, value } => {
                        txn.write(key * WORD_BYTES, *value)?;
                        Response::Written
                    }
                    WriteOp::Add { key, delta } => {
                        Response::Added(txn.update_add(key * WORD_BYTES, *delta)?)
                    }
                    WriteOp::MultiAdd { keys, delta } => {
                        for k in keys {
                            txn.update_add(k * WORD_BYTES, *delta)?;
                            if yield_in_txn {
                                std::thread::yield_now();
                            }
                        }
                        Response::MultiAdded {
                            applied: keys.len() as u32,
                        }
                    }
                    WriteOp::MultiPut { keys, values } => {
                        for (k, v) in keys.iter().zip(values) {
                            txn.write(k * WORD_BYTES, *v)?;
                            if yield_in_txn {
                                std::thread::yield_now();
                            }
                        }
                        Response::MultiWritten {
                            applied: keys.len() as u32,
                        }
                    }
                };
                out.push(resp);
                if yield_in_txn {
                    std::thread::yield_now();
                }
            }
            Ok(out)
        });

        // Committed: record the ledger and the responses before anything can
        // panic, so recovery still delivers the acks.
        let mut delta = 0u64;
        let mut puts = 0u64;
        for pw in &group.ops {
            match &pw.op {
                WriteOp::Put { .. } => puts += 1,
                // Wrapping, as the heap words and `heap_sum` are: a delta is
                // the client's to choose.
                WriteOp::Add { delta: d, .. } => delta = delta.wrapping_add(*d),
                WriteOp::MultiAdd { keys, delta: d } => {
                    delta = delta.wrapping_add(d.wrapping_mul(keys.len() as u64))
                }
                // Overwrites break increment accounting key-by-key.
                WriteOp::MultiPut { keys, .. } => puts += keys.len() as u64,
            }
        }
        bump(&self.stats.groups_committed, 1);
        bump(&self.stats.ops_committed, group.ops.len() as u64);
        bump(&self.stats.applied_delta, delta);
        bump(&self.stats.put_writes, puts);
        ifg.committed = Some(responses);

        // Crash point: committed but unacknowledged — recovery must deliver
        // the recorded acks or conservation breaks from the client's side.
        if let Some(f) = faults {
            f.crash_point(CrashPoint::AfterGroupCommit);
        }
        self.deliver_current();
    }

    /// Deliver the committed group's acks: release its admission cost in
    /// one go, then record dedup outcomes and respond. Shared by the normal
    /// path and crash recovery.
    fn deliver_current(&mut self) {
        let Some(ifg) = self.current.take() else {
            return;
        };
        let mut group = ifg.group;
        let responses = ifg
            .committed
            .expect("deliver_current needs a committed group");
        self.admission.release(admitted_cost(&group));
        for (pw, response) in group.ops.drain(..).zip(responses) {
            if let Some(token) = pw.token {
                self.registry
                    .dedup_complete(pw.session, token, response.clone());
            }
            self.registry.respond(pw.session, pw.id, response);
        }
        self.batcher.recycle(group);
    }

    /// Poison every op of a group that vanished without committing, after
    /// releasing the group's admission cost in one go.
    fn vanish_group(&mut self, group: Group) {
        self.admission.release(admitted_cost(&group));
        bump(&self.stats.poisoned_writes, group.ops.len() as u64);
        for pw in group.ops {
            if let Some(token) = pw.token {
                self.registry.dedup_abandon(pw.session, token);
            }
            self.registry.respond(
                pw.session,
                pw.id,
                Response::Error(ErrorCode::ShardRestarted),
            );
        }
    }

    /// Repair the worker after a contained panic, so that it can serve
    /// again:
    ///
    /// 1. A group that had already **committed** still delivers its acks —
    ///    the heap moved, so suppressing the acks would break `heap_sum ==
    ///    acked increments` from the clients' side.
    /// 2. A group that had **not** committed vanishes whole: every op's
    ///    admission cost is released, its dedup token abandoned (a retry
    ///    must be allowed to apply), and its session poisoned with
    ///    [`ErrorCode::ShardRestarted`].
    /// 3. Groups drained for a flush but not yet run, then everything still
    ///    pending in the batcher, vanish like (2) — in that order, which is
    ///    pipeline order (drained groups are older than batched ones).
    /// 4. A write stranded between admission and the batcher — the newest
    ///    accepted write, so poisoned last to keep per-session responses
    ///    FIFO — is poisoned the same way.
    /// 5. With `audit_increments` on a single-worker server (the one case
    ///    with no concurrent writers), cross-check `heap_sum` against the
    ///    applied ledger and count any divergence in `audit_failures`.
    /// 6. Poison frames and recovered acks leave now, not whenever the
    ///    restarted loop next finds its queue empty, and the unit counts
    ///    start afresh.
    fn recover(&mut self) {
        bump(&self.stats.shard_restarts, 1);

        if let Some(ifg) = self.current.take_if(|ifg| ifg.committed.is_none()) {
            self.vanish_group(ifg.group);
        }
        self.deliver_current();
        while let Some(group) = self.pending_groups.pop_front() {
            self.vanish_group(group);
        }
        for group in self.batcher.drain() {
            self.vanish_group(group);
        }
        if let Some(p) = self.processing.take() {
            self.admission.release(p.cost);
            if let Some(token) = p.token {
                self.registry.dedup_abandon(p.session, token);
            }
            bump(&self.stats.poisoned_writes, 1);
            self.registry
                .respond(p.session, p.id, Response::Error(ErrorCode::ShardRestarted));
        }

        if self.config.audit_increments
            && self.config.shards == 1
            && self.stats.put_writes.load(Ordering::Relaxed) == 0
        {
            let heap = self.engine.heap_sum(self.config.key_universe as usize);
            let applied = self.stats.applied_delta.load(Ordering::Relaxed);
            if heap != applied {
                bump(&self.stats.audit_failures, 1);
            }
        }

        self.registry.flush_out();
        self.pace = Pace::new(self.engine);
    }
}

/// What admitting the group's ops cost: each op's `Request::cost`, the
/// keys it touches.
fn admitted_cost(group: &Group) -> u64 {
    group.ops.iter().map(|pw| pw.op.keys().len() as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    use tm_stm::{ConcurrentTaglessTable, Stm, StmBuilder};

    use crate::fault::{CrashSchedule, FaultPlan};
    use crate::protocol::{FrameBuf, ResponseFrame};
    use crate::session::Sink;

    const KEY: u64 = 5;
    const SESSION: SessionId = 1;

    type Engine = Stm<ConcurrentTaglessTable>;

    /// What one worker borrows: a 64-word engine and a one-worker config.
    struct Frame {
        engine: Engine,
        config: ServerConfig,
        stats: ServerStats,
        admission: Admission,
    }

    impl Frame {
        fn new(faults: Option<Arc<FaultState>>) -> Self {
            let mut config = ServerConfig::new(64);
            config.shards = 1;
            config.faults = faults;
            Self {
                engine: StmBuilder::new()
                    .heap_words(64)
                    .table_entries(64)
                    .build_tagless(),
                admission: Admission::new(config.admission),
                config,
                stats: ServerStats::default(),
            }
        }

        /// Worker 0, with `SESSION` connected to the returned receiver.
        fn worker(&self) -> (Worker<'_, Engine>, Receiver<Vec<u8>>) {
            let mut worker =
                Worker::new(0, &self.engine, &self.config, &self.stats, &self.admission);
            let (tx, rx) = channel();
            assert!(worker.on_message(ServerMsg::Connect {
                session: SESSION,
                sink: Sink::Channel(tx),
            }));
            (worker, rx)
        }

        fn stats(&self) -> ServerStatsSnapshot {
            snapshot(std::slice::from_ref(&self.stats))
        }
    }

    /// `requests` under ids 1, 2, ... as one `Frames` message from `SESSION`.
    fn frames_of(requests: &[Request]) -> ServerMsg {
        let mut bytes = Vec::new();
        for (request, id) in requests.iter().cloned().zip(1..) {
            bytes.extend(RequestFrame { id, request }.encode());
        }
        ServerMsg::Frames {
            session: SESSION,
            bytes,
        }
    }

    /// The `(id, response)` pairs of one sink message.
    fn answers(message: &[u8]) -> Vec<(u64, Response)> {
        let mut fb = FrameBuf::new();
        fb.extend(message);
        let mut out = Vec::new();
        while let Some(frame) = fb.next_frame().unwrap() {
            let frame = ResponseFrame::decode(&frame).unwrap();
            out.push((frame.id, frame.response));
        }
        out
    }

    fn add() -> Request {
        Request::Add { key: KEY, delta: 1 }
    }

    #[test]
    fn one_message_is_answered_in_one_message_after_idle() {
        let frame = Frame::new(None);
        let (mut worker, rx) = frame.worker();
        assert!(worker.on_message(frames_of(&[add(), add(), Request::Get { key: KEY }])));
        worker.on_idle();
        let wanted = [
            (1, Response::Added(1)),
            (2, Response::Added(2)),
            (3, Response::Value(2)),
        ];
        assert_eq!(answers(&rx.try_recv().expect("one message")), wanted);
        assert!(rx.try_recv().is_err(), "exactly one message");
        // Batching rule 1: a group's ops are key-disjoint, so each `Add`
        // commits alone.
        assert_eq!(frame.stats().groups_committed, 2);
    }

    #[test]
    fn a_crash_before_commit_poisons_the_group_and_the_worker_serves_on() {
        let plan = FaultPlan {
            crashes: vec![CrashSchedule {
                point: CrashPoint::BeforeGroupCommit,
                at_hit: 3,
            }],
            ..FaultPlan::none(7)
        };
        let frame = Frame::new(Some(plan.arm()));
        let (mut worker, rx) = frame.worker();
        let message = || frames_of(&[add(), add(), Request::Get { key: KEY }]);

        // Hits 1 and 2 commit, one `Add` each.
        assert!(worker.on_message(message()));
        worker.on_idle();
        assert_eq!(answers(&rx.try_recv().unwrap()).len(), 3);

        // Hit 3 panics in the flush the `Get` starts: the first `Add`'s
        // group vanishes mid-commit, the second's still drained, and the
        // `Get` with the frame it was.
        let unwound = catch_unwind(AssertUnwindSafe(|| worker.on_message(message())));
        assert!(unwound.is_err(), "the armed crash fired");
        worker.recover();
        let wanted = [
            (1, Response::Error(ErrorCode::ShardRestarted)),
            (2, Response::Error(ErrorCode::ShardRestarted)),
        ];
        assert_eq!(answers(&rx.try_recv().expect("poison sent")), wanted);
        assert_eq!(frame.admission.inflight(), 0);
        let stats = frame.stats();
        assert_eq!((stats.shard_restarts, stats.poisoned_writes), (1, 2));
        assert_eq!(frame.engine.heap_sum(64), 2, "the group never applied");

        // The same worker serves on.
        assert!(worker.on_message(frames_of(&[Request::Get { key: KEY }])));
        worker.on_idle();
        assert_eq!(answers(&rx.try_recv().unwrap()), [(1, Response::Value(2))]);
    }

    #[test]
    fn an_unreadable_envelope_acks_the_sessions_writes_before_closing_it() {
        let frame = Frame::new(None);
        let (mut worker, rx) = frame.worker();
        let ServerMsg::Frames { session, mut bytes } = frames_of(&[add()]) else {
            unreachable!()
        };
        // A whole frame whose envelope yields no correlation id.
        bytes.extend([9, 0, 0, 0, 42, 1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(worker.on_message(ServerMsg::Frames { session, bytes }));
        worker.on_idle();
        assert_eq!(
            answers(&rx.try_recv().expect("the ack before EOF")),
            [(1, Response::Added(1))]
        );
        assert!(matches!(rx.try_recv(), Err(TryRecvError::Disconnected)));
        let stats = frame.stats();
        assert_eq!((stats.sessions_closed, stats.ops_committed), (1, 1));
        assert_eq!(frame.engine.heap_sum(64), 1);
    }

    #[test]
    fn the_transport_answers_reads_exactly_as_the_worker_does() {
        let frame = Frame::new(None);
        let (mut worker, rx) = frame.worker();
        let ServerMsg::Frames { mut bytes, .. } = frames_of(&[
            Request::Get { key: KEY },
            Request::Get { key: KEY },
            Request::MultiGet {
                keys: vec![KEY, KEY + 64],
            },
        ]) else {
            unreachable!()
        };
        // The second `Get` one byte short: envelope readable, payload not.
        let second = RequestFrame {
            id: 1,
            request: Request::Get { key: KEY },
        }
        .encode()
        .len();
        bytes.remove(2 * second - 1);
        bytes[second..second + 4].copy_from_slice(&(second as u32 - 5).to_le_bytes());

        let mut here = Vec::new();
        let transport = ServerStats::default();
        let answered = answer_reads(&frame.engine, 64, &transport, &bytes, &mut here);
        assert_eq!(answered, Some(3));
        let session = SESSION;
        assert!(worker.on_message(ServerMsg::Frames { session, bytes }));
        worker.on_idle();
        let there = rx.try_recv().expect("the worker's answers");
        assert_eq!(answers(&here), answers(&there));
        assert_eq!(answers(&here)[1].1, Response::Error(ErrorCode::Malformed));
        assert_eq!(
            snapshot(std::slice::from_ref(&transport)),
            frame.stats(),
            "the same counts"
        );

        // Anything but reads is the worker's, and nothing of it runs here.
        for other in [Request::Ping, Request::Close, add()] {
            let ServerMsg::Frames { bytes, .. } = frames_of(&[Request::Get { key: 0 }, other])
            else {
                unreachable!()
            };
            let mut out = Vec::new();
            assert_eq!(
                answer_reads(&frame.engine, 64, &transport, &bytes, &mut out),
                None
            );
            assert!(out.is_empty());
        }
        let cut = &RequestFrame {
            id: 1,
            request: Request::Get { key: 0 },
        }
        .encode()[..10];
        assert_eq!(all_reads(cut), None, "not a whole frame");
        assert_eq!(all_reads(&[]), None);
    }

    #[test]
    fn a_fault_armed_server_answers_nothing_outside_its_workers() {
        let engine = || {
            Arc::new(
                StmBuilder::new()
                    .heap_words(64)
                    .table_entries(64)
                    .build_tagless(),
            )
        };
        let mut config = ServerConfig::new(64);
        config.shards = 1;
        assert!(start(engine(), config.clone()).reads().is_some());
        config.faults = Some(FaultPlan::none(7).arm());
        assert!(start(engine(), config).reads().is_none());
    }
}
