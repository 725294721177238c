//! The service core: shard threads, each fed directly by the transports,
//! executing transactions on the shared engine.
//!
//! # Threading model
//!
//! ```text
//! transport threads ──ingress──┬──▶ shard 0 ──▶ engine (ThreadId 0)
//!  (session % shards)          ├──▶ shard 1 ──▶ engine (ThreadId 1)
//!                              └──▶ ...
//!
//! shard i ──outbox, one message per session per wake-up──┬──▶ channel sinks
//!                                                        └──▶ TCP sockets
//! ```
//!
//! There is one hop in, and what crosses it is a message of whole frames:
//! a transport thread puts the request frames a session had ready, as one
//! [`ServerMsg::Frames`], straight on the queue of its session's shard
//! (`Ingress`). A shard takes everything queued without blocking, walks
//! each message frame by frame in place, and only when its queue is empty
//! commits the writes still batched, hands each session the responses made
//! since (one message of whole frames per session, see
//! [`SessionRegistry::flush_out`]) and blocks until the next message. Out
//! is one hop for a channel session (its receiver) and none for a TCP
//! session: the shard writes the message to the socket itself.
//!
//! Sessions are pinned to shards (`session % shards`), which buys three
//! properties at once:
//!
//! * **per-session ordering** — one thread feeds a session and one shard
//!   processes its frames in arrival order, so pipelined requests are
//!   answered in order;
//! * **lock-free coalescing** — each shard owns a private [`Batcher`], and
//!   cross-session group commit happens because one shard serves many
//!   sessions, not because shards share state;
//! * **bounded engine concurrency** — the engine sees exactly `shards`
//!   writer identities (`ThreadId` = shard index), so the paper's `C` is a
//!   deployment knob rather than an emergent property of client count.
//!
//! Reads bypass the batcher: `Get`/`MultiGet` run inline on the engine's
//! wait-free read path ([`TmEngine::run_read`]), acquiring no ownership and
//! stalling no writer; a `MultiGet` is one read-only transaction, so its
//! values are a consistent snapshot. The one coupling point is ordering: a
//! read from a session with writes still pending in the batcher flushes
//! them first, so pipelined responses stay FIFO per session and every read
//! observes the session's own earlier writes.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, SendError, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use tm_stm::{Aborted, EngineStats, ReadOps, TmEngine, TxnOps, WORD_BYTES};

use crate::backpressure::{Admission, AdmissionPolicy};
use crate::batch::{BatchPolicy, Batcher, Group, PendingWrite, WriteOp};
use crate::fault::{CrashPoint, FaultState};
use crate::protocol::{
    count_frames, frame_len, peek_id, ErrorCode, Request, RequestFrame, Response,
};
use crate::session::{DedupVerdict, ServerMsg, SessionId, SessionRegistry, DEFAULT_DEDUP_WINDOW};

/// Frames (and connects and disconnects) a shard handles in one drain
/// before it hands responses over anyway. A queue that never empties (more
/// producers than the shard can keep up with) would otherwise hold every
/// answer back forever. Frames, not messages: one message can hold
/// thousands.
const DELIVER_EVERY: u32 = 128;

/// Write ops between admission-controller observations (shard 0 only).
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
    /// machines with fewer cores than shards this interleaves partial
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
    /// Audit `heap_sum == applied_delta` during single-shard crash
    /// recovery (valid only for increment-only traffic; a `Put` disables
    /// the check). Chaos configs turn this on.
    pub audit_increments: bool,
}

impl ServerConfig {
    /// A small default: 4 shards, 64Ki keys, grouped commit, default
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

/// One shard's monotone service counters. Each shard has its own block,
/// aligned so no two share a cache line, and only that shard's thread
/// writes it (recovery included), so a bump is a plain load and store
/// rather than a locked read-modify-write. [`ServerHandle::stats`] sums
/// the blocks.
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

/// Point-in-time sum of every shard's [`ServerStats`].
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
    /// Shard-thread panics contained and recovered.
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

/// Add `n` to a counter of the calling shard's own block. No other thread
/// writes the block, so nothing lands between the load and the store. The
/// counters publish no other data, hence `Relaxed`: a reader that has heard
/// from the shard since (a response received, the thread joined) sees every
/// bump made before it.
fn bump(counter: &AtomicU64, n: u64) {
    let now = counter.load(Ordering::Relaxed);
    counter.store(now.wrapping_add(n), Ordering::Relaxed);
}

/// The sum of every shard's block (wrapping, as `applied_delta` is).
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
    /// One counter block per shard, indexed by shard id.
    stats: Arc<[ServerStats]>,
    admission: Arc<Admission>,
    shards: Vec<JoinHandle<()>>,
}

/// The ingress plane as a transport sees it: the shards' queues, with each
/// session's messages going to shard `session % shards`. Every thread that
/// feeds the server holds its own clone.
#[derive(Clone)]
pub(crate) struct Ingress {
    pub(crate) shards: Vec<Sender<ServerMsg>>,
}

impl Ingress {
    /// Queue `msg` on its session's shard; `Shutdown` goes to every shard.
    /// Fails when that shard has exited (the server shut down).
    pub(crate) fn send(&self, msg: ServerMsg) -> Result<(), SendError<ServerMsg>> {
        let session = match &msg {
            ServerMsg::Connect { session, .. }
            | ServerMsg::Frames { session, .. }
            | ServerMsg::Disconnect { session } => *session,
            ServerMsg::Shutdown => {
                for shard in &self.shards {
                    // A failed send means that shard is already gone.
                    let _ = shard.send(ServerMsg::Shutdown);
                }
                return Ok(());
            }
        };
        self.shards[(session % self.shards.len() as u64) as usize].send(msg)
    }
}

/// Start a server over `engine` with `config`. The engine is shared — the
/// caller keeps its own `Arc` for invariant checks (`heap_sum`) and stats.
pub fn start<E>(engine: Arc<E>, config: ServerConfig) -> ServerHandle
where
    E: TmEngine + Send + Sync + 'static,
{
    assert!(config.shards >= 1, "need at least one shard");
    assert!(config.key_universe >= 1, "need at least one key");
    assert!(
        engine.heap().len() as u64 >= config.key_universe,
        "engine heap smaller than the key universe"
    );

    let stats: Arc<[ServerStats]> = (0..config.shards).map(|_| ServerStats::default()).collect();
    let admission = Arc::new(Admission::new(config.admission));

    let mut shard_txs = Vec::with_capacity(config.shards as usize);
    let mut shard_handles = Vec::with_capacity(config.shards as usize);
    for shard_id in 0..config.shards {
        let (tx, rx) = channel::<ServerMsg>();
        shard_txs.push(tx);
        let engine = Arc::clone(&engine);
        let stats = Arc::clone(&stats);
        let admission = Arc::clone(&admission);
        let config = config.clone();
        shard_handles.push(
            std::thread::Builder::new()
                .name(format!("tm-server-shard-{shard_id}"))
                .spawn(move || shard_thread(shard_id, rx, engine, config, stats, admission))
                .expect("spawn shard thread"),
        );
    }

    ServerHandle {
        ingress: Ingress { shards: shard_txs },
        next_session: Arc::new(AtomicU64::new(1)),
        stats,
        admission,
        shards: shard_handles,
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
        // Each shard finds `Shutdown` behind everything it was sent before
        // this call (channel FIFO), so the drain ordering is trivial.
        // Idempotent: shards that already exited are skipped.
        let _ = self.ingress.send(ServerMsg::Shutdown);
        for shard in self.shards.drain(..) {
            let _ = shard.join();
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

/// Everything a shard owns that must survive a contained panic. It lives
/// in the supervisor's frame, *outside* `catch_unwind`, so recovery can
/// audit and repair it after an unwind.
struct ShardState {
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
}

/// The inbound message a shard is walking. It lives in the supervisor's
/// frame beside [`ShardState`], so a contained panic costs the one frame
/// it struck and not the frames behind it in the same message: the
/// restarted loop resumes at `next`.
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

    /// The next frame, borrowed in place. It is taken off *before* it is
    /// handled, so a panic while handling it makes it vanish, not repeat.
    fn pop(&mut self) -> Option<&[u8]> {
        self.left = self.left.checked_sub(1)?;
        let rest = &self.bytes[self.next..];
        let len = match self.left {
            0 => rest.len(),
            _ => frame_len(rest)
                .ok()
                .flatten()
                .expect("whole frames, counted on arrival"),
        };
        self.next += len;
        Some(&rest[..len])
    }
}

/// What one run of the shard loop counts from unit to unit (a unit is a
/// frame, a connect or a disconnect).
struct Pace {
    /// Engine counters at the last admission observation.
    last_engine: EngineStats,
    /// Write ops admitted since then.
    writes_since_observe: u64,
    /// Units handled since responses were last handed over.
    handled: u32,
    /// The clock reading of the current message, taken the first time a
    /// write needs it; cleared when the shard takes a message off its queue
    /// and every [`DELIVER_EVERY`] units. See [`Pace::now`].
    now: Option<Instant>,
}

impl Pace {
    /// What a batched write is stamped with and what the oldest one's age
    /// is measured against: one clock reading per message (per
    /// [`DELIVER_EVERY`] units of a longer one), not two per write, and
    /// none for a message of reads with nothing batched.
    fn now(&mut self) -> Instant {
        *self.now.get_or_insert_with(Instant::now)
    }
}

/// Shard supervisor: run the shard loop under `catch_unwind`; on a panic,
/// repair the shard's state (poison lost writes, release stranded
/// admission cost, audit the engine) and restart the loop. The engine
/// itself never unwinds mid-transaction — every crash point sits outside
/// `TmEngine::run` — so containment is a server-state problem, which is
/// exactly what [`recover_shard`] repairs.
fn shard_thread<E: TmEngine>(
    shard_id: u32,
    rx: Receiver<ServerMsg>,
    engine: Arc<E>,
    config: ServerConfig,
    stats: Arc<[ServerStats]>,
    admission: Arc<Admission>,
) {
    let stats = &stats[shard_id as usize];
    let mut state = ShardState {
        registry: SessionRegistry::new(config.dedup_window),
        batcher: Batcher::with_faults(config.batch, config.faults.clone()),
        processing: None,
        pending_groups: VecDeque::new(),
        current: None,
    };
    let mut inbound = Inbound::default();
    loop {
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            shard_loop(
                shard_id,
                &rx,
                &engine,
                &config,
                stats,
                &admission,
                &mut state,
                &mut inbound,
            )
        }));
        match result {
            Ok(()) => return, // orderly shutdown
            Err(_panic) => {
                recover_shard(&engine, &config, stats, &admission, &mut state);
                // Poison frames and recovered acks leave now, not whenever
                // the restarted loop next finds its queue empty.
                state.registry.flush_out();
            }
        }
    }
}

/// One shard: decode, serve reads inline, batch writes, flush on fill or
/// on an empty queue, observe abort ratio into the admission budget.
///
/// Each wake-up drains the queue without blocking, commits what is still
/// batched, hands every session its responses in one message, then blocks:
/// a client is woken when its answers are complete, no write waits a timer.
#[allow(clippy::too_many_arguments)] // shard-local state threaded explicitly
fn shard_loop<E: TmEngine>(
    shard_id: u32,
    rx: &Receiver<ServerMsg>,
    engine: &Arc<E>,
    config: &ServerConfig,
    stats: &ServerStats,
    admission: &Admission,
    state: &mut ShardState,
    inbound: &mut Inbound,
) {
    let mut pace = Pace {
        last_engine: engine.engine_stats(),
        writes_since_observe: 0,
        handled: 0,
        now: None,
    };
    // A restart: the frames behind the one the panic struck come first.
    if inbound.left > 0 {
        walk(
            shard_id, engine, config, stats, admission, state, inbound, &mut pace,
        );
    }

    loop {
        let next = match rx.try_recv() {
            // About to block: nothing more will join the pending groups.
            Err(TryRecvError::Empty) => {
                flush(shard_id, engine, config, stats, admission, state);
                state.registry.flush_out();
                pace.handled = 0;
                rx.recv().ok()
            }
            ready => ready.ok(),
        };
        pace.now = None;
        match next {
            Some(ServerMsg::Connect { session, sink }) => state.registry.connect(session, sink),
            Some(ServerMsg::Disconnect { session }) => {
                // As for `Close`: the session's accepted writes commit and
                // are acknowledged before it is forgotten. A peer whose
                // stream the reader gave up on is still there to read.
                if state.batcher.has_session(session) {
                    flush(shard_id, engine, config, stats, admission, state);
                }
                state.registry.disconnect(session);
            }
            Some(ServerMsg::Frames { session, bytes }) => {
                *inbound = Inbound::new(session, bytes);
                walk(
                    shard_id, engine, config, stats, admission, state, inbound, &mut pace,
                );
                continue;
            }
            Some(ServerMsg::Shutdown) | None => {
                // Graceful drain: in-flight groups fully commit, their acks
                // reach the sinks before the registry (and the sinks with
                // it) is dropped, and nothing new is accepted after this.
                flush(shard_id, engine, config, stats, admission, state);
                state.registry.flush_out();
                return;
            }
        }
        after_unit(shard_id, engine, config, stats, admission, state, &mut pace);
    }
}

/// Handle what is left of `inbound`, one frame at a time, each with every
/// per-frame guarantee (the closed-session guard and the ingress crash
/// point in [`handle_frame`], then [`after_unit`]); then hand the emptied
/// buffer to its session.
#[allow(clippy::too_many_arguments)] // shard-local state threaded explicitly
fn walk<E: TmEngine>(
    shard_id: u32,
    engine: &Arc<E>,
    config: &ServerConfig,
    stats: &ServerStats,
    admission: &Admission,
    state: &mut ShardState,
    inbound: &mut Inbound,
    pace: &mut Pace,
) {
    let session = inbound.session;
    while let Some(frame) = inbound.pop() {
        handle_frame(
            shard_id, session, frame, engine, config, stats, admission, state, pace,
        );
        after_unit(shard_id, engine, config, stats, admission, state, pace);
    }
    state
        .registry
        .recycle(session, std::mem::take(&mut inbound.bytes));
}

/// What follows every unit: commit at the cap, hand responses over (and
/// let the clock be read again) every [`DELIVER_EVERY`] units, fold the
/// abort ratio into the admission budget every [`OBSERVE_EVERY`] writes.
fn after_unit<E: TmEngine>(
    shard_id: u32,
    engine: &Arc<E>,
    config: &ServerConfig,
    stats: &ServerStats,
    admission: &Admission,
    state: &mut ShardState,
    pace: &mut Pace,
) {
    // A group is full, or this drain has outlasted `latency_budget` by the
    // shard's reading of the clock for this message.
    if !state.batcher.is_empty() && state.batcher.should_flush(pace.now()) {
        flush(shard_id, engine, config, stats, admission, state);
    }
    pace.handled += 1;
    if pace.handled >= DELIVER_EVERY {
        state.registry.flush_out();
        pace.handled = 0;
        // One message can hold thousands of frames: a fresh reading keeps
        // the age cap within `DELIVER_EVERY` units of the truth.
        pace.now = None;
    }
    // Shard 0 periodically folds the windowed abort ratio into the
    // shared admission budget (one observer keeps windows disjoint).
    if shard_id == 0 && pace.writes_since_observe >= OBSERVE_EVERY {
        let now_stats = engine.engine_stats();
        admission.observe(now_stats.since(&pace.last_engine).abort_ratio());
        pace.last_engine = now_stats;
        pace.writes_since_observe = 0;
    }
}

/// Repair a shard after a contained panic:
///
/// 1. A group that had already **committed** still delivers its acks —
///    the heap moved, so suppressing the acks would break `heap_sum ==
///    acked increments` from the clients' side.
/// 2. A group that had **not** committed vanishes whole: every op's
///    admission cost is released, its dedup token abandoned (a retry must
///    be allowed to apply), and its session poisoned with
///    [`ErrorCode::ShardRestarted`].
/// 3. Groups drained for a flush but not yet run, then everything still
///    pending in the batcher, vanish like (2) — in that order, which is
///    pipeline order (drained groups are older than batched ones).
/// 4. A write stranded between admission and the batcher — the newest
///    accepted write, so poisoned last to keep per-session responses
///    FIFO — is poisoned the same way.
/// 5. With `audit_increments` on a single-shard server (the one case with
///    no concurrent writers), cross-check `heap_sum` against the applied
///    ledger and count any divergence in `audit_failures`.
fn recover_shard<E: TmEngine>(
    engine: &Arc<E>,
    config: &ServerConfig,
    stats: &ServerStats,
    admission: &Admission,
    state: &mut ShardState,
) {
    bump(&stats.shard_restarts, 1);

    if let Some(ifg) = state.current.take() {
        if ifg.committed.is_some() {
            state.current = Some(ifg);
            deliver_current(admission, state);
        } else {
            vanish_group(ifg.group, stats, admission, &mut state.registry);
        }
    }
    for group in state.pending_groups.drain(..) {
        vanish_group(group, stats, admission, &mut state.registry);
    }
    for group in state.batcher.drain() {
        vanish_group(group, stats, admission, &mut state.registry);
    }
    if let Some(p) = state.processing.take() {
        admission.release(p.cost);
        if let Some(token) = p.token {
            state.registry.dedup_abandon(p.session, token);
        }
        bump(&stats.poisoned_writes, 1);
        state
            .registry
            .respond(p.session, p.id, Response::Error(ErrorCode::ShardRestarted));
    }

    if config.audit_increments
        && config.shards == 1
        && stats.put_writes.load(Ordering::Relaxed) == 0
    {
        let heap = engine.heap_sum(config.key_universe as usize);
        let applied = stats.applied_delta.load(Ordering::Relaxed);
        if heap != applied {
            bump(&stats.audit_failures, 1);
        }
    }
}

/// Poison every op of a group that vanished without committing, after
/// releasing the group's admission cost in one go.
fn vanish_group(
    group: Group,
    stats: &ServerStats,
    admission: &Admission,
    registry: &mut SessionRegistry,
) {
    admission.release(admitted_cost(&group));
    bump(&stats.poisoned_writes, group.ops.len() as u64);
    for pw in group.ops {
        if let Some(token) = pw.token {
            registry.dedup_abandon(pw.session, token);
        }
        registry.respond(
            pw.session,
            pw.id,
            Response::Error(ErrorCode::ShardRestarted),
        );
    }
}

#[allow(clippy::too_many_arguments)] // shard-local state threaded explicitly
fn handle_frame<E: TmEngine>(
    shard_id: u32,
    session: SessionId,
    bytes: &[u8],
    engine: &Arc<E>,
    config: &ServerConfig,
    stats: &ServerStats,
    admission: &Admission,
    state: &mut ShardState,
    pace: &mut Pace,
) {
    // Frames addressed to a session this shard already closed are
    // discarded unread — exactly like bytes arriving after a TCP reset.
    // Processing them would resurrect the session without its dedup
    // window, so a still-in-flight retry of an enqueued idempotent write
    // would classify as `New` and apply twice.
    if !state.registry.contains(session) {
        return;
    }
    // Crash point: before any processing — an injected panic here makes
    // the frame vanish entirely (never applied, never answered).
    if let Some(f) = &config.faults {
        f.crash_point(CrashPoint::FrameIngress);
    }
    let frame = match RequestFrame::decode(bytes) {
        Ok(frame) => frame,
        Err(_) => {
            bump(&stats.malformed, 1);
            match peek_id(bytes) {
                // The envelope was readable: answer under the frame's own
                // correlation id so the client can match the error.
                Some(id) => {
                    state
                        .registry
                        .respond(session, id, Response::Error(ErrorCode::Malformed));
                }
                // No recoverable id. Answering under a fabricated id would
                // desynchronize the client's pipeline (it would attribute
                // the error to a request it never made), so close the
                // session instead: dropping the sink surfaces as EOF.
                None => {
                    bump(&stats.sessions_closed, 1);
                    state.registry.disconnect(session);
                }
            }
            return;
        }
    };
    bump(&stats.requests, 1);
    let id = frame.id;

    // Unwrap the idempotency envelope through the session's dedup window.
    let (token, request) = match frame.request {
        Request::Idempotent { token, op } => match state.registry.dedup_begin(session, token) {
            DedupVerdict::New => (Some(token), *op),
            DedupVerdict::InFlight => {
                // The original delivery is still working; it will answer.
                bump(&stats.duplicates, 1);
                return;
            }
            DedupVerdict::Done(resp) => {
                // Applied already: replay the recorded answer under the
                // retry's id, apply nothing.
                bump(&stats.duplicates, 1);
                state.registry.respond(session, id, resp);
                return;
            }
            DedupVerdict::Expired => {
                bump(&stats.expired, 1);
                state
                    .registry
                    .respond(session, id, Response::Error(ErrorCode::Expired));
                return;
            }
        },
        other => (None, other),
    };

    let canon = |key: u64| key % config.key_universe;
    let addr = |key: u64| canon(key) * WORD_BYTES;

    // Inline-answered requests must not overtake the same session's batched
    // writes: flush first so per-session responses stay FIFO and reads see
    // the session's own writes (other sessions' groups ride along — the
    // batcher drains whole, which only shortens their latency).
    if !request.is_write() && state.batcher.has_session(session) {
        flush(shard_id, engine, config, stats, admission, state);
    }

    match request {
        Request::Ping => {
            bump(&stats.reads, 1);
            state.registry.respond(session, id, Response::Pong);
        }
        Request::Get { key } => {
            bump(&stats.reads, 1);
            let v = engine.run_read(shard_id, |txn| txn.read(addr(key)));
            state.registry.respond(session, id, Response::Value(v));
        }
        Request::MultiGet { keys } => {
            bump(&stats.reads, 1);
            // One read-only transaction: the vector is one consistent
            // snapshot of all requested keys.
            let values = engine.run_read(shard_id, |txn| {
                keys.iter()
                    .map(|&k| txn.read(addr(k)))
                    .collect::<Result<Vec<_>, _>>()
            });
            state
                .registry
                .respond(session, id, Response::Values(values));
        }
        Request::Close => {
            // Complete the session's earlier writes before saying goodbye,
            // so Closed acknowledges a fully applied history.
            flush(shard_id, engine, config, stats, admission, state);
            state.registry.respond(session, id, Response::Closed);
            state.registry.disconnect(session);
        }
        req @ (Request::Put { .. }
        | Request::Add { .. }
        | Request::MultiAdd { .. }
        | Request::MultiPut { .. }) => {
            let cost = req.cost();
            if !admission.try_admit(cost) {
                bump(&stats.busy, 1);
                if let Some(token) = token {
                    // The write was not applied; a retry must be allowed
                    // to apply it.
                    state.registry.dedup_abandon(session, token);
                }
                state.registry.respond(session, id, Response::Busy);
                return;
            }
            bump(&stats.writes_enqueued, 1);
            pace.writes_since_observe += 1;
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
            // Bracket the admission→batcher handoff so recovery can repair
            // a crash inside `push` (the BatchEnqueue crash point).
            state.processing = Some(ProcessingWrite {
                session,
                id,
                token,
                cost,
            });
            state.batcher.push(
                PendingWrite {
                    session,
                    id,
                    token,
                    op,
                },
                pace.now(),
            );
            state.processing = None;
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
/// `state.pending_groups` and move into `state.current` one at a time, so
/// a panic anywhere in here leaves every undelivered group reachable for
/// [`recover_shard`] — nothing is stranded in a stack-local.
fn flush<E: TmEngine>(
    shard_id: u32,
    engine: &Arc<E>,
    config: &ServerConfig,
    stats: &ServerStats,
    admission: &Admission,
    state: &mut ShardState,
) {
    state.pending_groups.extend(state.batcher.drain());
    while let Some(group) = state.pending_groups.pop_front() {
        state.current = Some(InFlightGroup {
            group,
            committed: None,
        });
        run_current_group(shard_id, engine, config, stats, admission, state);
    }
}

/// Run `state.current` through one engine transaction and deliver its
/// acks. The commit handoff is deliberately tight: the responses (and the
/// applied-delta ledger) are recorded into `state.current` immediately
/// after `TmEngine::run` returns, with no crash point in between, so a
/// panic can never lose the fact that the heap moved.
fn run_current_group<E: TmEngine>(
    shard_id: u32,
    engine: &Arc<E>,
    config: &ServerConfig,
    stats: &ServerStats,
    admission: &Admission,
    state: &mut ShardState,
) {
    // Crash point: the group is out of the batcher but not yet committed —
    // it must vanish whole.
    if let Some(f) = &config.faults {
        f.crash_point(CrashPoint::BeforeGroupCommit);
    }
    let yield_in_txn = config.yield_in_txn;
    let faults = config.faults.clone();
    let ifg = state.current.as_mut().expect("flush set the group");
    let group = &ifg.group;
    // The body reruns from scratch on abort, so responses are rebuilt per
    // attempt and only the committed attempt's vector escapes.
    let responses = engine.run(shard_id, |txn| {
        // The abort-storm fault probe: a forced voluntary abort, retried
        // like any real conflict (attributed ExplicitRetry in telemetry).
        if let Some(f) = &faults {
            if f.force_abort() {
                return Err(Aborted);
            }
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
            // Wrapping, as the heap words and `heap_sum` are: a delta is the
            // client's to choose.
            WriteOp::Add { delta: d, .. } => delta = delta.wrapping_add(*d),
            WriteOp::MultiAdd { keys, delta: d } => {
                delta = delta.wrapping_add(d.wrapping_mul(keys.len() as u64))
            }
            // Overwrites break increment accounting key-by-key.
            WriteOp::MultiPut { keys, .. } => puts += keys.len() as u64,
        }
    }
    bump(&stats.groups_committed, 1);
    bump(&stats.ops_committed, group.ops.len() as u64);
    bump(&stats.applied_delta, delta);
    bump(&stats.put_writes, puts);
    ifg.committed = Some(responses);

    // Crash point: committed but unacknowledged — recovery must deliver
    // the recorded acks or conservation breaks from the client's side.
    if let Some(f) = &config.faults {
        f.crash_point(CrashPoint::AfterGroupCommit);
    }
    deliver_current(admission, state);
}

/// Deliver the committed group's acks: release its admission cost in one
/// go, then record dedup outcomes and respond. Shared by the normal path
/// and crash recovery.
fn deliver_current(admission: &Admission, state: &mut ShardState) {
    let Some(ifg) = state.current.take() else {
        return;
    };
    let mut group = ifg.group;
    let responses = ifg
        .committed
        .expect("deliver_current needs a committed group");
    admission.release(admitted_cost(&group));
    for (pw, response) in group.ops.drain(..).zip(responses) {
        if let Some(token) = pw.token {
            state
                .registry
                .dedup_complete(pw.session, token, response.clone());
        }
        state.registry.respond(pw.session, pw.id, response);
    }
    state.batcher.recycle(group);
}

/// What admitting the group's ops cost: each op's `Request::cost`, the
/// keys it touches.
fn admitted_cost(group: &Group) -> u64 {
    group.ops.iter().map(|pw| pw.op.keys().len() as u64).sum()
}
