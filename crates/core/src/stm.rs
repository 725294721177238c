//! The STM engine: transactions, speculative buffering, commit and abort.
//!
//! This is an **eager-acquire, lazy-update** word-based STM in the mold of
//! the systems the paper surveys: ownership of the cache block underlying a
//! word is acquired at first encounter (read or write) in the ownership
//! table; writes are buffered privately until commit; a conflicting acquire
//! aborts (or stalls, per [`ContentionPolicy`]) and the transaction retries
//! with randomized exponential backoff. Eager acquisition plus abort-on-
//! conflict means no deadlock is possible.
//!
//! The engine is generic over [`ConcurrentTable`], which is the entire
//! point: running the same workload over a
//! [`ConcurrentTaglessTable`](tm_ownership::ConcurrentTaglessTable) and a
//! [`ConcurrentTaggedTable`](tm_ownership::ConcurrentTaggedTable) exposes
//! exactly the false-conflict cost the paper analyses, on real threads
//! rather than in Monte-Carlo form.
//!
//! It is also generic over a [`Route`] from cache blocks to ownership
//! tables. There is **one** engine — one acquire loop, one write buffer,
//! one publish bracket, one read path, and a retry loop it does not even
//! own (the crate-wide driver in `contention.rs`; this module supplies the
//! single attempt) — and two routes through it: [`OneTable`], resolved at
//! compile time, is the plain [`Stm`]; a route that can reach several
//! tables (`tm-shard`'s `ShardMap`) additionally pins each transaction to
//! the table of its first-touched block and, when a second table is
//! touched, restarts it in the cross-table mode of the `cross` submodule.

use std::sync::atomic::{AtomicU64, Ordering};

use tm_ownership::concurrent::{ConcurrentTable, GrantKey, Held};
use tm_ownership::stats::AccessTally;
use tm_ownership::{Access, AcquireOutcome, BlockAddr, BlockMapper, ConflictClass, ThreadId};
use tm_telemetry::{AbortCause, NoopProbe, Probe};

use crate::contention::{drive, Attempt, ContentionPolicy, Path, RetryPolicy};
use crate::engine::{ReadOps, TmEngine, TxnOps};
use crate::heap::Heap;
use crate::readpath::{PublishGate, READ_SPINS};
use crate::scratch::ScratchGuard;
use crate::stats::{EngineStats, StmStats};

mod cross;

pub use cross::{AcquireOrder, DEFAULT_COMMIT_SPINS};

/// Map a table-attributed [`ConflictClass`] to the telemetry taxonomy.
#[inline]
pub(crate) fn cause_of_class(class: ConflictClass) -> AbortCause {
    match class {
        ConflictClass::KnownFalse => AbortCause::FalseConflict,
        ConflictClass::KnownTrue => AbortCause::TrueConflict,
        ConflictClass::Unknown => AbortCause::UnknownConflict,
    }
}

/// Marker error: the current transaction attempt must be abandoned.
///
/// Returned by [`ReadOps::read`]/[`TxnOps::write`]
/// on conflict; user code
/// propagates it with `?` and [`TmEngine::run`]
/// retries the whole closure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Aborted;

impl std::fmt::Display for Aborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "transaction aborted")
    }
}

impl std::error::Error for Aborted {}

/// The retry budget of [`TmEngine::try_run`] (or of a bounded
/// [`RetryPolicy`]) was exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryLimitExceeded {
    /// Attempts made (equals the configured budget).
    pub attempts: u32,
}

impl std::fmt::Display for RetryLimitExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "transaction failed {} attempts", self.attempts)
    }
}

impl std::error::Error for RetryLimitExceeded {}

/// Which ownership table a cache block's grants live in.
///
/// `MULTI` is the compile-time switch: with `false` every routing
/// decision, the home-table pin and the whole cross-table mode
/// monomorphize away, so the one-table engine pays nothing for the
/// existence of the routed one.
pub trait Route: Send + Sync + std::fmt::Debug {
    /// Whether the route can reach more than one table.
    const MULTI: bool;

    /// Number of tables routed over (the engine holds exactly this many).
    fn table_count(&self) -> usize;

    /// The table owning `block`, in `0..table_count()`.
    fn table_of(&self, block: BlockAddr) -> u32;
}

/// The trivial route: one table owns every block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OneTable;

impl Route for OneTable {
    const MULTI: bool = false;

    #[inline]
    fn table_count(&self) -> usize {
        1
    }

    #[inline]
    fn table_of(&self, _block: BlockAddr) -> u32 {
        0
    }
}

/// One routed table's conflict-detection state: the ownership table and
/// the commit-stream statistics of the traffic that touched it (each kept
/// in padded per-thread slots).
#[derive(Debug)]
struct TableState<T> {
    table: T,
    stats: StmStats,
}

/// A software transactional memory over a shared [`Heap`], generic in the
/// ownership-table organization `T`, the telemetry probe `P` and the
/// block → table [`Route`] `R`.
///
/// With the default [`NoopProbe`] every probe hook monomorphizes to
/// nothing — no clock reads, no event bookkeeping — so the telemetry layer
/// costs exactly zero unless a real probe (e.g.
/// [`Recorder`](tm_telemetry::Recorder)) is attached via
/// [`StmBuilder::probe`](crate::StmBuilder::probe). With the default
/// [`OneTable`] route the same holds for routing.
///
/// However many tables the route reaches there is **one** heap and **one**
/// publication gate, so the typed layer, `tm-structs` and the wait-free
/// `run_read` path never see the route.
#[derive(Debug)]
pub struct Stm<T: ConcurrentTable, P: Probe = NoopProbe, R: Route = OneTable> {
    heap: Heap,
    route: R,
    /// Table 0 sits inline, so the one-table route reaches it without an
    /// index or an indirection; tables `1..` follow in `rest` (empty
    /// unless the route is multi-table).
    first: TableState<T>,
    rest: Box<[TableState<T>]>,
    contention: ContentionPolicy,
    /// Seqlock-style gate between commit-time publication and the
    /// table-free read-only path (see [`crate::readpath`]).
    publish_gate: PublishGate,
    order: AcquireOrder,
    commit_spins: u32,
    cross_commits: AtomicU64,
    cross_aborts: AtomicU64,
    /// Sum over cross-table commits of (span − 1): the per-table commit
    /// counters record a cross-table commit once *per participating table*
    /// (so each table's `mean_write_footprint` divides that table's blocks
    /// by the commits that actually delivered them — the adaptive
    /// controllers size from a self-consistent window), and [`stats`]
    /// subtracts this to keep the engine-level aggregate exact.
    ///
    /// [`stats`]: Stm::stats
    cross_extra_commits: AtomicU64,
    probe: P,
}

impl<T: ConcurrentTable, P: Probe> Stm<T, P> {
    /// The ownership table (for stats inspection).
    pub fn table(&self) -> &T {
        &self.first.table
    }

    /// Strong-isolation non-transactional read (paper §6): consult the
    /// ownership table so the read cannot observe a transaction's
    /// speculative state, spinning while a writer holds the block.
    pub fn strong_read(&self, me: ThreadId, addr: u64) -> u64 {
        self.strong_access(me, addr, Access::Read, || self.heap.load(addr))
    }

    /// Strong-isolation non-transactional write (paper §6); spins while any
    /// transaction holds the block.
    pub fn strong_write(&self, me: ThreadId, addr: u64, value: u64) {
        self.strong_access(me, addr, Access::Write, || self.heap.store(addr, value));
    }

    /// One strong-isolation access: inside the table's
    /// [`enter`](ConcurrentTable::enter)/[`exit`](ConcurrentTable::exit)
    /// bracket, acquire `access` on `addr`'s block (spinning while it
    /// conflicts), run `body`, release.
    fn strong_access<V>(
        &self,
        me: ThreadId,
        addr: u64,
        access: Access,
        body: impl FnOnce() -> V,
    ) -> V {
        let TableState { table, stats } = &self.first;
        stats.on_strong(me, access == Access::Write);
        // Invariant across spins — derive once, as Txn::acquire does.
        let block = table.config().mapper().block_of(addr);
        table.enter(me);
        let value = loop {
            match table.acquire(me, block, access, Held::None) {
                AcquireOutcome::Granted => {
                    let value = body();
                    table.release(me, table.grant_key(block), Held::None.after(access));
                    break value;
                }
                // Only possible if the caller misuses a transaction's id;
                // access without a release obligation.
                AcquireOutcome::AlreadyHeld => break body(),
                AcquireOutcome::Conflict(_) => {
                    stats.on_strong_stall(me);
                    std::hint::spin_loop();
                }
            }
        };
        table.exit(me);
        value
    }
}

impl<T: ConcurrentTable, P: Probe, R: Route> Stm<T, P, R> {
    /// Build an STM over `tables`, one per table `route` reaches, in route
    /// order. Every table must share one block geometry. This is what
    /// every eager [`StmBuilder`](crate::StmBuilder) terminal calls.
    pub fn routed(
        heap_words: usize,
        tables: Vec<T>,
        route: R,
        contention: ContentionPolicy,
        probe: P,
    ) -> Self {
        assert_eq!(
            tables.len(),
            route.table_count(),
            "the route's table count must match the tables supplied"
        );
        let mut states = tables.into_iter().map(|table| TableState {
            table,
            stats: StmStats::default(),
        });
        let first = states.next().expect("need at least one table");
        let rest: Box<[_]> = states.collect();
        let block_bytes = first.table.config().mapper().block_bytes();
        for s in rest.iter() {
            assert_eq!(
                s.table.config().mapper().block_bytes(),
                block_bytes,
                "all tables must share one block geometry"
            );
        }
        Self {
            heap: Heap::new(heap_words),
            route,
            first,
            rest,
            contention,
            publish_gate: PublishGate::default(),
            order: AcquireOrder::default(),
            commit_spins: DEFAULT_COMMIT_SPINS,
            cross_commits: AtomicU64::new(0),
            cross_aborts: AtomicU64::new(0),
            cross_extra_commits: AtomicU64::new(0),
            probe,
        }
    }

    /// Table `shard`'s state. On the one-table route this is `first`,
    /// statically.
    #[inline]
    fn state(&self, shard: u32) -> &TableState<T> {
        if !R::MULTI || shard == 0 {
            &self.first
        } else {
            &self.rest[shard as usize - 1]
        }
    }

    fn states(&self) -> impl Iterator<Item = &TableState<T>> {
        std::iter::once(&self.first).chain(self.rest.iter())
    }

    /// The attached telemetry probe.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// The publication gate between commits and the table-free read path
    /// (inspection: at quiescence its
    /// [`reader_epoch`](PublishGate::reader_epoch) counts the commits that
    /// published a write).
    pub fn publish_gate(&self) -> &PublishGate {
        &self.publish_gate
    }

    /// Number of ownership tables (1 on the one-table route).
    pub fn shard_count(&self) -> usize {
        1 + self.rest.len()
    }

    /// The block → table route.
    pub fn shard_map(&self) -> &R {
        &self.route
    }

    /// [`state`](Self::state) for a caller-supplied index.
    fn checked_state(&self, shard: usize) -> &TableState<T> {
        assert!(shard < self.shard_count(), "table index out of range");
        self.state(shard as u32)
    }

    /// Table `shard` (per-table inspection, and the handle per-table
    /// adaptive controllers resize through).
    pub fn shard_table(&self, shard: usize) -> &T {
        &self.checked_state(shard).table
    }

    /// Table `shard`'s statistics snapshot: the traffic that touched this
    /// table. A cross-table commit appears in *every* participating
    /// table's counters (commit and footprint alike, so per-table means
    /// stay self-consistent); [`stats`](Self::stats) de-duplicates.
    pub fn shard_stats(&self, shard: usize) -> EngineStats {
        self.checked_state(shard).stats.snapshot()
    }

    /// Every table's statistics snapshot, by table index (see
    /// [`shard_stats`](Self::shard_stats) for cross-table attribution).
    pub fn shard_snapshots(&self) -> Vec<EngineStats> {
        self.states().map(|s| s.stats.snapshot()).collect()
    }

    /// Whole-engine commit/abort counters so far: the sum over tables,
    /// with cross-table commits de-duplicated (each counts once per
    /// participating table in the per-table view, once here).
    pub fn stats(&self) -> EngineStats {
        let mut total = EngineStats::default();
        for s in self.states() {
            total += s.stats.snapshot();
        }
        if R::MULTI {
            // Counters are read racily: a cross-table committer bumps its
            // non-coordinator tables' commit counters before the extra
            // counter, so clamp instead of underflowing on a mid-commit
            // snapshot.
            let extra = self.cross_extra_commits.load(Ordering::Relaxed);
            total.commits = total.commits.saturating_sub(extra);
        }
        total
    }

    /// Spin (up to [`READ_SPINS`]) for a publication-gate epoch with no
    /// publication in flight.
    #[inline]
    fn quiescent_epoch(&self) -> Option<u64> {
        let mut epoch = self.publish_gate.reader_epoch();
        let mut spins = 0u32;
        while epoch.is_none() && spins < READ_SPINS {
            spins += 1;
            std::hint::spin_loop();
            epoch = self.publish_gate.reader_epoch();
        }
        epoch
    }
}

/// The eager engine's two attempts. The loop around them — budget,
/// backoff, outcome counters, probe bracket — is `contention::drive`.
impl<T: ConcurrentTable, P: Probe, R: Route> TmEngine for Stm<T, P, R> {
    type Txn<'e>
        = Txn<'e, T, P, R>
    where
        Self: 'e;

    type ReadTxn<'e>
        = ReadTxn<'e>
    where
        Self: 'e;

    /// One attempt is `Txn::new → body → commit → finish`. On a
    /// multi-table route an eager attempt that touches a second table
    /// restarts, once, in cross-table mode.
    fn run_with<'s, O>(
        &'s self,
        me: ThreadId,
        policy: RetryPolicy,
        mut body: impl FnMut(&mut Txn<'s, T, P, R>) -> Result<O, Aborted>,
    ) -> Result<O, RetryLimitExceeded> {
        // Sticky across this transaction's attempts.
        let mut cross = false;
        drive(&self.probe, me, policy, Path::Update, || {
            let mut txn = Txn::new(self, me, cross);
            match body(&mut txn).and_then(|r| txn.commit().map(|at| (r, at))) {
                Ok((r, (shard, span))) => {
                    txn.finish();
                    if R::MULTI && span >= 2 {
                        self.cross_commits.fetch_add(1, Ordering::Relaxed);
                        if P::ENABLED {
                            self.probe.on_cross_shard_commit(me, span);
                        }
                    }
                    Attempt::Committed(r, &self.state(shard).stats)
                }
                Err(Aborted) => {
                    if R::MULTI && txn.escalate && !cross {
                        // Mode switch, not contention: no attempt burnt,
                        // no backoff, no abort counted.
                        cross = true;
                        return Attempt::Restart;
                    }
                    let cause = txn.abort_cause.take().unwrap_or(AbortCause::ExplicitRetry);
                    txn.finish();
                    if R::MULTI && txn.commit_phase_abort {
                        self.cross_aborts.fetch_add(1, Ordering::Relaxed);
                        if P::ENABLED {
                            self.probe.on_cross_shard_abort(me);
                        }
                    }
                    Attempt::Aborted(cause, &txn.home_state().stats)
                }
            }
        })
    }

    /// The wait-free read-only path. An attempt spins (up to
    /// `READ_SPINS`) for a quiescent publication-gate epoch, then runs
    /// the body against the bare heap with per-read gate validation. No
    /// scratch is checked out, no ownership-table grant is ever acquired,
    /// and nothing allocates — readers impose zero table footprint on
    /// writers. The gate is engine-global, so routing never enters the
    /// picture; the outcome counters land in table `me % shard_count()`.
    fn run_read_with<'s, O>(
        &'s self,
        me: ThreadId,
        policy: RetryPolicy,
        mut body: impl FnMut(&mut ReadTxn<'s>) -> Result<O, Aborted>,
    ) -> Result<O, RetryLimitExceeded> {
        let shard = if R::MULTI {
            me % self.shard_count() as u32
        } else {
            0
        };
        let stats = &self.state(shard).stats;
        drive(&self.probe, me, policy, Path::ReadOnly, || {
            // Wait out any in-flight publication; windows are a handful of
            // relaxed stores, so the spin budget almost always suffices.
            let outcome = match self.quiescent_epoch() {
                Some(epoch) => body(&mut ReadTxn {
                    heap: &self.heap,
                    gate: &self.publish_gate,
                    epoch,
                    reads: 0,
                }),
                None => Err(Aborted),
            };
            Attempt::read_only(outcome, stats)
        })
    }

    fn engine_stats(&self) -> EngineStats {
        self.stats()
    }

    fn heap(&self) -> &Heap {
        &self.heap
    }
}

/// An in-flight transaction: the per-thread log (grant key → held level) and
/// the speculative write buffer the paper's §2.1 describes.
///
/// All per-attempt structures live in a recycled [`TxnScratch`]
/// (see [`crate::scratch`]) checked out of the thread's pool, and the
/// table's block mapper plus the contention policy's spin budget are cached
/// inline — so a steady-state attempt performs no heap allocation, no
/// rehash, and no configuration re-derivation on any access.
///
/// On a multi-table [`Route`] the attempt starts **eager**, its grants
/// pinned to the table of the first-touched block; touching a second table
/// abandons it and the retry loop restarts the body in the grant-free
/// **cross-table** mode (the `cross` submodule).
///
/// [`TxnScratch`]: crate::scratch::TxnScratch
#[derive(Debug)]
pub struct Txn<'s, T: ConcurrentTable, P: Probe = NoopProbe, R: Route = OneTable> {
    stm: &'s Stm<T, P, R>,
    id: ThreadId,
    /// Cached `table.config().mapper()` (a copy; deriving it per access
    /// costs a config indirection on the hottest path). Geometry is shared
    /// across a route's tables.
    mapper: BlockMapper,
    /// Cached `config.contention.max_spins()`.
    max_spins: u32,
    scratch: ScratchGuard,
    /// Stall-policy re-attempts this attempt; flushed to the thread's
    /// stats slot once per attempt instead of once per spin.
    stall_retries: u64,
    /// The home table's per-access counts this attempt (acquires, grants,
    /// already-held hits, upgrades, releases), folded into the table once,
    /// in `finish`, as `stall_retries` is into the stats. The table counts
    /// only conflicts itself.
    tally: AccessTally,
    finished: bool,
    reads: u64,
    writes: u64,
    /// Cause of the abort that ended this attempt (telemetry only; set at
    /// the conflict site, consumed by the retry loop).
    abort_cause: Option<AbortCause>,
    /// Multi-table routes: the table of the first-touched block. Eager
    /// grants live there and the attempt's outcome is attributed there;
    /// `None` (read as table 0) until something is touched, and always on
    /// the one-table route.
    home: Option<u32>,
    /// Cross-table mode (sticky across this transaction's attempts via the
    /// retry loop).
    cross: bool,
    /// Set when an eager attempt touched a second table: the retry loop
    /// restarts the body in cross-table mode instead of counting an abort.
    escalate: bool,
    /// Set when a cross-table commit failed in acquisition/validation
    /// (drives the `cross_shard_aborts` counter).
    commit_phase_abort: bool,
    /// Cross-table mode: the publication-gate epoch the read log is valid
    /// at.
    epoch: Option<u64>,
    /// Cross-table commit: bitmap of the tables it entered, exited by
    /// `release_commit_grants`.
    commit_tables: u64,
}

impl<'s, T: ConcurrentTable, P: Probe, R: Route> Txn<'s, T, P, R> {
    /// Begin an attempt. On the one-table route it enters the table here;
    /// a multi-table route enters its home table at the pin, in `route`.
    fn new(stm: &'s Stm<T, P, R>, id: ThreadId, cross: bool) -> Self {
        if !R::MULTI {
            stm.first.table.enter(id);
        }
        Self {
            stm,
            id,
            mapper: stm.first.table.config().mapper(),
            max_spins: stm.contention.max_spins(),
            scratch: ScratchGuard::checkout(),
            stall_retries: 0,
            tally: AccessTally::default(),
            finished: false,
            reads: 0,
            writes: 0,
            abort_cause: None,
            home: None,
            cross,
            escalate: false,
            commit_phase_abort: false,
            epoch: None,
            commit_tables: 0,
        }
    }

    /// This transaction's thread id.
    pub fn id(&self) -> ThreadId {
        self.id
    }

    /// Distinct ownership grants currently held.
    pub fn grant_count(&self) -> usize {
        self.scratch.log.len()
    }

    /// Buffered (not yet committed) writes in this attempt.
    pub fn pending_writes(&self) -> usize {
        self.scratch.wbuf.len()
    }

    /// The state of the table eager grants live in.
    #[inline]
    fn home_state(&self) -> &'s TableState<T> {
        self.stm.state(self.home.unwrap_or(0))
    }

    /// Multi-table routes: route `block` and decide how this access
    /// proceeds — `Ok(false)` eagerly on the (now pinned and entered) home
    /// table, `Ok(true)` in cross-table mode, or an escalating abort when
    /// an eager attempt reaches a second table.
    #[inline]
    fn route(&mut self, block: u64) -> Result<bool, Aborted> {
        let shard = self.stm.route.table_of(block);
        match self.home {
            None => {
                self.home = Some(shard);
                if !self.cross {
                    self.stm.state(shard).table.enter(self.id);
                }
            }
            Some(home) if home == shard || self.cross => {}
            Some(_) => {
                self.escalate = true;
                return Err(Aborted);
            }
        }
        Ok(self.cross)
    }

    /// The home table's grant key for `block` and the level this attempt
    /// holds on it: the one log scan an access makes.
    ///
    /// Eager invariant: a key held below `Write` has no block in
    /// `write_blocks` and no word in `wbuf`, because `write` takes `Write`
    /// before it buffers. Callers append to those maps unsearched then.
    #[inline]
    fn lookup(&self, block: u64) -> (GrantKey, Held) {
        let key = self.home_state().table.grant_key(block);
        (key, self.scratch.log.get(key).unwrap_or(Held::None))
    }

    /// Obtain `access` on `block`, whose key and held level came from
    /// [`lookup`](Self::lookup). The fast half: one table call, its tally,
    /// and for a fresh grant an append to the log. A refusal goes to
    /// [`stall`](Self::stall), and an upgrade, the only grant whose key is
    /// already logged, to [`log_upgrade`](Self::log_upgrade).
    ///
    /// `always`: with plain `#[inline]` this fast half stayed out of line
    /// in `update_with`, and plain `#[inline]` on this path has been seen
    /// to move with unrelated code — with no engine change, the table's
    /// acquire once fell out of `Txn::read` and `txn-solo` `p50_us` moved
    /// +8 % (the `Txn::read` FOUND line in `CHANGES.md`). It has no loop,
    /// and every slow path it reaches is out of line.
    #[inline(always)]
    fn acquire(
        &mut self,
        block: u64,
        key: GrantKey,
        held: Held,
        access: Access,
    ) -> Result<(), Aborted> {
        let table = &self.home_state().table;
        let mut outcome = table.acquire_uncounted(self.id, block, access, held);
        self.tally.on_acquire(access, held, &outcome);
        if let AcquireOutcome::Conflict(c) = outcome {
            outcome = self.stall(block, held, access, c.class)?;
        }
        if matches!(outcome, AcquireOutcome::Granted) {
            let after = held.after(access);
            if held == Held::None {
                self.scratch.log.insert_new(key, after);
            } else {
                self.log_upgrade(key, after);
            }
            if P::ENABLED {
                self.stm.probe.on_grant(self.id);
            }
        }
        Ok(())
    }

    /// Raise `key`'s logged level to `after` (an upgrade: `Read` to
    /// `Write`): a search of the log, kept out of every access's inlined
    /// code.
    #[inline(never)]
    fn log_upgrade(&mut self, key: GrantKey, after: Held) {
        self.scratch.log.insert(key, after);
    }

    /// [`acquire`](Self::acquire)'s slow half, after its first attempt was
    /// refused with a conflict of class `class`: under the stall policy,
    /// re-attempt (each one tallied) up to `max_spins` times, pausing
    /// between, and return the first outcome that is not a conflict; then
    /// abort, attributed to the last refusal's class. Under the abort
    /// policy (`max_spins == 0`) it aborts at once.
    #[cold]
    #[inline(never)]
    fn stall(
        &mut self,
        block: u64,
        held: Held,
        access: Access,
        mut class: ConflictClass,
    ) -> Result<AcquireOutcome, Aborted> {
        let table = &self.home_state().table;
        for _ in 0..self.max_spins {
            self.stall_retries += 1;
            if P::ENABLED {
                self.stm.probe.on_stall(self.id);
            }
            std::hint::spin_loop();
            let outcome = table.acquire_uncounted(self.id, block, access, held);
            self.tally.on_acquire(access, held, &outcome);
            match outcome {
                AcquireOutcome::Conflict(c) => class = c.class,
                outcome => return Ok(outcome),
            }
        }
        if P::ENABLED {
            self.abort_cause = Some(cause_of_class(class));
        }
        Err(Aborted)
    }

    /// Buffer a home-table write of `block`, now held at `Write`, whose key
    /// was held at `held` before the access. Below `Write`, the lookup's
    /// invariant says neither map has the block or the word yet.
    #[inline]
    fn buffer(&mut self, block: u64, addr: u64, value: u64, held: Held) {
        let s = &mut *self.scratch;
        if held == Held::Write {
            s.write_blocks.insert(block, ());
            s.wbuf.insert(addr, value);
        } else {
            s.write_blocks.insert_new(block, ());
            s.wbuf.insert_new(addr, value);
        }
    }

    /// An RMW's read of a word not buffered on a key held at `Write`. A
    /// block new to the key (an alias of a written one) must be covered
    /// by the table's already-held path; not tallied, since the access
    /// makes no acquire. Kept out of line: it is off the common RMW path,
    /// and inlined it grows the code of every RMW.
    #[inline(never)]
    fn load_unbuffered(&self, block: u64, addr: u64) -> u64 {
        if !self.scratch.write_blocks.contains(block) {
            let covered = self.home_state().table.acquire_uncounted(
                self.id,
                block,
                Access::Write,
                Held::Write,
            );
            debug_assert_eq!(covered, AcquireOutcome::AlreadyHeld);
        }
        self.stm.heap.load(addr)
    }

    /// Publish the write buffer. The table's Release/Acquire transitions
    /// order the (relaxed) heap stores before any subsequent reader's
    /// loads. The publish gate brackets the stores so the table-free
    /// read-only path can detect (and wait out) an in-flight publication —
    /// and observes a whole write set or none of it, however many tables
    /// it spans. Read-only transactions skip the bracket entirely, so a
    /// writer only ever bumps its own gate shard — writers never stall on
    /// readers.
    fn publish(&self) {
        let stm = self.stm;
        if !self.scratch.wbuf.is_empty() {
            stm.publish_gate.publish_begin(self.id);
            for (addr, value) in self.scratch.wbuf.iter() {
                stm.heap.store(addr, value);
            }
            stm.publish_gate.publish_end(self.id);
        }
    }

    /// Commit this attempt; returns the table the commit is attributed to
    /// and how many tables the footprint spanned. Infallible in eager
    /// mode; in cross-table mode the ordered acquisition or validation can
    /// abort. Grants are returned by [`finish`](Self::finish).
    fn commit(&mut self) -> Result<(u32, u32), Aborted> {
        if R::MULTI && self.cross {
            return self.commit_cross();
        }
        // Footprint observation for adaptive sizing: distinct written
        // blocks (the model's W, tracked incrementally in `write`) and
        // total grants held ((1+α)·W).
        self.home_state().stats.on_commit_footprint(
            self.id,
            self.scratch.write_blocks.len() as u64,
            self.scratch.log.len() as u64,
        );
        self.publish();
        Ok((self.home.unwrap_or(0), 1))
    }

    /// Attempt epilogue (commit, abort, escalation and `Drop` alike): return
    /// the eager grants and any commit-phase grants still held, fold the
    /// attempt's tally into the home table, exit every table the attempt
    /// entered and flush the batched stall counter. Speculative writes of an
    /// aborted attempt never reached the heap, and nothing is cleared here:
    /// `ScratchGuard::checkout` is the single clearing authority, so the
    /// next attempt starts clean either way.
    fn finish(&mut self) {
        if self.finished {
            return;
        }
        let TableState { table, stats } = self.home_state();
        for (key, held) in self.scratch.log.iter() {
            table.release_uncounted(self.id, key, held);
            self.tally.on_release(held);
        }
        table.fold(self.id, &self.tally);
        if !R::MULTI || (self.home.is_some() && !self.cross) {
            table.exit(self.id);
        }
        if R::MULTI {
            self.release_commit_grants();
        }
        stats.add_stall_retries(self.id, self.stall_retries);
        self.stall_retries = 0;
        self.finished = true;
    }
}

/// The eager transaction's read surface: reads acquire block ownership
/// eagerly (write-buffer hits are served locally).
impl<T: ConcurrentTable, P: Probe, R: Route> ReadOps for Txn<'_, T, P, R> {
    #[inline]
    fn read(&mut self, addr: u64) -> Result<u64, Aborted> {
        self.reads += 1;
        let block = self.mapper.block_of(addr);
        if R::MULTI && self.route(block)? {
            return match self.scratch.wbuf.get(addr) {
                Some(v) => Ok(v),
                None => self.read_cross(addr, block),
            };
        }
        let (key, held) = self.lookup(block);
        // Only a key held at `Write` can have buffered words.
        if held == Held::Write {
            if let Some(v) = self.scratch.wbuf.get(addr) {
                return Ok(v);
            }
        }
        self.acquire(block, key, held, Access::Read)?;
        Ok(self.stm.heap.load(addr))
    }

    fn read_count(&self) -> u64 {
        self.reads
    }
}

/// The eager transaction's write surface: writes acquire block ownership
/// eagerly and stay buffered until commit. A read-modify-write takes
/// `Write` once instead of a read grant and then an upgrade.
impl<T: ConcurrentTable, P: Probe, R: Route> TxnOps for Txn<'_, T, P, R> {
    fn write(&mut self, addr: u64, value: u64) -> Result<(), Aborted> {
        self.writes += 1;
        let block = self.mapper.block_of(addr);
        if R::MULTI && self.route(block)? {
            self.touch_cross(block);
            self.scratch.write_blocks.insert(block, ());
            self.scratch.wbuf.insert(addr, value);
            return Ok(());
        }
        let (key, held) = self.lookup(block);
        self.acquire(block, key, held, Access::Write)?;
        self.buffer(block, addr, value, held);
        Ok(())
    }

    fn write_count(&self) -> u64 {
        self.writes
    }

    /// On the home table: one log lookup, then one `Write` acquire if the
    /// key is not yet held at `Write` (a fresh grant, or an upgrade of a
    /// read), or no acquire if it is. Cross-table mode composes
    /// `read` and `write`: its commit takes a read-and-written block at
    /// `Write` either way.
    #[inline]
    fn update_with(&mut self, addr: u64, f: &mut dyn FnMut(u64) -> u64) -> Result<u64, Aborted> {
        let block = self.mapper.block_of(addr);
        if R::MULTI && self.route(block)? {
            let v = f(self.read(addr)?);
            self.write(addr, v)?;
            return Ok(v);
        }
        self.reads += 1;
        let (key, held) = self.lookup(block);
        if held == Held::Write {
            let old = match self.scratch.wbuf.get(addr) {
                Some(v) => v,
                None => self.load_unbuffered(block, addr),
            };
            self.writes += 1;
            let v = f(old);
            self.buffer(block, addr, v, held);
            return Ok(v);
        }
        self.acquire(block, key, held, Access::Write)?;
        self.writes += 1;
        let v = f(self.stm.heap.load(addr));
        // Below `Write` before the access: by `lookup`'s invariant neither
        // map has the block or the word.
        let s = &mut *self.scratch;
        s.write_blocks.insert_new(block, ());
        s.wbuf.insert_new(addr, v);
        Ok(v)
    }
}

impl<T: ConcurrentTable, P: Probe, R: Route> Drop for Txn<'_, T, P, R> {
    fn drop(&mut self) {
        // A panic inside the body (or an early return path we didn't see)
        // must not leak ownership grants in any table (or the batched
        // stall count).
        self.finish();
    }
}

/// An in-flight **read-only** transaction on the eager engine: four words
/// on the stack, no scratch checkout, no ownership-table access — the same
/// type whatever the engine's table organization, probe or route.
///
/// Each read loads the heap word directly and then validates against the
/// publication gate (see the `readpath` module docs): if no commit-time
/// publication has started since this
/// transaction's begin epoch, every value read so far belongs to one
/// quiescent heap snapshot — the same guarantee the write path's ownership
/// grants provide, at none of the cost, and invisible to writers.
#[derive(Debug)]
pub struct ReadTxn<'s> {
    heap: &'s Heap,
    gate: &'s PublishGate,
    /// The publication-gate epoch observed at begin.
    epoch: u64,
    reads: u64,
}

// `ReadTxn` is not generic, so without the hints these would compile once,
// here, and every read of a downstream body would be an out-of-line call.
impl ReadOps for ReadTxn<'_> {
    #[inline]
    fn read(&mut self, addr: u64) -> Result<u64, Aborted> {
        let value = self.heap.load(addr);
        // Load first, fence, then re-check the gate: if any publication
        // started since begin, the value may be torn — abort and retry.
        if !self.gate.still_at(self.epoch) {
            return Err(Aborted);
        }
        self.reads += 1;
        Ok(value)
    }

    #[inline]
    fn read_count(&self) -> u64 {
        self.reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StmBuilder;
    use tm_ownership::{ConcurrentTaggedTable, ConcurrentTaglessTable, TableConfig};

    fn sized(heap_words: usize, table_entries: usize) -> StmBuilder {
        StmBuilder::new()
            .heap_words(heap_words)
            .table_entries(table_entries)
    }

    fn tagless_stm(heap_words: usize, table_entries: usize) -> Stm<ConcurrentTaglessTable> {
        sized(heap_words, table_entries).build_tagless()
    }

    fn tagged_stm(heap_words: usize, table_entries: usize) -> Stm<ConcurrentTaggedTable> {
        sized(heap_words, table_entries).build_tagged()
    }

    #[test]
    fn read_write_commit() {
        let stm = tagged_stm(64, 256);
        stm.heap().store(0, 5);
        let r = stm.run(0, |txn| {
            let v = txn.read(0)?;
            txn.write(8, v + 1)?;
            Ok(v)
        });
        assert_eq!(r, 5);
        assert_eq!(stm.heap().load(8), 6);
        assert_eq!(stm.stats().commits, 1);
        assert_eq!(stm.stats().aborts, 0);
    }

    #[test]
    fn writes_are_buffered_until_commit() {
        let stm = tagged_stm(64, 256);
        stm.run(0, |txn| {
            txn.write(0, 99)?;
            // The heap must not see it yet.
            assert_eq!(stm.heap().load(0), 0);
            // But the transaction reads its own write.
            assert_eq!(txn.read(0)?, 99);
            Ok(())
        });
        assert_eq!(stm.heap().load(0), 99);
    }

    #[test]
    fn voluntary_retry_counts_as_abort() {
        let stm = tagless_stm(64, 256);
        let mut first = true;
        let r = stm.run(0, |txn| {
            if first {
                first = false;
                return txn.retry();
            }
            txn.write(0, 7)?;
            Ok(42)
        });
        assert_eq!(r, 42);
        let s = stm.stats();
        assert_eq!(s.commits, 1);
        assert_eq!(s.aborts, 1);
        assert_eq!(stm.heap().load(0), 7);
    }

    #[test]
    fn aborted_writes_discarded() {
        let stm = tagged_stm(64, 256);
        let mut first = true;
        stm.run(0, |txn| {
            txn.write(0, 1000)?;
            if first {
                first = false;
                return Err(Aborted);
            }
            Ok(())
        });
        // Final attempt wrote 1000 and committed; but between attempts the
        // heap must have stayed 0 — verified implicitly by the buffered test
        // above. Here: exactly one committed value.
        assert_eq!(stm.heap().load(0), 1000);
    }

    #[test]
    fn try_run_exhausts_budget() {
        let stm = tagged_stm(64, 256);
        let r: Result<(), _> = stm.try_run(0, 3, |txn| txn.retry());
        assert_eq!(r, Err(RetryLimitExceeded { attempts: 3 }));
        assert_eq!(stm.stats().aborts, 3);
        // The table must be clean afterwards.
        assert_eq!(
            stm.table().stats_snapshot().grants,
            stm.table().stats_snapshot().releases
        );
    }

    #[test]
    fn update_helper() {
        let stm = tagged_stm(64, 256);
        stm.heap().store(16, 10);
        let v = stm.run(0, |txn| txn.update(16, |x| x * 3));
        assert_eq!(v, 30);
        assert_eq!(stm.heap().load(16), 30);
    }

    #[test]
    fn grants_released_on_commit_and_abort() {
        let stm = tagless_stm(1024, 256);
        stm.run(0, |txn| {
            for i in 0..10 {
                txn.write(i * 8, i)?;
            }
            assert!(txn.grant_count() > 0);
            Ok(())
        });
        let t = stm.table().stats_snapshot();
        assert_eq!(t.grants, t.releases);
    }

    #[test]
    fn txn_drop_without_finish_releases() {
        // Simulate a panicking body: construct a Txn, acquire, drop it.
        let stm = tagged_stm(64, 256);
        {
            let mut txn = Txn::new(&stm, 0, false);
            txn.write(0, 1).unwrap();
            // dropped here without commit/rollback
        }
        let t = stm.table().stats_snapshot();
        assert_eq!(t.grants, t.releases, "drop must release grants");
    }

    #[test]
    fn concurrent_counter_tagged_is_exact() {
        let stm = std::sync::Arc::new(tagged_stm(64, 1024));
        let threads = 4;
        let increments = 500;
        crossbeam::scope(|s| {
            for id in 0..threads {
                let stm = &stm;
                s.spawn(move |_| {
                    for _ in 0..increments {
                        stm.run(id, |txn| txn.update(0, |v| v + 1).map(|_| ()));
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(stm.heap().load(0), (threads as u64) * increments);
        assert_eq!(stm.stats().commits, (threads as u64) * increments);
    }

    #[test]
    fn concurrent_counter_tagless_is_exact() {
        let stm = std::sync::Arc::new(tagless_stm(64, 1024));
        let threads = 4;
        let increments = 500;
        crossbeam::scope(|s| {
            for id in 0..threads {
                let stm = &stm;
                s.spawn(move |_| {
                    for _ in 0..increments {
                        stm.run(id, |txn| txn.update(0, |v| v + 1).map(|_| ()));
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(stm.heap().load(0), (threads as u64) * increments);
    }

    #[test]
    fn disjoint_data_conflicts_only_under_tagless() {
        // Deterministic false-conflict demonstration: two threads touch
        // *different* blocks (0 and 2) that alias in a 2-entry mask-hashed
        // table. While thread 0 holds its grant, thread 1's attempt must
        // abort under tagless and succeed under tagged.
        use std::sync::atomic::{AtomicBool, Ordering};
        use tm_ownership::HashKind;

        fn scenario<T: ConcurrentTable>(table: T) -> (bool, u64, u64) {
            let stm = sized(256, 2).build_with_table(table);
            let holding = AtomicBool::new(false);
            let proceed = AtomicBool::new(false);
            let mut peer_failed = false;
            crossbeam::scope(|s| {
                let (stm, holding, proceed) = (&stm, &holding, &proceed);
                s.spawn(move |_| {
                    stm.run(0, |t| {
                        t.write(0, 1)?; // block 0 → entry 0
                        holding.store(true, Ordering::Release);
                        while !proceed.load(Ordering::Acquire) {
                            std::hint::spin_loop();
                        }
                        Ok(())
                    });
                });
                while !holding.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                // Different data, same entry: block 2 (addr 128) → entry 0.
                let r = stm.try_run(1, 1, |t| t.write(128, 2));
                peer_failed = r.is_err();
                proceed.store(true, Ordering::Release);
            })
            .unwrap();
            (peer_failed, stm.heap().load(0), stm.heap().load(128))
        }

        let cfg = TableConfig::new(2).with_hash(HashKind::Mask);
        let (tagless_failed, a, b) = scenario(ConcurrentTaglessTable::new(cfg.clone()));
        assert!(tagless_failed, "tagless must report the false conflict");
        assert_eq!(a, 1);
        assert_eq!(b, 0, "aborted write must not reach the heap");

        let (tagged_failed, a, b) = scenario(ConcurrentTaggedTable::new(cfg));
        assert!(
            !tagged_failed,
            "tagged must not conflict on distinct blocks"
        );
        assert_eq!(a, 1);
        assert_eq!(b, 2);
    }

    #[test]
    fn stall_policy_reduces_aborts_on_short_conflicts() {
        let stm = std::sync::Arc::new(
            sized(64, 256)
                .contention(ContentionPolicy::Stall { max_spins: 200 })
                .build_tagged(),
        );
        crossbeam::scope(|s| {
            for id in 0..4u32 {
                let stm = &stm;
                s.spawn(move |_| {
                    for _ in 0..200 {
                        stm.run(id, |t| t.update(0, |v| v + 1).map(|_| ()));
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(stm.heap().load(0), 800);
        let s = stm.stats();
        // The policy must have spun at least sometimes under this contention.
        assert!(s.stall_retries > 0 || s.aborts == 0);
    }

    #[test]
    fn read_only_txns_touch_no_table_state() {
        let stm = tagged_stm(64, 256);
        stm.heap().store(0, 5);
        let before = stm.table().stats_snapshot();
        let v = stm.run_read(0, |txn| {
            let v = txn.read(0)?;
            assert_eq!(txn.read_count(), 1);
            Ok(v)
        });
        assert_eq!(v, 5);
        let after = stm.table().stats_snapshot();
        assert_eq!(before.grants, after.grants, "read path must not acquire");
        let s = stm.stats();
        assert_eq!(s.read_only_commits, 1);
        assert_eq!(s.commits, 0, "read-only commits stay off the write side");
    }

    #[test]
    fn read_only_snapshot_is_never_torn() {
        // A writer keeps two words equal inside each transaction; readers
        // using the table-free path must never observe the pair mid-publish.
        let stm = std::sync::Arc::new(tagged_stm(64, 1024));
        let rounds = 2000u64;
        crossbeam::scope(|s| {
            let w = &stm;
            s.spawn(move |_| {
                for _ in 0..rounds {
                    w.run(0, |t| {
                        let v = t.read(0)?;
                        t.write(0, v + 1)?;
                        t.write(8, v + 1)
                    });
                }
            });
            for id in 1..3u32 {
                let r = &stm;
                s.spawn(move |_| {
                    for _ in 0..rounds {
                        let (a, b) = r.run_read(id, |t| Ok((t.read(0)?, t.read(8)?)));
                        assert_eq!(a, b, "torn read-only snapshot");
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(stm.heap().load(0), rounds);
        let s = stm.stats();
        assert_eq!(s.read_only_commits, 2 * rounds);
        assert_eq!(s.commits, rounds);
    }

    #[test]
    fn strong_isolation_read_write() {
        let stm = tagged_stm(64, 256);
        stm.strong_write(9, 0, 77);
        assert_eq!(stm.strong_read(9, 0), 77);
        let s = stm.stats();
        assert_eq!(s.strong_reads, 1);
        assert_eq!(s.strong_writes, 1);
        // No grants leaked.
        let t = stm.table().stats_snapshot();
        assert_eq!(t.grants, t.releases);
    }

    #[test]
    fn strong_isolation_concurrent_with_transactions() {
        let stm = std::sync::Arc::new(tagged_stm(64, 1024));
        let rounds = 400u64;
        crossbeam::scope(|s| {
            let stm1 = &stm;
            s.spawn(move |_| {
                for _ in 0..rounds {
                    stm1.run(0, |t| {
                        let v = t.read(0)?;
                        t.write(0, v + 1)?;
                        t.write(8, v + 1)?; // keep the pair equal
                        Ok(())
                    });
                }
            });
            let stm2 = &stm;
            s.spawn(move |_| {
                for _ in 0..rounds {
                    // Strong reads may interleave between transactions but
                    // must never see a half-applied transaction: we read the
                    // pair under one strong read each; since both words are
                    // in block 0, the read-acquire excludes the writer.
                    let a = stm2.strong_read(1, 0);
                    let b = stm2.strong_read(1, 8);
                    // b is sampled after a: the counter may have advanced,
                    // but b can never exceed a by more than the writer's
                    // progress… the strong invariant we can check cheaply is
                    // monotonicity.
                    assert!(b + rounds >= a);
                }
            });
        })
        .unwrap();
        assert_eq!(stm.heap().load(0), rounds);
    }
}
