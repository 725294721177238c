//! The online-resizable ownership table.
//!
//! [`ResizableTable`] wraps any [`ConcurrentTable`] in the active/standby
//! pattern and resizes it *between* transactions, not under them. A
//! transaction attempt is inside the [`EpochGate`] from its
//! [`enter`](ConcurrentTable::enter) to its [`exit`](ConcurrentTable::exit),
//! which the engine places before its first grant key and after its last
//! release. A resize seals the gate — new attempts wait, attempts already
//! inside carry on — and waits up to [`QUIESCE_BUDGET`] for every attempt
//! to leave. The active table is then empty, so the resize swaps in a fresh
//! table of the new geometry and reopens: nothing is replayed, and every
//! in-flight transaction finishes in the generation it started in. If
//! attempts remain when the budget runs out, the gate reopens and the
//! resize reports [`ResizeError::Busy`] with the active table untouched.
//!
//! Since no swap can happen inside an attempt, every other operation
//! forwards to the active table. Its grant keys are the wrapped table's, so
//! the engine's log coalesces one transaction's aliasing blocks onto one
//! grant, and its tally counts the wrapped table's outcomes: the conflict
//! semantics and the counts are exactly the wrapped table's. False
//! conflicts still happen — that is the phenomenon the resize exists to
//! manage.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use tm_ownership::concurrent::{ConcurrentTable, GrantKey, GrantSnapshot, Held};
use tm_ownership::stats::{AccessTally, TableStats};
use tm_ownership::{Access, AcquireOutcome, BlockAddr, HashKind, TableConfig, ThreadId};

use crate::epoch::EpochGate;

/// How long a resize waits for the attempts inside the table to finish
/// before it gives up with [`ResizeError::Busy`].
pub const QUIESCE_BUDGET: Duration = Duration::from_millis(10);

/// Why a resize did not happen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResizeError {
    /// Attempts were still inside when [`QUIESCE_BUDGET`] ran out; the
    /// active table is untouched. Retrying once those transactions finish
    /// usually succeeds.
    Busy,
    /// The proposed size equals the current size.
    SameSize,
}

impl std::fmt::Display for ResizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResizeError::Busy => write!(f, "attempts still inside when the quiesce budget ran out"),
            ResizeError::SameSize => write!(f, "table already has the requested size"),
        }
    }
}

impl std::error::Error for ResizeError {}

/// A successful resize, for logging/telemetry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResizeReport {
    /// Entry count before.
    pub from_entries: usize,
    /// Entry count after.
    pub to_entries: usize,
}

/// Cumulative resize counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResizeStats {
    /// Completed swaps.
    pub resizes: u64,
    /// Attempts abandoned on [`ResizeError::Busy`].
    pub deferred: u64,
}

/// An online-resizable concurrent ownership table (see module docs).
///
/// Implements [`ConcurrentTable`], so `Stm<ResizableTable<T>>` works like
/// any other table-backed STM — except that [`ResizableTable::resize_to`]
/// may be called at any moment, from any thread, while transactions run.
pub struct ResizableTable<T: ConcurrentTable> {
    base_cfg: TableConfig,
    current: RwLock<T>,
    gate: EpochGate,
    resize_lock: Mutex<()>,
    factory: Box<dyn Fn(TableConfig) -> T + Send + Sync>,
    /// Counters accumulated by retired generations, folded in at swap time
    /// so [`ConcurrentTable::stats_snapshot`] stays cumulative across
    /// resizes.
    carried_stats: Mutex<TableStats>,
    resizes: AtomicU64,
    deferred: AtomicU64,
}

impl<T: ConcurrentTable> std::fmt::Debug for ResizableTable<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResizableTable")
            .field("live_entries", &self.live_entries())
            .field("resize_stats", &self.resize_stats())
            .finish_non_exhaustive()
    }
}

impl<T: ConcurrentTable> ResizableTable<T> {
    /// Wrap tables built by `factory`, starting from `initial` geometry.
    ///
    /// The factory is re-invoked on every resize with the new geometry
    /// (the block size of `initial`, with the entry count and hash kind the
    /// resize asks for — see [`ResizableTable::resize_with_hash`]).
    pub fn with_factory(
        initial: TableConfig,
        factory: impl Fn(TableConfig) -> T + Send + Sync + 'static,
    ) -> Self {
        let table = factory(initial.clone());
        Self {
            base_cfg: initial,
            current: RwLock::new(table),
            gate: EpochGate::new(),
            resize_lock: Mutex::new(()),
            factory: Box::new(factory),
            carried_stats: Mutex::new(TableStats::default()),
            resizes: AtomicU64::new(0),
            deferred: AtomicU64::new(0),
        }
    }

    /// Entry count of the *active* generation (unlike
    /// [`ConcurrentTable::config`], this tracks resizes).
    pub fn live_entries(&self) -> usize {
        self.current.read().num_entries()
    }

    /// The *active* generation's full configuration — entry count, hash
    /// kind, block geometry — as of this call. [`ConcurrentTable::config`]
    /// deliberately keeps returning the construction-time geometry (its
    /// block mapper stays authoritative for address mapping); use this
    /// accessor whenever you are reporting what the table looks like *now*.
    pub fn live_config(&self) -> TableConfig {
        self.current.read().config().clone()
    }

    /// Hash kind of the *active* generation.
    pub fn live_hash(&self) -> HashKind {
        self.current.read().config().hash()
    }

    /// Grant units live in the active table, as [`drain_grants`] counts
    /// them: one per write grant, one per reader of a read grant
    /// (diagnostic; momentarily racy under concurrent traffic).
    ///
    /// [`drain_grants`]: ConcurrentTable::drain_grants
    pub fn live_grants(&self) -> usize {
        let mut units = 0;
        // A write grant has no sharers.
        self.for_each_grant(&mut |g| units += g.sharers.max(1) as usize);
        units
    }

    /// Cumulative resize counters.
    pub fn resize_stats(&self) -> ResizeStats {
        ResizeStats {
            resizes: self.resizes.load(Ordering::Relaxed),
            deferred: self.deferred.load(Ordering::Relaxed),
        }
    }

    /// Resize the active table to `new_entries` (power of two), keeping the
    /// current hash kind. See [`ResizableTable::resize_with_hash`].
    pub fn resize_to(&self, new_entries: usize) -> Result<ResizeReport, ResizeError> {
        let hash = self.live_hash();
        self.resize_with_hash(new_entries, hash)
    }

    /// Resize and/or rehash the active table while transactions run.
    ///
    /// Seals the gate, waits up to [`QUIESCE_BUDGET`] for the attempts
    /// inside to exit, swaps in an empty table of the new geometry and
    /// reopens; a new attempt's [`enter`](ConcurrentTable::enter) waits
    /// meanwhile. No transaction log outlives the swap, because no attempt
    /// is inside when it happens. Called from inside an attempt on this
    /// table, it returns [`ResizeError::Busy`].
    ///
    /// # Panics
    /// Panics if `new_entries` is not a power of two (propagated from
    /// [`TableConfig::new`]).
    pub fn resize_with_hash(
        &self,
        new_entries: usize,
        hash: HashKind,
    ) -> Result<ResizeReport, ResizeError> {
        let _one_resizer = self.resize_lock.lock();
        let from_entries = self.live_entries();
        if from_entries == new_entries && self.live_hash() == hash {
            return Err(ResizeError::SameSize);
        }
        let cfg = TableConfig::new(new_entries)
            .with_block_bytes(self.base_cfg.mapper().block_bytes())
            .with_hash(hash);
        let fresh = (self.factory)(cfg);

        if !self.gate.try_seal(QUIESCE_BUDGET) {
            self.deferred.fetch_add(1, Ordering::Relaxed);
            return Err(ResizeError::Busy);
        }
        // No attempt is inside, so the active table is empty: swap it out
        // whole. The carry lock is held ACROSS the swap, as
        // stats_snapshot() reads carry and active table under it — it sees
        // the old pair or the new one, never a half-applied fold.
        let mut carried = self.carried_stats.lock();
        let retired = std::mem::replace(&mut *self.current.write(), fresh);
        *carried += retired.stats_snapshot();
        drop(carried);
        self.gate.open();
        self.resizes.fetch_add(1, Ordering::Relaxed);
        Ok(ResizeReport {
            from_entries,
            to_entries: new_entries,
        })
    }
}

/// Apart from the gate and the cumulative statistics, every method forwards
/// to the active table, which cannot change inside an attempt.
impl<T: ConcurrentTable> ConcurrentTable for ResizableTable<T> {
    fn num_entries(&self) -> usize {
        self.live_entries()
    }

    /// Joins the gate (waiting out a resize in progress).
    fn enter(&self, txn: ThreadId) {
        self.gate.enter(txn as usize);
    }

    /// Leaves the gate.
    fn exit(&self, txn: ThreadId) {
        self.gate.exit(txn as usize);
    }

    /// The active table's key: valid until the caller's
    /// [`exit`](ConcurrentTable::exit), since the active table is swapped
    /// only while no attempt is inside.
    fn grant_key(&self, block: BlockAddr) -> GrantKey {
        self.current.read().grant_key(block)
    }

    fn acquire_uncounted(
        &self,
        txn: ThreadId,
        block: BlockAddr,
        access: Access,
        held: Held,
    ) -> AcquireOutcome {
        self.current
            .read()
            .acquire_uncounted(txn, block, access, held)
    }

    fn release_uncounted(&self, txn: ThreadId, key: GrantKey, held: Held) {
        self.current.read().release_uncounted(txn, key, held)
    }

    fn fold(&self, tally: &AccessTally) {
        self.current.read().fold(tally)
    }

    /// Cumulative across resizes: counters of retired generations are
    /// folded in at swap time.
    fn stats_snapshot(&self) -> TableStats {
        // Hold the carry lock across the active-table read so a concurrent
        // resize's fold+swap (done under the same lock) cannot be observed
        // half-applied.
        let carried = self.carried_stats.lock();
        let mut merged = carried.clone();
        merged += self.current.read().stats_snapshot();
        merged
    }

    /// The *initial* configuration. Its block mapper remains authoritative
    /// for address mapping, but its entry count and hash kind are
    /// construction time's — grant keys come from the active table, and
    /// [`ResizableTable::live_config`] reports its geometry.
    fn config(&self) -> &TableConfig {
        &self.base_cfg
    }

    fn for_each_grant(&self, f: &mut dyn FnMut(GrantSnapshot)) {
        self.current.read().for_each_grant(f)
    }

    /// Drops the active table's grants. Attempts inside the gate stay
    /// inside until they exit.
    fn drain_grants(&self) -> u64 {
        self.current.read().drain_grants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_ownership::{ConcurrentTaglessTable, ConflictKind};

    fn table(entries: usize) -> ResizableTable<ConcurrentTaglessTable> {
        ResizableTable::with_factory(
            TableConfig::new(entries).with_hash(HashKind::Mask),
            ConcurrentTaglessTable::new,
        )
    }

    fn grants(t: &ResizableTable<ConcurrentTaglessTable>) -> Vec<GrantSnapshot> {
        let mut v = Vec::new();
        t.for_each_grant(&mut |g| v.push(g));
        v
    }

    /// Release `txn`'s grant on `block` under the active table's key.
    fn release(t: &ResizableTable<ConcurrentTaglessTable>, txn: ThreadId, block: u64, held: Held) {
        t.release(txn, t.grant_key(block), held);
    }

    #[test]
    fn basic_acquire_release() {
        let t = table(16);
        t.enter(0);
        assert!(t.acquire(0, 3, Access::Write, Held::None).is_ok());
        assert_eq!(t.live_grants(), 1);
        release(&t, 0, 3, Held::Write);
        assert_eq!(t.live_grants(), 0);
        t.exit(0);
    }

    #[test]
    fn false_conflicts_survive_wrapping() {
        let t = table(16);
        t.enter(0);
        t.enter(1);
        // Blocks 3 and 19 alias in a 16-entry mask table.
        assert_eq!(t.grant_key(3), t.grant_key(19));
        assert!(t.acquire(0, 3, Access::Write, Held::None).is_ok());
        let c = t
            .acquire(1, 19, Access::Write, Held::None)
            .conflict()
            .unwrap();
        assert_eq!(c.with, Some(0));
        release(&t, 0, 3, Held::Write);
        t.exit(1);
        t.exit(0);
    }

    #[test]
    fn one_transactions_aliasing_blocks_make_one_grant() {
        use crate::{AdaptiveStmBuilder, ResizePolicy};
        use tm_stm::{StmBuilder, TmEngine, TxnOps};

        let (stm, _controller) = StmBuilder::new()
            .heap_words(1 << 10)
            .table_entries(16)
            .hash(HashKind::Mask)
            .build_adaptive(ResizePolicy::default(), 1);
        let t = stm.table();
        stm.run(0, |txn| {
            // Blocks 3 and 19 alias: the second write finds the key held.
            txn.write(3 * 64, 1)?;
            txn.write(19 * 64, 2)?;
            assert_eq!(txn.grant_count(), 1);
            assert_eq!(t.live_grants(), 1);
            // The attempt is inside the gate, so no resize can go ahead.
            assert_eq!(t.resize_to(64), Err(ResizeError::Busy));
            Ok(())
        });
        let s = t.stats_snapshot();
        assert_eq!((s.write_acquires, s.grants, s.already_held), (2, 1, 1));
        assert_eq!(s.releases, 1, "the one grant is released once");
        assert_eq!(t.live_grants(), 0);
        assert!(t.resize_to(64).is_ok());
    }

    #[test]
    fn read_upgrade_through_wrapper() {
        let t = table(16);
        t.enter(0);
        t.enter(1);
        assert!(t.acquire(0, 3, Access::Read, Held::None).is_ok());
        assert!(t.acquire(0, 3, Access::Write, Held::Read).is_ok());
        // Exclusive now.
        assert!(t
            .acquire(1, 3, Access::Read, Held::None)
            .conflict()
            .is_some());
        release(&t, 0, 3, Held::Write);
        assert_eq!(t.live_grants(), 0);
        t.exit(1);
        t.exit(0);
    }

    #[test]
    fn resize_with_grants_held_is_busy_and_moves_nothing() {
        let t = table(16);
        for txn in 0..3 {
            t.enter(txn);
        }
        assert!(t.acquire(0, 3, Access::Write, Held::None).is_ok());
        assert!(t.acquire(1, 100, Access::Read, Held::None).is_ok());
        let before = grants(&t);
        assert_eq!(t.resize_to(256), Err(ResizeError::Busy));
        assert_eq!(t.live_entries(), 16);
        assert_eq!(grants(&t), before, "a deferred resize touched the table");
        // The held grants still exclude competitors...
        assert!(t
            .acquire(2, 3, Access::Write, Held::None)
            .conflict()
            .is_some());
        // ...and release cleanly.
        release(&t, 0, 3, Held::Write);
        release(&t, 1, 100, Held::Read);
        assert_eq!(t.live_grants(), 0);
        for txn in 0..3 {
            t.exit(txn);
        }
        // With every attempt out the same resize goes through.
        let report = t.resize_to(256).unwrap();
        assert_eq!((report.from_entries, report.to_entries), (16, 256));
        assert_eq!(t.live_entries(), 256);
        assert_eq!(
            t.resize_stats(),
            ResizeStats {
                resizes: 1,
                deferred: 1
            }
        );
        t.enter(2);
        assert!(t.acquire(2, 3, Access::Write, Held::None).is_ok());
        release(&t, 2, 3, Held::Write);
        t.exit(2);
    }

    #[test]
    fn resize_to_same_size_is_rejected() {
        let t = table(16);
        assert_eq!(t.resize_to(16), Err(ResizeError::SameSize));
        // Rehash at the same size is a real change.
        assert!(t.resize_with_hash(16, HashKind::Multiplicative).is_ok());
        assert_eq!(t.live_hash(), HashKind::Multiplicative);
    }

    #[test]
    fn live_config_tracks_resizes_config_does_not() {
        let t = table(16);
        assert_eq!(t.live_config().num_entries(), 16);
        t.resize_with_hash(256, HashKind::Multiplicative).unwrap();
        // The live view follows the swap...
        let live = t.live_config();
        assert_eq!(live.num_entries(), 256);
        assert_eq!(live.hash(), HashKind::Multiplicative);
        assert_eq!(live.num_entries(), t.live_entries());
        // ...while the construction-time config stays put (documented wart:
        // its block mapper remains authoritative for address mapping).
        assert_eq!(t.config().num_entries(), 16);
        assert_eq!(t.config().hash(), HashKind::Mask);
    }

    #[test]
    fn shrink_with_grants_held_is_busy() {
        let t = table(1 << 10);
        t.enter(0);
        t.enter(1);
        // Two writers on blocks that collide in a 1-entry table.
        assert!(t.acquire(0, 0, Access::Write, Held::None).is_ok());
        assert!(t.acquire(1, 1, Access::Write, Held::None).is_ok());
        assert_eq!(t.resize_to(1), Err(ResizeError::Busy));
        // Active generation untouched; traffic continues.
        assert_eq!(t.live_entries(), 1 << 10);
        assert_eq!(t.live_grants(), 2);
        release(&t, 0, 0, Held::Write);
        release(&t, 1, 1, Held::Write);
        t.exit(0);
        t.exit(1);
        assert_eq!(t.resize_stats().deferred, 1);
        // With the attempts gone the same shrink succeeds, and the two
        // blocks now alias.
        assert!(t.resize_to(1).is_ok());
        t.enter(0);
        t.enter(1);
        assert!(t.acquire(0, 0, Access::Write, Held::None).is_ok());
        assert!(t
            .acquire(1, 1, Access::Write, Held::None)
            .conflict()
            .is_some());
        release(&t, 0, 0, Held::Write);
        t.exit(1);
        t.exit(0);
    }

    #[test]
    fn alias_grants_rehash_apart() {
        let t = table(16);
        for txn in 0..3 {
            t.enter(txn);
        }
        // Two *read* grants of different txns aliasing at 16 entries...
        assert!(t.acquire(0, 3, Access::Read, Held::None).is_ok());
        assert!(t.acquire(1, 19, Access::Read, Held::None).is_ok());
        assert_eq!(t.resize_to(64), Err(ResizeError::Busy));
        // ...so a writer on block 19 fights both while they are held.
        assert!(t
            .acquire(2, 19, Access::Write, Held::None)
            .conflict()
            .is_some());
        release(&t, 0, 3, Held::Read);
        release(&t, 1, 19, Held::Read);
        for txn in 0..3 {
            t.exit(txn);
        }
        t.resize_to(64).unwrap();
        for txn in 0..3 {
            t.enter(txn);
        }
        // At 64 entries 3 and 19 land on distinct entries (mask hash): a
        // writer on 19 now coexists with a reader of 3.
        assert!(t.acquire(0, 3, Access::Read, Held::None).is_ok());
        assert!(t.acquire(2, 19, Access::Write, Held::None).is_ok());
        // A writer on 3 still fights the reader of 3 itself.
        let c = t
            .acquire(1, 3, Access::Write, Held::None)
            .conflict()
            .unwrap();
        assert_eq!(c.kind, ConflictKind::WriteAfterRead);
        release(&t, 0, 3, Held::Read);
        release(&t, 2, 19, Held::Write);
        for txn in 0..3 {
            t.exit(txn);
        }
    }

    #[test]
    fn stats_stay_cumulative_across_resizes() {
        let t = table(16);
        for txn in 0..3 {
            t.enter(txn);
        }
        assert!(t.acquire(0, 3, Access::Write, Held::None).is_ok());
        assert!(t.acquire(1, 7, Access::Write, Held::None).is_ok());
        // One conflict before the resize.
        assert!(t
            .acquire(2, 7, Access::Write, Held::None)
            .conflict()
            .is_some());
        release(&t, 0, 3, Held::Write);
        release(&t, 1, 7, Held::Write);
        for txn in 0..3 {
            t.exit(txn);
        }
        let before = t.stats_snapshot();
        assert_eq!(before.grants, 2);
        assert_eq!(before.releases, 2);
        assert_eq!(before.write_after_write, 1);

        t.resize_to(256).unwrap();

        // The swap resets no counter.
        assert_eq!(t.stats_snapshot(), before);
        t.enter(0);
        assert!(t.acquire(0, 3, Access::Write, Held::None).is_ok());
        release(&t, 0, 3, Held::Write);
        t.exit(0);
        let after = t.stats_snapshot();
        assert_eq!(after.grants, 3);
        assert_eq!(after.releases, 3);
        assert_eq!(after.write_after_write, 1);
    }

    #[test]
    fn drain_grants_reopens_the_way_for_a_resize() {
        let t = table(16);
        t.enter(0);
        t.enter(1);
        assert!(t.acquire(0, 3, Access::Write, Held::None).is_ok());
        assert!(t.acquire(1, 4, Access::Read, Held::None).is_ok());
        assert_eq!(t.resize_to(64), Err(ResizeError::Busy));
        assert_eq!(t.drain_grants(), 2);
        assert_eq!(t.live_grants(), 0);
        assert!(grants(&t).is_empty());
        // Draining leaves the attempts inside: only their exits let the
        // resize through.
        assert_eq!(t.resize_to(64), Err(ResizeError::Busy));
        t.exit(0);
        t.exit(1);
        assert!(t.resize_to(64).is_ok());
        t.enter(2);
        assert!(t.acquire(2, 3, Access::Write, Held::None).is_ok());
        release(&t, 2, 3, Held::Write);
        t.exit(2);
    }

    #[test]
    fn concurrent_traffic_across_resizes() {
        let t = std::sync::Arc::new(table(64));
        let rounds = 300u64;
        crossbeam::scope(|s| {
            for id in 0..4u32 {
                let t = &t;
                s.spawn(move |_| {
                    for r in 0..rounds {
                        let block = (id as u64) * 1000 + (r % 50);
                        t.enter(id);
                        if t.acquire(id, block, Access::Write, Held::None).is_ok() {
                            release(t, id, block, Held::Write);
                        }
                        t.exit(id);
                    }
                });
            }
            let t = &t;
            s.spawn(move |_| {
                for i in 0..20 {
                    let n = 64usize << (i % 5);
                    let _ = t.resize_to(n);
                    std::thread::yield_now();
                }
            });
        })
        .unwrap();
        assert_eq!(t.live_grants(), 0, "grants leaked across resizes");
    }
}
