//! The online-resizable ownership table.
//!
//! [`ResizableTable`] wraps any [`ConcurrentTable`] in the active/standby
//! pattern and resizes it *between* transactions, not under them. A thread
//! enters the [`EpochGate`] with its first grant in the active table and
//! leaves with its last release. A resize seals the gate — first acquires
//! wait, threads already holding grants carry on — and waits up to
//! [`QUIESCE_BUDGET`] for every holder to leave. The active table is then
//! empty, so the resize swaps in a fresh table of the new geometry and
//! reopens: nothing is replayed, and every in-flight transaction finishes
//! in the generation it started in. If holders remain when the budget runs
//! out, the gate reopens and the resize reports [`ResizeError::Busy`] with
//! the active table untouched.
//!
//! ## Grant keys and aliasing
//!
//! Public [`GrantKey`]s are **block addresses**: the engine resolves a
//! block's key once per access, before its stall loop, so a key naming an
//! entry could name an entry of the previous geometry. Per thread, the
//! wrapper counts the blocks each inner-table key covers, so one
//! transaction's aliasing blocks coalesce onto a single inner grant and the
//! conflict semantics between transactions are exactly the wrapped
//! table's: false conflicts still happen — that is the phenomenon the
//! resize exists to manage.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use tm_ownership::concurrent::{ConcurrentTable, GrantKey, GrantSnapshot, Held};
use tm_ownership::stats::{AccessTally, TableStats};
use tm_ownership::{
    Access, AcquireOutcome, BlockAddr, FastHashState, HashKind, TableConfig, ThreadId,
};

use crate::epoch::EpochGate;

/// How long a resize waits for the threads holding grants to release them
/// before it gives up with [`ResizeError::Busy`].
pub const QUIESCE_BUDGET: Duration = Duration::from_millis(10);

/// A transaction's coalesced holding on one inner-table grant key.
#[derive(Clone, Copy, Debug)]
struct EntryHold {
    /// Level held on the inner table (max over the covered blocks).
    level: Held,
    /// Blocks the transaction holds under this inner key.
    blocks: u32,
}

/// `(txn, inner key) → holding` for the thread ids of one slot. Internal
/// bookkeeping, never attacker-controlled, so it hashes with the
/// trusted-key [`FastHashState`] instead of SipHash.
type Holdings = HashMap<(ThreadId, GrantKey), EntryHold, FastHashState>;

/// One slot's holdings, padded so threads in neighbouring slots never
/// share a cache line. The slot is inside the gate exactly while its map
/// is non-empty.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Slot(Mutex<Holdings>);

/// Why a resize did not happen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResizeError {
    /// Grants were still held when [`QUIESCE_BUDGET`] ran out; the active
    /// table is untouched. Retrying once those transactions finish usually
    /// succeeds.
    Busy,
    /// The proposed size equals the current size.
    SameSize,
}

impl std::fmt::Display for ResizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResizeError::Busy => write!(f, "grants still held when the quiesce budget ran out"),
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
    /// Indexed by `txn % max_threads`, so ids beyond the bound share a slot
    /// (and its gate membership) but keep their own holdings.
    slots: Box<[Slot]>,
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
    /// (same block size, hash kind, classification flag and thread bound as
    /// `initial`; only the entry count changes — see
    /// [`ResizableTable::resize_with_hash`]).
    pub fn with_factory(
        initial: TableConfig,
        factory: impl Fn(TableConfig) -> T + Send + Sync + 'static,
    ) -> Self {
        let table = factory(initial.clone());
        Self {
            slots: (0..initial.max_threads())
                .map(|_| Slot::default())
                .collect(),
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
    /// block mapper stays authoritative for address mapping and transaction
    /// logs must outlive swaps); use this accessor whenever you are
    /// reporting what the table looks like *now*.
    pub fn live_config(&self) -> TableConfig {
        self.current.read().config().clone()
    }

    /// Hash kind of the *active* generation.
    pub fn live_hash(&self) -> HashKind {
        self.current.read().config().hash()
    }

    /// Live block-level grants across all transactions (diagnostic;
    /// momentarily racy under concurrent traffic).
    pub fn live_grants(&self) -> usize {
        self.slots
            .iter()
            .map(|s| {
                s.0.lock()
                    .values()
                    .map(|h| h.blocks as usize)
                    .sum::<usize>()
            })
            .sum()
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
    /// Seals the gate, waits up to [`QUIESCE_BUDGET`] for the threads
    /// holding grants to release them, swaps in an empty table of the new
    /// geometry and reopens; a thread's first grant waits meanwhile.
    /// Transaction logs remain valid because public grant keys are block
    /// addresses, which do not change with the geometry. Called by a thread
    /// that itself holds grants here, it returns [`ResizeError::Busy`].
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
            .with_hash(hash)
            .with_conflict_classification(self.base_cfg.classify_conflicts())
            .with_max_threads(self.base_cfg.max_threads());
        let fresh = (self.factory)(cfg);

        if !self.gate.try_seal(QUIESCE_BUDGET) {
            self.deferred.fetch_add(1, Ordering::Relaxed);
            return Err(ResizeError::Busy);
        }
        // No thread holds a grant, so the active table is empty: swap it
        // out whole. The carry lock is held ACROSS the swap, as
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

    #[inline]
    fn slot_of(&self, txn: ThreadId) -> usize {
        txn as usize % self.slots.len()
    }
}

impl<T: ConcurrentTable> ConcurrentTable for ResizableTable<T> {
    fn num_entries(&self) -> usize {
        self.live_entries()
    }

    /// Grant keys are **block addresses**: stable across resizes, so
    /// transaction logs survive a swap untouched.
    fn grant_key(&self, block: BlockAddr) -> GrantKey {
        block
    }

    /// Counts through the wrapped table (see [`fold`](Self::fold)).
    fn acquire_uncounted(
        &self,
        txn: ThreadId,
        block: BlockAddr,
        access: Access,
        held: Held,
    ) -> AcquireOutcome {
        // The caller already holds block-level permission covering this
        // access: nothing to do, nothing new to release.
        if matches!(
            (access, held),
            (Access::Read, Held::Read | Held::Write) | (Access::Write, Held::Write)
        ) {
            return AcquireOutcome::AlreadyHeld;
        }

        let slot = self.slot_of(txn);
        let mut holdings = self.slots[slot].0.lock();
        if holdings.is_empty() {
            // The slot's first grant: this is where a resize holds it back.
            self.gate.enter(slot);
        }
        let table = self.current.read();
        let inner_key = table.grant_key(block);
        let inner_level = holdings
            .get(&(txn, inner_key))
            .map_or(Held::None, |h| h.level);

        match table.acquire(txn, block, access, inner_level) {
            AcquireOutcome::Conflict(c) => {
                if holdings.is_empty() {
                    self.gate.exit(slot);
                }
                AcquireOutcome::Conflict(c)
            }
            AcquireOutcome::Granted | AcquireOutcome::AlreadyHeld => {
                let hold = holdings.entry((txn, inner_key)).or_insert(EntryHold {
                    level: Held::None,
                    blocks: 0,
                });
                // A block is new to the transaction exactly when it held
                // nothing on it (otherwise this is a read → write upgrade).
                if held == Held::None {
                    hold.blocks += 1;
                }
                hold.level = hold.level.max(inner_level.after(access));
                // Block-level permission is new to the caller even when the
                // inner entry was already covered (intra-transaction alias):
                // report Granted so the caller logs — and later releases —
                // this block.
                AcquireOutcome::Granted
            }
        }
    }

    /// Counts through the wrapped table (see [`fold`](Self::fold)).
    fn release_uncounted(&self, txn: ThreadId, key: GrantKey, held: Held) {
        if held == Held::None {
            return;
        }
        let slot = self.slot_of(txn);
        let mut holdings = self.slots[slot].0.lock();
        let table = self.current.read();
        let inner_key = table.grant_key(key);
        let Some(hold) = holdings.get_mut(&(txn, inner_key)) else {
            debug_assert!(
                false,
                "release of a grant not held (txn {txn}, block {key})"
            );
            return;
        };
        hold.blocks -= 1;
        if hold.blocks == 0 {
            let level = hold.level;
            holdings.remove(&(txn, inner_key));
            table.release(txn, inner_key, level);
            if holdings.is_empty() {
                self.gate.exit(slot);
            }
        }
    }

    /// Drops the tally: this table's statistics are the wrapped table's
    /// counts, which it takes at once through the wrapped table's counting
    /// `acquire`/`release`. A caller's tally describes the wrapper's
    /// block-level outcomes, which differ from the inner entry-level ones
    /// (an aliasing block is `Granted` here and `AlreadyHeld` inside;
    /// releasing it releases nothing inside), and only the wrapper sees the
    /// inner outcome.
    fn fold(&self, _tally: &AccessTally) {}

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

    /// The *initial* configuration. Its block mapper and hash kind remain
    /// authoritative for address mapping, but the entry count reflects
    /// construction time — use [`ResizableTable::live_entries`] for the
    /// current size.
    fn config(&self) -> &TableConfig {
        &self.base_cfg
    }

    /// The active generation's grants, as the wrapped table reports them:
    /// keyed by **entry index** for a tagless table (by block for a tagged
    /// one), not by this wrapper's block-address grant keys.
    fn for_each_grant(&self, f: &mut dyn FnMut(GrantSnapshot)) {
        self.current.read().for_each_grant(f)
    }

    /// Drops every holding (so a resize can go ahead) and the active
    /// table's grants; returns the block-level grants dropped.
    fn drain_grants(&self) -> u64 {
        let mut dropped = 0u64;
        for (i, slot) in self.slots.iter().enumerate() {
            let mut holdings = slot.0.lock();
            if !holdings.is_empty() {
                dropped += holdings.values().map(|h| h.blocks as u64).sum::<u64>();
                holdings.clear();
                self.gate.exit(i);
            }
        }
        self.current.read().drain_grants();
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_ownership::{ConcurrentTaglessTable, ConflictClass, ConflictKind};

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

    #[test]
    fn basic_acquire_release() {
        let t = table(16);
        assert!(t.acquire(0, 3, Access::Write, Held::None).is_ok());
        assert_eq!(t.live_grants(), 1);
        t.release(0, 3, Held::Write);
        assert_eq!(t.live_grants(), 0);
    }

    #[test]
    fn grant_key_is_block() {
        let t = table(16);
        assert_eq!(t.grant_key(12345), 12345);
    }

    #[test]
    fn false_conflicts_survive_wrapping() {
        let t = table(16);
        // Blocks 3 and 19 alias in a 16-entry mask table.
        assert!(t.acquire(0, 3, Access::Write, Held::None).is_ok());
        let c = t
            .acquire(1, 19, Access::Write, Held::None)
            .conflict()
            .unwrap();
        assert_eq!(c.with, Some(0));
    }

    #[test]
    fn intra_txn_alias_coalesces_and_releases() {
        let t = table(16);
        // Same transaction, two aliasing blocks: both granted (no
        // self-conflict), one inner grant covering two blocks.
        assert!(t.acquire(0, 3, Access::Write, Held::None).is_ok());
        assert!(t.acquire(0, 19, Access::Write, Held::None).is_ok());
        assert_eq!(t.live_grants(), 2);
        t.release(0, 3, Held::Write);
        // The inner entry must still be held: a competitor still conflicts.
        assert!(t
            .acquire(1, 35, Access::Write, Held::None)
            .conflict()
            .is_some());
        t.release(0, 19, Held::Write);
        // Now it is free.
        assert!(t.acquire(1, 35, Access::Write, Held::None).is_ok());
    }

    #[test]
    fn already_held_only_when_block_covered() {
        let t = table(16);
        assert!(t.acquire(0, 3, Access::Write, Held::None).is_ok());
        assert_eq!(
            t.acquire(0, 3, Access::Read, Held::Write),
            AcquireOutcome::AlreadyHeld
        );
        // Aliasing block is NOT covered at block level: must be Granted so
        // the caller records and releases it.
        assert_eq!(
            t.acquire(0, 19, Access::Write, Held::None),
            AcquireOutcome::Granted
        );
    }

    #[test]
    fn read_upgrade_through_wrapper() {
        let t = table(16);
        assert!(t.acquire(0, 3, Access::Read, Held::None).is_ok());
        assert!(t.acquire(0, 3, Access::Write, Held::Read).is_ok());
        // Exclusive now.
        assert!(t
            .acquire(1, 3, Access::Read, Held::None)
            .conflict()
            .is_some());
        t.release(0, 3, Held::Write);
        assert_eq!(t.live_grants(), 0);
    }

    #[test]
    fn resize_with_grants_held_is_busy_and_moves_nothing() {
        let t = table(16);
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
        t.release(0, 3, Held::Write);
        t.release(1, 100, Held::Read);
        assert_eq!(t.live_grants(), 0);
        // With nothing held the same resize goes through.
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
        assert!(t.acquire(2, 3, Access::Write, Held::None).is_ok());
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
    fn a_resize_keeps_max_threads() {
        let t = crate::resizable_tagless(
            TableConfig::new(64)
                .with_hash(HashKind::Mask)
                .with_conflict_classification(true)
                .with_max_threads(128),
        );
        t.resize_to(128).unwrap();
        assert_eq!(t.live_config().max_threads(), 128);
        // Thread ids past the default bound of 64 still publish hints, so
        // a true conflict is classified as one.
        assert!(t.acquire(100, 3, Access::Write, Held::None).is_ok());
        let c = t
            .acquire(1, 3, Access::Write, Held::None)
            .conflict()
            .unwrap();
        assert_eq!(c.class, ConflictClass::KnownTrue);
    }

    #[test]
    fn shrink_with_grants_held_is_busy() {
        let t = table(1 << 10);
        // Two writers on blocks that collide in a 1-entry table.
        assert!(t.acquire(0, 0, Access::Write, Held::None).is_ok());
        assert!(t.acquire(1, 1, Access::Write, Held::None).is_ok());
        assert_eq!(t.resize_to(1), Err(ResizeError::Busy));
        // Active generation untouched; traffic continues.
        assert_eq!(t.live_entries(), 1 << 10);
        assert_eq!(t.live_grants(), 2);
        t.release(0, 0, Held::Write);
        t.release(1, 1, Held::Write);
        assert_eq!(t.resize_stats().deferred, 1);
        // With the grants gone the same shrink succeeds, and the two blocks
        // now alias.
        assert!(t.resize_to(1).is_ok());
        assert!(t.acquire(0, 0, Access::Write, Held::None).is_ok());
        assert!(t
            .acquire(1, 1, Access::Write, Held::None)
            .conflict()
            .is_some());
    }

    #[test]
    fn alias_grants_rehash_apart() {
        let t = table(16);
        // Two *read* grants of different txns aliasing at 16 entries...
        assert!(t.acquire(0, 3, Access::Read, Held::None).is_ok());
        assert!(t.acquire(1, 19, Access::Read, Held::None).is_ok());
        assert_eq!(t.resize_to(64), Err(ResizeError::Busy));
        // ...so a writer on block 19 fights both while they are held.
        assert!(t
            .acquire(2, 19, Access::Write, Held::None)
            .conflict()
            .is_some());
        t.release(0, 3, Held::Read);
        t.release(1, 19, Held::Read);
        t.resize_to(64).unwrap();
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
    }

    #[test]
    fn stats_stay_cumulative_across_resizes() {
        let t = table(16);
        assert!(t.acquire(0, 3, Access::Write, Held::None).is_ok());
        assert!(t.acquire(1, 7, Access::Write, Held::None).is_ok());
        // One conflict before the resize.
        assert!(t
            .acquire(2, 7, Access::Write, Held::None)
            .conflict()
            .is_some());
        t.release(0, 3, Held::Write);
        t.release(1, 7, Held::Write);
        let before = t.stats_snapshot();
        assert_eq!(before.grants, 2);
        assert_eq!(before.releases, 2);
        assert_eq!(before.write_after_write, 1);

        t.resize_to(256).unwrap();

        // The swap resets no counter.
        assert_eq!(t.stats_snapshot(), before);
        assert!(t.acquire(0, 3, Access::Write, Held::None).is_ok());
        t.release(0, 3, Held::Write);
        let after = t.stats_snapshot();
        assert_eq!(after.grants, 3);
        assert_eq!(after.releases, 3);
        assert_eq!(after.write_after_write, 1);
    }

    #[test]
    fn ids_sharing_a_slot_keep_separate_holdings() {
        let t = ResizableTable::with_factory(
            TableConfig::new(16)
                .with_hash(HashKind::Mask)
                .with_max_threads(4),
            ConcurrentTaglessTable::new,
        );
        // Ids 1 and 1 + max_threads share slot 1 but are distinct
        // transactions: their aliasing blocks conflict, not coalesce.
        assert!(t.acquire(1, 3, Access::Write, Held::None).is_ok());
        let c = t
            .acquire(5, 19, Access::Write, Held::None)
            .conflict()
            .unwrap();
        assert_eq!(c.with, Some(1));
        assert!(t.acquire(5, 4, Access::Write, Held::None).is_ok());
        assert_eq!(t.live_grants(), 2);
        // Id 1 is done, but id 5 still holds in the slot: no resize yet.
        t.release(1, 3, Held::Write);
        assert_eq!(t.resize_to(64), Err(ResizeError::Busy));
        assert!(t.acquire(1, 19, Access::Write, Held::None).is_ok());
        t.release(1, 19, Held::Write);
        t.release(5, 4, Held::Write);
        assert_eq!(t.live_grants(), 0);
        assert!(t.resize_to(64).is_ok());
    }

    #[test]
    fn drain_grants_reopens_the_way_for_a_resize() {
        let t = table(16);
        assert!(t.acquire(0, 3, Access::Write, Held::None).is_ok());
        assert!(t.acquire(0, 19, Access::Write, Held::None).is_ok());
        assert!(t.acquire(1, 4, Access::Read, Held::None).is_ok());
        assert_eq!(t.resize_to(64), Err(ResizeError::Busy));
        assert_eq!(t.drain_grants(), 3);
        assert_eq!(t.live_grants(), 0);
        assert!(grants(&t).is_empty());
        assert!(t.resize_to(64).is_ok());
        assert!(t.acquire(2, 3, Access::Write, Held::None).is_ok());
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
                        if t.acquire(id, block, Access::Write, Held::None).is_ok() {
                            t.release(id, block, Held::Write);
                        }
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
