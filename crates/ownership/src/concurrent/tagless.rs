//! Lock-free concurrent tagless ownership table.
//!
//! Each entry is a single `AtomicU64` packing the Figure 1 fields:
//!
//! ```text
//! bits 0..2   mode      (0 = Free, 1 = Read, 2 = Write)
//! bits 2..34  payload   (owner ThreadId for Write, sharer count for Read)
//! ```
//!
//! Acquire and release are CAS loops over that word — the "low metadata
//! overhead" that makes the tagless design attractive and that the paper
//! shows comes at the cost of false conflicts.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::entry::{Access, AcquireOutcome, Conflict, ConflictClass, ConflictKind, Mode, ThreadId};
use crate::hashing::{BlockAddr, EntryIndex, TableConfig};
use crate::stats::{AccessTally, Counters, TableStats};

use super::{ConcurrentTable, GrantKey, GrantSnapshot, Held};

const MODE_MASK: u64 = 0b11;
const MODE_FREE: u64 = 0;
const MODE_READ: u64 = 1;
const MODE_WRITE: u64 = 2;
const PAYLOAD_SHIFT: u32 = 2;

#[inline]
fn pack(mode: u64, payload: u32) -> u64 {
    mode | ((payload as u64) << PAYLOAD_SHIFT)
}

#[inline]
fn mode_of(word: u64) -> u64 {
    word & MODE_MASK
}

#[inline]
fn payload_of(word: u64) -> u32 {
    (word >> PAYLOAD_SHIFT) as u32
}

/// Reserved hint value: no block published.
const NO_HINT: u32 = 0;
/// Reserved hint value: the block address did not fit the hint encoding.
const HINT_SATURATED: u32 = u32::MAX;

#[inline]
fn encode_hint(block: BlockAddr) -> u32 {
    if block >= (HINT_SATURATED - 1) as u64 {
        HINT_SATURATED
    } else {
        block as u32 + 1
    }
}

/// Advisory per-thread block hints for classifying conflicts at the abort
/// site (true = same block, false = table aliasing between distinct blocks).
///
/// Each active thread owns one lazily-allocated row of `num_entries` hint
/// slots; a grant *publishes* the block it covers into the granter's slot
/// **before** the grant CAS (the CAS's release ordering makes the hint
/// visible to any requester that observes the grant), and *withdraws* it
/// before the entry-word release. A conflicting requester scans the other
/// threads' slots at its entry: a matching block proves a true conflict, any
/// saturated hint leaves the verdict unknown, and differing (or vanished)
/// hints classify as false — exact on data-disjoint workloads, advisory
/// elsewhere (the holder's hint names only the *first* block it was granted
/// at that entry; the tagged table is ground truth for true conflicts).
#[derive(Debug)]
struct Classifier {
    rows: Vec<OnceLock<Vec<AtomicU32>>>,
    /// One past the highest thread id that ever published (bounds scans).
    watermark: AtomicU32,
    num_entries: usize,
}

impl Classifier {
    fn new(num_entries: usize, max_threads: usize) -> Self {
        let mut rows = Vec::with_capacity(max_threads);
        rows.resize_with(max_threads, OnceLock::new);
        Classifier {
            rows,
            watermark: AtomicU32::new(0),
            num_entries,
        }
    }

    fn row(&self, txn: ThreadId) -> Option<&[AtomicU32]> {
        let slot = self.rows.get(txn as usize)?;
        Some(slot.get_or_init(|| {
            self.watermark.fetch_max(txn + 1, Ordering::AcqRel);
            let mut v = Vec::with_capacity(self.num_entries);
            v.resize_with(self.num_entries, || AtomicU32::new(NO_HINT));
            v
        }))
    }

    #[inline]
    fn publish(&self, txn: ThreadId, e: EntryIndex, block: BlockAddr) {
        if let Some(row) = self.row(txn) {
            row[e].store(encode_hint(block), Ordering::Release);
        }
    }

    #[inline]
    fn withdraw(&self, txn: ThreadId, e: EntryIndex) {
        if let Some(row) = self.rows.get(txn as usize).and_then(OnceLock::get) {
            row[e].store(NO_HINT, Ordering::Release);
        }
    }

    fn classify(&self, txn: ThreadId, e: EntryIndex, block: BlockAddr) -> ConflictClass {
        let mine = encode_hint(block);
        if mine == HINT_SATURATED {
            return ConflictClass::Unknown;
        }
        let n = (self.watermark.load(Ordering::Acquire) as usize).min(self.rows.len());
        let mut verdict = ConflictClass::KnownFalse;
        for (t, slot) in self.rows[..n].iter().enumerate() {
            if t == txn as usize {
                continue;
            }
            let Some(row) = slot.get() else { continue };
            match row[e].load(Ordering::Acquire) {
                NO_HINT => {}
                h if h == mine => return ConflictClass::KnownTrue,
                HINT_SATURATED => verdict = ConflictClass::Unknown,
                _ => {}
            }
        }
        verdict
    }

    fn clear(&self) {
        for slot in &self.rows {
            if let Some(row) = slot.get() {
                for hint in row {
                    hint.store(NO_HINT, Ordering::Relaxed);
                }
            }
        }
    }
}

/// A thread-safe tagless ownership table (see the
/// module docs and [`super::ConcurrentTable`]).
#[derive(Debug)]
pub struct ConcurrentTaglessTable {
    cfg: TableConfig,
    entries: Vec<AtomicU64>,
    classifier: Option<Classifier>,
    counters: Counters,
}

impl ConcurrentTaglessTable {
    /// Build a table from `cfg`. When
    /// [`TableConfig::with_conflict_classification`] is on, the table keeps
    /// per-thread block hints (one lazily-allocated row of `num_entries`
    /// `u32`s per active thread up to [`TableConfig::max_threads`]) and
    /// classifies every reported conflict as true or false.
    pub fn new(cfg: TableConfig) -> Self {
        let n = cfg.num_entries();
        let mut entries = Vec::with_capacity(n);
        entries.resize_with(n, || AtomicU64::new(pack(MODE_FREE, 0)));
        let classifier = cfg
            .classify_conflicts()
            .then(|| Classifier::new(n, cfg.max_threads()));
        Self {
            cfg,
            entries,
            classifier,
            counters: Counters::default(),
        }
    }

    /// Convenience constructor: `N` entries, paper-default geometry.
    pub fn with_entries(n: usize) -> Self {
        Self::new(TableConfig::new(n))
    }

    /// Decoded mode of entry `e` (diagnostic; racy by nature).
    pub fn mode_of(&self, e: EntryIndex) -> Mode {
        match mode_of(self.entries[e].load(Ordering::Acquire)) {
            MODE_READ => Mode::Read,
            MODE_WRITE => Mode::Write,
            _ => Mode::Free,
        }
    }

    /// Decoded sharer count (diagnostic; racy by nature).
    pub fn sharers_of(&self, e: EntryIndex) -> u32 {
        let w = self.entries[e].load(Ordering::Acquire);
        if mode_of(w) == MODE_READ {
            payload_of(w)
        } else {
            0
        }
    }

    /// Decoded write owner (diagnostic; racy by nature).
    pub fn owner_of(&self, e: EntryIndex) -> Option<ThreadId> {
        let w = self.entries[e].load(Ordering::Acquire);
        (mode_of(w) == MODE_WRITE).then(|| payload_of(w))
    }

    /// Record a conflict, classifying it against the other threads' hints.
    fn conflicted(
        &self,
        txn: ThreadId,
        e: EntryIndex,
        block: BlockAddr,
        kind: ConflictKind,
        with: Option<ThreadId>,
    ) -> AcquireOutcome {
        let class = match &self.classifier {
            Some(c) => c.classify(txn, e, block),
            None => ConflictClass::Unknown,
        };
        self.counters.on_conflict(kind, class);
        AcquireOutcome::Conflict(Conflict { kind, with, class })
    }

    fn try_read(&self, txn: ThreadId, e: EntryIndex, block: BlockAddr) -> AcquireOutcome {
        // Publish before the grant CAS: its release ordering makes the hint
        // visible to any requester that observes the granted word.
        if let Some(c) = &self.classifier {
            c.publish(txn, e, block);
        }
        let cell = &self.entries[e];
        let mut cur = cell.load(Ordering::Acquire);
        loop {
            let next = match mode_of(cur) {
                MODE_FREE => pack(MODE_READ, 1),
                MODE_READ => pack(MODE_READ, payload_of(cur) + 1),
                _ => {
                    if let Some(c) = &self.classifier {
                        c.withdraw(txn, e);
                    }
                    return self.conflicted(
                        txn,
                        e,
                        block,
                        ConflictKind::ReadAfterWrite,
                        Some(payload_of(cur)),
                    );
                }
            };
            match cell.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return AcquireOutcome::Granted,
                Err(now) => cur = now,
            }
        }
    }

    fn try_write(&self, txn: ThreadId, e: EntryIndex, block: BlockAddr) -> AcquireOutcome {
        if let Some(c) = &self.classifier {
            c.publish(txn, e, block);
        }
        let cell = &self.entries[e];
        let mut cur = cell.load(Ordering::Acquire);
        loop {
            match mode_of(cur) {
                MODE_FREE => {
                    match cell.compare_exchange_weak(
                        cur,
                        pack(MODE_WRITE, txn),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => return AcquireOutcome::Granted,
                        Err(now) => cur = now,
                    }
                }
                MODE_READ => {
                    if let Some(c) = &self.classifier {
                        c.withdraw(txn, e);
                    }
                    return self.conflicted(txn, e, block, ConflictKind::WriteAfterRead, None);
                }
                _ => {
                    if let Some(c) = &self.classifier {
                        c.withdraw(txn, e);
                    }
                    return self.conflicted(
                        txn,
                        e,
                        block,
                        ConflictKind::WriteAfterWrite,
                        Some(payload_of(cur)),
                    );
                }
            }
        }
    }

    /// Caller must hold a read unit on `e`. Succeeds only if it is the sole
    /// reader (Read with sharers == 1 ⇒ that reader is the caller).
    fn try_upgrade(&self, txn: ThreadId, e: EntryIndex, block: BlockAddr) -> AcquireOutcome {
        // Re-publish with the block being written; the caller keeps its read
        // unit either way, so the hint is not withdrawn on failure.
        if let Some(c) = &self.classifier {
            c.publish(txn, e, block);
        }
        let cell = &self.entries[e];
        match cell.compare_exchange(
            pack(MODE_READ, 1),
            pack(MODE_WRITE, txn),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => AcquireOutcome::Granted,
            Err(now) => {
                debug_assert_eq!(
                    mode_of(now),
                    MODE_READ,
                    "caller holds a read unit, so the entry must be in Read mode"
                );
                self.conflicted(txn, e, block, ConflictKind::WriteAfterRead, None)
            }
        }
    }

    fn release_read(&self, txn: ThreadId, e: EntryIndex) {
        // Withdraw before the entry-word release so no requester can observe
        // the grant gone but the hint still standing.
        if let Some(c) = &self.classifier {
            c.withdraw(txn, e);
        }
        let cell = &self.entries[e];
        let mut cur = cell.load(Ordering::Acquire);
        loop {
            debug_assert_eq!(mode_of(cur), MODE_READ, "release_read on non-Read entry");
            let sharers = payload_of(cur);
            let next = if sharers <= 1 {
                pack(MODE_FREE, 0)
            } else {
                pack(MODE_READ, sharers - 1)
            };
            match cell.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    fn release_write(&self, txn: ThreadId, e: EntryIndex) {
        debug_assert_eq!(self.owner_of(e), Some(txn), "release_write by non-owner");
        if let Some(c) = &self.classifier {
            c.withdraw(txn, e);
        }
        self.entries[e].store(pack(MODE_FREE, 0), Ordering::Release);
    }
}

impl ConcurrentTable for ConcurrentTaglessTable {
    fn num_entries(&self) -> usize {
        self.cfg.num_entries()
    }

    fn grant_key(&self, block: BlockAddr) -> GrantKey {
        self.cfg.entry_of(block) as GrantKey
    }

    fn acquire_uncounted(
        &self,
        txn: ThreadId,
        block: BlockAddr,
        access: Access,
        held: Held,
    ) -> AcquireOutcome {
        let e = self.cfg.entry_of(block);
        match (access, held) {
            (Access::Read, Held::Read | Held::Write) | (Access::Write, Held::Write) => {
                AcquireOutcome::AlreadyHeld
            }
            (Access::Read, Held::None) => self.try_read(txn, e, block),
            (Access::Write, Held::None) => self.try_write(txn, e, block),
            (Access::Write, Held::Read) => self.try_upgrade(txn, e, block),
        }
    }

    fn release_uncounted(&self, txn: ThreadId, key: GrantKey, held: Held) {
        let e = key as EntryIndex;
        match held {
            Held::None => {}
            Held::Read => self.release_read(txn, e),
            Held::Write => self.release_write(txn, e),
        }
    }

    #[inline]
    fn fold(&self, tally: &AccessTally) {
        self.counters.fold(tally);
    }

    fn stats_snapshot(&self) -> TableStats {
        self.counters.snapshot()
    }

    fn config(&self) -> &TableConfig {
        &self.cfg
    }

    fn for_each_grant(&self, f: &mut dyn FnMut(GrantSnapshot)) {
        for (e, cell) in self.entries.iter().enumerate() {
            let word = cell.load(Ordering::Acquire);
            match mode_of(word) {
                MODE_READ => f(GrantSnapshot {
                    key: e as GrantKey,
                    mode: Mode::Read,
                    owner: None,
                    sharers: payload_of(word),
                }),
                MODE_WRITE => f(GrantSnapshot {
                    key: e as GrantKey,
                    mode: Mode::Write,
                    owner: Some(payload_of(word)),
                    sharers: 0,
                }),
                _ => {}
            }
        }
    }

    fn drain_grants(&self) -> u64 {
        if let Some(c) = &self.classifier {
            c.clear();
        }
        let mut dropped = 0u64;
        for cell in &self.entries {
            let word = cell.swap(pack(MODE_FREE, 0), Ordering::AcqRel);
            dropped += match mode_of(word) {
                MODE_READ => payload_of(word) as u64,
                MODE_WRITE => 1,
                _ => 0,
            };
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::HashKind;

    fn table(n: usize) -> ConcurrentTaglessTable {
        ConcurrentTaglessTable::new(TableConfig::new(n).with_hash(HashKind::Mask))
    }

    #[test]
    fn read_sharing_and_counts() {
        let t = table(16);
        assert!(t.acquire(0, 3, Access::Read, Held::None).is_ok());
        assert!(t.acquire(1, 3, Access::Read, Held::None).is_ok());
        assert_eq!(t.sharers_of(3), 2);
        t.release(0, 3, Held::Read);
        assert_eq!(t.sharers_of(3), 1);
        t.release(1, 3, Held::Read);
        assert_eq!(t.mode_of(3), Mode::Free);
    }

    #[test]
    fn write_exclusivity_and_false_conflict_on_alias() {
        let t = table(16);
        assert!(t.acquire(0, 3, Access::Write, Held::None).is_ok());
        // Block 19 aliases with block 3 in a 16-entry mask table: the
        // concurrent tagless table conflicts even though the blocks differ.
        let c = t
            .acquire(1, 19, Access::Write, Held::None)
            .conflict()
            .unwrap();
        assert_eq!(c.kind, ConflictKind::WriteAfterWrite);
        assert_eq!(c.with, Some(0));
    }

    #[test]
    fn already_held_paths() {
        let t = table(16);
        assert!(t.acquire(0, 3, Access::Write, Held::None).is_ok());
        assert_eq!(
            t.acquire(0, 3, Access::Read, Held::Write),
            AcquireOutcome::AlreadyHeld
        );
        assert_eq!(
            t.acquire(0, 3, Access::Write, Held::Write),
            AcquireOutcome::AlreadyHeld
        );
    }

    #[test]
    fn upgrade_sole_reader() {
        let t = table(16);
        assert!(t.acquire(0, 3, Access::Read, Held::None).is_ok());
        assert!(t.acquire(0, 3, Access::Write, Held::Read).is_ok());
        assert_eq!(t.owner_of(3), Some(0));
        let s = t.stats_snapshot();
        assert_eq!(s.upgrades, 1);
    }

    #[test]
    fn upgrade_fails_with_other_readers() {
        let t = table(16);
        assert!(t.acquire(0, 3, Access::Read, Held::None).is_ok());
        assert!(t.acquire(1, 3, Access::Read, Held::None).is_ok());
        let c = t
            .acquire(0, 3, Access::Write, Held::Read)
            .conflict()
            .unwrap();
        assert_eq!(c.kind, ConflictKind::WriteAfterRead);
    }

    #[test]
    fn stats_snapshot_counts() {
        let t = table(16);
        t.acquire(0, 1, Access::Read, Held::None);
        t.acquire(0, 2, Access::Write, Held::None);
        t.acquire(1, 2, Access::Write, Held::None); // WW conflict (same block)
        t.acquire(1, 18, Access::Write, Held::None); // WW conflict (alias of 2)
        let s = t.stats_snapshot();
        assert_eq!(s.read_acquires, 1);
        assert_eq!(s.write_acquires, 3);
        assert_eq!(s.grants, 2);
        assert_eq!(s.write_after_write, 2);
        assert_eq!(s.unclassified_conflicts, 2);
    }

    fn classifying_table(n: usize) -> ConcurrentTaglessTable {
        ConcurrentTaglessTable::new(
            TableConfig::new(n)
                .with_hash(HashKind::Mask)
                .with_conflict_classification(true),
        )
    }

    #[test]
    fn classifier_attributes_true_and_false_conflicts() {
        let t = classifying_table(16);
        assert!(t.acquire(0, 2, Access::Write, Held::None).is_ok());
        // Same block: a true conflict.
        let c = t
            .acquire(1, 2, Access::Write, Held::None)
            .conflict()
            .unwrap();
        assert!(c.class.is_known_true(), "{c}");
        // Block 18 aliases entry 2: a false conflict.
        let c = t
            .acquire(1, 18, Access::Write, Held::None)
            .conflict()
            .unwrap();
        assert!(c.class.is_known_false(), "{c}");
        // Read-side: reader of 18 collides with writer of 2 at entry 2.
        let c = t
            .acquire(1, 18, Access::Read, Held::None)
            .conflict()
            .unwrap();
        assert_eq!(c.kind, ConflictKind::ReadAfterWrite);
        assert!(c.class.is_known_false(), "{c}");
        let s = t.stats_snapshot();
        assert_eq!(s.true_conflicts, 1);
        assert_eq!(s.false_conflicts, 2);
        assert_eq!(s.unclassified_conflicts, 0);
    }

    #[test]
    fn classifier_hints_withdrawn_on_release() {
        let t = classifying_table(16);
        assert!(t.acquire(0, 2, Access::Write, Held::None).is_ok());
        t.release(0, t.grant_key(2), Held::Write);
        // Thread 0's hint is gone; a fresh writer of the aliasing block sees
        // a free entry and is granted.
        assert!(t.acquire(1, 18, Access::Write, Held::None).is_ok());
        // Thread 0 writing block 2 again now conflicts *falsely* with 18.
        let c = t
            .acquire(0, 2, Access::Write, Held::None)
            .conflict()
            .unwrap();
        assert!(c.class.is_known_false(), "{c}");
    }

    #[test]
    fn classifier_read_sharing_true_conflict_on_upgrade_contention() {
        let t = classifying_table(16);
        assert!(t.acquire(0, 3, Access::Read, Held::None).is_ok());
        assert!(t.acquire(1, 3, Access::Read, Held::None).is_ok());
        // Thread 0's upgrade fails against another reader of the same block.
        let c = t
            .acquire(0, 3, Access::Write, Held::Read)
            .conflict()
            .unwrap();
        assert_eq!(c.kind, ConflictKind::WriteAfterRead);
        assert!(c.class.is_known_true(), "{c}");
    }

    #[test]
    fn classification_disabled_reports_unknown() {
        let t = table(16);
        assert!(t.acquire(0, 2, Access::Write, Held::None).is_ok());
        let c = t
            .acquire(1, 2, Access::Write, Held::None)
            .conflict()
            .unwrap();
        assert_eq!(c.class, ConflictClass::Unknown);
        let s = t.stats_snapshot();
        assert_eq!(s.unclassified_conflicts, 1);
        assert_eq!(s.false_conflicts + s.true_conflicts, 0);
    }

    #[test]
    fn classifier_disjoint_stress_all_false() {
        // 4 threads, fully disjoint block sets, tiny table: every conflict
        // must classify as false.
        let t = std::sync::Arc::new(classifying_table(8));
        let false_seen = std::sync::atomic::AtomicU64::new(0);
        crossbeam::scope(|s| {
            for id in 0..4u32 {
                let (t, false_seen) = (&t, &false_seen);
                s.spawn(move |_| {
                    for round in 0..2_000u64 {
                        // Disjoint per-thread block ranges, all multiples of 8
                        // so every block aliases to entry 0 of the 8-entry
                        // table: maximal cross-thread aliasing, zero sharing.
                        let block = id as u64 * 1000 + 8 * (round % 16);
                        let key = t.grant_key(block);
                        match t.acquire(id, block, Access::Write, Held::None) {
                            AcquireOutcome::Conflict(c) => {
                                assert!(c.class.is_known_false(), "disjoint workload produced {c}");
                                false_seen.fetch_add(1, Ordering::Relaxed);
                            }
                            AcquireOutcome::Granted => t.release(id, key, Held::Write),
                            AcquireOutcome::AlreadyHeld => {}
                        }
                    }
                });
            }
        })
        .unwrap();
        let s = t.stats_snapshot();
        assert_eq!(s.false_conflicts, false_seen.load(Ordering::Relaxed));
        assert_eq!(s.true_conflicts, 0);
        assert_eq!(s.unclassified_conflicts, 0);
    }

    #[test]
    fn grant_snapshots_and_drain() {
        let t = table(16);
        assert!(t.acquire(0, 1, Access::Read, Held::None).is_ok());
        assert!(t.acquire(1, 1, Access::Read, Held::None).is_ok());
        assert!(t.acquire(2, 5, Access::Write, Held::None).is_ok());
        let mut grants = Vec::new();
        t.for_each_grant(&mut |g| grants.push(g));
        grants.sort_by_key(|g| g.key);
        assert_eq!(
            grants,
            vec![
                GrantSnapshot {
                    key: 1,
                    mode: Mode::Read,
                    owner: None,
                    sharers: 2
                },
                GrantSnapshot {
                    key: 5,
                    mode: Mode::Write,
                    owner: Some(2),
                    sharers: 0
                },
            ]
        );
        // Two read units + one write unit.
        assert_eq!(t.drain_grants(), 3);
        assert_eq!(t.mode_of(1), Mode::Free);
        assert_eq!(t.mode_of(5), Mode::Free);
        let mut any = false;
        t.for_each_grant(&mut |_| any = true);
        assert!(!any);
    }

    #[test]
    fn concurrent_readers_stress() {
        let t = std::sync::Arc::new(table(1024));
        let threads = 8;
        crossbeam::scope(|s| {
            for id in 0..threads {
                let t = &t;
                s.spawn(move |_| {
                    for round in 0..200u64 {
                        let block = round % 64;
                        if t.acquire(id, block, Access::Read, Held::None).is_ok() {
                            t.release(id, t.grant_key(block), Held::Read);
                        }
                    }
                });
            }
        })
        .unwrap();
        // All grants returned: every entry must be Free again.
        for e in 0..1024 {
            assert_eq!(t.mode_of(e), Mode::Free, "entry {e} leaked");
        }
        let s = t.stats_snapshot();
        assert_eq!(s.grants, s.releases);
    }

    #[test]
    fn concurrent_writers_mutual_exclusion() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let t = std::sync::Arc::new(table(64));
        let in_cs: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        crossbeam::scope(|s| {
            for id in 0..4u32 {
                let (t, in_cs) = (&t, &in_cs);
                s.spawn(move |_| {
                    for round in 0..500u64 {
                        let block = round % 64;
                        let key = t.grant_key(block);
                        if t.acquire(id, block, Access::Write, Held::None).is_ok() {
                            let prev = in_cs[key as usize].fetch_add(1, Ordering::SeqCst);
                            assert_eq!(prev, 0, "two writers inside entry {key}");
                            in_cs[key as usize].fetch_sub(1, Ordering::SeqCst);
                            t.release(id, key, Held::Write);
                        }
                    }
                });
            }
        })
        .unwrap();
    }
}
