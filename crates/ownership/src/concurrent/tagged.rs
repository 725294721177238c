//! Concurrent tagged ownership table: per-bucket locks over Figure 7's
//! inline-or-chain buckets.
//!
//! Bucket mutation is short (find/insert/remove one record), so a
//! `parking_lot::Mutex` per bucket is both simple and fast; uncontended
//! acquire/release is a single atomic lock word plus the record probe the
//! paper's §5 argues is branch-predictable in the no-alias common case.

use parking_lot::Mutex;

use crate::entry::{Access, AcquireOutcome, Conflict, ConflictClass, ConflictKind, Mode, ThreadId};
use crate::hashing::{BlockAddr, TableConfig};
use crate::stats::{AccessTally, Counters, TableStats};

use super::{ConcurrentTable, GrantKey, GrantSnapshot, Held};

/// Sharers kept inline before spilling to a heap list. Covers the paper's
/// experimental range (≤ 8 hardware threads): with at most
/// `READERS_INLINE` concurrent readers per block, acquiring a fresh read
/// record allocates nothing.
const READERS_INLINE: usize = 8;

/// The reader list of one record: inline array first, heap spill only past
/// [`READERS_INLINE`] simultaneous sharers of one block.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ReaderSet {
    inline: [ThreadId; READERS_INLINE],
    inline_len: u8,
    spill: Vec<ThreadId>,
}

impl ReaderSet {
    fn one(txn: ThreadId) -> Self {
        let mut inline = [0; READERS_INLINE];
        inline[0] = txn;
        Self {
            inline,
            inline_len: 1,
            spill: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.inline_len as usize + self.spill.len()
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn contains(&self, txn: ThreadId) -> bool {
        self.inline[..self.inline_len as usize].contains(&txn) || self.spill.contains(&txn)
    }

    fn push(&mut self, txn: ThreadId) {
        if (self.inline_len as usize) < READERS_INLINE {
            self.inline[self.inline_len as usize] = txn;
            self.inline_len += 1;
        } else {
            self.spill.push(txn);
        }
    }

    /// `true` when `txn` is the only sharer (the read→write upgrade test).
    fn sole(&self, txn: ThreadId) -> bool {
        self.inline_len == 1 && self.spill.is_empty() && self.inline[0] == txn
    }

    /// Drop one occurrence of `txn`, backfilling the inline array from the
    /// spill so inline stays the dense prefix.
    fn remove(&mut self, txn: ThreadId) {
        let n = self.inline_len as usize;
        if let Some(i) = self.inline[..n].iter().position(|&t| t == txn) {
            if let Some(last) = self.spill.pop() {
                self.inline[i] = last;
            } else {
                self.inline[i] = self.inline[n - 1];
                self.inline_len -= 1;
            }
        } else if let Some(i) = self.spill.iter().position(|&t| t == txn) {
            self.spill.swap_remove(i);
        }
    }
}

/// Who holds a record and how.
#[derive(Clone, Debug, PartialEq, Eq)]
enum RecState {
    Readers(ReaderSet),
    Writer(ThreadId),
}

#[derive(Clone, Debug)]
struct Rec {
    block: BlockAddr,
    state: RecState,
}

/// A thread-safe tagged/chained ownership table (see the
/// module docs and [`super::ConcurrentTable`]).
#[derive(Debug)]
pub struct ConcurrentTaggedTable {
    cfg: TableConfig,
    /// Figure 7's inline-or-chain buckets, each guarded by a lock. One
    /// `Vec<Rec>` serves both shapes: the empty and one-record cases never
    /// re-allocate once warmed up.
    buckets: Vec<Mutex<Vec<Rec>>>,
    counters: Counters,
}

impl ConcurrentTaggedTable {
    /// Build a table from `cfg`.
    pub fn new(cfg: TableConfig) -> Self {
        let n = cfg.num_entries();
        let mut buckets = Vec::with_capacity(n);
        buckets.resize_with(n, || Mutex::new(Vec::new()));
        Self {
            cfg,
            buckets,
            counters: Counters::default(),
        }
    }

    /// Convenience constructor: `N` entries, paper-default geometry.
    pub fn with_entries(n: usize) -> Self {
        Self::new(TableConfig::new(n))
    }

    /// Number of records currently stored for `block`'s bucket (diagnostic).
    pub fn chain_len_of(&self, block: BlockAddr) -> usize {
        self.buckets[self.cfg.entry_of(block)].lock().len()
    }

    /// Whether any record exists for `block` (diagnostic).
    pub fn has_record(&self, block: BlockAddr) -> bool {
        self.buckets[self.cfg.entry_of(block)]
            .lock()
            .iter()
            .any(|r| r.block == block)
    }

    fn conflict(&self, kind: ConflictKind, with: Option<ThreadId>) -> AcquireOutcome {
        // A tagged record matched the block, so the conflict is genuine.
        let class = ConflictClass::KnownTrue;
        self.counters.on_conflict(kind, class);
        AcquireOutcome::Conflict(Conflict { kind, with, class })
    }

    fn acquire_read(&self, txn: ThreadId, block: BlockAddr) -> AcquireOutcome {
        let mut bucket = self.buckets[self.cfg.entry_of(block)].lock();
        match bucket.iter_mut().find(|r| r.block == block) {
            None => {
                if !bucket.is_empty() {
                    self.counters.on_chain_insert();
                }
                bucket.push(Rec {
                    block,
                    state: RecState::Readers(ReaderSet::one(txn)),
                });
                AcquireOutcome::Granted
            }
            Some(rec) => match &mut rec.state {
                RecState::Writer(o) if *o == txn => AcquireOutcome::AlreadyHeld,
                RecState::Writer(o) => {
                    let o = *o;
                    drop(bucket);
                    self.conflict(ConflictKind::ReadAfterWrite, Some(o))
                }
                RecState::Readers(v) => {
                    if v.contains(txn) {
                        AcquireOutcome::AlreadyHeld
                    } else {
                        v.push(txn);
                        AcquireOutcome::Granted
                    }
                }
            },
        }
    }

    fn acquire_write(&self, txn: ThreadId, block: BlockAddr) -> AcquireOutcome {
        let mut bucket = self.buckets[self.cfg.entry_of(block)].lock();
        match bucket.iter_mut().find(|r| r.block == block) {
            None => {
                if !bucket.is_empty() {
                    self.counters.on_chain_insert();
                }
                bucket.push(Rec {
                    block,
                    state: RecState::Writer(txn),
                });
                AcquireOutcome::Granted
            }
            Some(rec) => match &mut rec.state {
                RecState::Writer(o) if *o == txn => AcquireOutcome::AlreadyHeld,
                RecState::Writer(o) => {
                    let o = *o;
                    drop(bucket);
                    self.conflict(ConflictKind::WriteAfterWrite, Some(o))
                }
                RecState::Readers(v) => {
                    if v.sole(txn) {
                        rec.state = RecState::Writer(txn);
                        AcquireOutcome::Granted
                    } else {
                        drop(bucket);
                        self.conflict(ConflictKind::WriteAfterRead, None)
                    }
                }
            },
        }
    }
}

impl ConcurrentTable for ConcurrentTaggedTable {
    fn num_entries(&self) -> usize {
        self.cfg.num_entries()
    }

    fn grant_key(&self, block: BlockAddr) -> GrantKey {
        block
    }

    fn acquire_uncounted(
        &self,
        txn: ThreadId,
        block: BlockAddr,
        access: Access,
        held: Held,
    ) -> AcquireOutcome {
        match (access, held) {
            (Access::Read, Held::Read | Held::Write) | (Access::Write, Held::Write) => {
                AcquireOutcome::AlreadyHeld
            }
            (Access::Read, Held::None) => self.acquire_read(txn, block),
            // The bucket holds reader identities, so upgrade shares the
            // write path (it finds the caller as sole reader).
            (Access::Write, Held::None | Held::Read) => self.acquire_write(txn, block),
        }
    }

    fn release_uncounted(&self, txn: ThreadId, key: GrantKey, held: Held) {
        if held == Held::None {
            return;
        }
        let block = key;
        let mut bucket = self.buckets[self.cfg.entry_of(block)].lock();
        let Some(pos) = bucket.iter().position(|r| r.block == block) else {
            debug_assert!(false, "release of unheld block {block}");
            return;
        };
        let drop_rec = match &mut bucket[pos].state {
            RecState::Writer(o) => {
                debug_assert_eq!(*o, txn, "write release by non-owner");
                true
            }
            RecState::Readers(v) => {
                v.remove(txn);
                v.is_empty()
            }
        };
        if drop_rec {
            bucket.swap_remove(pos);
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
        for bucket in &self.buckets {
            for rec in bucket.lock().iter() {
                match &rec.state {
                    RecState::Readers(v) => f(GrantSnapshot {
                        key: rec.block,
                        mode: Mode::Read,
                        owner: None,
                        sharers: v.len() as u32,
                    }),
                    RecState::Writer(o) => f(GrantSnapshot {
                        key: rec.block,
                        mode: Mode::Write,
                        owner: Some(*o),
                        sharers: 0,
                    }),
                }
            }
        }
    }

    fn drain_grants(&self) -> u64 {
        let mut dropped = 0u64;
        for bucket in &self.buckets {
            for rec in bucket.lock().drain(..) {
                dropped += match rec.state {
                    RecState::Readers(v) => v.len() as u64,
                    RecState::Writer(_) => 1,
                };
            }
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::HashKind;

    fn table(n: usize) -> ConcurrentTaggedTable {
        ConcurrentTaggedTable::new(TableConfig::new(n).with_hash(HashKind::Mask))
    }

    #[test]
    fn aliasing_blocks_coexist() {
        let t = table(16);
        assert!(t.acquire(0, 3, Access::Write, Held::None).is_ok());
        assert!(t.acquire(1, 19, Access::Write, Held::None).is_ok());
        assert_eq!(t.chain_len_of(3), 2);
        assert_eq!(t.stats_snapshot().total_conflicts(), 0);
        assert_eq!(t.stats_snapshot().chain_inserts, 1);
    }

    #[test]
    fn same_block_conflicts_are_true() {
        let t = table(16);
        assert!(t.acquire(0, 3, Access::Write, Held::None).is_ok());
        let c = t
            .acquire(1, 3, Access::Write, Held::None)
            .conflict()
            .unwrap();
        assert_eq!(c.kind, ConflictKind::WriteAfterWrite);
        assert_eq!(c.with, Some(0));
        let s = t.stats_snapshot();
        assert_eq!(s.true_conflicts, 1);
        assert_eq!(s.false_conflicts, 0);
    }

    #[test]
    fn read_share_upgrade_release() {
        let t = table(16);
        assert!(t.acquire(0, 3, Access::Read, Held::None).is_ok());
        assert!(t.acquire(1, 3, Access::Read, Held::None).is_ok());
        // Upgrade blocked while shared.
        assert!(!t.acquire(0, 3, Access::Write, Held::Read).is_ok());
        t.release(1, 3, Held::Read);
        assert!(t.acquire(0, 3, Access::Write, Held::Read).is_ok());
        assert_eq!(t.stats_snapshot().upgrades, 1);
        t.release(0, 3, Held::Write);
        assert!(!t.has_record(3));
    }

    #[test]
    fn grant_key_is_block() {
        let t = table(16);
        assert_eq!(t.grant_key(12345), 12345);
    }

    #[test]
    fn grant_snapshots_and_drain() {
        let t = table(16);
        assert!(t.acquire(0, 3, Access::Write, Held::None).is_ok());
        assert!(t.acquire(1, 19, Access::Read, Held::None).is_ok());
        assert!(t.acquire(2, 19, Access::Read, Held::None).is_ok());
        let mut grants = Vec::new();
        t.for_each_grant(&mut |g| grants.push(g));
        grants.sort_by_key(|g| g.key);
        assert_eq!(
            grants,
            vec![
                GrantSnapshot {
                    key: 3,
                    mode: Mode::Write,
                    owner: Some(0),
                    sharers: 0
                },
                GrantSnapshot {
                    key: 19,
                    mode: Mode::Read,
                    owner: None,
                    sharers: 2
                },
            ]
        );
        assert_eq!(t.drain_grants(), 3);
        assert!(!t.has_record(3));
        assert!(!t.has_record(19));
    }

    #[test]
    fn concurrent_alias_stress_no_false_conflicts() {
        // Each thread uses its own private block range; all ranges alias in
        // the 16-entry table. A tagless table would conflict constantly; the
        // tagged table must report zero conflicts.
        let t = std::sync::Arc::new(table(16));
        crossbeam::scope(|s| {
            for id in 0..4u32 {
                let t = &t;
                s.spawn(move |_| {
                    for round in 0..300u64 {
                        let block = 1_000_000 * (id as u64 + 1) + (round % 16);
                        let outcome = t.acquire(id, block, Access::Write, Held::None);
                        assert!(
                            outcome.is_ok(),
                            "thread {id} got spurious conflict: {outcome:?}"
                        );
                        if outcome == AcquireOutcome::Granted {
                            t.release(id, t.grant_key(block), Held::Write);
                        }
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(t.stats_snapshot().total_conflicts(), 0);
    }

    #[test]
    fn concurrent_same_block_mutual_exclusion() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let t = std::sync::Arc::new(table(64));
        let in_cs = AtomicU32::new(0);
        crossbeam::scope(|s| {
            for id in 0..4u32 {
                let (t, in_cs) = (&t, &in_cs);
                s.spawn(move |_| {
                    for _ in 0..500 {
                        if t.acquire(id, 7, Access::Write, Held::None).is_ok() {
                            assert_eq!(in_cs.fetch_add(1, Ordering::SeqCst), 0);
                            in_cs.fetch_sub(1, Ordering::SeqCst);
                            t.release(id, 7, Held::Write);
                        }
                    }
                });
            }
        })
        .unwrap();
        assert!(!t.has_record(7));
    }
}
