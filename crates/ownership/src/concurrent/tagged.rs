//! Concurrent tagged ownership table: per-bucket locks over Figure 7's
//! inline-or-chain buckets.
//!
//! A record is Figure 7's tag beside its entry fields: the block, and the
//! ownership word a tagless entry keeps (see [`word`](super::word)) — a
//! mode plus the writer or the count of readers of that block. Acquire and
//! release apply the same transitions as the tagless table, but to the
//! record of the requested block alone, so aliasing blocks coexist and a
//! refusal is always a true conflict. A record leaves its chain when its
//! word is free again.
//!
//! Bucket mutation is short (find/insert/remove one record), so a
//! `parking_lot::Mutex` per bucket is both simple and fast; uncontended
//! acquire/release is a single atomic lock word plus the record probe the
//! paper's §5 argues is branch-predictable in the no-alias common case.

use parking_lot::Mutex;

use crate::entry::{Access, AcquireOutcome, Conflict, ConflictClass, ThreadId};
use crate::fingerprint::fingerprint_of;
use crate::hashing::{BlockAddr, TableConfig};
use crate::stats::{AccessTally, Counters, TableStats};

use super::word::{granted, refusal, released, snapshot, units, FREE};
use super::{ConcurrentTable, GrantKey, GrantSnapshot, Held};

/// One block's record: its tag and its ownership word (never free while
/// the record is in its chain).
#[derive(Clone, Debug)]
struct Rec {
    block: BlockAddr,
    word: u64,
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

    /// Count and report the conflict `word` raised against a request for
    /// `access`. The record matched the block, so the conflict is genuine.
    fn refused(&self, access: Access, word: u64) -> AcquireOutcome {
        let (kind, with) = refusal(access, word);
        let class = ConflictClass::KnownTrue;
        self.counters.on_conflict(kind, class);
        AcquireOutcome::Conflict(Conflict { kind, with, class })
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
            _ => {
                let mut bucket = self.buckets[self.cfg.entry_of(block)].lock();
                let found = bucket.iter().position(|r| r.block == block);
                let cur = found.map_or(FREE, |i| bucket[i].word);
                let Some(next) = granted(cur, txn, access, held, fingerprint_of(block)) else {
                    drop(bucket);
                    return self.refused(access, cur);
                };
                match found {
                    Some(i) => bucket[i].word = next,
                    None => {
                        if !bucket.is_empty() {
                            self.counters.on_chain_insert();
                        }
                        bucket.push(Rec { block, word: next });
                    }
                }
                AcquireOutcome::Granted
            }
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
        let rec = &mut bucket[pos];
        debug_assert!(
            snapshot(block, rec.word)
                .and_then(|g| g.owner)
                .is_none_or(|o| o == txn),
            "write release by non-owner"
        );
        rec.word = released(rec.word, held);
        if rec.word == FREE {
            bucket.swap_remove(pos);
        }
    }

    #[inline]
    fn fold(&self, me: ThreadId, tally: &AccessTally) {
        self.counters.fold(me, tally);
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
                if let Some(g) = snapshot(rec.block, rec.word) {
                    f(g);
                }
            }
        }
    }

    fn drain_grants(&self) -> u64 {
        self.buckets
            .iter()
            .map(|bucket| {
                bucket
                    .lock()
                    .drain(..)
                    .map(|rec| units(rec.word))
                    .sum::<u64>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{ConflictKind, Mode};
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
