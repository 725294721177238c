//! A versioned (invisible-reader) tagless ownership table.
//!
//! The paper's §2.1 notes that "even STM implementations that do not visibly
//! track readers would need to assign an ownership table entry for the read
//! location to record version numbers". This module is that organization —
//! the per-stripe versioned-lock array of TL2/McRT-style STMs:
//!
//! * each entry packs a **write-lock bit** and a **version number**;
//! * readers never write the table: they sample the version, read the data,
//!   and *validate* the version at commit;
//! * writers lock entries at commit, publish, and release by storing a
//!   fresh version.
//!
//! The table is still **tagless**: every block hashing to an entry shares
//! its version word, so a commit that bumps an entry's version spuriously
//! invalidates concurrent readers of *different* blocks that merely alias
//! there. The paper's birthday-paradox analysis applies to this organization
//! unchanged — false conflicts just surface as validation aborts instead of
//! acquisition conflicts, which `tm-stm`'s lazy engine demonstrates.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::fingerprint::FP_NONE;
use crate::hashing::{BlockAddr, EntryIndex, TableConfig};

/// Entry encoding: bit 0 = locked, bits 1..34 = version, bits 34..64 = the
/// *fingerprint* of the block the last writer (or current locker) covered.
///
/// The fingerprint lets an aborting reader attribute its abort with
/// [`classify`](crate::fingerprint::classify): if the version moved (or the
/// entry is locked) and the recorded fingerprint names a *different* block
/// than the one being read, the invalidation was pure table aliasing — a
/// false conflict. The version field wraps at 2^33 (~8.6 G writing
/// commits), far beyond any run this repo performs.
const LOCKED: u64 = 1;
const VERSION_BITS: u32 = 33;
const VERSION_MASK: u64 = (1 << VERSION_BITS) - 1;
const FP_SHIFT: u32 = 1 + VERSION_BITS;

#[inline]
fn pack(version: u64, locked: bool, fp: u32) -> u64 {
    ((version & VERSION_MASK) << 1) | locked as u64 | ((fp as u64) << FP_SHIFT)
}

/// A snapshot of one entry's versioned lock word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stamp {
    /// The version at sampling time.
    pub version: u64,
    /// Whether the entry was write-locked.
    pub locked: bool,
    /// Fingerprint of the block the last writer (or, while locked, the
    /// locking writer) covered at this entry; [`FP_NONE`] when unknown.
    pub fp: u32,
}

impl Stamp {
    #[inline]
    fn from_word(word: u64) -> Self {
        Stamp {
            version: (word >> 1) & VERSION_MASK,
            locked: word & LOCKED != 0,
            fp: (word >> FP_SHIFT) as u32,
        }
    }
}

/// Statistics counters for the versioned table: the events a read or a
/// commit meets only under contention, and commit-time locks. Nothing here
/// is counted per read — a lazy read samples its entry twice, and a shared
/// counter bumped there would cost more than the sampling it counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VersionedStats {
    /// Samples that found the entry locked.
    pub sampled_locked: u64,
    /// Successful lock acquisitions.
    pub locks: u64,
    /// Failed lock attempts (entry already locked).
    pub lock_conflicts: u64,
    /// Commit-time validations that failed (version moved or entry locked
    /// by another).
    pub validation_failures: u64,
}

#[derive(Debug, Default)]
struct Counters {
    sampled_locked: AtomicU64,
    locks: AtomicU64,
    lock_conflicts: AtomicU64,
    validation_failures: AtomicU64,
}

/// The versioned-lock ownership table (thread-safe).
#[derive(Debug)]
pub struct VersionedTable {
    cfg: TableConfig,
    entries: Vec<AtomicU64>,
    counters: Counters,
}

impl VersionedTable {
    /// Build a table from `cfg`; all entries start unlocked at version 0.
    pub fn new(cfg: TableConfig) -> Self {
        let n = cfg.num_entries();
        let mut entries = Vec::with_capacity(n);
        entries.resize_with(n, || AtomicU64::new(pack(0, false, FP_NONE)));
        Self {
            cfg,
            entries,
            counters: Counters::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TableConfig {
        &self.cfg
    }

    /// Number of entries (the paper's `N`).
    pub fn num_entries(&self) -> usize {
        self.cfg.num_entries()
    }

    /// Entry index covering `block`.
    #[inline]
    pub fn entry_of(&self, block: BlockAddr) -> EntryIndex {
        self.cfg.entry_of(block)
    }

    /// Sample the versioned lock word of `entry` (reader protocol step 1;
    /// repeated after the data read to detect concurrent writers).
    #[inline]
    pub fn sample(&self, entry: EntryIndex) -> Stamp {
        let s = Stamp::from_word(self.entries[entry].load(Ordering::Acquire));
        if s.locked {
            self.counters.sampled_locked.fetch_add(1, Ordering::Relaxed);
        }
        s
    }

    /// Attempt to write-lock `entry`, expecting it unlocked at `version`,
    /// installing `fp` (the fingerprint of the block being written) in the
    /// locked word so concurrent aborters can classify their conflicts
    /// against this lock.
    ///
    /// On failure returns the stamp that refused the lock — the word of the
    /// locker or bumper that got there first. A caller attributing its abort
    /// must classify against *this* stamp: by the time it could
    /// [`sample`](VersionedTable::sample) again the winner may have aborted
    /// and restored an older writer's fingerprint.
    #[inline]
    pub fn try_lock_fp(&self, entry: EntryIndex, version: u64, fp: u32) -> Result<(), Stamp> {
        // Load-check-CAS rather than a blind CAS: the stored word carries the
        // previous writer's fingerprint, which the caller cannot know.
        let cell = &self.entries[entry];
        let cur = cell.load(Ordering::Acquire);
        let s = Stamp::from_word(cur);
        let outcome = if s.locked || s.version != version {
            Err(s)
        } else {
            cell.compare_exchange(
                cur,
                pack(version, true, fp),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .map(drop)
            .map_err(Stamp::from_word)
        };
        let counter = match outcome {
            Ok(()) => &self.counters.locks,
            Err(_) => &self.counters.lock_conflicts,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        outcome
    }

    /// Release a lock previously obtained with [`VersionedTable::try_lock_fp`],
    /// installing `new_version` (writer commit). The fingerprint installed
    /// at lock time is preserved: the entry now names the block the
    /// committing writer covered.
    #[inline]
    pub fn unlock_bump(&self, entry: EntryIndex, new_version: u64) {
        let s = Stamp::from_word(self.entries[entry].load(Ordering::Relaxed));
        debug_assert!(s.locked, "unlock_bump on unlocked entry");
        self.entries[entry].store(pack(new_version, false, s.fp), Ordering::Release);
    }

    /// Release a lock restoring the pre-lock version *and* fingerprint
    /// (writer abort): readers that later fail against this entry classify
    /// against the original writer's block, not the aborted locker's.
    #[inline]
    pub fn unlock_restore_fp(&self, entry: EntryIndex, old_version: u64, old_fp: u32) {
        debug_assert!(
            Stamp::from_word(self.entries[entry].load(Ordering::Relaxed)).locked,
            "unlock_restore on unlocked entry"
        );
        self.entries[entry].store(pack(old_version, false, old_fp), Ordering::Release);
    }

    /// Commit-time read validation: the entry must be unlocked and still at
    /// `expected_version`. `locked_by_me` lets a transaction pass entries it
    /// locked itself (read-write overlap at the same entry). On failure
    /// returns the stamp that was judged, for abort attribution (see
    /// [`VersionedTable::try_lock_fp`] for why a re-sample will not do).
    #[inline]
    pub fn validate(
        &self,
        entry: EntryIndex,
        expected_version: u64,
        locked_by_me: bool,
    ) -> Result<(), Stamp> {
        let s = Stamp::from_word(self.entries[entry].load(Ordering::Acquire));
        if s.version == expected_version && (!s.locked || locked_by_me) {
            Ok(())
        } else {
            self.counters
                .validation_failures
                .fetch_add(1, Ordering::Relaxed);
            Err(s)
        }
    }

    /// Copy the statistics counters.
    pub fn stats(&self) -> VersionedStats {
        VersionedStats {
            sampled_locked: self.counters.sampled_locked.load(Ordering::Relaxed),
            locks: self.counters.locks.load(Ordering::Relaxed),
            lock_conflicts: self.counters.lock_conflicts.load(Ordering::Relaxed),
            validation_failures: self.counters.validation_failures.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::{classify, fingerprint_of, FP_SATURATED};
    use crate::hashing::HashKind;

    /// Whether a conflict against `s` on `block` is proven false.
    fn proven_false(s: Stamp, block: BlockAddr) -> bool {
        classify(s.fp, fingerprint_of(block)).is_known_false()
    }

    fn table(n: usize) -> VersionedTable {
        VersionedTable::new(TableConfig::new(n).with_hash(HashKind::Mask))
    }

    #[test]
    fn sample_lock_bump_cycle() {
        let t = table(16);
        let e = t.entry_of(3);
        let s = t.sample(e);
        assert_eq!(
            s,
            Stamp {
                version: 0,
                locked: false,
                fp: FP_NONE
            }
        );

        assert!(t.try_lock_fp(e, 0, FP_NONE).is_ok());
        assert!(t.sample(e).locked);
        // Second lock attempt fails.
        assert!(t.try_lock_fp(e, 0, FP_NONE).is_err());

        t.unlock_bump(e, 7);
        let s = t.sample(e);
        assert_eq!(
            s,
            Stamp {
                version: 7,
                locked: false,
                fp: FP_NONE
            }
        );
    }

    #[test]
    fn fingerprint_installed_preserved_and_restored() {
        let t = table(16);
        let e = 4;
        // Lock with block 9's fingerprint; a bump preserves it.
        assert!(t.try_lock_fp(e, 0, fingerprint_of(9)).is_ok());
        assert_eq!(t.sample(e).fp, fingerprint_of(9));
        t.unlock_bump(e, 1);
        let s = t.sample(e);
        assert!(!s.locked);
        assert_eq!(s.fp, fingerprint_of(9));
        assert!(proven_false(s, 10));
        assert!(!proven_false(s, 9));

        // An aborting locker restores the previous writer's fingerprint.
        assert!(t.try_lock_fp(e, 1, fingerprint_of(25)).is_ok());
        assert_eq!(t.sample(e).fp, fingerprint_of(25));
        t.unlock_restore_fp(e, 1, s.fp);
        let s = t.sample(e);
        assert_eq!((s.version, s.locked, s.fp), (1, false, fingerprint_of(9)));

        // Unknown and saturated fingerprints prove nothing.
        for fp in [FP_NONE, FP_SATURATED] {
            let s = Stamp {
                version: 0,
                locked: false,
                fp,
            };
            assert!(!proven_false(s, 3));
        }
    }

    #[test]
    fn failed_lock_hands_back_the_stamp_that_refused_it() {
        // The abort-attribution race, forged on one thread. T1 (writing
        // block B1) committed here earlier, so the entry's resting
        // fingerprint is T1's own block.
        let t = table(16);
        let (b1, b2) = (6, 22);
        let e = t.entry_of(b1);
        assert_eq!(e, t.entry_of(b2), "B2 aliases B1's entry");
        assert!(t.try_lock_fp(e, 0, fingerprint_of(b1)).is_ok());
        t.unlock_bump(e, 1);

        // T1 samples for its next commit; T2 (writing B2) locks first.
        let t1_sample = t.sample(e);
        let t2_sample = t.sample(e);
        assert!(t
            .try_lock_fp(e, t2_sample.version, fingerprint_of(b2))
            .is_ok());
        let refused = t
            .try_lock_fp(e, t1_sample.version, fingerprint_of(b1))
            .expect_err("T2 holds the lock");
        // T2 then aborts, restoring the pre-lock word — which names B1.
        t.unlock_restore_fp(e, t2_sample.version, t2_sample.fp);

        // The stamp T1 was handed names B2: an aliasing block, a false
        // conflict. A fresh sample names T1's own block — a re-sampling
        // caller would report a true conflict on data nobody shares.
        assert!(refused.locked);
        assert_eq!(refused.fp, fingerprint_of(b2));
        assert!(proven_false(refused, b1));
        assert_eq!(t.sample(e).fp, fingerprint_of(b1));
        assert!(!proven_false(t.sample(e), b1));

        // A completed bumper refuses the same way, and is named the same way.
        assert!(t.try_lock_fp(e, 1, fingerprint_of(b2)).is_ok());
        t.unlock_bump(e, 2);
        let refused = t
            .try_lock_fp(e, t1_sample.version, fingerprint_of(b1))
            .expect_err("version moved");
        assert_eq!(
            (refused.version, refused.locked, refused.fp),
            (2, false, fingerprint_of(b2))
        );
    }

    #[test]
    fn lock_fails_on_stale_version() {
        let t = table(16);
        let e = 5;
        assert!(t.try_lock_fp(e, 0, FP_NONE).is_ok());
        t.unlock_bump(e, 1);
        // Expecting the old version: must fail even though unlocked.
        assert!(t.try_lock_fp(e, 0, FP_NONE).is_err());
        assert!(t.try_lock_fp(e, 1, FP_NONE).is_ok());
        t.unlock_restore_fp(e, 1, FP_NONE);
        assert_eq!(t.sample(e).version, 1);
    }

    #[test]
    fn validation_semantics() {
        let t = table(16);
        let e = 2;
        assert!(t.validate(e, 0, false).is_ok());
        assert!(t.validate(e, 9, false).is_err());
        assert!(t.try_lock_fp(e, 0, fingerprint_of(7)).is_ok());
        let judged = t
            .validate(e, 0, false)
            .expect_err("locked by another txn must fail");
        assert_eq!(
            (judged.locked, judged.fp),
            (true, fingerprint_of(7)),
            "the judged stamp names the locker"
        );
        assert!(t.validate(e, 0, true).is_ok(), "own lock passes");
        t.unlock_bump(e, 3);
        let judged = t.validate(e, 0, false).expect_err("version moved");
        assert_eq!((judged.version, judged.fp), (3, fingerprint_of(7)));
        assert!(t.validate(e, 3, false).is_ok());
    }

    #[test]
    fn aliasing_blocks_share_version_word() {
        // The tagless property: blocks 3 and 19 share entry 3 in a 16-entry
        // mask table, so bumping one invalidates readers of the other.
        let t = table(16);
        let (e_a, e_b) = (t.entry_of(3), t.entry_of(19));
        assert_eq!(e_a, e_b);
        let read_stamp = t.sample(e_a);
        assert!(t.try_lock_fp(e_b, 0, FP_NONE).is_ok());
        t.unlock_bump(e_b, 1);
        assert!(
            t.validate(e_a, read_stamp.version, false).is_err(),
            "reader of block 3 must be (falsely) invalidated by writer of block 19"
        );
    }

    #[test]
    fn stats_accumulate() {
        let t = table(16);
        t.sample(0);
        let _ = t.try_lock_fp(0, 0, FP_NONE);
        t.sample(0); // locked sample
        let _ = t.try_lock_fp(0, 0, FP_NONE); // conflict
        let _ = t.validate(0, 0, true);
        let _ = t.validate(0, 5, false); // failure
        let s = t.stats();
        assert_eq!(s.sampled_locked, 1);
        assert_eq!(s.locks, 1);
        assert_eq!(s.lock_conflicts, 1);
        assert_eq!(s.validation_failures, 1);
    }

    #[test]
    fn concurrent_lock_exclusivity() {
        use std::sync::atomic::AtomicU32;
        let t = std::sync::Arc::new(table(8));
        let in_cs = AtomicU32::new(0);
        crossbeam::scope(|s| {
            for _ in 0..4 {
                let (t, in_cs) = (&t, &in_cs);
                s.spawn(move |_| {
                    for _ in 0..2_000 {
                        let st = t.sample(0);
                        if !st.locked && t.try_lock_fp(0, st.version, FP_NONE).is_ok() {
                            assert_eq!(in_cs.fetch_add(1, Ordering::SeqCst), 0);
                            in_cs.fetch_sub(1, Ordering::SeqCst);
                            t.unlock_bump(0, st.version + 1);
                        }
                    }
                });
            }
        })
        .unwrap();
        let s = t.stats();
        assert!(s.locks > 0);
        assert_eq!(t.sample(0).version, s.locks);
    }
}
