//! Lock-free concurrent tagless ownership table.
//!
//! Each entry is a single `AtomicU64` holding the ownership word (see
//! [`word`](super::word)): the Figure 1 fields and the fingerprint of the
//! block its holders cover.
//!
//! Acquire and release are CAS loops over that word — the "low metadata
//! overhead" that makes the tagless design attractive and that the paper
//! shows comes at the cost of false conflicts. The fingerprint rides in the
//! same CAS:
//!
//! * every grant installs the granted block's fingerprint; a reader joining
//!   with a different block saturates it, and so does an upgrade to a
//!   different block;
//! * a holder that covers a second distinct block at its entry (an
//!   already-held access) saturates it;
//! * reaching `Free` clears it. A departing reader leaves it as it is.
//!
//! An exact fingerprint thus names the only block any holder of the word
//! covers, and a refused request is [`classify`]d from the word that
//! refused it — the evidence cannot race away before the verdict.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::entry::{Access, AcquireOutcome, Conflict, Mode, ThreadId};
use crate::fingerprint::{classify, fingerprint_of, FP_SATURATED};
use crate::hashing::{BlockAddr, EntryIndex, TableConfig};
use crate::stats::{AccessTally, Counters, TableStats};

use super::word::{
    fp_of, granted, mode_of, refusal, released, snapshot, units, FP_SATURATED_BITS, FREE, MODE_READ,
};
use super::{ConcurrentTable, GrantKey, GrantSnapshot, Held};

/// A thread-safe tagless ownership table (see the
/// module docs and [`super::ConcurrentTable`]).
#[derive(Debug)]
pub struct ConcurrentTaglessTable {
    cfg: TableConfig,
    entries: Vec<AtomicU64>,
    counters: Counters,
}

impl ConcurrentTaglessTable {
    /// Build a table from `cfg`, every entry free.
    pub fn new(cfg: TableConfig) -> Self {
        let n = cfg.num_entries();
        let mut entries = Vec::with_capacity(n);
        entries.resize_with(n, || AtomicU64::new(FREE));
        Self {
            cfg,
            entries,
            counters: Counters::default(),
        }
    }

    /// The grant entry `e` holds, if any (diagnostic; racy by nature).
    fn grant_at(&self, e: EntryIndex) -> Option<GrantSnapshot> {
        snapshot(e as GrantKey, self.entries[e].load(Ordering::Acquire))
    }

    /// Decoded mode of entry `e` (diagnostic; racy by nature).
    pub fn mode_of(&self, e: EntryIndex) -> Mode {
        self.grant_at(e).map_or(Mode::Free, |g| g.mode)
    }

    /// Decoded sharer count (diagnostic; racy by nature).
    pub fn sharers_of(&self, e: EntryIndex) -> u32 {
        self.grant_at(e).map_or(0, |g| g.sharers)
    }

    /// Decoded write owner (diagnostic; racy by nature).
    pub fn owner_of(&self, e: EntryIndex) -> Option<ThreadId> {
        self.grant_at(e).and_then(|g| g.owner)
    }

    /// The grant CAS loop: `Ok` once granted, or the word that refused it.
    #[inline]
    fn grant(
        &self,
        txn: ThreadId,
        e: EntryIndex,
        access: Access,
        held: Held,
        fp: u32,
    ) -> Result<(), u64> {
        let cell = &self.entries[e];
        let mut cur = cell.load(Ordering::Acquire);
        loop {
            let next = granted(cur, txn, access, held, fp).ok_or(cur)?;
            match cell.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return Ok(()),
                Err(now) => cur = now,
            }
        }
    }

    /// [`acquire_uncounted`](ConcurrentTable::acquire_uncounted)'s slow
    /// half, for entry `e` and the block fingerprinted `fp`: an access the
    /// caller already holds ([`cover`](Self::cover)), an upgrade, a grant
    /// whose CAS lost a race, and a refusal. Called alone it decides every
    /// case the fast half does, through the same [`granted`] and
    /// [`refusal`], so the fast half is a shortcut and not a second rule.
    #[inline(never)]
    fn acquire_slow(
        &self,
        txn: ThreadId,
        e: EntryIndex,
        access: Access,
        held: Held,
        fp: u32,
    ) -> AcquireOutcome {
        match (access, held) {
            (Access::Read, Held::Read | Held::Write) | (Access::Write, Held::Write) => {
                self.cover(e, fp);
                AcquireOutcome::AlreadyHeld
            }
            _ => match self.grant(txn, e, access, held, fp) {
                Ok(()) => AcquireOutcome::Granted,
                Err(word) => self.refused(access, word, fp),
            },
        }
    }

    /// Count and report the conflict `word` raised against a request for
    /// `access` on the block fingerprinted `fp`, classified from `word`.
    #[cold]
    fn refused(&self, access: Access, word: u64, fp: u32) -> AcquireOutcome {
        let (kind, with) = refusal(access, word);
        let class = classify(fp_of(word), fp);
        self.counters.on_conflict(kind, class);
        AcquireOutcome::Conflict(Conflict { kind, with, class })
    }

    /// A holder of entry `e` covers the block fingerprinted `fp` there:
    /// saturate the word's fingerprint unless it names exactly that block.
    /// The caller holds the word, so it cannot be freed meanwhile, and a
    /// stale load can only show an exact fingerprint that is now saturated.
    #[inline]
    fn cover(&self, e: EntryIndex, fp: u32) {
        let cell = &self.entries[e];
        let named = fp_of(cell.load(Ordering::Relaxed));
        if named != fp && named != FP_SATURATED {
            cell.fetch_or(FP_SATURATED_BITS, Ordering::Relaxed);
        }
    }

    #[inline]
    fn release_read(&self, e: EntryIndex) {
        let cell = &self.entries[e];
        let mut cur = cell.load(Ordering::Acquire);
        loop {
            debug_assert_eq!(mode_of(cur), MODE_READ, "release_read on non-Read entry");
            let next = released(cur, Held::Read);
            match cell.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    #[inline]
    fn release_write(&self, txn: ThreadId, e: EntryIndex) {
        debug_assert_eq!(self.owner_of(e), Some(txn), "release_write by non-owner");
        self.entries[e].store(FREE, Ordering::Release);
    }
}

impl ConcurrentTable for ConcurrentTaglessTable {
    fn num_entries(&self) -> usize {
        self.cfg.num_entries()
    }

    #[inline]
    fn grant_key(&self, block: BlockAddr) -> GrantKey {
        self.cfg.entry_of(block) as GrantKey
    }

    #[inline]
    fn acquire_uncounted(
        &self,
        txn: ThreadId,
        block: BlockAddr,
        access: Access,
        held: Held,
    ) -> AcquireOutcome {
        let e = self.cfg.entry_of(block);
        let fp = fingerprint_of(block);
        // The fast half: a fresh grant one load and one CAS install — the
        // paper's no-alias case. Everything else is the slow half's.
        if held == Held::None {
            let cell = &self.entries[e];
            let cur = cell.load(Ordering::Acquire);
            if let Some(next) = granted(cur, txn, access, held, fp) {
                if cell
                    .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    return AcquireOutcome::Granted;
                }
            }
        }
        self.acquire_slow(txn, e, access, held, fp)
    }

    #[inline]
    fn release_uncounted(&self, txn: ThreadId, key: GrantKey, held: Held) {
        let e = key as EntryIndex;
        match held {
            Held::None => {}
            Held::Read => self.release_read(e),
            Held::Write => self.release_write(txn, e),
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
        for e in 0..self.entries.len() {
            if let Some(g) = self.grant_at(e) {
                f(g);
            }
        }
    }

    fn drain_grants(&self) -> u64 {
        self.entries
            .iter()
            .map(|cell| units(cell.swap(FREE, Ordering::AcqRel)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{ConflictClass, ConflictKind};
    use crate::fingerprint::FP_NONE;
    use crate::hashing::HashKind;

    fn table(n: usize) -> ConcurrentTaglessTable {
        ConcurrentTaglessTable::new(TableConfig::new(n).with_hash(HashKind::Mask))
    }

    /// The fingerprint entry `e`'s word holds.
    fn fp_at(t: &ConcurrentTaglessTable, e: EntryIndex) -> u32 {
        fp_of(t.entries[e].load(Ordering::Relaxed))
    }

    /// The class of a conflicting `acquire`.
    fn class_of(outcome: AcquireOutcome) -> ConflictClass {
        outcome.conflict().expect("a conflict").class
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
        assert_eq!(c.class, ConflictClass::KnownFalse);
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
        // The same block again leaves the word naming it.
        assert_eq!(fp_at(&t, 3), fingerprint_of(3));
    }

    #[test]
    fn upgrade_sole_reader() {
        let t = table(16);
        assert!(t.acquire(0, 3, Access::Read, Held::None).is_ok());
        assert!(t.acquire(0, 3, Access::Write, Held::Read).is_ok());
        assert_eq!(t.owner_of(3), Some(0));
        assert_eq!(fp_at(&t, 3), fingerprint_of(3), "same block: still exact");
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
        // Another reader of the same block: a true conflict.
        assert_eq!(c.class, ConflictClass::KnownTrue);
    }

    #[test]
    fn conflicts_are_classified_from_the_refusing_word() {
        let t = table(16);
        t.acquire(0, 1, Access::Read, Held::None);
        assert!(t.acquire(0, 2, Access::Write, Held::None).is_ok());
        // Same block: a true conflict.
        let same = t.acquire(1, 2, Access::Write, Held::None);
        assert_eq!(class_of(same), ConflictClass::KnownTrue);
        // Block 18 aliases entry 2: a false conflict.
        let alias = t.acquire(1, 18, Access::Write, Held::None);
        assert_eq!(class_of(alias), ConflictClass::KnownFalse);
        // Read-side: a reader of 18 collides with the writer of 2.
        let c = t
            .acquire(1, 18, Access::Read, Held::None)
            .conflict()
            .unwrap();
        assert_eq!(c.kind, ConflictKind::ReadAfterWrite);
        assert_eq!(c.class, ConflictClass::KnownFalse);
        let s = t.stats_snapshot();
        assert_eq!(s.read_acquires, 2);
        assert_eq!(s.write_acquires, 3);
        assert_eq!(s.grants, 2);
        assert_eq!(s.read_after_write, 1);
        assert_eq!(s.write_after_write, 2);
        assert_eq!(s.true_conflicts, 1);
        assert_eq!(s.false_conflicts, 2);
        assert_eq!(s.unclassified_conflicts, 0);
    }

    #[test]
    fn a_departing_holder_cannot_change_the_verdict() {
        // The race a side table of per-thread hints lost, forged on one
        // thread: the requester's CAS fails against a holder of the same
        // block, the holder releases, and only then is the verdict read.
        let t = table(16);
        let (e, fp) = (2, fingerprint_of(2));
        assert!(t.acquire(0, 2, Access::Write, Held::None).is_ok());
        let word = t
            .grant(1, e, Access::Write, Held::None, fp)
            .expect_err("thread 0 holds the entry");
        t.release(0, t.grant_key(2), Held::Write);
        assert_eq!(t.mode_of(e), Mode::Free);
        // The word that refused thread 1 still names block 2.
        assert_eq!(
            class_of(t.refused(Access::Write, word, fp)),
            ConflictClass::KnownTrue
        );
    }

    #[test]
    fn a_holder_racing_its_release_never_makes_a_same_block_conflict_false() {
        // The same race, live: for 100 ms one thread takes and releases
        // block 2 as fast as it can while another keeps requesting it.
        // Every refusal meets a holder of block 2, so none may be called
        // false. Timed, not counted: a holder preempted while it holds
        // lets the requester pile up refusals against one grant. On two
        // CPUs a side table of hints called most refusals false here.
        let t = table(16);
        let stop = std::sync::atomic::AtomicBool::new(false);
        let (mut refused, mut called_false) = (0u64, 0u64);
        crossbeam::scope(|s| {
            let (t, stop) = (&t, &stop);
            s.spawn(move |_| {
                while !stop.load(Ordering::Acquire) {
                    if t.acquire(0, 2, Access::Write, Held::None).is_ok() {
                        t.release(0, t.grant_key(2), Held::Write);
                    }
                }
            });
            let deadline = std::time::Instant::now() + std::time::Duration::from_millis(100);
            while std::time::Instant::now() < deadline {
                match t.acquire(1, 2, Access::Write, Held::None) {
                    AcquireOutcome::Conflict(c) => {
                        refused += 1;
                        called_false += u64::from(c.class.is_known_false());
                    }
                    _ => t.release(1, t.grant_key(2), Held::Write),
                }
            }
            stop.store(true, Ordering::Release);
        })
        .unwrap();
        assert!(refused > 0, "the threads never overlapped");
        assert_eq!(called_false, 0, "{called_false} of {refused} called false");
    }

    #[test]
    fn release_clears_the_fingerprint() {
        let t = table(16);
        assert!(t.acquire(0, 2, Access::Write, Held::None).is_ok());
        t.release(0, t.grant_key(2), Held::Write);
        assert_eq!(fp_at(&t, 2), FP_NONE);
        // A writer of the aliasing block finds the entry free and names
        // its own block; thread 0 writing block 2 now conflicts falsely.
        assert!(t.acquire(1, 18, Access::Write, Held::None).is_ok());
        let again = t.acquire(0, 2, Access::Write, Held::None);
        assert_eq!(class_of(again), ConflictClass::KnownFalse);
    }

    #[test]
    fn a_reader_joining_with_another_block_saturates() {
        let t = table(16);
        assert!(t.acquire(0, 3, Access::Read, Held::None).is_ok());
        assert!(t.acquire(1, 3, Access::Read, Held::None).is_ok());
        assert_eq!(fp_at(&t, 3), fingerprint_of(3), "same block joins exact");
        assert!(t.acquire(2, 19, Access::Read, Held::None).is_ok());
        assert_eq!(fp_at(&t, 3), FP_SATURATED);
        // A writer of either block learns nothing from the word.
        let w = t.acquire(3, 19, Access::Write, Held::None);
        assert_eq!(class_of(w), ConflictClass::Unknown);
        // Departing readers leave it saturated; the last one frees it.
        t.release(2, 3, Held::Read);
        t.release(0, 3, Held::Read);
        assert_eq!(fp_at(&t, 3), FP_SATURATED);
        t.release(1, 3, Held::Read);
        assert_eq!(fp_at(&t, 3), FP_NONE);
    }

    #[test]
    fn an_upgrade_to_another_block_saturates() {
        let t = table(16);
        // Thread 0 reads block 3, then writes block 19 at the same entry:
        // it covers both, so a reader of block 3 is a true conflict the
        // word must not call false.
        assert!(t.acquire(0, 3, Access::Read, Held::None).is_ok());
        assert!(t.acquire(0, 19, Access::Write, Held::Read).is_ok());
        assert_eq!(fp_at(&t, 3), FP_SATURATED);
        let r = t.acquire(1, 3, Access::Read, Held::None);
        assert_eq!(class_of(r), ConflictClass::Unknown);
    }

    #[test]
    fn a_second_block_covered_while_held_saturates() {
        let t = table(16);
        // Held at Write: thread 0 wrote block 3, then reads block 19.
        assert!(t.acquire(0, 3, Access::Write, Held::None).is_ok());
        assert_eq!(
            t.acquire(0, 19, Access::Read, Held::Write),
            AcquireOutcome::AlreadyHeld
        );
        assert_eq!(fp_at(&t, 3), FP_SATURATED);
        let w = t.acquire(1, 19, Access::Write, Held::None);
        assert_eq!(class_of(w), ConflictClass::Unknown);
        // Held at Read: two readers of block 4, one of which reads 20 too.
        assert!(t.acquire(1, 4, Access::Read, Held::None).is_ok());
        assert!(t.acquire(2, 4, Access::Read, Held::None).is_ok());
        assert_eq!(
            t.acquire(1, 20, Access::Read, Held::Read),
            AcquireOutcome::AlreadyHeld
        );
        assert_eq!(fp_at(&t, 4), FP_SATURATED);
        let w = t.acquire(3, 20, Access::Write, Held::None);
        assert_eq!(class_of(w), ConflictClass::Unknown);
    }

    /// Every single step the split acquire can take, decided both ways
    /// from the same word on two fresh tables: `acquire_uncounted` (fast
    /// half first) and `acquire_slow` called alone must return the same
    /// outcome, leave the same word and count the same conflicts. The
    /// fast half is a shortcut through the same `granted`, not a second
    /// rule.
    #[test]
    fn the_fast_half_decides_as_the_slow_half_alone() {
        const CALLER: ThreadId = 0;
        // Entry 3 of a 16-entry mask table. Blocks 3 and 19 alias there,
        // and so does `far`, whose fingerprint saturates.
        let far = 3 + (16u64 << 30);
        assert_eq!(fingerprint_of(far), FP_SATURATED);
        let word_after = |steps: &dyn Fn(&ConcurrentTaglessTable)| {
            let t = table(16);
            steps(&t);
            t.entries[3].load(Ordering::Relaxed)
        };
        let (r, w) = (Access::Read, Access::Write);
        // (name, word, sharers, exact fingerprint?)
        let words = [
            ("free", FREE, 0, false),
            (
                "read by 1, exact",
                word_after(&|t| {
                    t.acquire(1, 3, r, Held::None);
                }),
                1,
                true,
            ),
            (
                "read by 1, saturated",
                word_after(&|t| {
                    t.acquire(1, 3, r, Held::None);
                    t.acquire(2, 19, r, Held::None);
                    t.release(2, 3, Held::Read);
                }),
                1,
                false,
            ),
            (
                "read by 2, exact",
                word_after(&|t| {
                    t.acquire(1, 3, r, Held::None);
                    t.acquire(2, 3, r, Held::None);
                }),
                2,
                true,
            ),
            (
                "read by 2, saturated",
                word_after(&|t| {
                    t.acquire(1, 3, r, Held::None);
                    t.acquire(2, 19, r, Held::None);
                }),
                2,
                false,
            ),
            (
                "written by the caller",
                word_after(&|t| {
                    t.acquire(CALLER, 3, w, Held::None);
                }),
                0,
                true,
            ),
            (
                "written by the caller, saturated",
                word_after(&|t| {
                    t.acquire(CALLER, 3, w, Held::None);
                    t.acquire(CALLER, 19, r, Held::Write);
                }),
                0,
                false,
            ),
            (
                "written by another",
                word_after(&|t| {
                    t.acquire(1, 3, w, Held::None);
                }),
                0,
                true,
            ),
            (
                "written by another, saturated",
                word_after(&|t| {
                    t.acquire(1, 3, w, Held::None);
                    t.acquire(1, 19, r, Held::Write);
                }),
                0,
                false,
            ),
        ];
        let (mut cases, mut fast_grants) = (0, 0);
        for (name, word, sharers, exact) in words {
            // The states are what they are named.
            let snap = snapshot(3, word);
            assert_eq!(snap.map_or(0, |g| g.sharers), sharers, "{name}");
            if word != FREE {
                assert_eq!(fp_of(word) != FP_SATURATED, exact, "{name}");
            }
            for access in [r, w] {
                for held in [Held::None, Held::Read, Held::Write] {
                    // The block the word names, an alias, a saturated alias.
                    for block in [3, 19, far] {
                        let case = format!("{name}: {access:?} on block {block}, held {held:?}");
                        let (split, slow) = (table(16), table(16));
                        split.entries[3].store(word, Ordering::Relaxed);
                        slow.entries[3].store(word, Ordering::Relaxed);
                        let outcome = split.acquire_uncounted(CALLER, block, access, held);
                        let e = slow.cfg.entry_of(block);
                        assert_eq!(e, 3, "{case}");
                        let alone =
                            slow.acquire_slow(CALLER, e, access, held, fingerprint_of(block));
                        assert_eq!(outcome, alone, "{case}");
                        assert_eq!(
                            split.entries[3].load(Ordering::Relaxed),
                            slow.entries[3].load(Ordering::Relaxed),
                            "{case}"
                        );
                        assert_eq!(split.stats_snapshot(), slow.stats_snapshot(), "{case}");
                        cases += 1;
                        fast_grants +=
                            u32::from(held == Held::None && outcome == AcquireOutcome::Granted);
                    }
                }
            }
        }
        assert_eq!(cases, 9 * 2 * 3 * 3);
        // Free × 2 accesses and the four read words × a read, × 3 blocks.
        assert_eq!(fast_grants, (2 + 4) * 3);
    }

    #[test]
    fn disjoint_stress_all_false() {
        // 4 threads, fully disjoint block sets, tiny table: every conflict
        // must classify as false.
        let t = std::sync::Arc::new(table(8));
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
