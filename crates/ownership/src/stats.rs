//! Statistics counters the paper's experiments measure: acquires, grants,
//! conflicts by kind and classification, and (for the tagged organization)
//! chain insertions.
//!
//! Two parties count. A table counts only what only it sees: conflicts by
//! kind and classification, and chain insertions. Everything else follows
//! from what the caller already holds in its log — the access, the level
//! held before it, the outcome, the levels it releases — so the caller
//! tallies it in an [`AccessTally`] and folds that into the table with
//! [`ConcurrentTable::fold`](crate::concurrent::ConcurrentTable::fold): the
//! engine once per transaction attempt, the counting
//! [`acquire`](crate::concurrent::ConcurrentTable::acquire)/[`release`](crate::concurrent::ConcurrentTable::release)
//! once per call. A fold lands in the caller's own
//! [`Slots`] slot, so it takes no locked instruction.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::concurrent::Held;
use crate::entry::{Access, AcquireOutcome, ConflictClass, ConflictKind, ThreadId};
use crate::slots::Slots;

/// Counters accumulated by an ownership table.
///
/// A point-in-time copy: the concurrent tables count with relaxed atomics
/// and [`stats_snapshot`](crate::concurrent::ConcurrentTable::stats_snapshot)
/// reads them into this plain `u64` struct. Counts a caller tallies become
/// visible when it folds them — for a transaction, at the end of its
/// attempt — so a snapshot is exact once the table is quiescent.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Read-permission acquire attempts.
    pub read_acquires: u64,
    /// Write-permission acquire attempts.
    pub write_acquires: u64,
    /// Acquires that granted a new unit of permission.
    pub grants: u64,
    /// Acquires satisfied by permission the transaction already held.
    pub already_held: u64,
    /// Successful read-to-write upgrades.
    pub upgrades: u64,
    /// Conflicts reported, by kind.
    pub read_after_write: u64,
    /// Write-after-read conflicts.
    pub write_after_read: u64,
    /// Write-after-write conflicts.
    pub write_after_write: u64,
    /// Conflicts proven to be aliases between distinct blocks (tagless
    /// only — tagged tables cannot produce these by construction).
    pub false_conflicts: u64,
    /// Conflicts proven to involve the same block.
    pub true_conflicts: u64,
    /// Conflicts the table could not classify: the refusing word's holders
    /// covered more than one block.
    pub unclassified_conflicts: u64,
    /// Entry releases performed.
    pub releases: u64,
    /// Tagged only: records inserted into a chain that already held at least
    /// one record for a *different* block (i.e. genuine aliasing the tagged
    /// organization absorbs instead of reporting).
    pub chain_inserts: u64,
}

impl TableStats {
    /// Total acquire attempts.
    pub fn total_acquires(&self) -> u64 {
        self.read_acquires + self.write_acquires
    }

    /// Total conflicts of all kinds.
    pub fn total_conflicts(&self) -> u64 {
        self.read_after_write + self.write_after_read + self.write_after_write
    }

    /// Conflicts per acquire, in [0, 1]; `None` when nothing was acquired.
    pub fn conflict_rate(&self) -> Option<f64> {
        let n = self.total_acquires();
        (n > 0).then(|| self.total_conflicts() as f64 / n as f64)
    }

    /// Fraction of classified conflicts that were false (alias-induced).
    pub fn false_fraction(&self) -> Option<f64> {
        let n = self.false_conflicts + self.true_conflicts;
        (n > 0).then(|| self.false_conflicts as f64 / n as f64)
    }
}

/// The one field-wise sum (e.g. a resizable table's retired generations
/// plus its active one). The right-hand side is destructured without `..`,
/// so a counter added to the struct fails to compile here instead of being
/// silently dropped from a sum.
impl std::ops::AddAssign for TableStats {
    fn add_assign(&mut self, rhs: Self) {
        let TableStats {
            read_acquires,
            write_acquires,
            grants,
            already_held,
            upgrades,
            read_after_write,
            write_after_read,
            write_after_write,
            false_conflicts,
            true_conflicts,
            unclassified_conflicts,
            releases,
            chain_inserts,
        } = rhs;
        self.read_acquires += read_acquires;
        self.write_acquires += write_acquires;
        self.grants += grants;
        self.already_held += already_held;
        self.upgrades += upgrades;
        self.read_after_write += read_after_write;
        self.write_after_read += write_after_read;
        self.write_after_write += write_after_write;
        self.false_conflicts += false_conflicts;
        self.true_conflicts += true_conflicts;
        self.unclassified_conflicts += unclassified_conflicts;
        self.releases += releases;
        self.chain_inserts += chain_inserts;
    }
}

/// The per-access counts a table's caller keeps for it: plain integers,
/// derived from what the caller's log already holds, folded into the table
/// with [`ConcurrentTable::fold`](crate::concurrent::ConcurrentTable::fold).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessTally {
    /// Read-permission acquire attempts.
    pub read_acquires: u64,
    /// Write-permission acquire attempts.
    pub write_acquires: u64,
    /// Acquires that granted a new unit of permission.
    pub grants: u64,
    /// Acquires satisfied by permission already held.
    pub already_held: u64,
    /// Read-to-write upgrades granted.
    pub upgrades: u64,
    /// Grants released.
    pub releases: u64,
}

impl AccessTally {
    /// Count one acquire of `access` by a caller holding `held`, which
    /// ended in `outcome`. A grant on top of a read unit is an upgrade.
    #[inline]
    pub fn on_acquire(&mut self, access: Access, held: Held, outcome: &AcquireOutcome) {
        match access {
            Access::Read => self.read_acquires += 1,
            Access::Write => self.write_acquires += 1,
        }
        match outcome {
            AcquireOutcome::Granted => {
                self.grants += 1;
                if access.is_write() && held == Held::Read {
                    self.upgrades += 1;
                }
            }
            AcquireOutcome::AlreadyHeld => self.already_held += 1,
            AcquireOutcome::Conflict(_) => {}
        }
    }

    /// Count the release of a grant held at `held`.
    #[inline]
    pub fn on_release(&mut self, held: Held) {
        if held != Held::None {
            self.releases += 1;
        }
    }
}

/// The access cells of one [`Counters`] slot: what a caller's tally moves.
#[derive(Debug, Default)]
struct AccessCells {
    read_acquires: AtomicU64,
    write_acquires: AtomicU64,
    grants: AtomicU64,
    already_held: AtomicU64,
    upgrades: AtomicU64,
    releases: AtomicU64,
}

/// Both concurrent organizations' counters: relaxed atomics, so a
/// snapshot is advisory under traffic and exact at quiescence.
///
/// The access cells move only through [`fold`](Counters::fold), once per
/// caller's tally, into the caller's own [`Slots`] slot: a plain load and
/// store for ids below [`SHARED`](crate::slots::SHARED), `fetch_add` on the
/// one slot the rest share. The table bumps the conflict cells itself,
/// once per refusal; refusals are rare, so those stay one shared
/// `fetch_add` block.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    access: Slots<AccessCells>,
    read_after_write: AtomicU64,
    write_after_read: AtomicU64,
    write_after_write: AtomicU64,
    false_conflicts: AtomicU64,
    true_conflicts: AtomicU64,
    chain_inserts: AtomicU64,
}

impl Counters {
    /// Add thread `me`'s tally to its slot: six plain stores into the
    /// thread's own cache line, or a `fetch_add` per moved cell on the
    /// shared slot.
    #[inline]
    pub(crate) fn fold(&self, me: ThreadId, tally: &AccessTally) {
        let AccessTally {
            read_acquires,
            write_acquires,
            grants,
            already_held,
            upgrades,
            releases,
        } = *tally;
        let slot = self.access.get(me);
        let c = slot.cells();
        slot.add_all(
            [
                (&c.read_acquires, read_acquires),
                (&c.write_acquires, write_acquires),
                (&c.grants, grants),
                (&c.already_held, already_held),
                (&c.upgrades, upgrades),
                (&c.releases, releases),
            ],
            Ordering::Relaxed,
        );
    }

    /// Count one conflict of `kind`, classified as `class`.
    pub(crate) fn on_conflict(&self, kind: ConflictKind, class: ConflictClass) {
        let by_kind = match kind {
            ConflictKind::ReadAfterWrite => &self.read_after_write,
            ConflictKind::WriteAfterRead => &self.write_after_read,
            ConflictKind::WriteAfterWrite => &self.write_after_write,
        };
        by_kind.fetch_add(1, Ordering::Relaxed);
        let by_class = match class {
            ConflictClass::KnownFalse => &self.false_conflicts,
            ConflictClass::KnownTrue => &self.true_conflicts,
            ConflictClass::Unknown => return,
        };
        by_class.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a record inserted beside another block's in one chain.
    pub(crate) fn on_chain_insert(&self) {
        self.chain_inserts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> TableStats {
        let load = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
        let sum =
            |pick: fn(&AccessCells) -> &AtomicU64| self.access.iter().map(|c| load(pick(c))).sum();
        let (raw, war, waw) = (
            load(&self.read_after_write),
            load(&self.write_after_read),
            load(&self.write_after_write),
        );
        let (false_conflicts, true_conflicts) =
            (load(&self.false_conflicts), load(&self.true_conflicts));
        TableStats {
            read_acquires: sum(|c| &c.read_acquires),
            write_acquires: sum(|c| &c.write_acquires),
            grants: sum(|c| &c.grants),
            already_held: sum(|c| &c.already_held),
            upgrades: sum(|c| &c.upgrades),
            read_after_write: raw,
            write_after_read: war,
            write_after_write: waw,
            false_conflicts,
            true_conflicts,
            // Whatever the refusing word could not settle.
            unclassified_conflicts: (raw + war + waw)
                .saturating_sub(false_conflicts + true_conflicts),
            releases: sum(|c| &c.releases),
            chain_inserts: load(&self.chain_inserts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::Conflict;

    #[test]
    fn conflict_rate_and_totals() {
        let mut s = TableStats::default();
        assert_eq!(s.conflict_rate(), None);
        s.read_acquires = 1;
        s.write_acquires = 2;
        s.write_after_write = 1;
        s.false_conflicts = 1;
        assert_eq!(s.total_acquires(), 3);
        assert_eq!(s.total_conflicts(), 1);
        assert!((s.conflict_rate().unwrap() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.false_fraction(), Some(1.0));
    }

    #[test]
    fn conflict_kinds_sum_and_fraction() {
        let s = TableStats {
            read_after_write: 1,
            write_after_read: 1,
            write_after_write: 1,
            true_conflicts: 1,
            unclassified_conflicts: 2,
            ..TableStats::default()
        };
        assert_eq!(s.total_conflicts(), 3);
        assert_eq!(s.false_fraction(), Some(0.0));
    }

    #[test]
    fn sum_carries_every_field() {
        // Every field distinct, no `..Default::default()`: a counter added
        // to the struct breaks this literal until the test covers it, and
        // the exhaustive destructuring in `add_assign` breaks until the
        // sum does.
        let one = TableStats {
            read_acquires: 1,
            write_acquires: 2,
            grants: 3,
            already_held: 4,
            upgrades: 5,
            read_after_write: 6,
            write_after_read: 7,
            write_after_write: 8,
            false_conflicts: 9,
            true_conflicts: 10,
            unclassified_conflicts: 11,
            releases: 12,
            chain_inserts: 13,
        };
        let mut total = one.clone();
        total += one.clone();
        total += one;
        let expected = TableStats {
            read_acquires: 3,
            write_acquires: 6,
            grants: 9,
            already_held: 12,
            upgrades: 15,
            read_after_write: 18,
            write_after_read: 21,
            write_after_write: 24,
            false_conflicts: 27,
            true_conflicts: 30,
            unclassified_conflicts: 33,
            releases: 36,
            chain_inserts: 39,
        };
        assert_eq!(total, expected);
    }

    #[test]
    fn tally_derives_each_outcome() {
        let conflict = AcquireOutcome::Conflict(Conflict {
            kind: ConflictKind::WriteAfterRead,
            with: None,
            class: ConflictClass::Unknown,
        });
        let mut t = AccessTally::default();
        t.on_acquire(Access::Read, Held::None, &AcquireOutcome::Granted);
        t.on_acquire(Access::Write, Held::Read, &AcquireOutcome::Granted);
        t.on_acquire(Access::Write, Held::None, &AcquireOutcome::Granted);
        t.on_acquire(Access::Read, Held::Write, &AcquireOutcome::AlreadyHeld);
        t.on_acquire(Access::Write, Held::Read, &conflict);
        t.on_release(Held::Write);
        t.on_release(Held::Read);
        t.on_release(Held::None);
        assert_eq!(
            t,
            AccessTally {
                read_acquires: 2,
                write_acquires: 3,
                grants: 3,
                already_held: 1,
                upgrades: 1,
                releases: 2,
            }
        );
    }

    #[test]
    fn counters_fold_tallies_and_count_conflicts() {
        let c = Counters::default();
        // One tally split over an exclusive slot (id 3) and the shared
        // one (id 20): the snapshot sums them.
        c.fold(
            3,
            &AccessTally {
                read_acquires: 1,
                write_acquires: 2,
                grants: 3,
                ..AccessTally::default()
            },
        );
        c.fold(
            20,
            &AccessTally {
                already_held: 4,
                upgrades: 5,
                releases: 6,
                ..AccessTally::default()
            },
        );
        c.fold(0, &AccessTally::default());
        c.on_conflict(ConflictKind::ReadAfterWrite, ConflictClass::KnownFalse);
        c.on_conflict(ConflictKind::WriteAfterRead, ConflictClass::KnownTrue);
        c.on_conflict(ConflictKind::WriteAfterWrite, ConflictClass::Unknown);
        c.on_chain_insert();
        assert_eq!(
            c.snapshot(),
            TableStats {
                read_acquires: 1,
                write_acquires: 2,
                grants: 3,
                already_held: 4,
                upgrades: 5,
                read_after_write: 1,
                write_after_read: 1,
                write_after_write: 1,
                false_conflicts: 1,
                true_conflicts: 1,
                unclassified_conflicts: 1,
                releases: 6,
                chain_inserts: 1,
            }
        );
    }
}
