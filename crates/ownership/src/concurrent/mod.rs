//! Thread-safe ownership tables, one per organization.
//!
//! [`tm-stm`](https://docs.rs/tm-stm)'s multi-threaded transactions run on
//! them, and so do the paper's Monte-Carlo simulators in `tm-sim`, from one
//! thread:
//!
//! * [`ConcurrentTaglessTable`] — one atomic word per entry, lock-free
//!   acquire/release via compare-and-swap. This is the shape published
//!   word-based STMs give their tagless tables, and it preserves the false
//!   conflicts the paper analyses.
//! * [`ConcurrentTaggedTable`] — per-bucket `parking_lot` mutexes over the
//!   inline-or-chain buckets of Figure 7, one record per held block.
//!   Aliasing blocks coexist; only same-block conflicts are reported.
//!
//! Both keep Figure 1's entry — a mode plus the writer or the sharer
//! count — as the same packed ownership word, and change it through the
//! same pure transitions (the private `word` module): a tagless entry is
//! one such word for every block that hashes there, a tagged record one
//! such word beside the one block it tags.
//!
//! The tables do **not** keep per-thread logs internally — the caller
//! already owns that log, and duplicating it under synchronization would be
//! pure overhead. Callers pass the level they already hold ([`Held`]) and
//! remember the [`GrantKey`] of each grant so they can release it later.
//!
//! The same argument covers counting. Acquires, grants, already-held hits,
//! upgrades and releases all follow from `(access, held, outcome)` and the
//! levels a caller releases, so the table does not bump a shared counter
//! for them on every access: the caller keeps an [`AccessTally`] and
//! [`fold`](ConcurrentTable::fold)s it in — the STM once per transaction
//! attempt — into the caller's own counter slot, with a plain load and
//! store per moved count. A table counts only what only it sees: conflicts by kind and
//! classification, and chain insertions. Each organization has one acquire
//! and one release body,
//! [`acquire_uncounted`](ConcurrentTable::acquire_uncounted) and
//! [`release_uncounted`](ConcurrentTable::release_uncounted);
//! [`acquire`](ConcurrentTable::acquire) and
//! [`release`](ConcurrentTable::release) are those plus a one-call fold, for
//! callers that keep no tally of their own.
//!
//! ## Memory ordering
//!
//! A successful acquire uses `Acquire` ordering (and `AcqRel` on the CAS) so
//! it synchronizes-with the `Release` performed when the previous holder
//! released the entry. An STM that publishes buffered writes *before*
//! releasing write entries therefore guarantees readers who subsequently
//! acquire those entries observe the committed data.

mod tagged;
mod tagless;
mod word;

pub use tagged::ConcurrentTaggedTable;
pub use tagless::ConcurrentTaglessTable;

use crate::entry::{Access, AcquireOutcome, Mode, ThreadId};
use crate::hashing::{BlockAddr, TableConfig};
use crate::stats::{AccessTally, TableStats};

/// The permission level a transaction already holds on a grant key.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Held {
    /// Nothing held yet.
    #[default]
    None,
    /// Read permission held.
    Read,
    /// Write permission held.
    Write,
}

impl Held {
    /// The level after successfully acquiring `access` on top of `self`.
    #[inline]
    pub fn after(self, access: Access) -> Held {
        match access {
            Access::Write => Held::Write,
            Access::Read => self.max(Held::Read),
        }
    }
}

/// The unit a concurrent table grants permission on, which the caller must
/// remember in its transaction log to release later.
///
/// For a tagless table this is the **entry index** (one grant covers every
/// block aliasing there); for a tagged table it is the **block address**.
pub type GrantKey = u64;

/// A point-in-time view of one live grant, yielded by
/// [`ConcurrentTable::for_each_grant`].
///
/// Under concurrent traffic the snapshot is advisory (grants come and go
/// while iterating); at a quiesced table it is exact. Used by
/// diagnostics and integrity tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GrantSnapshot {
    /// The key the grant was issued under (entry index or block address).
    pub key: GrantKey,
    /// Read or Write (never [`Mode::Free`]).
    pub mode: Mode,
    /// The writing transaction, when `mode` is [`Mode::Write`] and the
    /// organization records it.
    pub owner: Option<ThreadId>,
    /// Number of read units outstanding, when `mode` is [`Mode::Read`].
    pub sharers: u32,
}

/// Interface the STM uses, generic over the table organization under test.
pub trait ConcurrentTable: Send + Sync {
    /// Number of first-level entries (the paper's `N`).
    fn num_entries(&self) -> usize;

    /// Begin one transaction attempt on this table. A caller brackets every
    /// grant it keys, acquires and releases here with `enter` and
    /// [`exit`](Self::exit): enter before its first
    /// [`grant_key`](Self::grant_key), exit after its last release. A
    /// table that can change its geometry (`tm-adaptive`'s resizable
    /// table) changes it only while no one is inside, so keys stay valid
    /// across the bracket. A plain table does nothing here.
    #[inline]
    fn enter(&self, _txn: ThreadId) {}

    /// End the attempt [`enter`](Self::enter) began, after its last release.
    #[inline]
    fn exit(&self, _txn: ThreadId) {}

    /// The grant key covering `block` (entry index or the block itself),
    /// valid until the caller's [`exit`](Self::exit).
    fn grant_key(&self, block: BlockAddr) -> GrantKey;

    /// Attempt to obtain `access` on `block` for `txn`, given that `txn`
    /// already holds `held` on the covering grant key (from its log).
    ///
    /// On [`AcquireOutcome::Granted`] the caller must record
    /// `held.after(access)` for the key and release it at transaction end.
    ///
    /// Counts only a conflict (and, tagged, a chain insertion); the caller
    /// tallies the attempt with [`AccessTally::on_acquire`] and folds it.
    fn acquire_uncounted(
        &self,
        txn: ThreadId,
        block: BlockAddr,
        access: Access,
        held: Held,
    ) -> AcquireOutcome;

    /// Release a grant previously obtained at level `held` on `key`. Counts
    /// nothing; the caller tallies it with [`AccessTally::on_release`].
    fn release_uncounted(&self, txn: ThreadId, key: GrantKey, held: Held);

    /// Add thread `me`'s tally to the table's counters. The access counts
    /// live in per-thread [`Slots`](crate::slots::Slots): `me` below
    /// [`SHARED`](crate::slots::SHARED) bumps its own slot with a plain load
    /// and store, so `me` must not fold from two threads at once — the
    /// engine's "one thread per id" contract.
    fn fold(&self, me: ThreadId, tally: &AccessTally);

    /// [`acquire_uncounted`](Self::acquire_uncounted), counted at once.
    #[inline]
    fn acquire(
        &self,
        txn: ThreadId,
        block: BlockAddr,
        access: Access,
        held: Held,
    ) -> AcquireOutcome {
        let outcome = self.acquire_uncounted(txn, block, access, held);
        let mut tally = AccessTally::default();
        tally.on_acquire(access, held, &outcome);
        self.fold(txn, &tally);
        outcome
    }

    /// [`release_uncounted`](Self::release_uncounted), counted at once.
    #[inline]
    fn release(&self, txn: ThreadId, key: GrantKey, held: Held) {
        self.release_uncounted(txn, key, held);
        let mut tally = AccessTally::default();
        tally.on_release(held);
        self.fold(txn, &tally);
    }

    /// A point-in-time copy of the table's statistics counters: exact once
    /// the table is quiescent, since tallies land when they are folded.
    fn stats_snapshot(&self) -> TableStats;

    /// The configuration the table was built with.
    fn config(&self) -> &TableConfig;

    /// Visit every live grant (see [`GrantSnapshot`] for the racy-snapshot
    /// caveat). The basis of leak checks and diagnostics.
    ///
    /// The callback runs while internal locks are held: it must **not**
    /// call back into this table (acquire/release/resize), or it will
    /// deadlock. Collect into a `Vec` first if you need to mutate.
    fn for_each_grant(&self, f: &mut dyn FnMut(GrantSnapshot));

    /// Forcibly drop every live grant, returning how many grant units were
    /// discarded. **Maintenance only** (table reset between experiment
    /// phases, teardown after a failed run): concurrent holders' later
    /// releases become undefined bookkeeping, so quiesce first.
    fn drain_grants(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn held_after_transitions() {
        assert_eq!(Held::None.after(Access::Read), Held::Read);
        assert_eq!(Held::None.after(Access::Write), Held::Write);
        assert_eq!(Held::Read.after(Access::Write), Held::Write);
        assert_eq!(Held::Write.after(Access::Read), Held::Write);
        assert_eq!(Held::Read.after(Access::Read), Held::Read);
    }

    #[test]
    fn held_ordering() {
        assert!(Held::None < Held::Read);
        assert!(Held::Read < Held::Write);
    }
}
