//! Thread-safe ownership tables for the real STM.
//!
//! The sequential tables in this crate serve the paper's Monte-Carlo
//! simulators; these variants serve [`tm-stm`](https://docs.rs/tm-stm)'s
//! actual multi-threaded transactions:
//!
//! * [`ConcurrentTaglessTable`] — one atomic word per entry, lock-free
//!   acquire/release via compare-and-swap. This is the shape published
//!   word-based STMs give their tagless tables, and it preserves the false
//!   conflicts the paper analyses.
//! * [`ConcurrentTaggedTable`] — per-bucket `parking_lot` mutexes over the
//!   inline-or-chain buckets of Figure 7. Aliasing blocks coexist; only
//!   same-block conflicts are reported.
//!
//! Unlike the sequential tables, concurrent tables do **not** keep per-thread
//! logs internally — a real STM already owns that log, and duplicating it
//! under synchronization would be pure overhead. Callers pass the level they
//! already hold ([`Held`]) and remember the [`GrantKey`] of each grant so
//! they can release it later.
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

pub use tagged::ConcurrentTaggedTable;
pub use tagless::ConcurrentTaglessTable;

use crate::entry::{Access, AcquireOutcome, Mode, ThreadId};
use crate::hashing::{BlockAddr, TableConfig};
use crate::stats::TableStats;

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

    /// The grant key covering `block` (entry index or the block itself).
    fn grant_key(&self, block: BlockAddr) -> GrantKey;

    /// Attempt to obtain `access` on `block` for `txn`, given that `txn`
    /// already holds `held` on the covering grant key (from its log).
    ///
    /// On [`AcquireOutcome::Granted`] the caller must record
    /// `held.after(access)` for the key and release it at transaction end.
    fn acquire(
        &self,
        txn: ThreadId,
        block: BlockAddr,
        access: Access,
        held: Held,
    ) -> AcquireOutcome;

    /// Release a grant previously obtained at level `held` on `key`.
    fn release(&self, txn: ThreadId, key: GrantKey, held: Held);

    /// A point-in-time copy of the table's statistics counters.
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
