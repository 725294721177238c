//! The simulators' view of an ownership table: a [`ConcurrentTable`] driven
//! from one thread, with each simulated transaction's grant log beside it.
//!
//! The concurrent tables keep no per-transaction state: the STM remembers
//! what each transaction was granted and passes the level it holds into
//! every acquire. [`SimTable`] keeps that same log for every simulated
//! transaction — one `GrantKey → (Held, EntryIndex)` map each — so the
//! Monte-Carlo simulators run on exactly the tables the STM runs on.
//! Commit and abort are [`SimTable::release_all`], and the entry index kept
//! with each grant gives [`SimTable::occupancy`] from per-entry holder
//! counts.

use tm_ownership::concurrent::{ConcurrentTable, GrantKey, Held};
use tm_ownership::{Access, AcquireOutcome, BlockAddr, EntryIndex, SmallMap, ThreadId};

/// A concurrent ownership table plus the grant log of every transaction
/// that acquires through it.
#[derive(Debug)]
pub struct SimTable<T: ConcurrentTable> {
    table: T,
    /// Indexed by transaction id: each live grant's key, level and entry.
    logs: Vec<SmallMap<GrantKey, (Held, EntryIndex)>>,
    /// Live grants per entry, over all transactions.
    holders: Vec<u32>,
    /// Entries with at least one live grant.
    occupancy: usize,
}

impl<T: ConcurrentTable> SimTable<T> {
    /// Drive `table`, which must hold no grants.
    pub fn new(table: T) -> Self {
        let holders = vec![0; table.num_entries()];
        Self {
            table,
            logs: Vec::new(),
            holders,
            occupancy: 0,
        }
    }

    /// The driven table (its statistics and diagnostics).
    pub fn table(&self) -> &T {
        &self.table
    }

    /// Acquire `access` on `block` for `txn`, passing the level its log
    /// holds on the covering grant key and logging what is granted.
    pub fn acquire(&mut self, txn: ThreadId, block: BlockAddr, access: Access) -> AcquireOutcome {
        let i = txn as usize;
        if i >= self.logs.len() {
            self.logs.resize_with(i + 1, SmallMap::new);
        }
        let log = &mut self.logs[i];
        let key = self.table.grant_key(block);
        let logged = log.get(key);
        let held = logged.map_or(Held::None, |(held, _)| held);
        let outcome = self.table.acquire(txn, block, access, held);
        if outcome == AcquireOutcome::Granted {
            let e = match logged {
                Some((_, e)) => e,
                None => {
                    let e = self.table.config().entry_of(block);
                    self.holders[e] += 1;
                    if self.holders[e] == 1 {
                        self.occupancy += 1;
                    }
                    e
                }
            };
            log.insert(key, (held.after(access), e));
        }
        outcome
    }

    /// Release every grant `txn` holds (its commit or abort). A transaction
    /// that never acquired holds nothing.
    pub fn release_all(&mut self, txn: ThreadId) {
        let Some(log) = self.logs.get_mut(txn as usize) else {
            return;
        };
        for (key, (held, e)) in log.iter() {
            self.table.release(txn, key, held);
            self.holders[e] -= 1;
            if self.holders[e] == 0 {
                self.occupancy -= 1;
            }
        }
        log.clear();
    }

    /// Number of entries holding at least one grant.
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_ownership::{ConcurrentTaggedTable, ConcurrentTaglessTable, HashKind, TableConfig};

    /// Blocks 3 and 19 share entry 3 of this 16-entry mask-hashed table.
    fn cfg() -> TableConfig {
        TableConfig::new(16).with_hash(HashKind::Mask)
    }

    fn tagless() -> SimTable<ConcurrentTaglessTable> {
        SimTable::new(ConcurrentTaglessTable::new(cfg()))
    }

    #[test]
    fn release_all_of_unknown_transaction_is_noop() {
        let mut t = tagless();
        t.release_all(42);
        assert_eq!(t.occupancy(), 0);
        assert_eq!(t.table().stats_snapshot().releases, 0);
    }

    #[test]
    fn release_all_frees_every_entry() {
        let mut t = SimTable::new(ConcurrentTaglessTable::new(
            TableConfig::new(64).with_hash(HashKind::Mask),
        ));
        for b in 0..10 {
            assert!(t.acquire(0, b, Access::Write).is_ok());
        }
        for b in 20..25 {
            assert!(t.acquire(0, b, Access::Read).is_ok());
        }
        assert_eq!(t.occupancy(), 15);
        t.release_all(0);
        assert_eq!(t.occupancy(), 0);
        let mut any = false;
        t.table().for_each_grant(&mut |_| any = true);
        assert!(!any, "a grant outlived release_all");
    }

    #[test]
    fn own_entry_is_already_held() {
        // The outcome `open` counts as an intra-transaction alias: a new
        // block folded into an entry the transaction already holds.
        let mut t = tagless();
        assert_eq!(t.acquire(0, 3, Access::Write), AcquireOutcome::Granted);
        assert_eq!(t.acquire(0, 19, Access::Write), AcquireOutcome::AlreadyHeld);
        assert_eq!(t.acquire(0, 19, Access::Read), AcquireOutcome::AlreadyHeld);
        assert_eq!(t.occupancy(), 1);
        // Tagged: the aliasing block is a record of its own, in the same
        // entry, so occupancy still counts one entry.
        let mut t = SimTable::new(ConcurrentTaggedTable::new(cfg()));
        assert_eq!(t.acquire(0, 3, Access::Write), AcquireOutcome::Granted);
        assert_eq!(t.acquire(0, 19, Access::Write), AcquireOutcome::Granted);
        assert_eq!(t.occupancy(), 1);
        t.release_all(0);
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn logged_read_upgrades_in_place() {
        let mut t = tagless();
        assert_eq!(t.acquire(0, 3, Access::Read), AcquireOutcome::Granted);
        assert_eq!(t.acquire(0, 3, Access::Write), AcquireOutcome::Granted);
        assert_eq!(t.table().owner_of(3), Some(0));
        assert_eq!(t.table().stats_snapshot().upgrades, 1);
        assert_eq!(t.occupancy(), 1);
        t.release_all(0);
        assert_eq!(t.occupancy(), 0);
        assert_eq!(t.table().stats_snapshot().releases, 1);
    }

    #[test]
    fn read_sharers_keep_occupancy_at_one() {
        let mut t = tagless();
        assert!(t.acquire(0, 3, Access::Read).is_ok());
        assert!(t.acquire(1, 3, Access::Read).is_ok());
        assert_eq!(t.table().sharers_of(3), 2);
        assert_eq!(t.occupancy(), 1);
        t.release_all(0);
        assert_eq!(t.table().sharers_of(3), 1);
        assert_eq!(t.occupancy(), 1);
        t.release_all(1);
        assert_eq!(t.occupancy(), 0);
    }
}
