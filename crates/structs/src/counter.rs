//! A transactional counter: one typed cell, block-aligned so it owns its
//! ownership-table entry under locality-preserving hashes.

use tm_stm::{Aborted, Region, TRef, TxnOps};

/// A shared counter living in one typed heap cell.
#[derive(Clone, Copy, Debug)]
pub struct TCounter {
    cell: TRef<u64>,
}

impl TCounter {
    /// Allocate a counter in `region` (block-aligned, initial value 0).
    pub fn create(region: &mut Region) -> Self {
        Self {
            cell: region.alloc_ref_aligned(),
        }
    }

    /// The underlying typed cell (diagnostics, composition with `TRef`
    /// code).
    pub fn cell(&self) -> TRef<u64> {
        self.cell
    }

    /// Add `delta` inside an enclosing transaction; returns the new value.
    pub fn add<O: TxnOps + ?Sized>(&self, txn: &mut O, delta: u64) -> Result<u64, Aborted> {
        txn.update_add(self.cell.addr(), delta)
    }

    /// Read inside an enclosing transaction.
    pub fn read<O: TxnOps + ?Sized>(&self, txn: &mut O) -> Result<u64, Aborted> {
        self.cell.get(txn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_stm::{StmBuilder, TmEngine};

    #[test]
    fn add_and_get() {
        let stm = StmBuilder::new()
            .heap_words(1024)
            .table_entries(256)
            .build_tagged();
        let mut r = Region::new(0, 8192);
        let c = TCounter::create(&mut r);
        assert_eq!(stm.run(0, |txn| c.read(txn)), 0);
        assert_eq!(stm.run(0, |txn| c.add(txn, 5)), 5);
        assert_eq!(stm.run(0, |txn| c.add(txn, 2)), 7);
        assert_eq!(stm.run(0, |txn| c.read(txn)), 7);
    }

    #[test]
    fn add_and_get_on_lazy_engine() {
        // The same structure, unchanged, on the TL2-style engine.
        let stm = StmBuilder::new()
            .heap_words(1024)
            .table_entries(256)
            .build_lazy();
        let mut r = Region::new(0, 8192);
        let c = TCounter::create(&mut r);
        assert_eq!(stm.run(0, |txn| c.add(txn, 5)), 5);
        assert_eq!(stm.run(0, |txn| c.read(txn)), 5);
    }

    #[test]
    fn counters_are_block_isolated() {
        let mut r = Region::new(0, 8192);
        let a = TCounter::create(&mut r);
        let b = TCounter::create(&mut r);
        assert_ne!(
            a.cell().addr() / 64,
            b.cell().addr() / 64,
            "distinct cache blocks"
        );
    }

    #[test]
    fn concurrent_increments_exact() {
        let stm = std::sync::Arc::new(
            StmBuilder::new()
                .heap_words(1024)
                .table_entries(256)
                .build_tagged(),
        );
        let mut r = Region::new(0, 8192);
        let c = TCounter::create(&mut r);
        crossbeam::scope(|s| {
            for id in 0..4u32 {
                let stm = &stm;
                s.spawn(move |_| {
                    for _ in 0..500 {
                        stm.run(id, |txn| c.add(txn, 1));
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(stm.run(0, |txn| c.read(txn)), 2000);
    }

    #[test]
    fn concurrent_increments_exact_on_lazy() {
        let stm = std::sync::Arc::new(
            StmBuilder::new()
                .heap_words(1024)
                .table_entries(1024)
                .build_lazy(),
        );
        let mut r = Region::new(0, 8192);
        let c = TCounter::create(&mut r);
        crossbeam::scope(|s| {
            for id in 0..4u32 {
                let stm = &stm;
                s.spawn(move |_| {
                    for _ in 0..500 {
                        stm.run(id, |txn| c.add(txn, 1));
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(stm.run(0, |txn| c.read(txn)), 2000);
    }
}
