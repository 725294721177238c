//! `TxAlloc` — a transactional fixed-cell allocator inside the STM heap.
//!
//! [`Region`](crate::Region) answers *static* layout: structures carved out
//! once, before concurrent execution. `TxAlloc` answers *dynamic* layout:
//! linked structures that allocate and free nodes **inside transactions**.
//! Its entire state — free-list head, bump cursor, and the link words
//! threading the free list through the cells themselves — lives in ordinary
//! heap words accessed through [`TxnOps`], so:
//!
//! * an **aborted** transaction's allocations and frees roll back with the
//!   rest of its writes (no leak on abort, no resurrection on abort);
//! * concurrent allocations conflict exactly like any other same-block
//!   writes — the allocator metadata is part of the workload's footprint,
//!   which is precisely what a word-granular ownership-table study wants;
//! * steady-state alloc/free performs **zero** process-heap allocations
//!   (it is a handful of word reads/writes).
//!
//! # Pool layout
//!
//! ```text
//! base: [free_head][bump][6 pad words] [cell 0][cell 1] … [cell capacity-1]
//! ```
//!
//! Each cell is `T::WORDS` words. `free_head` is a nullable pointer word
//! (0 = empty free list) to the most recently freed cell; a free cell's
//! first word holds the next free cell's address. `bump` counts cells ever
//! taken from the virgin arena — allocation prefers the free list and falls
//! back to bumping, so the arena is only touched as the live set grows.
//! The header occupies a full 64-byte cache block (the two live words plus
//! padding): block-granular ownership tables would otherwise see *true*
//! conflicts between allocator-metadata writes and traversals of the first
//! few cells — noise in exactly the false-conflict measurements the
//! workloads exist for.

use std::marker::PhantomData;

use crate::engine::{ReadOps, TxnOps};
use crate::heap::WORD_BYTES;
use crate::stm::Aborted;
use crate::typed::{CapacityError, TRef, TxLayout, TxResult, TxWord};

/// A transactional fixed-cell allocator for `T` values (see module docs).
///
/// Constructed by [`Region::alloc_pool`](crate::Region::alloc_pool); the
/// handle is `Copy` and shared freely across threads — all mutable state is
/// in the heap, under transactional control.
pub struct TxAlloc<T> {
    /// Nullable pointer word: most recently freed cell.
    free_head: TRef<Option<TRef<T>>>,
    /// Cells ever taken from the virgin arena (`0..=capacity`).
    bump: TRef<u64>,
    arena: u64,
    capacity: u64,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for TxAlloc<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for TxAlloc<T> {}

impl<T> std::fmt::Debug for TxAlloc<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxAlloc")
            .field("arena", &self.arena)
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl<T: TxLayout> TxAlloc<T> {
    /// Words one cell occupies.
    const CELL_WORDS: u64 = if T::WORDS == 0 { 1 } else { T::WORDS };

    /// Header words: `free_head` + `bump`, padded to a full cache block so
    /// the allocator metadata never shares a block with cell data.
    const HEADER_WORDS: u64 = 64 / WORD_BYTES;

    /// Total heap words a pool of `cells` cells needs (header + arena).
    pub fn words_for(cells: u64) -> u64 {
        cells
            .checked_mul(Self::CELL_WORDS)
            .and_then(|w| w.checked_add(Self::HEADER_WORDS))
            .expect("pool size overflows word arithmetic")
    }

    /// Build a pool over `words_for(capacity)` words rooted at `base`.
    /// Crate-private: user code goes through
    /// [`Region::alloc_pool`](crate::Region::alloc_pool).
    pub(crate) fn new(base: u64, capacity: u64) -> Self {
        debug_assert!(base.is_multiple_of(WORD_BYTES));
        // A header at address 0 is fine — only *cells* are encoded into
        // pointer words, and cells start past the block-padded header, so
        // no cell can alias the null encoding.
        Self {
            free_head: TRef::from_raw(base),
            bump: TRef::from_raw(base + WORD_BYTES),
            arena: base + Self::HEADER_WORDS * WORD_BYTES,
            capacity,
            _marker: PhantomData,
        }
    }

    /// Maximum live cells.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    fn cell_addr(&self, index: u64) -> u64 {
        self.arena + index * Self::CELL_WORDS * WORD_BYTES
    }

    /// Allocate a cell and initialize it with `value`, inside a
    /// transaction. Returns the typed handle, or `Ok(Err(CapacityError))`
    /// when all `capacity` cells are live. Rolls back wholesale if the
    /// enclosing transaction aborts.
    pub fn alloc<O: TxnOps + ?Sized>(&self, txn: &mut O, value: T) -> TxResult<TRef<T>> {
        let cell = match self.free_head.get(txn)? {
            Some(cell) => {
                // Pop: the free cell's first word threads the list.
                let next = Option::<TRef<T>>::from_word(txn.read(cell.addr())?);
                self.free_head.set(txn, next)?;
                cell
            }
            None => {
                let bump = self.bump.get(txn)?;
                if bump == self.capacity {
                    return Ok(Err(CapacityError));
                }
                self.bump.set(txn, bump + 1)?;
                TRef::from_raw(self.cell_addr(bump))
            }
        };
        cell.set(txn, value)?;
        Ok(Ok(cell))
    }

    /// Return a cell to the pool, inside a transaction. The value is dead
    /// after this commits; freeing a handle that is still reachable
    /// elsewhere is the same bug as any other use-after-free.
    ///
    /// # Panics
    /// Panics when `cell` was not allocated from this pool (wrong address
    /// range or misaligned cell) — a programming error, not a transactional
    /// outcome.
    pub fn free<O: TxnOps + ?Sized>(&self, txn: &mut O, cell: TRef<T>) -> Result<(), Aborted> {
        let offset = cell
            .addr()
            .checked_sub(self.arena)
            .expect("freed cell below the pool arena");
        let stride = Self::CELL_WORDS * WORD_BYTES;
        assert!(
            offset.is_multiple_of(stride) && offset / stride < self.capacity,
            "freed cell {:#x} is not a cell of this pool",
            cell.addr()
        );
        // Push: thread the old head through the freed cell's first word.
        let head = self.free_head.get(txn)?;
        txn.write(cell.addr(), head.to_word())?;
        self.free_head.set(txn, Some(cell))
    }

    /// Cells currently available (free-listed plus never-bumped), inside a
    /// transaction. Walks the free list — O(free cells) — so this is an
    /// audit/verification tool, not a hot-path operation. The walk is
    /// bounded: a corrupt (e.g. double-freed) list is reported as a count
    /// exceeding [`capacity`](TxAlloc::capacity) rather than looping
    /// forever, so audits can flag it.
    pub fn free_cells<O: ReadOps + ?Sized>(&self, txn: &mut O) -> Result<u64, Aborted> {
        let mut listed = 0u64;
        let mut cur = self.free_head.get(txn)?;
        while let Some(cell) = cur {
            listed += 1;
            if listed > self.capacity {
                // Cycle (double free): report the impossible count.
                return Ok(self.capacity + 1 + (self.capacity - self.bump.get(txn)?));
            }
            cur = Option::<TRef<T>>::from_word(txn.read(cell.addr())?);
        }
        Ok(listed + (self.capacity - self.bump.get(txn)?))
    }

    /// Cells currently allocated (capacity minus free), inside a
    /// transaction. Same cost caveats as [`free_cells`](TxAlloc::free_cells).
    pub fn live_cells<O: ReadOps + ?Sized>(&self, txn: &mut O) -> Result<u64, Aborted> {
        Ok(self.capacity.saturating_sub(self.free_cells(txn)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ReadOps, StmBuilder, TmEngine};
    use crate::Region;

    fn pool(cells: u64) -> (crate::Stm<crate::ConcurrentTaggedTable>, TxAlloc<u64>) {
        let stm = StmBuilder::new()
            .heap_words(1 << 12)
            .table_entries(256)
            .build_tagged();
        let mut region = Region::new(0, 1 << 14);
        let pool = region.alloc_pool::<u64>(cells);
        (stm, pool)
    }

    #[test]
    fn alloc_free_recycles_cells() {
        let (stm, pool) = pool(4);
        let first = stm.run(0, |txn| {
            let r = pool.alloc(txn, 7)?.expect("room");
            assert_eq!(r.get(txn)?, 7);
            Ok(r)
        });
        stm.run(0, |txn| pool.free(txn, first));
        let second = stm.run(0, |txn| Ok(pool.alloc(txn, 9)?.expect("room")));
        assert_eq!(second, first, "freed cell is reused LIFO");
        assert_eq!(stm.run(0, |txn| second.get(txn)), 9);
    }

    #[test]
    fn capacity_is_enforced_and_observable() {
        let (stm, pool) = pool(3);
        let refs = stm.run(0, |txn| {
            let mut refs = Vec::new();
            for i in 0..3u64 {
                refs.push(pool.alloc(txn, i)?.expect("under capacity"));
            }
            assert_eq!(pool.alloc(txn, 99)?, Err(CapacityError));
            Ok(refs)
        });
        assert_eq!(stm.run(0, |txn| pool.live_cells(txn)), 3);
        stm.run(0, |txn| pool.free(txn, refs[1]));
        assert_eq!(stm.run(0, |txn| pool.free_cells(txn)), 1);
        // The freed middle cell satisfies the next allocation.
        let r = stm.run(0, |txn| Ok(pool.alloc(txn, 5)?.expect("freed room")));
        assert_eq!(r, refs[1]);
    }

    #[test]
    fn aborted_allocations_roll_back() {
        let (stm, pool) = pool(8);
        let mut attempt = 0;
        stm.run(0, |txn| {
            attempt += 1;
            if attempt == 1 {
                // Allocate half the pool, then abort: none of it survives.
                for i in 0..4u64 {
                    pool.alloc(txn, i)?.expect("room");
                }
                return txn.retry();
            }
            Ok(())
        });
        assert_eq!(stm.run(0, |txn| pool.free_cells(txn)), 8);
        assert_eq!(stm.run(0, |txn| pool.live_cells(txn)), 0);
    }

    #[test]
    fn aborted_frees_roll_back() {
        let (stm, pool) = pool(2);
        let r = stm.run(0, |txn| Ok(pool.alloc(txn, 42)?.expect("room")));
        let mut attempt = 0;
        stm.run(0, |txn| {
            attempt += 1;
            if attempt == 1 {
                pool.free(txn, r)?;
                return txn.retry();
            }
            Ok(())
        });
        // The free aborted: the cell is still live, its value intact.
        assert_eq!(stm.run(0, |txn| pool.live_cells(txn)), 1);
        assert_eq!(stm.run(0, |txn| r.get(txn)), 42);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn adversarial_pool_size_rejected() {
        // cells * CELL_WORDS + header must not wrap into a tiny pool.
        TxAlloc::<u64>::words_for(u64::MAX - 1);
    }

    #[test]
    #[should_panic(expected = "not a cell of this pool")]
    fn foreign_free_rejected() {
        let (stm, pool) = pool(2);
        let bogus: TRef<u64> = TRef::from_raw(pool.cell_addr(2)); // past the arena
        stm.run(0, |txn| pool.free(txn, bogus));
    }

    #[test]
    fn typed_cells_span_layout_words() {
        let stm = StmBuilder::new()
            .heap_words(1 << 12)
            .table_entries(256)
            .build_lazy();
        let mut region = Region::new(0, 1 << 14);
        let pool = region.alloc_pool::<(u64, bool)>(2);
        let (a, b) = stm.run(0, |txn| {
            let a = pool.alloc(txn, (1, true))?.expect("room");
            let b = pool.alloc(txn, (2, false))?.expect("room");
            Ok((a, b))
        });
        assert_eq!(b.addr() - a.addr(), 16, "2-word cells");
        assert_eq!(stm.run(0, |txn| a.get(txn)), (1, true));
        assert_eq!(stm.run(0, |txn| b.get(txn)), (2, false));
    }
}
