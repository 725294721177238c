//! A sorted transactional linked list with **transactional node
//! allocation** — the first genuinely dynamic structure in the workspace.
//!
//! Every node is a 2-word cell `[value, next]` allocated from a
//! [`TxAlloc`] pool *inside* the inserting transaction and freed inside
//! the removing one, so an abort anywhere mid-splice rolls the allocation
//! back with the rest of the transaction — no leaked nodes, no dangling
//! links, on any engine. Traversals are the paper's pointer-chasing
//! workload: a chain of dependent reads whose length is the live set, with
//! a couple of writes (the splice) at the end.
//!
//! Duplicate values are rejected (`insert` returns `false`), so the list
//! is a sorted *set*; with a pool capacity at least the size of the value
//! universe, capacity errors are impossible by construction.

use std::marker::PhantomData;

use tm_ownership::ThreadId;
use tm_stm::{
    Aborted, CapacityError, ReadOps, Region, TRef, TmEngine, TxAlloc, TxLayout, TxResult, TxWord,
    TxnOps, WORD_BYTES,
};

/// One list cell: the value word followed by a nullable next pointer.
struct ListNode<T> {
    value: T,
    next: Option<TRef<ListNode<T>>>,
}

impl<T: TxWord> TxLayout for ListNode<T> {
    const WORDS: u64 = 2;

    fn read_from<O: ReadOps + ?Sized>(txn: &mut O, base: u64) -> Result<Self, Aborted> {
        Ok(Self {
            value: T::read_from(txn, base)?,
            next: Option::<TRef<ListNode<T>>>::read_from(txn, base + WORD_BYTES)?,
        })
    }

    fn write_to<O: TxnOps + ?Sized>(&self, txn: &mut O, base: u64) -> Result<(), Aborted> {
        self.value.write_to(txn, base)?;
        self.next.write_to(txn, base + WORD_BYTES)
    }
}

/// A sorted linked list (set semantics) of `T` values in the STM heap,
/// with transactional node alloc/free.
pub struct TList<T = u64> {
    head: TRef<Option<TRef<ListNode<T>>>>,
    pool: TxAlloc<ListNode<T>>,
    _marker: PhantomData<fn() -> T>,
}

// Manual impls: the handle is an address bundle — no `T: Debug`/`Clone`
// bounds belong on it.
impl<T> std::fmt::Debug for TList<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TList")
            .field("head", &self.head)
            .field("pool", &self.pool)
            .finish()
    }
}

impl<T> Clone for TList<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for TList<T> {}

impl<T: TxWord + Ord + Copy> TList<T> {
    /// Allocate a list in `region` with a node pool of `capacity` cells
    /// (the maximum number of live elements).
    pub fn create(region: &mut Region, capacity: u64) -> Self {
        assert!(capacity >= 1, "need capacity");
        Self {
            head: region.alloc_ref_aligned(),
            pool: region.alloc_pool(capacity),
            _marker: PhantomData,
        }
    }

    /// Maximum live elements (the node pool's size).
    pub fn capacity(&self) -> u64 {
        self.pool.capacity()
    }

    /// The nullable next-pointer slot inside `node` (word 1 of the cell).
    fn next_slot(node: TRef<ListNode<T>>) -> TRef<Option<TRef<ListNode<T>>>> {
        TRef::from_raw(node.addr() + WORD_BYTES)
    }

    /// Insert `value` keeping the list sorted, inside a transaction.
    /// Returns `true` if inserted, `false` if already present, and
    /// `Err(CapacityError)` (inner) when the node pool is exhausted — see
    /// the crate docs for the outcome idiom.
    pub fn insert<O: TxnOps + ?Sized>(&self, txn: &mut O, value: T) -> TxResult<bool> {
        let mut link = self.head;
        let mut cur = link.get(txn)?;
        while let Some(node) = cur {
            let n = node.get(txn)?;
            match n.value.cmp(&value) {
                std::cmp::Ordering::Equal => return Ok(Ok(false)),
                std::cmp::Ordering::Less => {
                    link = Self::next_slot(node);
                    cur = n.next;
                }
                std::cmp::Ordering::Greater => break,
            }
        }
        let node = match self.pool.alloc(txn, ListNode { value, next: cur })? {
            Ok(node) => node,
            Err(full) => return Ok(Err(full)),
        };
        link.set(txn, Some(node))?;
        Ok(Ok(true))
    }

    /// Remove `value`, inside a transaction; returns whether it was
    /// present. The node is freed back to the pool in the same
    /// transaction.
    pub fn remove<O: TxnOps + ?Sized>(&self, txn: &mut O, value: T) -> Result<bool, Aborted> {
        let mut link = self.head;
        let mut cur = link.get(txn)?;
        while let Some(node) = cur {
            let n = node.get(txn)?;
            match n.value.cmp(&value) {
                std::cmp::Ordering::Equal => {
                    link.set(txn, n.next)?;
                    self.pool.free(txn, node)?;
                    return Ok(true);
                }
                std::cmp::Ordering::Less => {
                    link = Self::next_slot(node);
                    cur = n.next;
                }
                std::cmp::Ordering::Greater => return Ok(false),
            }
        }
        Ok(false)
    }

    /// Membership test, inside a transaction. Only needs [`ReadOps`], so it
    /// also composes into [`TmEngine::run_read`] bodies.
    pub fn contains<O: ReadOps + ?Sized>(&self, txn: &mut O, value: T) -> Result<bool, Aborted> {
        let mut cur = self.head.get(txn)?;
        while let Some(node) = cur {
            let n = node.get(txn)?;
            match n.value.cmp(&value) {
                std::cmp::Ordering::Equal => return Ok(true),
                std::cmp::Ordering::Less => cur = n.next,
                std::cmp::Ordering::Greater => return Ok(false),
            }
        }
        Ok(false)
    }

    /// Live elements, inside a transaction (walks the list). Read-only.
    pub fn len<O: ReadOps + ?Sized>(&self, txn: &mut O) -> Result<u64, Aborted> {
        let mut n = 0u64;
        let mut cur = self.head.get(txn)?;
        while let Some(node) = cur {
            n += 1;
            cur = Self::next_slot(node).get(txn)?;
        }
        Ok(n)
    }

    /// Pool cells currently free (free-listed plus never-allocated),
    /// inside a transaction. With `len`, the leak detector:
    /// `len + free_nodes == capacity` must hold whenever the list is the
    /// pool's only client.
    pub fn free_nodes<O: ReadOps + ?Sized>(&self, txn: &mut O) -> Result<u64, Aborted> {
        self.pool.free_cells(txn)
    }

    /// Collect the contents in order, inside a transaction (a consistent
    /// snapshot). Allocates — verification/diagnostics, not a hot path.
    pub fn snapshot<O: ReadOps + ?Sized>(&self, txn: &mut O) -> Result<Vec<T>, Aborted> {
        let mut out = Vec::new();
        let mut cur = self.head.get(txn)?;
        while let Some(node) = cur {
            let n = node.get(txn)?;
            out.push(n.value);
            cur = n.next;
        }
        Ok(out)
    }

    /// Auto-committing insert.
    pub fn insert_now<E: TmEngine>(
        &self,
        stm: &E,
        me: ThreadId,
        value: T,
    ) -> Result<bool, CapacityError> {
        stm.run(me, |txn| self.insert(txn, value))
    }

    /// Auto-committing removal.
    pub fn remove_now<E: TmEngine>(&self, stm: &E, me: ThreadId, value: T) -> bool {
        stm.run(me, |txn| self.remove(txn, value))
    }

    /// Auto-committing membership test.
    pub fn contains_now<E: TmEngine>(&self, stm: &E, me: ThreadId, value: T) -> bool {
        stm.run(me, |txn| self.contains(txn, value))
    }

    /// Wait-free membership test on the read-only path
    /// ([`TmEngine::run_read`]): never acquires ownership, never aborts a
    /// writer. The traversal sees one consistent committed snapshot.
    pub fn contains_read<E: TmEngine>(&self, stm: &E, me: ThreadId, value: T) -> bool {
        stm.run_read(me, |txn| self.contains(txn, value))
    }

    /// Auto-committing length.
    pub fn len_now<E: TmEngine>(&self, stm: &E, me: ThreadId) -> u64 {
        stm.run(me, |txn| self.len(txn))
    }

    /// Wait-free length on the read-only path (see
    /// [`contains_read`](TList::contains_read)).
    pub fn len_read<E: TmEngine>(&self, stm: &E, me: ThreadId) -> u64 {
        stm.run_read(me, |txn| self.len(txn))
    }

    /// Auto-committing snapshot.
    pub fn snapshot_now<E: TmEngine>(&self, stm: &E, me: ThreadId) -> Vec<T> {
        stm.run(me, |txn| self.snapshot(txn))
    }

    /// Auto-committing pool audit (see [`free_nodes`](TList::free_nodes)).
    pub fn free_nodes_now<E: TmEngine>(&self, stm: &E, me: ThreadId) -> u64 {
        stm.run(me, |txn| self.free_nodes(txn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_stm::StmBuilder;

    fn setup(cap: u64) -> (tm_stm::Stm<tm_stm::ConcurrentTaggedTable>, TList) {
        let stm = StmBuilder::new()
            .heap_words(1 << 14)
            .table_entries(1024)
            .build_tagged();
        let mut r = Region::new(0, 1 << 16);
        let l = TList::create(&mut r, cap);
        (stm, l)
    }

    #[test]
    fn sorted_set_semantics() {
        let (stm, l) = setup(16);
        for v in [5u64, 1, 9, 3, 7] {
            assert_eq!(l.insert_now(&stm, 0, v), Ok(true));
        }
        assert_eq!(l.insert_now(&stm, 0, 5), Ok(false), "duplicate rejected");
        assert_eq!(l.snapshot_now(&stm, 0), vec![1, 3, 5, 7, 9]);
        assert!(l.contains_now(&stm, 0, 7));
        assert!(!l.contains_now(&stm, 0, 4));
        assert!(l.remove_now(&stm, 0, 5));
        assert!(!l.remove_now(&stm, 0, 5));
        assert_eq!(l.snapshot_now(&stm, 0), vec![1, 3, 7, 9]);
        assert_eq!(l.len_now(&stm, 0), 4);
    }

    #[test]
    fn nodes_recycle_through_the_pool() {
        let (stm, l) = setup(4);
        for v in 0..4u64 {
            assert_eq!(l.insert_now(&stm, 0, v), Ok(true));
        }
        assert_eq!(l.insert_now(&stm, 0, 99), Err(CapacityError), "pool full");
        assert!(l.remove_now(&stm, 0, 2));
        assert_eq!(l.free_nodes_now(&stm, 0), 1);
        assert_eq!(l.insert_now(&stm, 0, 99), Ok(true), "freed node reused");
        assert_eq!(l.snapshot_now(&stm, 0), vec![0, 1, 3, 99]);
        assert_eq!(l.free_nodes_now(&stm, 0), 0);
    }

    #[test]
    fn aborted_splices_leak_nothing() {
        let (stm, l) = setup(8);
        for v in [2u64, 4, 6] {
            assert_eq!(l.insert_now(&stm, 0, v), Ok(true));
        }
        // Abort mid-insert and mid-remove on first attempts: the pool and
        // the links must be exactly as if only the second attempts ran.
        let mut attempt = 0;
        stm.run(0, |txn| {
            attempt += 1;
            if attempt == 1 {
                l.insert(txn, 3)?.expect("room");
                l.remove(txn, 4)?;
                return txn.retry();
            }
            l.insert(txn, 5)?.expect("room");
            Ok(())
        });
        assert_eq!(l.snapshot_now(&stm, 0), vec![2, 4, 5, 6]);
        assert_eq!(
            l.len_now(&stm, 0) + l.free_nodes_now(&stm, 0),
            l.capacity(),
            "no node leaked or double-freed"
        );
    }

    #[test]
    fn works_on_the_lazy_engine() {
        let stm = StmBuilder::new()
            .heap_words(1 << 14)
            .table_entries(1024)
            .build_lazy();
        let mut r = Region::new(0, 1 << 16);
        let l: TList = TList::create(&mut r, 8);
        assert_eq!(l.insert_now(&stm, 0, 2), Ok(true));
        assert_eq!(l.insert_now(&stm, 0, 1), Ok(true));
        assert!(l.remove_now(&stm, 0, 2));
        assert_eq!(l.snapshot_now(&stm, 0), vec![1]);
        assert_eq!(l.len_now(&stm, 0) + l.free_nodes_now(&stm, 0), 8);
    }

    #[test]
    fn signed_values_sort_by_ord() {
        let (stm, _) = setup(1);
        let mut r = Region::new(1 << 10, 1 << 14);
        let l: TList<i64> = TList::create(&mut r, 8);
        for v in [3i64, -5, 0, -1] {
            assert_eq!(l.insert_now(&stm, 0, v), Ok(true));
        }
        assert_eq!(l.snapshot_now(&stm, 0), vec![-5, -1, 0, 3]);
    }

    #[test]
    fn concurrent_insert_remove_conserves_nodes() {
        let stm = std::sync::Arc::new(
            StmBuilder::new()
                .heap_words(1 << 14)
                .table_entries(4096)
                .build_tagged(),
        );
        let mut r = Region::new(0, 1 << 16);
        let l: TList = TList::create(&mut r, 64);
        crossbeam::scope(|s| {
            for id in 0..4u32 {
                let stm = &stm;
                s.spawn(move |_| {
                    // Interleaved per-thread value lanes: threads constantly
                    // traverse each other's nodes.
                    for round in 0..200u64 {
                        let v = (round % 16) * 4 + id as u64;
                        if round % 3 == 2 {
                            l.remove_now(stm, id, v);
                        } else {
                            let _ = l.insert_now(stm, id, v);
                        }
                    }
                });
            }
        })
        .unwrap();
        let snap = l.snapshot_now(&stm, 0);
        assert!(snap.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
        assert_eq!(
            snap.len() as u64 + l.free_nodes_now(&stm, 0),
            l.capacity(),
            "node conservation under contention"
        );
    }
}
