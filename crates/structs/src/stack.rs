//! A bounded transactional stack of typed elements: `[top, slot0, slot1, …]`.

use std::marker::PhantomData;

use tm_ownership::ThreadId;
use tm_stm::{
    Aborted, CapacityError, Region, TRef, TmEngine, TxLayout, TxResult, TxnOps, WORD_BYTES,
};

/// A fixed-capacity LIFO stack of `T` values in the STM heap.
pub struct TStack<T = u64> {
    top: TRef<u64>,
    slots: u64,
    capacity: u64,
    _marker: PhantomData<fn() -> T>,
}

// Manual impl: the handle is an address bundle — no `T: Debug` bound.
impl<T> std::fmt::Debug for TStack<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TStack")
            .field("slots", &self.slots)
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl<T> Clone for TStack<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for TStack<T> {}

impl<T: TxLayout> TStack<T> {
    const STRIDE: u64 = T::WORDS * WORD_BYTES;

    /// Allocate a stack of `capacity` elements in `region`.
    pub fn create(region: &mut Region, capacity: u64) -> Self {
        assert!(capacity >= 1, "need capacity");
        let words = capacity
            .checked_mul(T::WORDS)
            .and_then(|w| w.checked_add(1))
            .expect("stack size overflows word arithmetic");
        let base = region.alloc_words_block_aligned(words);
        Self {
            top: TRef::from_raw(base),
            slots: base + WORD_BYTES,
            capacity,
            _marker: PhantomData,
        }
    }

    /// Maximum elements.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    fn slot(&self, i: u64) -> TRef<T> {
        TRef::from_raw(self.slots + i * Self::STRIDE)
    }

    /// Current length, inside a transaction.
    pub fn len<O: TxnOps + ?Sized>(&self, txn: &mut O) -> Result<u64, Aborted> {
        self.top.get(txn)
    }

    /// Push inside a transaction; `Err(CapacityError)` (inner) when full.
    /// See the crate docs for the outcome idiom.
    pub fn push<O: TxnOps + ?Sized>(&self, txn: &mut O, value: T) -> TxResult<()> {
        let top = self.top.get(txn)?;
        if top == self.capacity {
            return Ok(Err(CapacityError));
        }
        self.slot(top).set(txn, value)?;
        self.top.set(txn, top + 1)?;
        Ok(Ok(()))
    }

    /// Pop inside a transaction; `None` when empty.
    pub fn pop<O: TxnOps + ?Sized>(&self, txn: &mut O) -> Result<Option<T>, Aborted> {
        let top = self.top.get(txn)?;
        if top == 0 {
            return Ok(None);
        }
        let v = self.slot(top - 1).get(txn)?;
        self.top.set(txn, top - 1)?;
        Ok(Some(v))
    }

    /// Auto-committing push.
    pub fn push_now<E: TmEngine>(
        &self,
        stm: &E,
        me: ThreadId,
        value: T,
    ) -> Result<(), CapacityError>
    where
        T: Clone,
    {
        stm.run(me, |txn| self.push(txn, value.clone()))
    }

    /// Auto-committing pop.
    pub fn pop_now<E: TmEngine>(&self, stm: &E, me: ThreadId) -> Option<T> {
        stm.run(me, |txn| self.pop(txn))
    }

    /// Auto-committing depth (conservation checks in stress harnesses).
    pub fn len_now<E: TmEngine>(&self, stm: &E, me: ThreadId) -> u64 {
        stm.run(me, |txn| self.len(txn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_stm::StmBuilder;

    fn setup() -> (tm_stm::Stm<tm_stm::ConcurrentTaggedTable>, TStack) {
        let stm = StmBuilder::new()
            .heap_words(4096)
            .table_entries(1024)
            .build_tagged();
        let mut r = Region::new(0, 1 << 15);
        let s = TStack::create(&mut r, 16);
        (stm, s)
    }

    #[test]
    fn lifo_order() {
        let (stm, s) = setup();
        assert!(s.push_now(&stm, 0, 1).is_ok());
        assert!(s.push_now(&stm, 0, 2).is_ok());
        assert!(s.push_now(&stm, 0, 3).is_ok());
        assert_eq!(s.pop_now(&stm, 0), Some(3));
        assert_eq!(s.pop_now(&stm, 0), Some(2));
        assert_eq!(s.pop_now(&stm, 0), Some(1));
        assert_eq!(s.pop_now(&stm, 0), None);
    }

    #[test]
    fn capacity_respected() {
        let (stm, s) = setup();
        for i in 0..16 {
            assert!(s.push_now(&stm, 0, i).is_ok());
        }
        assert_eq!(
            s.push_now(&stm, 0, 99),
            Err(CapacityError),
            "17th push must report full"
        );
        assert_eq!(s.pop_now(&stm, 0), Some(15));
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn adversarial_capacity_rejected() {
        let mut r = Region::new(0, 1 << 16);
        let _: TStack = TStack::create(&mut r, u64::MAX);
    }

    #[test]
    fn typed_records_push_pop() {
        let stm = StmBuilder::new()
            .heap_words(4096)
            .table_entries(1024)
            .build_tagged();
        let mut r = Region::new(0, 1 << 15);
        let s: TStack<(u64, i64)> = TStack::create(&mut r, 4);
        assert!(s.push_now(&stm, 0, (1, -1)).is_ok());
        assert!(s.push_now(&stm, 0, (2, -2)).is_ok());
        assert_eq!(s.pop_now(&stm, 0), Some((2, -2)));
        assert_eq!(s.pop_now(&stm, 0), Some((1, -1)));
    }

    #[test]
    fn concurrent_push_pop_conserves_elements() {
        let stm = std::sync::Arc::new(
            StmBuilder::new()
                .heap_words(1 << 14)
                .table_entries(4096)
                .build_tagged(),
        );
        let mut r = Region::new(0, 1 << 16);
        let s: TStack = TStack::create(&mut r, 4096);
        // Pre-fill with 1000 tokens of value 1.
        for _ in 0..1000 {
            assert!(s.push_now(&stm, 0, 1).is_ok());
        }
        use std::sync::atomic::{AtomicU64, Ordering};
        let popped = AtomicU64::new(0);
        crossbeam::scope(|sc| {
            for id in 0..4u32 {
                let (stm, popped) = (&stm, &popped);
                sc.spawn(move |_| {
                    for round in 0..500 {
                        if round % 2 == 0 {
                            if s.pop_now(stm, id).is_some() {
                                popped.fetch_add(1, Ordering::Relaxed);
                            }
                        } else {
                            s.push_now(stm, id, 1).expect("stack has headroom");
                        }
                    }
                });
            }
        })
        .unwrap();
        // Conservation: initial + pushes - pops == final length.
        let final_len = stm.run(0, |txn| s.len(txn));
        let pushes = 4 * 250;
        let pops = popped.load(Ordering::Relaxed);
        assert_eq!(1000 + pushes - pops, final_len);
    }
}
