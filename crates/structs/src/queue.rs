//! A bounded transactional FIFO ring of typed elements:
//! `[head, tail, slot0 … slotN-1]`.
//!
//! `head`/`tail` are monotonically increasing counters; the occupied range
//! is `[head, tail)` and slots are indexed modulo the capacity. Elements
//! are any [`TxLayout`] type — multi-word values occupy consecutive words
//! per slot and are read/written atomically within the transaction.

use std::marker::PhantomData;

use tm_stm::{Aborted, CapacityError, Region, TRef, TxLayout, TxResult, TxnOps, WORD_BYTES};

/// A fixed-capacity FIFO queue of `T` values in the STM heap.
pub struct TQueue<T = u64> {
    head: TRef<u64>,
    tail: TRef<u64>,
    slots: u64,
    capacity: u64,
    _marker: PhantomData<fn() -> T>,
}

// Manual impl: the handle is an address bundle — no `T: Debug` bound.
impl<T> std::fmt::Debug for TQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TQueue")
            .field("slots", &self.slots)
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl<T> Clone for TQueue<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for TQueue<T> {}

impl<T: TxLayout> TQueue<T> {
    const STRIDE: u64 = T::WORDS * WORD_BYTES;

    /// Allocate a queue of `capacity` elements in `region`.
    pub fn create(region: &mut Region, capacity: u64) -> Self {
        assert!(capacity >= 1, "need capacity");
        let words = capacity
            .checked_mul(T::WORDS)
            .and_then(|w| w.checked_add(2))
            .expect("queue size overflows word arithmetic");
        let base = region.alloc_words_block_aligned(words);
        Self {
            head: TRef::from_raw(base),
            tail: TRef::from_raw(base + WORD_BYTES),
            slots: base + 2 * WORD_BYTES,
            capacity,
            _marker: PhantomData,
        }
    }

    /// Maximum elements.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    fn slot(&self, logical: u64) -> TRef<T> {
        TRef::from_raw(self.slots + (logical % self.capacity) * Self::STRIDE)
    }

    /// Elements currently queued, inside a transaction.
    pub fn len<O: TxnOps + ?Sized>(&self, txn: &mut O) -> Result<u64, Aborted> {
        let head = self.head.get(txn)?;
        let tail = self.tail.get(txn)?;
        Ok(tail - head)
    }

    /// Enqueue inside a transaction; `Err(CapacityError)` (inner) when
    /// full. See the crate docs for the outcome idiom.
    pub fn enqueue<O: TxnOps + ?Sized>(&self, txn: &mut O, value: T) -> TxResult<()> {
        let head = self.head.get(txn)?;
        let tail = self.tail.get(txn)?;
        if tail - head == self.capacity {
            return Ok(Err(CapacityError));
        }
        self.slot(tail).set(txn, value)?;
        self.tail.set(txn, tail + 1)?;
        Ok(Ok(()))
    }

    /// Dequeue inside a transaction; `None` when empty.
    pub fn dequeue<O: TxnOps + ?Sized>(&self, txn: &mut O) -> Result<Option<T>, Aborted> {
        let head = self.head.get(txn)?;
        let tail = self.tail.get(txn)?;
        if head == tail {
            return Ok(None);
        }
        let v = self.slot(head).get(txn)?;
        self.head.set(txn, head + 1)?;
        Ok(Some(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_stm::{StmBuilder, TmEngine};

    fn setup(cap: u64) -> (tm_stm::Stm<tm_stm::ConcurrentTaggedTable>, TQueue) {
        let stm = StmBuilder::new()
            .heap_words(1 << 14)
            .table_entries(1024)
            .build_tagged();
        let mut r = Region::new(0, 1 << 16);
        let q = TQueue::create(&mut r, cap);
        (stm, q)
    }

    #[test]
    fn fifo_order() {
        let (stm, q) = setup(8);
        for i in 1..=5 {
            assert!(stm.run(0, |txn| q.enqueue(txn, i)).is_ok());
        }
        for i in 1..=5 {
            assert_eq!(stm.run(0, |txn| q.dequeue(txn)), Some(i));
        }
        assert_eq!(stm.run(0, |txn| q.dequeue(txn)), None);
    }

    #[test]
    fn wraps_around_ring() {
        let (stm, q) = setup(4);
        for round in 0..10u64 {
            assert!(stm.run(0, |txn| q.enqueue(txn, round * 2)).is_ok());
            assert!(stm.run(0, |txn| q.enqueue(txn, round * 2 + 1)).is_ok());
            assert_eq!(stm.run(0, |txn| q.dequeue(txn)), Some(round * 2));
            assert_eq!(stm.run(0, |txn| q.dequeue(txn)), Some(round * 2 + 1));
        }
    }

    #[test]
    fn full_queue_rejects() {
        let (stm, q) = setup(2);
        assert!(stm.run(0, |txn| q.enqueue(txn, 1)).is_ok());
        assert!(stm.run(0, |txn| q.enqueue(txn, 2)).is_ok());
        assert_eq!(stm.run(0, |txn| q.enqueue(txn, 3)), Err(CapacityError));
        assert_eq!(stm.run(0, |txn| q.dequeue(txn)), Some(1));
        assert!(stm.run(0, |txn| q.enqueue(txn, 3)).is_ok());
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn adversarial_capacity_rejected() {
        // capacity * WORDS + header must not wrap into a tiny allocation.
        let mut r = Region::new(0, 1 << 16);
        let _: TQueue = TQueue::create(&mut r, u64::MAX - 1);
    }

    #[test]
    fn multi_word_elements_round_trip() {
        // A queue of (id, flag) records: 2-word slots, read back intact.
        let stm = StmBuilder::new()
            .heap_words(1 << 14)
            .table_entries(1024)
            .build_tagged();
        let mut r = Region::new(0, 1 << 16);
        let q: TQueue<(u64, bool)> = TQueue::create(&mut r, 4);
        assert!(stm.run(0, |txn| q.enqueue(txn, (7, true))).is_ok());
        assert!(stm.run(0, |txn| q.enqueue(txn, (8, false))).is_ok());
        assert_eq!(stm.run(0, |txn| q.dequeue(txn)), Some((7, true)));
        assert_eq!(stm.run(0, |txn| q.dequeue(txn)), Some((8, false)));
    }

    #[test]
    fn producer_consumer_delivers_everything_in_order_per_producer() {
        let stm = std::sync::Arc::new(
            StmBuilder::new()
                .heap_words(1 << 14)
                .table_entries(4096)
                .build_tagged(),
        );
        let mut r = Region::new(0, 1 << 16);
        let q: TQueue = TQueue::create(&mut r, 1024);
        let n = 400u64;
        let received = std::sync::Mutex::new(Vec::new());
        crossbeam::scope(|sc| {
            // Two producers with tagged value spaces.
            for id in 0..2u32 {
                let stm = &stm;
                sc.spawn(move |_| {
                    for i in 0..n {
                        let v = ((id as u64) << 32) | i;
                        while stm.run(id, |txn| q.enqueue(txn, v)).is_err() {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            // One consumer.
            let (stm, received) = (&stm, &received);
            sc.spawn(move |_| {
                let mut got = 0;
                while got < 2 * n {
                    if let Some(v) = stm.run(2, |txn| q.dequeue(txn)) {
                        received.lock().unwrap().push(v);
                        got += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
        })
        .unwrap();
        let received = received.into_inner().unwrap();
        assert_eq!(received.len(), (2 * n) as usize);
        // Per-producer FIFO: sequence numbers of each producer appear in order.
        for id in 0..2u64 {
            let seq: Vec<u64> = received
                .iter()
                .filter(|&&v| v >> 32 == id)
                .map(|&v| v & 0xFFFF_FFFF)
                .collect();
            assert_eq!(seq.len(), n as usize);
            assert!(
                seq.windows(2).all(|w| w[0] < w[1]),
                "producer {id} reordered"
            );
        }
    }
}
