//! A fixed-capacity transactional hash map with open addressing and typed
//! values.
//!
//! Layout: `capacity` one-word key slots followed by `capacity` value
//! slots of `V::WORDS` words each. Key 0 is reserved as the empty marker
//! (callers store keys ≥ 1; a thin shift at the API boundary handles 0 if
//! needed). Linear probing; deletions use backward-shift to keep probe
//! chains intact (no tombstones, so lookups stay O(cluster) forever).
//!
//! Every operation is a single transaction (or composes into a caller's),
//! so concurrent inserts to the *same cluster* serialize through ownership
//! of the probed blocks — a realistic picture of what word-granular STM
//! metadata costs for pointerless structures.

use std::marker::PhantomData;

use tm_ownership::{HashKind, ThreadId};
use tm_stm::{
    Aborted, CapacityError, ReadOps, Region, TRef, TmEngine, TxLayout, TxResult, TxnOps, WORD_BYTES,
};

const EMPTY: u64 = 0;

/// A fixed-capacity open-addressing hash map from `u64` keys to `V` values
/// in the STM heap.
pub struct TMap<V = u64> {
    keys: u64,
    vals: u64,
    capacity: u64,
    _marker: PhantomData<fn() -> V>,
}

// Manual impl: the handle is an address bundle — no `V: Debug` bound.
impl<V> std::fmt::Debug for TMap<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TMap")
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl<V> Clone for TMap<V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<V> Copy for TMap<V> {}

impl<V: TxLayout> TMap<V> {
    /// Allocate a map with `capacity` slots (power of two) in `region`.
    ///
    /// # Panics
    /// Panics if `capacity` is not a power of two.
    pub fn create(region: &mut Region, capacity: u64) -> Self {
        assert!(
            capacity.is_power_of_two(),
            "capacity must be a power of two"
        );
        let keys = region.alloc_words_block_aligned(capacity);
        let vals = region.alloc_words_block_aligned(
            capacity
                .checked_mul(V::WORDS)
                .expect("map size overflows word arithmetic"),
        );
        Self {
            keys,
            vals,
            capacity,
            _marker: PhantomData,
        }
    }

    /// Slot capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    #[inline]
    fn slot_of(&self, key: u64) -> u64 {
        HashKind::Multiplicative.index(key, self.capacity as usize) as u64
    }

    #[inline]
    fn key_slot(&self, slot: u64) -> TRef<u64> {
        TRef::from_raw(self.keys + slot * WORD_BYTES)
    }

    #[inline]
    fn val_slot(&self, slot: u64) -> TRef<V> {
        TRef::from_raw(self.vals + slot * V::WORDS * WORD_BYTES)
    }

    /// Insert or update inside a transaction; returns the previous value.
    /// A full map (probe wrapped all the way around) stores nothing and
    /// returns `Err(CapacityError)` (inner) — see the crate docs for the
    /// outcome idiom.
    pub fn insert<O: TxnOps + ?Sized>(
        &self,
        txn: &mut O,
        key: u64,
        value: V,
    ) -> TxResult<Option<V>> {
        assert_ne!(key, EMPTY, "key 0 is reserved as the empty marker");
        let start = self.slot_of(key);
        for i in 0..self.capacity {
            let slot = (start + i) % self.capacity;
            let k = self.key_slot(slot).get(txn)?;
            if k == key {
                let prev = self.val_slot(slot).get(txn)?;
                self.val_slot(slot).set(txn, value)?;
                return Ok(Ok(Some(prev)));
            }
            if k == EMPTY {
                self.key_slot(slot).set(txn, key)?;
                self.val_slot(slot).set(txn, value)?;
                return Ok(Ok(None));
            }
        }
        Ok(Err(CapacityError))
    }

    /// Look up inside a transaction. Only needs [`ReadOps`], so it also
    /// composes into [`TmEngine::run_read`] bodies.
    pub fn get<O: ReadOps + ?Sized>(&self, txn: &mut O, key: u64) -> Result<Option<V>, Aborted> {
        assert_ne!(key, EMPTY, "key 0 is reserved as the empty marker");
        let start = self.slot_of(key);
        for i in 0..self.capacity {
            let slot = (start + i) % self.capacity;
            let k = self.key_slot(slot).get(txn)?;
            if k == key {
                return Ok(Some(self.val_slot(slot).get(txn)?));
            }
            if k == EMPTY {
                return Ok(None);
            }
        }
        Ok(None)
    }

    /// Membership test inside a transaction: like [`get`](TMap::get) but
    /// skips decoding the value, so probe chains cost one read per slot.
    pub fn contains<O: ReadOps + ?Sized>(&self, txn: &mut O, key: u64) -> Result<bool, Aborted> {
        assert_ne!(key, EMPTY, "key 0 is reserved as the empty marker");
        let start = self.slot_of(key);
        for i in 0..self.capacity {
            let slot = (start + i) % self.capacity;
            let k = self.key_slot(slot).get(txn)?;
            if k == key {
                return Ok(true);
            }
            if k == EMPTY {
                return Ok(false);
            }
        }
        Ok(false)
    }

    /// Remove inside a transaction; returns the removed value. Uses
    /// backward-shift deletion to preserve probe invariants.
    pub fn remove<O: TxnOps + ?Sized>(&self, txn: &mut O, key: u64) -> Result<Option<V>, Aborted> {
        assert_ne!(key, EMPTY, "key 0 is reserved as the empty marker");
        let start = self.slot_of(key);
        let mut slot = None;
        for i in 0..self.capacity {
            let s = (start + i) % self.capacity;
            let k = self.key_slot(s).get(txn)?;
            if k == key {
                slot = Some(s);
                break;
            }
            if k == EMPTY {
                return Ok(None);
            }
        }
        let Some(mut hole) = slot else {
            return Ok(None);
        };
        let removed = self.val_slot(hole).get(txn)?;
        // Backward-shift: walk the cluster, pulling back entries whose home
        // slot is at or before the hole. A full map's cluster is the whole
        // ring with no `EMPTY` key to end it; there the walk ends when it
        // comes back around to the hole, the one empty slot.
        let mut probe = (hole + 1) % self.capacity;
        while probe != hole {
            let k = self.key_slot(probe).get(txn)?;
            if k == EMPTY {
                break;
            }
            let home = self.slot_of(k);
            // `probe` can be moved into `hole` iff hole is in the cyclic
            // interval [home, probe).
            let between = if home <= probe {
                home <= hole && hole < probe
            } else {
                home <= hole || hole < probe
            };
            if between {
                let v = self.val_slot(probe).get(txn)?;
                self.key_slot(hole).set(txn, k)?;
                self.val_slot(hole).set(txn, v)?;
                hole = probe;
            }
            probe = (probe + 1) % self.capacity;
        }
        self.key_slot(hole).set(txn, EMPTY)?;
        Ok(Some(removed))
    }

    /// Auto-committing insert; returns the previous value.
    pub fn insert_now<E: TmEngine>(
        &self,
        stm: &E,
        me: ThreadId,
        key: u64,
        value: V,
    ) -> Result<Option<V>, CapacityError>
    where
        V: Clone,
    {
        stm.run(me, |txn| self.insert(txn, key, value.clone()))
    }

    /// Auto-committing lookup.
    pub fn get_now<E: TmEngine>(&self, stm: &E, me: ThreadId, key: u64) -> Option<V> {
        stm.run(me, |txn| self.get(txn, key))
    }

    /// Wait-free lookup on the read-only path ([`TmEngine::run_read`]):
    /// never acquires ownership, never aborts a writer. The probe walk sees
    /// one consistent committed snapshot, so backward-shift deletions can
    /// never tear a cluster mid-lookup.
    pub fn get_read<E: TmEngine>(&self, stm: &E, me: ThreadId, key: u64) -> Option<V> {
        stm.run_read(me, |txn| self.get(txn, key))
    }

    /// Auto-committing membership test.
    pub fn contains_now<E: TmEngine>(&self, stm: &E, me: ThreadId, key: u64) -> bool {
        stm.run(me, |txn| self.contains(txn, key))
    }

    /// Wait-free membership test on the read-only path (see
    /// [`get_read`](TMap::get_read)).
    pub fn contains_read<E: TmEngine>(&self, stm: &E, me: ThreadId, key: u64) -> bool {
        stm.run_read(me, |txn| self.contains(txn, key))
    }

    /// Auto-committing removal.
    pub fn remove_now<E: TmEngine>(&self, stm: &E, me: ThreadId, key: u64) -> Option<V> {
        stm.run(me, |txn| self.remove(txn, key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_stm::StmBuilder;

    fn setup(cap: u64) -> (tm_stm::Stm<tm_stm::ConcurrentTaggedTable>, TMap) {
        let stm = StmBuilder::new()
            .heap_words(1 << 15)
            .table_entries(4096)
            .build_tagged();
        let mut r = Region::new(0, 1 << 17);
        let m = TMap::create(&mut r, cap);
        (stm, m)
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let (stm, m) = setup(64);
        assert_eq!(m.insert_now(&stm, 0, 7, 70), Ok(None));
        assert_eq!(m.get_now(&stm, 0, 7), Some(70));
        assert_eq!(m.insert_now(&stm, 0, 7, 71), Ok(Some(70)));
        assert_eq!(m.get_now(&stm, 0, 7), Some(71));
        assert_eq!(m.remove_now(&stm, 0, 7), Some(71));
        assert_eq!(m.get_now(&stm, 0, 7), None);
        assert_eq!(m.remove_now(&stm, 0, 7), None);
    }

    #[test]
    fn one_slot_map_round_trips() {
        let (stm, m) = setup(1);
        assert_eq!(m.insert_now(&stm, 0, 7, 70), Ok(None));
        assert_eq!(m.get_now(&stm, 0, 7), Some(70));
    }

    #[test]
    fn survives_heavy_collision_chains() {
        // Insert more keys than any one cluster can avoid overlapping.
        let (stm, m) = setup(64);
        for k in 1..=48u64 {
            assert_eq!(m.insert_now(&stm, 0, k, k * 10), Ok(None));
        }
        for k in 1..=48u64 {
            assert_eq!(m.get_now(&stm, 0, k), Some(k * 10), "key {k}");
        }
        // Remove every third key, then verify the rest still resolve
        // (backward-shift must not break probe chains).
        for k in (3..=48u64).step_by(3) {
            assert_eq!(m.remove_now(&stm, 0, k), Some(k * 10));
        }
        for k in 1..=48u64 {
            let expect = if k % 3 == 0 { None } else { Some(k * 10) };
            assert_eq!(m.get_now(&stm, 0, k), expect, "key {k}");
        }
    }

    #[test]
    fn insert_reports_full() {
        let (stm, m) = setup(4);
        stm.run(0, |txn| {
            for k in 1..=4u64 {
                assert_eq!(m.insert(txn, k, k)?, Ok(None));
            }
            assert_eq!(m.insert(txn, 99, 1)?, Err(CapacityError));
            Ok(())
        });
        // The full-map probe committed without storing anything.
        assert_eq!(m.get_now(&stm, 0, 99), None);
    }

    #[test]
    fn remove_from_a_full_map_returns() {
        for cap in [1u64, 4] {
            let (stm, m) = setup(cap);
            for k in 1..=cap {
                assert_eq!(m.insert_now(&stm, 0, k, k * 10), Ok(None), "cap {cap}");
            }
            assert_eq!(m.insert_now(&stm, 0, 99, 1), Err(CapacityError));
            assert_eq!(m.remove_now(&stm, 0, 1), Some(10), "cap {cap}");
            assert_eq!(m.get_now(&stm, 0, 1), None, "cap {cap}");
            for k in 2..=cap {
                assert_eq!(m.get_now(&stm, 0, k), Some(k * 10), "cap {cap} key {k}");
            }
            assert_eq!(m.insert_now(&stm, 0, 99, 990), Ok(None), "cap {cap}");
            assert_eq!(m.get_now(&stm, 0, 99), Some(990), "cap {cap}");
        }
    }

    #[test]
    fn typed_values_round_trip() {
        let stm = StmBuilder::new()
            .heap_words(1 << 15)
            .table_entries(4096)
            .build_tagged();
        let mut r = Region::new(0, 1 << 17);
        let m: TMap<(u64, bool)> = TMap::create(&mut r, 16);
        assert_eq!(m.insert_now(&stm, 0, 3, (30, true)), Ok(None));
        assert_eq!(m.get_now(&stm, 0, 3), Some((30, true)));
        assert_eq!(m.remove_now(&stm, 0, 3), Some((30, true)));
        assert_eq!(m.get_now(&stm, 0, 3), None);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn key_zero_rejected() {
        let (stm, m) = setup(8);
        let _ = m.insert_now(&stm, 0, 0, 1);
    }

    #[test]
    fn concurrent_disjoint_key_ranges() {
        let stm = std::sync::Arc::new(
            StmBuilder::new()
                .heap_words(1 << 15)
                .table_entries(4096)
                .build_tagged(),
        );
        let mut r = Region::new(0, 1 << 17);
        let m: TMap = TMap::create(&mut r, 1024);
        crossbeam::scope(|s| {
            for id in 0..4u32 {
                let stm = &stm;
                s.spawn(move |_| {
                    for i in 0..100u64 {
                        let k = 1 + (id as u64) * 1000 + i;
                        m.insert_now(stm, id, k, k ^ 0xABCD).expect("headroom");
                    }
                });
            }
        })
        .unwrap();
        for id in 0..4u64 {
            for i in 0..100u64 {
                let k = 1 + id * 1000 + i;
                assert_eq!(m.get_now(&stm, 0, k), Some(k ^ 0xABCD));
            }
        }
    }

    #[test]
    fn model_based_random_ops_match_std_hashmap() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::HashMap;
        let (stm, m) = setup(256);
        let mut reference: HashMap<u64, u64> = HashMap::new();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..2_000 {
            let key = rng.gen_range(1..100u64);
            match rng.gen_range(0..3) {
                0 => {
                    let v = rng.gen::<u32>() as u64;
                    assert_eq!(
                        m.insert_now(&stm, 0, key, v).expect("headroom"),
                        reference.insert(key, v)
                    );
                }
                1 => assert_eq!(m.get_now(&stm, 0, key), reference.get(&key).copied()),
                _ => assert_eq!(m.remove_now(&stm, 0, key), reference.remove(&key)),
            }
        }
    }
}
