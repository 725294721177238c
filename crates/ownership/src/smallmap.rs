//! A recyclable, allocation-averse hash map for transaction-footprint keys.
//!
//! The paper's measurements (and the sizing model built on them) put the
//! write footprint `W` of realistic transactions in the single digits to low
//! tens of blocks. Per-attempt metadata — ownership logs, write buffers,
//! read sets — is therefore *tiny but hot*: a general-purpose
//! `std::collections::HashMap` spends more time in SipHash and allocator
//! round-trips than in the table itself, and it re-allocates on every
//! transaction attempt.
//!
//! [`SmallMap`] is the replacement shape:
//!
//! * **Inline first** — up to [`INLINE_CAP`] entries live in a fixed array
//!   scanned linearly (branch-predictable, cache-resident, zero heap).
//! * **Spill once, keep forever** — past that, entries move to an
//!   open-addressed, power-of-two probe table whose backing storage is
//!   *retained* across [`SmallMap::clear`]. A warmed-up map never allocates
//!   or rehashes again, which is what makes a retry loop allocation-free.
//! * **`u64`-like keys only** — keys implement [`SmallKey`] (block
//!   addresses, grant keys, entry indices), hashed with one Fibonacci
//!   multiply instead of SipHash.
//!
//! [`FastHashState`] is the companion `BuildHasher` for places that need a
//! real `std` map (composite keys) but not a DoS-resistant hash — e.g.
//! `tm-adaptive`'s per-slot `(txn, entry)` holdings.

use std::hash::{BuildHasher, Hasher};

/// Entries kept in the inline array before spilling to the probe table.
pub const INLINE_CAP: usize = 16;

/// Initial capacity of the spill table (power of two, ≥ 2×[`INLINE_CAP`]
/// so the spilling insert never immediately re-grows).
const SPILL_MIN_CAP: usize = 64;

/// Knuth's multiplicative constant: ⌊2^64 / φ⌋, odd.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Keys a [`SmallMap`] accepts: `Copy`, equality-comparable, and losslessly
/// convertible to/from `u64` (addresses, block numbers, entry indices).
pub trait SmallKey: Copy + Eq {
    /// Lossless encoding into the map's internal `u64` key space.
    fn encode(self) -> u64;
    /// Inverse of [`SmallKey::encode`].
    fn decode(raw: u64) -> Self;
}

impl SmallKey for u64 {
    #[inline]
    fn encode(self) -> u64 {
        self
    }
    #[inline]
    fn decode(raw: u64) -> Self {
        raw
    }
}

impl SmallKey for u32 {
    #[inline]
    fn encode(self) -> u64 {
        self as u64
    }
    #[inline]
    fn decode(raw: u64) -> Self {
        raw as u32
    }
}

impl SmallKey for usize {
    #[inline]
    fn encode(self) -> u64 {
        self as u64
    }
    #[inline]
    fn decode(raw: u64) -> Self {
        raw as usize
    }
}

/// Spill-slot occupancy. `Tombstone` marks a deleted slot so probe chains
/// stay intact; tombstones are reclaimed wholesale at the next rebuild or
/// [`SmallMap::clear`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum SlotState {
    #[default]
    Empty,
    Full,
    Tombstone,
}

#[derive(Clone, Copy, Debug, Default)]
struct Slot<V> {
    key: u64,
    val: V,
    state: SlotState,
}

/// A small-footprint map from [`SmallKey`]s to `Copy` values (see the
/// [module docs](self) for the design rationale).
///
/// Values are returned by copy; `V` defaults fill unused inline slots, so
/// `V: Default` is required but defaults are never observable.
#[derive(Clone, Debug)]
pub struct SmallMap<K: SmallKey, V: Copy + Default> {
    inline_keys: [u64; INLINE_CAP],
    inline_vals: [V; INLINE_CAP],
    /// Live entries (inline *or* spilled).
    len: usize,
    /// Spill probe table; empty until the first spill, then retained.
    slots: Vec<Slot<V>>,
    /// Indices of slots that left `Empty` since the last clear (each
    /// recorded exactly once: tombstone reuse does not re-record). Makes
    /// [`SmallMap::clear`] and [`SmallMap::iter`] O(touched slots), not
    /// O(capacity) — one huge historical footprint must not tax every
    /// later attempt on the thread.
    dirty: Vec<u32>,
    /// Full + tombstone slots in `slots` (governs the load factor).
    occupied: usize,
    /// Whether entries currently live in `slots` (all of them do, once
    /// spilled; `clear` returns the map to inline mode).
    spilled: bool,
    _key: std::marker::PhantomData<K>,
}

impl<K: SmallKey, V: Copy + Default> Default for SmallMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: SmallKey, V: Copy + Default> SmallMap<K, V> {
    /// An empty map. Allocates nothing until the footprint exceeds
    /// [`INLINE_CAP`].
    pub fn new() -> Self {
        Self {
            inline_keys: [0; INLINE_CAP],
            inline_vals: [V::default(); INLINE_CAP],
            len: 0,
            slots: Vec::new(),
            dirty: Vec::new(),
            occupied: 0,
            spilled: false,
            _key: std::marker::PhantomData,
        }
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no entries are present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the map has ever spilled in its current epoch (diagnostic;
    /// capacity is retained either way).
    #[inline]
    pub fn is_spilled(&self) -> bool {
        self.spilled
    }

    /// Current spill-table capacity (0 before the first spill). Retained
    /// across [`SmallMap::clear`] — the no-rehash-after-warm-up guarantee.
    #[inline]
    pub fn spill_capacity(&self) -> usize {
        self.slots.len()
    }

    /// Remove every entry, keeping all backing storage for reuse. O(1)
    /// while inline; O(slots touched since the last clear) after a spill
    /// (the dirty list, not the whole capacity).
    pub fn clear(&mut self) {
        if self.spilled {
            for &i in &self.dirty {
                self.slots[i as usize].state = SlotState::Empty;
            }
            self.dirty.clear();
            self.occupied = 0;
            self.spilled = false;
        }
        self.len = 0;
    }

    /// First probe index for `raw` in a table of `cap` slots (power of two).
    #[inline]
    fn probe_start(raw: u64, cap: usize) -> usize {
        // Fibonacci hashing: the high bits of a single multiply are well
        // mixed even for sequential keys (block runs, entry indices).
        (raw.wrapping_mul(FIB) >> (64 - cap.trailing_zeros())) as usize
    }

    /// The value stored under `key`, if present.
    #[inline]
    pub fn get(&self, key: K) -> Option<V> {
        let raw = key.encode();
        if !self.spilled {
            return self.inline_keys[..self.len]
                .iter()
                .position(|&k| k == raw)
                .map(|i| self.inline_vals[i]);
        }
        let cap = self.slots.len();
        let mask = cap - 1;
        let mut i = Self::probe_start(raw, cap);
        loop {
            let slot = &self.slots[i];
            match slot.state {
                SlotState::Empty => return None,
                SlotState::Full if slot.key == raw => return Some(slot.val),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// `true` when `key` is present.
    #[inline]
    pub fn contains(&self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// Insert or overwrite; returns the previous value when `key` was
    /// already present.
    pub fn insert(&mut self, key: K, val: V) -> Option<V> {
        let raw = key.encode();
        if !self.spilled {
            if let Some(i) = self.inline_keys[..self.len].iter().position(|&k| k == raw) {
                return Some(std::mem::replace(&mut self.inline_vals[i], val));
            }
            if self.len < INLINE_CAP {
                self.inline_keys[self.len] = raw;
                self.inline_vals[self.len] = val;
                self.len += 1;
                return None;
            }
            self.spill();
        }
        self.maybe_grow();
        let out = Self::insert_spilled(&mut self.slots, raw, val);
        if out.consumed_empty {
            self.occupied += 1;
            self.dirty.push(out.index as u32);
        }
        if out.prev.is_none() {
            self.len += 1;
        }
        out.prev
    }

    /// Remove `key`, returning its value when present. The slot becomes a
    /// tombstone, reclaimed at the next rebuild or clear.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let raw = key.encode();
        if !self.spilled {
            let i = self.inline_keys[..self.len]
                .iter()
                .position(|&k| k == raw)?;
            let val = self.inline_vals[i];
            self.len -= 1;
            self.inline_keys[i] = self.inline_keys[self.len];
            self.inline_vals[i] = self.inline_vals[self.len];
            return Some(val);
        }
        let cap = self.slots.len();
        let mask = cap - 1;
        let mut i = Self::probe_start(raw, cap);
        loop {
            let slot = &mut self.slots[i];
            match slot.state {
                SlotState::Empty => return None,
                SlotState::Full if slot.key == raw => {
                    slot.state = SlotState::Tombstone;
                    self.len -= 1;
                    return Some(slot.val);
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Visit every `(key, value)` pair (insertion order while inline,
    /// touch order after a spill). O(slots touched since the last clear).
    pub fn iter(&self) -> impl Iterator<Item = (K, V)> + '_ {
        // Invariant: `dirty` is non-empty only while spilled, so the two
        // halves of the chain are mutually exclusive.
        let inline_n = if self.spilled { 0 } else { self.len };
        self.inline_keys[..inline_n]
            .iter()
            .zip(&self.inline_vals[..inline_n])
            .map(|(&k, &v)| (K::decode(k), v))
            .chain(
                self.dirty
                    .iter()
                    .map(|&i| &self.slots[i as usize])
                    .filter(|s| s.state == SlotState::Full)
                    .map(|s| (K::decode(s.key), s.val)),
            )
    }

    /// Move the inline entries into the spill table (allocating it on
    /// first use; reusing the retained storage afterwards).
    fn spill(&mut self) {
        if self.slots.is_empty() {
            self.slots = vec![Slot::default(); SPILL_MIN_CAP];
        }
        debug_assert_eq!(self.occupied, 0, "spill over a dirty table");
        debug_assert!(self.dirty.is_empty(), "dirty list out of sync");
        for i in 0..self.len {
            let out =
                Self::insert_spilled(&mut self.slots, self.inline_keys[i], self.inline_vals[i]);
            debug_assert!(out.consumed_empty);
            self.dirty.push(out.index as u32);
        }
        self.occupied = self.len;
        self.spilled = true;
    }

    /// Keep the spill table at most half full (counting tombstones); grows
    /// or rebuilds before the insert that would cross the threshold.
    fn maybe_grow(&mut self) {
        let cap = self.slots.len();
        if (self.occupied + 1) * 2 <= cap {
            return;
        }
        // Mostly tombstones → rebuild at the same size; genuinely full →
        // double. (Either way tombstones are reclaimed.)
        let new_cap = if (self.len + 1) * 2 > cap {
            cap * 2
        } else {
            cap
        };
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); new_cap]);
        self.dirty.clear();
        for slot in old {
            if slot.state == SlotState::Full {
                let out = Self::insert_spilled(&mut self.slots, slot.key, slot.val);
                debug_assert!(out.consumed_empty);
                self.dirty.push(out.index as u32);
            }
        }
        self.occupied = self.len;
    }

    /// Raw open-addressed insert. Returns `(consumed_fresh_slot, previous)`.
    fn insert_spilled(slots: &mut [Slot<V>], raw: u64, val: V) -> InsertOutcome<V> {
        let cap = slots.len();
        let mask = cap - 1;
        let mut i = Self::probe_start(raw, cap);
        let mut reuse: Option<usize> = None;
        loop {
            let slot = &mut slots[i];
            match slot.state {
                SlotState::Full if slot.key == raw => {
                    return InsertOutcome {
                        consumed_empty: false,
                        index: i,
                        prev: Some(std::mem::replace(&mut slot.val, val)),
                    };
                }
                SlotState::Full => {}
                SlotState::Tombstone => {
                    // Remember the first reusable slot but keep probing: the
                    // key may exist further down the chain.
                    if reuse.is_none() {
                        reuse = Some(i);
                    }
                }
                SlotState::Empty => {
                    // A reused tombstone slot is already on the dirty list
                    // (recorded when it first left Empty), so only a fresh
                    // Empty slot counts as newly consumed.
                    let (target, fresh) = match reuse {
                        Some(t) => (t, false),
                        None => (i, true),
                    };
                    slots[target] = Slot {
                        key: raw,
                        val,
                        state: SlotState::Full,
                    };
                    return InsertOutcome {
                        consumed_empty: fresh,
                        index: target,
                        prev: None,
                    };
                }
            }
            i = (i + 1) & mask;
        }
    }
}

/// What [`SmallMap::insert_spilled`] did (internal).
struct InsertOutcome<V> {
    /// A previously-`Empty` slot became `Full` (must be recorded dirty).
    consumed_empty: bool,
    /// The slot the key now occupies.
    index: usize,
    /// The displaced value on overwrite.
    prev: Option<V>,
}

/// `BuildHasher` for `std` maps on trusted keys: FxHash-style multiply-mix,
/// an order of magnitude cheaper than SipHash for the word-sized keys the
/// TM hot path uses. **Not** DoS-resistant — internal bookkeeping only.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHashState;

impl BuildHasher for FastHashState {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher { hash: 0 }
    }
}

/// The hasher produced by [`FastHashState`].
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FIB);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche so low output bits depend on high input bits
        // (HashMap uses the low bits for bucket selection).
        let mut z = self.hash;
        z ^= z >> 32;
        z = z.wrapping_mul(FIB);
        z ^ (z >> 29)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn inline_insert_get_overwrite() {
        let mut m: SmallMap<u64, u64> = SmallMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(7, 70), None);
        assert_eq!(m.insert(9, 90), None);
        assert_eq!(m.get(7), Some(70));
        assert_eq!(m.get(8), None);
        assert_eq!(m.insert(7, 71), Some(70));
        assert_eq!(m.get(7), Some(71));
        assert_eq!(m.len(), 2);
        assert!(!m.is_spilled());
    }

    #[test]
    fn zero_key_is_a_real_key() {
        let mut m: SmallMap<u64, u64> = SmallMap::new();
        assert_eq!(m.get(0), None);
        m.insert(0, 42);
        assert_eq!(m.get(0), Some(42));
        assert_eq!(m.remove(0), Some(42));
        assert_eq!(m.get(0), None);
    }

    #[test]
    fn spills_past_inline_cap_and_keeps_entries() {
        let mut m: SmallMap<u64, u64> = SmallMap::new();
        let n = (INLINE_CAP as u64) * 3;
        for k in 0..n {
            m.insert(k * 64, k);
        }
        assert!(m.is_spilled());
        assert_eq!(m.len(), n as usize);
        for k in 0..n {
            assert_eq!(m.get(k * 64), Some(k), "key {k}");
        }
    }

    #[test]
    fn clear_retains_spill_capacity() {
        let mut m: SmallMap<u64, u64> = SmallMap::new();
        for k in 0..200u64 {
            m.insert(k, k);
        }
        let cap = m.spill_capacity();
        assert!(cap >= 200 * 2);
        m.clear();
        assert!(m.is_empty());
        assert!(!m.is_spilled());
        assert_eq!(m.spill_capacity(), cap, "storage must be retained");
        // Refill to the same footprint: no growth needed.
        for k in 0..200u64 {
            m.insert(k, k + 1);
        }
        assert_eq!(m.spill_capacity(), cap);
        assert_eq!(m.get(199), Some(200));
    }

    #[test]
    fn inline_remove_swaps_last() {
        let mut m: SmallMap<u64, u64> = SmallMap::new();
        for k in 0..4u64 {
            m.insert(k, k * 10);
        }
        assert_eq!(m.remove(1), Some(10));
        assert_eq!(m.remove(1), None);
        assert_eq!(m.len(), 3);
        for k in [0u64, 2, 3] {
            assert_eq!(m.get(k), Some(k * 10));
        }
    }

    #[test]
    fn tombstones_are_reclaimed_not_leaked() {
        let mut m: SmallMap<u64, u64> = SmallMap::new();
        // Churn far more inserts+removes than any capacity, staying small.
        for round in 0..10_000u64 {
            m.insert(round, round);
            if round >= 20 {
                assert_eq!(m.remove(round - 20), Some(round - 20));
            }
        }
        assert!(m.len() <= 21);
        // Capacity must stay bounded (tombstone rebuilds, not growth).
        assert!(
            m.spill_capacity() <= 256,
            "capacity {} grew without bound",
            m.spill_capacity()
        );
    }

    #[test]
    fn iter_matches_contents_inline_and_spilled() {
        let mut m: SmallMap<usize, u64> = SmallMap::new();
        for k in 0..10usize {
            m.insert(k, k as u64);
        }
        let mut got: Vec<_> = m.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).map(|k| (k, k as u64)).collect::<Vec<_>>());
        for k in 10..40usize {
            m.insert(k, k as u64);
        }
        let mut got: Vec<_> = m.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..40).map(|k| (k, k as u64)).collect::<Vec<_>>());
    }

    #[test]
    fn clear_after_huge_footprint_is_cheap_and_correct() {
        // One giant epoch grows the retained capacity; later small epochs
        // must see only their own entries (the dirty list, not a
        // whole-capacity sweep, defines what clear/iter visit).
        let mut m: SmallMap<u64, u64> = SmallMap::new();
        for k in 0..5_000u64 {
            m.insert(k, k);
        }
        let big_cap = m.spill_capacity();
        m.clear();
        for epoch in 0..100u64 {
            for k in 0..20u64 {
                m.insert(k, epoch * 100 + k);
            }
            assert!(m.is_spilled());
            let mut got: Vec<_> = m.iter().collect();
            got.sort_unstable();
            assert_eq!(
                got,
                (0..20).map(|k| (k, epoch * 100 + k)).collect::<Vec<_>>()
            );
            assert_eq!(m.remove(3), Some(epoch * 100 + 3));
            assert_eq!(m.len(), 19);
            m.clear();
            assert_eq!(m.iter().count(), 0);
        }
        assert_eq!(m.spill_capacity(), big_cap, "capacity still retained");
    }

    #[test]
    fn randomized_against_std_hashmap() {
        // Deterministic pseudo-random op stream, mirrored into a std map.
        let mut m: SmallMap<u64, u64> = SmallMap::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        let mut x = 0x0123_4567_89AB_CDEF_u64;
        for step in 0..50_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 33) % 97; // small key space → heavy collisions
            let op = x % 10;
            if op < 6 {
                assert_eq!(m.insert(key, step), reference.insert(key, step));
            } else if op < 9 {
                assert_eq!(m.remove(key), reference.remove(&key));
            } else {
                m.clear();
                reference.clear();
            }
            assert_eq!(m.len(), reference.len(), "step {step}");
            assert_eq!(m.get(key), reference.get(&key).copied());
        }
        let mut got: Vec<_> = m.iter().collect();
        got.sort_unstable();
        let mut want: Vec<_> = reference.iter().map(|(&k, &v)| (k, v)).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn fast_hasher_spreads_and_is_deterministic() {
        use std::hash::BuildHasher;
        let s = FastHashState;
        let h1 = s.hash_one((3u32, 1000u64));
        let h2 = s.hash_one((3u32, 1000u64));
        assert_eq!(h1, h2);
        let mut low_bits = std::collections::HashSet::new();
        for k in 0..1024u64 {
            low_bits.insert(s.hash_one(k) & 0x3FF);
        }
        // Sequential keys must not collapse onto few buckets.
        assert!(low_bits.len() > 600, "only {} distinct", low_bits.len());
    }

    #[test]
    fn fast_hashmap_works_with_tuple_keys() {
        let mut m: HashMap<(u32, u64), u8, FastHashState> = HashMap::default();
        m.insert((1, 2), 3);
        m.insert((2, 1), 4);
        assert_eq!(m.get(&(1, 2)), Some(&3));
        assert_eq!(m.get(&(2, 1)), Some(&4));
        assert_eq!(m.remove(&(1, 2)), Some(3));
        assert!(!m.contains_key(&(1, 2)));
    }
}
