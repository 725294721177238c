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
//! * **Grow, then clear** — an attempt only inserts (or overwrites) and
//!   then clears, so nothing is ever removed: a spill slot is empty or
//!   full, and a probe chain ends at its first empty slot.
//! * **Inline first** — up to [`INLINE_CAP`] entries live in a fixed array
//!   scanned linearly (branch-predictable, cache-resident, zero heap).
//! * **Spill once, keep forever** — past that, entries move to an
//!   open-addressed, power-of-two probe table whose backing storage is
//!   *retained* across [`SmallMap::clear`]. A warmed-up map never allocates
//!   or rehashes again, which is what makes a retry loop allocation-free.
//! * **`u64`-like keys only** — keys implement [`SmallKey`] (block
//!   addresses, grant keys, entry indices), placed with the ownership
//!   tables' own [`HashKind::Multiplicative`] hash instead of SipHash.

use crate::hashing::HashKind;

/// Entries kept in the inline array before spilling to the probe table.
pub const INLINE_CAP: usize = 16;

/// Initial capacity of the spill table (power of two, ≥ 2×[`INLINE_CAP`]
/// so the spilling insert never immediately re-grows).
const SPILL_MIN_CAP: usize = 64;

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

#[derive(Clone, Copy, Debug, Default)]
struct Slot<V> {
    key: u64,
    val: V,
    full: bool,
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
    /// Indices of the slots filled since the last clear, in fill order.
    /// Makes [`SmallMap::clear`] and [`SmallMap::iter`] O(entries), not
    /// O(capacity) — one huge historical footprint must not tax every
    /// later attempt on the thread.
    dirty: Vec<u32>,
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
    /// while inline; O(entries) after a spill (the dirty list, not the
    /// whole capacity).
    #[inline]
    pub fn clear(&mut self) {
        if self.spilled {
            self.clear_spilled();
        }
        self.len = 0;
    }

    /// [`clear`](Self::clear)'s spilled half: empty the dirty slots and
    /// return to inline mode.
    #[inline(never)]
    fn clear_spilled(&mut self) {
        for &i in &self.dirty {
            self.slots[i as usize].full = false;
        }
        self.dirty.clear();
        self.spilled = false;
    }

    /// The slot holding `raw` in `slots`, or the empty slot that ends its
    /// probe chain (the table is at most half full, so one exists).
    #[inline]
    fn probe(slots: &[Slot<V>], raw: u64) -> usize {
        let mask = slots.len() - 1;
        let mut i = HashKind::Multiplicative.index(raw, slots.len());
        while slots[i].full && slots[i].key != raw {
            i = (i + 1) & mask;
        }
        i
    }

    /// Where `raw` sits in the inline array: a scan of the `len` keys in
    /// use. A loop, not the array's sixteen unrolled compares, so it stays
    /// small enough to inline; `min` keeps a bounds panic off it.
    #[inline]
    fn inline_position(&self, raw: u64) -> Option<usize> {
        self.inline_keys[..self.len.min(INLINE_CAP)]
            .iter()
            .position(|&k| k == raw)
    }

    /// The value stored under `key`, if present. Inline: the scan of
    /// `inline_position`; spilled: the
    /// out-of-line probe.
    #[inline]
    pub fn get(&self, key: K) -> Option<V> {
        let raw = key.encode();
        if self.spilled {
            return self.get_spilled(raw);
        }
        self.inline_position(raw).map(|i| self.inline_vals[i])
    }

    /// [`get`](Self::get) on the spill table.
    #[inline(never)]
    fn get_spilled(&self, raw: u64) -> Option<V> {
        let slot = &self.slots[Self::probe(&self.slots, raw)];
        slot.full.then_some(slot.val)
    }

    /// `true` when `key` is present.
    #[inline]
    pub fn contains(&self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// Insert or overwrite; returns the previous value when `key` was
    /// already present. Inline: a scan, then an overwrite or an append;
    /// spilling, and every insert after, takes the out-of-line half.
    #[inline]
    pub fn insert(&mut self, key: K, val: V) -> Option<V> {
        let raw = key.encode();
        if !self.spilled {
            if let Some(i) = self.inline_position(raw) {
                return Some(std::mem::replace(&mut self.inline_vals[i], val));
            }
            if self.len < INLINE_CAP {
                self.append(self.len, raw, val);
                return None;
            }
        }
        self.insert_spilled(raw, val)
    }

    /// Insert `key`, which the caller knows is absent: while the map is
    /// inline this appends without scanning for `key`.
    #[inline]
    pub fn insert_new(&mut self, key: K, val: V) {
        debug_assert!(!self.contains(key), "insert_new of a present key");
        let n = self.len;
        if !self.spilled && n < INLINE_CAP {
            self.append(n, key.encode(), val);
        } else {
            self.insert_spilled(key.encode(), val);
        }
    }

    /// Append at `n`, the length the caller read and checked below
    /// [`INLINE_CAP`] (passed in, so the check still bounds the stores).
    #[inline]
    fn append(&mut self, n: usize, raw: u64, val: V) {
        self.inline_keys[n] = raw;
        self.inline_vals[n] = val;
        self.len = n + 1;
    }

    /// [`insert`](Self::insert) of a key not in the inline array: spill a
    /// full inline array first, then probe and fill the spill table.
    #[inline(never)]
    fn insert_spilled(&mut self, raw: u64, val: V) -> Option<V> {
        if !self.spilled {
            self.spill();
        }
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let i = Self::probe(&self.slots, raw);
        if self.slots[i].full {
            return Some(std::mem::replace(&mut self.slots[i].val, val));
        }
        self.fill(i, raw, val);
        self.len += 1;
        None
    }

    /// Visit every `(key, value)` pair (insertion order while inline,
    /// fill order after a spill). O(entries).
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
                    .map(|s| (K::decode(s.key), s.val)),
            )
    }

    /// Store a new entry in the empty slot `i` and record it dirty.
    fn fill(&mut self, i: usize, raw: u64, val: V) {
        self.slots[i] = Slot {
            key: raw,
            val,
            full: true,
        };
        self.dirty.push(i as u32);
    }

    /// Move the inline entries into the spill table (allocating it on
    /// first use; reusing the retained storage afterwards). Once per
    /// attempt that outgrows the inline array.
    #[cold]
    fn spill(&mut self) {
        if self.slots.is_empty() {
            self.slots = vec![Slot::default(); SPILL_MIN_CAP];
        }
        debug_assert!(self.dirty.is_empty(), "spill over a dirty table");
        for n in 0..self.len {
            let raw = self.inline_keys[n];
            self.fill(Self::probe(&self.slots, raw), raw, self.inline_vals[n]);
        }
        self.spilled = true;
    }

    /// Double the spill table and re-place its entries, before the insert
    /// that would fill it past half. Rare: capacity is retained across
    /// clears, so a warmed map never grows again.
    #[cold]
    fn grow(&mut self) {
        let cap = self.slots.len();
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); cap * 2]);
        self.dirty.clear();
        for slot in old.into_iter().filter(|s| s.full) {
            self.fill(Self::probe(&self.slots, slot.key), slot.key, slot.val);
        }
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
    fn the_inline_boundary_splits_where_it_should() {
        let cap = INLINE_CAP as u64;
        let key = |k: u64| k * 64;
        // `insert` fills the array; `insert_new` fills a second map the
        // same way, so both halves of each are crossed.
        let (mut m, mut n): (SmallMap<u64, u64>, SmallMap<u64, u64>) = Default::default();
        for k in 0..cap {
            assert_eq!(m.insert(key(k), k), None);
            n.insert_new(key(k), k);
        }
        // The 16th key stays inline.
        assert_eq!((m.len(), m.is_spilled()), (INLINE_CAP, false));
        assert_eq!((n.len(), n.is_spilled()), (INLINE_CAP, false));
        assert_eq!(m.spill_capacity(), 0, "nothing allocated yet");
        // Hits and misses while inline and full.
        assert_eq!(m.get(key(0)), Some(0));
        assert_eq!(m.get(key(cap - 1)), Some(cap - 1));
        assert_eq!(m.get(key(cap)), None);
        // An overwrite at `len == INLINE_CAP` does not spill.
        assert_eq!(m.insert(key(cap - 1), 100), Some(cap - 1));
        assert_eq!((m.len(), m.is_spilled()), (INLINE_CAP, false));
        assert_eq!(m.get(key(cap - 1)), Some(100));
        // The 17th key spills and keeps every entry.
        assert_eq!(m.insert(key(cap), cap), None);
        n.insert_new(key(cap), cap);
        for map in [&m, &n] {
            assert!(map.is_spilled());
            assert_eq!(map.len(), INLINE_CAP + 1);
            for k in 0..cap - 1 {
                assert_eq!(map.get(key(k)), Some(k), "key {k}");
            }
            assert_eq!(map.get(key(cap)), Some(cap));
            assert_eq!(map.get(key(cap + 1)), None, "a miss once spilled");
            assert_eq!(map.iter().count(), INLINE_CAP + 1);
        }
        assert_eq!(m.get(key(cap - 1)), Some(100), "the overwrite moved too");
        assert_eq!(n.get(key(cap - 1)), Some(cap - 1));
        // Overwrites once spilled, and a clear back to the inline half.
        assert_eq!(m.insert(key(0), 7), Some(0));
        assert_eq!(m.get(key(0)), Some(7));
        m.clear();
        assert_eq!((m.len(), m.is_spilled()), (0, false));
        assert_eq!(m.get(key(0)), None);
        assert_eq!(m.insert(key(0), 1), None);
        assert_eq!((m.get(key(0)), m.is_spilled()), (Some(1), false));
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
            m.clear();
            assert_eq!(m.iter().count(), 0);
        }
        assert_eq!(m.spill_capacity(), big_cap, "capacity still retained");
    }

    #[test]
    fn randomized_against_std_hashmap() {
        // Deterministic pseudo-random op stream, mirrored into a std map.
        // A wide key space and rare clears keep most steps spilled and
        // double the table several times.
        let mut m: SmallMap<u64, u64> = SmallMap::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        // Every entry, compared before each clear and at the end.
        let assert_same = |m: &SmallMap<u64, u64>, reference: &HashMap<u64, u64>| {
            let mut got: Vec<_> = m.iter().collect();
            got.sort_unstable();
            let mut want: Vec<_> = reference.iter().map(|(&k, &v)| (k, v)).collect();
            want.sort_unstable();
            assert_eq!(got, want);
        };
        let mut x = 0x0123_4567_89AB_CDEF_u64;
        for step in 0..50_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 33) % 4096;
            let op = x % 1000;
            if op == 999 {
                assert_same(&m, &reference);
                m.clear();
                reference.clear();
            } else if op < 500 || reference.contains_key(&key) {
                assert_eq!(m.insert(key, step), reference.insert(key, step));
            } else {
                // The append path, for a key known to be absent.
                m.insert_new(key, step);
                reference.insert(key, step);
            }
            assert_eq!(m.len(), reference.len(), "step {step}");
            assert_eq!(m.get(key), reference.get(&key).copied());
            // A second key, usually absent while the map is small.
            let other = (x >> 13) % 4096;
            assert_eq!(m.get(other), reference.get(&other).copied());
        }
        // Capacity is retained across clears, so this is the peak.
        let cap = m.spill_capacity();
        assert!(cap >= 1024, "the table doubled to only {cap}");
        assert_same(&m, &reference);
    }
}
