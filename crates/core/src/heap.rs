//! The word-addressed shared heap transactions operate on.
//!
//! A word-based STM tracks ownership of *fixed-size chunks of memory*
//! separately from the data itself (paper §1). [`Heap`] is that data: a flat
//! array of 64-bit words addressed by byte address (8-byte aligned), shared
//! across threads. The heap itself performs no synchronization beyond atomic
//! word access — all ordering guarantees come from ownership acquisition and
//! release in the table (see `tm-ownership`'s `concurrent` module docs).

use std::sync::atomic::{AtomicU64, Ordering};

/// Word size in bytes (the paper's "64-bit on a 64-bit architecture").
pub const WORD_BYTES: u64 = 8;

/// A flat, shared, word-granular memory.
#[derive(Debug)]
pub struct Heap {
    words: Vec<AtomicU64>,
}

impl Heap {
    /// A zero-initialized heap of `num_words` 64-bit words.
    pub fn new(num_words: usize) -> Self {
        let mut words = Vec::with_capacity(num_words);
        words.resize_with(num_words, || AtomicU64::new(0));
        Self { words }
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// `true` when the heap has no words.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.words.len() as u64 * WORD_BYTES
    }

    /// The byte address of word `index` (addresses start at 0).
    pub fn addr_of(&self, index: usize) -> u64 {
        index as u64 * WORD_BYTES
    }

    #[inline]
    fn index_of(&self, addr: u64) -> usize {
        assert!(
            addr.is_multiple_of(WORD_BYTES),
            "unaligned heap address {addr:#x} (words are 8-byte aligned)"
        );
        let idx = (addr / WORD_BYTES) as usize;
        assert!(
            idx < self.words.len(),
            "heap address {addr:#x} out of bounds ({} words)",
            self.words.len()
        );
        idx
    }

    /// Load the word at byte address `addr`.
    ///
    /// Relaxed ordering: inter-thread visibility is established by the
    /// ownership table's acquire/release pairs, which happen-before any data
    /// access they guard.
    #[inline]
    pub fn load(&self, addr: u64) -> u64 {
        self.words[self.index_of(addr)].load(Ordering::Relaxed)
    }

    /// Store `value` to the word at byte address `addr` (see [`Heap::load`]
    /// for the ordering argument).
    #[inline]
    pub fn store(&self, addr: u64, value: u64) {
        self.words[self.index_of(addr)].store(value, Ordering::Relaxed);
    }

    /// Bulk-initialize word `index..index+values.len()` (single-threaded
    /// setup helper).
    pub fn init(&self, index: usize, values: &[u64]) {
        for (i, &v) in values.iter().enumerate() {
            self.words[index + i].store(v, Ordering::Relaxed);
        }
    }

    /// Sum of all words (test/diagnostic helper; racy if used mid-run).
    pub fn checksum(&self) -> u64 {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_round_trip() {
        let h = Heap::new(16);
        assert_eq!(h.len(), 16);
        assert_eq!(h.size_bytes(), 128);
        h.store(0, 42);
        h.store(8, 43);
        assert_eq!(h.load(0), 42);
        assert_eq!(h.load(8), 43);
        assert_eq!(h.load(16), 0);
    }

    #[test]
    fn addr_of_inverts_index() {
        let h = Heap::new(4);
        for i in 0..4 {
            let a = h.addr_of(i);
            h.store(a, i as u64 + 1);
        }
        assert_eq!(h.checksum(), 1 + 2 + 3 + 4);
    }

    #[test]
    fn init_bulk() {
        let h = Heap::new(8);
        h.init(2, &[10, 20, 30]);
        assert_eq!(h.load(h.addr_of(2)), 10);
        assert_eq!(h.load(h.addr_of(4)), 30);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn rejects_unaligned() {
        Heap::new(4).load(3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_out_of_bounds() {
        Heap::new(4).store(64, 1);
    }
}
