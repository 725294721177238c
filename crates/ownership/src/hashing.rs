//! Address-to-block and block-to-entry mapping.
//!
//! The paper maps program data to ownership-table entries "by hashing the
//! (virtual) address" at cache-block granularity (Figure 1 uses 32-byte
//! blocks; the experiments use 64-byte blocks). Section 4 notes that real
//! traces contain runs of consecutive addresses which, "through many hash
//! functions", map to consecutive entries — so the hash function is a design
//! knob worth keeping pluggable. We provide the two canonical choices:
//!
//! * [`HashKind::Mask`] — take the block address modulo the table size
//!   (power of two). Consecutive blocks map to consecutive entries, exactly
//!   the behaviour the paper describes for simple hashes.
//! * [`HashKind::Multiplicative`] — Fibonacci multiplicative hashing, which
//!   scatters consecutive blocks pseudo-randomly and therefore matches the
//!   model's uniformity assumption more closely.

/// A cache-block address: the byte address right-shifted by the block shift.
pub type BlockAddr = u64;

/// Index of an entry in the first-level ownership table.
pub type EntryIndex = usize;

/// Knuth's multiplicative constant: ⌊2^64 / φ⌋, odd.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Maps raw byte addresses to cache-block addresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockMapper {
    shift: u32,
}

impl BlockMapper {
    /// A mapper for blocks of `block_bytes` (must be a power of two).
    ///
    /// # Panics
    /// Panics if `block_bytes` is zero or not a power of two.
    pub fn new(block_bytes: usize) -> Self {
        assert!(
            block_bytes.is_power_of_two(),
            "block size must be a power of two, got {block_bytes}"
        );
        Self {
            shift: block_bytes.trailing_zeros(),
        }
    }

    /// The block containing byte address `addr`.
    #[inline]
    pub fn block_of(&self, addr: u64) -> BlockAddr {
        addr >> self.shift
    }

    /// The first byte address of `block`.
    #[inline]
    pub fn base_addr(&self, block: BlockAddr) -> u64 {
        block << self.shift
    }

    /// Block size in bytes.
    #[inline]
    pub fn block_bytes(&self) -> usize {
        1usize << self.shift
    }

    /// log2 of the block size.
    #[inline]
    pub fn shift(&self) -> u32 {
        self.shift
    }
}

impl Default for BlockMapper {
    /// 64-byte blocks, the configuration of the paper's experiments.
    fn default() -> Self {
        Self::new(64)
    }
}

/// The block-to-entry hash function family.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum HashKind {
    /// `block & (N-1)`: consecutive blocks hit consecutive entries.
    Mask,
    /// Fibonacci multiplicative hashing: `(block * FIB) >> (64 - log2 N)`.
    #[default]
    Multiplicative,
}

impl HashKind {
    /// Map `block` to an entry index in a table of `n` entries
    /// (`n` must be a power of two).
    #[inline]
    pub fn index(self, block: BlockAddr, n: usize) -> EntryIndex {
        debug_assert!(n.is_power_of_two());
        match self {
            HashKind::Mask => (block as usize) & (n - 1),
            HashKind::Multiplicative => {
                let log2 = n.trailing_zeros();
                if log2 == 0 {
                    0
                } else {
                    (block.wrapping_mul(FIB) >> (64 - log2)) as usize
                }
            }
        }
    }
}

/// Configuration shared by every table organization: entry count, cache-block
/// geometry, hash function, and whether the (tagless) table should keep an
/// out-of-band oracle for classifying conflicts as true or false.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableConfig {
    num_entries: usize,
    mapper: BlockMapper,
    hash: HashKind,
    classify_conflicts: bool,
    max_threads: usize,
}

/// Default [`TableConfig::max_threads`]: comfortably above any machine the
/// paper's experiments (≤ 8 hardware threads) or this workspace's harness
/// target, while keeping pre-sized per-thread state small.
pub const DEFAULT_MAX_THREADS: usize = 64;

impl TableConfig {
    /// A table of `num_entries` entries (power of two), 64-byte blocks,
    /// multiplicative hashing, and no conflict classification.
    ///
    /// # Panics
    /// Panics if `num_entries` is zero or not a power of two.
    pub fn new(num_entries: usize) -> Self {
        assert!(
            num_entries.is_power_of_two(),
            "table size must be a power of two, got {num_entries}"
        );
        Self {
            num_entries,
            mapper: BlockMapper::default(),
            hash: HashKind::default(),
            classify_conflicts: false,
            max_threads: DEFAULT_MAX_THREADS,
        }
    }

    /// Expected upper bound on concurrently active thread ids. Per-thread
    /// state is sized from it: the tagless table's conflict-classification
    /// hint rows (ids at or above the bound go unclassified) and
    /// `tm-adaptive`'s holder slots (ids beyond it share a slot).
    pub fn with_max_threads(mut self, max_threads: usize) -> Self {
        self.max_threads = max_threads.max(1);
        self
    }

    /// Use blocks of `block_bytes` (power of two). The paper's experiments
    /// use 64-byte blocks; Figure 1 illustrates 32-byte blocks.
    pub fn with_block_bytes(mut self, block_bytes: usize) -> Self {
        self.mapper = BlockMapper::new(block_bytes);
        self
    }

    /// Select the block-to-entry hash function.
    pub fn with_hash(mut self, hash: HashKind) -> Self {
        self.hash = hash;
        self
    }

    /// Enable the out-of-band oracle that lets a *tagless* table report
    /// whether each conflict was false (an alias between distinct blocks) or
    /// true (same block). This costs extra memory and is intended for
    /// experiments, not production use.
    pub fn with_conflict_classification(mut self, on: bool) -> Self {
        self.classify_conflicts = on;
        self
    }

    /// Entry count `N`.
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.num_entries
    }

    /// The address-to-block mapper.
    #[inline]
    pub fn mapper(&self) -> BlockMapper {
        self.mapper
    }

    /// The block-to-entry hash.
    #[inline]
    pub fn hash(&self) -> HashKind {
        self.hash
    }

    /// Whether conflict classification is enabled.
    #[inline]
    pub fn classify_conflicts(&self) -> bool {
        self.classify_conflicts
    }

    /// Expected upper bound on thread ids (see
    /// [`TableConfig::with_max_threads`]).
    #[inline]
    pub fn max_threads(&self) -> usize {
        self.max_threads
    }

    /// Entry index for a cache block.
    #[inline]
    pub fn entry_of(&self, block: BlockAddr) -> EntryIndex {
        self.hash.index(block, self.num_entries)
    }

    /// Entry index for a raw byte address.
    #[inline]
    pub fn entry_of_addr(&self, addr: u64) -> EntryIndex {
        self.entry_of(self.mapper.block_of(addr))
    }

    /// Number of tag bits a tagged table must store per record: the address
    /// bits not implied by the block offset or the table index (paper §5's
    /// example: 32-bit addresses, 64 B blocks, 4096 entries → 14 tag bits).
    pub fn tag_bits(&self, address_bits: u32) -> u32 {
        let index_bits = self.num_entries.trailing_zeros();
        address_bits.saturating_sub(self.mapper.shift() + index_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_mapper_round_trip() {
        let m = BlockMapper::new(64);
        assert_eq!(m.block_of(0x100), 4);
        assert_eq!(m.block_of(0x13F), 4);
        assert_eq!(m.base_addr(4), 0x100);
        assert_eq!(m.block_bytes(), 64);
        assert_eq!(m.shift(), 6);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn block_mapper_rejects_non_pow2() {
        BlockMapper::new(48);
    }

    #[test]
    fn mask_hash_is_modulo() {
        for b in 0u64..4096 {
            assert_eq!(HashKind::Mask.index(b, 1024), (b % 1024) as usize);
        }
    }

    #[test]
    fn multiplicative_hash_in_range_and_spreads() {
        let n = 1024;
        let mut hits = vec![0u32; n];
        for b in 0u64..(n as u64 * 8) {
            let i = HashKind::Multiplicative.index(b, n);
            assert!(i < n);
            hits[i] += 1;
        }
        // Every entry should be hit at least once over 8N consecutive blocks —
        // multiplicative hashing spreads runs.
        assert!(hits.iter().all(|&h| h > 0));
    }

    #[test]
    fn multiplicative_hash_single_entry_table() {
        assert_eq!(HashKind::Multiplicative.index(12345, 1), 0);
    }

    #[test]
    fn consecutive_blocks_consecutive_entries_under_mask() {
        // The paper's §4 observation: simple hashes map consecutive blocks to
        // consecutive entries.
        let n = 4096;
        for b in 100u64..200 {
            let i = HashKind::Mask.index(b, n);
            let j = HashKind::Mask.index(b + 1, n);
            assert_eq!((i + 1) % n, j);
        }
    }

    #[test]
    fn config_tag_bits_matches_paper_example() {
        // Paper §5: 32-bit architecture, 64-byte blocks, 4096-entry table
        // → 32 - 6 - 12 = 14 tag bits.
        let cfg = TableConfig::new(4096).with_block_bytes(64);
        assert_eq!(cfg.tag_bits(32), 14);
        // 64-bit addresses leave 46 bits.
        assert_eq!(cfg.tag_bits(64), 46);
    }

    #[test]
    fn config_entry_of_addr_composes() {
        let cfg = TableConfig::new(256)
            .with_block_bytes(64)
            .with_hash(HashKind::Mask);
        assert_eq!(cfg.entry_of_addr(0x100), (0x100u64 >> 6) as usize & 255);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn config_rejects_non_pow2() {
        TableConfig::new(1000);
    }
}
