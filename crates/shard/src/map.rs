//! Block → shard routing.

use tm_ownership::BlockAddr;
use tm_stm::Route;

/// Maps cache blocks to shards by contiguous block range.
///
/// The heap's block space is cut into `S` contiguous, power-of-two-sized
/// spans: `shard_of(block) = min(block >> span_shift, S - 1)`, where the
/// span covers `ceil(blocks / S)` blocks rounded up to a power of two. A
/// shift-and-clamp keeps the per-access routing cost to two ALU ops — what
/// a single-shard transaction pays, with the home-shard check, over the
/// compile-time one-table route.
///
/// Contiguous ranges (rather than interleaving) are deliberate: workloads
/// control per-shard pressure through their address distribution, which is
/// what the harness's `shard-hot` / `shard-uniform` scenarios exploit.
/// With power-of-two block counts and shard counts the split is exactly
/// even; otherwise later shards cover less (possibly zero) address space —
/// acceptable for an engine whose geometry the builder controls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMap {
    shards: u32,
    /// `block >> span_shift` is the unclamped shard index.
    span_shift: u32,
    /// Total blocks the heap spans (for `block_range` clamping).
    total_blocks: u64,
}

impl ShardMap {
    /// A map cutting `total_blocks` cache blocks into `shards` contiguous
    /// spans.
    pub fn new(shards: usize, total_blocks: u64) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(shards <= u32::MAX as usize, "shard count out of range");
        let per_span = total_blocks
            .div_ceil(shards as u64)
            .max(1)
            .next_power_of_two();
        ShardMap {
            shards: shards as u32,
            span_shift: per_span.trailing_zeros(),
            total_blocks,
        }
    }

    /// A map for a heap of `heap_words` 64-bit words under `block_bytes`
    /// cache blocks.
    pub fn for_heap(shards: usize, heap_words: usize, block_bytes: usize) -> Self {
        let total_blocks = ((heap_words * 8) as u64).div_ceil(block_bytes.max(1) as u64);
        Self::new(shards, total_blocks)
    }

    /// Number of shards.
    #[inline]
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The shard owning `block`.
    #[inline]
    pub fn shard_of(&self, block: BlockAddr) -> u32 {
        // Clamp in u64: a cast-first would truncate huge block addresses.
        (block >> self.span_shift).min(u64::from(self.shards) - 1) as u32
    }

    /// The contiguous block range shard `shard` owns (clamped to the heap;
    /// the last shard absorbs any clamp overflow). Empty for shards beyond
    /// the covered span.
    pub fn block_range(&self, shard: u32) -> std::ops::Range<u64> {
        assert!(shard < self.shards);
        let span = 1u64 << self.span_shift;
        let start = (shard as u64 * span).min(self.total_blocks);
        let end = if shard == self.shards - 1 {
            self.total_blocks
        } else {
            ((shard as u64 + 1) * span).min(self.total_blocks)
        };
        start..end
    }

    /// Total blocks the map covers.
    #[inline]
    pub fn total_blocks(&self) -> u64 {
        self.total_blocks
    }
}

/// The engine's multi-table route: one ownership table per shard, always
/// routed at run time (also at `S = 1`, where every block maps to shard 0).
impl Route for ShardMap {
    const MULTI: bool = true;

    #[inline]
    fn table_count(&self) -> usize {
        self.shards as usize
    }

    #[inline]
    fn table_of(&self, block: BlockAddr) -> u32 {
        self.shard_of(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_split_is_exactly_even() {
        let m = ShardMap::new(4, 1024);
        assert_eq!(m.shards(), 4);
        for s in 0..4 {
            let r = m.block_range(s);
            assert_eq!(r.end - r.start, 256);
            for b in r.clone() {
                assert_eq!(m.shard_of(b), s);
            }
        }
        assert_eq!(m.block_range(0).start, 0);
        assert_eq!(m.block_range(3).end, 1024);
    }

    #[test]
    fn single_shard_owns_everything() {
        let m = ShardMap::new(1, 333);
        for b in [0, 1, 100, 332, 1000] {
            assert_eq!(m.shard_of(b), 0);
        }
        assert_eq!(m.block_range(0), 0..333);
    }

    #[test]
    fn ranges_partition_and_out_of_range_blocks_clamp() {
        let m = ShardMap::new(3, 100);
        let mut covered = 0;
        for s in 0..3 {
            let r = m.block_range(s);
            covered += r.end - r.start;
            for b in r {
                assert_eq!(m.shard_of(b), s);
            }
        }
        assert_eq!(covered, 100);
        // Blocks past the heap clamp to the last shard rather than panic.
        assert_eq!(m.shard_of(1 << 40), 2);
    }

    #[test]
    fn for_heap_derives_block_count() {
        // 4096 words * 8 bytes / 64-byte blocks = 512 blocks.
        let m = ShardMap::for_heap(4, 4096, 64);
        assert_eq!(m.total_blocks(), 512);
        assert_eq!(m.block_range(0), 0..128);
    }
}
