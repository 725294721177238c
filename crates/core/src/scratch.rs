//! Recycled per-thread transaction scratch: the allocation-free hot path.
//!
//! Every transaction attempt needs the same small, hot metadata — the
//! ownership log, the speculative write buffer, the written-block set (eager
//! engine), the read-value log and commit acquisition buffers (its
//! cross-table mode), the read validation set and commit lock buffers (lazy
//! engine).
//! Allocating them fresh per attempt (the pre-optimization design: three
//! SipHash `HashMap`s per attempt) puts the allocator and the hash function
//! on the paper's *per-access* critical path, drowning exactly the
//! ownership-table cost structure the experiments measure.
//!
//! This module provides:
//!
//! * [`TxnScratch`] — one bundle of every per-attempt structure, built on
//!   [`SmallMap`] (inline up to 16 entries — the paper's W regime — spilling
//!   to a retained open-addressed table) and retained `Vec` buffers.
//! * A **per-thread pool** of scratch bundles. [`ScratchGuard::checkout`]
//!   pops a warmed bundle (or builds the first one); dropping the guard
//!   returns it. A retry loop therefore performs **zero heap allocations
//!   and zero rehashes after warm-up**: every attempt reuses the same
//!   spill tables and buffers, cleared in O(footprint).
//!
//! The pool is a stack, so nested transactions on one thread (a body that
//! drives another engine, as some tests do) simply check out a second
//! bundle. Bundles are cleared at checkout — the single authority for the
//! no-state-leak guarantee the recycling property tests assert.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

use tm_ownership::concurrent::Held;
use tm_ownership::EntryIndex;

pub use tm_ownership::smallmap::{SmallKey, SmallMap, INLINE_CAP};

/// Bundles checked back into a thread's pool beyond this depth are freed
/// instead (bounds memory if something checks out deep nests once).
const MAX_POOLED: usize = 8;

/// Every per-attempt data structure a transaction (eager or lazy) needs,
/// allocated at most once per thread and recycled across attempts and
/// transactions.
#[derive(Debug, Default)]
pub struct TxnScratch {
    /// Eager engine: grant key → held level (the ownership log).
    pub(crate) log: SmallMap<u64, Held>,
    /// Both engines: speculative write buffer, word address → value.
    pub(crate) wbuf: SmallMap<u64, u64>,
    /// Both engines: distinct written blocks (the model's observed `W`).
    pub(crate) write_blocks: SmallMap<u64, ()>,
    /// Cross-table mode: distinct blocks read outside the write buffer.
    pub(crate) read_blocks: SmallMap<u64, ()>,
    /// Cross-table mode: read-value log `(addr, value)` for commit
    /// validation and mid-body revalidation when the publication epoch
    /// moves.
    pub(crate) rlog: Vec<(u64, u64)>,
    /// Cross-table mode: distinct touched blocks in first-touch order — the
    /// commit acquisition plan's base order (what `AcquireOrder::Unordered`
    /// exposes raw and `ShardOrdered` sorts).
    pub(crate) touched: Vec<u64>,
    /// Cross-table commit: footprint acquisition plan
    /// `(table, grant key, write?, representative block)`.
    pub(crate) acq: Vec<(u32, u64, bool, u64)>,
    /// Cross-table commit: grants acquired so far `(table, grant key,
    /// held)`, released on commit completion or acquisition/validation
    /// failure.
    pub(crate) cgrants: Vec<(u32, u64, Held)>,
    /// Lazy engine: entry → (version observed at first read, fingerprint of
    /// the block read there — for abort-cause attribution at validation).
    pub(crate) read_set: SmallMap<EntryIndex, (u64, u32)>,
    /// Lazy commit: sorted, deduplicated write-set entries with the
    /// fingerprint to install while locked.
    pub(crate) entry_buf: Vec<(EntryIndex, u32)>,
    /// Lazy commit: entries locked so far, with their pre-lock versions and
    /// fingerprints (restored verbatim on abort).
    pub(crate) locked_buf: Vec<(EntryIndex, u64, u32)>,
}

impl TxnScratch {
    /// Clear every structure, retaining all backing storage. Inline: a
    /// store per structure, and a branch per map to its out-of-line
    /// spilled clear.
    #[inline]
    pub fn reset(&mut self) {
        self.log.clear();
        self.wbuf.clear();
        self.write_blocks.clear();
        self.read_blocks.clear();
        self.rlog.clear();
        self.touched.clear();
        self.acq.clear();
        self.cgrants.clear();
        self.read_set.clear();
        self.entry_buf.clear();
        self.locked_buf.clear();
    }

    /// `true` when every structure is empty (the state a fresh attempt must
    /// observe; exposed for the recycling tests).
    pub fn is_clear(&self) -> bool {
        self.log.is_empty()
            && self.wbuf.is_empty()
            && self.write_blocks.is_empty()
            && self.read_blocks.is_empty()
            && self.rlog.is_empty()
            && self.touched.is_empty()
            && self.acq.is_empty()
            && self.cgrants.is_empty()
            && self.read_set.is_empty()
            && self.entry_buf.is_empty()
            && self.locked_buf.is_empty()
    }
}

thread_local! {
    // Boxed deliberately: checkout/return must move a pointer, not the
    // multi-hundred-byte bundle (and the guard needs a stable allocation).
    #[allow(clippy::vec_box)]
    static POOL: RefCell<Vec<Box<TxnScratch>>> = const { RefCell::new(Vec::new()) };
}

/// Exclusive ownership of one pooled [`TxnScratch`] for the duration of a
/// transaction attempt sequence; returns it to this thread's pool on drop.
#[derive(Debug)]
pub struct ScratchGuard {
    scratch: Option<Box<TxnScratch>>,
}

impl ScratchGuard {
    /// Check a cleared scratch bundle out of the current thread's pool
    /// (allocating only when the pool is empty — i.e. the first use on a
    /// thread, or one level deeper than ever nested before).
    #[inline]
    pub fn checkout() -> Self {
        let mut scratch = POOL
            .with(|p| p.borrow_mut().pop())
            .unwrap_or_else(Self::fresh);
        scratch.reset();
        Self {
            scratch: Some(scratch),
        }
    }

    /// A new bundle, for a thread's first checkout at this nesting depth.
    #[cold]
    #[inline(never)]
    fn fresh() -> Box<TxnScratch> {
        Box::default()
    }
}

impl Deref for ScratchGuard {
    type Target = TxnScratch;

    #[inline]
    fn deref(&self) -> &TxnScratch {
        self.scratch.as_ref().expect("scratch present until drop")
    }
}

impl DerefMut for ScratchGuard {
    #[inline]
    fn deref_mut(&mut self) -> &mut TxnScratch {
        self.scratch.as_mut().expect("scratch present until drop")
    }
}

impl Drop for ScratchGuard {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            // `try_with`: during thread teardown the TLS slot may already be
            // destroyed — then the bundle is simply freed.
            let _ = POOL.try_with(|p| {
                let mut pool = p.borrow_mut();
                if pool.len() < MAX_POOLED {
                    pool.push(scratch);
                }
            });
        }
    }
}

/// Number of idle scratch bundles pooled on the current thread
/// (diagnostic, used by recycling tests).
pub fn pooled_on_this_thread() -> usize {
    POOL.with(|p| p.borrow().len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_recycles_one_bundle() {
        // Drain whatever earlier tests pooled.
        let drained: Vec<ScratchGuard> = (0..pooled_on_this_thread())
            .map(|_| ScratchGuard::checkout())
            .collect();
        let base = pooled_on_this_thread();
        assert_eq!(base, 0);
        {
            let mut g = ScratchGuard::checkout();
            g.wbuf.insert(8, 1);
            // The cross-table buffers ride in the same bundle.
            g.read_blocks.insert(1, ());
            g.rlog.push((0, 0));
            g.touched.push(1);
            g.acq.push((0, 0, false, 1));
            g.cgrants.push((0, 0, Held::Read));
            assert_eq!(pooled_on_this_thread(), 0);
        }
        assert_eq!(pooled_on_this_thread(), 1);
        // The recycled bundle comes back cleared.
        let g = ScratchGuard::checkout();
        assert!(g.is_clear());
        assert_eq!(pooled_on_this_thread(), 0);
        drop(g);
        drop(drained);
    }

    #[test]
    fn nested_checkouts_get_distinct_bundles() {
        let mut a = ScratchGuard::checkout();
        let mut b = ScratchGuard::checkout();
        a.wbuf.insert(0, 1);
        b.wbuf.insert(0, 2);
        assert_eq!(a.wbuf.get(0), Some(1));
        assert_eq!(b.wbuf.get(0), Some(2));
    }

    #[test]
    fn reset_retains_spill_capacity() {
        let mut g = ScratchGuard::checkout();
        for k in 0..100u64 {
            g.log.insert(k, Held::Write);
        }
        g.rlog.extend((0..100u64).map(|a| (a, a)));
        let cap = g.log.spill_capacity();
        let rlog_cap = g.rlog.capacity();
        assert!(cap > 0);
        g.reset();
        assert!(g.is_clear());
        assert_eq!(g.log.spill_capacity(), cap);
        assert_eq!(g.rlog.capacity(), rlog_cap);
    }
}
