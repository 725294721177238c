//! Per-thread counter slots: one cache-line-padded block of counters per
//! thread id, so a hot-path bump is a plain load and store, not a locked
//! read-modify-write.
//!
//! [`Slots<T>`] holds [`SLOTS`] copies of a counter block `T`. Thread ids
//! `0..SHARED` each own slot `me`: only that thread writes it, so a bump
//! there is a `Relaxed` load of the cell and a store of the sum. Every id
//! `≥ SHARED` writes the last slot, which many threads may share, so a
//! bump there stays `fetch_add`. A reader sums the cells of every slot.
//!
//! The single-writer bump rests on the contract every caller of an engine
//! already keeps (`TmEngine::run_with` in `tm-stm`): **an id is used by one
//! thread at a time.** A thread that takes over an id from another must be
//! ordered after it (a join, a channel message, a lock), as every spawn and
//! join is. Two threads that bump one exclusive slot at once lose counts.
//! Every cell is still an atomic, so nothing else is torn, but a counter
//! whose *balance* matters does not recover: a lost bump of `tm-stm`'s
//! publication gate keeps its sums apart for good, and every later
//! read-only transaction retries until its budget runs out (the gate checks
//! for an overlapping bracket in debug builds).
//!
//! Used for every per-transaction counter the engine bumps: `tm-stm`'s
//! commit statistics and publication gate, and the tables' access counts
//! ([`ConcurrentTable::fold`](crate::concurrent::ConcurrentTable::fold)).

use std::sync::atomic::{AtomicU64, Ordering};

/// Slots per [`Slots`] block.
pub const SLOTS: usize = 16;

/// The first thread id that shares a slot: ids `0..SHARED` each own one,
/// every id from `SHARED` on writes slot `SHARED` with `fetch_add`.
pub const SHARED: u32 = SLOTS as u32 - 1;

/// One slot, padded to two cache lines (the adjacent-line prefetcher pulls
/// pairs) so neighbouring slots never false-share.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Padded<T>(T);

/// [`SLOTS`] padded copies of the counter block `T` (see the module docs).
#[derive(Debug)]
pub struct Slots<T> {
    slots: Box<[Padded<T>; SLOTS]>,
}

impl<T: Default> Default for Slots<T> {
    fn default() -> Self {
        Self {
            slots: Box::new(std::array::from_fn(|_| Padded::default())),
        }
    }
}

impl<T> Slots<T> {
    /// The slot thread `me` writes.
    #[inline]
    pub fn get(&self, me: u32) -> Slot<'_, T> {
        Slot {
            cells: &self.slots[me.min(SHARED) as usize].0,
            exclusive: me < SHARED,
        }
    }

    /// Every slot's block, in slot order (for summing).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().map(|p| &p.0)
    }
}

/// The slot one thread id writes: its counter block, and whether the id
/// owns it alone.
#[derive(Debug)]
pub struct Slot<'a, T> {
    cells: &'a T,
    exclusive: bool,
}

impl<'a, T> Slot<'a, T> {
    /// The slot's counter block.
    #[inline]
    pub fn cells(&self) -> &'a T {
        self.cells
    }

    /// Whether this id is the slot's only writer (ids below [`SHARED`]).
    #[inline]
    pub fn is_exclusive(&self) -> bool {
        self.exclusive
    }

    /// Add `n` to `cell`, one of this slot's cells (see
    /// [`add_all`](Self::add_all)).
    #[inline]
    pub fn add(&self, cell: &AtomicU64, n: u64, order: Ordering) {
        self.add_all([(cell, n)], order);
    }

    /// Add each `n` to its `cell`, all of them this slot's cells, storing
    /// with `order` (`Relaxed`, `Release` or `SeqCst`). An exclusive slot
    /// loads each cell `Relaxed` — its own last store — and stores the sum:
    /// no locked instruction. The shared slot adds with `fetch_add`, out of
    /// line and `SeqCst`, and skips zeros.
    #[inline]
    pub fn add_all<const K: usize>(&self, adds: [(&AtomicU64, u64); K], order: Ordering) {
        for (cell, _) in &adds {
            debug_assert!(
                {
                    let (at, base) = (
                        *cell as *const AtomicU64 as usize,
                        self.cells as *const T as usize,
                    );
                    (base..base + std::mem::size_of::<T>()).contains(&at)
                },
                "a slot's bump must land in that slot's cells"
            );
        }
        if self.exclusive {
            for (cell, n) in adds {
                cell.store(cell.load(Ordering::Relaxed).wrapping_add(n), order);
            }
        } else {
            add_shared(&adds);
        }
    }
}

/// The shared slot's bumps, kept out of line so that the code a bump
/// inlines into carries no locked instruction for ids that own their slot.
/// `SeqCst` is at least as strong as any order a caller asks for (on
/// x86-64 every `fetch_add` is the same `lock xadd`).
#[cold]
#[inline(never)]
fn add_shared(adds: &[(&AtomicU64, u64)]) {
    for &(cell, n) in adds {
        if n != 0 {
            cell.fetch_add(n, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default)]
    struct Cell {
        n: AtomicU64,
    }

    fn total(slots: &Slots<Cell>) -> u64 {
        slots.iter().map(|c| c.n.load(Ordering::Relaxed)).sum()
    }

    #[test]
    fn ids_below_shared_own_a_slot_and_the_rest_share_the_last() {
        let slots = Slots::<Cell>::default();
        for me in 0..40u32 {
            let slot = slots.get(me);
            assert_eq!(slot.is_exclusive(), me < SHARED, "id {me}");
            slot.add(&slot.cells().n, u64::from(me) + 1, Ordering::Relaxed);
        }
        let per_slot: Vec<u64> = slots.iter().map(|c| c.n.load(Ordering::Relaxed)).collect();
        assert_eq!(per_slot[..SHARED as usize], (1..=15).collect::<Vec<u64>>());
        assert_eq!(per_slot[SHARED as usize], (16..=40).sum::<u64>());
        assert_eq!(total(&slots), (1..=40).sum::<u64>());
    }

    #[test]
    fn slots_do_not_share_cache_lines() {
        let slots = Slots::<Cell>::default();
        let addr = |me: u32| slots.get(me).cells() as *const Cell as usize;
        for me in 1..SLOTS as u32 {
            assert!(addr(me) - addr(me - 1) >= 128);
        }
    }

    #[test]
    fn sums_are_exact_with_one_thread_per_exclusive_slot_and_many_on_the_shared_one() {
        const PER_THREAD: u64 = 2_000;
        let slots = Slots::<Cell>::default();
        // Ids 0..20: fifteen own a slot, five share the last one.
        std::thread::scope(|s| {
            for me in 0..20u32 {
                let slots = &slots;
                s.spawn(move || {
                    for _ in 0..PER_THREAD {
                        let slot = slots.get(me);
                        slot.add(&slot.cells().n, 1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(total(&slots), 20 * PER_THREAD);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "that slot's cells")]
    fn a_bump_outside_the_slot_is_caught_in_debug() {
        let slots = Slots::<Cell>::default();
        let other = slots.get(1).cells();
        slots.get(0).add(&other.n, 1, Ordering::Relaxed);
    }
}
