//! `TxAlloc` property tests: the transactional allocator must never leak
//! or double-hand-out a cell, no matter how alloc/free transactions
//! interleave with aborts.
//!
//! The central property is the **drained free list**: after any sequence
//! of allocations, frees, and abort storms (transactions that allocate
//! and/or free and then abort), the pool's accounting is exact —
//! `live + free == capacity`, every live handle is distinct, and draining
//! the pool yields exactly the remaining capacity before `CapacityError`.
//! Because all allocator state lives in transactional words, an aborted
//! attempt must contribute *nothing*, on the eager and lazy engines alike.

use proptest::prelude::*;

use tm_stm::{Aborted, Region, StmBuilder, TRef, TmEngine, TxAlloc};

const CAPACITY: u64 = 24;
const HEAP_WORDS: usize = 1 << 12;

/// One step of the allocator workout.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Allocate one cell holding `value` (no-op observation when full).
    Alloc(u64),
    /// Free the `i % live`-th live cell (no-op when none are live).
    Free(usize),
    /// Abort storm: allocate up to `n` cells and free up to half the live
    /// set inside one transaction — then abort it. Must leave no trace.
    Storm { allocs: u8, frees: u8 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u64..1000).prop_map(Step::Alloc),
        (0usize..64).prop_map(Step::Free),
        ((0u8..8), (0u8..8)).prop_map(|(allocs, frees)| Step::Storm { allocs, frees }),
    ]
}

/// Apply the steps on `engine`, keeping a shadow set of live handles.
/// Returns the live handles with their expected values.
fn workout<E: TmEngine>(engine: &E, pool: &TxAlloc<u64>, steps: &[Step]) -> Vec<(TRef<u64>, u64)> {
    let mut live: Vec<(TRef<u64>, u64)> = Vec::new();
    for step in steps {
        match *step {
            Step::Alloc(value) => {
                let got = engine.run(0, |txn| pool.alloc(txn, value));
                if let Ok(r) = got {
                    live.push((r, value));
                } else {
                    assert_eq!(live.len() as u64, CAPACITY, "spurious CapacityError");
                }
            }
            Step::Free(i) => {
                if !live.is_empty() {
                    let (r, _) = live.remove(i % live.len());
                    engine.run(0, |txn| pool.free(txn, r));
                }
            }
            Step::Storm { allocs, frees } => {
                let mut attempt = 0u32;
                let live_snapshot: Vec<TRef<u64>> = live.iter().map(|&(r, _)| r).collect();
                engine.run(0, |txn| {
                    attempt += 1;
                    if attempt == 1 {
                        // Dirty the allocator hard, then abort wholesale.
                        for k in 0..allocs as u64 {
                            let _ = pool.alloc(txn, 0xDEAD_0000 + k)?;
                        }
                        for r in live_snapshot.iter().take(frees as usize) {
                            pool.free(txn, *r)?;
                        }
                        return Err(Aborted);
                    }
                    Ok(())
                });
            }
        }
    }
    live
}

/// The accounting checks shared by both engines.
fn verify<E: TmEngine>(engine: &E, pool: &TxAlloc<u64>, live: &[(TRef<u64>, u64)]) {
    // Exact accounting despite the storms.
    let free = engine.run(0, |txn| pool.free_cells(txn));
    assert_eq!(
        live.len() as u64 + free,
        CAPACITY,
        "cells leaked or double-freed"
    );
    // Live handles are distinct cells with their values intact.
    let mut addrs: Vec<u64> = live.iter().map(|&(r, _)| r.addr()).collect();
    addrs.sort_unstable();
    addrs.dedup();
    assert_eq!(addrs.len(), live.len(), "a cell was handed out twice");
    for &(r, v) in live {
        assert_eq!(
            engine.run(0, |txn| r.get(txn)),
            v,
            "live cell value corrupted"
        );
    }
    // Drain the free list: exactly the remaining capacity is allocatable,
    // each drained cell distinct from every live one, then CapacityError.
    let drained = engine.run(0, |txn| {
        let mut drained = Vec::new();
        while let Ok(r) = pool.alloc(txn, 0xF00D)? {
            drained.push(r);
        }
        Ok(drained)
    });
    assert_eq!(drained.len() as u64, free, "drain disagrees with audit");
    let mut all: Vec<u64> = drained
        .iter()
        .chain(live.iter().map(|(r, _)| r))
        .map(|r| r.addr())
        .collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len() as u64, CAPACITY, "drain re-handed a live cell");
    // Free the drained cells again so the pool ends balanced.
    engine.run(0, |txn| {
        for r in &drained {
            pool.free(txn, *r)?;
        }
        Ok(())
    });
    assert_eq!(
        engine.run(0, |txn| pool.free_cells(txn)),
        free,
        "post-drain refill imbalanced"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The drained-free-list property on the eager tagged engine.
    #[test]
    fn no_leaks_under_abort_storms_eager(
        steps in proptest::collection::vec(step_strategy(), 1..80),
    ) {
        let stm = StmBuilder::new()
            .heap_words(HEAP_WORDS)
            .table_entries(512)
            .build_tagged();
        let mut region = Region::new(0, (HEAP_WORDS as u64) * 8);
        let pool = region.alloc_pool::<u64>(CAPACITY);
        let live = workout(&stm, &pool, &steps);
        verify(&stm, &pool, &live);
    }

    /// The identical property on the lazy TL2-style engine, whose rollback
    /// mechanism (buffered writes never published) is entirely different.
    #[test]
    fn no_leaks_under_abort_storms_lazy(
        steps in proptest::collection::vec(step_strategy(), 1..80),
    ) {
        let stm = StmBuilder::new()
            .heap_words(HEAP_WORDS)
            .table_entries(512)
            .build_lazy();
        let mut region = Region::new(0, (HEAP_WORDS as u64) * 8);
        let pool = region.alloc_pool::<u64>(CAPACITY);
        let live = workout(&stm, &pool, &steps);
        verify(&stm, &pool, &live);
    }

    /// Aliasing tables change abort counts, never allocator accounting: a
    /// 4-entry tagless table forces constant false conflicts through the
    /// retry machinery, and the pool must still balance.
    #[test]
    fn no_leaks_under_heavy_aliasing(
        steps in proptest::collection::vec(step_strategy(), 1..40),
    ) {
        let stm = StmBuilder::new()
            .heap_words(HEAP_WORDS)
            .table_entries(4)
            .build_tagless();
        let mut region = Region::new(0, (HEAP_WORDS as u64) * 8);
        let pool = region.alloc_pool::<u64>(CAPACITY);
        let live = workout(&stm, &pool, &steps);
        verify(&stm, &pool, &live);
    }
}
