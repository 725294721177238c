//! Integrity of live resizes: grants are neither lost nor spuriously
//! conflicted while the table is swapped under concurrent writers.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use tm_adaptive::{adaptive_stm, resizable_tagless, ResizeError, ResizePolicy};
use tm_ownership::concurrent::{ConcurrentTable, Held};
use tm_ownership::{Access, HashKind, TableConfig};
use tm_stm::{ReadOps, TmEngine, TxnOps};

/// Transactional counters stay exact while a background thread resizes the
/// table through five geometries: a lost write grant would let increments
/// race (wrong sum), a lost-then-leaked one would wedge a thread.
#[test]
fn counters_stay_exact_across_live_resizes() {
    let (stm, _ctl) = adaptive_stm(1 << 12, 64, ResizePolicy::default(), 4);
    let stm = Arc::new(stm);
    let threads = 4u32;
    let increments = 400u64;
    let stop = AtomicBool::new(false);

    crossbeam::scope(|s| {
        let (stm, stop) = (&stm, &stop);
        for id in 0..threads {
            s.spawn(move |_| {
                // The test is about increments that overlap swaps, so none
                // starts before the resizer's first one: on one core the
                // workers could otherwise finish before it is scheduled.
                while stm.table().resize_stats().resizes == 0 {
                    std::thread::yield_now();
                }
                for i in 0..increments {
                    stm.run(id, |txn| {
                        let v = txn.read(0)?;
                        txn.write(0, v + 1)?;
                        // Touch a rotating second block to keep footprints
                        // nontrivial during migrations.
                        txn.write(64 * (1 + (i % 32)), v)?;
                        Ok(())
                    });
                }
            });
        }
        s.spawn(move |_| {
            let mut size = 64usize;
            while !stop.load(Ordering::Acquire) {
                size = if size >= 1 << 14 { 64 } else { size << 2 };
                let _ = stm.table().resize_to(size);
                std::thread::yield_now();
            }
        });
        // First four spawns are the workers; wait for them by joining via a
        // sentinel: workers finish, then we stop the resizer.
        // (crossbeam scope joins everything at the end; the stop flag is
        // flipped from the main thread once workers are done.)
        // Spawned workers signal completion through the heap value itself.
        let expect = (threads as u64) * increments;
        while stm.heap().load(0) < expect {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Release);
    })
    .unwrap();

    assert_eq!(stm.heap().load(0), (threads as u64) * increments);
    assert_eq!(stm.stats().commits, (threads as u64) * increments);
    assert_eq!(stm.table().live_grants(), 0, "grants leaked across resizes");
    assert!(
        stm.table().resize_stats().resizes > 0,
        "resizer never actually swapped"
    );
}

/// Mutual exclusion is preserved through swaps: writers guard a critical
/// section per block; two writers inside the same block at once would mean
/// a grant was dropped mid-migration.
#[test]
fn write_exclusion_holds_through_swaps() {
    let table = Arc::new(resizable_tagless(
        TableConfig::new(64).with_hash(HashKind::Multiplicative),
    ));
    const BLOCKS: usize = 32;
    let in_cs: Vec<AtomicU64> = (0..BLOCKS).map(|_| AtomicU64::new(0)).collect();
    let stop = AtomicBool::new(false);

    crossbeam::scope(|s| {
        let (table, in_cs, stop) = (&table, &in_cs, &stop);
        for id in 0..4u32 {
            s.spawn(move |_| {
                for round in 0..1500u64 {
                    let block = round % BLOCKS as u64;
                    if table.acquire(id, block, Access::Write, Held::None).is_ok() {
                        let prev = in_cs[block as usize].fetch_add(1, Ordering::SeqCst);
                        assert_eq!(prev, 0, "two writers inside block {block}");
                        in_cs[block as usize].fetch_sub(1, Ordering::SeqCst);
                        table.release(id, block, Held::Write);
                    }
                }
            });
        }
        s.spawn(move |_| {
            let sizes = [128usize, 256, 64, 1024, 128, 64];
            let mut i = 0;
            while !stop.load(Ordering::Acquire) {
                let _ = table.resize_to(sizes[i % sizes.len()]);
                i += 1;
                std::thread::yield_now();
            }
        });
        // Workers run to completion; scope joins them, then we flip stop.
        // Give workers a moment to finish before stopping the resizer:
        // detect completion by polling live grants + a short settle.
        std::thread::sleep(std::time::Duration::from_millis(200));
        stop.store(true, Ordering::Release);
    })
    .unwrap();

    assert_eq!(table.live_grants(), 0);
}

/// Zero spurious conflicts: threads touch disjoint blocks that never alias
/// in *any* of the cycled geometries (blocks < smallest size, mask hash),
/// so every reported conflict would be fabricated by the resize machinery.
#[test]
fn disjoint_blocks_never_conflict_across_resizes() {
    let table = Arc::new(resizable_tagless(
        TableConfig::new(64).with_hash(HashKind::Mask),
    ));
    let stop = AtomicBool::new(false);

    crossbeam::scope(|s| {
        let (table, stop) = (&table, &stop);
        for id in 0..4u32 {
            s.spawn(move |_| {
                // Thread-private block range: 16 blocks each, all < 64.
                let base = id as u64 * 16;
                for round in 0..1200u64 {
                    let block = base + (round % 16);
                    let outcome = table.acquire(id, block, Access::Write, Held::None);
                    assert!(
                        outcome.is_ok(),
                        "thread {id} got a spurious conflict on block {block}: {outcome:?}"
                    );
                    table.release(id, block, Held::Write);
                }
            });
        }
        s.spawn(move |_| {
            // All sizes ≥ 64, so blocks 0..64 stay alias-free under Mask.
            let sizes = [128usize, 64, 512, 256, 64];
            let mut i = 0;
            while !stop.load(Ordering::Acquire) {
                let _ = table.resize_to(sizes[i % sizes.len()]);
                i += 1;
                std::thread::yield_now();
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(200));
        stop.store(true, Ordering::Release);
    })
    .unwrap();

    assert_eq!(table.live_grants(), 0);
}

/// A resize asked for while transactions hold grants is deferred and
/// touches nothing: the active table's grants are identical before and
/// after, still exclude competitors, release cleanly — and then the same
/// resize goes through.
#[test]
fn a_resize_under_held_grants_defers_and_moves_nothing() {
    let table = resizable_tagless(TableConfig::new(32).with_hash(HashKind::Multiplicative));
    let mut held = Vec::new();
    for txn in 0..6u32 {
        for b in 0..8u64 {
            let block = txn as u64 * 100 + b;
            let access = if b % 2 == 0 {
                Access::Write
            } else {
                Access::Read
            };
            if table.acquire(txn, block, access, Held::None).is_ok() {
                held.push((txn, block, Held::None.after(access)));
            }
        }
    }
    assert_eq!(table.live_grants(), held.len());
    let snapshot = || {
        let mut grants = Vec::new();
        table.for_each_grant(&mut |g| grants.push(g));
        grants
    };
    let before = snapshot();

    assert_eq!(table.resize_to(4096), Err(ResizeError::Busy));

    assert_eq!(table.live_entries(), 32);
    assert_eq!(snapshot(), before, "a deferred resize changed the grants");
    for &(txn, block, level) in &held {
        if level == Held::Write {
            assert!(
                table
                    .acquire(99, block, Access::Read, Held::None)
                    .conflict()
                    .is_some(),
                "write grant of txn {txn} on block {block} stopped excluding"
            );
        }
    }
    for (txn, block, level) in held {
        table.release(txn, block, level);
    }
    assert_eq!(table.live_grants(), 0);
    assert!(snapshot().is_empty());

    table.resize_to(4096).unwrap();
    assert_eq!(table.live_entries(), 4096);
    assert_eq!(table.resize_stats().resizes, 1);
    assert_eq!(table.resize_stats().deferred, 1);
}
