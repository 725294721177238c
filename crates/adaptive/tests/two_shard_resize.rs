//! The one hazard a resize between transactions adds: on a sharded
//! adaptive engine, a cross-shard commit can hold grants in one shard while
//! its first acquire in the other waits at that shard's seal. Resizing both
//! shards in a loop under two-shard increments must lose no increment,
//! leak no grant, and finish.

use std::sync::atomic::{AtomicBool, Ordering};

use tm_adaptive::{AdaptiveStmBuilder, ResizePolicy};
use tm_stm::{StmBuilder, TmEngine, TxnOps};

const HEAP_WORDS: usize = 1 << 12;
const WORKERS: u32 = 4;
const INCREMENTS: u64 = 300;

#[test]
fn two_shard_increments_survive_resizes_of_both_shards() {
    let (stm, _controllers) = StmBuilder::new()
        .heap_words(HEAP_WORDS)
        .table_entries(128)
        .shards(2)
        .build_sharded_adaptive(ResizePolicy::default(), WORKERS);
    // One counter per worker at the start of each shard's block span.
    let counter = |shard: u32, worker: u32| {
        (stm.shard_map().block_range(shard).start + u64::from(worker)) * 64
    };
    let stop = AtomicBool::new(false);

    crossbeam::scope(|s| {
        let (stm, stop, counter) = (&stm, &stop, &counter);
        let workers: Vec<_> = (0..WORKERS)
            .map(|id| {
                s.spawn(move |_| {
                    // Every increment should overlap resizes: start after
                    // both shards have swapped once.
                    while (0..2).any(|i| stm.shard_table(i).resize_stats().resizes == 0) {
                        std::thread::yield_now();
                    }
                    for i in 0..INCREMENTS {
                        let first = (i % 2) as u32;
                        stm.run(id, |txn| {
                            txn.update_add(counter(first, id), 1)?;
                            std::thread::yield_now();
                            txn.update_add(counter(1 - first, id), 1)?;
                            Ok(())
                        });
                    }
                })
            })
            .collect();
        for shard in 0..2 {
            s.spawn(move |_| {
                let sizes = [256usize, 1024, 64, 4096, 128];
                let mut i = 0;
                while !stop.load(Ordering::Acquire) {
                    let _ = stm.shard_table(shard).resize_to(sizes[i % sizes.len()]);
                    i += 1;
                    std::thread::yield_now();
                }
            });
        }
        for w in workers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Release);
    })
    .unwrap();

    let commits = stm.stats().commits;
    assert_eq!(commits, u64::from(WORKERS) * INCREMENTS);
    assert_eq!(
        stm.heap_sum(HEAP_WORDS),
        2 * commits,
        "an increment was lost"
    );
    for shard in 0..2 {
        let table = stm.shard_table(shard);
        assert!(
            table.resize_stats().resizes > 0,
            "shard {shard} never swapped"
        );
        assert_eq!(table.live_grants(), 0, "shard {shard} leaked grants");
    }
}
