//! The per-thread counter slots under real threads, as exact counts.
//!
//! The engine's commit statistics, its publication gate and the table's
//! access counts each keep one counter slot per thread id: ids `0..15` own
//! theirs and bump it with a plain load and store, ids from 15 on share the
//! last slot and bump it with `fetch_add`. Here twenty threads with ids
//! `0..20` — fifteen owners and five sharers — run update and read-only
//! transactions on disjoint blocks of an eager tagless engine. Nothing
//! conflicts (every thread's blocks sit in entries of their own), so every
//! total is known in advance, and a count lost in any slot shows as a
//! mismatch.

use tm_birthday::ownership::HashKind;
use tm_birthday::prelude::*;
use tm_birthday::stm::ConcurrentTable;

const THREADS: u32 = 20;
/// Update transactions per thread, and as many read-only ones.
const TXNS: u64 = 2_000;
const BLOCK: u64 = 64;
/// Far more attempts than a read-only transaction needs to find a moment
/// when no writer is mid-publication, even with writers preempted inside
/// their brackets.
const READ_BUDGET: RetryPolicy = RetryPolicy::Bounded {
    max_attempts: 10_000,
};

#[test]
fn twenty_threads_count_exactly_through_owned_and_shared_slots() {
    // Thread `t` reads block `2t` and increments a word of block `2t + 1`;
    // under the mask hash the forty blocks land in forty distinct entries.
    let stm = StmBuilder::new()
        .heap_words(1 << 12)
        .table_entries(1024)
        .hash(HashKind::Mask)
        .build_tagless();
    std::thread::scope(|s| {
        for me in 0..THREADS {
            let stm = &stm;
            s.spawn(move || {
                let (read, counter) = (2 * u64::from(me) * BLOCK, (2 * u64::from(me) + 1) * BLOCK);
                for i in 1..=TXNS {
                    stm.run(me, |txn| {
                        txn.read(read)?;
                        txn.update_add(counter, 1).map(|_| ())
                    });
                    // Bounded: a publication bump lost in a slot leaves the
                    // gate's sums apart for good, and an unbounded read
                    // would wait for a quiescent gate forever.
                    let seen = stm
                        .run_read_with(me, READ_BUDGET, |txn| txn.read(counter))
                        .expect("the gate never came back to quiescent");
                    assert_eq!(seen, i, "thread {me} reads its own commits");
                }
            });
        }
    });

    let txns = u64::from(THREADS) * TXNS;
    let stats = stm.stats();
    assert_eq!(stats.aborts, 0, "disjoint entries never conflict");
    assert_eq!(stats.commits, txns);
    assert_eq!(stats.read_only_commits, txns);
    assert_eq!(stats.committed_write_blocks, txns);
    assert_eq!(stats.committed_grant_blocks, 2 * txns);

    let table = stm.table().stats_snapshot();
    assert_eq!(table.read_acquires, txns);
    assert_eq!(table.write_acquires, txns);
    assert_eq!(table.grants, 2 * txns);
    assert_eq!(table.grants, table.releases);
    assert_eq!(table.total_conflicts(), 0);

    // Every update transaction published once; every bracket closed.
    assert_eq!(stm.publish_gate().reader_epoch(), Some(txns));
}
