//! Golden pin for the eager engine's stall path: what a conflicted
//! acquire under `ContentionPolicy::Stall` tells the table, the engine's
//! counters and the probe, count by count.
//!
//! `tests/retry_driver_goldens.rs` runs every body under the default
//! abort policy, so each of its lines reads `stall_retries=0`. Here one
//! thread plays both transactions, in the nested shape of the benchmark's
//! `Lockstep` pair: transaction A (id 0) writes block 0 and, while it
//! holds that `Write` grant, runs transaction B (id 1) with a budget of
//! one attempt. B writes block 16, which aliases entry 0 of a 16-entry
//! mask-hashed tagless table. With `max_spins: 3` B's acquire is refused
//! once and re-tried three times, all refused, and then B aborts — a
//! false conflict, since the blocks differ. Every count is an exact
//! constant.

use std::sync::Arc;

use tm_birthday::ownership::concurrent::ConcurrentTable;
use tm_birthday::ownership::stats::TableStats;
use tm_birthday::ownership::HashKind;
use tm_birthday::prelude::*;
use tm_birthday::stm::{AbortCause, EventKind, Recorder};

const SPINS: u32 = 3;
/// Block 0 and block 16 share entry 0 of a 16-entry mask table.
const A_ADDR: u64 = 0;
const B_ADDR: u64 = 16 * 64;

/// Thread `thread`'s events, in order: `kind[:cause|:attempts]`.
fn events(recorder: &Recorder, thread: u32) -> String {
    let labels: Vec<String> = recorder
        .snapshot()
        .events
        .iter()
        .filter(|e| e.thread == thread)
        .map(|e| match e.kind {
            EventKind::Abort { cause, .. } => format!("abort:{}", cause.as_str()),
            EventKind::Commit { attempts, .. } => format!("commit:{attempts}"),
            kind => kind.as_str().to_string(),
        })
        .collect();
    labels.join(" ")
}

fn access_counts(s: &TableStats) -> [u64; 6] {
    [
        s.read_acquires,
        s.write_acquires,
        s.grants,
        s.already_held,
        s.upgrades,
        s.releases,
    ]
}

fn conflict_counts(s: &TableStats) -> [u64; 7] {
    [
        s.read_after_write,
        s.write_after_read,
        s.write_after_write,
        s.true_conflicts,
        s.false_conflicts,
        s.unclassified_conflicts,
        s.chain_inserts,
    ]
}

#[test]
fn a_stalled_acquire_spins_its_budget_then_aborts_once() {
    let recorder = Arc::new(Recorder::new());
    let stm = StmBuilder::new()
        .heap_words(1 << 12)
        .table_entries(16)
        .hash(HashKind::Mask)
        .contention(ContentionPolicy::Stall { max_spins: SPINS })
        .probe(Arc::clone(&recorder))
        .build_tagless();

    let mut inner = None;
    let mut inside = None;
    stm.run(0, |a| {
        a.write(A_ADDR, 1)?;
        inner = Some(stm.try_run(1, 1, |b| b.write(B_ADDR, 2)));
        // B has finished and folded its tally; A has not folded yet.
        inside = Some(stm.table().stats_snapshot());
        Ok(())
    });
    assert_eq!(inner, Some(Err(RetryLimitExceeded { attempts: 1 })));

    // B alone: one refused acquire plus three refused re-tries, each a
    // tallied write acquire and a counted write-after-write conflict the
    // word classifies false.
    let b = inside.expect("A's body ran");
    // read_acquires, write_acquires, grants, already_held, upgrades, releases
    assert_eq!(access_counts(&b), [0, 4, 0, 0, 0, 0]);
    // raw, war, waw, true, false, unclassified, chain inserts
    assert_eq!(conflict_counts(&b), [0, 0, 4, 0, 4, 0, 0]);

    // After A commits: A's one write grant and its release join B's.
    let t = stm.table().stats_snapshot();
    assert_eq!(access_counts(&t), [0, 5, 1, 0, 0, 1]);
    assert_eq!(conflict_counts(&t), [0, 0, 4, 0, 4, 0, 0]);

    let s = stm.stats();
    assert_eq!(
        (s.commits, s.aborts, s.stall_retries),
        (1, 1, u64::from(SPINS))
    );
    assert_eq!((s.committed_write_blocks, s.committed_grant_blocks), (1, 1));

    assert_eq!(
        events(&recorder, 1),
        "begin stall stall stall abort:false-conflict"
    );
    assert_eq!(events(&recorder, 0), "begin grant commit:1");
    let snap = recorder.snapshot();
    assert_eq!(snap.cause(AbortCause::FalseConflict), 1);
    assert_eq!(snap.total_aborts(), 1);

    // Only A's write reached the heap.
    assert_eq!(stm.heap().load(A_ADDR), 1);
    assert_eq!(stm.heap().load(B_ADDR), 0);
}
