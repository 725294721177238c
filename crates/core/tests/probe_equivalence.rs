//! Telemetry must be observation-only: an engine driven with the
//! batteries-included `Recorder` probe must produce *exactly* the same
//! `EngineStats` as the same deterministic workload on a `NoopProbe`
//! engine — attaching telemetry may cost time, never semantics. The
//! workload exercises both the write path (`run`) and the wait-free
//! read-only path (`run_read`) so the read-side hooks are covered too.
//!
//! The converse holds as well, on every engine family and both eager
//! routes: what the `Recorder` counted — commits, aborts by cause,
//! read-only commits, read-validation retries — equals the corresponding
//! `EngineStats` field. One driver bumps counter and probe side by side,
//! so the two views cannot drift apart.

use std::sync::Arc;

use tm_stm::{
    AbortCause, ConcurrentTaglessTable, EngineStats, ReadOps, Recorder, Route, Stm, StmBuilder,
    TmEngine, TxnOps,
};

/// A deterministic single-threaded workload with commits, voluntary
/// retries, reads, multi-block writes, and read-only transactions.
fn drive<E: TmEngine>(stm: &E) -> EngineStats {
    for round in 0..50u64 {
        let mut first = true;
        stm.run(0, |txn| {
            // Every third transaction aborts its first attempt.
            if round % 3 == 0 && first {
                first = false;
                return txn.retry();
            }
            let base = (round % 8) * 64;
            let v = txn.read(base)?;
            txn.write(base, v + 1)?;
            txn.write(base + 512, round)?;
            Ok(())
        });
        // Every other round takes the read-only path over the same blocks,
        // and every fourth retries its first read-only attempt.
        if round % 2 == 0 {
            let mut first = true;
            let (a, b) = stm.run_read(0, |txn| {
                if round % 4 == 0 && std::mem::take(&mut first) {
                    return txn.retry();
                }
                let base = (round % 8) * 64;
                Ok((txn.read(base)?, txn.read(base + 512)?))
            });
            assert!(a > 0 && b == round);
        }
    }
    stm.engine_stats()
}

fn builder() -> StmBuilder {
    StmBuilder::new().heap_words(1 << 10).table_entries(256)
}

/// Two tables, split so that `drive`'s `base` and `base + 512` land in
/// different ones: every update escalates to the cross-table commit.
#[derive(Debug)]
struct Halves;

impl Route for Halves {
    const MULTI: bool = true;

    fn table_count(&self) -> usize {
        2
    }

    fn table_of(&self, block: u64) -> u32 {
        u32::from(block >= 8)
    }
}

fn two_tables(recorder: &Arc<Recorder>) -> Stm<ConcurrentTaglessTable, Arc<Recorder>, Halves> {
    let b = builder();
    let tables = (0..2)
        .map(|_| ConcurrentTaglessTable::new(b.table_config()))
        .collect();
    Stm::routed(
        b.configured_heap_words(),
        tables,
        Halves,
        b.configured_contention(),
        Arc::clone(recorder),
    )
}

/// Everything the recorder counted equals the engine's own counters.
#[track_caller]
fn assert_recorder_agrees(recorder: &Recorder, stats: &EngineStats) {
    let snap = recorder.snapshot();
    assert_eq!(snap.txn.count(), stats.commits);
    assert_eq!(snap.attempt.count(), stats.commits + stats.aborts);
    assert_eq!(snap.total_aborts(), stats.aborts);
    // `drive` aborts only by voluntary retry; no other cause may appear.
    assert_eq!(snap.cause(AbortCause::ExplicitRetry), stats.aborts);
    // Read-only outcomes land in their own histogram and counters.
    assert_eq!(snap.read_txn.count(), stats.read_only_commits);
    assert_eq!(snap.read_validation_retries, stats.read_validation_retries);
    assert_eq!(
        snap.read_begins,
        stats.read_only_commits + stats.read_validation_retries
    );
    // And the workload did exercise every one of them.
    assert_eq!(stats.commits, 50);
    assert_eq!(stats.aborts, 17);
    assert_eq!(stats.read_only_commits, 25);
    assert_eq!(stats.read_validation_retries, 13);
}

#[test]
fn recorder_counts_equal_engine_stats_on_every_engine() {
    let recorder = || Arc::new(Recorder::new());

    let r = recorder();
    assert_recorder_agrees(&r, &drive(&builder().probe(Arc::clone(&r)).build_tagless()));
    let r = recorder();
    assert_recorder_agrees(&r, &drive(&builder().probe(Arc::clone(&r)).build_tagged()));
    let r = recorder();
    let lazy = drive(&builder().probe(Arc::clone(&r)).build_lazy());
    assert_recorder_agrees(&r, &lazy);
    assert_eq!(lazy.read_aborts, lazy.aborts, "retries abort in the body");

    let r = recorder();
    let routed = two_tables(&r);
    assert_recorder_agrees(&r, &drive(&routed));
    assert_eq!(routed.cross_shard_commits(), 50);
    assert_eq!(r.snapshot().cross_shard_commits, 50);
}

#[test]
fn recorder_probe_does_not_change_tagless_stats() {
    let plain = drive(&builder().build_tagless());
    let probed = drive(&builder().probe(Arc::new(Recorder::new())).build_tagless());
    assert_eq!(plain, probed);
}

#[test]
fn recorder_probe_does_not_change_tagged_stats() {
    let plain = drive(&builder().build_tagged());
    let probed = drive(&builder().probe(Arc::new(Recorder::new())).build_tagged());
    assert_eq!(plain, probed);
}

#[test]
fn recorder_probe_does_not_change_lazy_stats() {
    let plain = drive(&builder().build_lazy());
    let probed = drive(&builder().probe(Arc::new(Recorder::new())).build_lazy());
    assert_eq!(plain, probed);
}

#[test]
fn read_path_never_touches_write_side_stats() {
    for stats in [
        drive(&builder().build_tagless()),
        drive(&builder().build_tagged()),
        drive(&builder().build_lazy()),
    ] {
        assert_eq!(stats.commits, 50);
        assert_eq!(stats.read_only_commits, 25);
    }
}

#[test]
fn probed_percentiles_are_ordered() {
    let recorder = Arc::new(Recorder::new());
    drive(&builder().probe(Arc::clone(&recorder)).build_tagged());
    let snap = recorder.snapshot();
    let (p50, p95, p99) = snap.txn.p50_p95_p99().expect("50 committed txns");
    assert!(p50 <= p95 && p95 <= p99);
}
