//! Golden pin for the transaction driver: what the retry loop tells the
//! counters and the probe, event by event.
//!
//! `tests/eager_core_routes.rs` pins the eager write path's *counters*
//! under a seeded workload. This file pins what it leaves open: the
//! `Recorder` event sequence (kinds, abort causes, `attempts` on commit)
//! next to the `EngineStats` it must agree with, for the write path on the
//! lazy engine and on both eager routes, and for the read-only path on all
//! three — a body that retries its first attempt, a `try_run` that spends a
//! budget of two, a `run_read_with` that spends a bounded budget, an
//! escalation restart that must count as nothing, and the lazy engine's
//! read-time and commit-time aborts with their attributed causes.
//!
//! Everything runs on the calling thread, so every line below is an exact
//! constant. They were captured at e871d0b, the commit *before* the four
//! hand-copied retry loops became one driver and the two counter snapshot
//! types became one; the refactor must reproduce them byte for byte.
//!
//! To re-capture after an *intended* behaviour change:
//! `cargo test --test retry_driver_goldens -- --ignored --nocapture`.

use std::sync::Arc;

use tm_birthday::prelude::*;
use tm_birthday::stm::{EventKind, Recorder, TxnEvent};

const HEAP_WORDS: usize = 1 << 12;
const TABLE_ENTRIES: usize = 256;
/// Writer and reader thread ids. The reader's is not a multiple of four,
/// so on the four-table route its outcomes land in table 1, not table 0.
const W: u32 = 0;
const R: u32 = 5;
/// A word in the heap's last quarter: another table on a four-table route.
const FAR: u64 = 3 * (HEAP_WORDS as u64 / 4) * 8;

fn builder(recorder: &Arc<Recorder>) -> StmBuilder<Arc<Recorder>> {
    StmBuilder::new()
        .heap_words(HEAP_WORDS)
        .table_entries(TABLE_ENTRIES)
        .shards(4)
        .probe(Arc::clone(recorder))
}

/// An event without its timings: `thread:kind[:cause|:attempts|:span]`.
fn label(e: &TxnEvent) -> String {
    let t = e.thread;
    match e.kind {
        EventKind::Abort { cause, .. } => format!("{t}:abort:{}", cause.as_str()),
        EventKind::Commit { attempts, .. } => format!("{t}:commit:{attempts}"),
        EventKind::CrossShardCommit { shards } => format!("{t}:cross-shard-commit:{shards}"),
        kind => format!("{t}:{}", kind.as_str()),
    }
}

/// Collects one line per phase: the phase's name and its event sequence.
struct Trace<'r> {
    recorder: &'r Recorder,
    lines: Vec<String>,
}

impl Trace<'_> {
    fn phase(&mut self, name: &str, run: impl FnOnce()) {
        self.recorder.reset_window();
        run();
        let snap = self.recorder.snapshot();
        assert_eq!(snap.dropped_events, 0, "phase outgrew the event ring");
        let events: Vec<String> = snap.events.iter().map(label).collect();
        self.lines.push(format!("{name}: {}", events.join(" ")));
    }

    fn stats(&mut self, name: &str, s: &EngineStats) {
        self.lines.push(format!(
            "{name}: commits={} aborts={} read_aborts={} lock_aborts={} validation_aborts={} \
             stall_retries={} write_blocks={} grant_blocks={} read_only_commits={} \
             read_validation_retries={}",
            s.commits,
            s.aborts,
            s.read_aborts,
            s.lock_aborts,
            s.validation_aborts,
            s.stall_retries,
            s.committed_write_blocks,
            s.committed_grant_blocks,
            s.read_only_commits,
            s.read_validation_retries,
        ));
    }
}

/// The script every engine runs.
fn common<E: TmEngine>(stm: &E, trace: &mut Trace<'_>) {
    trace.phase("write retry-then-commit", || {
        let mut first = true;
        stm.run(W, |txn| {
            if std::mem::take(&mut first) {
                return txn.retry();
            }
            let v = txn.read(0)?;
            txn.write(0, v + 1)?;
            txn.write(64, 7)
        });
    });
    trace.phase("write try_run exhausts 2", || {
        let r: Result<(), _> = stm.try_run(W, 2, |txn| txn.retry());
        assert_eq!(r, Err(RetryLimitExceeded { attempts: 2 }));
    });
    trace.phase("write far transfer", || {
        stm.run(W, |txn| {
            let a = txn.read(0)?;
            txn.write(0, a + 1)?;
            let b = txn.read(FAR)?;
            txn.write(FAR, b + a)
        });
    });
    trace.phase("write far retry exhausts 2", || {
        let r: Result<(), _> = stm.try_run(W, 2, |txn| {
            txn.read(0)?;
            txn.read(FAR)?;
            txn.retry()
        });
        assert_eq!(r, Err(RetryLimitExceeded { attempts: 2 }));
    });
    trace.phase("write read-only body", || {
        assert_eq!(stm.run(W, |txn| txn.read(64)), 7);
    });
    trace.phase("read retry-then-commit", || {
        let mut first = true;
        let sum = stm.run_read(R, |txn| {
            if std::mem::take(&mut first) {
                return txn.retry();
            }
            Ok(txn.read(0)? + txn.read(FAR)?)
        });
        assert_eq!(sum, 3);
    });
    trace.phase("read run_read_with exhausts 3", || {
        let policy = RetryPolicy::Bounded { max_attempts: 3 };
        let r: Result<(), _> = stm.run_read_with(R, policy, |txn| txn.retry());
        assert_eq!(r, Err(RetryLimitExceeded { attempts: 3 }));
    });
    trace.phase("read first try", || {
        assert_eq!(stm.run_read(R, |txn| txn.read(64)), 7);
    });
    trace.stats("stats", &stm.engine_stats());
}

fn tagless() -> Vec<String> {
    let recorder = Arc::new(Recorder::new());
    let stm = builder(&recorder).build_tagless();
    let mut trace = Trace {
        recorder: &recorder,
        lines: Vec::new(),
    };
    common(&stm, &mut trace);
    trace.lines
}

fn sharded() -> Vec<String> {
    let recorder = Arc::new(Recorder::new());
    let stm = builder(&recorder).build_sharded_tagless();
    let mut trace = Trace {
        recorder: &recorder,
        lines: Vec::new(),
    };
    common(&stm, &mut trace);
    for shard in 0..stm.shard_count() {
        let s = stm.shard_stats(shard);
        trace.lines.push(format!(
            "table {shard}: commits={} aborts={} write_blocks={} read_only_commits={} \
             read_validation_retries={}",
            s.commits,
            s.aborts,
            s.committed_write_blocks,
            s.read_only_commits,
            s.read_validation_retries,
        ));
    }
    trace.lines.push(format!(
        "cross: commits={} aborts={}",
        stm.cross_shard_commits(),
        stm.cross_shard_aborts()
    ));
    trace.lines
}

fn lazy() -> Vec<String> {
    let recorder = Arc::new(Recorder::new());
    let stm = builder(&recorder).build_lazy();
    let mut trace = Trace {
        recorder: &recorder,
        lines: Vec::new(),
    };
    common(&stm, &mut trace);
    // The lazy protocol's own abort sites. A second "thread" commits from
    // inside the first attempt's body; invisible readers make that legal.
    trace.phase("lazy read-time conflict", || {
        let mut first = true;
        stm.run(W, |txn| {
            let v = txn.read(0)?;
            if std::mem::take(&mut first) {
                stm.run(1, |w| w.write(8, 9));
            }
            // Same block as word 0: its entry is now newer than `rv`.
            Ok(v + txn.read(8)?)
        });
    });
    trace.phase("lazy commit-time validation", || {
        let mut first = true;
        stm.run(W, |txn| {
            let v = txn.read(0)?;
            if std::mem::take(&mut first) {
                stm.run(1, |w| w.write(0, 50));
            }
            txn.write(128, v)
        });
    });
    trace.stats("stats after lazy phases", &stm.engine_stats());
    trace.lines.push(format!(
        "heap: {} {} {}",
        stm.heap().load(0),
        stm.heap().load(8),
        stm.heap().load(128)
    ));
    trace.lines
}

#[test]
#[ignore = "capture helper: prints the lines the pinned_* tests assert"]
fn print_goldens() {
    for (name, lines) in [
        ("tagless", tagless()),
        ("sharded", sharded()),
        ("lazy", lazy()),
    ] {
        println!("// {name}");
        for line in lines {
            println!("{line:?},");
        }
    }
}

#[track_caller]
fn assert_lines(actual: Vec<String>, expected: &[&str]) {
    assert_eq!(actual.join("\n"), expected.join("\n"));
}

#[test]
fn pinned_tagless() {
    assert_lines(
        tagless(),
        &[
            "write retry-then-commit: 0:begin 0:abort:explicit-retry 0:grant 0:grant 0:grant 0:commit:2",
            "write try_run exhausts 2: 0:begin 0:abort:explicit-retry 0:abort:explicit-retry",
            "write far transfer: 0:begin 0:grant 0:grant 0:grant 0:grant 0:commit:1",
            "write far retry exhausts 2: 0:begin 0:grant 0:grant 0:abort:explicit-retry 0:grant 0:grant 0:abort:explicit-retry",
            "write read-only body: 0:begin 0:grant 0:commit:1",
            "read retry-then-commit: 5:read-begin 5:read-retry 5:read-begin 5:read-commit",
            "read run_read_with exhausts 3: 5:read-begin 5:read-retry 5:read-begin 5:read-retry 5:read-begin 5:read-retry",
            "read first try: 5:read-begin 5:read-commit",
            "stats: commits=3 aborts=5 read_aborts=0 lock_aborts=0 validation_aborts=0 stall_retries=0 write_blocks=4 grant_blocks=5 read_only_commits=2 read_validation_retries=4",
        ],
    );
}

#[test]
fn pinned_sharded() {
    assert_lines(
        sharded(),
        &[
            "write retry-then-commit: 0:begin 0:abort:explicit-retry 0:grant 0:grant 0:grant 0:commit:2",
            "write try_run exhausts 2: 0:begin 0:abort:explicit-retry 0:abort:explicit-retry",
            "write far transfer: 0:begin 0:grant 0:grant 0:grant 0:grant 0:cross-shard-commit:2 0:commit:1",
            "write far retry exhausts 2: 0:begin 0:grant 0:abort:explicit-retry 0:abort:explicit-retry",
            "write read-only body: 0:begin 0:grant 0:commit:1",
            "read retry-then-commit: 5:read-begin 5:read-retry 5:read-begin 5:read-commit",
            "read run_read_with exhausts 3: 5:read-begin 5:read-retry 5:read-begin 5:read-retry 5:read-begin 5:read-retry",
            "read first try: 5:read-begin 5:read-commit",
            "stats: commits=3 aborts=5 read_aborts=0 lock_aborts=0 validation_aborts=0 stall_retries=0 write_blocks=4 grant_blocks=5 read_only_commits=2 read_validation_retries=4",
            "table 0: commits=3 aborts=5 write_blocks=3 read_only_commits=0 read_validation_retries=0",
            "table 1: commits=0 aborts=0 write_blocks=0 read_only_commits=2 read_validation_retries=4",
            "table 2: commits=0 aborts=0 write_blocks=0 read_only_commits=0 read_validation_retries=0",
            "table 3: commits=1 aborts=0 write_blocks=1 read_only_commits=0 read_validation_retries=0",
            "cross: commits=1 aborts=0",
        ],
    );
}

#[test]
fn pinned_lazy() {
    assert_lines(
        lazy(),
        &[
            "write retry-then-commit: 0:begin 0:abort:explicit-retry 0:commit:2",
            "write try_run exhausts 2: 0:begin 0:abort:explicit-retry 0:abort:explicit-retry",
            "write far transfer: 0:begin 0:commit:1",
            "write far retry exhausts 2: 0:begin 0:abort:explicit-retry 0:abort:explicit-retry",
            "write read-only body: 0:begin 0:commit:1",
            "read retry-then-commit: 5:read-begin 5:read-retry 5:read-begin 5:read-commit",
            "read run_read_with exhausts 3: 5:read-begin 5:read-retry 5:read-begin 5:read-retry 5:read-begin 5:read-retry",
            "read first try: 5:read-begin 5:read-commit",
            "stats: commits=3 aborts=5 read_aborts=5 lock_aborts=0 validation_aborts=0 stall_retries=0 write_blocks=4 grant_blocks=8 read_only_commits=2 read_validation_retries=4",
            "lazy read-time conflict: 0:begin 1:begin 1:commit:1 0:abort:true-conflict 0:commit:2",
            "lazy commit-time validation: 0:begin 1:begin 1:commit:1 0:abort:true-conflict 0:commit:2",
            "stats after lazy phases: commits=7 aborts=7 read_aborts=6 lock_aborts=0 validation_aborts=1 stall_retries=0 write_blocks=7 grant_blocks=13 read_only_commits=2 read_validation_retries=4",
            "heap: 50 9 50",
        ],
    );
}
