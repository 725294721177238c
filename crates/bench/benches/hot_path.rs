//! Hot-path microbenchmark: per-attempt heap allocations and single-thread
//! transaction latency for every engine family.
//!
//! Three bodies, each measured twice:
//!
//! * the **synthetic** body (4 uniform reads + 4 uniform RMW increments,
//!   the paper's small-W regime) at the raw `TxnOps` level;
//! * the **list-chase** body: one insert + one remove on a warmed `TList`
//!   through the typed object layer — a full pointer-chasing traversal
//!   plus a transactional node alloc *and* free per transaction, proving
//!   the typed layer and `TxAlloc` add no per-attempt heap traffic;
//! * the **read-only** body (8 plain reads, same footprint size) on the
//!   wait-free `run_read` path — which additionally asserts the read
//!   path's structural contract: zero ownership-table grants (eager) and
//!   zero commit locks (lazy) across the entire run.
//!
//! 1. **Allocation count** — a counting global allocator tallies every
//!    `alloc`/`realloc` while a warmed-up thread runs transactions. The
//!    scratch-recycling contract is that a steady-state attempt performs
//!    **zero** heap allocations — for both bodies; the bench asserts
//!    exactly that (set `HOT_PATH_TOLERATE_ALLOCS=1` to report instead of
//!    assert — used to capture the pre-optimization baseline in
//!    `benches/README.md`).
//! 2. **Latency** — wall-clock nanoseconds per committed transaction on one
//!    thread, where allocator and hashing overhead dominates (no
//!    contention, no aborts).
//!
//! Run with `cargo bench -p tm-bench --bench hot_path`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tm_shard::ShardedStmBuilder;
use tm_stm::{
    ConcurrentTable, LazyStm, Probe, ReadOps, Recorder, Region, Route, Stm, StmBuilder, TmEngine,
    TxnOps,
};
use tm_structs::TList;

/// Global allocator shim that counts allocation events (not bytes: the
/// contract under test is "zero allocator round-trips per attempt").
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const HEAP_WORDS: usize = 1 << 14;
const TABLE_ENTRIES: usize = 4096;
const READS: usize = 4;
const WRITES: usize = 4;
/// Distinct blocks the workload cycles through (fits heap and table).
const WORKING_SET: u64 = 512;

/// One transaction of the standard body at a deterministic footprint
/// offset. Addresses stride by 64 B so every access is a distinct block.
fn one_txn<E: TmEngine>(engine: &E, i: u64) {
    engine.run(0, |txn| {
        for k in 0..READS as u64 {
            txn.read(((i + k) % WORKING_SET) * 64)?;
        }
        for k in 0..WRITES as u64 {
            txn.update_add(((i + READS as u64 + k) % WORKING_SET) * 64, 1)?;
        }
        Ok(())
    });
}

struct Outcome {
    allocs_per_txn: f64,
    ns_per_txn: f64,
}

fn measure<E: TmEngine>(engine: &E) -> Outcome {
    // Warm up: fault in lazy structures, spill tables, bucket capacity.
    for i in 0..10_000u64 {
        one_txn(engine, i);
    }

    // Allocation phase.
    let txns = 100_000u64;
    let before = ALLOC_EVENTS.load(Ordering::Relaxed);
    for i in 0..txns {
        one_txn(engine, i);
    }
    let events = ALLOC_EVENTS.load(Ordering::Relaxed) - before;

    // Latency phase.
    let t0 = Instant::now();
    for i in 0..txns {
        one_txn(engine, black_box(i));
    }
    let elapsed = t0.elapsed();

    Outcome {
        allocs_per_txn: events as f64 / txns as f64,
        ns_per_txn: elapsed.as_nanos() as f64 / txns as f64,
    }
}

/// One read-only transaction on the wait-free path: the same footprint
/// size as the standard body, all plain reads, via `run_read`.
fn one_read_txn<E: TmEngine>(engine: &E, i: u64) {
    engine.run_read(0, |txn| {
        let mut sum = 0u64;
        for k in 0..(READS + WRITES) as u64 {
            sum = sum.wrapping_add(txn.read(((i + k) % WORKING_SET) * 64)?);
        }
        Ok(black_box(sum))
    });
}

fn measure_read<E: TmEngine>(engine: &E) -> Outcome {
    for i in 0..10_000u64 {
        one_read_txn(engine, i);
    }
    let txns = 100_000u64;
    let before = ALLOC_EVENTS.load(Ordering::Relaxed);
    for i in 0..txns {
        one_read_txn(engine, i);
    }
    let events = ALLOC_EVENTS.load(Ordering::Relaxed) - before;

    let t0 = Instant::now();
    for i in 0..txns {
        one_read_txn(engine, black_box(i));
    }
    let elapsed = t0.elapsed();

    Outcome {
        allocs_per_txn: events as f64 / txns as f64,
        ns_per_txn: elapsed.as_nanos() as f64 / txns as f64,
    }
}

/// [`measure_read`] on the eager engine under either route, also asserting
/// the read path's structural contract: zero ownership-table grants (in
/// any table) across the whole run, and every transaction accounted on the
/// read-only counter.
fn measure_read_eager<T: ConcurrentTable, P: Probe, R: Route>(stm: &Stm<T, P, R>) -> Outcome {
    let grants = || -> u64 {
        (0..stm.shard_count())
            .map(|i| stm.shard_table(i).stats_snapshot().grants)
            .sum()
    };
    let grants_before = grants();
    let out = measure_read(stm);
    assert_eq!(
        grants(),
        grants_before,
        "read-only transactions must never acquire ownership-table grants"
    );
    let s = stm.stats();
    assert_eq!(s.commits, 0, "read path must stay off the write counters");
    assert_eq!(s.read_only_commits, 210_000);
    out
}

/// [`measure_read`] on the lazy engine, asserting no commit locks taken.
fn measure_read_lazy<P: Probe>(stm: &LazyStm<P>) -> Outcome {
    let locks_before = stm.table_stats().locks;
    let out = measure_read(stm);
    assert_eq!(
        stm.table_stats().locks,
        locks_before,
        "read-only transactions must never take commit locks"
    );
    let s = stm.stats();
    assert_eq!(s.commits, 0);
    assert_eq!(s.read_only_commits, 210_000);
    out
}

/// Live elements the warmed list carries (even values; odd values churn).
const LIST_RESIDENT: u64 = 64;

/// One list-chase transaction: insert an absent odd key, then remove it —
/// a full sorted traversal, a transactional node allocation, and a
/// transactional free, all in one atomic step through the typed layer.
fn one_list_txn<E: TmEngine>(engine: &E, list: &TList<u64>, i: u64) {
    let key = 2 * (i % LIST_RESIDENT) + 1;
    engine.run(0, |txn| {
        let inserted = list.insert(txn, key)?.expect("pool sized for churn");
        debug_assert!(inserted);
        let removed = list.remove(txn, key)?;
        debug_assert!(removed);
        Ok(())
    });
}

fn measure_list<E: TmEngine>(engine: &E) -> Outcome {
    let mut region = Region::new(0, (HEAP_WORDS as u64) * 8);
    let list: TList<u64> = TList::create(&mut region, LIST_RESIDENT + 1);
    // Resident set: even values, traversed by every churn transaction.
    for v in 0..LIST_RESIDENT {
        list.insert_now(engine, 0, 2 * v).expect("pool has room");
    }

    for i in 0..2_000u64 {
        one_list_txn(engine, &list, i);
    }

    let txns = 20_000u64;
    let before = ALLOC_EVENTS.load(Ordering::Relaxed);
    for i in 0..txns {
        one_list_txn(engine, &list, i);
    }
    let events = ALLOC_EVENTS.load(Ordering::Relaxed) - before;

    let t0 = Instant::now();
    for i in 0..txns {
        one_list_txn(engine, &list, black_box(i));
    }
    let elapsed = t0.elapsed();

    Outcome {
        allocs_per_txn: events as f64 / txns as f64,
        ns_per_txn: elapsed.as_nanos() as f64 / txns as f64,
    }
}

fn report(title: &str, outcomes: &[(&str, Outcome)], tolerate: bool) {
    println!("== hot_path ({title}, single thread)");
    println!("  {:<16} {:>16} {:>14}", "engine", "allocs/txn", "ns/txn");
    for (name, o) in outcomes {
        println!(
            "  {:<16} {:>16.3} {:>14.1}",
            name, o.allocs_per_txn, o.ns_per_txn
        );
    }
    if !tolerate {
        for (name, o) in outcomes {
            assert!(
                o.allocs_per_txn == 0.0,
                "{name} ({title}): steady-state attempts must not allocate \
                 (measured {:.3} allocations/txn)",
                o.allocs_per_txn
            );
        }
        println!("  zero-allocation steady state: OK");
    }
}

fn main() {
    let tolerate = std::env::var("HOT_PATH_TOLERATE_ALLOCS").is_ok();
    let builder = StmBuilder::new()
        .heap_words(HEAP_WORDS)
        .table_entries(TABLE_ENTRIES);

    // The same engine routed over S=4 tables: the 512-block working set
    // sits entirely inside shard 0's span (2048 blocks / 4 = 512), so every
    // transaction stays on its eager home-table path — the zero-allocation
    // assertion holds for the routed instantiation too, and the overhead
    // comparison below measures exactly what run-time routing (ShardMap
    // lookup + home-shard check per access) costs over the compile-time
    // one-table route.
    let sharded = builder.clone().shards(4).build_sharded_tagless();
    let synthetic: Vec<(&str, Outcome)> = vec![
        ("eager-tagless", measure(&builder.build_tagless())),
        ("eager-tagged", measure(&builder.build_tagged())),
        ("lazy-tl2", measure(&builder.build_lazy())),
        ("sharded(s=4)", measure(&sharded)),
    ];
    assert_eq!(
        sharded.cross_shard_commits(),
        0,
        "the confined working set must never escalate off the fast path"
    );
    report("4 reads + 4 RMW writes", &synthetic, tolerate);
    {
        let base = &synthetic[0].1; // eager-tagless, same table kind
        let s = &synthetic[3].1;
        println!(
            "== sharded fast-path overhead vs eager-tagless \
             (run-time routing vs the compile-time route): {:>8.1} -> {:>8.1} ns/txn ({:+.1}%)",
            base.ns_per_txn,
            s.ns_per_txn,
            (s.ns_per_txn / base.ns_per_txn - 1.0) * 100.0
        );
    }

    let list: Vec<(&str, Outcome)> = vec![
        ("eager-tagless", measure_list(&builder.build_tagless())),
        ("eager-tagged", measure_list(&builder.build_tagged())),
        ("lazy-tl2", measure_list(&builder.build_lazy())),
    ];
    report(
        "list-chase: typed traverse + node alloc/free",
        &list,
        tolerate,
    );

    // Read-only path: the same footprint, all plain reads, on `run_read`.
    // Beyond the zero-allocation contract, the helpers assert the read
    // path's structural promise — zero ownership-table grants (eager) and
    // zero commit locks (lazy) over 210k read-only transactions.
    let read_only: Vec<(&str, Outcome)> = vec![
        (
            "eager-tagless",
            measure_read_eager(&builder.build_tagless()),
        ),
        ("eager-tagged", measure_read_eager(&builder.build_tagged())),
        ("lazy-tl2", measure_read_lazy(&builder.build_lazy())),
        (
            "sharded(s=4)",
            measure_read_eager(&builder.clone().shards(4).build_sharded_tagless()),
        ),
    ];
    report("read-only: 8 reads via run_read", &read_only, tolerate);

    // Telemetry-on overhead: the same synthetic body with a live Recorder
    // probe (histograms + cause counters + flight-recorder ring). The
    // recorder preallocates everything, so the zero-allocation assertion
    // holds here too; the cost is clock reads and striped atomics, reported
    // as a percentage against the telemetry-off runs above.
    let recorder = Arc::new(Recorder::new());
    let probed_builder = builder.clone().probe(Arc::clone(&recorder));
    let probed: Vec<(&str, Outcome)> = vec![
        ("eager-tagless", measure(&probed_builder.build_tagless())),
        ("eager-tagged", measure(&probed_builder.build_tagged())),
        ("lazy-tl2", measure(&probed_builder.build_lazy())),
    ];
    report(
        "4 reads + 4 RMW writes, Recorder attached",
        &probed,
        tolerate,
    );
    println!("== telemetry overhead (Recorder vs NoopProbe, same body)");
    for ((name, off), (_, on)) in synthetic.iter().zip(&probed) {
        println!(
            "  {:<16} {:>8.1} -> {:>8.1} ns/txn ({:+.1}%)",
            name,
            off.ns_per_txn,
            on.ns_per_txn,
            (on.ns_per_txn / off.ns_per_txn - 1.0) * 100.0
        );
    }
}
