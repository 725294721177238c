//! The hot path's structural contract, as exact counts.
//!
//! Once warm, a transaction attempt performs **zero** heap allocations —
//! on every engine family, through the typed object layer, and with a live
//! `Recorder` probe attached — and a `run_read` transaction additionally
//! takes **zero** ownership-table grants (eager engines, either route) and
//! **zero** commit locks (lazy engine), staying off the write-side
//! counters altogether. These are the invariants the scratch pool, the
//! wait-free read path and the `Probe` contract exist to provide; the
//! timings that go with them are ledger rows (`stm.update_txn_ns`,
//! `stm.read_txn_ns`, `stm.allocs_per_txn`, … in `benchmark/`).
//!
//! Every engine here runs on the calling test's own thread and the
//! allocation counter is per thread, so libtest running the tests of this
//! file in parallel (or doing its own bookkeeping) cannot perturb a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

use tm_birthday::prelude::*;
use tm_birthday::stm::{ConcurrentTable, Probe, Recorder, Route};

/// Global allocator shim that counts allocation events (not bytes: the
/// contract under test is "zero allocator round-trips per attempt").
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor: touching it never
    // allocates or registers anything, so the allocator may use it.
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn count_event() {
    // `try_with`: an allocation made while the thread's locals are being
    // torn down is not one any test is measuring.
    let _ = ALLOC_EVENTS.try_with(|events| events.set(events.get() + 1));
}

// SAFETY: delegates verbatim to `System`; the counter is a thread-local
// cell no allocation depends on.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_event();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_event();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const HEAP_WORDS: usize = 1 << 14;
const TABLE_ENTRIES: usize = 4096;
const READS: u64 = 4;
const WRITES: u64 = 4;
/// Distinct blocks the workload cycles through (fits heap and table).
const WORKING_SET: u64 = 512;
/// Warm-up and measured transactions per engine: each walks every
/// footprint offset of the working set several times. The counts asserted
/// are exact, so more iterations would buy nothing.
const WARMUP_TXNS: u64 = 2 * WORKING_SET;
const MEASURED_TXNS: u64 = 4 * WORKING_SET;

fn builder() -> StmBuilder {
    StmBuilder::new()
        .heap_words(HEAP_WORDS)
        .table_entries(TABLE_ENTRIES)
}

/// Allocation events on this thread while `txns` transactions run, after
/// `warmup` of them have faulted in lazy structures, spill tables and
/// bucket capacity.
fn steady_state_allocs(warmup: u64, txns: u64, mut one_txn: impl FnMut(u64)) -> u64 {
    for i in 0..warmup {
        one_txn(i);
    }
    let before = ALLOC_EVENTS.with(Cell::get);
    for i in 0..txns {
        one_txn(i);
    }
    ALLOC_EVENTS.with(Cell::get) - before
}

/// One transaction of the standard body (4 reads + 4 RMW increments, the
/// paper's small-W regime) at a deterministic footprint offset. Addresses
/// stride by 64 B so every access is a distinct block.
fn one_update_txn<E: TmEngine>(engine: &E, i: u64) {
    engine.run(0, |txn| {
        for k in 0..READS {
            txn.read(((i + k) % WORKING_SET) * 64)?;
        }
        for k in 0..WRITES {
            txn.update_add(((i + READS + k) % WORKING_SET) * 64, 1)?;
        }
        Ok(())
    });
}

fn assert_update_body_allocates_nothing<E: TmEngine>(name: &str, engine: &E) {
    let allocs = steady_state_allocs(WARMUP_TXNS, MEASURED_TXNS, |i| one_update_txn(engine, i));
    assert_eq!(
        allocs, 0,
        "{name}: steady-state attempts must not allocate \
         ({allocs} allocations over {MEASURED_TXNS} transactions)"
    );
}

#[test]
fn update_transactions_allocate_nothing_on_any_engine() {
    assert_update_body_allocates_nothing("eager-tagless", &builder().build_tagless());
    assert_update_body_allocates_nothing("eager-tagged", &builder().build_tagged());
    assert_update_body_allocates_nothing("lazy-tl2", &builder().build_lazy());
    // The resizable table keeps no holdings of its own: an attempt enters
    // its gate (a counter) and every access goes to the wrapped table.
    let (adaptive, _controller) = builder().build_adaptive(ResizePolicy::default(), 1);
    assert_update_body_allocates_nothing("adaptive", &adaptive);

    // The same engine routed over S=4 tables: the 512-block working set
    // sits entirely inside shard 0's span (2048 blocks / 4 = 512), so every
    // transaction stays on its eager home-table path and the contract holds
    // for the routed instantiation too.
    let sharded = builder().shards(4).build_sharded_tagless();
    assert_update_body_allocates_nothing("sharded(s=4)", &sharded);
    assert_eq!(
        sharded.cross_shard_commits(),
        0,
        "the confined working set must never escalate off the fast path"
    );
}

/// The same body with a live `Recorder` probe (histograms, cause counters,
/// flight-recorder ring): the recorder preallocates everything.
#[test]
fn update_transactions_allocate_nothing_with_a_recorder_attached() {
    let probed = builder().probe(Arc::new(Recorder::new()));
    assert_update_body_allocates_nothing("eager-tagless+recorder", &probed.build_tagless());
    assert_update_body_allocates_nothing("eager-tagged+recorder", &probed.build_tagged());
    assert_update_body_allocates_nothing("lazy-tl2+recorder", &probed.build_lazy());
}

/// Live elements the warmed list carries (even values; odd values churn).
const LIST_RESIDENT: u64 = 64;

/// The list-chase body: insert an absent odd key, then remove it — a full
/// sorted traversal, a transactional node allocation, and a transactional
/// free, all in one atomic step through the typed layer.
fn assert_list_chase_allocates_nothing<E: TmEngine>(name: &str, engine: &E) {
    let mut region = Region::new(0, (HEAP_WORDS as u64) * 8);
    let list: TList<u64> = TList::create(&mut region, LIST_RESIDENT + 1);
    // Resident set: even values, traversed by every churn transaction.
    for v in 0..LIST_RESIDENT {
        list.insert_now(engine, 0, 2 * v).expect("pool has room");
    }
    let txns = 8 * LIST_RESIDENT;
    let allocs = steady_state_allocs(4 * LIST_RESIDENT, txns, |i| {
        let key = 2 * (i % LIST_RESIDENT) + 1;
        engine.run(0, |txn| {
            let inserted = list.insert(txn, key)?.expect("pool sized for churn");
            assert!(inserted);
            let removed = list.remove(txn, key)?;
            assert!(removed);
            Ok(())
        });
    });
    assert_eq!(
        allocs, 0,
        "{name}: typed traversal + node alloc/free must not touch the heap \
         allocator ({allocs} allocations over {txns} transactions)"
    );
}

#[test]
fn list_chase_transactions_allocate_nothing() {
    assert_list_chase_allocates_nothing("eager-tagless", &builder().build_tagless());
    assert_list_chase_allocates_nothing("eager-tagged", &builder().build_tagged());
    assert_list_chase_allocates_nothing("lazy-tl2", &builder().build_lazy());
}

const READ_TXNS: u64 = WARMUP_TXNS + MEASURED_TXNS;

/// The read-only body (8 plain reads, same footprint size as the update
/// body) on the wait-free `run_read` path.
fn read_only_allocs<E: TmEngine>(engine: &E) -> u64 {
    steady_state_allocs(WARMUP_TXNS, MEASURED_TXNS, |i| {
        engine.run_read(0, |txn| {
            let mut sum = 0u64;
            for k in 0..READS + WRITES {
                sum = sum.wrapping_add(txn.read(((i + k) % WORKING_SET) * 64)?);
            }
            Ok(black_box(sum))
        });
    })
}

/// The eager engine under either route: zero ownership-table grants (in
/// any table) across the whole run, every transaction accounted on the
/// read-only counter, nothing allocated.
fn assert_eager_read_contract<T: ConcurrentTable, P: Probe, R: Route>(
    name: &str,
    stm: &Stm<T, P, R>,
) {
    let grants = || -> u64 {
        (0..stm.shard_count())
            .map(|i| stm.shard_table(i).stats_snapshot().grants)
            .sum()
    };
    let grants_before = grants();
    assert_eq!(
        read_only_allocs(stm),
        0,
        "{name}: run_read must not allocate"
    );
    assert_eq!(
        grants(),
        grants_before,
        "{name}: read-only transactions must never acquire ownership-table grants"
    );
    let s = stm.stats();
    assert_eq!(
        s.commits, 0,
        "{name}: read path must stay off the write counters"
    );
    assert_eq!(s.read_only_commits, READ_TXNS, "{name}");
}

#[test]
fn read_only_transactions_take_no_grants_no_locks_and_allocate_nothing() {
    assert_eager_read_contract("eager-tagless", &builder().build_tagless());
    assert_eager_read_contract("eager-tagged", &builder().build_tagged());
    assert_eager_read_contract("sharded(s=4)", &builder().shards(4).build_sharded_tagless());

    let lazy = builder().build_lazy();
    let locks_before = lazy.table_stats().locks;
    assert_eq!(
        read_only_allocs(&lazy),
        0,
        "lazy-tl2: run_read must not allocate"
    );
    assert_eq!(
        lazy.table_stats().locks,
        locks_before,
        "read-only transactions must never take commit locks"
    );
    let s = lazy.stats();
    assert_eq!(s.commits, 0);
    assert_eq!(s.read_only_commits, READ_TXNS);
}

/// Table entries for the nested pair: few enough that the two
/// transactions' disjoint footprints often alias, and often do not.
const PAIR_TABLE_ENTRIES: usize = 64;
/// Blocks each side of the pair draws from; the two ranges are disjoint.
const PAIR_SPAN: u64 = WORKING_SET / 2;

/// One side of the pair: the standard body over its own half of the
/// working set, at an offset that strides by `stride` blocks a pair so the
/// two sides' table entries drift past each other.
fn pair_body<T: TxnOps>(txn: &mut T, first: u64, stride: u64, i: u64) -> Result<(), Aborted> {
    let block = |k: u64| (first + (i * stride + k) % PAIR_SPAN) * 64;
    for k in 0..READS {
        txn.read(block(k))?;
    }
    for k in 0..WRITES {
        txn.update_add(block(READS + k), 1)?;
    }
    Ok(())
}

/// The paper's two overlapping transactions on one thread (the benchmark's
/// `txn-birthday` shape): transaction 0 takes its footprint, then a
/// single-attempt transaction 1 runs inside its body, so two scratch
/// bundles are checked out at once. An inner attempt refused by an alias
/// of an outer grant aborts and runs again once the outer has committed.
#[test]
fn nested_pairs_with_aborting_inner_transactions_allocate_nothing() {
    let engine = StmBuilder::new()
        .heap_words(HEAP_WORDS)
        .table_entries(PAIR_TABLE_ENTRIES)
        .build_tagless();
    let mut reruns = 0u64;
    let allocs = steady_state_allocs(WARMUP_TXNS, MEASURED_TXNS, |i| {
        let mut inner_committed = false;
        engine.run(0, |outer| {
            pair_body(outer, 0, 7, i)?;
            inner_committed = engine
                .try_run(1, 1, |inner| pair_body(inner, PAIR_SPAN, 13, i))
                .is_ok();
            Ok(())
        });
        if !inner_committed {
            reruns += 1;
            engine.run(1, |inner| pair_body(inner, PAIR_SPAN, 13, i));
        }
    });
    let pairs = WARMUP_TXNS + MEASURED_TXNS;
    assert!(
        0 < reruns && reruns < pairs,
        "the inner transaction must abort on some pairs and commit on others \
         ({reruns} reruns over {pairs} pairs)"
    );
    assert_eq!(
        allocs, 0,
        "nested pairs: steady-state attempts must not allocate \
         ({allocs} allocations over {MEASURED_TXNS} pairs)"
    );
    // Every transaction committed: each pair adds 2 * WRITES increments.
    assert_eq!(engine.heap_sum(HEAP_WORDS), 2 * WRITES * pairs);
}
