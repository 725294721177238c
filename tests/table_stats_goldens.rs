//! Golden pin for the ownership tables' statistics: every `TableStats`
//! field, after seeded single-thread runs of the eager engine.
//!
//! `tests/eager_core_routes.rs` pins only `grants`. This file pins all
//! thirteen fields, over the paths a count can take on its way into a
//! table:
//!
//! - a mixed workload with forced aborts and read-only transactions on the
//!   tagless, tagged, four-table and adaptive engines (over this small
//!   heap the four-table route escalates its transactions to the
//!   cross-table commit, which counts through the counting wrappers);
//! - `txn-birthday`'s lockstep pair on a 1024-entry tagless table, where
//!   transaction B runs start to finish inside A's body with a budget of one
//!   attempt, so false conflicts abort it;
//! - the same pair under `ContentionPolicy::Stall`, where every re-acquire
//!   of a stalled access counts;
//! - one `strong_write` and one `strong_read`;
//! - a body that panics under `catch_unwind`, so the grants go back through
//!   the transaction's `Drop`.
//!
//! Everything runs on the calling thread and every table is quiescent when
//! it is read, so every line below is an exact constant. They were captured
//! before the tables stopped counting per access, and that change
//! reproduced them byte for byte. The tagless, tagged, adaptive and
//! lockstep table lines were re-captured when a read-modify-write on the
//! home table began taking `Write` once: it no longer makes a read acquire,
//! and its grant is fresh instead of an upgrade (see `tests/rmw_ownership.rs`
//! for the per-access rule). Every engine line, the four-table route, the
//! strong-isolation line and the panicking body are the first capture. The
//! adaptive line has equalled the tagless line since the adaptive table
//! began handing out the wrapped table's keys; before, its own block-level
//! already-held check moved three fields.
//!
//! To re-capture after an *intended* behaviour change:
//! `cargo test --test table_stats_goldens -- --ignored --nocapture`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tm_birthday::ownership::stats::TableStats;
use tm_birthday::prelude::*;
use tm_birthday::stm::ConcurrentTable;
use tm_harness::driver::{mix_seed, run_synthetic_phase, Phase};
use tm_harness::scenario::{Scenario, SyntheticSpec};
use tm_harness::BlockSampler;

const HEAP_WORDS: usize = 1 << 12;
const TABLE_ENTRIES: usize = 256;
const TXNS: u64 = 2000;
const SEED: u64 = 0x7AB1E;
/// The lockstep pair's geometry: `txn-birthday`'s table over a roomier heap.
const LOCKSTEP_HEAP_WORDS: usize = 1 << 16;
const LOCKSTEP_ENTRIES: usize = 1024;
const PAIRS: u64 = 600;

/// One table's counters, every field by name.
fn line(name: &str, s: &TableStats) -> String {
    let TableStats {
        read_acquires,
        write_acquires,
        grants,
        already_held,
        upgrades,
        read_after_write,
        write_after_read,
        write_after_write,
        false_conflicts,
        true_conflicts,
        unclassified_conflicts,
        releases,
        chain_inserts,
    } = s;
    format!(
        "{name}: read_acquires={read_acquires} write_acquires={write_acquires} grants={grants} \
         already_held={already_held} upgrades={upgrades} raw={read_after_write} \
         war={write_after_read} waw={write_after_write} false={false_conflicts} \
         true={true_conflicts} unclassified={unclassified_conflicts} releases={releases} \
         chain_inserts={chain_inserts}"
    )
}

fn builder() -> StmBuilder {
    StmBuilder::new()
        .heap_words(HEAP_WORDS)
        .table_entries(TABLE_ENTRIES)
}

/// `cross-shard-mix` with a fifth of the update attempts forced to abort
/// and a quarter of the transactions read-only.
fn stressed() -> SyntheticSpec {
    SyntheticSpec {
        forced_abort_pct: 20,
        read_fraction: 25,
        ..Scenario::cross_shard_mix()
            .synthetic_spec()
            .expect("cross-shard-mix is synthetic")
    }
}

fn mixed<E: TmEngine>(engine: &E) {
    run_synthetic_phase(engine, &stressed(), HEAP_WORDS, 1, Phase::Txns(TXNS), SEED);
}

fn tagless() -> Vec<String> {
    let stm = builder().build_tagless();
    mixed(&stm);
    vec![line("tagless", &stm.table().stats_snapshot())]
}

fn tagged() -> Vec<String> {
    let stm = builder().build_tagged();
    mixed(&stm);
    vec![line("tagged", &stm.table().stats_snapshot())]
}

fn sharded() -> Vec<String> {
    let stm = builder().shards(4).build_sharded_tagless();
    mixed(&stm);
    (0..stm.shard_count())
        .map(|i| line(&format!("table {i}"), &stm.shard_table(i).stats_snapshot()))
        .collect()
}

fn adaptive() -> Vec<String> {
    let (stm, _controller) = builder().build_adaptive(ResizePolicy::default(), 1);
    mixed(&stm);
    vec![line("adaptive", &stm.table().stats_snapshot())]
}

/// `txn-birthday`'s transaction: the reads, then read-modify-writes.
fn birthday_body<X: TxnOps>(txn: &mut X, reads: usize, addrs: &[u64]) -> Result<(), Aborted> {
    let (read, written) = addrs.split_at(reads);
    for &addr in read {
        txn.read(addr)?;
    }
    for &addr in written {
        txn.update_add(addr, 1)?;
    }
    Ok(())
}

/// `PAIRS` lockstep pairs: A takes its whole footprint, B runs inside A's
/// body with one attempt, A commits, and an aborted B runs again after.
/// The two take turns being A.
fn lockstep(name: &str, policy: ContentionPolicy) -> Vec<String> {
    let stm = StmBuilder::new()
        .heap_words(LOCKSTEP_HEAP_WORDS)
        .table_entries(LOCKSTEP_ENTRIES)
        .classify_conflicts(true)
        .contention(policy)
        .build_tagless();
    let spec = Scenario::disjoint()
        .synthetic_spec()
        .expect("disjoint is synthetic");
    let blocks = LOCKSTEP_HEAP_WORDS as u64 * 8 / 64;
    let samplers: Vec<BlockSampler> = (0..2)
        .map(|t| BlockSampler::new(&spec, blocks, t, 2))
        .collect();
    let mut rngs: Vec<StdRng> = (0..2)
        .map(|t| StdRng::seed_from_u64(mix_seed(SEED, t)))
        .collect();
    let reads = spec.reads_per_txn as usize;
    let footprint = reads + spec.writes_per_txn as usize;
    for pair in 0..PAIRS {
        let addrs: Vec<Vec<u64>> = (0..2)
            .map(|t| {
                (0..footprint)
                    .map(|_| samplers[t].sample(&mut rngs[t]) * 64)
                    .collect()
            })
            .collect();
        let outer = (pair % 2) as usize;
        let inner = 1 - outer;
        let mut inner_committed = false;
        stm.run(outer as u32, |a| {
            birthday_body(a, reads, &addrs[outer])?;
            inner_committed = stm
                .try_run(inner as u32, 1, |b| birthday_body(b, reads, &addrs[inner]))
                .is_ok();
            Ok(())
        });
        if !inner_committed {
            stm.run(inner as u32, |b| birthday_body(b, reads, &addrs[inner]));
        }
    }
    let s = stm.stats();
    vec![
        format!(
            "{name} engine: commits={} aborts={} stall_retries={}",
            s.commits, s.aborts, s.stall_retries
        ),
        line(name, &stm.table().stats_snapshot()),
    ]
}

fn strong() -> Vec<String> {
    let stm = builder().build_tagless();
    stm.strong_write(3, 64, 11);
    assert_eq!(stm.strong_read(3, 64), 11);
    vec![line("strong", &stm.table().stats_snapshot())]
}

fn panicking() -> Vec<String> {
    let stm = builder().build_tagged();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        stm.run(0, |txn| {
            let v = txn.read(0)?;
            txn.write(0, v + 1)?;
            txn.read(64)?;
            txn.write(128, 2)?;
            txn.read(8)?;
            panic!("the body gives up mid-transaction");
            #[allow(unreachable_code)]
            Ok(())
        })
    }));
    assert!(result.is_err());
    vec![line("panicked", &stm.table().stats_snapshot())]
}

#[test]
#[ignore = "capture helper: prints the lines the pinned_* tests assert"]
fn print_goldens() {
    for (name, lines) in [
        ("tagless", tagless()),
        ("tagged", tagged()),
        ("sharded", sharded()),
        ("adaptive", adaptive()),
        ("lockstep", lockstep("lockstep", ContentionPolicy::Suicide)),
        (
            "lockstep stall",
            lockstep("stall", ContentionPolicy::Stall { max_spins: 3 }),
        ),
        ("strong", strong()),
        ("panicking", panicking()),
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
fn pinned_one_table_engines() {
    assert_lines(
        tagless(),
        &["tagless: read_acquires=9078 write_acquires=3020 grants=11983 already_held=115 upgrades=70 raw=0 war=0 waw=0 false=0 true=0 unclassified=0 releases=11913 chain_inserts=0"],
    );
    assert_lines(
        tagged(),
        &["tagged: read_acquires=9078 write_acquires=3025 grants=12058 already_held=45 upgrades=31 raw=0 war=0 waw=0 false=0 true=0 unclassified=0 releases=12027 chain_inserts=114"],
    );
}

#[test]
fn pinned_four_table_route() {
    assert_lines(
        sharded(),
        &[
            "table 0: read_acquires=2696 write_acquires=770 grants=3465 already_held=1 upgrades=0 raw=0 war=0 waw=0 false=0 true=0 unclassified=0 releases=3465 chain_inserts=0",
            "table 1: read_acquires=2672 write_acquires=731 grants=3401 already_held=2 upgrades=0 raw=0 war=0 waw=0 false=0 true=0 unclassified=0 releases=3401 chain_inserts=0",
            "table 2: read_acquires=2621 write_acquires=740 grants=3358 already_held=3 upgrades=0 raw=0 war=0 waw=0 false=0 true=0 unclassified=0 releases=3358 chain_inserts=0",
            "table 3: read_acquires=2723 write_acquires=729 grants=3452 already_held=0 upgrades=0 raw=0 war=0 waw=0 false=0 true=0 unclassified=0 releases=3452 chain_inserts=0",
        ],
    );
}

/// The adaptive engine logs the wrapped table's keys and folds its tally
/// into the wrapped table, so its counts are the tagless engine's exactly.
#[test]
fn pinned_adaptive_reports_the_wrapped_tables_counts() {
    let tagless = tagless().join("\n");
    assert_lines(adaptive(), &[&tagless.replacen("tagless:", "adaptive:", 1)]);
}

#[test]
fn pinned_lockstep_pair() {
    assert_lines(
        lockstep("lockstep", ContentionPolicy::Suicide),
        &[
            "lockstep engine: commits=1200 aborts=110 stall_retries=0",
            "lockstep: read_acquires=10379 write_acquires=9924 grants=20153 already_held=40 upgrades=82 raw=33 war=32 waw=45 false=110 true=0 unclassified=0 releases=20071 chain_inserts=0",
        ],
    );
}

#[test]
fn pinned_lockstep_pair_under_stall() {
    assert_lines(
        lockstep("stall", ContentionPolicy::Stall { max_spins: 3 }),
        &[
            "stall engine: commits=1200 aborts=110 stall_retries=330",
            "stall: read_acquires=10478 write_acquires=10155 grants=20153 already_held=40 upgrades=82 raw=132 war=128 waw=180 false=440 true=0 unclassified=0 releases=20071 chain_inserts=0",
        ],
    );
}

#[test]
fn pinned_strong_isolation() {
    assert_lines(
        strong(),
        &["strong: read_acquires=1 write_acquires=1 grants=2 already_held=0 upgrades=0 raw=0 war=0 waw=0 false=0 true=0 unclassified=0 releases=2 chain_inserts=0"],
    );
}

#[test]
fn pinned_panicking_body() {
    assert_lines(
        panicking(),
        &["panicked: read_acquires=3 write_acquires=2 grants=4 already_held=1 upgrades=1 raw=0 war=0 waw=0 false=0 true=0 unclassified=0 releases=3 chain_inserts=0"],
    );
}
