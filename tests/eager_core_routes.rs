//! Golden pin for the eager core's two routes.
//!
//! `Stm` (the compile-time one-table route) and `ShardedStm` (routed at
//! run time by a `ShardMap`) are one engine. Single-threaded fixed-budget
//! runs are seed-deterministic, so every counter below is an exact
//! constant — captured at the commit *before* the two engines were merged,
//! `table_grants` re-captured since (see the constants) — and the
//! one-table route must agree with the S=1 `ShardMap` route on all of them.
//!
//! Three specs run on each engine: `cross-shard-mix` as shipped (30%
//! heap-half transfers; over this small heap a 4-table route commits every
//! transaction through the ordered cross-shard protocol); the same mix
//! with 20% forced aborts and 25% read-only transactions, so the abort
//! path, the escalation restart (which must not count as an abort) and the
//! wait-free read path are pinned too; and `shard-hot`, which a 4-table
//! route mostly keeps on its eager single-table path.
//!
//! To re-capture after an *intended* behaviour change:
//! `cargo test --test eager_core_routes -- --ignored --nocapture`.

use tm_birthday::prelude::*;
use tm_birthday::stm::ConcurrentTable;
use tm_harness::driver::{run_synthetic_phase, Phase};
use tm_harness::scenario::{Scenario, SyntheticSpec};

const HEAP_WORDS: usize = 1 << 12;
const TABLE_ENTRIES: usize = 256;
const TXNS: u64 = 2000;
const SEED: u64 = 0xB1DA;

/// Everything a run leaves behind that the refactor must not move.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    commits: u64,
    aborts: u64,
    stall_retries: u64,
    committed_write_blocks: u64,
    committed_grant_blocks: u64,
    read_only_commits: u64,
    read_validation_retries: u64,
    table_grants: u64,
    cross_shard_commits: u64,
    heap_checksum: u64,
}

fn specs() -> [SyntheticSpec; 3] {
    let mix = Scenario::cross_shard_mix()
        .synthetic_spec()
        .expect("cross-shard-mix is synthetic");
    let stressed = SyntheticSpec {
        forced_abort_pct: 20,
        read_fraction: 25,
        ..mix
    };
    // Mostly one table's span, so a 4-table route stays on its eager
    // single-table path for most transactions and escalates for the rest.
    let local = Scenario::shard_hot()
        .synthetic_spec()
        .expect("shard-hot is synthetic");
    [mix, stressed, local]
}

fn builder(shards: usize) -> StmBuilder {
    StmBuilder::new()
        .heap_words(HEAP_WORDS)
        .table_entries(TABLE_ENTRIES)
        .shards(shards)
}

/// Position-sensitive FNV-1a over the heap words (`heap_sum` only counts
/// increments; this also pins *where* they landed).
fn heap_checksum<E: TmEngine>(engine: &E) -> u64 {
    (0..HEAP_WORDS as u64).fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
        (h ^ engine.heap().load(w * 8)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn observe<E: TmEngine>(
    engine: &E,
    spec: &SyntheticSpec,
    table_grants: impl Fn(&E) -> u64,
    cross_shard_commits: impl Fn(&E) -> u64,
) -> Golden {
    let phase = run_synthetic_phase(engine, spec, HEAP_WORDS, 1, Phase::Txns(TXNS), SEED);
    let writes: u64 = phase.tallies.iter().map(|t| t.committed_write_ops).sum();
    assert_eq!(engine.heap_sum(HEAP_WORDS), writes, "lost or torn update");
    let s = engine.engine_stats();
    Golden {
        commits: s.commits,
        aborts: s.aborts,
        stall_retries: s.stall_retries,
        committed_write_blocks: s.committed_write_blocks,
        committed_grant_blocks: s.committed_grant_blocks,
        read_only_commits: s.read_only_commits,
        read_validation_retries: s.read_validation_retries,
        table_grants: table_grants(engine),
        cross_shard_commits: cross_shard_commits(engine),
        heap_checksum: heap_checksum(engine),
    }
}

fn one_table(spec: &SyntheticSpec) -> Golden {
    observe(
        &builder(1).build_tagless(),
        spec,
        |stm| stm.table().stats_snapshot().grants,
        |_| 0,
    )
}

fn sharded(shards: usize, spec: &SyntheticSpec) -> Golden {
    observe(
        &builder(shards).build_sharded_tagless(),
        spec,
        |stm| {
            (0..stm.shard_count())
                .map(|i| stm.shard_table(i).stats_snapshot().grants)
                .sum()
        },
        |stm| stm.cross_shard_commits(),
    )
}

#[test]
#[ignore = "capture helper: prints the constants `pinned_to_the_pre_merge_engines` asserts"]
fn print_goldens() {
    for (i, spec) in specs().iter().enumerate() {
        println!("spec {i} one-table: {:#?}", one_table(spec));
        println!("spec {i} s4: {:#?}", sharded(4, spec));
    }
}

#[test]
fn one_table_route_and_s1_shard_map_route_agree() {
    for spec in &specs() {
        assert_eq!(one_table(spec), sharded(1, spec));
    }
}

#[test]
fn pinned_to_the_pre_merge_engines() {
    // (one-table route, 4-table route) per spec, captured at 618cad6;
    // `table_grants` re-captured when a read-modify-write on the home table
    // became one `Write` grant instead of a read grant and an upgrade (one
    // fewer grant per RMW whose key was not yet held). Every other field
    // is the 618cad6 capture.
    let expected = [
        (
            Golden {
                commits: 2000,
                aborts: 0,
                stall_retries: 0,
                committed_write_blocks: 3997,
                committed_grant_blocks: 15781,
                read_only_commits: 0,
                read_validation_retries: 0,
                table_grants: 15873,
                cross_shard_commits: 0,
                heap_checksum: 3142063293424755933,
            },
            Golden {
                commits: 2000,
                aborts: 0,
                stall_retries: 0,
                committed_write_blocks: 3997,
                committed_grant_blocks: 15902,
                read_only_commits: 0,
                read_validation_retries: 0,
                table_grants: 18462,
                cross_shard_commits: 2000,
                heap_checksum: 3142063293424755933,
            },
        ),
        (
            Golden {
                commits: 1507,
                aborts: 294,
                stall_retries: 0,
                committed_write_blocks: 3013,
                committed_grant_blocks: 11892,
                read_only_commits: 493,
                read_validation_retries: 0,
                table_grants: 11966,
                cross_shard_commits: 0,
                heap_checksum: 1296420420116912129,
            },
            Golden {
                commits: 1501,
                aborts: 489,
                stall_retries: 0,
                committed_write_blocks: 2997,
                committed_grant_blocks: 11929,
                read_only_commits: 499,
                read_validation_retries: 0,
                table_grants: 13838,
                cross_shard_commits: 1501,
                heap_checksum: 2417943459747951625,
            },
        ),
        (
            Golden {
                commits: 2000,
                aborts: 0,
                stall_retries: 0,
                committed_write_blocks: 7682,
                committed_grant_blocks: 20788,
                read_only_commits: 0,
                read_validation_retries: 0,
                table_grants: 22271,
                cross_shard_commits: 0,
                heap_checksum: 10537430372518984207,
            },
            Golden {
                commits: 2000,
                aborts: 0,
                stall_retries: 0,
                committed_write_blocks: 7682,
                committed_grant_blocks: 20805,
                read_only_commits: 0,
                read_validation_retries: 0,
                table_grants: 26736,
                cross_shard_commits: 1195,
                heap_checksum: 10537430372518984207,
            },
        ),
    ];
    for (spec, (one, four)) in specs().iter().zip(expected) {
        assert_eq!(one_table(spec), one);
        assert_eq!(sharded(4, spec), four);
    }
}
