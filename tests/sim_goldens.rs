//! Golden pin for the Monte-Carlo simulators: every field of every result
//! type, at seeded points, exactly.
//!
//! The simulators are single-threaded and seeded, so each line below is an
//! exact constant; `f64` fields are pinned by their bit patterns. The lines
//! were captured at 3b377a2, while the simulators still ran on a sequential
//! table that kept each transaction's holdings inside itself, before they
//! moved onto the concurrent tables the STM uses. That move must reproduce
//! them bit for bit, including `intra_alias_rate` (one open-system point
//! has W = 20, so some additions alias within their own transaction) and
//! the closed system's `mean_occupancy`.
//!
//! To re-capture after an *intended* behaviour change:
//! `cargo test --test sim_goldens -- --ignored --nocapture`.

use tm_birthday::sim::closed::{
    run_closed_system, ClosedSystemParams, ClosedSystemResult, ConflictReaction,
};
use tm_birthday::sim::hybrid::{run_hybrid, HybridParams, HybridResult, Organization};
use tm_birthday::sim::open::{run_open_system, OpenSystemParams, OpenSystemResult};
use tm_birthday::sim::strong::{
    run_strong_isolation, StrongIsolationParams, StrongIsolationResult,
};
use tm_birthday::sim::traced::{alias_likelihood, TracedAliasParams, TracedAliasResult};
use tm_birthday::traces::filter::{remove_true_conflicts, to_block_stream};
use tm_birthday::traces::jbb::{generate, JbbParams};

fn open_line(r: &OpenSystemResult) -> String {
    format!(
        "conflict_rate={:#x} runs={} conflicted_runs={} intra_alias_rate={:#x}",
        r.conflict_rate.to_bits(),
        r.runs,
        r.conflicted_runs,
        r.intra_alias_rate.to_bits(),
    )
}

fn closed_line(r: &ClosedSystemResult) -> String {
    format!(
        "conflicts={} commits={} mean_occupancy={:#x} applied_concurrency={} \
         actual_concurrency={:#x} ticks={}",
        r.conflicts,
        r.commits,
        r.mean_occupancy.to_bits(),
        r.applied_concurrency,
        r.actual_concurrency.to_bits(),
        r.ticks,
    )
}

fn traced_line(r: &TracedAliasResult) -> String {
    format!(
        "alias_likelihood={:#x} samples={} aliased_samples={}",
        r.alias_likelihood.to_bits(),
        r.samples,
        r.aliased_samples,
    )
}

fn strong_line(r: &StrongIsolationResult) -> String {
    format!(
        "txn_conflicts={} bystander_induced_aborts={} bystander_stalls={} commits={} \
         bystander_accesses={}",
        r.txn_conflicts,
        r.bystander_induced_aborts,
        r.bystander_stalls,
        r.commits,
        r.bystander_accesses,
    )
}

fn hybrid_line(r: &HybridResult) -> String {
    format!(
        "htm_commits={} stm_commits={} stm_conflicts={} stm_applied_concurrency={:#x} \
         stm_effective_concurrency={:#x} ticks={}",
        r.htm_commits,
        r.stm_commits,
        r.stm_conflicts,
        r.stm_applied_concurrency.to_bits(),
        r.stm_effective_concurrency.to_bits(),
        r.ticks,
    )
}

fn open() -> Vec<String> {
    [
        (2, 8, 4096, 600, 1),
        (4, 10, 16_384, 400, 2),
        (2, 20, 16_384, 600, 3),
    ]
    .into_iter()
    .map(
        |(concurrency, write_footprint, table_entries, runs, seed)| {
            let p = OpenSystemParams {
                concurrency,
                write_footprint,
                alpha: 2,
                table_entries,
                runs,
                seed,
            };
            format!(
                "C={concurrency} W={write_footprint}: {}",
                open_line(&run_open_system(&p))
            )
        },
    )
    .collect()
}

fn closed() -> Vec<String> {
    [ConflictReaction::Abort, ConflictReaction::Stall(30)]
        .into_iter()
        .map(|reaction| {
            let p = ClosedSystemParams {
                threads: 4,
                write_footprint: 10,
                alpha: 2,
                table_entries: 2048,
                target_commits: 200,
                reaction,
                seed: 21,
            };
            format!("{reaction:?}: {}", closed_line(&run_closed_system(&p)))
        })
        .collect()
}

fn traced() -> Vec<String> {
    let traces = generate(&JbbParams {
        accesses_per_thread: 30_000,
        ..Default::default()
    });
    let raw: Vec<_> = traces.iter().map(|t| to_block_stream(t, 6)).collect();
    let streams = remove_true_conflicts(&raw);
    let p = TracedAliasParams {
        table_entries: 4096,
        samples: 300,
        ..Default::default()
    };
    vec![format!(
        "jbb: {}",
        traced_line(&alias_likelihood(&streams, &p))
    )]
}

fn strong() -> Vec<String> {
    let r = run_strong_isolation(&StrongIsolationParams::default());
    vec![format!("default: {}", strong_line(&r))]
}

fn hybrid() -> Vec<String> {
    let mut lines = Vec::new();
    for organization in [Organization::Tagless, Organization::Tagged] {
        for table_entries in [1024, 16_384] {
            let r = run_hybrid(&HybridParams {
                organization,
                table_entries,
                accesses_per_thread: 20_000,
                ..Default::default()
            });
            lines.push(format!(
                "{organization:?} N={table_entries}: {}",
                hybrid_line(&r)
            ));
        }
    }
    lines
}

#[test]
#[ignore = "capture helper: prints the lines the pinned_* tests assert"]
fn print_goldens() {
    for (name, lines) in [
        ("open", open()),
        ("closed", closed()),
        ("traced", traced()),
        ("strong", strong()),
        ("hybrid", hybrid()),
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
fn pinned_open_system() {
    assert_lines(
        open(),
        &[
            "C=2 W=8: conflict_rate=0x3fb1eb851eb851ec runs=600 conflicted_runs=42 intra_alias_rate=0x3f5daa549437bb4a",
            "C=4 W=10: conflict_rate=0x3fc70a3d70a3d70a runs=400 conflicted_runs=72 intra_alias_rate=0x3f443160be920107",
            "C=2 W=20: conflict_rate=0x3fbeb851eb851eb8 runs=600 conflicted_runs=72 intra_alias_rate=0x3f566ba9b5d99346",
        ],
    );
}

#[test]
fn pinned_closed_system() {
    assert_lines(
        closed(),
        &[
            "Abort: conflicts=255 commits=677 mean_occupancy=0x404b13bbbbbbbbbc applied_concurrency=4 actual_concurrency=0x400ce1d950c83fb7 ticks=6000",
            "Stall(30): conflicts=11 commits=697 mean_occupancy=0x404cb0bf258bf259 applied_concurrency=4 actual_concurrency=0x400e9a657d621392 ticks=6000",
        ],
    );
}

#[test]
fn pinned_traced_alias_likelihood() {
    assert_lines(
        traced(),
        &["jbb: alias_likelihood=0x3fd7e4b17e4b17e5 samples=300 aliased_samples=112"],
    );
}

#[test]
fn pinned_strong_isolation() {
    assert_lines(
        strong(),
        &[
            "default: txn_conflicts=107 bystander_induced_aborts=90 bystander_stalls=68 commits=2481 bystander_accesses=78000",
        ],
    );
}

#[test]
fn pinned_hybrid() {
    assert_lines(
        hybrid(),
        &[
            "Tagless N=1024: htm_commits=3 stm_commits=23 stm_conflicts=42332 stm_applied_concurrency=0x400e0bd0605dfdc9 stm_effective_concurrency=0x3fa8bb225abaf34a ticks=181025",
            "Tagless N=16384: htm_commits=3 stm_commits=23 stm_conflicts=250 stm_applied_concurrency=0x400aeac3a4ff0348 stm_effective_concurrency=0x3fe917b716333206 ticks=11151",
            "Tagged N=1024: htm_commits=3 stm_commits=23 stm_conflicts=0 stm_applied_concurrency=0x4007c2c8590b2164 stm_effective_concurrency=0x4007c2c8590b2164 ticks=2944",
            "Tagged N=16384: htm_commits=3 stm_commits=23 stm_conflicts=0 stm_applied_concurrency=0x4007c2c8590b2164 stm_effective_concurrency=0x4007c2c8590b2164 ticks=2944",
        ],
    );
}
