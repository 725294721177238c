//! CI chaos smoke: a fixed panel of seeded fault schedules against the
//! live server, hermetic and fast (well under a minute), with a JSON
//! report for the build artifact.
//!
//! The panel is `FIXED_SEEDS` plus one deterministic case per crash point
//! (so every point provably fires even if the seeded panel happens to
//! crash elsewhere). Each case replays byte-for-byte from its seed: a CI
//! failure prints the seed, and `ChaosCase::from_seed(seed)` reproduces it
//! locally.
//!
//! Gates: zero invariant violations across the panel, and every crash
//! point fired at least once. Exit status 1 on any gate failure.
//!
//! Usage: `chaos_smoke [--out report.json]`.

use tm_harness::json::{obj, s, unum, Json};
use tm_server::chaos::{run_chaos_case, ChaosCase, ChaosOutcome};
use tm_server::client::BackoffPolicy;
use tm_server::fault::{CrashPoint, CrashSchedule, FaultPlan, FrameFaults};

/// The seeded panel: 28 consecutive seeds (spanning all four crash points
/// by construction — `from_seed` cycles the point with `seed % 4`) chosen
/// far from the proptest range's edge cases for variety in the derived
/// frame-fault mix.
const FIXED_SEEDS: std::ops::Range<u64> = 170_000..170_028;

/// One pinned case per crash point with no frame noise: the crash is the
/// only fault, so `acked == heap` exactly and the fire is guaranteed.
fn pinned_crash_case(point: CrashPoint, seed: u64) -> ChaosCase {
    ChaosCase {
        seed,
        shards: 1,
        clients: 2,
        writes_per_client: 8,
        key_universe: 64,
        dedup_window: 1024,
        plan: FaultPlan {
            seed,
            frame: FrameFaults::default(),
            crashes: vec![CrashSchedule { point, at_hit: 3 }],
            abort_storm_per_mille: 0,
        },
        policy: BackoffPolicy::fast_test(),
    }
}

/// One `case_results` row of the report.
fn case_result(label: &str, out: &ChaosOutcome) -> Json {
    obj(vec![
        ("label", s(label)),
        ("seed", unum(out.seed)),
        ("heap_sum", unum(out.heap_sum)),
        ("acked_delta", unum(out.acked_delta)),
        ("unknown_max_delta", unum(out.unknown_max_delta)),
        ("crashes_fired", unum(out.crashes_fired)),
        ("shard_restarts", unum(out.server.shard_restarts)),
        ("poisoned_writes", unum(out.server.poisoned_writes)),
        ("duplicates", unum(out.server.duplicates)),
        ("sessions_closed", unum(out.server.sessions_closed)),
        ("busy", unum(out.server.busy)),
        ("malformed", unum(out.server.malformed)),
        ("attempts", unum(out.retry.attempts)),
        ("acked_writes", unum(out.retry.acked_writes)),
        ("unknown", unum(out.retry.unknown)),
        ("fifo_seen", unum(out.fifo_seen)),
        (
            "violations",
            Json::Arr(out.violations.iter().map(s).collect()),
        ),
    ])
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => out_path = Some(it.next().expect("--out needs a path")),
            other => panic!("unknown flag {other}"),
        }
    }

    let started = std::time::Instant::now();
    let mut results: Vec<(String, ChaosOutcome)> = Vec::new();
    let mut fired_by_point = [0u64; 4];

    for point in CrashPoint::ALL {
        let seed = 0xc1 + point.index() as u64;
        let out = run_chaos_case(&pinned_crash_case(point, seed));
        for (acc, n) in fired_by_point.iter_mut().zip(out.crashes_by_point) {
            *acc += n;
        }
        results.push((format!("pinned:{}", point.name()), out));
    }
    for seed in FIXED_SEEDS {
        let out = run_chaos_case(&ChaosCase::from_seed(seed));
        for (acc, n) in fired_by_point.iter_mut().zip(out.crashes_by_point) {
            *acc += n;
        }
        results.push((format!("seeded:{seed}"), out));
    }

    let mut failures: Vec<String> = Vec::new();
    for (label, out) in &results {
        for v in &out.violations {
            failures.push(format!("{label}: {v}"));
        }
    }
    for point in CrashPoint::ALL {
        if fired_by_point[point.index()] == 0 {
            failures.push(format!("crash point {} never fired", point.name()));
        }
    }

    let elapsed = started.elapsed();
    let report = obj(vec![
        (
            "case_results",
            Json::Arr(
                results
                    .iter()
                    .map(|(label, out)| case_result(label, out))
                    .collect(),
            ),
        ),
        ("cases", unum(results.len() as u64)),
        ("elapsed_ms", unum(elapsed.as_millis() as u64)),
        (
            "crashes_fired_by_point",
            obj(CrashPoint::ALL
                .into_iter()
                .map(|p| (p.name(), unum(fired_by_point[p.index()])))
                .collect()),
        ),
        ("failures", Json::Arr(failures.iter().map(s).collect())),
        ("ok", Json::Bool(failures.is_empty())),
    ])
    .to_pretty();

    if let Some(path) = &out_path {
        std::fs::write(path, &report).expect("write chaos report");
        println!("chaos report written to {path}");
    } else {
        print!("{report}");
    }

    println!(
        "chaos smoke: {} cases in {:.1}s, crash fires {:?}",
        results.len(),
        elapsed.as_secs_f64(),
        fired_by_point,
    );
    if failures.is_empty() {
        println!("chaos smoke: all gates passed");
    } else {
        for f in &failures {
            eprintln!("GATE FAILED: {f}");
        }
        std::process::exit(1);
    }
}
