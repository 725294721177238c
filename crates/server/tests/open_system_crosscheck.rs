//! Cross-check: the live service, driven at a fixed operating point, must
//! measure a per-attempt conflict probability consistent with the
//! open-system lockstep simulation (`tm_sim::open`) at the *same* point.
//!
//! # Operating point
//!
//! * `C = 4` engine writers (server shards; every write is its own
//!   transaction — `max_ops = 1` — so shard count is the paper's `C`),
//! * `W = 8` distinct keys per write (`MultiAdd` with 8 distinct draws),
//! * `α = 0` (increment-only bodies read exactly what they write),
//! * `N = 4096` ownership-table entries, multiplicative hash — the same
//!   organization the simulator uses,
//! * key universe `2^16 ≫ C·W`, so *true* conflicts are negligible
//!   (birthday bound ≈ C²W²/2·65536 ≈ 0.8 % per attempt-pair) and
//!   essentially every measured abort is table aliasing — the quantity
//!   the simulation counts.
//!
//! Model prediction at this point (Eq. 8): `C(C−1)(1+2α)W²/2N =
//! 4·3·64/8192 ≈ 9.4 %` per lockstep round; the simulation measures the
//! same quantity without the model's independence assumptions.
//!
//! # Documented tolerance
//!
//! The service is *not* a lockstep simulator: commits desynchronize the
//! shards, randomized backoff decorrelates retries, `yield_in_txn` only
//! approximates footprint overlap on small machines, and the paper's
//! metric is per-*round* while the engine counts per-*attempt*. Those
//! mismatches compress the measured rate relative to the simulated one
//! but preserve its magnitude. We therefore assert agreement within a
//! **factor of 3 plus an absolute floor of 0.02** — wide enough to be
//! robust on a single-core CI box, tight enough to catch the failure
//! modes this test exists for (a broken read-validate path measuring ~0,
//! a table regression measuring ~50 %, a mis-sized table shifting the
//! rate by an order of magnitude).

use std::sync::Arc;
use std::time::Duration;

use tm_harness::AccessPattern;
use tm_server::loadgen::{run_loadgen, ArrivalProcess, LoadgenConfig};
use tm_server::server::{start, ServerConfig};
use tm_server::{AdmissionPolicy, BatchPolicy};
use tm_sim::open::{run_open_system, OpenSystemParams};
use tm_stm::{HashKind, StmBuilder, TmEngine};

const SHARDS: u32 = 4; // C
const WRITE_KEYS: u32 = 8; // W
const TABLE_ENTRIES: usize = 4096; // N
const KEY_UNIVERSE: u64 = 1 << 16;

#[test]
fn measured_conflict_rate_matches_simulation() {
    let engine = Arc::new(
        StmBuilder::new()
            .heap_words(KEY_UNIVERSE as usize)
            .table_entries(TABLE_ENTRIES)
            .hash(HashKind::Multiplicative)
            .build_tagless(),
    );
    let mut cfg = ServerConfig::new(KEY_UNIVERSE);
    cfg.shards = SHARDS;
    cfg.batch = BatchPolicy::unbatched(); // one request = one transaction
    cfg.admission = AdmissionPolicy::unlimited(); // shedding would thin C
    cfg.yield_in_txn = true; // interleave footprints on small machines
    let server = start(Arc::clone(&engine), cfg);

    // Enough sessions to keep all four shards saturated (sessions pin to
    // shards round-robin) and enough writes for a tight estimate: with
    // p ≈ 0.09 and ~3000 attempts, σ ≈ 0.005.
    let fleet = LoadgenConfig {
        sessions: 64,
        driver_threads: 4,
        requests_per_session: 40,
        arrivals: ArrivalProcess::Poisson { rate_hz: 4000.0 },
        write_fraction: 1.0,
        keys_per_op: WRITE_KEYS,
        pattern: AccessPattern::Uniform,
        key_universe: KEY_UNIVERSE,
        pipeline_window: 8,
        seed: 0xc0c5,
    };
    let report = run_loadgen(&server, &fleet);
    let stats = engine.engine_stats();
    server.shutdown();

    assert_eq!(report.unanswered, 0);
    assert!(report.conservation_holds(&*engine, KEY_UNIVERSE));
    assert!(
        stats.commits >= 2000,
        "need a real sample, got {}",
        stats.commits
    );

    // Per-attempt conflict probability the service measured.
    let attempts = stats.commits + stats.aborts;
    let measured = stats.aborts as f64 / attempts as f64;

    // The simulator at the same operating point.
    let sim = run_open_system(&OpenSystemParams::at_operating_point(
        SHARDS,
        WRITE_KEYS,
        0,
        TABLE_ENTRIES,
    ));
    let predicted = sim.conflict_rate;

    // Documented tolerance (see module docs): factor 3 + absolute 0.02.
    let lo = (predicted / 3.0 - 0.02).max(0.0);
    let hi = predicted * 3.0 + 0.02;
    assert!(
        (lo..=hi).contains(&measured),
        "measured {measured:.4} outside [{lo:.4}, {hi:.4}] around simulated {predicted:.4} \
         (commits {}, aborts {})",
        stats.commits,
        stats.aborts,
    );

    // The geometric bridge: the simulator's implied aborts-per-commit and
    // the engine's measured abort ratio must agree under the same band.
    let implied = sim.implied_aborts_per_commit();
    let ratio = stats.abort_ratio();
    let r_lo = (implied / 3.0 - 0.02).max(0.0);
    let r_hi = implied * 3.0 + 0.02;
    assert!(
        (r_lo..=r_hi).contains(&ratio),
        "abort ratio {ratio:.4} outside [{r_lo:.4}, {r_hi:.4}] around implied {implied:.4}",
    );
}

/// Quadrupling the ownership table must cut the measured conflict rate by
/// roughly the same factor the simulation predicts (the paper's 1/N law,
/// observed through the service instead of the harness).
#[test]
fn table_size_scaling_tracks_simulation() {
    let rate_at = |table_entries: usize| -> f64 {
        let engine = Arc::new(
            StmBuilder::new()
                .heap_words(KEY_UNIVERSE as usize)
                .table_entries(table_entries)
                .hash(HashKind::Multiplicative)
                .build_tagless(),
        );
        let mut cfg = ServerConfig::new(KEY_UNIVERSE);
        cfg.shards = SHARDS;
        cfg.batch = BatchPolicy::unbatched();
        cfg.admission = AdmissionPolicy::unlimited();
        cfg.yield_in_txn = true;
        let server = start(Arc::clone(&engine), cfg);
        // 50 requests a session: on a 2-vCPU box, 25 left the measured
        // factor's spread so wide (1.20 to 7.00 over 40 runs) that one run
        // fell below 1.4; 50 held it to 1.75 to 3.73 over 30 runs.
        let fleet = LoadgenConfig {
            sessions: 64,
            driver_threads: 4,
            requests_per_session: 50,
            arrivals: ArrivalProcess::Poisson { rate_hz: 4000.0 },
            write_fraction: 1.0,
            keys_per_op: WRITE_KEYS,
            pattern: AccessPattern::Uniform,
            key_universe: KEY_UNIVERSE,
            pipeline_window: 8,
            seed: 0x5ca1e,
        };
        let report = run_loadgen(&server, &fleet);
        let stats = engine.engine_stats();
        server.shutdown();
        assert_eq!(report.unanswered, 0);
        assert!(report.conservation_holds(&*engine, KEY_UNIVERSE));
        stats.aborts as f64 / (stats.commits + stats.aborts) as f64
    };

    let small = rate_at(1024);
    let large = rate_at(4096);
    // Simulated counterparts at both points.
    let sim_small = run_open_system(&OpenSystemParams::at_operating_point(
        SHARDS, WRITE_KEYS, 0, 1024,
    ))
    .conflict_rate;
    let sim_large = run_open_system(&OpenSystemParams::at_operating_point(
        SHARDS, WRITE_KEYS, 0, 4096,
    ))
    .conflict_rate;

    // Both the direction and the rough magnitude of the 1/N effect must
    // survive the service stack. The simulated factor is ~3–4; accept
    // anything meaningfully above 1 given single-box noise at small rates.
    assert!(
        small > large,
        "shrinking the table must raise conflicts: {small:.4} vs {large:.4}"
    );
    let measured_factor = small / large.max(1e-4);
    let sim_factor = sim_small / sim_large.max(1e-4);
    assert!(
        measured_factor > 1.4,
        "measured factor {measured_factor:.2} too weak (sim factor {sim_factor:.2})"
    );
}

// Timeout guard: both tests drive live threads; keep a generous cap so a
// wedged shard fails fast instead of hanging CI.
#[test]
fn crosscheck_machinery_is_fast_enough() {
    let t0 = std::time::Instant::now();
    let sim = run_open_system(&OpenSystemParams::at_operating_point(4, 8, 0, 4096));
    assert!(sim.runs >= 4000);
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "simulation too slow for a cross-check gate"
    );
}
