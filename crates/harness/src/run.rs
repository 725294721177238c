//! Executing one (engine, scenario, threads) cell — and whole matrices.
//!
//! [`execute`] builds the requested engine, runs warmup + measure phases of
//! the scenario on real OS threads, verifies the scenario's isolation
//! invariant, and folds everything into a [`RunResult`]. [`run_matrix`]
//! sweeps the cross product and returns a [`HarnessReport`] ready for JSON
//! serialization and CI gating.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tm_adaptive::{tick_shards, AdaptiveStmBuilder, ResizePolicy};
use tm_model::lockstep;
use tm_shard::{ShardedStm, ShardedStmBuilder};
use tm_sim::closed::{run_closed_system, ClosedSystemParams};
use tm_stm::{
    AbortCause, ConcurrentTable, Probe, Recorder, ShardStats, StmBuilder, TelemetrySnapshot,
};

use crate::driver::{
    build_replay_streams, run_replay_phase, run_synthetic_phase, Phase, ThreadTally,
};
use crate::engine::{EngineKind, EngineStats, TmEngine};
use crate::report::{HarnessReport, RunResult};
use crate::scenario::{AccessPattern, Scenario, ScenarioKind};
use crate::structs_load::run_structs;

/// Everything needed to execute one cell of the matrix.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Engine under test.
    pub engine: EngineKind,
    /// Workload description.
    pub scenario: Scenario,
    /// Worker OS threads.
    pub threads: u32,
    /// Shard count for the `tm-shard` engines (`1` elsewhere — unsharded
    /// engines ignore the axis and their report rows stay keyed as before).
    pub shards: usize,
    /// Ownership-table entries (the starting size for the adaptive engine;
    /// the **total** budget, split per shard, for the sharded engines).
    pub table_entries: usize,
    /// Heap size in words.
    pub heap_words: usize,
    /// Run seed — per-thread RNG streams derive from it deterministically.
    pub seed: u64,
    /// Warmup phase (not measured).
    pub warmup: Phase,
    /// Measured phase.
    pub measure: Phase,
}

impl RunSpec {
    /// Sensible defaults: 4 threads, 4096-entry table, 64k-word heap,
    /// 50 ms warmup, 250 ms measurement.
    pub fn new(engine: EngineKind, scenario: Scenario) -> Self {
        Self {
            engine,
            scenario,
            threads: 4,
            shards: 1,
            table_entries: 4096,
            heap_words: 1 << 16,
            seed: 0xB1DA,
            warmup: Phase::DurationMs(50),
            measure: Phase::DurationMs(250),
        }
    }
}

/// Outcome of driving both phases on a concrete engine.
struct DriveOutcome {
    measure_elapsed: Duration,
    measure: EngineStats,
    violations: u64,
    /// Telemetry captured over exactly the measured phase (the recorder's
    /// window is reset at the warmup/measure boundary and snapshotted
    /// before any post-run verification transactions).
    telemetry: TelemetrySnapshot,
}

/// Execute one cell. Every engine runs every scenario — the old
/// structs×lazy carve-out is gone now that `tm-structs` is generic over
/// the core transaction traits.
pub fn execute(spec: &RunSpec) -> RunResult {
    execute_traced(spec).0
}

/// [`execute`], also returning the raw measured-phase telemetry (latency
/// histograms, abort causes, and the flight-recorder event ring) for JSONL
/// trace export.
///
/// Every engine runs with an attached [`Recorder`] probe, so abort causes
/// are attributed at the abort site on every cell.
pub fn execute_traced(spec: &RunSpec) -> (RunResult, TelemetrySnapshot) {
    let recorder = Arc::new(Recorder::new());
    let builder = StmBuilder::new()
        .heap_words(spec.heap_words)
        .table_entries(spec.table_entries)
        .shards(spec.shards)
        .probe(Arc::clone(&recorder));
    let mut extra = AdaptiveExtra::default();
    let outcome = match spec.engine {
        EngineKind::EagerTagless => drive(&builder.build_tagless(), spec, &recorder),
        EngineKind::EagerTagged => drive(&builder.build_tagged(), spec, &recorder),
        EngineKind::Lazy => drive(&builder.build_lazy(), spec, &recorder),
        EngineKind::Sharded => {
            let stm = builder.build_sharded_tagless();
            let mut outcome = drive(&stm, spec, &recorder);
            attach_shard_rows(&stm, &mut outcome);
            outcome
        }
        EngineKind::ShardedAdaptive => {
            let (stm, mut controllers) =
                builder.build_sharded_adaptive(ResizePolicy::default(), spec.threads);
            // One operator loop ticking every shard's controller: each
            // shard's table tracks its own workload slice online.
            let mut outcome = drive_ticked(&stm, spec, &recorder, || {
                let _ = tick_shards(&stm, &mut controllers);
            });
            attach_shard_rows(&stm, &mut outcome);
            extra = AdaptiveExtra {
                final_table_entries: Some(
                    (0..stm.shard_count())
                        .map(|i| stm.shard_table(i).live_config().num_entries() as u64)
                        .sum(),
                ),
                resizes: Some(
                    (0..stm.shard_count())
                        .map(|i| stm.shard_table(i).resize_stats().resizes)
                        .sum(),
                ),
            };
            outcome
        }
        EngineKind::Adaptive => {
            let (stm, mut controller) =
                builder.build_adaptive(ResizePolicy::default(), spec.threads);
            let outcome = drive_ticked(&stm, spec, &recorder, || {
                let _ = controller.tick(&stm);
            });
            let stats = stm.table().resize_stats();
            // Report the *live* geometry (the table may have resized away
            // from the construction-time config mid-run).
            let live = stm.table().live_config();
            extra = AdaptiveExtra {
                final_table_entries: Some(live.num_entries() as u64),
                resizes: Some(stats.resizes),
            };
            outcome
        }
    };
    let result = finish(spec, &outcome, extra);
    (result, outcome.telemetry)
}

#[derive(Default)]
struct AdaptiveExtra {
    final_table_entries: Option<u64>,
    resizes: Option<u64>,
}

/// Convert a sharded engine's per-shard counters into the telemetry rows
/// the snapshot carries (whole-run cumulative, unlike the windowed global
/// counters — the rows are a load-balance diagnostic, not a gated rate).
fn attach_shard_rows<T: ConcurrentTable, P: Probe>(
    stm: &ShardedStm<T, P>,
    outcome: &mut DriveOutcome,
) {
    outcome.telemetry.shard_stats = stm
        .shard_snapshots()
        .iter()
        .enumerate()
        .map(|(i, s)| ShardStats {
            shard: i as u32,
            commits: s.commits,
            aborts: s.aborts,
            stall_retries: s.stall_retries,
            committed_write_blocks: s.committed_write_blocks,
            read_only_commits: s.read_only_commits,
            table_entries: stm.shard_table(i).num_entries() as u64,
        })
        .collect();
}

/// [`drive`] beside a live operator loop, as in production: a second thread
/// calls `tick` (observe the commit stream, consult the sizing model,
/// resize online) every 5 ms until the run ends.
fn drive_ticked<E: TmEngine>(
    engine: &E,
    spec: &RunSpec,
    recorder: &Recorder,
    mut tick: impl FnMut() + Send,
) -> DriveOutcome {
    let stop = AtomicBool::new(false);
    let mut outcome = None;
    crossbeam::scope(|s| {
        let stop = &stop;
        s.spawn(move |_| {
            while !stop.load(Ordering::Acquire) {
                tick();
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        outcome = Some(drive(engine, spec, recorder));
        stop.store(true, Ordering::Release);
    })
    .expect("controller scope");
    outcome.expect("scope body ran")
}

/// Drive any scenario family on any engine. The recorder's window is reset
/// at the warmup/measure boundary and snapshotted immediately after the
/// measured phase, so the captured telemetry covers exactly the phase the
/// counters describe (post-run verification transactions excluded).
fn drive<E: TmEngine>(engine: &E, spec: &RunSpec, recorder: &Recorder) -> DriveOutcome {
    if let ScenarioKind::Structs(kind) = &spec.scenario.kind {
        let captured: RefCell<Option<TelemetrySnapshot>> = RefCell::new(None);
        let run = run_structs(
            engine,
            *kind,
            spec.heap_words,
            spec.threads,
            spec.warmup,
            spec.measure,
            spec.seed,
            || recorder.reset_window(),
            || *captured.borrow_mut() = Some(recorder.snapshot()),
        );
        let telemetry = captured.into_inner().expect("after_measure hook ran");
        return DriveOutcome {
            measure_elapsed: run.measure.elapsed,
            measure: run.measure.counters,
            violations: run.violations,
            telemetry,
        };
    }
    drive_addr_level(engine, spec, recorder)
}

/// Drive an address-level (synthetic or replay) scenario on any engine.
fn drive_addr_level<E: TmEngine>(engine: &E, spec: &RunSpec, recorder: &Recorder) -> DriveOutcome {
    let warm_seed = crate::driver::warmup_seed(spec.seed);
    let (warmup, measure) = match &spec.scenario.kind {
        ScenarioKind::Synthetic(s) => {
            let w = run_synthetic_phase(
                engine,
                s,
                spec.heap_words,
                spec.threads,
                spec.warmup,
                warm_seed,
            );
            recorder.reset_window();
            let m = run_synthetic_phase(
                engine,
                s,
                spec.heap_words,
                spec.threads,
                spec.measure,
                spec.seed,
            );
            (w, m)
        }
        ScenarioKind::Replay(r) => {
            let streams = build_replay_streams(r, spec.seed, spec.heap_words);
            let w = run_replay_phase(
                engine,
                &streams,
                r.blocks_per_txn,
                spec.threads,
                spec.warmup,
            );
            recorder.reset_window();
            let m = run_replay_phase(
                engine,
                &streams,
                r.blocks_per_txn,
                spec.threads,
                spec.measure,
            );
            (w, m)
        }
        ScenarioKind::Structs(_) => unreachable!("structs handled by drive"),
    };
    let telemetry = recorder.snapshot();
    // Isolation invariant: writes are RMW increments, so the final heap
    // checksum must equal the committed write ops of both phases. Any lost
    // update, torn publish, or isolation leak breaks the equality.
    let expected: u64 = warmup
        .tallies
        .iter()
        .chain(&measure.tallies)
        .map(|t: &ThreadTally| t.committed_write_ops)
        .sum();
    let violations = u64::from(engine.heap_sum(spec.heap_words) != expected);
    DriveOutcome {
        measure_elapsed: measure.elapsed,
        measure: measure.counters,
        violations,
        telemetry,
    }
}

/// Monte-Carlo cross-check: predicted false conflicts per commit from the
/// closed-system simulator at the same (C, W, α, N) operating point.
/// Only meaningful for uniform synthetic workloads on the plain tagless
/// organization, which is exactly what the simulator models.
fn sim_cross_check(spec: &RunSpec) -> Option<f64> {
    if spec.engine != EngineKind::EagerTagless {
        return None;
    }
    let ScenarioKind::Synthetic(s) = &spec.scenario.kind else {
        return None;
    };
    if !matches!(s.pattern, AccessPattern::Uniform) {
        return None;
    }
    // The simulator's conflicts are all table-induced (its block space is
    // effectively collision-free), so its prediction is only commensurable
    // with runs whose measured aborts are likewise pure false conflicts.
    if !s.disjoint {
        return None;
    }
    // The simulator's α is an integer reads-per-write; a workload whose
    // ratio truncates would be cross-checked at the wrong operating point,
    // so only exact ratios are predicted.
    let writes = s.writes_per_txn.max(1);
    if s.reads_per_txn % writes != 0 {
        return None;
    }
    let result = run_closed_system(&ClosedSystemParams {
        threads: spec.threads,
        write_footprint: writes,
        alpha: s.reads_per_txn / writes,
        table_entries: spec.table_entries,
        target_commits: 300,
        reaction: Default::default(),
        seed: spec.seed,
    });
    Some(result.aborts_per_commit())
}

fn finish(spec: &RunSpec, outcome: &DriveOutcome, extra: AdaptiveExtra) -> RunResult {
    let elapsed_s = outcome.measure_elapsed.as_secs_f64();
    let commits = outcome.measure.commits;
    let aborts = outcome.measure.aborts;
    let telemetry = &outcome.telemetry;
    let false_aborts = telemetry.cause(AbortCause::FalseConflict);
    let abort_causes: Vec<(String, u64)> = AbortCause::ALL
        .iter()
        .filter_map(|&cause| {
            let count = telemetry.cause(cause);
            (count > 0).then(|| (cause.as_str().to_string(), count))
        })
        .collect();
    let (p50, p95, p99) = match telemetry.txn.p50_p95_p99() {
        Some((a, b, c)) => (Some(a), Some(b), Some(c)),
        None => (None, None, None),
    };
    // The empirical-vs-model cross-check: Eq. 8 at the *observed* operating
    // point — measured W and α, the run's thread count, and the table's
    // final live geometry (the starting geometry everywhere but adaptive).
    let mean_write_footprint = outcome.measure.mean_write_footprint();
    let mean_alpha = outcome.measure.mean_alpha();
    let live_entries = extra
        .final_table_entries
        .unwrap_or(spec.table_entries as u64);
    let predicted_false_conflicts_per_commit = (commits > 0).then(|| {
        lockstep::conflict_likelihood(
            spec.threads.max(2),
            mean_write_footprint.round().max(1.0) as u32,
            mean_alpha.max(0.0),
            live_entries,
        )
        .min(1.0)
    });
    // The shard axis only keys cells of engines that honor it, so
    // unsharded rows keep their pre-v5 identity whatever `--shards` says.
    let shards = if spec.engine.is_sharded() {
        spec.shards.max(1) as u32
    } else {
        1
    };
    RunResult {
        engine: spec.engine.name().to_string(),
        scenario: spec.scenario.name.clone(),
        threads: spec.threads,
        shards,
        cross_shard_commits: spec
            .engine
            .is_sharded()
            .then_some(telemetry.cross_shard_commits),
        cross_shard_aborts: spec
            .engine
            .is_sharded()
            .then_some(telemetry.cross_shard_aborts),
        table_entries: spec.table_entries as u64,
        heap_words: spec.heap_words as u64,
        seed: spec.seed,
        warmup: spec.warmup.describe(),
        measure: spec.measure.describe(),
        elapsed_s,
        commits,
        aborts,
        read_only_commits: outcome.measure.read_only_commits,
        read_validation_retries: outcome.measure.read_validation_retries,
        read_aborts: outcome.measure.read_aborts,
        lock_aborts: outcome.measure.lock_aborts,
        validation_aborts: outcome.measure.validation_aborts,
        stall_retries: outcome.measure.stall_retries,
        throughput_txn_s: if elapsed_s > 0.0 {
            (commits + outcome.measure.read_only_commits) as f64 / elapsed_s
        } else {
            0.0
        },
        aborts_per_commit: aborts as f64 / commits.max(1) as f64,
        false_conflict_aborts: Some(false_aborts),
        false_conflicts_per_commit: Some(false_aborts as f64 / commits.max(1) as f64),
        invariant_violations: outcome.violations,
        sim_false_conflicts_per_commit: sim_cross_check(spec),
        final_table_entries: extra.final_table_entries,
        resizes: extra.resizes,
        latency_p50_ns: p50,
        latency_p95_ns: p95,
        latency_p99_ns: p99,
        abort_causes,
        mean_write_footprint,
        mean_alpha,
        predicted_false_conflicts_per_commit,
    }
}

/// Configuration of a whole matrix sweep.
#[derive(Clone, Debug)]
pub struct MatrixConfig {
    /// Engines to run.
    pub engines: Vec<EngineKind>,
    /// Scenarios to run.
    pub scenarios: Vec<Scenario>,
    /// Worker threads per run.
    pub threads: u32,
    /// Shard count for the `tm-shard` engines' cells (`--shards`).
    pub shards: usize,
    /// Ownership-table entries.
    pub table_entries: usize,
    /// Heap words.
    pub heap_words: usize,
    /// Base seed (every cell uses it directly; determinism per cell).
    pub seed: u64,
    /// Warmup phase.
    pub warmup: Phase,
    /// Measured phase.
    pub measure: Phase,
    /// Recorded in the report so comparisons can refuse cross-mode diffs.
    pub fast: bool,
}

impl MatrixConfig {
    /// The standard full matrix: all engines × all standard scenarios.
    pub fn standard() -> Self {
        Self {
            engines: EngineKind::all().to_vec(),
            scenarios: Scenario::standard_matrix(),
            threads: 4,
            shards: 4,
            table_entries: 4096,
            heap_words: 1 << 16,
            seed: 0xB1DA,
            warmup: Phase::DurationMs(100),
            measure: Phase::DurationMs(500),
            fast: false,
        }
    }

    /// The CI smoke variant: same matrix, much shorter phases.
    pub fn fast() -> Self {
        Self {
            warmup: Phase::DurationMs(30),
            measure: Phase::DurationMs(120),
            fast: true,
            ..Self::standard()
        }
    }
}

/// Sweep the matrix, reporting progress through `progress` (cell index,
/// total cells, result of the finished cell).
pub fn run_matrix(
    config: &MatrixConfig,
    progress: impl FnMut(usize, usize, &RunResult),
) -> HarnessReport {
    run_matrix_traced(config, progress, |_, _| {})
}

/// [`run_matrix`], additionally handing each finished cell's telemetry
/// snapshot to `telemetry_sink` — the hook `--trace-out` uses to stream
/// flight-recorder events as JSONL.
pub fn run_matrix_traced(
    config: &MatrixConfig,
    mut progress: impl FnMut(usize, usize, &RunResult),
    mut telemetry_sink: impl FnMut(&RunResult, &TelemetrySnapshot),
) -> HarnessReport {
    let cells: Vec<(EngineKind, Scenario)> = config
        .engines
        .iter()
        .flat_map(|&e| config.scenarios.iter().map(move |s| (e, s.clone())))
        .collect();
    let total = cells.len();
    let mut runs = Vec::with_capacity(total);
    for (i, (engine, scenario)) in cells.into_iter().enumerate() {
        let spec = RunSpec {
            engine,
            scenario,
            threads: config.threads,
            shards: config.shards,
            table_entries: config.table_entries,
            heap_words: config.heap_words,
            seed: config.seed,
            warmup: config.warmup,
            measure: config.measure,
        };
        let (result, telemetry) = execute_traced(&spec);
        progress(i, total, &result);
        telemetry_sink(&result, &telemetry);
        runs.push(result);
    }
    HarnessReport::new(config.fast, runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec(engine: EngineKind, scenario: Scenario) -> RunSpec {
        RunSpec {
            threads: 2,
            warmup: Phase::Txns(10),
            measure: Phase::Txns(60),
            table_entries: 2048,
            heap_words: 1 << 14,
            ..RunSpec::new(engine, scenario)
        }
    }

    #[test]
    fn execute_counts_fixed_budget_commits() {
        let r = execute(&quick_spec(
            EngineKind::EagerTagged,
            Scenario::uniform_mixed(),
        ));
        assert_eq!(r.commits, 120);
        assert_eq!(r.invariant_violations, 0);
        assert!(r.throughput_txn_s > 0.0);
        // v3: telemetry rides along on every cell.
        let attributed: u64 = r.abort_causes.iter().map(|(_, c)| c).sum();
        assert_eq!(attributed, r.aborts, "causes must sum to aborts");
        assert!(r.latency_p50_ns.is_some());
        assert!(r.latency_p50_ns <= r.latency_p95_ns && r.latency_p95_ns <= r.latency_p99_ns);
        assert!(r.mean_write_footprint > 0.0);
        assert!(r.predicted_false_conflicts_per_commit.is_some());
        // Tagged tables cannot alias distinct blocks: no false conflicts.
        assert_eq!(r.false_conflict_aborts, Some(0));
    }

    #[test]
    fn traced_execution_exposes_flight_recorder_events() {
        let (r, telemetry) = execute_traced(&quick_spec(
            EngineKind::EagerTagged,
            Scenario::uniform_mixed(),
        ));
        assert_eq!(telemetry.txn.count(), r.commits);
        assert!(!telemetry.events.is_empty());
        assert!(telemetry.events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    #[test]
    fn read_heavy_ro_cell_splits_commit_counters() {
        let r = execute(&quick_spec(
            EngineKind::EagerTagged,
            Scenario::read_heavy_ro(),
        ));
        // Every transaction commits exactly once — on one path or the other.
        assert_eq!(r.commits + r.read_only_commits, 120);
        assert!(r.read_only_commits > 0, "90% of txns take the read path");
        assert!(r.commits > 0, "the update slice still runs");
        assert_eq!(r.invariant_violations, 0);
        assert!(r.throughput_txn_s > 0.0);
    }

    #[test]
    fn read_path_counters_ride_on_the_lazy_engine_too() {
        let r = execute(&quick_spec(EngineKind::Lazy, Scenario::read_heavy_ro()));
        assert_eq!(r.commits + r.read_only_commits, 120);
        assert!(r.read_only_commits > 0);
        assert_eq!(r.invariant_violations, 0);
    }

    #[test]
    fn lazy_structs_cell_runs_with_conservation_intact() {
        // The cell the old API could not express: a structs workload on the
        // lazy engine, with the same fixed budget and invariant checks.
        let r = execute(&quick_spec(EngineKind::Lazy, Scenario::counter()));
        assert_eq!(r.commits, 120);
        assert_eq!(r.invariant_violations, 0);
    }

    #[test]
    fn disjoint_scenario_reports_false_conflicts() {
        let r = execute(&quick_spec(EngineKind::EagerTagless, Scenario::disjoint()));
        // Cause attribution must agree with the construction: on a
        // data-disjoint workload every abort is a false conflict, unless
        // the word that refused it was saturated (its holders cover two
        // blocks), which proves nothing.
        let unknown = r
            .abort_causes
            .iter()
            .find(|(n, _)| n == "unknown-conflict")
            .map_or(0, |&(_, c)| c);
        assert_eq!(r.false_conflict_aborts.map(|f| f + unknown), Some(r.aborts));
        assert!(r.sim_false_conflicts_per_commit.is_some());
        assert!(r.predicted_false_conflicts_per_commit.is_some());
    }

    #[test]
    fn adaptive_cell_reports_table_state() {
        let r = execute(&quick_spec(EngineKind::Adaptive, Scenario::write_heavy()));
        assert!(r.final_table_entries.is_some());
        assert!(r.resizes.is_some());
        assert_eq!(r.invariant_violations, 0);
    }

    #[test]
    fn sharded_cell_reports_cross_shard_counters() {
        let mut spec = quick_spec(EngineKind::Sharded, Scenario::cross_shard_mix());
        spec.shards = 4;
        let r = execute(&spec);
        assert_eq!(r.commits, 120);
        assert_eq!(r.shards, 4);
        assert_eq!(r.invariant_violations, 0);
        assert!(
            r.cross_shard_commits.expect("sharded cell populates") > 0,
            "30% transfers must cross shards"
        );
        assert!(r.cross_shard_aborts.is_some());
        assert_eq!(r.key(), "sharded/cross-shard-mix/t2/s4");
    }

    #[test]
    fn sharded_cell_attaches_per_shard_telemetry_rows() {
        let mut spec = quick_spec(EngineKind::Sharded, Scenario::shard_uniform());
        spec.shards = 2;
        let (r, telemetry) = execute_traced(&spec);
        assert_eq!(r.invariant_violations, 0);
        assert_eq!(telemetry.shard_stats.len(), 2);
        // Rows are whole-run cumulative: they cover warmup + measure, so
        // their sum dominates the measured-phase window.
        let total: u64 = telemetry.shard_stats.iter().map(|s| s.commits).sum();
        assert!(total >= r.commits, "{total} < {}", r.commits);
        for (i, row) in telemetry.shard_stats.iter().enumerate() {
            assert_eq!(row.shard, i as u32);
            assert!(row.table_entries > 0);
        }
    }

    #[test]
    fn sharded_adaptive_cell_reports_aggregate_table_state() {
        let mut spec = quick_spec(EngineKind::ShardedAdaptive, Scenario::shard_hot());
        spec.shards = 4;
        let r = execute(&spec);
        assert_eq!(r.invariant_violations, 0);
        // Aggregate across shards: 4 shards × (2048/4 = 512 entries) unless
        // a controller resized mid-run.
        assert!(r.final_table_entries.is_some());
        assert!(r.resizes.is_some());
    }

    #[test]
    fn unsharded_cells_ignore_the_shard_axis() {
        let mut spec = quick_spec(EngineKind::EagerTagless, Scenario::uniform_mixed());
        spec.shards = 4;
        let r = execute(&spec);
        assert_eq!(r.shards, 1, "unsharded rows keep their v4 identity");
        assert!(r.cross_shard_commits.is_none());
        assert_eq!(r.key(), "eager-tagless/uniform-mixed/t2");
    }

    #[test]
    fn small_matrix_covers_supported_cells() {
        let config = MatrixConfig {
            engines: vec![EngineKind::EagerTagged, EngineKind::Lazy],
            scenarios: vec![Scenario::uniform_mixed(), Scenario::counter()],
            threads: 2,
            shards: 1,
            table_entries: 1024,
            heap_words: 1 << 13,
            seed: 3,
            warmup: Phase::Txns(5),
            measure: Phase::Txns(20),
            fast: true,
        };
        let mut seen = 0;
        let report = run_matrix(&config, |_, total, _| {
            assert_eq!(total, 4); // full cross product: no carve-outs
            seen += 1;
        });
        assert_eq!(seen, 4);
        assert_eq!(report.runs.len(), 4);
        assert!(report.runs.iter().any(|r| r.key() == "lazy-tl2/counter/t2"));
    }
}
