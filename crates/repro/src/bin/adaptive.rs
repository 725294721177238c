//! **Adaptive-sizing ablation** (workspace extension): throughput of a
//! fixed-size tagless STM vs the same STM behind `tm-adaptive`'s resizable
//! table, as transaction write footprint grows past the static table's
//! sizing knee.
//!
//! The paper's Eq. 8 says a 1024-entry tagless table at 4 threads starts
//! drowning in false conflicts once `W²·C(C−1)/2N` approaches 1 — around
//! `W ≈ 13` for this setup. The static system aborts its way off a cliff
//! there; the adaptive system's controller notices the observed footprint,
//! asks the sizing model for the right table, and swaps it in while the
//! workload runs — throughput recovers to near the conflict-free line.
//!
//! Workload generation is delegated to `tm-harness` (the workspace's single
//! source of truth for scenario execution): each phase is a fixed-budget
//! [`tm_harness::run_synthetic_phase`] of `W`-block write transactions with
//! per-op yields, so partial footprints genuinely interleave even on boxes
//! with fewer cores than threads. Both systems run the identical phases.

use std::sync::atomic::{AtomicBool, Ordering};

use tm_adaptive::{AdaptiveController, ResizePolicy};
use tm_harness::{run_synthetic_phase, Phase, Scenario, SyntheticSpec, TmEngine};
use tm_repro::{f3, Options, Table};
use tm_stm::StmBuilder;

const THREADS: u32 = 4;
const START_ENTRIES: usize = 1024;
const HEAP_WORDS: usize = 1 << 20;

/// The `W`-write uniform workload of this ablation, from the shared matrix.
fn spec_for(w: u32) -> SyntheticSpec {
    Scenario::uniform_writes(w)
        .synthetic_spec()
        .expect("uniform_writes is synthetic")
}

/// Run `txns` transactions of `w` block-writes on each of `THREADS`
/// threads; returns (elapsed seconds, commits, aborts) for the phase.
fn run_phase<E: TmEngine>(engine: &E, w: u32, txns: u64, seed: u64) -> (f64, u64, u64) {
    let phase = run_synthetic_phase(
        engine,
        &spec_for(w),
        HEAP_WORDS,
        THREADS,
        Phase::Txns(txns),
        seed,
    );
    (
        phase.elapsed.as_secs_f64(),
        phase.counters.commits,
        phase.counters.aborts,
    )
}

fn main() {
    let opts = Options::from_args();
    let txns_per_thread = opts.scaled(1500, 200) as u64;
    let footprints: &[u32] = &[2, 4, 8, 12, 16, 24, 32];

    // --- Static baseline ---------------------------------------------------
    let static_stm = StmBuilder::new()
        .heap_words(HEAP_WORDS)
        .table_entries(START_ENTRIES)
        .build_tagless();

    // --- Adaptive system with a live controller thread ---------------------
    let (adaptive_stm, controller) =
        tm_adaptive::adaptive_stm(HEAP_WORDS, START_ENTRIES, ResizePolicy::default(), THREADS);

    let mut t = Table::new(
        format!(
            "Tagless STM throughput, static {START_ENTRIES}-entry table vs adaptive \
             (C = {THREADS}, {txns_per_thread} txns/thread/phase)"
        ),
        &[
            "W",
            "static ktxn/s",
            "static aborts/commit",
            "adaptive ktxn/s",
            "adaptive aborts/commit",
            "adaptive N",
            "resizes",
        ],
    );

    let stop = AtomicBool::new(false);
    let mut rows: Vec<(u32, f64, f64)> = Vec::new();
    crossbeam::scope(|s| {
        // The controller runs *concurrently* with the workload, like a
        // metrics-driven operator: observe, consult the model, resize.
        let (stop_ref, stm_ref) = (&stop, &adaptive_stm);
        let mut ctl: AdaptiveController = controller;
        s.spawn(move |_| {
            while !stop_ref.load(Ordering::Acquire) {
                let _ = ctl.tick(stm_ref);
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        });

        for (i, &w) in footprints.iter().enumerate() {
            // Warm-up quarter: lets the controller adapt to the new
            // footprint before the *sustained* window is measured. The
            // static system gets the identical warm-up.
            let warm = (txns_per_thread / 4).max(1);
            run_phase(&static_stm, w, warm, 0x3A + i as u64);
            run_phase(&adaptive_stm, w, warm, 0xA3 + i as u64);

            let (sdt, scommits, saborts) =
                run_phase(&static_stm, w, txns_per_thread, 0xAD + i as u64);
            let (adt, acommits, aaborts) =
                run_phase(&adaptive_stm, w, txns_per_thread, 0xDA + i as u64);
            let s_tput = scommits as f64 / sdt / 1e3;
            let a_tput = acommits as f64 / adt / 1e3;
            let rs = adaptive_stm.table().resize_stats();
            t.row(&[
                w.to_string(),
                f3(s_tput),
                f3(saborts as f64 / scommits.max(1) as f64),
                f3(a_tput),
                f3(aaborts as f64 / acommits.max(1) as f64),
                adaptive_stm.table().live_entries().to_string(),
                rs.resizes.to_string(),
            ]);
            rows.push((w, s_tput, a_tput));
        }
        stop.store(true, Ordering::Release);
    })
    .unwrap();

    t.print();
    t.write_csv(&opts.results_dir, "adaptive_throughput")
        .unwrap();

    let knee = tm_model::sizing::max_write_footprint(0.5, THREADS, START_ENTRIES as u64, 0.0);
    println!(
        "static sizing knee (50% commit, C = {THREADS}, N = {START_ENTRIES}): W ≈ {knee} blocks"
    );
    if let Some(&(w, s_tput, a_tput)) = rows.iter().rev().find(|&&(w, _, _)| w > knee) {
        println!(
            "past the knee (W = {w}): adaptive {a} ktxn/s vs static {s} ktxn/s ({x}x)",
            a = f3(a_tput),
            s = f3(s_tput),
            x = f3(a_tput / s_tput.max(1e-9)),
        );
    }
    let final_stats = adaptive_stm.table().resize_stats();
    println!(
        "adaptive table finished at {} entries after {} resizes ({} grants migrated live, {} deferred)",
        adaptive_stm.table().live_entries(),
        final_stats.resizes,
        final_stats.migrated_grants,
        final_stats.failed_migrations,
    );
}
