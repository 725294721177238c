//! Walkthrough: letting the birthday-paradox math size your ownership
//! table for you, online.
//!
//! The paper's point is that tagless-table false conflicts scale as
//! `C(C−1)(1+2α)W²/2N` — quadratic in footprint and concurrency, linear in
//! table size — so no fixed `N` survives a workload shift. This example
//! starts an STM on a deliberately tiny table, grows the workload's
//! footprint in stages, and shows the `tm-adaptive` controller reading the
//! observed `W` and `α` out of the commit stream, consulting the model,
//! and resizing the live table each time the prediction crosses the
//! policy's false-conflict target.
//!
//! Run with: `cargo run --example adaptive_sizing`

use tm_birthday::adaptive::{adaptive_stm, ControlReport, ResizePolicy};
use tm_birthday::model::lockstep;
use tm_birthday::prelude::{ReadOps, TmEngine, TxnOps};

fn main() {
    // A 64 Ki-word heap over a 256-entry tagless table — fine for tiny
    // transactions, hopeless once footprints grow.
    let policy = ResizePolicy {
        target_conflict_prob: 0.05, // ≥ 95% of transactions conflict-free
        headroom: 2.0,              // sized for twice the observed load
        ..Default::default()
    };
    let concurrency = 4;
    let (stm, mut controller) = adaptive_stm(1 << 16, 256, policy, concurrency);

    println!("epoch | observed W | observed α | predicted conflict | action");
    println!("------+------------+------------+--------------------+-------------------------");

    for (epoch, &w) in [2u64, 4, 8, 16, 32, 32, 4].iter().enumerate() {
        // One epoch of traffic at write footprint `w` (plus ~w/2 fresh
        // reads, giving the model a nonzero α to chew on).
        for t in 0..300u64 {
            stm.run(0, |txn| {
                for i in 0..w {
                    let block = (t * w + i) * 131 % 900;
                    if i % 2 == 0 {
                        txn.read((block + 1000) * 64)?;
                    }
                    txn.write(block * 64, i)?;
                }
                Ok(())
            });
        }

        // The controller closes the loop: stats → model → (maybe) resize.
        let line = match controller.tick(&stm) {
            ControlReport::Resized {
                observation,
                predicted_conflict,
                report,
            } => format!(
                "{:5} | {:10.1} | {:10.2} | {:17.1}% | resized {} → {} entries",
                epoch,
                observation.write_footprint,
                observation.alpha,
                predicted_conflict * 100.0,
                report.from_entries,
                report.to_entries,
            ),
            ControlReport::Kept {
                observation,
                predicted_conflict,
            } => format!(
                "{:5} | {:10.1} | {:10.2} | {:17.1}% | kept {} entries",
                epoch,
                observation.write_footprint,
                observation.alpha,
                predicted_conflict * 100.0,
                stm.table().live_entries(),
            ),
            ControlReport::ResizeDeferred {
                attempted_entries, ..
            } => format!("{epoch:5} |          - |          - |                  - | deferred → {attempted_entries}"),
            ControlReport::InsufficientEvidence { commits } => {
                format!("{epoch:5} |          - |          - |                  - | only {commits} commits")
            }
        };
        println!("{line}");
    }

    let stats = stm.table().resize_stats();
    let snap = stm.stats();
    println!();
    println!(
        "{} commits, {} aborts; {} resizes, {} deferred",
        snap.commits, snap.aborts, stats.resizes, stats.deferred
    );

    // The punchline, in model terms: what the final table buys us.
    let n = stm.table().live_entries() as u64;
    let w = snap.mean_write_footprint().round().max(1.0) as u32;
    println!(
        "final table: {} entries; at the lifetime mean footprint the model predicts \
         {:.2}% conflicts (the 256-entry start would have been {:.0}%)",
        n,
        lockstep::conflict_likelihood(concurrency, w, snap.mean_alpha(), n).min(1.0) * 100.0,
        lockstep::conflict_likelihood(concurrency, w, snap.mean_alpha(), 256).min(1.0) * 100.0,
    );
}
