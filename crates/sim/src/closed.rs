//! Closed-system simulation (paper §4, Figures 5 and 6).
//!
//! `C` threads execute fixed-size transactions back to back for a fixed
//! duration, with randomly staggered start times; a conflicting transaction
//! aborts, releases its entries, and restarts. The duration is chosen so a
//! conflict-free run completes the paper's 650 transactions. Because aborts
//! remove footprints from the table, heavy conflict regimes *reduce the
//! effective concurrency* — the paper measures this through mean table
//! occupancy and re-plots conflicts against "actual concurrency" (Fig. 6b),
//! which this simulator reports directly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tm_ownership::{Access, ConcurrentTaglessTable, HashKind, TableConfig};

use crate::table::SimTable;

/// What a transaction does on conflict (the paper §2.1: "abort or stall").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ConflictReaction {
    /// Abort immediately and restart from scratch.
    #[default]
    Abort,
    /// Stall: re-attempt the same block for up to this many ticks before
    /// giving up and aborting. Trades occupancy time for wasted work.
    Stall(u64),
}

/// Parameters of one closed-system data point.
#[derive(Clone, Debug)]
pub struct ClosedSystemParams {
    /// Applied concurrency: number of threads (≥ 1).
    pub threads: u32,
    /// Writes per transaction `W` (≥ 1).
    pub write_footprint: u32,
    /// Fresh reads before each write (`α`).
    pub alpha: u32,
    /// Ownership-table entries `N` (power of two).
    pub table_entries: usize,
    /// Transactions a conflict-free *thread* completes (the paper's 650);
    /// fixes the simulated duration independently of the thread count.
    pub target_commits: u64,
    /// Conflict reaction policy.
    pub reaction: ConflictReaction,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ClosedSystemParams {
    fn default() -> Self {
        Self {
            threads: 4,
            write_footprint: 10,
            alpha: 2,
            table_entries: 4096,
            target_commits: 650,
            reaction: ConflictReaction::Abort,
            seed: 0xc105ed,
        }
    }
}

/// Aggregate outcome of one closed-system run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ClosedSystemResult {
    /// Conflicts observed (each aborts and restarts one transaction) — the
    /// y-axis of Figures 5 and 6.
    pub conflicts: u64,
    /// Transactions committed within the duration.
    pub commits: u64,
    /// Mean ownership-table occupancy over the run (sampled per tick).
    pub mean_occupancy: f64,
    /// The applied concurrency (copied from the parameters).
    pub applied_concurrency: u32,
    /// Effective concurrency inferred from occupancy: with staggered
    /// uniform progress each thread holds half its `(1+α)W` footprint on
    /// average, so `actual ≈ 2 · occupancy / ((1+α)W)` (paper Fig. 6b).
    pub actual_concurrency: f64,
    /// Ticks simulated.
    pub ticks: u64,
}

impl ClosedSystemResult {
    /// Commit throughput per thread-tick (for ablation comparisons).
    pub fn throughput(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.commits as f64 / self.ticks as f64
        }
    }

    /// Conflicts per committed transaction — the unit tm-harness reports
    /// for real-thread runs, exposed here so the simulator's prediction can
    /// be cross-checked against measurements at the same operating point.
    pub fn aborts_per_commit(&self) -> f64 {
        self.conflicts as f64 / self.commits.max(1) as f64
    }
}

/// Per-thread transaction progress.
#[derive(Clone, Debug, Default)]
struct ThreadState {
    /// Blocks added to the current transaction so far.
    progress: u64,
    /// Ticks to wait before starting (initial stagger).
    delay: u64,
    /// Under [`ConflictReaction::Stall`]: the block we are stuck on and the
    /// remaining stall budget.
    stalled_on: Option<(u64, Access)>,
    stall_left: u64,
}

/// Execute the closed-system experiment for one parameter point.
pub fn run_closed_system(params: &ClosedSystemParams) -> ClosedSystemResult {
    assert!(params.threads >= 1, "need at least one thread");
    assert!(
        params.write_footprint >= 1,
        "need a positive write footprint"
    );
    assert!(params.target_commits >= 1, "need a positive commit target");

    let cfg = TableConfig::new(params.table_entries).with_hash(HashKind::Multiplicative);
    let mut table = SimTable::new(ConcurrentTaglessTable::new(cfg));
    let mut rng = StdRng::seed_from_u64(params.seed);

    let blocks_per_txn = (params.alpha as u64 + 1) * params.write_footprint as u64;
    // Fixed duration, independent of the applied concurrency: each thread
    // adds one block per tick, so a conflict-free thread commits exactly
    // `target_commits` transactions (the paper's 650) and a conflict-free
    // run commits `threads × target_commits` in total.
    let ticks = params.target_commits * blocks_per_txn;

    let mut threads: Vec<ThreadState> = (0..params.threads)
        .map(|_| ThreadState {
            progress: 0,
            delay: rng.gen_range(0..blocks_per_txn),
            stalled_on: None,
            stall_left: 0,
        })
        .collect();

    let mut conflicts = 0u64;
    let mut commits = 0u64;
    let mut occupancy_sum = 0u64;

    for _tick in 0..ticks {
        for t in 0..params.threads {
            let st = &mut threads[t as usize];
            if st.delay > 0 {
                st.delay -= 1;
                continue;
            }
            // Either retry the stalled block or draw the next one.
            let (block, access) = match st.stalled_on {
                Some(pair) => pair,
                None => {
                    let access = if (st.progress % (params.alpha as u64 + 1)) < params.alpha as u64
                    {
                        Access::Read
                    } else {
                        Access::Write
                    };
                    (rng.gen(), access)
                }
            };
            if table.acquire(t, block, access).is_ok() {
                let st = &mut threads[t as usize];
                st.stalled_on = None;
                st.progress += 1;
                if st.progress == blocks_per_txn {
                    table.release_all(t);
                    commits += 1;
                    st.progress = 0;
                }
            } else {
                let st = &mut threads[t as usize];
                let stall_budget = match params.reaction {
                    ConflictReaction::Abort => 0,
                    ConflictReaction::Stall(ticks) => ticks,
                };
                if st.stalled_on.is_none() && stall_budget > 0 {
                    st.stalled_on = Some((block, access));
                    st.stall_left = stall_budget;
                } else if st.stall_left > 0 {
                    st.stall_left -= 1;
                }
                if st.stall_left == 0 {
                    // Abort: release everything and restart immediately.
                    st.stalled_on = None;
                    table.release_all(t);
                    conflicts += 1;
                    st.progress = 0;
                }
            }
        }
        occupancy_sum += table.occupancy() as u64;
    }

    let mean_occupancy = occupancy_sum as f64 / ticks.max(1) as f64;
    ClosedSystemResult {
        conflicts,
        commits,
        mean_occupancy,
        applied_concurrency: params.threads,
        actual_concurrency: 2.0 * mean_occupancy / blocks_per_txn as f64,
        ticks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(threads: u32, w: u32, n: usize) -> ClosedSystemResult {
        run_closed_system(&ClosedSystemParams {
            threads,
            write_footprint: w,
            alpha: 2,
            table_entries: n,
            target_commits: 650,
            reaction: Default::default(),
            seed: 7,
        })
    }

    #[test]
    fn conflict_free_run_commits_target() {
        // A huge table with tiny footprints: essentially no conflicts, so
        // each of the 2 threads commits ~650 (stagger costs each thread at
        // most one partial transaction).
        let r = point(2, 5, 1 << 22);
        assert!(r.conflicts < 5, "conflicts {}", r.conflicts);
        assert!((1297..=1300).contains(&r.commits), "commits {}", r.commits);
    }

    #[test]
    fn conflicts_grow_with_footprint() {
        // Fig. 5(a): slope ≈ 2 on log-log; from W=5 to W=20 expect ~16x
        // (minus restart-induced saturation).
        let a = point(4, 5, 16_384);
        let b = point(4, 20, 16_384);
        assert!(
            b.conflicts > a.conflicts * 6,
            "{} vs {}",
            a.conflicts,
            b.conflicts
        );
    }

    #[test]
    fn conflicts_shrink_with_table_size() {
        // Fig. 5(b): slope ≈ −1 on log-log; 4x table ⇒ ~4x fewer conflicts.
        let small = point(4, 10, 1024);
        let large = point(4, 10, 4096);
        let ratio = small.conflicts as f64 / large.conflicts.max(1) as f64;
        assert!((2.0..8.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn conflicts_grow_with_concurrency() {
        // Fig. 6(a): superlinear growth in applied concurrency.
        let c2 = point(2, 10, 16_384);
        let c8 = point(8, 10, 16_384);
        // C(C−1) from 2 to 56 is 28x; commits-per-thread scaling and
        // saturation temper it, so just require strong superlinearity.
        assert!(
            c8.conflicts as f64 > c2.conflicts as f64 * 8.0,
            "{} vs {}",
            c2.conflicts,
            c8.conflicts
        );
    }

    #[test]
    fn occupancy_matches_half_c_times_footprint_when_calm() {
        // §4: "when conflicts are infrequent … entries filled corresponding
        // to one-half the concurrency C times the transaction footprint".
        let r = point(4, 10, 1 << 22);
        let expected = 4.0 * 30.0 / 2.0;
        assert!(
            (r.mean_occupancy - expected).abs() / expected < 0.15,
            "occupancy {} vs {expected}",
            r.mean_occupancy
        );
        assert!((r.actual_concurrency - 4.0).abs() < 0.5);
    }

    #[test]
    fn heavy_conflicts_depress_actual_concurrency() {
        // §4: high conflict rates empty the table — as much as 40 % below
        // the calm-state occupancy.
        let r = point(8, 20, 1024);
        assert!(r.conflicts > 100);
        assert!(
            r.actual_concurrency < 0.85 * 8.0,
            "actual {}",
            r.actual_concurrency
        );
    }

    #[test]
    fn deterministic_under_seed() {
        assert_eq!(point(4, 10, 4096), point(4, 10, 4096));
    }

    #[test]
    fn throughput_definition() {
        let r = ClosedSystemResult {
            commits: 100,
            ticks: 1000,
            ..Default::default()
        };
        assert!((r.throughput() - 0.1).abs() < 1e-12);
        assert_eq!(ClosedSystemResult::default().throughput(), 0.0);
    }

    #[test]
    fn stall_policy_trades_conflicts_for_time() {
        let abort = run_closed_system(&ClosedSystemParams {
            threads: 4,
            write_footprint: 10,
            alpha: 2,
            table_entries: 2048,
            target_commits: 650,
            reaction: ConflictReaction::Abort,
            seed: 21,
        });
        let stall = run_closed_system(&ClosedSystemParams {
            threads: 4,
            write_footprint: 10,
            alpha: 2,
            table_entries: 2048,
            target_commits: 650,
            reaction: ConflictReaction::Stall(30),
            seed: 21,
        });
        // Stalling converts some aborts into successful waits: fewer
        // conflicts; but ticks spent stalled reduce commits.
        assert!(
            stall.conflicts < abort.conflicts,
            "stall {} vs abort {}",
            stall.conflicts,
            abort.conflicts
        );
        // Each avoided conflict saves at most one transaction's worth of
        // re-done work, so stalling can out-commit aborting by at most the
        // conflicts it avoided — and never beyond the conflict-free ceiling.
        assert!(stall.commits <= 4 * 650);
        assert!(
            stall.commits <= abort.commits + (abort.conflicts - stall.conflicts),
            "stall commits {} vs abort commits {} (conflicts {} vs {})",
            stall.commits,
            abort.commits,
            stall.conflicts,
            abort.conflicts
        );
    }

    #[test]
    fn single_thread_never_conflicts() {
        let r = point(1, 20, 1024);
        assert_eq!(r.conflicts, 0);
        assert!(r.commits > 0);
    }
}
