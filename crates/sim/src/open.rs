//! Open-system lockstep simulation (paper §4, Figure 4).
//!
//! `C` transactions begin at the same time and grow in lock step: blocks are
//! added round-robin, each transaction repeating the pattern of `α` fresh
//! reads followed by one fresh write, every block mapping to a uniformly
//! random ownership-table entry. A run ends at the first conflict or when
//! all transactions have written `W` blocks; repeating the experiment gives
//! the conflict *likelihood* the analytical model predicts.
//!
//! Unlike the model, the simulation does **not** assume intra-transaction
//! aliasing away — it measures it ([`OpenSystemResult::intra_alias_rate`]),
//! which is how the paper validates that assumption (§4: "below 3 % as long
//! as the conflict rate is below 50 %").

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tm_ownership::{
    Access, AcquireOutcome, BlockAddr, ConcurrentTaglessTable, HashKind, SmallMap, TableConfig,
};

use crate::table::SimTable;

/// Parameters of one open-system data point.
#[derive(Clone, Debug)]
pub struct OpenSystemParams {
    /// Concurrent transactions `C` (≥ 2).
    pub concurrency: u32,
    /// Writes per transaction `W` (≥ 1).
    pub write_footprint: u32,
    /// Fresh reads before each write (the paper's `α`, typically 2).
    pub alpha: u32,
    /// Ownership-table entries `N` (power of two).
    pub table_entries: usize,
    /// Independent runs per data point (the paper uses 1000).
    pub runs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for OpenSystemParams {
    fn default() -> Self {
        Self {
            concurrency: 2,
            write_footprint: 10,
            alpha: 2,
            table_entries: 1024,
            runs: 1000,
            seed: 0x0b5e,
        }
    }
}

impl OpenSystemParams {
    /// Parameters describing a *measured* operating point — the cross-check
    /// constructor used by empirical front-ends (`tm-server`'s loadgen, the
    /// harness) that observed `concurrency` writers with `write_footprint`
    /// distinct written blocks and `alpha` extra read blocks per write on a
    /// table of `table_entries`, and want the simulator's conflict rate at
    /// exactly that point. Run count is fixed high enough (4000) that the
    /// Monte-Carlo error (σ ≈ √(p/runs)) is well below the comparison
    /// tolerances such cross-checks use.
    pub fn at_operating_point(
        concurrency: u32,
        write_footprint: u32,
        alpha: u32,
        table_entries: usize,
    ) -> Self {
        Self {
            concurrency,
            write_footprint,
            alpha,
            table_entries,
            runs: 4000,
            seed: 0x0b5e,
        }
    }
}

/// Aggregated outcome of the runs at one data point.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpenSystemResult {
    /// Fraction of runs that saw at least one conflict.
    pub conflict_rate: f64,
    /// Runs executed.
    pub runs: usize,
    /// Runs that conflicted.
    pub conflicted_runs: usize,
    /// Fraction of block additions that aliased *within* their own
    /// transaction (folded into an already-held entry).
    pub intra_alias_rate: f64,
}

impl OpenSystemResult {
    /// The abort-to-commit ratio an abort-and-retry engine operating at
    /// this point should measure: if each attempt independently conflicts
    /// with probability `p = conflict_rate`, the expected number of aborted
    /// attempts per eventual commit is the geometric tail `p / (1 − p)`.
    ///
    /// This is the bridge between the lockstep simulation (which reports a
    /// per-*run* conflict likelihood) and live measurements from `tm-stm`
    /// engines (which report `EngineStats::abort_ratio`, aborts per
    /// commit). The mapping is approximate — a real engine's attempts are
    /// not independent (backoff decorrelates them, stalls serialize them) —
    /// so cross-checks against it use band tolerances, not equality; see
    /// `tm-server`'s `open_system_crosscheck` test for the calibrated
    /// bands. Saturates at `f64::INFINITY` when every run conflicted.
    pub fn implied_aborts_per_commit(&self) -> f64 {
        if self.conflict_rate >= 1.0 {
            f64::INFINITY
        } else {
            self.conflict_rate / (1.0 - self.conflict_rate)
        }
    }
}

/// Execute the open-system experiment for one parameter point.
pub fn run_open_system(params: &OpenSystemParams) -> OpenSystemResult {
    assert!(params.concurrency >= 2, "need at least two transactions");
    assert!(
        params.write_footprint >= 1,
        "need a positive write footprint"
    );
    assert!(params.runs >= 1, "need at least one run");

    let cfg = TableConfig::new(params.table_entries).with_hash(HashKind::Multiplicative);
    let mut table = SimTable::new(ConcurrentTaglessTable::new(cfg));
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut blocks = vec![SmallMap::new(); params.concurrency as usize];

    let mut conflicted_runs = 0usize;
    let (mut additions, mut intra_aliases) = (0u64, 0u64);
    for _ in 0..params.runs {
        if run_once(
            &mut table,
            &mut blocks,
            &mut rng,
            params,
            &mut additions,
            &mut intra_aliases,
        ) {
            conflicted_runs += 1;
        }
        // Reclaim everything for the next run.
        for t in 0..params.concurrency {
            table.release_all(t);
            blocks[t as usize].clear();
        }
        debug_assert_eq!(table.occupancy(), 0);
    }

    OpenSystemResult {
        conflict_rate: conflicted_runs as f64 / params.runs as f64,
        runs: params.runs,
        conflicted_runs,
        intra_alias_rate: if additions == 0 {
            0.0
        } else {
            intra_aliases as f64 / additions as f64
        },
    }
}

/// One lockstep run; returns whether any conflict occurred. `blocks[t]`
/// collects the distinct blocks transaction `t` has been granted or found
/// already covered, so a *new* block that lands in an entry the
/// transaction already holds counts as an intra-transaction alias.
fn run_once(
    table: &mut SimTable<ConcurrentTaglessTable>,
    blocks: &mut [SmallMap<BlockAddr, ()>],
    rng: &mut StdRng,
    params: &OpenSystemParams,
    additions: &mut u64,
    intra_aliases: &mut u64,
) -> bool {
    let c = params.concurrency;
    let per_txn_blocks = (params.alpha as u64 + 1) * params.write_footprint as u64;
    // Blocks are added round-robin across transactions, one per turn,
    // following the [read^α write]* pattern.
    for step in 0..per_txn_blocks {
        let access = if (step % (params.alpha as u64 + 1)) < params.alpha as u64 {
            Access::Read
        } else {
            Access::Write
        };
        for txn in 0..c {
            let block: u64 = rng.gen();
            *additions += 1;
            let outcome = table.acquire(txn, block, access);
            if !outcome.is_ok() {
                return true;
            }
            let new_block = blocks[txn as usize].insert(block, ()).is_none();
            if new_block && outcome == AcquireOutcome::AlreadyHeld {
                *intra_aliases += 1;
            }
        }
    }
    false
}

/// Convenience: conflict rates for a sweep over write footprints, reusing
/// one RNG stream (the Figure 4(a) x-axis).
pub fn sweep_write_footprint(
    base: &OpenSystemParams,
    footprints: &[u32],
) -> Vec<(u32, OpenSystemResult)> {
    footprints
        .iter()
        .map(|&w| {
            let p = OpenSystemParams {
                write_footprint: w,
                seed: base.seed ^ (w as u64) << 32,
                ..base.clone()
            };
            (w, run_open_system(&p))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_model::lockstep::conflict_likelihood;

    fn point(c: u32, w: u32, n: usize, runs: usize) -> OpenSystemResult {
        run_open_system(&OpenSystemParams {
            concurrency: c,
            write_footprint: w,
            alpha: 2,
            table_entries: n,
            runs,
            seed: 42,
        })
    }

    #[test]
    fn matches_model_in_low_conflict_regime() {
        // Model: 2·1·5·8²/(2·4096) = 0.078. 4000 runs ⇒ σ ≈ 0.004.
        let r = point(2, 8, 4096, 4000);
        let predicted = conflict_likelihood(2, 8, 2.0, 4096);
        assert!(
            (r.conflict_rate - predicted).abs() < 0.02,
            "sim {} vs model {predicted}",
            r.conflict_rate
        );
    }

    #[test]
    fn quadratic_in_footprint() {
        // Paper Fig. 4(a): doubling W roughly quadruples the rate.
        let r1 = point(2, 8, 16_384, 4000);
        let r2 = point(2, 16, 16_384, 4000);
        let ratio = r2.conflict_rate / r1.conflict_rate;
        assert!((3.0..5.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn factor_six_from_c2_to_c4() {
        // The paper's signature C(C−1) effect: 2→4 concurrency ⇒ ×6.
        let r2 = point(2, 8, 65_536, 6000);
        let r4 = point(4, 8, 65_536, 6000);
        let ratio = r4.conflict_rate / r2.conflict_rate;
        assert!((4.0..8.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn inverse_in_table_size() {
        // Paper Fig. 4(a) inset: 48 % → 27 % → 14 % → 7.7 % per table
        // doubling at W = 8 — i.e. roughly halving.
        let small = point(2, 8, 512, 4000);
        let large = point(2, 8, 1024, 4000);
        let ratio = small.conflict_rate / large.conflict_rate;
        assert!((1.5..2.7).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn paper_fig4a_absolute_anchor() {
        // Paper text: at W = 8, N = 512 → 48 % conflict rate.
        let r = point(2, 8, 512, 4000);
        assert!(
            (0.42..0.54).contains(&r.conflict_rate),
            "rate {}",
            r.conflict_rate
        );
    }

    #[test]
    fn intra_alias_rate_small_in_modest_regime() {
        // §4: intra-transaction aliasing < 3 % while conflicts < 50 %.
        let r = point(2, 20, 16_384, 1000);
        assert!(r.conflict_rate < 0.5);
        assert!(r.intra_alias_rate < 0.03, "intra {}", r.intra_alias_rate);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = point(2, 10, 2048, 500);
        let b = point(2, 10, 2048, 500);
        assert_eq!(a, b);
    }

    #[test]
    fn sweep_runs_each_point() {
        let base = OpenSystemParams {
            runs: 100,
            ..Default::default()
        };
        let pts = sweep_write_footprint(&base, &[4, 8]);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].0, 4);
        assert!(pts[1].1.conflict_rate >= pts[0].1.conflict_rate);
    }

    #[test]
    #[should_panic(expected = "two transactions")]
    fn rejects_c1() {
        point(1, 8, 512, 10);
    }

    #[test]
    fn operating_point_constructor_and_implied_ratio() {
        // The cross-check constructor pins the run count high enough for a
        // tight estimate and otherwise passes the operating point through.
        let p = OpenSystemParams::at_operating_point(4, 8, 0, 4096);
        assert_eq!(p.concurrency, 4);
        assert_eq!(p.write_footprint, 8);
        assert_eq!(p.alpha, 0);
        assert_eq!(p.table_entries, 4096);
        assert!(p.runs >= 4000);

        let r = run_open_system(&p);
        // Model at this point: 4·3·1·64/(2·4096) ≈ 0.094.
        assert!(
            (0.05..0.16).contains(&r.conflict_rate),
            "{}",
            r.conflict_rate
        );
        // Geometric implication p/(1−p): slightly above p, finite, and
        // consistent with the direct formula.
        let implied = r.implied_aborts_per_commit();
        assert!(implied > r.conflict_rate && implied.is_finite());
        let direct = r.conflict_rate / (1.0 - r.conflict_rate);
        assert!((implied - direct).abs() < 1e-12);

        let saturated = OpenSystemResult {
            conflict_rate: 1.0,
            ..OpenSystemResult::default()
        };
        assert!(saturated.implied_aborts_per_commit().is_infinite());
    }
}
