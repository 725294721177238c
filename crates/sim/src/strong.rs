//! Strong-isolation pressure simulation (paper §6).
//!
//! The paper closes by observing that under **strong isolation** even
//! threads *outside* transactions must perform ownership-table lookups, and
//! that "this additional concurrency makes the use of tagless ownership
//! tables even more untenable". This simulator quantifies that: a closed
//! system of `threads` transactional threads (as in Figures 5–6) plus
//! `bystanders` non-transactional threads that each touch one random block
//! per tick through the same tagless table.
//!
//! A bystander access behaves like a one-block transaction: it acquires the
//! entry, performs its access, and releases immediately. Against a tagless
//! table it can still collide with a transaction's entry — aborting the
//! transaction (writer bystander) or being forced to retry (reader
//! bystander against a held write entry) even though the *data* is disjoint
//! by construction.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tm_ownership::{Access, AcquireOutcome, ConcurrentTaglessTable, HashKind, TableConfig};

use crate::table::SimTable;

/// Parameters of the strong-isolation experiment.
#[derive(Clone, Debug)]
pub struct StrongIsolationParams {
    /// Transactional threads (the closed-system workload).
    pub threads: u32,
    /// Non-transactional bystander threads performing strong accesses.
    pub bystanders: u32,
    /// Fraction of bystander accesses that are writes.
    pub bystander_write_frac: f64,
    /// Writes per transaction `W`.
    pub write_footprint: u32,
    /// Fresh reads per write (`α`).
    pub alpha: u32,
    /// Ownership-table entries `N` (power of two).
    pub table_entries: usize,
    /// Transactions a conflict-free thread completes (fixes the duration).
    pub target_commits: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StrongIsolationParams {
    fn default() -> Self {
        Self {
            threads: 4,
            bystanders: 4,
            bystander_write_frac: 0.34,
            write_footprint: 10,
            alpha: 2,
            table_entries: 16_384,
            target_commits: 650,
            seed: 0x57011,
        }
    }
}

/// Outcome of one strong-isolation run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StrongIsolationResult {
    /// Transaction aborts caused by *transactional* peers.
    pub txn_conflicts: u64,
    /// Transaction aborts caused by bystander accesses (a bystander write
    /// hitting a transaction-held entry forces the transaction to abort on
    /// its next touch — modelled as the bystander winning).
    pub bystander_induced_aborts: u64,
    /// Bystander accesses that had to retry because a transaction held the
    /// entry incompatibly.
    pub bystander_stalls: u64,
    /// Committed transactions.
    pub commits: u64,
    /// Total bystander accesses performed.
    pub bystander_accesses: u64,
}

/// Run the experiment. Bystander block space is disjoint from transactional
/// block space (high bit set), so *every* bystander interaction through the
/// table is a false conflict.
pub fn run_strong_isolation(params: &StrongIsolationParams) -> StrongIsolationResult {
    assert!(
        params.threads >= 1,
        "need at least one transactional thread"
    );
    assert!(
        (0.0..=1.0).contains(&params.bystander_write_frac),
        "write fraction must be a probability"
    );

    let cfg = TableConfig::new(params.table_entries).with_hash(HashKind::Multiplicative);
    let mut table = SimTable::new(ConcurrentTaglessTable::new(cfg));
    let mut rng = StdRng::seed_from_u64(params.seed);

    let blocks_per_txn = (params.alpha as u64 + 1) * params.write_footprint as u64;
    let ticks = params.target_commits * blocks_per_txn;

    // Thread ids: transactions then bystanders.
    let byst_base = params.threads;
    let mut progress = vec![0u64; params.threads as usize];
    let mut delay: Vec<u64> = (0..params.threads)
        .map(|_| rng.gen_range(0..blocks_per_txn))
        .collect();

    let mut out = StrongIsolationResult::default();

    for _tick in 0..ticks {
        // Transactional threads: one block addition each.
        for t in 0..params.threads {
            let ti = t as usize;
            if delay[ti] > 0 {
                delay[ti] -= 1;
                continue;
            }
            let access = if (progress[ti] % (params.alpha as u64 + 1)) < params.alpha as u64 {
                Access::Read
            } else {
                Access::Write
            };
            let block: u64 = rng.gen::<u64>() & !(1 << 63);
            match table.acquire(t, block, access) {
                AcquireOutcome::Granted | AcquireOutcome::AlreadyHeld => {
                    progress[ti] += 1;
                    if progress[ti] == blocks_per_txn {
                        table.release_all(t);
                        out.commits += 1;
                        progress[ti] = 0;
                    }
                }
                AcquireOutcome::Conflict(_) => {
                    table.release_all(t);
                    out.txn_conflicts += 1;
                    progress[ti] = 0;
                }
            }
        }
        // Bystanders: acquire-act-release one disjoint block each.
        for b in 0..params.bystanders {
            let me = byst_base + b;
            let block: u64 = rng.gen::<u64>() | (1 << 63);
            let access = if rng.gen_bool(params.bystander_write_frac) {
                Access::Write
            } else {
                Access::Read
            };
            out.bystander_accesses += 1;
            match table.acquire(me, block, access) {
                AcquireOutcome::Granted | AcquireOutcome::AlreadyHeld => {
                    table.release_all(me);
                }
                AcquireOutcome::Conflict(c) => {
                    if access.is_write() || c.with.is_some() {
                        // In a strongly-isolated system the non-transactional
                        // access must win (it cannot be rolled back): the
                        // transaction holding the entry aborts — when the
                        // table names it and it is transactional.
                        if let Some(owner) = c.with.filter(|&t| t < params.threads) {
                            table.release_all(owner);
                            progress[owner as usize] = 0;
                            out.bystander_induced_aborts += 1;
                        } else {
                            out.bystander_stalls += 1;
                        }
                    } else {
                        out.bystander_stalls += 1;
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(bystanders: u32, n: usize) -> StrongIsolationResult {
        run_strong_isolation(&StrongIsolationParams {
            bystanders,
            table_entries: n,
            target_commits: 300,
            ..Default::default()
        })
    }

    #[test]
    fn no_bystanders_reduces_to_closed_system() {
        let r = point(0, 16_384);
        assert_eq!(r.bystander_accesses, 0);
        assert_eq!(r.bystander_induced_aborts, 0);
        assert!(r.commits > 0);
    }

    #[test]
    fn bystanders_induce_false_aborts() {
        // Bystander blocks are disjoint from transactional blocks, so every
        // induced abort is a false conflict.
        let r = point(8, 4096);
        assert!(
            r.bystander_induced_aborts > 0,
            "expected bystander-induced aborts, got {r:?}"
        );
        assert!(r.bystander_stalls > 0);
    }

    #[test]
    fn pressure_grows_with_bystanders() {
        let light = point(2, 4096);
        let heavy = point(16, 4096);
        assert!(
            heavy.bystander_induced_aborts > light.bystander_induced_aborts * 2,
            "{light:?} vs {heavy:?}"
        );
        assert!(heavy.commits <= light.commits);
    }

    #[test]
    fn bigger_tables_relieve_pressure_only_linearly() {
        let small = point(8, 4096);
        let big = point(8, 16_384);
        let ratio =
            small.bystander_induced_aborts as f64 / big.bystander_induced_aborts.max(1) as f64;
        assert!((2.0..9.0).contains(&ratio), "x4 table gave ratio {ratio}");
    }

    #[test]
    fn deterministic() {
        assert_eq!(point(4, 8192), point(4, 8192));
    }
}
