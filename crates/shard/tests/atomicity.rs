//! Cross-shard atomicity under fire.
//!
//! Three pillars:
//!
//! 1. **Conservation on every engine**: concurrent debit/credit transfers
//!    under an aliasing-sized table never create or destroy money, on the
//!    unsharded eager engines, the lazy engine, and the sharded engine at
//!    several shard counts — including a proptest sweep of the sharded
//!    geometry.
//! 2. **No torn transfers**: wait-free `run_read` scanners running *while*
//!    the transfers fly always observe a conserved total — a half-published
//!    cross-shard transfer would break the sum.
//! 3. **The ordering is load-bearing**: the deliberately wrong
//!    [`AcquireOrder::Unordered`] mutant, driven with barrier-synchronized
//!    opposing transfers, produces commit-phase acquisition failures
//!    (circular waits burning the whole budget); the ordered protocol,
//!    same workload, never exhausts its acquisition budget.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use tm_shard::{AcquireOrder, ShardedStmBuilder};
use tm_stm::{AbortCause, Probe, ReadOps, RetryPolicy, StmBuilder, TmEngine, TxnOps};

const ACCOUNT_SEED: u64 = 100;

/// Deterministic per-thread mixer (split-mix style) so the stress is
/// reproducible without pulling in an RNG.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Account word addresses spread evenly across the heap (and so, on a
/// sharded engine with contiguous spans, across shards).
fn account_addrs(accounts: usize, heap_words: usize) -> Vec<u64> {
    let stride = (heap_words * 8 / accounts) as u64 & !63;
    (0..accounts as u64).map(|i| i * stride.max(64)).collect()
}

/// Hammer `engine` with concurrent random transfers while scanners on the
/// wait-free read path continuously assert conservation. Panics (in a
/// worker) on any torn or non-conserved observation.
fn conservation_stress<E: TmEngine>(
    engine: &E,
    addrs: &[u64],
    writer_threads: u32,
    transfers_per_thread: u32,
    seed: u64,
) {
    for &a in addrs {
        engine.heap().store(a, ACCOUNT_SEED);
    }
    let expected = ACCOUNT_SEED * addrs.len() as u64;
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        for t in 0..writer_threads {
            let done = &done;
            s.spawn(move || {
                let mut rng = seed ^ (0xabcd_0001 * u64::from(t) + 1);
                for _ in 0..transfers_per_thread {
                    let i = (mix(&mut rng) as usize) % addrs.len();
                    let mut j = (mix(&mut rng) as usize) % addrs.len();
                    if j == i {
                        j = (j + 1) % addrs.len();
                    }
                    let amount = mix(&mut rng) % 3 + 1;
                    engine.run(t, |txn| {
                        let from = txn.read(addrs[i])?;
                        if from < amount {
                            return Ok(()); // insufficient funds; still commits
                        }
                        txn.write(addrs[i], from - amount)?;
                        let to = txn.read(addrs[j])?;
                        txn.write(addrs[j], to + amount)
                    });
                }
                done.store(true, Ordering::Release);
            });
        }
        // One scanner per two writers, reading the whole account vector in
        // single wait-free snapshots until the writers finish.
        for r in 0..(writer_threads / 2).max(1) {
            let done = &done;
            s.spawn(move || {
                let me = writer_threads + r;
                while !done.load(Ordering::Acquire) {
                    let total = engine.run_read(me, |txn| {
                        let mut sum = 0u64;
                        for &a in addrs {
                            sum += txn.read(a)?;
                        }
                        Ok(sum)
                    });
                    assert_eq!(total, expected, "scanner observed a torn transfer");
                }
            });
        }
    });

    let total: u64 = addrs.iter().map(|&a| engine.heap().load(a)).sum();
    assert_eq!(total, expected, "money created or destroyed");
}

/// Aliasing-sized geometry: 512 blocks of heap over 32 table entries.
fn sharded_builder() -> StmBuilder {
    StmBuilder::new().heap_words(1 << 12).table_entries(32)
}

#[test]
fn transfers_conserve_on_sharded_tagless() {
    for shards in [1usize, 2, 4, 7] {
        let stm = sharded_builder().shards(shards).build_sharded_tagless();
        let addrs = account_addrs(8, 1 << 12);
        conservation_stress(&stm, &addrs, 4, 300, 42);
        let s = stm.stats();
        assert_eq!(s.commits, 4 * 300, "every transfer commits exactly once");
        if shards > 1 {
            assert!(stm.cross_shard_commits() > 0, "workload must cross shards");
        } else {
            assert_eq!(stm.cross_shard_commits(), 0);
        }
    }
}

#[test]
fn transfers_conserve_on_sharded_tagged() {
    let stm = sharded_builder().shards(4).build_sharded_tagged();
    let addrs = account_addrs(8, 1 << 12);
    conservation_stress(&stm, &addrs, 4, 300, 7);
    assert!(stm.cross_shard_commits() > 0);
}

#[test]
fn transfers_conserve_on_unsharded_engines() {
    let eager = sharded_builder().build_tagless();
    conservation_stress(&eager, &account_addrs(8, 1 << 12), 4, 300, 1);

    let tagged = sharded_builder().build_tagged();
    conservation_stress(&tagged, &account_addrs(8, 1 << 12), 4, 300, 2);

    let lazy = sharded_builder().build_lazy();
    conservation_stress(&lazy, &account_addrs(8, 1 << 12), 4, 300, 3);
}

/// Counts acquisition-budget exhaustions where the budget is burned. The
/// engine reports a commit-phase abort (`on_cross_shard_abort`) and then,
/// on the same thread, its cause: a *conflict* cause there is the ordered
/// acquisition loop giving up on a grant (a failed read-log validation
/// carries `ValidationFailed` instead). A fresh eager attempt that meets a
/// peer mid-commit also aborts with a conflict cause, under either order —
/// but before it escalates, never in the commit phase, so it is not counted.
#[derive(Default)]
struct BudgetProbe {
    in_commit_phase: [AtomicBool; 2],
    exhausted: AtomicU64,
}

impl Probe for BudgetProbe {
    const ENABLED: bool = true;

    fn on_cross_shard_abort(&self, thread: u32) {
        self.in_commit_phase[thread as usize].store(true, Ordering::Relaxed);
    }

    fn on_abort(&self, thread: u32, cause: AbortCause, _attempt_ns: u64) {
        let in_commit_phase = self.in_commit_phase[thread as usize].swap(false, Ordering::Relaxed);
        let conflict = matches!(
            cause,
            AbortCause::TrueConflict | AbortCause::FalseConflict | AbortCause::UnknownConflict
        );
        if in_commit_phase && conflict {
            self.exhausted.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The deliberately wrong mutant vs the real protocol, on the worst-case
/// workload: two threads running *opposing* transfers between the first
/// and last shard. Each round the two transactions rendezvous on a
/// barrier *inside the body* (first cross-mode attempt only), so their
/// ordered-acquisition commit phases always overlap. Unordered
/// acquisition then takes the two grants in opposite orders — a circular
/// wait every round, burning the whole commit budget. Ordered acquisition
/// on the identical workload never does: the loser waits briefly,
/// revalidates, and at worst retries on a `ValidationFailed`. Returns
/// (budget exhaustions, all commit-phase aborts).
fn opposing_transfer_budget_exhaustions(order: AcquireOrder) -> (u64, u64) {
    const ROUNDS: u32 = 50;
    let probe = Arc::new(BudgetProbe::default());
    let stm = StmBuilder::new()
        .heap_words(1 << 12)
        .table_entries(1 << 8)
        .shards(4)
        .probe(Arc::clone(&probe))
        .build_sharded_tagless()
        .with_acquire_order(order)
        .with_commit_spins(1 << 12);
    let a = stm.shard_map().block_range(0).start * 64;
    let b = stm.shard_map().block_range(3).start * 64;
    stm.heap().store(a, 1_000_000);
    stm.heap().store(b, 1_000_000);

    // A spinning rendezvous, not `std::sync::Barrier`: a futex wake-up
    // takes longer than a whole commit, so the last arriver at a blocking
    // barrier would finish committing before its peer even ran.
    let arrivals = AtomicU64::new(0);
    std::thread::scope(|s| {
        for (t, (from, to)) in [(a, b), (b, a)].into_iter().enumerate() {
            let arrivals = &arrivals;
            let stm = &stm;
            s.spawn(move || {
                for round in 1..=u64::from(ROUNDS) {
                    let mut synced = false;
                    stm.run(t as u32, |txn| {
                        let f = txn.read(from)?;
                        txn.write(from, f - 1)?;
                        let g = txn.read(to)?;
                        txn.write(to, g + 1)?;
                        // Rendezvous at the brink of commit (first
                        // cross-mode attempt only) so the two ordered
                        // acquisition phases overlap.
                        if txn.is_cross_shard() && !synced {
                            synced = true;
                            arrivals.fetch_add(1, Ordering::AcqRel);
                            let mut spins = 0u32;
                            while arrivals.load(Ordering::Acquire) < 2 * round {
                                spins += 1;
                                if spins.is_multiple_of(64) {
                                    std::thread::yield_now();
                                } else {
                                    std::hint::spin_loop();
                                }
                            }
                        }
                        Ok(())
                    });
                }
            });
        }
    });

    // Opposing ±1 transfers cancel exactly.
    assert_eq!(stm.heap().load(a), 1_000_000);
    assert_eq!(stm.heap().load(b), 1_000_000);
    assert_eq!(stm.cross_shard_commits(), u64::from(ROUNDS) * 2);

    (
        probe.exhausted.load(Ordering::Relaxed),
        stm.cross_shard_aborts(),
    )
}

#[test]
fn unordered_mutant_produces_commit_deadlocks_ordered_does_not() {
    let (ordered_exhaustions, _) = opposing_transfer_budget_exhaustions(AcquireOrder::ShardOrdered);
    assert_eq!(
        ordered_exhaustions, 0,
        "ordered acquisition must never burn its commit budget on a cycle"
    );

    let (mutant_exhaustions, mutant_cross_aborts) =
        opposing_transfer_budget_exhaustions(AcquireOrder::Unordered);
    assert!(
        mutant_exhaustions > 0,
        "the unordered mutant should deadlock opposing committers into \
         budget-exhaustion aborts; if this ever passes the ordering is no \
         longer load-bearing"
    );
    assert!(mutant_cross_aborts >= mutant_exhaustions);
}

/// A bounded retry budget turns the mutant's circular waits into a hard
/// failure the caller can see.
#[test]
fn unordered_mutant_exhausts_a_bounded_retry_budget() {
    let stm = StmBuilder::new()
        .heap_words(1 << 12)
        .table_entries(1 << 8)
        .shards(4)
        .build_sharded_tagless()
        .with_acquire_order(AcquireOrder::Unordered)
        .with_commit_spins(64);
    let a = stm.shard_map().block_range(0).start * 64;
    let b = stm.shard_map().block_range(3).start * 64;

    let barrier = Barrier::new(2);
    let failures: Vec<bool> = std::thread::scope(|s| {
        let handles: Vec<_> = [(a, b), (b, a)]
            .into_iter()
            .enumerate()
            .map(|(t, (from, to))| {
                let barrier = &barrier;
                let stm = &stm;
                s.spawn(move || {
                    let mut exhausted = false;
                    for _ in 0..400 {
                        barrier.wait();
                        let r = stm.run_with(
                            t as u32,
                            RetryPolicy::Bounded { max_attempts: 2 },
                            |txn| {
                                txn.write(from, 1)?;
                                txn.write(to, 2)
                            },
                        );
                        exhausted |= r.is_err();
                    }
                    exhausted
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(
        failures.iter().any(|&f| f),
        "two retries against a repeating lock-order inversion should fail at least once"
    );
}

mod proptest_sweep {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Conservation holds across the sharded geometry space, with the
        /// table sized to alias heavily.
        #[test]
        fn sharded_transfers_conserve(
            shards in 1usize..6,
            accounts in 4usize..12,
            entries_log2 in 5u32..9,
            seed in any::<u64>(),
        ) {
            let stm = StmBuilder::new()
                .heap_words(1 << 12)
                .table_entries(1 << entries_log2)
                .shards(shards)
                .build_sharded_tagless();
            let addrs = account_addrs(accounts, 1 << 12);
            conservation_stress(&stm, &addrs, 3, 120, seed);
            prop_assert_eq!(stm.stats().commits, 3 * 120);
        }
    }
}
