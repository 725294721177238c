//! Recycled-scratch hygiene: a pooled [`TxnScratch`](tm_stm::TxnScratch)
//! must never leak state across attempts or transactions.
//!
//! Strategy: every generated case runs a **poisoned** execution — each
//! transaction's first attempt buffers garbage writes (including enough to
//! spill the scratch maps past their inline capacity) and then aborts —
//! next to a **reference** execution of the same committed bodies with no
//! aborts. Recycling is correct iff
//!
//! 1. the attempt after an abort observes completely clean per-attempt
//!    state (no grants, no pending writes, reads see the heap, not the
//!    aborted attempt's buffer), and
//! 2. the poisoned execution's final heap and commit counters are
//!    identical to the reference execution's — i.e. the recycled-scratch
//!    build is semantically indistinguishable from a fresh-allocation
//!    build.
//!
//! Runs on all three engine families, so both `Txn` and `LazyTxn` go
//! through the pool — and on the eager engine under a two-table route,
//! where the poisoned footprint escalates, so the cross-table buffers
//! (read-value log, touch order, commit plan and grants) recycle too.

use proptest::prelude::*;

use tm_stm::{
    ConcurrentTable, ConcurrentTaggedTable, NoopProbe, ReadOps, Route, Stm, StmBuilder, TmEngine,
    TxnOps,
};

const HEAP_WORDS: usize = 1 << 12;
const WORDS: u64 = 64;

/// Splits the blocks under the test's `WORDS` down the middle (8 words to
/// a 64-byte block), so any footprint touching both halves escalates.
#[derive(Debug)]
struct Halves;

impl Route for Halves {
    const MULTI: bool = true;

    fn table_count(&self) -> usize {
        2
    }

    fn table_of(&self, block: u64) -> u32 {
        u32::from(block >= WORDS / 16)
    }
}

fn two_tables() -> Stm<ConcurrentTaggedTable, NoopProbe, Halves> {
    let b = StmBuilder::new().heap_words(HEAP_WORDS).table_entries(256);
    let tables = (0..2)
        .map(|_| ConcurrentTaggedTable::new(b.table_config()))
        .collect();
    Stm::routed(
        HEAP_WORDS,
        tables,
        Halves,
        b.configured_contention(),
        NoopProbe,
    )
}

/// One transaction: the words it writes (value = `base + i`), and whether
/// its first attempt aborts after poisoning the scratch.
#[derive(Clone, Debug)]
struct TxnSpec {
    writes: Vec<u64>,
    base: u64,
    poison_first_attempt: bool,
}

fn txn_strategy() -> impl Strategy<Value = TxnSpec> {
    (
        // Footprints straddling the SmallMap inline capacity (16) so both
        // the inline and the spilled regime recycle.
        proptest::collection::vec(0u64..WORDS, 1..40),
        0u64..1000,
        (0u8..2).prop_map(|b| b == 1),
    )
        .prop_map(|(writes, base, poison_first_attempt)| TxnSpec {
            writes,
            base,
            poison_first_attempt,
        })
}

/// Drive `txns`; when a spec poisons, the first attempt to get that far
/// dirties every scratch structure (logs, write buffer, read set) and
/// aborts, and the retry asserts it starts clean. (Under a multi-table
/// route the poison's writes escalate first, so it is the cross-table
/// restart that completes the poisoning.)
fn drive<E: TmEngine>(engine: &E, txns: &[TxnSpec], poisoned: bool) -> (Vec<u64>, u64) {
    for spec in txns {
        let mut poison = poisoned && spec.poison_first_attempt;
        engine.run(0, |txn| {
            if poison {
                // Dirty every structure, spilling past inline capacity:
                // buffered garbage at every word, plus reads (of it, and of
                // untouched words beyond it) to grow the log / read set.
                for w in 0..WORDS {
                    txn.write(w * 8, 0xDEAD_0000 + w)?;
                }
                for w in 0..WORDS {
                    assert_eq!(txn.read(w * 8)?, 0xDEAD_0000 + w, "own write lost");
                }
                for w in WORDS..WORDS + 16 {
                    txn.read(w * 8)?;
                }
                poison = false;
                return txn.retry();
            }
            if poisoned && spec.poison_first_attempt {
                // The recycled attempt must observe none of attempt 1.
                assert_eq!(txn.write_count(), 0, "write counter leaked");
                for &w in &spec.writes {
                    let v = txn.read(w * 8)?;
                    assert!(
                        v < 0xDEAD_0000,
                        "aborted attempt's buffered write leaked into a retry: {v:#x}"
                    );
                }
            }
            for (i, &w) in spec.writes.iter().enumerate() {
                txn.write(w * 8, spec.base + i as u64)?;
            }
            Ok(())
        });
    }
    let heap: Vec<u64> = (0..WORDS).map(|w| engine.heap().load(w * 8)).collect();
    (heap, engine.engine_stats().commits)
}

fn check_engine<E: TmEngine>(poisoned: &E, fresh: &E, txns: &[TxnSpec]) {
    let (heap_poisoned, commits_poisoned) = drive(poisoned, txns, true);
    let (heap_fresh, commits_fresh) = drive(fresh, txns, false);
    assert_eq!(
        heap_poisoned, heap_fresh,
        "recycled scratch changed committed state"
    );
    assert_eq!(commits_poisoned, commits_fresh, "commit totals diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The acceptance property: abort-poisoned executions through the
    /// recycled scratch pool are indistinguishable from abort-free ones,
    /// on every engine family.
    #[test]
    fn recycled_scratch_leaks_nothing(
        txns in proptest::collection::vec(txn_strategy(), 1..20),
    ) {
        let b = StmBuilder::new().heap_words(HEAP_WORDS).table_entries(256);
        check_engine(&b.build_tagged(), &b.build_tagged(), &txns);
        check_engine(&b.build_tagless(), &b.build_tagless(), &txns);
        check_engine(&b.build_lazy(), &b.build_lazy(), &txns);
        check_engine(&two_tables(), &two_tables(), &txns);
    }

    /// Grant hygiene under recycling: after any poisoned run the ownership
    /// table must be fully drained (every grant released exactly once —
    /// a stale recycled log would release too much or too little). A
    /// read→write upgrade counts a second grant against the same single
    /// release, so the balanced ledger is `grants == releases + upgrades`.
    #[test]
    fn recycled_log_releases_grants_exactly(
        txns in proptest::collection::vec(txn_strategy(), 1..16),
    ) {
        let b = StmBuilder::new().heap_words(HEAP_WORDS).table_entries(256);
        let stm = b.build_tagged();
        drive(&stm, &txns, true);
        let t = stm.table().stats_snapshot();
        prop_assert_eq!(t.grants, t.releases + t.upgrades, "grant ledger unbalanced");

        let stm = b.build_tagless();
        drive(&stm, &txns, true);
        let t = stm.table().stats_snapshot();
        prop_assert_eq!(t.grants, t.releases + t.upgrades, "grant ledger unbalanced");

        // Stale recycled commit-phase grants would unbalance either table.
        let stm = two_tables();
        drive(&stm, &txns, true);
        for i in 0..stm.shard_count() {
            let t = stm.shard_table(i).stats_snapshot();
            prop_assert_eq!(t.grants, t.releases + t.upgrades, "grant ledger unbalanced");
        }
    }
}

/// Deterministic spot-checks of the attempt-boundary observables the
/// property tests rely on, plus pool behaviour under nesting.
mod deterministic {
    use tm_stm::scratch::{pooled_on_this_thread, ScratchGuard};
    use tm_stm::{ReadOps, StmBuilder, TmEngine, TxnOps};

    #[test]
    fn cross_table_retry_attempt_starts_clean() {
        let stm = super::two_tables();
        let mut aborted = false;
        stm.run(0, |txn| {
            assert_eq!(txn.grant_count(), 0, "log leaked across attempts");
            assert_eq!(txn.pending_writes(), 0, "wbuf leaked across attempts");
            for w in 0..super::WORDS {
                txn.write(w * 8, w)?; // the second half escalates
            }
            txn.read(super::WORDS * 8)?; // logged by value in cross mode
            if txn.is_cross_shard() && !aborted {
                aborted = true;
                return txn.retry();
            }
            Ok(())
        });
        assert!(aborted, "the footprint spans both tables");
        assert_eq!(stm.cross_shard_commits(), 1);
        assert_eq!(stm.heap().load(8), 1);
        // The bundle went back to the pool with its read log, touch order
        // and commit plan populated; checkout is the clearing authority.
        assert!(ScratchGuard::checkout().is_clear());
    }

    #[test]
    fn retry_attempt_starts_with_empty_log_and_wbuf() {
        let stm = StmBuilder::new()
            .heap_words(1 << 10)
            .table_entries(64)
            .build_tagged();
        let mut first = true;
        stm.run(0, |txn| {
            assert_eq!(txn.grant_count(), 0, "log leaked across attempts");
            assert_eq!(txn.pending_writes(), 0, "wbuf leaked across attempts");
            for w in 0..30u64 {
                txn.write(w * 8, w)?; // spill the inline maps
            }
            if first {
                first = false;
                return txn.retry();
            }
            Ok(())
        });
        assert_eq!(stm.heap().load(8), 1);
    }

    #[test]
    fn lazy_retry_attempt_starts_with_empty_sets() {
        let stm = StmBuilder::new()
            .heap_words(1 << 10)
            .table_entries(64)
            .build_lazy();
        let mut first = true;
        stm.run(0, |txn| {
            assert_eq!(txn.read_set_len(), 0, "read set leaked across attempts");
            assert_eq!(txn.pending_writes(), 0, "wbuf leaked across attempts");
            for w in 0..30u64 {
                txn.read(w * 8)?;
                txn.write(w * 8, w)?;
            }
            if first {
                first = false;
                return txn.retry();
            }
            Ok(())
        });
        assert_eq!(stm.heap().load(8), 1);
    }

    #[test]
    fn nested_engines_on_one_thread_use_distinct_scratch() {
        // A body that drives a *second* engine mid-transaction: the pool
        // must hand out distinct bundles (stack discipline), and both
        // transactions must commit with correct state.
        let b = StmBuilder::new().heap_words(1 << 10).table_entries(64);
        let outer = b.build_tagged();
        let inner = b.build_lazy();
        outer.run(0, |txn| {
            txn.write(0, 7)?;
            inner.run(1, |t| t.write(8, 9));
            assert_eq!(txn.pending_writes(), 1, "inner txn disturbed outer scratch");
            Ok(())
        });
        assert_eq!(outer.heap().load(0), 7);
        assert_eq!(inner.heap().load(8), 9);
        // Both bundles returned to this thread's pool.
        assert!(pooled_on_this_thread() >= 2);
    }
}
