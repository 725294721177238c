//! Property-based tests over the ownership tables, driven the way the
//! simulators drive them (one thread, through `tm_sim::SimTable`, which
//! keeps each transaction's grant log): for arbitrary operation sequences,
//! structural invariants must hold and the two organizations must relate as
//! the paper claims (tagged conflicts are exactly the same-block conflicts;
//! tagless adds alias-induced ones).

use proptest::prelude::*;

use tm_birthday::ownership::concurrent::ConcurrentTable;
use tm_birthday::ownership::{
    Access, AcquireOutcome, ConcurrentTaggedTable, ConcurrentTaglessTable, HashKind, TableConfig,
};
use tm_birthday::sim::SimTable;

/// A scripted operation against a table.
#[derive(Clone, Debug)]
enum Op {
    Acquire { txn: u32, block: u64, write: bool },
    ReleaseAll { txn: u32 },
}

fn op_strategy(threads: u32, blocks: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..threads, 0..blocks, any::<bool>()).prop_map(|(txn, block, write)| Op::Acquire {
            txn,
            block,
            write
        }),
        1 => (0..threads).prop_map(|txn| Op::ReleaseAll { txn }),
    ]
}

fn access(write: bool) -> Access {
    if write {
        Access::Write
    } else {
        Access::Read
    }
}

fn run_script<T: ConcurrentTable>(table: &mut SimTable<T>, ops: &[Op]) {
    for op in ops {
        match *op {
            Op::Acquire { txn, block, write } => {
                let _ = table.acquire(txn, block, access(write));
            }
            Op::ReleaseAll { txn } => table.release_all(txn),
        }
    }
}

/// Release every transaction, then require the table to be empty by all
/// three views: the driver's occupancy, the grant walk, and a drain.
fn assert_drains<T: ConcurrentTable>(
    mut table: SimTable<T>,
    threads: u32,
) -> Result<(), TestCaseError> {
    for t in 0..threads {
        table.release_all(t);
    }
    prop_assert_eq!(table.occupancy(), 0);
    let mut live = 0;
    table.table().for_each_grant(&mut |_| live += 1);
    prop_assert_eq!(live, 0);
    prop_assert_eq!(table.table().drain_grants(), 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After releasing every transaction, both tables hold no grant: the
    /// logs the driver keeps release exactly what was granted.
    #[test]
    fn tables_drain_to_empty(ops in proptest::collection::vec(op_strategy(4, 64), 0..200)) {
        let cfg = TableConfig::new(16).with_hash(HashKind::Mask);
        let mut tagless = SimTable::new(ConcurrentTaglessTable::new(cfg.clone()));
        let mut tagged = SimTable::new(ConcurrentTaggedTable::new(cfg));
        run_script(&mut tagless, &ops);
        run_script(&mut tagged, &ops);
        assert_drains(tagless, 4)?;
        assert_drains(tagged, 4)?;
    }

    /// The tagged table never reports a conflict unless another transaction
    /// genuinely holds the *same block* incompatibly: we verify against a
    /// naive per-block reference model.
    #[test]
    fn tagged_conflicts_are_exactly_true_conflicts(
        ops in proptest::collection::vec(op_strategy(3, 32), 0..200)
    ) {
        use std::collections::HashMap;
        #[derive(Default, Clone)]
        struct RefBlock { writer: Option<u32>, readers: Vec<u32> }

        let cfg = TableConfig::new(8).with_hash(HashKind::Mask);
        let mut tagged = SimTable::new(ConcurrentTaggedTable::new(cfg));
        let mut reference: HashMap<u64, RefBlock> = HashMap::new();

        for op in &ops {
            match *op {
                Op::Acquire { txn, block, write } => {
                    let got = tagged.acquire(txn, block, access(write));
                    let r = reference.entry(block).or_default();
                    let expect_conflict = if write {
                        (r.writer.is_some() && r.writer != Some(txn))
                            || r.readers.iter().any(|&t| t != txn)
                            || (r.readers.contains(&txn) && r.readers.len() > 1)
                    } else {
                        r.writer.is_some() && r.writer != Some(txn)
                    };
                    prop_assert_eq!(
                        matches!(got, AcquireOutcome::Conflict(_)),
                        expect_conflict,
                        "block {} txn {} write {}: table said {:?}",
                        block, txn, write, got
                    );
                    if got.is_ok() {
                        if write {
                            r.writer = Some(txn);
                            r.readers.retain(|&t| t != txn);
                        } else if r.writer != Some(txn) && !r.readers.contains(&txn) {
                            r.readers.push(txn);
                        }
                    }
                }
                Op::ReleaseAll { txn } => {
                    tagged.release_all(txn);
                    for r in reference.values_mut() {
                        if r.writer == Some(txn) {
                            r.writer = None;
                        }
                        r.readers.retain(|&t| t != txn);
                    }
                }
            }
        }
    }

    /// Every verdict the tagless table gives is sound: a conflict called
    /// false meets no other holder of the requested block, and one called
    /// true meets one (`Unknown` claims nothing). A transaction may hold
    /// several blocks of one entry, which is what saturates its word.
    #[test]
    fn tagless_classification_is_sound(
        ops in proptest::collection::vec(op_strategy(3, 24), 0..150)
    ) {
        let cfg = TableConfig::new(8).with_hash(HashKind::Mask);
        let mut table = SimTable::new(ConcurrentTaglessTable::new(cfg));
        // Which (txn, block, write) accesses are live, as the transactions'
        // own logs would record them.
        use std::collections::HashSet;
        let mut live: HashSet<(u32, u64, bool)> = HashSet::new();
        for op in &ops {
            match *op {
                Op::Acquire { txn, block, write } => {
                    let got = table.acquire(txn, block, access(write));
                    if let AcquireOutcome::Conflict(c) = got {
                        let genuine = live.iter().any(|&(t, b, w)| {
                            t != txn && b == block && (w || write)
                        });
                        if c.class.is_known_false() {
                            prop_assert!(!genuine, "a genuine conflict called false: block {} txn {}: {:?}", block, txn, c);
                        }
                        if c.class.is_known_true() {
                            prop_assert!(genuine, "an alias called true: block {} txn {}: {:?}", block, txn, c);
                        }
                    } else {
                        // Both Granted and AlreadyHeld extend the
                        // transaction's footprint.
                        live.insert((txn, block, write));
                    }
                }
                Op::ReleaseAll { txn } => {
                    table.release_all(txn);
                    live.retain(|&(t, _, _)| t != txn);
                }
            }
        }
    }

    /// Occupancy never exceeds the entry count, and every acquire is counted
    /// exactly once: as a grant, as already held, or as a conflict.
    #[test]
    fn stats_consistency(ops in proptest::collection::vec(op_strategy(4, 128), 0..300)) {
        let cfg = TableConfig::new(32).with_hash(HashKind::Multiplicative);
        let mut table = SimTable::new(ConcurrentTaglessTable::new(cfg));
        for op in &ops {
            match *op {
                Op::Acquire { txn, block, write } => {
                    let _ = table.acquire(txn, block, access(write));
                    prop_assert!(table.occupancy() <= 32);
                }
                Op::ReleaseAll { txn } => table.release_all(txn),
            }
            let s = table.table().stats_snapshot();
            prop_assert_eq!(
                s.total_acquires(),
                s.grants + s.already_held + s.total_conflicts()
            );
        }
    }
}
