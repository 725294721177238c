//! Property-based semantic tests for both STM engines: arbitrary
//! single-threaded transaction scripts must behave exactly like a reference
//! interpreter over a plain map, including buffering, abort-discard, and
//! read-your-writes; and randomized concurrent histories must preserve
//! per-cell sum invariants.

use std::collections::HashMap;

use proptest::prelude::*;

use tm_birthday::stm::lazy::LazyStm;
use tm_birthday::stm::{Aborted, ConcurrentTable, ReadOps, Stm, StmBuilder, TmEngine, TxnOps};

/// One step of a transaction script.
#[derive(Clone, Copy, Debug)]
enum Step {
    Read(u64),
    Write(u64, u64),
    /// Abort the current transaction here (discarding its writes).
    Abort,
}

/// A script: a list of transactions, each a list of steps.
fn arb_script() -> impl Strategy<Value = Vec<Vec<Step>>> {
    let step = prop_oneof![
        4 => (0u64..32).prop_map(Step::Read),
        4 => (0u64..32, any::<u64>()).prop_map(|(a, v)| Step::Write(a, v)),
        1 => Just(Step::Abort),
    ];
    proptest::collection::vec(proptest::collection::vec(step, 0..20), 0..12)
}

/// Reference interpreter: committed state plus per-transaction buffer.
fn run_reference(script: &[Vec<Step>]) -> (HashMap<u64, u64>, Vec<Vec<u64>>) {
    let mut committed: HashMap<u64, u64> = HashMap::new();
    let mut all_reads = Vec::new();
    for txn in script {
        let mut buffer: HashMap<u64, u64> = HashMap::new();
        let mut reads = Vec::new();
        let mut aborted = false;
        for &step in txn {
            match step {
                Step::Read(a) => reads.push(
                    *buffer
                        .get(&(a * 8))
                        .or_else(|| committed.get(&(a * 8)))
                        .unwrap_or(&0),
                ),
                Step::Write(a, v) => {
                    buffer.insert(a * 8, v);
                }
                Step::Abort => {
                    aborted = true;
                    break;
                }
            }
        }
        if !aborted {
            committed.extend(buffer);
        }
        all_reads.push(reads);
    }
    (committed, all_reads)
}

/// Run the same script on an eager STM.
fn run_eager<T: ConcurrentTable>(stm: &Stm<T>, script: &[Vec<Step>]) -> Vec<Vec<u64>> {
    let mut all_reads = Vec::new();
    for txn in script {
        let mut reads = Vec::new();
        // A single attempt suffices: single-threaded, no conflicts possible
        // except via the Abort step.
        let r = stm.try_run(0, 1, |t| {
            reads.clear();
            for &step in txn {
                match step {
                    Step::Read(a) => reads.push(t.read(a * 8)?),
                    Step::Write(a, v) => t.write(a * 8, v)?,
                    Step::Abort => return Err(Aborted),
                }
            }
            Ok(())
        });
        let _ = r;
        all_reads.push(reads.clone());
    }
    all_reads
}

/// Run the same script on the lazy STM.
fn run_lazy(stm: &LazyStm, script: &[Vec<Step>]) -> Vec<Vec<u64>> {
    let mut all_reads = Vec::new();
    for txn in script {
        let mut reads = Vec::new();
        let r = stm.try_run(0, 1, |t| {
            reads.clear();
            for &step in txn {
                match step {
                    Step::Read(a) => reads.push(t.read(a * 8)?),
                    Step::Write(a, v) => t.write(a * 8, v)?,
                    Step::Abort => return Err(Aborted),
                }
            }
            Ok(())
        });
        let _ = r;
        all_reads.push(reads.clone());
    }
    all_reads
}

fn check_final_state<F: Fn(u64) -> u64>(load: F, committed: &HashMap<u64, u64>) {
    for addr in 0..32u64 {
        let expect = *committed.get(&(addr * 8)).unwrap_or(&0);
        assert_eq!(load(addr * 8), expect, "word {addr} diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn eager_tagged_matches_reference(script in arb_script()) {
        let stm = StmBuilder::new().heap_words(64).table_entries(256).build_tagged();
        let reads = run_eager(&stm, &script);
        let (committed, ref_reads) = run_reference(&script);
        prop_assert_eq!(reads, ref_reads);
        check_final_state(|a| stm.heap().load(a), &committed);
    }

    #[test]
    fn eager_tagless_matches_reference(script in arb_script()) {
        // Tiny table: heavy aliasing, but a single thread never conflicts
        // with itself — semantics must be identical.
        let stm = StmBuilder::new().heap_words(64).table_entries(4).build_tagless();
        let reads = run_eager(&stm, &script);
        let (committed, ref_reads) = run_reference(&script);
        prop_assert_eq!(reads, ref_reads);
        check_final_state(|a| stm.heap().load(a), &committed);
    }

    #[test]
    fn lazy_matches_reference(script in arb_script()) {
        let stm = StmBuilder::new().heap_words(64).table_entries(4).build_lazy();
        let reads = run_lazy(&stm, &script);
        let (committed, ref_reads) = run_reference(&script);
        prop_assert_eq!(reads, ref_reads);
        check_final_state(|a| stm.heap().load(a), &committed);
    }

    /// Concurrent increments with randomized per-thread counts: the final
    /// sum must be exact on every engine.
    #[test]
    fn concurrent_sum_exact(counts in proptest::collection::vec(1u64..60, 2..5)) {
        let eager = std::sync::Arc::new(StmBuilder::new().heap_words(64).table_entries(64).build_tagged());
        let lazy = std::sync::Arc::new(StmBuilder::new().heap_words(64).table_entries(64).build_lazy());
        crossbeam::scope(|s| {
            for (id, &n) in counts.iter().enumerate() {
                let (eager, lazy) = (&eager, &lazy);
                s.spawn(move |_| {
                    for _ in 0..n {
                        eager.run(id as u32, |t| t.update(0, |v| v + 1).map(|_| ()));
                        lazy.run(id as u32, |t| t.update(0, |v| v + 1).map(|_| ()));
                    }
                });
            }
        })
        .unwrap();
        let expect: u64 = counts.iter().sum();
        prop_assert_eq!(eager.heap().load(0), expect);
        prop_assert_eq!(lazy.heap().load(0), expect);
    }
}
