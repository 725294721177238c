//! Cross-engine structs equivalence: identical operation sequences driven
//! through the eager-tagged, lazy TL2, and adaptive engines via the
//! `TmEngine` trait must produce identical observable behaviour — every
//! per-operation return value, every final structure state, and the
//! container conservation invariants.
//!
//! This is the property the unified transaction API exists to guarantee:
//! the engine (protocol + table organization) changes *performance*, never
//! *semantics*. Sequences are single-threaded so the serial spec is exact.
//!
//! The typed rewrite adds the dynamic structure: `TList` operations —
//! including **abort-poisoned** variants whose first attempt performs the
//! transactional node alloc/free and then aborts — must leave identical
//! lists and a leak-free node pool (`len + free == capacity`) on every
//! engine.

use proptest::prelude::*;

use tm_adaptive::{AdaptiveStmBuilder, ResizePolicy};
use tm_stm::{ReadOps, StmBuilder, TmEngine, TxnOps};
use tm_structs::{Region, TCounter, TList, TMap, TQueue, TStack};

const HEAP_WORDS: usize = 1 << 14;
const REGION_BYTES: u64 = (HEAP_WORDS as u64) * 8;
const MAP_CAPACITY: u64 = 64;
const CONTAINER_CAPACITY: u64 = 16;
/// Deliberately smaller than `KEY_RANGE`: list capacity errors are
/// reachable, and their placement must agree across engines.
const LIST_CAPACITY: u64 = 12;
const KEY_RANGE: u64 = 24;

/// One operation against the five-structure universe.
#[derive(Clone, Copy, Debug)]
enum Op {
    CounterAdd(u64),
    CounterRead,
    MapInsert(u64, u64),
    MapGet(u64),
    MapRemove(u64),
    QueueEnqueue(u64),
    QueueDequeue,
    QueueLen,
    StackPush(u64),
    StackPop,
    StackLen,
    ListInsert(u64),
    ListRemove(u64),
    ListContains(u64),
    /// First attempt inserts then aborts (rolling the node allocation
    /// back); second attempt inserts for real.
    ListInsertPoisoned(u64),
    /// First attempt removes then aborts (rolling the node free back);
    /// second attempt removes for real.
    ListRemovePoisoned(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..8).prop_map(Op::CounterAdd),
        Just(Op::CounterRead),
        ((1u64..KEY_RANGE), (0u64..1000)).prop_map(|(k, v)| Op::MapInsert(k, v)),
        (1u64..KEY_RANGE).prop_map(Op::MapGet),
        (1u64..KEY_RANGE).prop_map(Op::MapRemove),
        (0u64..1000).prop_map(Op::QueueEnqueue),
        Just(Op::QueueDequeue),
        Just(Op::QueueLen),
        (0u64..1000).prop_map(Op::StackPush),
        Just(Op::StackPop),
        Just(Op::StackLen),
        (0u64..KEY_RANGE).prop_map(Op::ListInsert),
        (0u64..KEY_RANGE).prop_map(Op::ListRemove),
        (0u64..KEY_RANGE).prop_map(Op::ListContains),
        (0u64..KEY_RANGE).prop_map(Op::ListInsertPoisoned),
        (0u64..KEY_RANGE).prop_map(Op::ListRemovePoisoned),
    ]
}

/// The observable outcome of one op (unified across op kinds).
type Observed = Option<u64>;

/// List-insert outcomes folded into one word.
const LIST_INSERTED: u64 = 1;
const LIST_DUPLICATE: u64 = 0;
const LIST_FULL: u64 = 2;

/// Everything an engine run exposes: per-op observations plus the drained
/// final contents of every structure and the list's node-pool audit.
#[derive(Debug, PartialEq, Eq)]
struct Trace {
    observations: Vec<Observed>,
    final_counter: u64,
    final_map: Vec<(u64, u64)>,
    drained_queue: Vec<u64>,
    drained_stack: Vec<u64>,
    final_list: Vec<u64>,
    list_free_nodes: u64,
    commits: u64,
}

/// Drive `ops` through `engine` — the structures are (re)created in the
/// engine's own heap, so each engine sees an identical initial universe.
fn drive<E: TmEngine>(engine: &E, ops: &[Op]) -> Trace {
    let mut region = Region::new(0, REGION_BYTES);
    let counter = TCounter::create(&mut region);
    let map: TMap = TMap::create(&mut region, MAP_CAPACITY);
    let queue: TQueue = TQueue::create(&mut region, CONTAINER_CAPACITY);
    let stack: TStack = TStack::create(&mut region, CONTAINER_CAPACITY);
    let list: TList = TList::create(&mut region, LIST_CAPACITY);

    let list_insert_word = |r: Result<bool, tm_structs::CapacityError>| match r {
        Ok(true) => LIST_INSERTED,
        Ok(false) => LIST_DUPLICATE,
        Err(_) => LIST_FULL,
    };

    let observations = ops
        .iter()
        .map(|op| match *op {
            Op::CounterAdd(d) => Some(engine.run(0, |txn| counter.add(txn, d))),
            Op::CounterRead => Some(engine.run(0, |txn| counter.read(txn))),
            Op::MapInsert(k, v) => engine
                .run(0, |txn| map.insert(txn, k, v))
                .expect("map headroom"),
            Op::MapGet(k) => engine.run(0, |txn| map.get(txn, k)),
            Op::MapRemove(k) => engine.run(0, |txn| map.remove(txn, k)),
            Op::QueueEnqueue(v) => Some(u64::from(
                engine.run(0, |txn| queue.enqueue(txn, v)).is_ok(),
            )),
            Op::QueueDequeue => engine.run(0, |txn| queue.dequeue(txn)),
            Op::QueueLen => Some(engine.run(0, |txn| queue.len(txn))),
            Op::StackPush(v) => Some(u64::from(engine.run(0, |txn| stack.push(txn, v)).is_ok())),
            Op::StackPop => engine.run(0, |txn| stack.pop(txn)),
            Op::StackLen => Some(engine.run(0, |txn| stack.len(txn))),
            Op::ListInsert(v) => Some(list_insert_word(engine.run(0, |txn| list.insert(txn, v)))),
            Op::ListRemove(v) => Some(u64::from(engine.run(0, |txn| list.remove(txn, v)))),
            Op::ListContains(v) => Some(u64::from(engine.run(0, |txn| list.contains(txn, v)))),
            Op::ListInsertPoisoned(v) => {
                // Attempt 1 allocates a node into the splice and aborts;
                // only attempt 2's effect may survive.
                let mut attempt = 0u32;
                let r = engine.run(0, |txn| {
                    attempt += 1;
                    if attempt == 1 {
                        let _ = list.insert(txn, v)?;
                        return txn.retry();
                    }
                    list.insert(txn, v)
                });
                Some(list_insert_word(r))
            }
            Op::ListRemovePoisoned(v) => {
                let mut attempt = 0u32;
                let r = engine.run(0, |txn| {
                    attempt += 1;
                    if attempt == 1 {
                        let _ = list.remove(txn, v)?;
                        return txn.retry();
                    }
                    list.remove(txn, v)
                });
                Some(u64::from(r))
            }
        })
        .collect();

    let final_counter = engine.run(0, |txn| counter.read(txn));
    let mut final_map = Vec::new();
    for k in 1..KEY_RANGE {
        if let Some(v) = engine.run(0, |txn| map.get(txn, k)) {
            final_map.push((k, v));
        }
    }
    let mut drained_queue = Vec::new();
    while let Some(v) = engine.run(0, |txn| queue.dequeue(txn)) {
        drained_queue.push(v);
    }
    let mut drained_stack = Vec::new();
    while let Some(v) = engine.run(0, |txn| stack.pop(txn)) {
        drained_stack.push(v);
    }
    Trace {
        observations,
        final_counter,
        final_map,
        drained_queue,
        drained_stack,
        final_list: engine.run(0, |txn| list.snapshot(txn)),
        list_free_nodes: engine.run(0, |txn| list.free_nodes(txn)),
        commits: engine.engine_stats().commits,
    }
}

/// Conservation invariants derivable from the observations alone — checked
/// per engine so a compensating pair of bugs cannot cancel out across the
/// equality comparison.
fn check_conservation(ops: &[Op], trace: &Trace) {
    let mut expect_counter = 0u64;
    let mut q_in = 0u64;
    let mut q_out = 0u64;
    let mut s_in = 0u64;
    let mut s_out = 0u64;
    let mut list_model = std::collections::BTreeSet::new();
    for (op, obs) in ops.iter().zip(&trace.observations) {
        match *op {
            Op::CounterAdd(d) => expect_counter = expect_counter.wrapping_add(d),
            Op::QueueEnqueue(_) => q_in += u64::from(*obs == Some(1)),
            Op::QueueDequeue => q_out += u64::from(obs.is_some()),
            Op::StackPush(_) => s_in += u64::from(*obs == Some(1)),
            Op::StackPop => s_out += u64::from(obs.is_some()),
            Op::ListInsert(v) | Op::ListInsertPoisoned(v) if *obs == Some(LIST_INSERTED) => {
                list_model.insert(v);
            }
            Op::ListRemove(v) | Op::ListRemovePoisoned(v) if *obs == Some(1) => {
                list_model.remove(&v);
            }
            _ => {}
        }
    }
    assert_eq!(trace.final_counter, expect_counter, "counter conservation");
    assert_eq!(
        trace.drained_queue.len() as u64,
        q_in - q_out,
        "queue element conservation"
    );
    assert_eq!(
        trace.drained_stack.len() as u64,
        s_in - s_out,
        "stack element conservation"
    );
    // The list must agree with the serial model implied by its own
    // observations: contents, sortedness, and a leak-free node pool.
    let expect_list: Vec<u64> = list_model.into_iter().collect();
    assert_eq!(trace.final_list, expect_list, "list contents conservation");
    assert_eq!(
        trace.final_list.len() as u64 + trace.list_free_nodes,
        LIST_CAPACITY,
        "node pool leaked or double-freed"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The acceptance property: the same op sequence through three engine
    /// families yields identical traces and intact conservation laws.
    #[test]
    fn identical_ops_identical_state_on_every_engine(
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let builder = StmBuilder::new().heap_words(HEAP_WORDS).table_entries(1024);

        let tagged = drive(&builder.build_tagged(), &ops);
        let lazy = drive(&builder.build_lazy(), &ops);
        let (adaptive_engine, _controller) =
            builder.build_adaptive(ResizePolicy::default(), 1);
        let adaptive = drive(&adaptive_engine, &ops);

        check_conservation(&ops, &tagged);
        check_conservation(&ops, &lazy);
        check_conservation(&ops, &adaptive);

        prop_assert_eq!(&tagged, &lazy, "eager-tagged vs lazy-tl2 diverged");
        prop_assert_eq!(&tagged, &adaptive, "eager-tagged vs adaptive diverged");
    }

    /// Same property under an adversarially tiny tagless geometry: heavy
    /// aliasing changes abort counts, never results. (Commit counts still
    /// match because single-threaded runs never abort on any engine —
    /// poisoned ops abort exactly once everywhere.)
    #[test]
    fn tiny_aliasing_table_changes_no_semantics(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let roomy = StmBuilder::new().heap_words(HEAP_WORDS).table_entries(2048);
        let tiny = StmBuilder::new().heap_words(HEAP_WORDS).table_entries(4);
        let reference = drive(&roomy.build_tagged(), &ops);
        let aliased_eager = drive(&tiny.build_tagless(), &ops);
        let aliased_lazy = drive(&tiny.build_lazy(), &ops);
        prop_assert_eq!(&reference, &aliased_eager, "tagless aliasing changed semantics");
        prop_assert_eq!(&reference, &aliased_lazy, "lazy aliasing changed semantics");
    }

    /// Equivalence **through the recycled-scratch path**: before the op
    /// stream, run a transaction whose first attempt dirties every
    /// per-attempt scratch structure (a spill-sized write buffer + log /
    /// read set) and aborts. The structs trace that follows through the
    /// recycled bundles must be identical to a never-poisoned engine's.
    #[test]
    fn scratch_poisoning_changes_no_structs_semantics(
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        /// Abort one spill-sized transaction, then commit an empty one —
        /// leaves recycled (once-dirty) scratch bundles and one commit.
        fn poison<E: TmEngine>(engine: &E) {
            let mut attempt = 0u32;
            engine.run(0, |txn| {
                attempt += 1;
                if attempt == 1 {
                    for w in 0..40u64 {
                        txn.write(w * 8, 0xBAD0 + w)?;
                        txn.read(w * 8)?;
                    }
                    return txn.retry();
                }
                Ok(()) // second attempt commits nothing
            });
        }

        let builder = StmBuilder::new().heap_words(HEAP_WORDS).table_entries(1024);

        let poisoned = builder.build_tagged();
        poison(&poisoned);
        let mut trace = drive(&poisoned, &ops);
        // The poison transaction adds exactly one commit of its own.
        trace.commits -= 1;
        let clean = drive(&builder.build_tagged(), &ops);
        prop_assert_eq!(&trace, &clean, "aborted scratch state leaked into structs run");

        let lazy = builder.build_lazy();
        poison(&lazy);
        let mut trace = drive(&lazy, &ops);
        trace.commits -= 1;
        let clean_lazy = drive(&builder.build_lazy(), &ops);
        prop_assert_eq!(&trace, &clean_lazy, "aborted lazy scratch leaked into structs run");
    }
}
