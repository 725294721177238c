//! A realistic data structure on the STM: the workspace's own `TList` — a
//! concurrent sorted linked list with **transactional node alloc/free**,
//! exercising multi-block transactions of the shape the paper's model
//! parameterizes: a chain of dependent reads (the traversal) followed by a
//! couple of writes (the splice), plus the allocator's metadata words.
//!
//! This example used to hand-roll the list from raw heap addresses; the
//! typed object layer made that obsolete — `TList` is four lines of setup,
//! runs on every engine, and its node pool proves itself leak-free at the
//! end.
//!
//! Run with: `cargo run --release --example transactional_list`

use tm_birthday::prelude::*;

fn main() {
    // A tagged table keeps list traversals free of false conflicts; try
    // `.build_tagless()` with a 64-entry table to watch aliasing aborts
    // appear between disjoint splices.
    let stm = StmBuilder::new()
        .heap_words(1 << 16)
        .table_entries(4096)
        .build_tagged();

    let threads = 4u32;
    let per_thread = 300u64;
    let universe = per_thread * threads as u64;

    let mut region = Region::new(0, (1 << 16) * 8);
    let list: TList<u64> = TList::create(&mut region, universe);

    crossbeam::scope(|s| {
        for id in 0..threads {
            let (stm, list) = (&stm, &list);
            s.spawn(move |_| {
                // Interleaved ranges so threads constantly pass each other's
                // nodes during traversal.
                for i in 0..per_thread {
                    let v = i * threads as u64 + id as u64;
                    assert_eq!(stm.run(id, |txn| list.insert(txn, v)), Ok(true));
                    assert!(stm.run(id, |txn| list.contains(txn, v)));
                    // Every 3rd value is removed again — the node is freed
                    // back to the pool inside the removing transaction.
                    if v.is_multiple_of(3) {
                        assert!(stm.run(id, |txn| list.remove(txn, v)));
                    }
                }
            });
        }
    })
    .unwrap();

    let final_list = stm.run(0, |txn| list.snapshot(txn));
    let expected: Vec<u64> = (0..universe).filter(|v| v % 3 != 0).collect();
    assert_eq!(final_list, expected, "list must be sorted and exact");
    assert_eq!(
        final_list.len() as u64 + stm.run(0, |txn| list.free_nodes(txn)),
        list.capacity(),
        "every removed node returned to the pool"
    );

    let s = stm.engine_stats();
    println!(
        "sorted list of {} elements built by {threads} threads: {} commits, {} aborts (all true conflicts)",
        final_list.len(),
        s.commits,
        s.aborts
    );
    println!(
        "node pool: {} / {} cells free after {} transactional frees — no leaks",
        stm.run(0, |txn| list.free_nodes(txn)),
        list.capacity(),
        universe / 3
    );
    println!(
        "head of list: {:?} ...",
        &final_list[..8.min(final_list.len())]
    );
}
