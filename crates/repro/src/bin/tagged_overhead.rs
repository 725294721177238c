//! Regenerates the paper's **§5** argument for tagged tables: under
//! realistic load factors almost every bucket holds 0 or 1 records, so the
//! chaining indirection is rarely exercised — while on the same workload a
//! tagless table of equal size manufactures false conflicts. Also prints
//! the §5 tag-bit arithmetic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tm_ownership::{
    Access, AcquireOutcome, ConcurrentTaggedTable, ConcurrentTaglessTable, SmallMap, TableConfig,
};
use tm_repro::{f3, pct, Options, Table};
use tm_sim::SimTable;

/// Slots of the records-present histogram; the last one counts every
/// bucket population at or beyond it.
const CHAIN_HIST_SLOTS: usize = 9;

/// A tagged table whose acquires record the bucket population each one
/// finds (the histogram) and the longest bucket any grant leaves behind.
struct ChainProbe {
    table: SimTable<ConcurrentTaggedTable>,
    hist: [u64; CHAIN_HIST_SLOTS],
    max_chain: usize,
}

impl ChainProbe {
    fn new(n: usize) -> Self {
        Self {
            table: SimTable::new(ConcurrentTaggedTable::new(TableConfig::new(n))),
            hist: [0; CHAIN_HIST_SLOTS],
            max_chain: 0,
        }
    }

    fn acquire(&mut self, txn: u32, block: u64, access: Access) -> AcquireOutcome {
        let present = self.table.table().chain_len_of(block);
        self.hist[present.min(CHAIN_HIST_SLOTS - 1)] += 1;
        let outcome = self.table.acquire(txn, block, access);
        if outcome == AcquireOutcome::Granted {
            self.max_chain = self.max_chain.max(self.table.table().chain_len_of(block));
        }
        outcome
    }

    /// Mean records already present per acquire: the expected chain walk.
    fn mean_chain_len(&self) -> f64 {
        let total: u64 = self.hist.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .hist
            .iter()
            .enumerate()
            .map(|(k, &c)| k as u64 * c)
            .sum();
        weighted as f64 / total as f64
    }
}

fn main() {
    let opts = Options::from_args();
    let n = 4096usize;
    let trials = opts.scaled(200, 20);

    // --- Chain-length distribution vs load factor -------------------------
    let mut t = Table::new(
        "Tagged table: chain behaviour vs load factor (N = 4096 entries)",
        &[
            "load",
            "records",
            "mean_chain",
            "max_chain",
            "buckets>1 %",
            "tagless false conflicts",
        ],
    );
    for &load in &[0.05f64, 0.1, 0.25, 0.5, 1.0] {
        let records = (load * n as f64) as usize;
        let mut mean_sum = 0.0;
        let mut max_chain = 0usize;
        let mut crowded = 0u64;
        let mut hist_total = 0u64;
        let mut tagless_conflicts = 0u64;
        for trial in 0..trials {
            let mut rng = StdRng::seed_from_u64(0x7a6 ^ (trial as u64) << 16 ^ records as u64);
            let mut tagged = ChainProbe::new(n);
            let mut tagless = SimTable::new(ConcurrentTaglessTable::new(TableConfig::new(n)));
            // Each transaction's footprint, block -> written: a tagless
            // conflict is false unless the other transaction holds the
            // same block incompatibly.
            let mut footprints = [SmallMap::<u64, bool>::new(), SmallMap::new()];
            // Two transactions insert disjoint random blocks alternately —
            // the Fig. 2 setting at the given aggregate footprint.
            for i in 0..records {
                let txn = i % 2;
                let block: u64 = rng.gen();
                let access = if rng.gen_bool(1.0 / 3.0) {
                    Access::Write
                } else {
                    Access::Read
                };
                assert!(tagged.acquire(txn as u32, block, access).is_ok());
                if tagless.acquire(txn as u32, block, access).is_ok() {
                    let wrote = footprints[txn].get(block).unwrap_or(false);
                    footprints[txn].insert(block, wrote || access.is_write());
                } else {
                    let genuine = footprints[1 - txn]
                        .get(block)
                        .is_some_and(|wrote| wrote || access.is_write());
                    tagless_conflicts += u64::from(!genuine);
                }
            }
            mean_sum += tagged.mean_chain_len();
            max_chain = max_chain.max(tagged.max_chain);
            crowded += tagged.hist[2..].iter().sum::<u64>();
            hist_total += tagged.hist.iter().sum::<u64>();
        }
        t.row(&[
            f3(load),
            records.to_string(),
            f3(mean_sum / trials as f64),
            max_chain.to_string(),
            pct(crowded as f64 / hist_total.max(1) as f64),
            f3(tagless_conflicts as f64 / trials as f64),
        ]);
    }
    t.print();
    t.write_csv(&opts.results_dir, "tagged_chains").unwrap();

    // --- Chain length histogram at the paper-ish operating point ----------
    let mut tagged = ChainProbe::new(n);
    let mut rng = StdRng::seed_from_u64(7);
    // C=4 transactions of ~213-block total footprint each (W=71, alpha=2).
    for i in 0..(4 * 213) {
        let _ = tagged.acquire((i % 4) as u32, rng.gen(), Access::Read);
    }
    let mut t2 = Table::new(
        "Acquire-time records-present histogram (4 transactions x 213 blocks, N = 4096)",
        &["records_present", "observations"],
    );
    for (k, &c) in tagged.hist.iter().enumerate() {
        let label = if k == CHAIN_HIST_SLOTS - 1 {
            format!("{k}+")
        } else {
            k.to_string()
        };
        t2.row(&[label, c.to_string()]);
    }
    t2.print();
    t2.write_csv(&opts.results_dir, "tagged_hist").unwrap();

    // --- §5 tag-bit arithmetic --------------------------------------------
    let mut t3 = Table::new(
        "Tag bits per record (paper §5: address bits - block offset - index)",
        &["address_bits", "block_bytes", "entries", "tag_bits"],
    );
    for &(ab, bb, ne) in &[
        (32u32, 64usize, 4096usize), // the paper's worked example -> 14
        (64, 64, 4096),
        (64, 64, 65_536),
        (48, 32, 16_384),
    ] {
        let cfg = TableConfig::new(ne).with_block_bytes(bb);
        t3.row(&[
            ab.to_string(),
            bb.to_string(),
            ne.to_string(),
            cfg.tag_bits(ab).to_string(),
        ]);
    }
    t3.print();
    t3.write_csv(&opts.results_dir, "tag_bits").unwrap();
    println!(
        "paper check: 32-bit / 64B / 4096 entries -> {} tag bits (paper: 14); a 64-bit entry fits tag+mode+sharers",
        TableConfig::new(4096).with_block_bytes(64).tag_bits(32)
    );
}
