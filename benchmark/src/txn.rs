//! The two engine-only workloads, both running the harness's synthetic
//! transactions: `txn-solo` (one pinned thread, all time in engine and
//! table) and `txn-birthday` (the paper's experiment: two overlapping
//! transactions on disjoint data over a deliberately small table, so every
//! abort is a false conflict).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tm_adaptive::{adaptive_stm, ResizePolicy};
use tm_harness::driver::{mix_seed, run_synthetic_phase, warmup_seed, Phase};
use tm_harness::{BlockSampler, Scenario, SyntheticSpec};
use tm_model::lockstep::conflict_likelihood;
use tm_stm::{ReadOps, StmBuilder, TmEngine, TxnOps};

use crate::procfs::CpuMask;
use crate::spec::{chunk_percentiles_us, percentile_us};
use crate::workload::{ratio, Edge, Meter, Round, RoundArgs, Window, HEAP_BLOCKS, HEAP_WORDS};

/// `txn-solo`'s table: roomy for a 12-block footprint.
const SOLO_TABLE_ENTRIES: usize = 4096;
/// `txn-birthday`'s table: small enough that two 16-block footprints alias.
pub const BIRTHDAY_TABLE_ENTRIES: usize = 1024;
pub const BIRTHDAY_THREADS: u32 = 2;
/// Separately timed slices of a throughput phase, 20 to 30 ms each.
const SLICES: u64 = 24;
/// Timed transactions (or pairs) per chunk of the latency phase; each chunk
/// gives one median and one 99th percentile.
const LATENCY_CHUNK: usize = 20_000;

/// `uniform-mixed` with every second transaction read-only: 12-read
/// `run_read` transactions beside 8-read + 4-RMW update transactions.
pub fn solo_spec() -> SyntheticSpec {
    SyntheticSpec {
        read_fraction: 50,
        ..synthetic(Scenario::uniform_mixed())
    }
}

/// `disjoint`: 8 reads + 8 RMW per transaction, per-thread partitions.
pub fn birthday_spec() -> SyntheticSpec {
    synthetic(Scenario::disjoint())
}

fn synthetic(scenario: Scenario) -> SyntheticSpec {
    scenario
        .synthetic_spec()
        .expect("the harness's address-level scenarios are synthetic")
}

/// Per-transaction latencies of one or more threads, and the increments
/// they applied.
#[derive(Default)]
struct Timed {
    update_ns: Vec<u64>,
    read_ns: Vec<u64>,
    write_ops: u64,
}

impl Timed {
    /// Per chunk of transactions: the update class is the workload's main
    /// operation.
    fn latency_metrics(&mut self) -> Vec<(&'static str, f64)> {
        let mut values = Vec::new();
        for (p50, p99) in chunk_percentiles_us(&mut self.update_ns, LATENCY_CHUNK) {
            values.extend([
                ("p50_us", p50),
                ("p99_us", p99),
                ("latency.write_p50_us", p50),
                ("latency.write_p99_us", p99),
            ]);
        }
        for (p50, p99) in chunk_percentiles_us(&mut self.read_ns, LATENCY_CHUNK) {
            values.extend([("latency.read_p50_us", p50), ("latency.read_p99_us", p99)]);
        }
        values
    }
}

/// One transaction of `spec` over `addrs`: the reads, then the writes.
fn body<T: TxnOps>(
    txn: &mut T,
    spec: &SyntheticSpec,
    addrs: &[u64],
) -> Result<(), tm_stm::Aborted> {
    let (reads, writes) = addrs.split_at(spec.reads_per_txn as usize);
    for &addr in reads {
        txn.read(addr)?;
    }
    for &addr in writes {
        txn.update_add(addr, 1)?;
    }
    Ok(())
}

/// `txns` of the harness's synthetic transaction on thread `id`, each with
/// a clock around it. Same draws and bodies as `run_synthetic_phase`, for
/// the axes the two workloads use.
fn timed_txns<E: TmEngine>(
    engine: &E,
    spec: &SyntheticSpec,
    (id, threads): (u32, u32),
    txns: u64,
    seed: u64,
) -> Timed {
    assert!(
        spec.forced_abort_pct == 0 && spec.cross_shard_pct == 0 && !spec.yield_per_op,
        "axes the benchmark's workloads do not use"
    );
    let sampler = BlockSampler::new(spec, HEAP_BLOCKS, id, threads);
    let mut rng = StdRng::seed_from_u64(mix_seed(seed, id));
    let footprint = (spec.reads_per_txn + spec.writes_per_txn) as usize;
    let mut addrs: Vec<u64> = Vec::with_capacity(footprint);
    // Sized up front: a growing vector would copy itself inside the timed
    // loop and make the peak memory depend on where the doubling stopped.
    let mut out = Timed {
        update_ns: Vec::with_capacity(txns as usize),
        read_ns: Vec::with_capacity(if spec.read_fraction > 0 {
            txns as usize
        } else {
            0
        }),
        write_ops: 0,
    };
    for _ in 0..txns {
        let read_only = spec.read_fraction > 0 && rng.gen_range(0..100) < spec.read_fraction;
        addrs.clear();
        addrs.extend((0..footprint).map(|_| sampler.sample(&mut rng) * 64));
        let t0 = Instant::now();
        if read_only {
            engine.run_read(id, |txn| {
                for &addr in &addrs {
                    txn.read(addr)?;
                }
                Ok(())
            });
            out.read_ns.push(t0.elapsed().as_nanos() as u64);
        } else {
            engine.run(id, |txn| body(txn, spec, &addrs));
            out.update_ns.push(t0.elapsed().as_nanos() as u64);
            out.write_ops += spec.writes_per_txn as u64;
        }
    }
    out
}

pub fn solo_round(args: RoundArgs) -> Round {
    let RoundArgs { seed, scale, .. } = args;
    let spec = solo_spec();
    let mut write_ops = 0u64;
    let mut attempted = 0u64;

    let t_setup = Instant::now();
    let engine = StmBuilder::new()
        .heap_words(HEAP_WORDS)
        .table_entries(SOLO_TABLE_ENTRIES)
        .build_tagless();
    let mut phase = |txns: u64, seed: u64| {
        let result = run_synthetic_phase(&engine, &spec, HEAP_WORDS, 1, Phase::Txns(txns), seed);
        write_ops += result.tallies[0].committed_write_ops;
        attempted += result.tallies[0].committed_txns;
        result.tallies[0].committed_txns
    };
    phase(scale.ops(20_000, 1), warmup_seed(seed));
    let setup_s = t_setup.elapsed().as_secs_f64();

    // Throughput phase, in slices. The harness's worker thread has exited
    // by the time a slice returns; the CPU time read is the process total,
    // which still counts it.
    let slice = scale.ops(1_200_000 / SLICES, 1);
    let open = Edge::open(&engine);
    let mut meter = Meter::start();
    let mut committed = 0;
    for i in 0..SLICES {
        let txns = phase(slice, mix_seed(seed, i as u32));
        meter.lap(txns);
        committed += txns;
    }
    let close = Edge::close(&engine);
    let mut values = Window::between(&open, &close, committed).common_metrics();
    values.extend(meter.values);
    values.push(("setup_s", setup_s));

    // Latency phase: the same transactions, one clock pair each.
    let txns = scale.ops(300_000, 1);
    let mut timed = timed_txns(&engine, &spec, (0, 1), txns, seed ^ 0x4c41_5445);
    values.extend(timed.latency_metrics());

    // Writes are increments: the heap must sum to the committed write ops.
    let expected = write_ops + timed.write_ops + u64::from(args.corrupt);
    Round {
        values,
        attempted: attempted + txns + 1,
        failed: u64::from(engine.heap_sum(HEAP_WORDS) != expected),
    }
}

/// The paper's two overlapping transactions, played by one thread so that
/// no scheduler decides how they overlap: transaction A takes its whole
/// footprint, transaction B then runs start to finish inside A's body, and
/// A commits. B aborts exactly when one of its blocks aliases an entry A
/// holds incompatibly, which is Eq. 8's event at C = 2. An aborted B runs
/// again once A has committed, so every transaction commits and the heap
/// check covers all of them. The two take turns being A.
struct Lockstep<'e, E: TmEngine> {
    engine: &'e E,
    spec: SyntheticSpec,
    samplers: Vec<BlockSampler>,
    rngs: Vec<StdRng>,
    addrs: Vec<Vec<u64>>,
    pairs: u64,
}

impl<'e, E: TmEngine> Lockstep<'e, E> {
    fn new(engine: &'e E, seed: u64) -> Self {
        let spec = birthday_spec();
        Self {
            engine,
            spec,
            samplers: (0..BIRTHDAY_THREADS)
                .map(|t| BlockSampler::new(&spec, HEAP_BLOCKS, t, BIRTHDAY_THREADS))
                .collect(),
            rngs: (0..BIRTHDAY_THREADS)
                .map(|t| StdRng::seed_from_u64(mix_seed(seed, t)))
                .collect(),
            addrs: vec![Vec::new(); BIRTHDAY_THREADS as usize],
            pairs: 0,
        }
    }

    /// Run one pair of transactions to commit.
    fn pair(&mut self) {
        let footprint = self.spec.reads_per_txn + self.spec.writes_per_txn;
        for ((addrs, sampler), rng) in self
            .addrs
            .iter_mut()
            .zip(&self.samplers)
            .zip(&mut self.rngs)
        {
            addrs.clear();
            addrs.extend((0..footprint).map(|_| sampler.sample(rng) * 64));
        }
        let outer = (self.pairs % 2) as usize;
        let inner = 1 - outer;
        self.pairs += 1;
        let (engine, spec, addrs) = (self.engine, &self.spec, &self.addrs);
        let mut inner_committed = false;
        engine.run(outer as u32, |a| {
            body(a, spec, &addrs[outer])?;
            inner_committed = engine
                .try_run(inner as u32, 1, |b| body(b, spec, &addrs[inner]))
                .is_ok();
            Ok(())
        });
        if !inner_committed {
            engine.run(inner as u32, |b| body(b, spec, &addrs[inner]));
        }
    }

    /// Increments applied so far: every transaction of every pair commits.
    fn write_ops(&self) -> u64 {
        self.pairs * 2 * self.spec.writes_per_txn as u64
    }
}

pub fn birthday_round(args: RoundArgs) -> Round {
    let RoundArgs { seed, scale, .. } = args;
    let t_setup = Instant::now();
    let engine = StmBuilder::new()
        .heap_words(HEAP_WORDS)
        .table_entries(BIRTHDAY_TABLE_ENTRIES)
        .build_tagless();
    let mut lockstep = Lockstep::new(&engine, seed);
    for _ in 0..scale.ops(20_000, 1) {
        lockstep.pair();
    }
    let setup_s = t_setup.elapsed().as_secs_f64();

    // Throughput phase, in slices. An operation is a committed transaction:
    // two a pair.
    let slice = scale.ops(300_000 / SLICES, 1);
    let pairs = SLICES * slice;
    let open = Edge::open(&engine);
    let mut meter = Meter::start();
    for _ in 0..SLICES {
        for _ in 0..slice {
            lockstep.pair();
        }
        meter.lap(2 * slice);
    }
    let close = Edge::close(&engine);
    let w = Window::between(&open, &close, 2 * pairs);
    let mut values = w.common_metrics();
    values.extend(meter.values);
    values.push(("setup_s", setup_s));

    // Every abort is a false conflict (the data is disjoint), and a pair
    // has one exactly when Eq. 8's event happens at (C, W, alpha, N).
    let spec = birthday_spec();
    let predicted = conflict_likelihood(
        BIRTHDAY_THREADS,
        spec.writes_per_txn,
        spec.reads_per_txn as f64 / spec.writes_per_txn as f64,
        BIRTHDAY_TABLE_ENTRIES as u64,
    );
    values.push((
        "model.eq8_ratio",
        w.engine.aborts as f64 / pairs as f64 / predicted,
    ));

    // Latency phase: a clock around each pair.
    let timed_pairs = scale.ops(100_000, 1);
    let mut pair_ns = Vec::with_capacity(timed_pairs as usize);
    for _ in 0..timed_pairs {
        let t0 = Instant::now();
        lockstep.pair();
        pair_ns.push(t0.elapsed().as_nanos() as u64);
    }
    for (p50, p99) in chunk_percentiles_us(&mut pair_ns, LATENCY_CHUNK) {
        values.extend([
            ("p50_us", p50),
            ("p99_us", p99),
            ("latency.write_p50_us", p50),
            ("latency.write_p99_us", p99),
        ]);
    }
    values.extend([("latency.read_p50_us", 0.0), ("latency.read_p99_us", 0.0)]);

    let expected = lockstep.write_ops() + u64::from(args.corrupt);
    Round {
        values,
        attempted: 2 * lockstep.pairs + 1,
        failed: u64::from(engine.heap_sum(HEAP_WORDS) != expected),
    }
}

/// `txns` timed transactions on each of [`BIRTHDAY_THREADS`] threads, each
/// thread pinned to a CPU of its own and all released together. Left to the
/// scheduler the two sometimes share a CPU, and then run several times
/// *faster* per transaction (no cache line crosses CPUs) with hardly an
/// abort: a different experiment. With one CPU they share it anyway.
fn pinned_pair<E: TmEngine>(engine: &E, spec: &SyntheticSpec, txns: u64, seed: u64) -> Timed {
    let cpus = CpuMask::current().map_or_else(Vec::new, |m| m.cpus());
    let start = Barrier::new(BIRTHDAY_THREADS as usize);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..BIRTHDAY_THREADS)
            .map(|id| {
                let (cpus, start) = (&cpus, &start);
                s.spawn(move || {
                    if !cpus.is_empty() {
                        CpuMask::single(cpus[id as usize % cpus.len()]).apply();
                    }
                    start.wait();
                    timed_txns(engine, spec, (id, BIRTHDAY_THREADS), txns, seed)
                })
            })
            .collect();
        let mut timed = Timed::default();
        for handle in handles {
            let t = handle.join().expect("transaction thread panicked");
            timed.update_ns.extend(t.update_ns);
            timed.write_ops += t.write_ops;
        }
        timed
    })
}

/// `txn-birthday` on two real threads: the same transactions, on the
/// plain engine and on the adaptive engine started at the same small table
/// with a live controller (the sizing rule acting on the workload). Two
/// threads on this shared two-CPU box repeat within 20 %, not 10 %, so
/// these are reported by the traced pass and never gated. Call unpinned.
pub fn two_thread_pass(args: RoundArgs) -> Round {
    let spec = birthday_spec();
    let txns = args.scale.ops(100_000, 1);
    let mut failed = 0u64;

    let plain = StmBuilder::new()
        .heap_words(HEAP_WORDS)
        .table_entries(BIRTHDAY_TABLE_ENTRIES)
        .build_tagless();
    let mut timed = pinned_pair(&plain, &spec, txns, args.seed);
    failed += u64::from(plain.heap_sum(HEAP_WORDS) != timed.write_ops);
    let plain_stats = plain.engine_stats();

    let (adaptive, mut controller) = adaptive_stm(
        HEAP_WORDS,
        BIRTHDAY_TABLE_ENTRIES,
        ResizePolicy::default(),
        BIRTHDAY_THREADS,
    );
    let stop = AtomicBool::new(false);
    let adaptive_write_ops = std::thread::scope(|s| {
        let ticker = s.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                let _ = controller.tick(&adaptive);
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let timed = pinned_pair(&adaptive, &spec, txns, args.seed);
        stop.store(true, Ordering::Release);
        ticker.join().expect("controller thread panicked");
        timed.write_ops
    });
    failed += u64::from(adaptive.heap_sum(HEAP_WORDS) != adaptive_write_ops);
    let adaptive_stats = adaptive.engine_stats();

    Round {
        values: vec![
            (
                "stm.threads2_aborts_per_commit",
                ratio(plain_stats.aborts as f64, plain_stats.commits as f64),
            ),
            (
                "stm.threads2_txn_p50_us",
                percentile_us(&mut timed.update_ns, 0.50),
            ),
            (
                "adaptive.birthday_aborts_per_commit",
                ratio(adaptive_stats.aborts as f64, adaptive_stats.commits as f64),
            ),
            (
                "adaptive.final_table_entries",
                adaptive.table().live_entries() as f64,
            ),
        ],
        attempted: 2 * (txns * BIRTHDAY_THREADS as u64 + 1),
        failed,
    }
}
