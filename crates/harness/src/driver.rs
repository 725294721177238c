//! The multi-threaded phase driver.
//!
//! A run is a **warmup** phase followed by a **measure** phase, each
//! executed by `threads` real OS threads over one shared engine. A phase is
//! either a fixed per-thread transaction budget ([`Phase::Txns`] — fully
//! deterministic at one thread, used by tests and deterministic replays) or
//! a fixed wall-clock duration ([`Phase::DurationMs`] — the throughput
//! measurement mode; threads poll a stop flag between transactions).
//!
//! Counters are read from the engine before and after the phase, so the
//! reported window is exactly the phase's activity. Per-thread tallies
//! (committed transactions, committed write ops, workload-specific sums)
//! come back from the worker closures for invariant checking.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tm_traces::filter::BlockAccess;

use crate::engine::{EngineStats, ReadOps, TmEngine, TxnOps};
use crate::scenario::{BlockSampler, ReplaySpec, SyntheticSpec};

/// How long one phase runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Each thread runs exactly this many transactions (deterministic).
    Txns(u64),
    /// All threads run until this much wall-clock time has elapsed.
    DurationMs(u64),
}

impl Phase {
    /// Human-readable phase description for reports.
    pub fn describe(&self) -> String {
        match self {
            Phase::Txns(n) => format!("{n} txns/thread"),
            Phase::DurationMs(ms) => format!("{ms} ms"),
        }
    }
}

/// What one worker thread observed during a phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadTally {
    /// Transactions this thread committed.
    pub committed_txns: u64,
    /// Write (RMW-increment) operations inside committed transactions —
    /// the heap-checksum invariant's expected delta.
    pub committed_write_ops: u64,
}

/// Aggregate outcome of one phase.
#[derive(Clone, Debug)]
pub struct PhaseResult<R> {
    /// Wall-clock time from first spawn to last join.
    pub elapsed: Duration,
    /// Engine-counter window covering exactly this phase.
    pub counters: EngineStats,
    /// Per-thread worker results, in thread order.
    pub tallies: Vec<R>,
}

/// Spawn `threads` workers over `engine`, run `phase`, and collect tallies.
///
/// `work` receives `(thread_id, stop_flag, per_thread_budget)` and must loop
/// via [`phase_loop`] (or equivalent) honouring both.
pub fn run_phase_threads<E, R, F>(engine: &E, threads: u32, phase: Phase, work: F) -> PhaseResult<R>
where
    E: TmEngine,
    R: Send,
    F: Fn(u32, &AtomicBool, Option<u64>) -> R + Sync,
{
    assert!(threads >= 1, "need at least one worker thread");
    let stop = AtomicBool::new(false);
    let budget = match phase {
        Phase::Txns(n) => Some(n),
        Phase::DurationMs(_) => None,
    };
    let before = engine.engine_stats();
    let t0 = Instant::now();
    let mut tallies: Vec<R> = Vec::with_capacity(threads as usize);
    crossbeam::scope(|s| {
        let stop = &stop;
        let work = &work;
        let handles: Vec<_> = (0..threads)
            .map(|id| s.spawn(move |_| work(id, stop, budget)))
            .collect();
        if let Phase::DurationMs(ms) = phase {
            std::thread::sleep(Duration::from_millis(ms));
            stop.store(true, Ordering::Release);
        }
        for h in handles {
            tallies.push(h.join().expect("worker thread panicked"));
        }
    })
    .expect("phase scope");
    let elapsed = t0.elapsed();
    let counters = engine.engine_stats().since(&before);
    PhaseResult {
        elapsed,
        counters,
        tallies,
    }
}

/// The standard worker loop: run `body(iteration)` until the budget is
/// exhausted or the stop flag is raised.
pub fn phase_loop(stop: &AtomicBool, budget: Option<u64>, mut body: impl FnMut(u64)) -> u64 {
    let mut i = 0u64;
    loop {
        if let Some(b) = budget {
            if i >= b {
                break;
            }
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
        body(i);
        i += 1;
    }
    i
}

/// Run one phase of a synthetic address-level scenario on any engine.
///
/// Each transaction performs `reads_per_txn` plain reads and
/// `writes_per_txn` RMW increments at sampled block addresses. Because
/// writes are increments, `Σ heap == Σ committed_write_ops` is a whole-run
/// isolation invariant the caller can verify.
///
/// When `spec.read_fraction > 0`, that percentage of transactions (chosen
/// per-transaction from the thread's deterministic RNG stream) run as
/// **read-only** transactions on the engine's wait-free read path
/// ([`TmEngine::run_read`]) instead: same footprint size, all plain reads,
/// no ownership acquired, counted in `EngineStats::read_only_commits`
/// rather than `commits`.
pub fn run_synthetic_phase<E: TmEngine>(
    engine: &E,
    spec: &SyntheticSpec,
    heap_words: usize,
    threads: u32,
    phase: Phase,
    seed: u64,
) -> PhaseResult<ThreadTally> {
    let universe = (heap_words as u64 * 8) / 64; // cache blocks in the heap
    let spec = *spec;
    run_phase_threads(engine, threads, phase, move |id, stop, budget| {
        let sampler = BlockSampler::new(&spec, universe, id, threads);
        let mut rng = StdRng::seed_from_u64(mix_seed(seed, id));
        let mut tally = ThreadTally::default();
        // Footprint buffers live outside the hot loop: this is the gated
        // metric's inner loop, and per-txn allocations would add allocator
        // traffic (and its noise) to every measured number.
        let mut reads: Vec<u64> = Vec::with_capacity(spec.reads_per_txn as usize);
        let mut writes: Vec<u64> = Vec::with_capacity(spec.writes_per_txn as usize);
        phase_loop(stop, budget, |_| {
            // Read-only draw first, so a `read_fraction: 0` spec consumes
            // the RNG stream exactly as it did before the axis existed.
            if spec.read_fraction > 0 && rng.gen_range(0..100) < spec.read_fraction {
                // Same footprint size as the update mix, all plain reads,
                // on the wait-free path: no ownership, no write-side
                // counters, no contribution to the heap checksum.
                reads.clear();
                reads.extend(
                    (0..spec.reads_per_txn + spec.writes_per_txn)
                        .map(|_| sampler.sample(&mut rng) * 64),
                );
                engine.run_read(id, |txn| {
                    for &addr in &reads {
                        txn.read(addr)?;
                    }
                    Ok(())
                });
                tally.committed_txns += 1;
                return;
            }
            // Transfer draw next (same stream-preservation rule): a
            // transfer is two RMW increments, one in each half of the heap
            // — on a sharded engine the halves land in disjoint shard sets
            // (even shard counts), driving the ordered cross-shard commit.
            if spec.cross_shard_pct > 0
                && universe >= 2
                && rng.gen_range(0..100) < spec.cross_shard_pct
            {
                let half = universe / 2;
                let debit = rng.gen_range(0..half) * 64;
                let credit = rng.gen_range(half..universe) * 64;
                reads.clear();
                reads.extend((0..spec.reads_per_txn).map(|_| sampler.sample(&mut rng) * 64));
                engine.run(id, |txn| {
                    for &addr in &reads {
                        txn.read(addr)?;
                    }
                    txn.update_add(debit, 1)?;
                    txn.update_add(credit, 1)?;
                    Ok(())
                });
                tally.committed_txns += 1;
                tally.committed_write_ops += 2;
                return;
            }
            // Sample the footprint outside the transaction so retries replay
            // the identical access set (as a real program would).
            reads.clear();
            reads.extend((0..spec.reads_per_txn).map(|_| sampler.sample(&mut rng) * 64));
            writes.clear();
            writes.extend((0..spec.writes_per_txn).map(|_| sampler.sample(&mut rng) * 64));
            engine.run(id, |txn| {
                // Abort-storm coin, tossed per *attempt* (a forced retry
                // redraws it, so the storm ends for every transaction
                // eventually). Behind the `> 0` gate so storm-free specs
                // consume the RNG stream exactly as they always did.
                if spec.forced_abort_pct > 0 && rng.gen_range(0..100) < spec.forced_abort_pct {
                    return txn.retry();
                }
                for &addr in &reads {
                    txn.read(addr)?;
                    if spec.yield_per_op {
                        std::thread::yield_now();
                    }
                }
                for &addr in &writes {
                    txn.update_add(addr, 1)?;
                    if spec.yield_per_op {
                        std::thread::yield_now();
                    }
                }
                Ok(())
            });
            tally.committed_txns += 1;
            tally.committed_write_ops += spec.writes_per_txn as u64;
        });
        tally
    })
}

/// Build the replay block streams for a replay scenario (deterministic per
/// `seed`), sized so they fit the harness heap.
pub fn build_replay_streams(
    spec: &ReplaySpec,
    seed: u64,
    heap_words: usize,
) -> Vec<Vec<BlockAccess>> {
    use tm_traces::filter::{remove_true_conflicts, to_block_stream};
    use tm_traces::jbb::{generate, JbbParams};

    let params = JbbParams {
        accesses_per_thread: spec.accesses_per_thread,
        seed,
        ..Default::default()
    };
    let traces = generate(&params);
    let raw: Vec<_> = traces.iter().map(|t| to_block_stream(t, 6)).collect();
    let mut streams = remove_true_conflicts(&raw);
    // Trace addresses span the generator's own virtual layout; fold them
    // into the harness heap. Blocks are remapped with a multiplicative mix
    // so the folded streams keep their popularity structure without every
    // stream colliding at low addresses; disjointness across streams is
    // re-established afterwards (folding can alias blocks of different
    // streams onto one heap block).
    let universe = ((heap_words as u64 * 8) / 64).max(1);
    for stream in &mut streams {
        for access in stream.iter_mut() {
            access.block = access.block.wrapping_mul(0x9E37_79B9_7F4A_7C15) % universe;
        }
    }
    remove_true_conflicts(&streams)
}

/// Run one phase of a trace-replay scenario: each worker replays its stream
/// in transactions of `blocks_per_txn` block accesses, looping the stream
/// as needed. Writes are RMW increments so the heap-checksum invariant
/// applies here too.
pub fn run_replay_phase<E: TmEngine>(
    engine: &E,
    streams: &[Vec<BlockAccess>],
    blocks_per_txn: usize,
    threads: u32,
    phase: Phase,
) -> PhaseResult<ThreadTally> {
    assert!(!streams.is_empty(), "need at least one replay stream");
    assert!(blocks_per_txn >= 1, "need a positive transaction footprint");
    run_phase_threads(engine, threads, phase, move |id, stop, budget| {
        // Threads beyond the stream count share streams; sharing keeps
        // correctness (they replay identical disjoint data) though aborts
        // between co-replayers are then true conflicts — the harness only
        // uses thread counts ≤ stream count for false-conflict attribution.
        let stream = &streams[id as usize % streams.len()];
        let txns_in_stream = stream.len() / blocks_per_txn;
        let mut tally = ThreadTally::default();
        phase_loop(stop, budget, |i| {
            if txns_in_stream == 0 {
                return;
            }
            let t = (i % txns_in_stream as u64) as usize;
            let chunk = &stream[t * blocks_per_txn..(t + 1) * blocks_per_txn];
            let mut writes = 0u64;
            engine.run(id, |txn| {
                let mut w = 0u64;
                for access in chunk {
                    let addr = access.block * 64;
                    if access.is_write {
                        txn.update_add(addr, 1)?;
                        w += 1;
                    } else {
                        txn.read(addr)?;
                    }
                }
                writes = w;
                Ok(())
            });
            tally.committed_txns += 1;
            tally.committed_write_ops += writes;
        });
        tally
    })
}

/// The seed a run's warmup phase derives from its measure-phase seed, so
/// the two phases sample different footprints deterministically. Shared by
/// every scenario family.
pub fn warmup_seed(seed: u64) -> u64 {
    seed ^ 0x5741_524D // "WARM"
}

/// Derive a per-thread RNG seed from the run seed (SplitMix64 step so
/// thread streams are decorrelated even for adjacent run seeds).
pub fn mix_seed(seed: u64, thread: u32) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((thread as u64) << 32);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::AccessPattern;

    fn spec() -> SyntheticSpec {
        SyntheticSpec {
            writes_per_txn: 3,
            reads_per_txn: 2,
            pattern: AccessPattern::Uniform,
            disjoint: false,
            yield_per_op: false,
            read_fraction: 0,
            forced_abort_pct: 0,
            cross_shard_pct: 0,
        }
    }

    #[test]
    fn cross_shard_transfers_checksum_and_commit() {
        use tm_shard::ShardedStmBuilder;
        let stm = tm_stm::StmBuilder::new()
            .heap_words(1 << 12)
            .table_entries(1024)
            .shards(4)
            .build_sharded_tagless();
        let mut s = spec();
        s.cross_shard_pct = 100;
        let r = run_synthetic_phase(&stm, &s, 1 << 12, 2, Phase::Txns(50), 7);
        // Every transaction is a transfer: two RMW increments each.
        assert_eq!(r.counters.commits, 100);
        let expected: u64 = r.tallies.iter().map(|t| t.committed_write_ops).sum();
        assert_eq!(expected, 200);
        assert_eq!(crate::engine::TmEngine::heap_sum(&stm, 1 << 12), expected);
        // Heap halves map to disjoint shard sets at 4 shards: every
        // transfer takes the ordered cross-shard commit.
        assert_eq!(stm.cross_shard_commits(), 100);
    }

    #[test]
    fn fixed_budget_phase_runs_exact_txn_count() {
        let stm = tm_stm::StmBuilder::new()
            .heap_words(1 << 12)
            .table_entries(1024)
            .build_tagged();
        let r = run_synthetic_phase(&stm, &spec(), 1 << 12, 2, Phase::Txns(50), 7);
        assert_eq!(r.counters.commits, 100);
        assert_eq!(r.tallies.iter().map(|t| t.committed_txns).sum::<u64>(), 100);
    }

    #[test]
    fn heap_checksum_matches_committed_writes() {
        let stm = tm_stm::StmBuilder::new()
            .heap_words(1 << 12)
            .table_entries(4096)
            .build_tagless();
        let r = run_synthetic_phase(&stm, &spec(), 1 << 12, 4, Phase::Txns(25), 11);
        let expected: u64 = r.tallies.iter().map(|t| t.committed_write_ops).sum();
        assert_eq!(crate::engine::TmEngine::heap_sum(&stm, 1 << 12), expected);
        assert_eq!(expected, 100 * 3);
    }

    #[test]
    fn duration_phase_terminates_and_commits() {
        let stm = tm_stm::StmBuilder::new()
            .heap_words(1 << 12)
            .table_entries(1024)
            .build_tagged();
        let r = run_synthetic_phase(&stm, &spec(), 1 << 12, 2, Phase::DurationMs(30), 3);
        assert!(r.counters.commits > 0);
        assert!(r.elapsed >= Duration::from_millis(30));
    }

    #[test]
    fn read_fraction_splits_commit_counters() {
        let stm = tm_stm::StmBuilder::new()
            .heap_words(1 << 12)
            .table_entries(1024)
            .build_tagged();
        let mut s = spec();
        s.read_fraction = 100;
        let r = run_synthetic_phase(&stm, &s, 1 << 12, 2, Phase::Txns(50), 7);
        // All transactions took the read path: the write-side counters and
        // the heap stay untouched.
        assert_eq!(r.counters.commits, 0);
        assert_eq!(r.counters.read_only_commits, 100);
        assert_eq!(r.counters.aborts, 0);
        assert_eq!(crate::engine::TmEngine::heap_sum(&stm, 1 << 12), 0);
        assert_eq!(r.tallies.iter().map(|t| t.committed_txns).sum::<u64>(), 100);
        assert_eq!(
            r.tallies.iter().map(|t| t.committed_write_ops).sum::<u64>(),
            0
        );
    }

    #[test]
    fn forced_abort_storm_reaches_ratio_and_conserves() {
        let stm = tm_stm::StmBuilder::new()
            .heap_words(1 << 12)
            .table_entries(4096)
            .build_tagged();
        let spec = crate::scenario::Scenario::abort_storm()
            .synthetic_spec()
            .expect("abort-storm is synthetic");
        let r = run_synthetic_phase(&stm, &spec, 1 << 12, 2, Phase::Txns(200), 17);
        // Every transaction still commits (forced aborts retry), and the
        // heap checksum balances — a forced abort rolls back completely.
        assert_eq!(r.counters.commits, 400);
        let expected: u64 = r.tallies.iter().map(|t| t.committed_write_ops).sum();
        assert_eq!(crate::engine::TmEngine::heap_sum(&stm, 1 << 12), expected);
        // At a 60% per-attempt coin the expected abort ratio is 0.6; with
        // 400 commits the ≥0.5 floor has wide margin, and genuine
        // conflicts only push it higher.
        let ratio = r.counters.aborts as f64 / (r.counters.commits + r.counters.aborts) as f64;
        assert!(ratio >= 0.5, "forced abort ratio {ratio:.3} below 0.5");
    }

    #[test]
    fn readers_never_abort_disjoint_writers() {
        // Tagged table (no false conflicts) + disjoint per-thread
        // partitions: writers can only abort on genuine conflicts, of which
        // there are none — and readers acquire no ownership, so mixing half
        // the transactions onto the read path must leave writer aborts at
        // exactly zero.
        let stm = tm_stm::StmBuilder::new()
            .heap_words(1 << 14)
            .table_entries(4096)
            .build_tagged();
        let s = SyntheticSpec {
            writes_per_txn: 4,
            reads_per_txn: 4,
            pattern: AccessPattern::Uniform,
            disjoint: true,
            yield_per_op: false,
            read_fraction: 50,
            forced_abort_pct: 0,
            cross_shard_pct: 0,
        };
        let r = run_synthetic_phase(&stm, &s, 1 << 14, 4, Phase::Txns(200), 13);
        assert_eq!(r.counters.aborts, 0, "readers must not abort writers");
        assert!(r.counters.read_only_commits > 0);
        assert_eq!(r.counters.commits + r.counters.read_only_commits, 800);
        let expected: u64 = r.tallies.iter().map(|t| t.committed_write_ops).sum();
        assert_eq!(crate::engine::TmEngine::heap_sum(&stm, 1 << 14), expected);
    }

    #[test]
    fn readers_never_abort_writers_on_overlapping_data() {
        // Stronger than the disjoint case: readers deliberately hammer the
        // very words the writers are incrementing. The read path never
        // stalls a writer and never takes a grant, so writer aborts stay
        // zero on the tagged table even under full overlap.
        let stm = tm_stm::StmBuilder::new()
            .heap_words(1 << 12)
            .table_entries(2048)
            .build_tagged();
        let stop = AtomicBool::new(false);
        crossbeam::scope(|s| {
            let (stm, stop) = (&stm, &stop);
            // Writers own disjoint 64-block lanes (no writer/writer
            // conflicts); readers span both lanes (full reader/writer
            // overlap).
            for w in 0..2u32 {
                s.spawn(move |_| {
                    for i in 0..500u64 {
                        let block = w as u64 * 64 + i % 64;
                        stm.run(w, |txn| txn.update_add(block * 64, 1).map(|_| ()));
                    }
                    stop.store(true, Ordering::Release);
                });
            }
            for rt in 2..4u32 {
                s.spawn(move |_| {
                    // Check-then-read (not read-then-check): every reader
                    // performs at least one scan even if the writers finish
                    // before this thread is scheduled.
                    let mut done = false;
                    while !done {
                        done = stop.load(Ordering::Acquire);
                        stm.run_read(rt, |txn| {
                            let mut sum = 0u64;
                            for b in 0..128u64 {
                                sum = sum.wrapping_add(txn.read(b * 64)?);
                            }
                            Ok(sum)
                        });
                    }
                });
            }
        })
        .expect("overlap scope");
        let stats = stm.engine_stats();
        assert_eq!(stats.commits, 1000);
        assert_eq!(stats.aborts, 0, "readers aborted a writer");
        assert!(stats.read_only_commits > 0);
    }

    #[test]
    fn replay_streams_are_disjoint_and_fit_heap() {
        let spec = ReplaySpec {
            accesses_per_thread: 5_000,
            blocks_per_txn: 8,
        };
        let heap_words = 1 << 14;
        let streams = build_replay_streams(&spec, 42, heap_words);
        assert_eq!(streams.len(), 4);
        let universe = (heap_words as u64 * 8) / 64;
        let mut owner = std::collections::HashMap::new();
        for (i, stream) in streams.iter().enumerate() {
            assert!(!stream.is_empty());
            for a in stream {
                assert!(a.block < universe);
                assert_eq!(*owner.entry(a.block).or_insert(i), i, "block {}", a.block);
            }
        }
    }

    #[test]
    fn replay_phase_commits_and_checksums() {
        let spec = ReplaySpec {
            accesses_per_thread: 5_000,
            blocks_per_txn: 8,
        };
        let heap_words = 1 << 14;
        let streams = build_replay_streams(&spec, 9, heap_words);
        let stm = tm_stm::StmBuilder::new()
            .heap_words(heap_words)
            .table_entries(4096)
            .build_tagged();
        let r = run_replay_phase(&stm, &streams, 8, 4, Phase::Txns(40));
        assert_eq!(r.counters.commits, 160);
        let expected: u64 = r.tallies.iter().map(|t| t.committed_write_ops).sum();
        assert_eq!(
            crate::engine::TmEngine::heap_sum(&stm, heap_words),
            expected
        );
    }

    #[test]
    fn mix_seed_separates_threads() {
        assert_ne!(mix_seed(1, 0), mix_seed(1, 1));
        assert_ne!(mix_seed(1, 0), mix_seed(2, 0));
        assert_eq!(mix_seed(5, 3), mix_seed(5, 3));
    }
}
