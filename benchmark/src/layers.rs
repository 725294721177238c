//! Per-layer microbenchmarks: one number per layer entry point, single
//! thread, fixed iteration counts, timed from here around calls into each
//! layer's public functions. They do not depend on the workload, so every
//! traced run reports the same set.

use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tm_adaptive::{adaptive_stm, resizable_tagless, ResizePolicy};
use tm_harness::driver::mix_seed;
use tm_harness::BlockSampler;
use tm_ownership::concurrent::{ConcurrentTable, GrantKey, Held};
use tm_ownership::{
    Access, AcquireOutcome, ConcurrentTaggedTable, ConcurrentTaglessTable, TableConfig,
};
use tm_server::protocol::{FrameBuf, Request, RequestFrame, Response, ResponseFrame};
use tm_server::{Admission, AdmissionPolicy, BatchPolicy, Batcher, PendingWrite, WriteOp};
use tm_shard::ShardedStmBuilder;
use tm_stm::{ReadOps, Recorder, Region, StmBuilder, TmEngine, TxnOps, WORD_BYTES};
use tm_structs::{TList, TMap};
use tm_telemetry::Histogram;

use crate::spec::median;
use crate::svc::{plan, Stream};
use crate::txn::{birthday_spec, BIRTHDAY_TABLE_ENTRIES, BIRTHDAY_THREADS};
use crate::workload::{Scale, Workload, HEAP_BLOCKS, HEAP_WORDS};
use crate::ALLOC_EVENTS;

/// Table size of the bare-table and engine microbenchmarks.
const TABLE_ENTRIES: usize = 1 << 14;
/// `txn-solo`'s transaction: 8 reads, then 4 read-modify-writes.
const READS: usize = 8;
const FOOTPRINT: usize = 12;
/// Pre-sampled footprints an engine microbenchmark cycles through.
const FOOTPRINTS: usize = 4096;

/// Nanoseconds per call of `body`: a tenth of `iters` to warm up, then the
/// median of three timed repetitions of `iters` calls.
fn time_ns(iters: u64, mut body: impl FnMut(u64)) -> f64 {
    for i in 0..iters / 10 {
        body(i);
    }
    let reps: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..iters {
                body(black_box(i));
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&reps)
}

fn allocs() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

/// Where a footprint's blocks are drawn from.
#[derive(Clone, Copy)]
enum Spread {
    /// Anywhere in the heap.
    Uniform,
    /// The first quarter of the heap: one table of a 4-table engine.
    OneQuarter,
    /// Reads anywhere; the four writes one per quarter, so a 4-table
    /// engine commits across all of its tables.
    WritesAcrossQuarters,
}

fn footprints(seed: u64, spread: Spread) -> Vec<[u64; FOOTPRINT]> {
    let mut rng = StdRng::seed_from_u64(seed);
    let quarter = HEAP_BLOCKS / 4;
    (0..FOOTPRINTS)
        .map(|_| {
            let mut fp = [0u64; FOOTPRINT];
            for (k, addr) in fp.iter_mut().enumerate() {
                let block = match spread {
                    Spread::OneQuarter => rng.gen_range(0..quarter),
                    Spread::WritesAcrossQuarters if k >= READS => {
                        (k - READS) as u64 * quarter + rng.gen_range(0..quarter)
                    }
                    _ => rng.gen_range(0..HEAP_BLOCKS),
                };
                *addr = block * 64;
            }
            fp
        })
        .collect()
}

fn update_txn<E: TmEngine>(engine: &E, fp: &[u64; FOOTPRINT]) {
    engine.run(0, |txn| {
        for &addr in &fp[..READS] {
            txn.read(addr)?;
        }
        for &addr in &fp[READS..] {
            txn.update_add(addr, 1)?;
        }
        Ok(())
    });
}

fn read_txn<E: TmEngine>(engine: &E, fp: &[u64; FOOTPRINT]) {
    engine.run_read(0, |txn| {
        let mut sum = 0u64;
        for &addr in fp {
            sum = sum.wrapping_add(txn.read(addr)?);
        }
        Ok(black_box(sum))
    });
}

fn update_txn_ns<E: TmEngine>(engine: &E, fps: &[[u64; FOOTPRINT]], iters: u64) -> f64 {
    time_ns(iters, |i| update_txn(engine, &fps[i as usize % FOOTPRINTS]))
}

/// Acquire and release write permission on one block of `table`.
fn pair_ns<T: ConcurrentTable>(table: &T, iters: u64) -> f64 {
    time_ns(iters, |i| {
        // An odd stride walks every block before repeating.
        let block = i.wrapping_mul(0x9E37_79B9) % HEAP_BLOCKS;
        let outcome = table.acquire(0, block, Access::Write, Held::None);
        debug_assert!(matches!(outcome, AcquireOutcome::Granted));
        table.release(0, table.grant_key(block), Held::Write);
    })
}

/// One thread plays `txn-birthday`'s two transactions in lockstep over its
/// 1024-entry table: both draw a footprint (8 reads, 8 writes, disjoint
/// partitions), then take turns acquiring one block each. A refused
/// acquire aborts that transaction. No scheduler is involved, so the count
/// is exact for a seed.
fn lockstep_conflicts_per_commit(seed: u64, pairs: u64) -> f64 {
    let spec = birthday_spec();
    let table = ConcurrentTaglessTable::new(TableConfig::new(BIRTHDAY_TABLE_ENTRIES));
    let owners = BIRTHDAY_THREADS as usize;
    let samplers: Vec<BlockSampler> = (0..BIRTHDAY_THREADS)
        .map(|t| BlockSampler::new(&spec, HEAP_BLOCKS, t, BIRTHDAY_THREADS))
        .collect();
    let mut rngs: Vec<StdRng> = (0..BIRTHDAY_THREADS)
        .map(|t| StdRng::seed_from_u64(mix_seed(seed, t)))
        .collect();
    let reads = spec.reads_per_txn as usize;
    let footprint = reads + spec.writes_per_txn as usize;
    let mut held: Vec<Vec<(GrantKey, Held)>> = vec![Vec::with_capacity(footprint); owners];
    let release_all = |t: usize, held: &mut Vec<(GrantKey, Held)>| {
        for (key, level) in held.drain(..) {
            table.release(t as u32, key, level);
        }
    };
    let (mut conflicts, mut commits) = (0u64, 0u64);
    for _ in 0..pairs {
        // blocks[k][t]: the k-th block of owner t's footprint.
        let blocks: Vec<Vec<u64>> = (0..footprint)
            .map(|_| {
                (0..owners)
                    .map(|t| samplers[t].sample(&mut rngs[t]))
                    .collect()
            })
            .collect();
        let mut alive = vec![true; owners];
        for (k, step) in blocks.iter().enumerate() {
            let access = if k < reads {
                Access::Read
            } else {
                Access::Write
            };
            for (t, &block) in step.iter().enumerate() {
                if !alive[t] {
                    continue;
                }
                let key = table.grant_key(block);
                let slot = held[t].iter().position(|(held_key, _)| *held_key == key);
                let level = slot.map_or(Held::None, |s| held[t][s].1);
                match table.acquire(t as u32, block, access, level) {
                    AcquireOutcome::Granted => match slot {
                        Some(s) => held[t][s].1 = level.after(access),
                        None => held[t].push((key, level.after(access))),
                    },
                    AcquireOutcome::AlreadyHeld => {}
                    AcquireOutcome::Conflict(_) => {
                        conflicts += 1;
                        alive[t] = false;
                        release_all(t, &mut held[t]);
                    }
                }
            }
        }
        for t in 0..owners {
            commits += u64::from(alive[t]);
            release_all(t, &mut held[t]);
        }
    }
    conflicts as f64 / commits.max(1) as f64
}

/// 256 disjoint `Add`s from rotating sessions through a [`Batcher`]; with
/// `commit`, every drained group then runs as one engine transaction (the
/// shape of a server flush, minus the channels). Nanoseconds per `Add`.
fn burst_ns_per_op<E: TmEngine>(engine: &E, policy: BatchPolicy, commit: bool, iters: u64) -> f64 {
    const BURST: u64 = 256;
    let per_burst = time_ns(iters, |_| {
        let mut batcher = Batcher::new(policy);
        let now = Instant::now();
        for i in 0..BURST {
            let op = WriteOp::Add { key: i, delta: 1 };
            batcher.push(
                PendingWrite {
                    session: i % 8,
                    id: i,
                    token: None,
                    op,
                },
                now,
            );
        }
        for group in batcher.drain() {
            if !commit {
                black_box(&group);
                continue;
            }
            engine.run(0, |txn| {
                for pw in &group.ops {
                    if let WriteOp::Add { key, delta } = &pw.op {
                        txn.update_add(key * WORD_BYTES, *delta)?;
                    }
                }
                Ok(())
            });
        }
    });
    per_burst / BURST as f64
}

/// Every workload-independent per-layer metric.
pub fn measure(seed: u64, scale: Scale) -> Vec<(&'static str, f64)> {
    let iters = |n: u64| scale.ops(n, 1);
    let builder = StmBuilder::new()
        .heap_words(HEAP_WORDS)
        .table_entries(TABLE_ENTRIES);
    let uniform = footprints(seed, Spread::Uniform);
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    // ownership
    let config = TableConfig::new(TABLE_ENTRIES);
    out.push((
        "ownership.tagless_pair_ns",
        pair_ns(
            &ConcurrentTaglessTable::new(config.clone()),
            iters(2_000_000),
        ),
    ));
    out.push((
        "ownership.tagged_pair_ns",
        pair_ns(
            &ConcurrentTaggedTable::new(config.clone()),
            iters(1_000_000),
        ),
    ));
    out.push((
        "ownership.lockstep_conflicts_per_commit",
        lockstep_conflicts_per_commit(seed, iters(100_000)),
    ));

    // stm
    let tagless = builder.build_tagless();
    let update_ns = update_txn_ns(&tagless, &uniform, iters(100_000));
    out.push(("stm.update_txn_ns", update_ns));
    out.push((
        "stm.read_txn_ns",
        time_ns(iters(300_000), |i| {
            read_txn(&tagless, &uniform[i as usize % FOOTPRINTS])
        }),
    ));
    out.push((
        "stm.single_add_txn_ns",
        time_ns(iters(500_000), |i| {
            tagless.run(0, |txn| {
                txn.update_add(uniform[i as usize % FOOTPRINTS][0], 1)
            });
        }),
    ));
    out.push((
        "stm.tagged_update_txn_ns",
        update_txn_ns(&builder.build_tagged(), &uniform, iters(50_000)),
    ));
    out.push((
        "stm.lazy_update_txn_ns",
        update_txn_ns(&builder.build_lazy(), &uniform, iters(100_000)),
    ));
    let txns = iters(50_000);
    let before = allocs();
    for i in 0..txns as usize {
        update_txn(&tagless, &uniform[i % FOOTPRINTS]);
        read_txn(&tagless, &uniform[i % FOOTPRINTS]);
    }
    out.push((
        "stm.allocs_per_txn",
        (allocs() - before) as f64 / (2 * txns) as f64,
    ));

    // adaptive
    out.push((
        "adaptive.pair_ns",
        pair_ns(&resizable_tagless(config), iters(1_000_000)),
    ));
    let (adaptive, _controller) =
        adaptive_stm(HEAP_WORDS, TABLE_ENTRIES, ResizePolicy::default(), 1);
    out.push((
        "adaptive.update_txn_ns",
        update_txn_ns(&adaptive, &uniform, iters(50_000)),
    ));

    // shard
    out.push((
        "shard.s1_update_txn_ns",
        update_txn_ns(
            &builder.clone().shards(1).build_sharded_tagless(),
            &uniform,
            iters(100_000),
        ),
    ));
    let s4 = builder.clone().shards(4).build_sharded_tagless();
    out.push((
        "shard.s4_local_update_txn_ns",
        update_txn_ns(&s4, &footprints(seed, Spread::OneQuarter), iters(100_000)),
    ));
    out.push((
        "shard.s4_cross_txn_ns",
        update_txn_ns(
            &s4,
            &footprints(seed, Spread::WritesAcrossQuarters),
            iters(50_000),
        ),
    ));

    // structs
    let typed = builder.build_tagless();
    let mut region = Region::new(0, HEAP_WORDS as u64 * WORD_BYTES);
    let map: TMap<u64> = TMap::create(&mut region, 1024);
    // Even keys are resident (0 is the map's empty marker); odd keys churn.
    for key in 1..=512u64 {
        map.insert_now(&typed, 0, 2 * key, key)
            .expect("the map is half full at most");
    }
    out.push((
        "structs.tmap_get_ns",
        time_ns(iters(300_000), |i| {
            black_box(map.get_read(&typed, 0, 2 * (i % 512) + 2));
        }),
    ));
    out.push((
        "structs.tmap_insert_remove_ns",
        time_ns(iters(100_000), |i| {
            let key = 2 * (i % 512) + 1;
            typed.run(0, |txn| {
                map.insert(txn, key, i)?
                    .expect("the map is half full at most");
                map.remove(txn, key)
            });
        }),
    ));
    const RESIDENT: u64 = 64;
    let list: TList<u64> = TList::create(&mut region, RESIDENT + 1);
    for value in 0..RESIDENT {
        list.insert_now(&typed, 0, 2 * value)
            .expect("the pool holds the resident set");
    }
    out.push((
        "structs.tlist_chase_ns",
        time_ns(iters(10_000), |i| {
            let key = 2 * (i % RESIDENT) + 1;
            typed.run(0, |txn| {
                list.insert(txn, key)?.expect("one node stays free");
                list.remove(txn, key)
            });
        }),
    ));

    // telemetry
    let probed = builder
        .clone()
        .probe(Arc::new(Recorder::new()))
        .build_tagless();
    out.push((
        "telemetry.probe_overhead_ns",
        update_txn_ns(&probed, &uniform, iters(100_000)) - update_ns,
    ));
    let mut histogram = Histogram::new();
    out.push((
        "telemetry.histogram_record_ns",
        time_ns(iters(2_000_000), |i| {
            histogram.record(i.wrapping_mul(0x9E37_79B9) >> 8)
        }),
    ));
    black_box(&histogram);

    // protocol, over the mixed workload's request stream
    let mixed = plan(Workload::SvcMixedTcp);
    let mut stream = Stream::new(seed, mixed.mix, mixed.spread);
    let requests: Vec<RequestFrame> = (1..=1024u64)
        .map(|id| RequestFrame {
            id,
            request: stream.next(),
        })
        .collect();
    let responses: Vec<ResponseFrame> = requests
        .iter()
        .map(|frame| ResponseFrame {
            id: frame.id,
            response: match &frame.request {
                Request::Get { .. } => Response::Value(frame.id),
                Request::MultiGet { keys } => Response::Values(vec![frame.id; keys.len()]),
                Request::Add { .. } => Response::Added(frame.id),
                Request::MultiAdd { keys, .. } => Response::MultiAdded {
                    applied: keys.len() as u32,
                },
                other => unreachable!("streams never issue {other:?}"),
            },
        })
        .collect();
    let request_bytes: Vec<Vec<u8>> = requests.iter().map(RequestFrame::encode).collect();
    let response_bytes: Vec<Vec<u8>> = responses.iter().map(ResponseFrame::encode).collect();
    let n = requests.len();
    out.push((
        "protocol.req_encode_ns",
        time_ns(iters(500_000), |i| {
            black_box(requests[i as usize % n].encode());
        }),
    ));
    out.push((
        "protocol.req_decode_ns",
        time_ns(iters(500_000), |i| {
            black_box(RequestFrame::decode(&request_bytes[i as usize % n]).expect("own encoding"));
        }),
    ));
    out.push((
        "protocol.resp_encode_ns",
        time_ns(iters(500_000), |i| {
            black_box(responses[i as usize % n].encode());
        }),
    ));
    out.push((
        "protocol.resp_decode_ns",
        time_ns(iters(500_000), |i| {
            black_box(
                ResponseFrame::decode(&response_bytes[i as usize % n]).expect("own encoding"),
            );
        }),
    ));
    let mut framebuf = FrameBuf::new();
    out.push((
        "protocol.framebuf_ns",
        time_ns(iters(500_000), |i| {
            framebuf.extend(&request_bytes[i as usize % n]);
            black_box(framebuf.next_frame().expect("own framing"));
        }),
    ));
    let before = allocs();
    for i in 0..n {
        let wire = requests[i].encode();
        framebuf.extend(&wire);
        let frame = framebuf
            .next_frame()
            .expect("own framing")
            .expect("one frame");
        black_box(RequestFrame::decode(&frame).expect("own encoding"));
        let wire = responses[i].encode();
        black_box(ResponseFrame::decode(&wire).expect("own encoding"));
    }
    out.push((
        "protocol.allocs_per_roundtrip",
        (allocs() - before) as f64 / n as f64,
    ));

    // backpressure
    let admission = Admission::new(AdmissionPolicy::default());
    out.push((
        "backpressure.admit_release_ns",
        time_ns(iters(2_000_000), |i| {
            let cost = 1 + (i & 3);
            if admission.try_admit(cost) {
                admission.release(cost);
            }
        }),
    ));

    // batch
    let grouped = BatchPolicy::grouped();
    out.push((
        "batch.push_drain_ns_per_op",
        burst_ns_per_op(&tagless, grouped, false, iters(1_000)),
    ));
    out.push((
        "batch.grouped_commit_ns_per_op",
        burst_ns_per_op(&tagless, grouped, true, iters(1_000)),
    ));
    out.push((
        "batch.unbatched_commit_ns_per_op",
        burst_ns_per_op(&tagless, BatchPolicy::unbatched(), true, iters(1_000)),
    ));
    out
}
