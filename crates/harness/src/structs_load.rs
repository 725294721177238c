//! `tm-structs` workloads with linearizability-style conservation checks.
//!
//! Each workload drives one shared transactional structure from all worker
//! threads and records, per thread, exactly what it committed; after the
//! run, a sequential pass verifies the structure agrees:
//!
//! * **counter** — final value must equal the sum of per-thread committed
//!   deltas (the classic lost-update detector).
//! * **map** — with disjoint per-thread key ranges, the final contents must
//!   equal each thread's last committed write (or removal) per key.
//! * **queue**/**stack** — element-count and value-sum conservation: what
//!   went in minus what came out must still be inside.
//!
//! The bodies are written against [`TmEngine`]/`TxnOps`, so they run on
//! **every** engine — eager tagless/tagged, the adaptive resizable table,
//! and the lazy TL2-style engine alike — with the same conservation checks.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tm_stm::TmEngine;
use tm_structs::{Region, TCounter, TList, TMap, TQueue, TStack};

use crate::driver::{mix_seed, phase_loop, run_phase_threads, warmup_seed, Phase, PhaseResult};
use crate::scenario::{ListKeyMix, StructsKind};

/// Keys each thread owns in the map workload.
const MAP_KEYS_PER_THREAD: u64 = 128;
/// Slot capacity of the shared map (must exceed threads × keys).
const MAP_CAPACITY: u64 = 4096;
/// Capacity of the shared queue/stack.
const CONTAINER_CAPACITY: u64 = 1024;
/// Value range for queue/stack payloads (small, so sums stay far from wrap).
const VALUE_RANGE: u64 = 1000;
/// Key universe of the list-chase workload — also the node-pool capacity,
/// so pool exhaustion is impossible by construction (live nodes ≤ distinct
/// keys).
const LIST_KEY_RANGE: u64 = 128;
/// Hotspot mix: this many smallest keys…
const LIST_HOT_KEYS: u64 = 16;
/// …absorb this share of operations.
const LIST_HOT_PCT: u32 = 50;

/// What one thread committed during a structs phase.
#[derive(Clone, Debug, Default)]
pub struct StructsTally {
    /// Transactions committed by this thread.
    pub committed_txns: u64,
    /// Counter workload: sum of committed deltas.
    pub delta_sum: u64,
    /// Queue/stack: elements successfully inserted, and their value sum.
    pub in_count: u64,
    /// Value sum of inserted elements.
    pub in_sum: u64,
    /// Queue/stack: elements successfully removed, and their value sum.
    pub out_count: u64,
    /// Value sum of removed elements.
    pub out_sum: u64,
    /// Map: this thread's expected final state — `(key, Some(value))` for a
    /// live entry, `(key, None)` for a removed one.
    pub expected: Vec<(u64, Option<u64>)>,
}

/// Outcome of a full structs run (both phases plus the invariant verdict).
#[derive(Clone, Debug)]
pub struct StructsRun {
    /// Warmup-phase window.
    pub warmup: PhaseResult<StructsTally>,
    /// Measured-phase window.
    pub measure: PhaseResult<StructsTally>,
    /// Conservation/linearizability violations found post-run (0 = clean).
    pub violations: u64,
}

/// Run warmup + measure phases of a structs workload and verify invariants.
///
/// `between_phases` runs at the quiescent point after warmup and before
/// measurement — the place to reset telemetry windows so recorded
/// histograms and abort causes cover exactly the measured phase.
/// `after_measure` runs right after the measured phase's workers join and
/// *before* the sequential conservation checks, which execute their own
/// transactions on the engine — the place to snapshot telemetry so
/// verification traffic does not pollute it.
#[allow(clippy::too_many_arguments)]
pub fn run_structs<E: TmEngine>(
    stm: &E,
    kind: StructsKind,
    heap_words: usize,
    threads: u32,
    warmup: Phase,
    measure: Phase,
    seed: u64,
    between_phases: impl Fn(),
    after_measure: impl Fn(),
) -> StructsRun {
    let mut region = Region::new(0, heap_words as u64 * 8);
    match kind {
        StructsKind::Counter => {
            let counter = TCounter::create(&mut region);
            let phase_fn = |phase: Phase, seed: u64| {
                run_phase_threads(stm, threads, phase, |id, stop, budget| {
                    let mut rng = StdRng::seed_from_u64(mix_seed(seed, id));
                    let mut tally = StructsTally::default();
                    phase_loop(stop, budget, |_| {
                        let delta = rng.gen_range(1..8u64);
                        counter.add_now(stm, id, delta);
                        tally.committed_txns += 1;
                        tally.delta_sum = tally.delta_sum.wrapping_add(delta);
                    });
                    tally
                })
            };
            let w = phase_fn(warmup, warmup_seed(seed));
            between_phases();
            let m = phase_fn(measure, seed);
            after_measure();
            let expected = w
                .tallies
                .iter()
                .chain(&m.tallies)
                .fold(0u64, |acc, t| acc.wrapping_add(t.delta_sum));
            let violations = u64::from(counter.get(stm, 0) != expected);
            StructsRun {
                warmup: w,
                measure: m,
                violations,
            }
        }
        StructsKind::Map => {
            let map = TMap::create(&mut region, MAP_CAPACITY);
            assert!(
                threads as u64 * MAP_KEYS_PER_THREAD <= MAP_CAPACITY / 2,
                "map workload needs headroom: {threads} threads"
            );
            let phase_fn = |phase: Phase, seed: u64| {
                run_phase_threads(stm, threads, phase, |id, stop, budget| {
                    let mut rng = StdRng::seed_from_u64(mix_seed(seed, id));
                    let mut tally = StructsTally::default();
                    let base = 1 + id as u64 * MAP_KEYS_PER_THREAD;
                    let mut mine: HashMap<u64, Option<u64>> = HashMap::new();
                    phase_loop(stop, budget, |_| {
                        let key = base + rng.gen_range(0..MAP_KEYS_PER_THREAD);
                        match rng.gen_range(0..100u32) {
                            0..=59 => {
                                let value = rng.gen_range(0..VALUE_RANGE);
                                map.insert_now(stm, id, key, value)
                                    .expect("map sized with headroom for the workload");
                                mine.insert(key, Some(value));
                            }
                            60..=84 => {
                                map.get_now(stm, id, key);
                            }
                            _ => {
                                map.remove_now(stm, id, key);
                                mine.insert(key, None);
                            }
                        }
                        tally.committed_txns += 1;
                    });
                    tally.expected = mine.into_iter().collect();
                    tally
                })
            };
            let w = phase_fn(warmup, warmup_seed(seed));
            between_phases();
            let m = phase_fn(measure, seed);
            after_measure();
            // Per thread: warmup expectations, overridden by measure-phase
            // ones (key ranges are disjoint across threads, so the merge is
            // exact).
            let mut expected: HashMap<u64, Option<u64>> = HashMap::new();
            for phase in [&w, &m] {
                for tally in &phase.tallies {
                    for &(k, v) in &tally.expected {
                        expected.insert(k, v);
                    }
                }
            }
            let mut violations = 0u64;
            for (&key, &want) in &expected {
                if map.get_now(stm, 0, key) != want {
                    violations += 1;
                }
            }
            StructsRun {
                warmup: w,
                measure: m,
                violations,
            }
        }
        StructsKind::Queue => {
            let queue = TQueue::create(&mut region, CONTAINER_CAPACITY);
            let phase_fn = |phase: Phase, seed: u64| {
                run_phase_threads(stm, threads, phase, |id, stop, budget| {
                    let mut rng = StdRng::seed_from_u64(mix_seed(seed, id));
                    let mut tally = StructsTally::default();
                    phase_loop(stop, budget, |_| {
                        if rng.gen_range(0..100u32) < 55 {
                            let value = rng.gen_range(0..VALUE_RANGE);
                            if queue.enqueue_now(stm, id, value).is_ok() {
                                tally.in_count += 1;
                                tally.in_sum = tally.in_sum.wrapping_add(value);
                            }
                        } else if let Some(value) = queue.dequeue_now(stm, id) {
                            tally.out_count += 1;
                            tally.out_sum = tally.out_sum.wrapping_add(value);
                        }
                        tally.committed_txns += 1;
                    });
                    tally
                })
            };
            let w = phase_fn(warmup, warmup_seed(seed));
            between_phases();
            let m = phase_fn(measure, seed);
            after_measure();
            let violations = verify_container(
                w.tallies.iter().chain(&m.tallies),
                queue.len_now(stm, 0),
                || queue.dequeue_now(stm, 0),
            );
            StructsRun {
                warmup: w,
                measure: m,
                violations,
            }
        }
        StructsKind::Stack => {
            let stack = TStack::create(&mut region, CONTAINER_CAPACITY);
            let phase_fn = |phase: Phase, seed: u64| {
                run_phase_threads(stm, threads, phase, |id, stop, budget| {
                    let mut rng = StdRng::seed_from_u64(mix_seed(seed, id));
                    let mut tally = StructsTally::default();
                    phase_loop(stop, budget, |_| {
                        if rng.gen_range(0..100u32) < 55 {
                            let value = rng.gen_range(0..VALUE_RANGE);
                            if stack.push_now(stm, id, value).is_ok() {
                                tally.in_count += 1;
                                tally.in_sum = tally.in_sum.wrapping_add(value);
                            }
                        } else if let Some(value) = stack.pop_now(stm, id) {
                            tally.out_count += 1;
                            tally.out_sum = tally.out_sum.wrapping_add(value);
                        }
                        tally.committed_txns += 1;
                    });
                    tally
                })
            };
            let w = phase_fn(warmup, warmup_seed(seed));
            between_phases();
            let m = phase_fn(measure, seed);
            after_measure();
            let violations = verify_container(
                w.tallies.iter().chain(&m.tallies),
                stack.len_now(stm, 0),
                || stack.pop_now(stm, 0),
            );
            StructsRun {
                warmup: w,
                measure: m,
                violations,
            }
        }
        StructsKind::List(mix) => {
            let list: TList = TList::create(&mut region, LIST_KEY_RANGE);
            let phase_fn = |phase: Phase, seed: u64| {
                run_phase_threads(stm, threads, phase, |id, stop, budget| {
                    let mut rng = StdRng::seed_from_u64(mix_seed(seed, id));
                    let mut tally = StructsTally::default();
                    phase_loop(stop, budget, |_| {
                        let key = match mix {
                            ListKeyMix::Uniform => rng.gen_range(0..LIST_KEY_RANGE),
                            ListKeyMix::Hotspot => {
                                if rng.gen_range(0..100u32) < LIST_HOT_PCT {
                                    rng.gen_range(0..LIST_HOT_KEYS)
                                } else {
                                    rng.gen_range(0..LIST_KEY_RANGE)
                                }
                            }
                        };
                        match rng.gen_range(0..100u32) {
                            0..=39 => {
                                let inserted = list
                                    .insert_now(stm, id, key)
                                    .expect("pool covers the key universe");
                                if inserted {
                                    tally.in_count += 1;
                                    tally.in_sum = tally.in_sum.wrapping_add(key);
                                }
                            }
                            40..=79 => {
                                if list.remove_now(stm, id, key) {
                                    tally.out_count += 1;
                                    tally.out_sum = tally.out_sum.wrapping_add(key);
                                }
                            }
                            _ => {
                                list.contains_now(stm, id, key);
                            }
                        }
                        tally.committed_txns += 1;
                    });
                    tally
                })
            };
            let w = phase_fn(warmup, warmup_seed(seed));
            between_phases();
            let m = phase_fn(measure, seed);
            after_measure();
            // Conservation: what the threads observed going in and out must
            // match the surviving list exactly — in count, in value sum, in
            // sorted-set shape, and in node-pool accounting (a leaked or
            // double-freed node breaks `len + free == capacity`).
            let (mut in_count, mut in_sum, mut out_count, mut out_sum) = (0u64, 0u64, 0u64, 0u64);
            for t in w.tallies.iter().chain(&m.tallies) {
                in_count += t.in_count;
                in_sum = in_sum.wrapping_add(t.in_sum);
                out_count += t.out_count;
                out_sum = out_sum.wrapping_add(t.out_sum);
            }
            let snap = list.snapshot_now(stm, 0);
            let mut violations = 0u64;
            if !snap.windows(2).all(|w| w[0] < w[1]) {
                violations += 1; // unsorted or duplicated values
            }
            if snap.len() as u64 != in_count.wrapping_sub(out_count) {
                violations += 1; // element conservation
            }
            let snap_sum = snap.iter().fold(0u64, |acc, &v| acc.wrapping_add(v));
            if snap_sum != in_sum.wrapping_sub(out_sum) {
                violations += 1; // value conservation
            }
            if snap.len() as u64 + list.free_nodes_now(stm, 0) != list.capacity() {
                violations += 1; // node leak or double free
            }
            StructsRun {
                warmup: w,
                measure: m,
                violations,
            }
        }
    }
}

/// Conservation check shared by queue and stack: drain the container and
/// compare count and value sums with the per-thread tallies.
fn verify_container<'a>(
    tallies: impl Iterator<Item = &'a StructsTally>,
    reported_len: u64,
    mut drain: impl FnMut() -> Option<u64>,
) -> u64 {
    let (mut in_count, mut in_sum, mut out_count, mut out_sum) = (0u64, 0u64, 0u64, 0u64);
    for t in tallies {
        in_count += t.in_count;
        in_sum = in_sum.wrapping_add(t.in_sum);
        out_count += t.out_count;
        out_sum = out_sum.wrapping_add(t.out_sum);
    }
    let mut violations = 0u64;
    // More removals than insertions is itself the violation being hunted;
    // keep the checker alive (no underflow) and count it.
    let expected_len = match in_count.checked_sub(out_count) {
        Some(n) => n,
        None => {
            violations += 1;
            0
        }
    };
    if reported_len != expected_len {
        violations += 1;
    }
    let (mut drained, mut drained_sum) = (0u64, 0u64);
    while let Some(v) = drain() {
        drained += 1;
        drained_sum = drained_sum.wrapping_add(v);
    }
    if drained != expected_len {
        violations += 1;
    }
    if drained_sum != in_sum.wrapping_sub(out_sum) {
        violations += 1;
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_stm::StmBuilder;

    const HEAP: usize = 1 << 16;

    fn check(kind: StructsKind) -> StructsRun {
        let stm = StmBuilder::new()
            .heap_words(HEAP)
            .table_entries(4096)
            .build_tagged();
        run_structs(
            &stm,
            kind,
            HEAP,
            4,
            Phase::Txns(30),
            Phase::Txns(120),
            0xC0FFEE,
            || {},
            || {},
        )
    }

    #[test]
    fn counter_conserves_deltas() {
        let r = check(StructsKind::Counter);
        assert_eq!(r.violations, 0);
        assert_eq!(r.measure.counters.commits, 4 * 120);
    }

    #[test]
    fn map_matches_per_thread_expectations() {
        let r = check(StructsKind::Map);
        assert_eq!(r.violations, 0);
        assert!(r.measure.counters.commits >= 4 * 120);
    }

    #[test]
    fn queue_conserves_elements_and_values() {
        let r = check(StructsKind::Queue);
        assert_eq!(r.violations, 0);
    }

    #[test]
    fn stack_conserves_elements_and_values() {
        let r = check(StructsKind::Stack);
        assert_eq!(r.violations, 0);
    }

    #[test]
    fn list_chase_conserves_elements_values_and_nodes() {
        for mix in [ListKeyMix::Uniform, ListKeyMix::Hotspot] {
            let r = check(StructsKind::List(mix));
            assert_eq!(r.violations, 0, "{mix:?}");
            assert_eq!(r.measure.counters.commits, 4 * 120, "{mix:?} fixed budget");
        }
    }
}
