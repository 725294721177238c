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

use tm_stm::{Recorder, TmEngine};
use tm_structs::{Region, TCounter, TList, TMap, TQueue, TStack};

use crate::driver::{mix_seed, phase_loop, run_phase_threads};
use crate::run::{DriveOutcome, Phases, RunSpec};
use crate::scenario::{ListKeyMix, StructsKind};

/// Keys each thread owns in the map workload, at up to 16 threads.
const MAP_KEYS_PER_THREAD: u64 = 128;
/// Slot capacity of the shared map (must exceed threads × keys).
const MAP_CAPACITY: u64 = 4096;

/// Keys each of `threads` threads owns in the map workload: 128, or an
/// equal share of half the map once more than 16 threads split it, so the
/// map keeps half its slots free at any thread count up to 2048.
fn map_keys_per_thread(threads: u32) -> u64 {
    (MAP_CAPACITY / 2 / u64::from(threads.max(1))).clamp(1, MAP_KEYS_PER_THREAD)
}
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
#[derive(Debug, Default)]
pub(crate) struct StructsTally {
    /// Counter workload: sum of committed deltas.
    delta_sum: u64,
    /// Queue/stack/list: elements successfully inserted.
    in_count: u64,
    /// Value sum of inserted elements.
    in_sum: u64,
    /// Queue/stack/list: elements successfully removed.
    out_count: u64,
    /// Value sum of removed elements.
    out_sum: u64,
    /// Map: this thread's expected final state per key — `Some(value)` for
    /// a live entry, `None` for a removed one.
    expected: HashMap<u64, Option<u64>>,
}

impl StructsTally {
    /// Record an element that went in.
    fn put(&mut self, value: u64) {
        self.in_count += 1;
        self.in_sum = self.in_sum.wrapping_add(value);
    }

    /// Record an element that came out.
    fn took(&mut self, value: u64) {
        self.out_count += 1;
        self.out_sum = self.out_sum.wrapping_add(value);
    }

    /// Net flow over `tallies`: how many elements must still be inside
    /// (`None` when more came out than went in — itself a violation) and
    /// their value sum.
    fn flow<'a>(tallies: impl Iterator<Item = &'a Self>) -> (Option<u64>, u64) {
        let (mut put, mut took, mut sum) = (0u64, 0u64, 0u64);
        for t in tallies {
            put += t.in_count;
            took += t.out_count;
            sum = sum.wrapping_add(t.in_sum).wrapping_sub(t.out_sum);
        }
        (put.checked_sub(took), sum)
    }
}

/// Run warmup + measure phases of a structs workload and verify its
/// invariants. The sequential checks run their own transactions on the
/// engine, after [`Phases::run`] has snapshotted the telemetry window.
pub(crate) fn run_structs<E: TmEngine>(
    stm: &E,
    kind: StructsKind,
    spec: &RunSpec,
    recorder: &Recorder,
) -> DriveOutcome {
    let mut region = Region::new(0, spec.heap_words as u64 * 8);
    match kind {
        StructsKind::Counter => {
            let counter = TCounter::create(&mut region);
            let phases = structs_phases(stm, spec, recorder, |id, rng, tally| {
                let delta = rng.gen_range(1..8u64);
                counter.add_now(stm, id, delta);
                tally.delta_sum = tally.delta_sum.wrapping_add(delta);
            });
            let expected = phases
                .tallies()
                .fold(0u64, |acc, t| acc.wrapping_add(t.delta_sum));
            let violations = u64::from(counter.get(stm, 0) != expected);
            phases.outcome(violations)
        }
        StructsKind::Map => {
            let map = TMap::create(&mut region, MAP_CAPACITY);
            let keys = map_keys_per_thread(spec.threads);
            assert!(
                u64::from(spec.threads) * keys <= MAP_CAPACITY / 2,
                "map workload needs headroom: {} threads",
                spec.threads
            );
            let phases = structs_phases(stm, spec, recorder, |id, rng, tally| {
                let key = 1 + u64::from(id) * keys + rng.gen_range(0..keys);
                match rng.gen_range(0..100u32) {
                    0..=59 => {
                        let value = rng.gen_range(0..VALUE_RANGE);
                        map.insert_now(stm, id, key, value)
                            .expect("map sized with headroom for the workload");
                        tally.expected.insert(key, Some(value));
                    }
                    60..=84 => {
                        map.get_now(stm, id, key);
                    }
                    _ => {
                        map.remove_now(stm, id, key);
                        tally.expected.insert(key, None);
                    }
                }
            });
            // Warmup expectations, overridden by measure-phase ones (key
            // ranges are disjoint across threads, so the merge is exact).
            let mut expected: HashMap<u64, Option<u64>> = HashMap::new();
            for t in phases.tallies() {
                expected.extend(&t.expected);
            }
            let violations = expected
                .iter()
                .filter(|&(&key, &want)| map.get_now(stm, 0, key) != want)
                .count() as u64;
            phases.outcome(violations)
        }
        StructsKind::Queue => {
            let queue = TQueue::create(&mut region, CONTAINER_CAPACITY);
            let phases = structs_phases(stm, spec, recorder, |id, rng, tally| {
                if rng.gen_range(0..100u32) < 55 {
                    let value = rng.gen_range(0..VALUE_RANGE);
                    if queue.enqueue_now(stm, id, value).is_ok() {
                        tally.put(value);
                    }
                } else if let Some(value) = queue.dequeue_now(stm, id) {
                    tally.took(value);
                }
            });
            let violations = verify_container(
                StructsTally::flow(phases.tallies()),
                queue.len_now(stm, 0),
                || queue.dequeue_now(stm, 0),
            );
            phases.outcome(violations)
        }
        StructsKind::Stack => {
            let stack = TStack::create(&mut region, CONTAINER_CAPACITY);
            let phases = structs_phases(stm, spec, recorder, |id, rng, tally| {
                if rng.gen_range(0..100u32) < 55 {
                    let value = rng.gen_range(0..VALUE_RANGE);
                    if stack.push_now(stm, id, value).is_ok() {
                        tally.put(value);
                    }
                } else if let Some(value) = stack.pop_now(stm, id) {
                    tally.took(value);
                }
            });
            let violations = verify_container(
                StructsTally::flow(phases.tallies()),
                stack.len_now(stm, 0),
                || stack.pop_now(stm, 0),
            );
            phases.outcome(violations)
        }
        StructsKind::List(mix) => {
            let list: TList = TList::create(&mut region, LIST_KEY_RANGE);
            let phases = structs_phases(stm, spec, recorder, |id, rng, tally| {
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
                            tally.put(key);
                        }
                    }
                    40..=79 => {
                        if list.remove_now(stm, id, key) {
                            tally.took(key);
                        }
                    }
                    _ => {
                        list.contains_now(stm, id, key);
                    }
                }
            });
            // Conservation: what the threads observed going in and out must
            // match the surviving list exactly — in sorted-set shape, in
            // count, in value sum, and in node-pool accounting (a leaked or
            // double-freed node breaks `len + free == capacity`).
            let (count, sum) = StructsTally::flow(phases.tallies());
            let snap = list.snapshot_now(stm, 0);
            let holds = [
                snap.windows(2).all(|w| w[0] < w[1]),
                Some(snap.len() as u64) == count,
                snap.iter().fold(0u64, |acc, &v| acc.wrapping_add(v)) == sum,
                snap.len() as u64 + list.free_nodes_now(stm, 0) == list.capacity(),
            ];
            phases.outcome(holds.iter().filter(|&&ok| !ok).count() as u64)
        }
    }
}

/// Both phases of one structs workload: each worker seeds its RNG from the
/// phase seed and its thread id, then runs `op(thread, rng, tally)` once per
/// transaction under [`phase_loop`].
fn structs_phases<E: TmEngine>(
    stm: &E,
    spec: &RunSpec,
    recorder: &Recorder,
    op: impl Fn(u32, &mut StdRng, &mut StructsTally) + Sync,
) -> Phases<StructsTally> {
    Phases::run(spec, recorder, |phase, seed| {
        run_phase_threads(stm, spec.threads, phase, |id, stop, budget| {
            let mut rng = StdRng::seed_from_u64(mix_seed(seed, id));
            let mut tally = StructsTally::default();
            phase_loop(stop, budget, |_| op(id, &mut rng, &mut tally));
            tally
        })
    })
}

/// Conservation check shared by queue and stack: drain the container and
/// compare count and value sum with the net flow of the per-thread tallies.
fn verify_container(
    (count, sum): (Option<u64>, u64),
    reported_len: u64,
    mut drain: impl FnMut() -> Option<u64>,
) -> u64 {
    // More removals than insertions is itself the violation being hunted;
    // keep the checker alive (no underflow) and count it.
    let mut violations = u64::from(count.is_none());
    let expected_len = count.unwrap_or(0);
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
    if drained_sum != sum {
        violations += 1;
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineKind, Phase, Scenario};
    use tm_stm::StmBuilder;

    const HEAP: usize = 1 << 16;

    fn check(kind: StructsKind) -> DriveOutcome {
        let stm = StmBuilder::new()
            .heap_words(HEAP)
            .table_entries(4096)
            .build_tagged();
        let spec = RunSpec {
            threads: 4,
            heap_words: HEAP,
            seed: 0xC0FFEE,
            warmup: Phase::Txns(30),
            measure: Phase::Txns(120),
            ..RunSpec::new(EngineKind::EagerTagged, Scenario::counter())
        };
        run_structs(&stm, kind, &spec, &Recorder::new())
    }

    #[test]
    fn counter_conserves_deltas() {
        let r = check(StructsKind::Counter);
        assert_eq!(r.violations, 0);
        assert_eq!(r.measure.commits, 4 * 120);
    }

    #[test]
    fn map_matches_per_thread_expectations() {
        let r = check(StructsKind::Map);
        assert_eq!(r.violations, 0);
        assert!(r.measure.commits >= 4 * 120);
    }

    #[test]
    fn map_keys_shrink_only_past_sixteen_threads() {
        for threads in 1..=16 {
            assert_eq!(map_keys_per_thread(threads), MAP_KEYS_PER_THREAD);
        }
        assert_eq!(map_keys_per_thread(17), 120);
        assert_eq!(map_keys_per_thread(2048), 1);
    }

    /// `harness --threads 17 --scenario map`: more threads than the map
    /// had 128-key ranges for, and more than the engine's 15 exclusive
    /// counter slots, so two ids share the last one.
    #[test]
    fn map_cell_runs_clean_at_seventeen_threads() {
        let config = crate::MatrixConfig {
            engines: vec![EngineKind::EagerTagless],
            scenarios: vec![Scenario::map()],
            threads: 17,
            warmup: Phase::Txns(10),
            measure: Phase::Txns(40),
            ..crate::MatrixConfig::fast()
        };
        let report = crate::run_matrix(&config, |_, _, _, _| {});
        let [cell] = &report.runs[..] else {
            panic!("one cell expected, got {}", report.runs.len())
        };
        assert_eq!(cell.invariant_violations, 0);
        assert!(cell.commits >= 17 * 40);
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
            assert_eq!(r.measure.commits, 4 * 120, "{mix:?} fixed budget");
        }
    }
}
