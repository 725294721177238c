//! Seed-determinism: in fixed-budget mode at one thread, the same seed must
//! produce the identical commit/abort counts (and heap state) on every
//! engine — the property that makes harness runs reproducible artifacts.

use tm_harness::{execute, EngineKind, Phase, RunSpec, Scenario};

fn spec(engine: EngineKind, scenario: Scenario, seed: u64) -> RunSpec {
    RunSpec {
        threads: 1,
        seed,
        warmup: Phase::Txns(20),
        measure: Phase::Txns(100),
        table_entries: 1024,
        heap_words: 1 << 14,
        ..RunSpec::new(engine, scenario)
    }
}

#[test]
fn same_seed_same_counts_every_engine_and_family() {
    // One scenario per workload family, on every engine — full cross product.
    let scenarios = [
        Scenario::uniform_mixed(),
        Scenario::zipf(),
        Scenario::hotspot(),
        Scenario::counter(),
        Scenario::list_chase_uniform(),
        Scenario::replay_jbb(),
    ];
    for engine in EngineKind::all() {
        for scenario in &scenarios {
            let a = execute(&spec(engine, scenario.clone(), 0xDEAD));
            let b = execute(&spec(engine, scenario.clone(), 0xDEAD));
            let label = format!("{}/{}", engine, scenario.name);
            assert_eq!(a.commits, b.commits, "{label} commits");
            assert_eq!(a.aborts, b.aborts, "{label} aborts");
            assert_eq!(a.commits, 100, "{label} fixed budget");
            assert_eq!(a.invariant_violations, 0, "{label} invariant");
        }
    }
}

#[test]
fn different_seeds_change_the_workload() {
    // The sampled footprints (and hence the final per-block heap image)
    // must depend on the seed; identical heaps would mean the seed is
    // ignored somewhere in the sampler chain. Run the phase driver
    // directly so the heap can be inspected.
    use tm_harness::{run_synthetic_phase, Phase, TmEngine};

    let heap_words = 1 << 14;
    let spec = Scenario::uniform_mixed().synthetic_spec().unwrap();
    let image = |seed: u64| -> Vec<u64> {
        let stm = tm_stm::StmBuilder::new()
            .heap_words(heap_words)
            .table_entries(1024)
            .build_tagged();
        run_synthetic_phase(&stm, &spec, heap_words, 1, Phase::Txns(100), seed);
        (0..heap_words as u64)
            .map(|w| stm.heap().load(w * 8))
            .collect()
    };
    let a1 = image(1);
    let a2 = image(1);
    let b = image(2);
    assert_eq!(a1, a2, "same seed must reproduce the identical heap image");
    assert_ne!(a1, b, "different seeds must sample different footprints");
    // Both runs committed the same total increments either way.
    assert_eq!(
        a1.iter().sum::<u64>(),
        b.iter().sum::<u64>(),
        "fixed budget fixes total committed writes"
    );
}
