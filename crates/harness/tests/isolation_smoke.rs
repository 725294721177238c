//! Multi-thread isolation smoke: every engine × every workload family on
//! real concurrent threads must finish with zero invariant violations —
//! no lost updates, no torn publishes, no broken conservation laws.

use tm_harness::{execute, EngineKind, Phase, RunSpec, Scenario};

fn smoke(engine: EngineKind, scenario: Scenario) {
    let spec = RunSpec {
        threads: 4,
        warmup: Phase::Txns(20),
        measure: Phase::Txns(150),
        table_entries: 1024, // small table: tagless engines abort plenty
        heap_words: 1 << 14,
        ..RunSpec::new(engine, scenario)
    };
    let name = format!("{}/{}", engine, spec.scenario.name);
    let result = execute(&spec);
    assert_eq!(result.invariant_violations, 0, "{name}: isolation violated");
    assert_eq!(result.commits, 4 * 150, "{name}: fixed budget");
}

#[test]
fn all_engines_preserve_isolation_on_synthetic_contention() {
    for engine in EngineKind::all() {
        smoke(engine, Scenario::hotspot());
    }
}

#[test]
fn all_engines_preserve_isolation_on_uniform_mixed() {
    for engine in EngineKind::all() {
        smoke(engine, Scenario::uniform_mixed());
    }
}

#[test]
fn all_engines_preserve_isolation_on_replay() {
    for engine in EngineKind::all() {
        smoke(engine, Scenario::replay_jbb());
    }
}

#[test]
fn every_engine_preserves_structs_linearizability() {
    // The tm-structs concurrent stress on the full engine matrix: sum of
    // per-thread committed deltas must equal the final structure state,
    // under genuine multi-thread contention — on the eager engines, the
    // adaptive table being resized mid-run, AND the lazy TL2 engine (the
    // cells the pre-trait API could not run).
    for engine in EngineKind::all() {
        smoke(engine, Scenario::counter());
        smoke(engine, Scenario::map());
        smoke(engine, Scenario::queue());
        smoke(engine, Scenario::stack());
    }
}

#[test]
fn every_engine_preserves_list_chase_conservation() {
    // The pointer-chasing workload with transactional node alloc/free: on
    // every engine, under real contention, the surviving list must match
    // the committed insert/remove observations exactly — contents, value
    // sums, sortedness, and node-pool accounting (no leaked or double-freed
    // nodes even when splice transactions abort mid-allocation).
    for engine in EngineKind::all() {
        smoke(engine, Scenario::list_chase_uniform());
        smoke(engine, Scenario::list_chase_hot());
    }
}

#[test]
fn disjoint_aborts_are_all_false_conflicts_and_tagged_has_none() {
    // The paper's central contrast, as a harness assertion: on disjoint
    // data the tagged organization cannot conflict at all, while the
    // tagless one still aborts (aliasing). Small table to make it visible.
    let spec = |engine| RunSpec {
        threads: 4,
        warmup: Phase::Txns(10),
        measure: Phase::Txns(150),
        table_entries: 256,
        heap_words: 1 << 14,
        ..RunSpec::new(engine, Scenario::disjoint())
    };
    let tagged = execute(&spec(EngineKind::EagerTagged));
    assert_eq!(
        tagged.false_conflict_aborts,
        Some(0),
        "tagged aborted on disjoint data"
    );
    let tagless = execute(&spec(EngineKind::EagerTagless));
    // Every abort is false but those refused by a saturated word, whose
    // holders cover two blocks of the entry: that proves nothing.
    let unknown = tagless
        .abort_causes
        .iter()
        .find(|(n, _)| n == "unknown-conflict")
        .map_or(0, |&(_, c)| c);
    assert_eq!(
        tagless.false_conflict_aborts.map(|f| f + unknown),
        Some(tagless.aborts)
    );
    assert_eq!(tagless.invariant_violations, 0);
}

#[test]
fn disjoint_cause_attribution_matches_construction_on_every_engine() {
    // Since schema v3 `false_conflict_aborts` is not derived from the
    // scenario's shape — it is the count of aborts the abort sites
    // themselves tagged `false-conflict`. On data-disjoint workloads the
    // attribution must agree with the construction: no abort is ever a
    // true conflict, on every aliasing engine (eager tagless, lazy TL2,
    // and the adaptive table mid-resize alike).
    let spec = |engine| RunSpec {
        threads: 4,
        warmup: Phase::Txns(10),
        measure: Phase::Txns(150),
        table_entries: 256,
        heap_words: 1 << 14,
        ..RunSpec::new(engine, Scenario::disjoint())
    };
    for engine in [
        EngineKind::EagerTagless,
        EngineKind::Lazy,
        EngineKind::Adaptive,
    ] {
        let r = execute(&spec(engine));
        let cause = |name: &str| {
            r.abort_causes
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |&(_, c)| c)
        };
        assert_eq!(
            cause("true-conflict"),
            0,
            "{engine}: nothing is shared, so no abort is a true conflict: {:?}",
            r.abort_causes
        );
        // Every engine classifies from the one fingerprint the entry word
        // that refused it can hold. A word whose holders cover two blocks
        // of the entry (a peer's own footprint aliasing there, or readers
        // of two blocks sharing it) is saturated, which proves nothing:
        // those aborts, and only those, stay unclassified
        // (`unknown-conflict` at the lock site, and on the lazy engine
        // `validation-failed` at validation).
        let unproven = if engine == EngineKind::Lazy {
            cause("unknown-conflict") + cause("validation-failed")
        } else {
            cause("unknown-conflict")
        };
        assert_eq!(
            r.false_conflict_aborts.map(|f| f + unproven),
            Some(r.aborts),
            "{engine}: every disjoint abort must be cause-tagged false: {:?}",
            r.abort_causes
        );
        let attributed: u64 = r.abort_causes.iter().map(|(_, c)| c).sum();
        assert_eq!(attributed, r.aborts, "{engine}: causes must sum to aborts");
        assert_eq!(r.invariant_violations, 0, "{engine}");
    }

    // And the tagged table's attributed stream contains no false conflicts
    // even on a contended (non-disjoint) workload: record tags make every
    // conflict genuine.
    let tagged = execute(&RunSpec {
        threads: 4,
        warmup: Phase::Txns(10),
        measure: Phase::Txns(150),
        table_entries: 256,
        heap_words: 1 << 14,
        ..RunSpec::new(EngineKind::EagerTagged, Scenario::hotspot())
    });
    assert_eq!(
        tagged.false_conflict_aborts,
        Some(0),
        "tagged tables cannot alias distinct blocks"
    );
}

#[test]
fn counter_aborts_are_never_false() {
    // `TCounter` is one word, so every `counter` conflict is on one block:
    // the word that refuses an increment names that block (or, saturated,
    // proves nothing), on every engine whose table is tagless. Only
    // threads that overlap meet holders as they leave, and a run may have
    // them take turns (a few hundred aborts where an overlapping run has
    // tens of thousands), so timed runs repeat until 5 000 aborts are in
    // or ten runs are done (on one CPU they never overlap that much).
    for engine in [
        EngineKind::EagerTagless,
        EngineKind::Adaptive,
        EngineKind::Sharded,
    ] {
        let mut aborts = 0;
        for seed in 0..10 {
            let r = execute(&RunSpec {
                threads: 4,
                seed,
                warmup: Phase::DurationMs(20),
                measure: Phase::DurationMs(100),
                table_entries: 1024,
                heap_words: 1 << 14,
                ..RunSpec::new(engine, Scenario::counter())
            });
            assert_eq!(
                r.false_conflict_aborts,
                Some(0),
                "{engine}: a same-block conflict called false: {:?} of {}",
                r.abort_causes,
                r.aborts
            );
            assert_eq!(r.invariant_violations, 0, "{engine}");
            aborts += r.aborts;
            if aborts >= 5_000 {
                break;
            }
        }
    }
}
