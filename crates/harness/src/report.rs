//! The versioned, machine-readable harness report.
//!
//! A [`HarnessReport`] is what CI uploads for every harness run. Schema
//! rules (documented for consumers in `benches/README.md`):
//!
//! * `schema_version` is bumped on any **breaking** change (field removal,
//!   rename, or semantic change). Readers should refuse mismatched versions.
//! * Adding new fields is non-breaking: readers ignore unknown fields and
//!   treat missing optional fields as absent.
//! * All counters fit in 53 bits, so JSON numbers round-trip exactly.
//!
//! This crate only *writes* reports; nothing in the tree reads one back
//! (wall-clock A/B comparison lives in `benchmark/run.sh compare`).
//!
//! Serialization goes through the in-tree [`crate::json`] model because the
//! workspace's `serde` is a no-op offline shim (`shims/serde`); swap these
//! hand-written maps for real derives when registry access exists.

use crate::json::{obj, s, unum, Json};

/// Current report schema version.
///
/// v5: the sharded engine (`tm-shard`) landed. Every run carries a
/// `shards` field (the shard-count axis; `1` on engines that do not shard)
/// and sharded cells carry `cross_shard_commits`/`cross_shard_aborts`
/// (measured-phase counts of ordered two-phase commits spanning ≥ 2
/// shards, and of commit-phase cross-shard aborts). Breaking semantic
/// change: the run identity **key** gains a `/sN` component when
/// `shards > 1` (e.g. `sharded/disjoint/t8/s4`), so a v4 reader would
/// mis-match sharded cells against unsharded baselines; unsharded rows
/// keep their v4 keys. The engine axis gains `sharded` and
/// `sharded-adaptive`; the scenario matrix gains `shard-hot`,
/// `shard-uniform`, and `cross-shard-mix`.
///
/// v4: the wait-free read-only path landed. Every run carries
/// `read_only_commits` (transactions committed on `TmEngine::run_read`,
/// never counted in `commits`) and `read_validation_retries` (read-path
/// snapshot-validation retries). Breaking semantic change:
/// `throughput_txn_s` is now **total** committed transactions per second —
/// write-path commits plus read-only commits — so read-mixed scenarios
/// (e.g. `read-heavy-ro`, or any cell run with `--read-fraction`) report
/// their real transaction rate. Cells with no read-only traffic are
/// numerically unchanged.
///
/// v3: every run now carries telemetry — whole-transaction latency
/// percentiles (`latency_p50_ns`/`p95`/`p99`), an `abort_causes` breakdown
/// attributed at the abort site, the observed model parameters
/// (`mean_write_footprint`, `mean_alpha`), and the analytic Eq. 8
/// prediction (`predicted_false_conflicts_per_commit`). Breaking semantic
/// change: `false_conflict_aborts` / `false_conflicts_per_commit` were
/// previously populated only on data-disjoint scenarios (where *every*
/// abort is false by construction); they are now the **cause-attributed**
/// false-conflict counts and are populated on every cell.
///
/// v2: the scenario matrix gained the structs×lazy cells (the engine ×
/// scenario cross product is now full, so baseline coverage expectations
/// changed), and `final_table_entries` now reports the adaptive table's
/// *live* geometry (`ResizableTable::live_config`) rather than a raw entry
/// count read racily off the wrapper — a semantic change of a gated field.
pub const SCHEMA_VERSION: u64 = 5;

/// One (engine, scenario, threads) measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Engine name (see [`crate::engine::EngineKind::name`]).
    pub engine: String,
    /// Scenario name (see [`crate::scenario::Scenario`]).
    pub scenario: String,
    /// Worker OS threads.
    pub threads: u32,
    /// Shard count of the engine under test (`1` on unsharded engines,
    /// whatever `--shards` requested on the `tm-shard` engines). Part of
    /// the run identity when > 1.
    pub shards: u32,
    /// Sharded engines: measured-phase commits whose footprint spanned
    /// ≥ 2 shards (the ordered two-phase commit path). `None` elsewhere.
    pub cross_shard_commits: Option<u64>,
    /// Sharded engines: measured-phase cross-shard commit attempts that
    /// aborted (acquisition budget or commit-time validation).
    pub cross_shard_aborts: Option<u64>,
    /// Ownership-table entries (starting size for the adaptive engine;
    /// total budget split across shards for the sharded engines).
    pub table_entries: u64,
    /// Heap size in words.
    pub heap_words: u64,
    /// Run seed.
    pub seed: u64,
    /// Warmup phase description.
    pub warmup: String,
    /// Measured phase description.
    pub measure: String,
    /// Measured-phase wall-clock seconds.
    pub elapsed_s: f64,
    /// Write-path transactions committed in the measured phase.
    pub commits: u64,
    /// Aborts (all kinds) in the measured phase.
    pub aborts: u64,
    /// Transactions committed on the wait-free read-only path
    /// (`TmEngine::run_read`) in the measured phase. Deliberately not
    /// folded into `commits`: the read path acquires no ownership, so
    /// mixing it in would skew every write-side ratio.
    pub read_only_commits: u64,
    /// Read-path snapshot-validation retries in the measured phase (eager:
    /// publication observed mid-snapshot; lazy: TL2 read validation failed).
    pub read_validation_retries: u64,
    /// Lazy engine: read-time aborts.
    pub read_aborts: u64,
    /// Lazy engine: commit-lock aborts.
    pub lock_aborts: u64,
    /// Lazy engine: validation aborts.
    pub validation_aborts: u64,
    /// Eager engines: stall-policy acquire retries.
    pub stall_retries: u64,
    /// Committed transactions per second over the measured phase —
    /// write-path commits plus read-only commits (since v4).
    pub throughput_txn_s: f64,
    /// Aborts per commit.
    pub aborts_per_commit: f64,
    /// Aborts attributed `false-conflict` at the abort site (distinct
    /// blocks aliasing one table entry). Populated on every cell since v3;
    /// on data-disjoint scenarios it must equal `aborts`.
    pub false_conflict_aborts: Option<u64>,
    /// False conflicts per commit (cause-attributed, as above).
    pub false_conflicts_per_commit: Option<f64>,
    /// Isolation/conservation invariant violations (must be 0).
    pub invariant_violations: u64,
    /// Monte-Carlo (closed-system simulator) prediction of false conflicts
    /// per commit at this operating point, where the simulator applies.
    pub sim_false_conflicts_per_commit: Option<f64>,
    /// Adaptive engine: table entries after the run.
    pub final_table_entries: Option<u64>,
    /// Adaptive engine: resizes performed during the run.
    pub resizes: Option<u64>,
    /// Measured-phase whole-transaction latency, 50th percentile, ns
    /// (`None` when the phase committed nothing).
    pub latency_p50_ns: Option<u64>,
    /// Whole-transaction latency, 95th percentile, ns.
    pub latency_p95_ns: Option<u64>,
    /// Whole-transaction latency, 99th percentile, ns.
    pub latency_p99_ns: Option<u64>,
    /// Abort counts by attributed cause (nonzero causes only), in
    /// [`AbortCause::ALL`](tm_stm::AbortCause::ALL) order. Sums to `aborts`.
    pub abort_causes: Vec<(String, u64)>,
    /// Observed mean committed write footprint `W` (blocks per commit).
    pub mean_write_footprint: f64,
    /// Observed mean fresh-read blocks per written block (the model's `α`).
    pub mean_alpha: f64,
    /// The paper's Eq. 8 prediction of false conflicts per transaction at
    /// the observed operating point (`C` = threads, observed `W` and `α`,
    /// `N` = final live table entries), for the empirical-vs-model
    /// cross-check. `None` when the phase committed nothing.
    pub predicted_false_conflicts_per_commit: Option<f64>,
}

impl RunResult {
    /// The run's identity (it tags every `--trace-out` event line).
    /// Sharded cells append the shard axis (`/sN`), so the same engine at
    /// different shard counts stays distinct; unsharded cells keep the
    /// pre-v5 three-part key.
    pub fn key(&self) -> String {
        if self.shards > 1 {
            format!(
                "{}/{}/t{}/s{}",
                self.engine, self.scenario, self.threads, self.shards
            )
        } else {
            format!("{}/{}/t{}", self.engine, self.scenario, self.threads)
        }
    }

    fn to_json(&self) -> Json {
        let opt_u = |v: Option<u64>| v.map(unum).unwrap_or(Json::Null);
        let opt_f = |v: Option<f64>| v.map(Json::Num).unwrap_or(Json::Null);
        obj(vec![
            ("engine", s(&self.engine)),
            ("scenario", s(&self.scenario)),
            ("threads", unum(self.threads as u64)),
            ("shards", unum(self.shards as u64)),
            ("cross_shard_commits", opt_u(self.cross_shard_commits)),
            ("cross_shard_aborts", opt_u(self.cross_shard_aborts)),
            ("table_entries", unum(self.table_entries)),
            ("heap_words", unum(self.heap_words)),
            ("seed", unum(self.seed)),
            ("warmup", s(&self.warmup)),
            ("measure", s(&self.measure)),
            ("elapsed_s", Json::Num(self.elapsed_s)),
            ("commits", unum(self.commits)),
            ("aborts", unum(self.aborts)),
            ("read_only_commits", unum(self.read_only_commits)),
            (
                "read_validation_retries",
                unum(self.read_validation_retries),
            ),
            ("read_aborts", unum(self.read_aborts)),
            ("lock_aborts", unum(self.lock_aborts)),
            ("validation_aborts", unum(self.validation_aborts)),
            ("stall_retries", unum(self.stall_retries)),
            ("throughput_txn_s", Json::Num(self.throughput_txn_s)),
            ("aborts_per_commit", Json::Num(self.aborts_per_commit)),
            ("false_conflict_aborts", opt_u(self.false_conflict_aborts)),
            (
                "false_conflicts_per_commit",
                opt_f(self.false_conflicts_per_commit),
            ),
            ("invariant_violations", unum(self.invariant_violations)),
            (
                "sim_false_conflicts_per_commit",
                opt_f(self.sim_false_conflicts_per_commit),
            ),
            ("final_table_entries", opt_u(self.final_table_entries)),
            ("resizes", opt_u(self.resizes)),
            ("latency_p50_ns", opt_u(self.latency_p50_ns)),
            ("latency_p95_ns", opt_u(self.latency_p95_ns)),
            ("latency_p99_ns", opt_u(self.latency_p99_ns)),
            (
                "abort_causes",
                Json::Obj(
                    self.abort_causes
                        .iter()
                        .map(|(name, count)| (name.clone(), unum(*count)))
                        .collect(),
                ),
            ),
            ("mean_write_footprint", Json::Num(self.mean_write_footprint)),
            ("mean_alpha", Json::Num(self.mean_alpha)),
            (
                "predicted_false_conflicts_per_commit",
                opt_f(self.predicted_false_conflicts_per_commit),
            ),
        ])
    }
}

/// The versioned report CI stores.
#[derive(Clone, Debug, PartialEq)]
pub struct HarnessReport {
    /// Schema version (see [`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Producing tool ("tm-harness").
    pub generator: String,
    /// Whether the report came from a `--fast` smoke run.
    pub fast: bool,
    /// All measurements, in matrix order.
    pub runs: Vec<RunResult>,
}

impl HarnessReport {
    /// A fresh report at the current schema version.
    pub fn new(fast: bool, runs: Vec<RunResult>) -> Self {
        Self {
            schema_version: SCHEMA_VERSION,
            generator: "tm-harness".to_string(),
            fast,
            runs,
        }
    }

    /// Distinct engine names covered.
    pub fn engines(&self) -> Vec<String> {
        let mut v: Vec<String> = self.runs.iter().map(|r| r.engine.clone()).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Distinct scenario names covered.
    pub fn scenarios(&self) -> Vec<String> {
        let mut v: Vec<String> = self.runs.iter().map(|r| r.scenario.clone()).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Serialize to pretty JSON.
    pub fn to_json_string(&self) -> String {
        obj(vec![
            ("schema_version", unum(self.schema_version)),
            ("generator", s(&self.generator)),
            ("fast", Json::Bool(self.fast)),
            (
                "runs",
                Json::Arr(self.runs.iter().map(RunResult::to_json).collect()),
            ),
        ])
        .to_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::run::{run_matrix, MatrixConfig};
    use crate::{EngineKind, Phase, Scenario};

    /// The writer's output, read back through the in-tree parser: the
    /// documented shape (`benches/README.md`) is what a consumer gets.
    #[test]
    fn report_json_has_the_documented_shape() {
        let config = MatrixConfig {
            engines: vec![EngineKind::EagerTagged, EngineKind::Sharded],
            scenarios: vec![Scenario::uniform_mixed()],
            threads: 2,
            shards: 4,
            table_entries: 1024,
            heap_words: 1 << 13,
            seed: 3,
            warmup: Phase::Txns(5),
            measure: Phase::Txns(20),
            fast: true,
        };
        let report = run_matrix(&config, |_, _, _, _| {});
        assert_eq!(report.engines(), vec!["eager-tagged", "sharded"]);
        assert_eq!(report.scenarios(), vec!["uniform-mixed"]);
        assert_eq!(report.runs[0].key(), "eager-tagged/uniform-mixed/t2");
        assert_eq!(report.runs[1].key(), "sharded/uniform-mixed/t2/s4");

        let v = json::parse(&report.to_json_string()).expect("writer emits valid JSON");
        assert_eq!(
            v.get("schema_version").and_then(Json::as_u64),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(
            v.get("generator").and_then(Json::as_str),
            Some("tm-harness")
        );
        assert_eq!(v.get("fast").and_then(Json::as_bool), Some(true));
        let runs = v.get("runs").and_then(Json::as_arr).expect("runs array");
        assert_eq!(runs.len(), 2);

        const STRINGS: [&str; 4] = ["engine", "scenario", "warmup", "measure"];
        const NUMBERS: [&str; 19] = [
            "threads",
            "shards",
            "table_entries",
            "heap_words",
            "seed",
            "elapsed_s",
            "commits",
            "aborts",
            "read_only_commits",
            "read_validation_retries",
            "read_aborts",
            "lock_aborts",
            "validation_aborts",
            "stall_retries",
            "throughput_txn_s",
            "aborts_per_commit",
            "invariant_violations",
            "mean_write_footprint",
            "mean_alpha",
        ];
        // Numeric where the cell has a value, `null` where it does not.
        const OPTIONAL: [&str; 11] = [
            "cross_shard_commits",
            "cross_shard_aborts",
            "false_conflict_aborts",
            "false_conflicts_per_commit",
            "sim_false_conflicts_per_commit",
            "final_table_entries",
            "resizes",
            "latency_p50_ns",
            "latency_p95_ns",
            "latency_p99_ns",
            "predicted_false_conflicts_per_commit",
        ];
        for (run, result) in runs.iter().zip(&report.runs) {
            for name in STRINGS {
                assert!(run.get(name).and_then(Json::as_str).is_some(), "{name}");
            }
            for name in NUMBERS {
                assert!(run.get(name).and_then(Json::as_f64).is_some(), "{name}");
            }
            for name in OPTIONAL {
                let field = run.get(name).unwrap_or_else(|| panic!("{name} missing"));
                assert!(matches!(field, Json::Null | Json::Num(_)), "{name}");
            }
            assert!(run.get("abort_causes").and_then(Json::as_obj).is_some());
            assert_eq!(
                run.as_obj().expect("run is an object").len(),
                STRINGS.len() + NUMBERS.len() + OPTIONAL.len() + 1,
                "a field was added or removed: update this list and benches/README.md"
            );
            // Exact counters survive the f64 representation.
            assert_eq!(
                run.get("commits").and_then(Json::as_u64),
                Some(result.commits)
            );
            assert_eq!(result.commits, 40);
        }
        assert!(runs[0].get("cross_shard_commits") == Some(&Json::Null));
        assert!(runs[1]
            .get("cross_shard_commits")
            .and_then(Json::as_u64)
            .is_some());
    }
}
