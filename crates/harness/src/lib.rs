//! tm-harness — the multi-threaded scenario engine with machine-readable
//! results.
//!
//! The paper's argument (Zilles & Rajwar, SPAA 2007) is quantitative:
//! false-conflict rates and throughput knees as functions of table size,
//! footprint, and concurrency. This crate is the workspace's single source
//! of truth for measuring those quantities on **real OS threads**, across
//! every engine in the tree:
//!
//! * the eager STM over **tagless** and **tagged** tables (`tm-stm`),
//! * the lazy TL2-style engine (`tm_stm::lazy`),
//! * the **adaptive** resizable-table STM with its live controller
//!   (`tm-adaptive`),
//! * the **sharded** engines (`tm-shard`): S-way partitioned conflict
//!   detection, plain and adaptive, driven over the `--shards` axis with
//!   per-shard telemetry and cross-shard commit counters in the report.
//!
//! One declarative [`Scenario`] matrix covers uniform/Zipf/hotspot access,
//! read-/write-heavy mixes, disjoint partitions (where every abort is a
//! false conflict), `tm-structs` data-structure workloads with
//! linearizability-style conservation checks, shard-locality scenarios
//! (`shard-hot`/`shard-uniform`/`cross-shard-mix`), and `tm-traces` replay —
//! and because the workloads are written against `tm-stm`'s [`TxnOps`]/
//! [`TmEngine`] traits, **every cell of the engine × scenario cross
//! product runs**, structs-on-lazy included. Every
//! run is seed-deterministic in fixed-budget mode, measures warmup +
//! measured phases, verifies an isolation invariant — the part CI gates
//! on — and serializes into a versioned [`HarnessReport`] (JSON).
//!
//! # Example
//!
//! ```
//! use tm_harness::{execute, EngineKind, Phase, RunSpec, Scenario};
//!
//! let spec = RunSpec {
//!     threads: 2,
//!     warmup: Phase::Txns(10),
//!     measure: Phase::Txns(50),
//!     ..RunSpec::new(EngineKind::EagerTagged, Scenario::uniform_mixed())
//! };
//! let result = execute(&spec);
//! assert_eq!(result.commits, 100);
//! assert_eq!(result.invariant_violations, 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod driver;
pub mod engine;
pub mod json;
pub mod report;
pub mod run;
pub mod scenario;
mod structs_load;

pub use driver::{
    build_replay_streams, phase_loop, run_phase_threads, run_replay_phase, run_synthetic_phase,
    warmup_seed, Phase, PhaseResult, ThreadTally,
};
pub use engine::{EngineKind, EngineStats, ReadOps, TmEngine, TxnOps};
pub use report::{HarnessReport, RunResult, SCHEMA_VERSION};
pub use run::{execute, execute_traced, run_matrix, MatrixConfig, RunSpec};
pub use scenario::{
    AccessPattern, BlockSampler, ListKeyMix, ReplaySpec, Scenario, ScenarioKind, StructsKind,
    SyntheticSpec,
};
