//! The declarative scenario matrix: what the worker threads actually do.
//!
//! A [`Scenario`] is a pure description — engines and thread counts are
//! orthogonal axes chosen by [`crate::run::RunSpec`]. Three families:
//!
//! * **Synthetic** address-level workloads parameterized by footprint,
//!   read/write mix, and access pattern (uniform, Zipf-skewed, hotspot,
//!   disjoint per-thread partitions). Writes are read-modify-write
//!   increments, so the final heap checksum is a whole-run isolation
//!   invariant: `Σ heap = commits × writes_per_txn`.
//! * **Structs** workloads driving `tm-structs` (counter/map/queue/stack,
//!   plus the `list-chase` pointer-chasing family over the dynamic `TList`)
//!   with linearizability-style conservation checks.
//! * **Replay** of `tm-traces` JBB-style block streams, chopped into
//!   fixed-footprint transactions (streams are block-disjoint after true-
//!   conflict filtering, so every cross-thread abort is a false conflict).

use tm_traces::sampler::Zipf;

use rand::rngs::StdRng;
use rand::Rng;

/// A named workload description, independent of engine and thread count.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Stable name used in reports and for CLI selection.
    pub name: String,
    /// The workload family and its parameters.
    pub kind: ScenarioKind,
}

/// The three workload families.
#[derive(Clone, Debug)]
pub enum ScenarioKind {
    /// Address-level synthetic transactions.
    Synthetic(SyntheticSpec),
    /// `tm-structs` data-structure workloads (eager engines only).
    Structs(StructsKind),
    /// `tm-traces` JBB-style block-stream replay.
    Replay(ReplaySpec),
}

/// Parameters of a synthetic address-level workload.
#[derive(Clone, Copy, Debug)]
pub struct SyntheticSpec {
    /// Read-modify-write increments per transaction (the model's `W`).
    pub writes_per_txn: u32,
    /// Plain reads per transaction (fresh blocks, `α·W` in the model).
    pub reads_per_txn: u32,
    /// How block addresses are drawn.
    pub pattern: AccessPattern,
    /// Partition the heap per thread so no true conflicts exist — every
    /// abort is then table-induced (a false conflict).
    pub disjoint: bool,
    /// Yield after each operation so partial footprints interleave even on
    /// boxes with fewer cores than threads (the paper's lockstep overlap).
    pub yield_per_op: bool,
    /// Percent (0–100) of transactions issued as **read-only** transactions
    /// on the engine's wait-free read path (`TmEngine::run_read`). A
    /// read-only transaction performs `reads_per_txn + writes_per_txn`
    /// plain reads (same footprint size as the update mix) and commits
    /// without acquiring any ownership, so it never appears in the
    /// write-side `commits`/`aborts` counters — see
    /// `EngineStats::read_only_commits`.
    pub read_fraction: u32,
    /// Percent (0–100) of update-transaction **attempts** aborted on
    /// purpose (an explicit `retry()` drawn at the top of the body). The
    /// coin is tossed per attempt, so at `p` percent the expected abort
    /// ratio is `p/100` *before* any genuine conflicts — an abort-storm
    /// stressor for contention managers and abort-path accounting. `0`
    /// tosses no coin at all, leaving the RNG streams of pre-existing
    /// scenarios untouched.
    pub forced_abort_pct: u32,
    /// Percent (0–100) of update transactions issued as **transfers**: two
    /// RMW increments, one drawn uniformly from each half of the heap. On a
    /// sharded engine (`tm-shard`, contiguous block spans) the two halves
    /// map to disjoint shard sets for any even shard count, so each
    /// transfer exercises the ordered cross-shard commit; on unsharded
    /// engines it is just a wide two-write transaction, so the scenario
    /// stays runnable on every engine. Transfers keep the heap-checksum
    /// invariant (two increments ⇒ two committed write ops). `0` draws no
    /// coin, leaving pre-existing RNG streams untouched.
    pub cross_shard_pct: u32,
}

/// Block-address distribution of a synthetic workload.
#[derive(Clone, Copy, Debug)]
pub enum AccessPattern {
    /// Uniform over the (possibly per-thread) block universe.
    Uniform,
    /// Zipf-skewed: rank 0 is the most popular block.
    Zipf {
        /// Skew exponent (`0` degenerates to uniform, `~1` is heavy skew).
        exponent: f64,
    },
    /// A small hot region absorbs a fixed share of accesses.
    Hotspot {
        /// Number of blocks in the hot region.
        hot_blocks: u64,
        /// Percent of accesses (0–100) that go to the hot region.
        hot_pct: u32,
    },
}

/// Which `tm-structs` structure a structs scenario exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StructsKind {
    /// Shared `TCounter`: random small deltas; invariant: final value equals
    /// the sum of per-thread committed deltas.
    Counter,
    /// `TMap` with disjoint per-thread key ranges; invariant: final contents
    /// equal each thread's last committed write per key.
    Map,
    /// Shared `TQueue`; invariant: element and value conservation.
    Queue,
    /// Shared `TStack`; invariant: element and value conservation.
    Stack,
    /// Shared sorted `TList` with transactional node alloc/free — the
    /// pointer-chasing workload. Invariants: element/value conservation,
    /// sortedness, and node-pool conservation (no leaked or double-freed
    /// nodes).
    List(ListKeyMix),
}

/// How the `list-chase` workload draws its keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ListKeyMix {
    /// Uniform over the key universe: traversals span the whole list.
    Uniform,
    /// Half the operations target a few smallest keys — short, hot
    /// traversals near the list head contending with long uniform ones.
    Hotspot,
}

/// Parameters of a trace-replay workload.
#[derive(Clone, Copy, Debug)]
pub struct ReplaySpec {
    /// Raw accesses generated per source-trace thread before filtering.
    pub accesses_per_thread: usize,
    /// Block accesses grouped into one transaction.
    pub blocks_per_txn: usize,
}

impl ReplaySpec {
    /// Number of block-disjoint streams the generator produces (the JBB
    /// generator's default warehouse count). Workers beyond this share
    /// streams — correct, but no longer conflict-free across threads.
    pub fn source_streams(&self) -> usize {
        tm_traces::jbb::JbbParams::default().threads
    }
}

impl Scenario {
    fn synthetic(name: &str, spec: SyntheticSpec) -> Self {
        Self {
            name: name.to_string(),
            kind: ScenarioKind::Synthetic(spec),
        }
    }

    /// Uniform mixed workload: 4 RMW increments + 8 reads per transaction.
    pub fn uniform_mixed() -> Self {
        Self::synthetic(
            "uniform-mixed",
            SyntheticSpec {
                writes_per_txn: 4,
                reads_per_txn: 8,
                pattern: AccessPattern::Uniform,
                disjoint: false,
                yield_per_op: false,
                read_fraction: 0,
                forced_abort_pct: 0,
                cross_shard_pct: 0,
            },
        )
    }

    /// Read-dominated: 1 increment + 15 reads.
    pub fn read_heavy() -> Self {
        Self::synthetic(
            "read-heavy",
            SyntheticSpec {
                writes_per_txn: 1,
                reads_per_txn: 15,
                pattern: AccessPattern::Uniform,
                disjoint: false,
                yield_per_op: false,
                read_fraction: 0,
                forced_abort_pct: 0,
                cross_shard_pct: 0,
            },
        )
    }

    /// Read-dominated with 90% of transactions on the **wait-free
    /// read-only path**: the remaining 10% are the `read-heavy` update mix
    /// (1 increment + 15 reads). The scenario the read-path redesign is
    /// for — readers never acquire ownership, so on engines without false
    /// conflicts the writers see zero reader-induced aborts.
    pub fn read_heavy_ro() -> Self {
        Self::synthetic(
            "read-heavy-ro",
            SyntheticSpec {
                writes_per_txn: 1,
                reads_per_txn: 15,
                pattern: AccessPattern::Uniform,
                disjoint: false,
                yield_per_op: false,
                read_fraction: 90,
                forced_abort_pct: 0,
                cross_shard_pct: 0,
            },
        )
    }

    /// Write-dominated: 8 increments + 2 reads.
    pub fn write_heavy() -> Self {
        Self::synthetic(
            "write-heavy",
            SyntheticSpec {
                writes_per_txn: 8,
                reads_per_txn: 2,
                pattern: AccessPattern::Uniform,
                disjoint: false,
                yield_per_op: false,
                read_fraction: 0,
                forced_abort_pct: 0,
                cross_shard_pct: 0,
            },
        )
    }

    /// Zipf-skewed block popularity (object-access skew à la JBB).
    pub fn zipf() -> Self {
        Self::synthetic(
            "zipf",
            SyntheticSpec {
                writes_per_txn: 4,
                reads_per_txn: 8,
                pattern: AccessPattern::Zipf { exponent: 0.8 },
                disjoint: false,
                yield_per_op: false,
                read_fraction: 0,
                forced_abort_pct: 0,
                cross_shard_pct: 0,
            },
        )
    }

    /// Hotspot contention: 25% of accesses hit a 16-block hot region.
    pub fn hotspot() -> Self {
        Self::synthetic(
            "hotspot",
            SyntheticSpec {
                writes_per_txn: 4,
                reads_per_txn: 8,
                pattern: AccessPattern::Hotspot {
                    hot_blocks: 16,
                    hot_pct: 25,
                },
                disjoint: false,
                yield_per_op: false,
                read_fraction: 0,
                forced_abort_pct: 0,
                cross_shard_pct: 0,
            },
        )
    }

    /// Disjoint per-thread partitions: zero true conflicts by construction,
    /// so every abort is a table-induced false conflict.
    pub fn disjoint() -> Self {
        Self::synthetic(
            "disjoint",
            SyntheticSpec {
                writes_per_txn: 8,
                reads_per_txn: 8,
                pattern: AccessPattern::Uniform,
                disjoint: true,
                yield_per_op: false,
                read_fraction: 0,
                forced_abort_pct: 0,
                cross_shard_pct: 0,
            },
        )
    }

    /// Abort storm: the `uniform-mixed` shape with ~60% of update attempts
    /// forced to abort (explicit retry). Exercises the abort/rollback path
    /// and contention-manager behavior at a ratio no organic workload in
    /// the matrix reaches; the heap checksum still must balance, since a
    /// forced abort rolls back like any other.
    pub fn abort_storm() -> Self {
        Self::synthetic(
            "abort-storm",
            SyntheticSpec {
                writes_per_txn: 4,
                reads_per_txn: 8,
                pattern: AccessPattern::Uniform,
                disjoint: false,
                yield_per_op: false,
                read_fraction: 0,
                forced_abort_pct: 60,
                cross_shard_pct: 0,
            },
        )
    }

    /// Shard-skew stressor: 90% of accesses land in a 32-block hot region
    /// — on a sharded engine a single shard absorbs nearly all traffic
    /// (its adaptive controller must grow *that* table while the idle
    /// shards stay small), the worst case for shard-level load balance.
    pub fn shard_hot() -> Self {
        Self::synthetic(
            "shard-hot",
            SyntheticSpec {
                writes_per_txn: 4,
                reads_per_txn: 8,
                pattern: AccessPattern::Hotspot {
                    hot_blocks: 32,
                    hot_pct: 90,
                },
                disjoint: false,
                yield_per_op: false,
                read_fraction: 0,
                forced_abort_pct: 0,
                cross_shard_pct: 0,
            },
        )
    }

    /// Shard-friendly spread: disjoint per-thread partitions (zero true
    /// conflicts). On a sharded engine whose shard count divides the
    /// thread count, every per-thread slice sits inside one shard, so all
    /// transactions take the unchanged single-shard eager fast path — the
    /// scaling showcase for per-shard tables and striped statistics.
    pub fn shard_uniform() -> Self {
        Self::synthetic(
            "shard-uniform",
            SyntheticSpec {
                writes_per_txn: 4,
                reads_per_txn: 4,
                pattern: AccessPattern::Uniform,
                disjoint: true,
                yield_per_op: false,
                read_fraction: 0,
                forced_abort_pct: 0,
                cross_shard_pct: 0,
            },
        )
    }

    /// Mixed single-/cross-shard traffic: 30% of update transactions are
    /// heap-half transfers (see [`SyntheticSpec::cross_shard_pct`]), the
    /// rest the uniform 2-write + 6-read mix. The cell that measures the
    /// ordered two-phase commit's cost against the single-shard fast path
    /// it shares the run with.
    pub fn cross_shard_mix() -> Self {
        Self::synthetic(
            "cross-shard-mix",
            SyntheticSpec {
                writes_per_txn: 2,
                reads_per_txn: 6,
                pattern: AccessPattern::Uniform,
                disjoint: false,
                yield_per_op: false,
                read_fraction: 0,
                forced_abort_pct: 0,
                cross_shard_pct: 30,
            },
        )
    }

    /// Uniform block *writes* only, with per-op yields — the workload of the
    /// `repro --bin adaptive` ablation, which takes its generator from here.
    pub fn uniform_writes(writes_per_txn: u32) -> Self {
        Self::synthetic(
            &format!("uniform-writes-{writes_per_txn}"),
            SyntheticSpec {
                writes_per_txn,
                reads_per_txn: 0,
                pattern: AccessPattern::Uniform,
                disjoint: false,
                yield_per_op: true,
                read_fraction: 0,
                forced_abort_pct: 0,
                cross_shard_pct: 0,
            },
        )
    }

    /// Shared-counter structs workload.
    pub fn counter() -> Self {
        Self {
            name: "counter".into(),
            kind: ScenarioKind::Structs(StructsKind::Counter),
        }
    }

    /// Hash-map structs workload.
    pub fn map() -> Self {
        Self {
            name: "map".into(),
            kind: ScenarioKind::Structs(StructsKind::Map),
        }
    }

    /// FIFO-queue structs workload.
    pub fn queue() -> Self {
        Self {
            name: "queue".into(),
            kind: ScenarioKind::Structs(StructsKind::Queue),
        }
    }

    /// Stack structs workload.
    pub fn stack() -> Self {
        Self {
            name: "stack".into(),
            kind: ScenarioKind::Structs(StructsKind::Stack),
        }
    }

    /// Pointer-chasing over the sorted `TList`, uniform key mix: every
    /// operation traverses the shared linked structure and may allocate or
    /// free a node transactionally.
    pub fn list_chase_uniform() -> Self {
        Self {
            name: "list-chase-uniform".into(),
            kind: ScenarioKind::Structs(StructsKind::List(ListKeyMix::Uniform)),
        }
    }

    /// Pointer-chasing over the sorted `TList`, hotspot key mix: half the
    /// operations hit the few smallest keys near the head.
    pub fn list_chase_hot() -> Self {
        Self {
            name: "list-chase-hot".into(),
            kind: ScenarioKind::Structs(StructsKind::List(ListKeyMix::Hotspot)),
        }
    }

    /// JBB-style trace replay (block-disjoint streams, `W = 8` per txn).
    pub fn replay_jbb() -> Self {
        Self {
            name: "replay-jbb".into(),
            kind: ScenarioKind::Replay(ReplaySpec {
                accesses_per_thread: 20_000,
                blocks_per_txn: 8,
            }),
        }
    }

    /// The full standard matrix, in report order.
    pub fn standard_matrix() -> Vec<Scenario> {
        vec![
            Self::uniform_mixed(),
            Self::read_heavy(),
            Self::read_heavy_ro(),
            Self::write_heavy(),
            Self::zipf(),
            Self::hotspot(),
            Self::disjoint(),
            Self::abort_storm(),
            Self::shard_hot(),
            Self::shard_uniform(),
            Self::cross_shard_mix(),
            Self::counter(),
            Self::map(),
            Self::queue(),
            Self::stack(),
            Self::list_chase_uniform(),
            Self::list_chase_hot(),
            Self::replay_jbb(),
        ]
    }

    /// Look a standard scenario up by its report name
    /// (ASCII-case-insensitive, matching the `--engine` flag's behavior).
    pub fn by_name(name: &str) -> Option<Scenario> {
        Self::standard_matrix()
            .into_iter()
            .find(|s| s.name.eq_ignore_ascii_case(name))
    }

    /// Like [`Scenario::by_name`], but the error spells out every accepted
    /// name — what CLI front-ends should print for a typo'd `--scenario`.
    pub fn by_name_or_describe(name: &str) -> Result<Scenario, String> {
        Self::by_name(name).ok_or_else(|| {
            format!(
                "unknown scenario '{name}' (valid: {})",
                Self::standard_matrix()
                    .iter()
                    .map(|s| s.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
    }

    /// `true` when the workload's data is disjoint across `threads` workers
    /// by construction, making every cross-thread abort a false conflict.
    ///
    /// Thread count matters for replay: the filtered streams are pairwise
    /// block-disjoint, but with more workers than streams two threads
    /// co-replay one stream and genuinely conflict.
    pub fn disjoint_data(&self, threads: u32) -> bool {
        match &self.kind {
            ScenarioKind::Synthetic(spec) => spec.disjoint,
            // Replay streams pass through `remove_true_conflicts`.
            ScenarioKind::Replay(spec) => threads as usize <= spec.source_streams(),
            ScenarioKind::Structs(_) => false,
        }
    }

    /// The synthetic parameters, when this is a synthetic scenario — the
    /// accessor front-ends (repro binaries, the repo benchmark) use to
    /// share one workload generator.
    pub fn synthetic_spec(&self) -> Option<SyntheticSpec> {
        match &self.kind {
            ScenarioKind::Synthetic(spec) => Some(*spec),
            _ => None,
        }
    }

    /// Override the read-only fraction (percent, clamped to 100) of a
    /// synthetic scenario — the `--read-fraction` CLI axis. The name gains
    /// a `+roPCT` suffix so an overridden run never shares a report key
    /// with the unmodified scenario. Returns
    /// `None` for non-synthetic scenarios, where the axis has no meaning.
    pub fn with_read_fraction(&self, pct: u32) -> Option<Scenario> {
        let ScenarioKind::Synthetic(mut spec) = self.kind.clone() else {
            return None;
        };
        spec.read_fraction = pct.min(100);
        Some(Self {
            name: format!("{}+ro{}", self.name, spec.read_fraction),
            kind: ScenarioKind::Synthetic(spec),
        })
    }
}

/// A per-thread deterministic block sampler for synthetic workloads.
///
/// `universe` is the global number of heap blocks; under `disjoint` the
/// sampler confines thread `t` of `threads` to its own contiguous slice.
pub struct BlockSampler {
    base: u64,
    span: u64,
    pattern: AccessPattern,
    zipf: Option<Zipf>,
}

impl BlockSampler {
    /// Build the sampler for one worker thread.
    pub fn new(spec: &SyntheticSpec, universe: u64, thread: u32, threads: u32) -> Self {
        let (base, span) = if spec.disjoint {
            let slice = (universe / threads as u64).max(1);
            (thread as u64 * slice, slice)
        } else {
            (0, universe.max(1))
        };
        let zipf = match spec.pattern {
            AccessPattern::Zipf { exponent } => Some(Zipf::new(span as usize, exponent)),
            _ => None,
        };
        Self {
            base,
            span,
            pattern: spec.pattern,
            zipf,
        }
    }

    /// Build an **unpartitioned** sampler for a bare access pattern over
    /// `universe` blocks — for consumers outside the worker matrix (the
    /// `tm-server` load generator draws its request keys this way) that
    /// want the same pattern vocabulary without a full [`SyntheticSpec`]
    /// or per-thread disjoint slicing.
    pub fn for_pattern(pattern: AccessPattern, universe: u64) -> Self {
        let span = universe.max(1);
        let zipf = match pattern {
            AccessPattern::Zipf { exponent } => Some(Zipf::new(span as usize, exponent)),
            _ => None,
        };
        Self {
            base: 0,
            span,
            pattern,
            zipf,
        }
    }

    /// Draw a block address.
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        let offset = match &self.pattern {
            AccessPattern::Uniform => rng.gen_range(0..self.span),
            AccessPattern::Zipf { .. } => {
                self.zipf.as_ref().expect("zipf built in new").sample(rng) as u64
            }
            AccessPattern::Hotspot {
                hot_blocks,
                hot_pct,
            } => {
                if rng.gen_range(0..100u32) < *hot_pct {
                    rng.gen_range(0..(*hot_blocks).min(self.span))
                } else {
                    rng.gen_range(0..self.span)
                }
            }
        };
        self.base + offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn standard_matrix_names_are_unique_and_resolvable() {
        let matrix = Scenario::standard_matrix();
        for s in &matrix {
            assert!(Scenario::by_name(&s.name).is_some(), "{}", s.name);
            // Case-insensitive, like the engine lookup.
            assert!(
                Scenario::by_name(&s.name.to_uppercase()).is_some(),
                "{} uppercased",
                s.name
            );
        }
        let err = Scenario::by_name_or_describe("bogus").unwrap_err();
        assert!(err.contains("bogus"), "{err}");
        for s in &matrix {
            assert!(err.contains(s.name.as_str()), "{err} missing {}", s.name);
        }
        let mut names: Vec<_> = matrix.iter().map(|s| s.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), matrix.len());
    }

    #[test]
    fn disjoint_sampler_partitions_threads() {
        let spec = SyntheticSpec {
            writes_per_txn: 4,
            reads_per_txn: 0,
            pattern: AccessPattern::Uniform,
            disjoint: true,
            yield_per_op: false,
            read_fraction: 0,
            forced_abort_pct: 0,
            cross_shard_pct: 0,
        };
        let universe = 1024;
        let mut seen = Vec::new();
        for t in 0..4u32 {
            let sampler = BlockSampler::new(&spec, universe, t, 4);
            let mut rng = StdRng::seed_from_u64(t as u64);
            for _ in 0..200 {
                let b = sampler.sample(&mut rng);
                assert!(
                    (t as u64 * 256..(t as u64 + 1) * 256).contains(&b),
                    "thread {t} sampled {b}"
                );
                seen.push(b);
            }
        }
        assert!(seen.iter().any(|&b| b >= 768), "all slices exercised");
    }

    #[test]
    fn hotspot_sampler_respects_hot_share() {
        let spec = SyntheticSpec {
            writes_per_txn: 1,
            reads_per_txn: 0,
            pattern: AccessPattern::Hotspot {
                hot_blocks: 8,
                hot_pct: 50,
            },
            disjoint: false,
            yield_per_op: false,
            read_fraction: 0,
            forced_abort_pct: 0,
            cross_shard_pct: 0,
        };
        let sampler = BlockSampler::new(&spec, 4096, 0, 1);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let hot = (0..n).filter(|_| sampler.sample(&mut rng) < 8).count() as f64;
        // 50% forced hot plus the uniform arm's small spillover.
        let frac = hot / n as f64;
        assert!((0.45..0.60).contains(&frac), "hot fraction {frac}");
    }

    #[test]
    fn disjoint_flag_classification() {
        assert!(Scenario::disjoint().disjoint_data(4));
        assert!(Scenario::replay_jbb().disjoint_data(4));
        // More workers than replay streams ⇒ co-replayers truly conflict.
        assert!(!Scenario::replay_jbb().disjoint_data(8));
        assert!(!Scenario::uniform_mixed().disjoint_data(4));
        assert!(!Scenario::counter().disjoint_data(4));
    }

    #[test]
    fn read_fraction_axis() {
        assert_eq!(
            Scenario::read_heavy_ro()
                .synthetic_spec()
                .unwrap()
                .read_fraction,
            90
        );
        // The update mixes never touch the read path by default.
        assert_eq!(
            Scenario::uniform_mixed()
                .synthetic_spec()
                .unwrap()
                .read_fraction,
            0
        );
        // CLI override clamps to 100% and refuses non-synthetic scenarios.
        let overridden = Scenario::uniform_mixed().with_read_fraction(250).unwrap();
        assert_eq!(overridden.synthetic_spec().unwrap().read_fraction, 100);
        assert_eq!(overridden.name, "uniform-mixed+ro100");
        assert!(Scenario::counter().with_read_fraction(50).is_none());
    }

    #[test]
    fn pattern_sampler_spans_whole_universe() {
        // The unpartitioned constructor covers [0, universe) regardless of
        // pattern, and a Zipf pattern skews toward low ranks.
        let uniform = BlockSampler::for_pattern(AccessPattern::Uniform, 512);
        let mut rng = StdRng::seed_from_u64(7);
        let mut max_seen = 0;
        for _ in 0..4000 {
            let b = uniform.sample(&mut rng);
            assert!(b < 512);
            max_seen = max_seen.max(b);
        }
        assert!(max_seen >= 384, "upper range exercised, max {max_seen}");

        let zipf = BlockSampler::for_pattern(AccessPattern::Zipf { exponent: 0.9 }, 512);
        let low = (0..4000).filter(|_| zipf.sample(&mut rng) < 16).count() as f64 / 4000.0;
        assert!(low > 0.2, "zipf head share {low}");
    }

    #[test]
    fn synthetic_spec_accessor() {
        assert!(Scenario::uniform_mixed().synthetic_spec().is_some());
        assert_eq!(
            Scenario::uniform_writes(16)
                .synthetic_spec()
                .unwrap()
                .writes_per_txn,
            16
        );
        assert!(Scenario::counter().synthetic_spec().is_none());
        assert!(Scenario::replay_jbb().synthetic_spec().is_none());
    }
}
