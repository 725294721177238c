//! What the five workloads share: sizes, the per-round result, the
//! measurement window around a throughput phase, and dispatch by name.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use tm_ownership::concurrent::ConcurrentTable;
use tm_shard::ShardedStm;
use tm_stm::{EngineStats, Probe, Stm, TmEngine};

use crate::procfs;
use crate::{peak_heap_bytes, reset_peak_heap, svc, txn, ALLOC_EVENTS};

/// Heap words, and the service's key universe: every workload uses 64Ki.
pub const HEAP_WORDS: usize = 1 << 16;
/// 64-byte blocks in that heap (the harness samples block addresses).
pub const HEAP_BLOCKS: u64 = (HEAP_WORDS as u64 * 8) / 64;

/// How much of the declared op counts to run: 1 for measurement, 100 for
/// the self-check.
#[derive(Clone, Copy, Debug)]
pub struct Scale(pub u64);

impl Scale {
    /// `count` scaled down, kept a positive multiple of `multiple`.
    pub fn ops(self, count: u64, multiple: u64) -> u64 {
        ((count / self.0) / multiple).max(1) * multiple
    }
}

/// What one round of a workload hands back.
#[derive(Debug, Default)]
pub struct Round {
    /// Round-level metric values by declared name.
    pub values: Vec<(&'static str, f64)>,
    /// Operations issued (requests or transactions), every phase counted.
    pub attempted: u64,
    /// Operations refused, errored or unanswered, plus failed checks.
    pub failed: u64,
}

/// How one round is run.
#[derive(Clone, Copy, Debug)]
pub struct RoundArgs {
    pub seed: u64,
    pub scale: Scale,
    /// Also run the phases only per-layer metrics need.
    pub trace: bool,
    /// Self-check only: falsify the expected increment total by one, to
    /// show that the conservation check fires.
    pub corrupt: bool,
}

/// The five workloads, in `BENCHMARK.json` order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SvcRead,
    SvcWrite,
    SvcMixedTcp,
    TxnSolo,
    TxnBirthday,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::SvcRead,
        Workload::SvcWrite,
        Workload::SvcMixedTcp,
        Workload::TxnSolo,
        Workload::TxnBirthday,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SvcRead => "svc-read",
            Workload::SvcWrite => "svc-write",
            Workload::SvcMixedTcp => "svc-mixed-tcp",
            Workload::TxnSolo => "txn-solo",
            Workload::TxnBirthday => "txn-birthday",
        }
    }

    pub fn by_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The service workloads have a request ledger and server threads.
    pub fn is_service(self) -> bool {
        matches!(
            self,
            Workload::SvcRead | Workload::SvcWrite | Workload::SvcMixedTcp
        )
    }

    pub fn round(self, args: RoundArgs) -> Round {
        match self {
            Workload::TxnSolo => txn::solo_round(args),
            Workload::TxnBirthday => txn::birthday_round(args),
            service => svc::round(service, args),
        }
    }
}

/// The engine-side counts a measurement window reads, over the two eager
/// engine types the workloads run on.
pub trait EngineCounts: TmEngine {
    /// Ownership-table grants issued so far, all tables.
    fn table_grants(&self) -> u64;
    /// Commits that spanned more than one ownership table.
    fn cross_table_commits(&self) -> u64 {
        0
    }
}

impl<T: ConcurrentTable, P: Probe> EngineCounts for Stm<T, P> {
    fn table_grants(&self) -> u64 {
        self.table().stats_snapshot().grants
    }
}

impl<T: ConcurrentTable, P: Probe> EngineCounts for ShardedStm<T, P> {
    fn table_grants(&self) -> u64 {
        (0..self.shard_count())
            .map(|i| self.shard_table(i).stats_snapshot().grants)
            .sum()
    }

    fn cross_table_commits(&self) -> u64 {
        self.cross_shard_commits()
    }
}

/// One edge of a measurement window. The `/proc` walk is slow, so it sits
/// outside the clock and CPU-time readings on both edges.
pub struct Edge {
    pub at: Instant,
    pub cpu_ns: u64,
    pub allocs: u64,
    /// Most heap bytes live at one time since the window opened.
    pub peak_heap: u64,
    pub engine: EngineStats,
    pub grants: u64,
    pub cross_commits: u64,
    pub os: procfs::Snapshot,
}

impl Edge {
    pub fn open<E: EngineCounts>(engine: &E) -> Self {
        let os = procfs::snapshot();
        reset_peak_heap();
        Self::read(engine, os)
    }

    /// Call while every thread of interest is still alive.
    pub fn close<E: EngineCounts>(engine: &E) -> Self {
        let (at, cpu_ns) = (Instant::now(), procfs::process_cpu_ns());
        // The heap peak is read here too, before the `/proc` walk allocates.
        let mut edge = Self::read(engine, procfs::Snapshot::default());
        (edge.at, edge.cpu_ns, edge.os) = (at, cpu_ns, procfs::snapshot());
        edge
    }

    fn read<E: EngineCounts>(engine: &E, os: procfs::Snapshot) -> Self {
        Self {
            engine: engine.engine_stats(),
            grants: engine.table_grants(),
            cross_commits: engine.cross_table_commits(),
            allocs: ALLOC_EVENTS.load(Ordering::Relaxed),
            peak_heap: peak_heap_bytes(),
            os,
            cpu_ns: procfs::process_cpu_ns(),
            at: Instant::now(),
        }
    }
}

/// A closed measurement window over `ops` operations.
pub struct Window {
    pub ops: f64,
    pub wall: Duration,
    pub cpu_ns: f64,
    pub allocs: f64,
    pub peak_heap_mb: f64,
    pub engine: EngineStats,
    pub grants: f64,
    pub cross_commits: f64,
    pub os: procfs::Delta,
}

impl Window {
    pub fn between(open: &Edge, close: &Edge, ops: u64) -> Self {
        Self {
            ops: ops as f64,
            wall: close.at.duration_since(open.at),
            cpu_ns: close.cpu_ns.saturating_sub(open.cpu_ns) as f64,
            allocs: (close.allocs - open.allocs) as f64,
            peak_heap_mb: close.peak_heap as f64 / (1 << 20) as f64,
            engine: close.engine.since(&open.engine),
            grants: (close.grants - open.grants) as f64,
            cross_commits: (close.cross_commits - open.cross_commits) as f64,
            os: close.os.since(&open.os),
        }
    }

    /// The metrics every workload derives from its whole throughput phase.
    pub fn common_metrics(&self) -> Vec<(&'static str, f64)> {
        let commits = self.engine.commits as f64;
        vec![
            ("peak_heap_mb", self.peak_heap_mb),
            (
                "stm.aborts_per_commit",
                ratio(self.engine.aborts as f64, commits),
            ),
            (
                "stm.stall_retries_per_commit",
                ratio(self.engine.stall_retries as f64, commits),
            ),
            ("ownership.grants_per_commit", ratio(self.grants, commits)),
            (
                "shard.cross_commit_share",
                ratio(self.cross_commits, commits),
            ),
            (
                "batch.idle_share",
                (1.0 - self.cpu_ns / self.wall.as_nanos() as f64).max(0.0),
            ),
        ]
    }
}

/// Wall and CPU time of the consecutive slices of a throughput phase. A
/// slice is tens of milliseconds: long against a clock reading, short
/// against a neighbour's burst, so that some slices of a run are quiet.
pub struct Meter {
    at: Instant,
    cpu_ns: u64,
    /// `ops_per_s` and `cpu_ns_per_op` of every slice so far.
    pub values: Vec<(&'static str, f64)>,
}

impl Meter {
    pub fn start() -> Self {
        Self {
            cpu_ns: procfs::process_cpu_ns(),
            at: Instant::now(),
            values: Vec::new(),
        }
    }

    /// Close a slice of `ops` operations and open the next.
    pub fn lap(&mut self, ops: u64) {
        let (at, cpu_ns) = (Instant::now(), procfs::process_cpu_ns());
        let wall = at.duration_since(self.at).as_secs_f64();
        self.values.extend([
            ("ops_per_s", ops as f64 / wall),
            (
                "cpu_ns_per_op",
                cpu_ns.saturating_sub(self.cpu_ns) as f64 / ops as f64,
            ),
        ]);
        (self.at, self.cpu_ns) = (at, cpu_ns);
    }
}

/// `num / den`, 0 when the denominator is 0 (the workload has none of it).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_counts_stay_positive_multiples() {
        assert_eq!(Scale(1).ops(600_000, 64), 600_000);
        assert_eq!(Scale(100).ops(600_000, 64) % 64, 0);
        assert_eq!(Scale(100).ops(100, 64), 64);
        assert_eq!(Scale(100).ops(5, 1), 1);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::by_name(w.name()), Some(w));
        }
        assert_eq!(Workload::by_name("nope"), None);
    }
}
