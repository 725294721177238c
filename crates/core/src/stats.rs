//! Whole-STM statistics: commits, aborts, retry behaviour.

use std::sync::atomic::{AtomicU64, Ordering};

/// Engine-independent counter snapshot — the one statistics surface every
/// [`TmEngine`](crate::TmEngine) exposes, so measurement code never has to
/// know which protocol produced the numbers.
///
/// Fields an engine does not track stay zero (the eager engine has no
/// lazy-style abort breakdown; the lazy engine never stalls an acquire).
/// `aborts` is always the total across all abort kinds, so
/// [`abort_ratio`](EngineStats::abort_ratio) is commensurable across
/// engines — the property the paper's cross-organization comparisons need.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts of all kinds.
    pub aborts: u64,
    /// Lazy engine: aborts at read time (entry locked or newer than the
    /// snapshot).
    pub read_aborts: u64,
    /// Lazy engine: aborts while acquiring commit-time locks.
    pub lock_aborts: u64,
    /// Lazy engine: aborts at read-set validation.
    pub validation_aborts: u64,
    /// Eager engine: acquire re-attempts under the stall policy.
    pub stall_retries: u64,
    /// Sum over committed transactions of distinct cache blocks *written*
    /// (the observed counterpart of the model's `W`).
    pub committed_write_blocks: u64,
    /// Sum over committed transactions of distinct footprint units held at
    /// commit — `(1+α)·W` in the model. For the eager engines this counts
    /// ownership grants (see [`StmStatsSnapshot::committed_grant_blocks`]
    /// for the entry-keyed caveat); for the lazy engine, write-set blocks
    /// plus read-set entries.
    pub committed_grant_blocks: u64,
    /// Read-only transactions committed through the snapshot read path
    /// (`run_read`). Deliberately **not** folded into `commits`: read-only
    /// transactions never touch the ownership table, so mixing them in
    /// would skew every write-side ratio (`abort_ratio`, footprint means).
    pub read_only_commits: u64,
    /// Read-path attempts that failed snapshot/read validation and retried.
    /// The read-path counterpart of `aborts`, kept separate for the same
    /// reason as `read_only_commits`.
    pub read_validation_retries: u64,
}

impl EngineStats {
    /// Aborts per commit — the cost false conflicts impose, comparable
    /// across every engine.
    pub fn abort_ratio(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.aborts as f64 / self.commits as f64
        }
    }

    /// Mean distinct written blocks per committed transaction (observed `W`).
    pub fn mean_write_footprint(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.committed_write_blocks as f64 / self.commits as f64
        }
    }

    /// Mean fresh-read units per written block (observed `α`), derived from
    /// the footprint counters the same way as
    /// [`StmStatsSnapshot::mean_alpha`].
    pub fn mean_alpha(&self) -> f64 {
        if self.committed_write_blocks == 0 {
            0.0
        } else {
            let reads = self
                .committed_grant_blocks
                .saturating_sub(self.committed_write_blocks);
            reads as f64 / self.committed_write_blocks as f64
        }
    }

    /// The window of activity between `earlier` and `self` (all counters
    /// are monotone, so a field-wise saturating difference). Measurement
    /// harnesses use this to isolate a phase's activity.
    pub fn since(&self, earlier: &EngineStats) -> EngineStats {
        EngineStats {
            commits: self.commits.saturating_sub(earlier.commits),
            aborts: self.aborts.saturating_sub(earlier.aborts),
            read_aborts: self.read_aborts.saturating_sub(earlier.read_aborts),
            lock_aborts: self.lock_aborts.saturating_sub(earlier.lock_aborts),
            validation_aborts: self
                .validation_aborts
                .saturating_sub(earlier.validation_aborts),
            stall_retries: self.stall_retries.saturating_sub(earlier.stall_retries),
            committed_write_blocks: self
                .committed_write_blocks
                .saturating_sub(earlier.committed_write_blocks),
            committed_grant_blocks: self
                .committed_grant_blocks
                .saturating_sub(earlier.committed_grant_blocks),
            read_only_commits: self
                .read_only_commits
                .saturating_sub(earlier.read_only_commits),
            read_validation_retries: self
                .read_validation_retries
                .saturating_sub(earlier.read_validation_retries),
        }
    }
}

impl From<StmStatsSnapshot> for EngineStats {
    fn from(s: StmStatsSnapshot) -> Self {
        EngineStats {
            commits: s.commits,
            aborts: s.aborts,
            stall_retries: s.stall_retries,
            committed_write_blocks: s.committed_write_blocks,
            committed_grant_blocks: s.committed_grant_blocks,
            read_only_commits: s.read_only_commits,
            read_validation_retries: s.read_validation_retries,
            ..EngineStats::default()
        }
    }
}

/// Stripes per counter block. Thread `t` writes stripe `t % STAT_STRIPES`,
/// so with ≤ 16 measurement threads no two threads share a counter cache
/// line. Power of two (index by mask).
pub(crate) const STAT_STRIPES: usize = 16;

/// Pick the stripe for a thread id.
#[inline]
fn stripe_of(me: u32) -> usize {
    me as usize & (STAT_STRIPES - 1)
}

/// One stripe cell, padded to two cache lines so neighbouring stripes
/// never false-share.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct Padded<T>(pub(crate) T);

/// The one striped-counter mechanism both engines share: an array of
/// [`STAT_STRIPES`] cache-line-padded cells, selected by thread id.
/// Aggregation contract: every event lands in exactly one stripe and
/// readers sum all stripes, so totals are monotone while threads run and
/// exact at quiescence.
#[derive(Debug)]
pub(crate) struct Striped<T> {
    stripes: Box<[Padded<T>]>,
}

impl<T: Default> Default for Striped<T> {
    fn default() -> Self {
        Self {
            stripes: (0..STAT_STRIPES).map(|_| Padded::default()).collect(),
        }
    }
}

impl<T> Striped<T> {
    /// The cell thread `me` writes.
    #[inline]
    pub(crate) fn stripe(&self, me: u32) -> &T {
        &self.stripes[stripe_of(me)].0
    }

    /// Visit every cell (for snapshot summation).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.stripes.iter().map(|p| &p.0)
    }
}

/// One stripe of the eager engine's counters.
#[derive(Debug, Default)]
struct StatCells {
    commits: AtomicU64,
    aborts: AtomicU64,
    stall_retries: AtomicU64,
    strong_reads: AtomicU64,
    strong_writes: AtomicU64,
    strong_stalls: AtomicU64,
    committed_write_blocks: AtomicU64,
    committed_grant_blocks: AtomicU64,
    read_only_commits: AtomicU64,
    read_validation_retries: AtomicU64,
}

/// Atomic counters shared by all transactions of one [`crate::Stm`].
///
/// Internally **striped**: each thread increments its own cache-line-padded
/// stripe (chosen by thread id), so the hot path never contends on a shared
/// counter line — the pre-optimization design put every thread's
/// `fetch_add` on one adjacent block of `AtomicU64`s, a contention
/// amplifier precisely where the paper measures contention.
/// [`StmStats::snapshot`] sums the stripes; each event lands in exactly one
/// stripe, so quiesced totals are exact (bit-identical to an unsharded
/// implementation) and in-flight totals are monotone per stripe.
#[derive(Debug, Default)]
pub struct StmStats {
    stripes: Striped<StatCells>,
}

/// A point-in-time copy of [`StmStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StmStatsSnapshot {
    /// Transactions committed.
    pub commits: u64,
    /// Transaction aborts (each is followed by a retry or by giving up).
    pub aborts: u64,
    /// Individual acquire re-attempts performed under the stall policy.
    pub stall_retries: u64,
    /// Non-transactional reads performed under strong isolation.
    pub strong_reads: u64,
    /// Non-transactional writes performed under strong isolation.
    pub strong_writes: u64,
    /// Times a strong-isolation access had to wait for a transaction.
    pub strong_stalls: u64,
    /// Sum over committed transactions of distinct cache blocks *written*
    /// (the observed counterpart of the model's `W`).
    pub committed_write_blocks: u64,
    /// Sum over committed transactions of distinct ownership grants held
    /// at commit — `(1+α)·W` in the model for **block-keyed** tables
    /// (tagged, resizable). For a plain tagless table grants are keyed by
    /// *entry index*, so aliasing blocks coalesce and this undercounts the
    /// block footprint; the adaptive controller only consumes it through
    /// block-keyed `ResizableTable`s, where it is exact.
    pub committed_grant_blocks: u64,
    /// Read-only transactions committed via the snapshot read path. Kept
    /// out of `commits` so write-side ratios stay exact.
    pub read_only_commits: u64,
    /// Read-path attempts that failed snapshot validation and retried.
    pub read_validation_retries: u64,
}

impl StmStatsSnapshot {
    /// Aborts per commit — the cost the paper's false conflicts impose.
    pub fn abort_ratio(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.aborts as f64 / self.commits as f64
        }
    }

    /// Mean distinct written blocks per committed transaction (observed `W`).
    pub fn mean_write_footprint(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.committed_write_blocks as f64 / self.commits as f64
        }
    }

    /// Mean fresh-read blocks per written block (observed `α`), derived
    /// from the grant and write footprints. Exact for block-keyed tables;
    /// biased low under an entry-keyed tagless table (see
    /// [`StmStatsSnapshot::committed_grant_blocks`]).
    pub fn mean_alpha(&self) -> f64 {
        if self.committed_write_blocks == 0 {
            0.0
        } else {
            let reads = self
                .committed_grant_blocks
                .saturating_sub(self.committed_write_blocks);
            reads as f64 / self.committed_write_blocks as f64
        }
    }

    /// The window of activity between `earlier` and `self` (all counters
    /// are monotone, so a field-wise saturating difference).
    pub fn since(&self, earlier: &StmStatsSnapshot) -> StmStatsSnapshot {
        StmStatsSnapshot {
            commits: self.commits.saturating_sub(earlier.commits),
            aborts: self.aborts.saturating_sub(earlier.aborts),
            stall_retries: self.stall_retries.saturating_sub(earlier.stall_retries),
            strong_reads: self.strong_reads.saturating_sub(earlier.strong_reads),
            strong_writes: self.strong_writes.saturating_sub(earlier.strong_writes),
            strong_stalls: self.strong_stalls.saturating_sub(earlier.strong_stalls),
            committed_write_blocks: self
                .committed_write_blocks
                .saturating_sub(earlier.committed_write_blocks),
            committed_grant_blocks: self
                .committed_grant_blocks
                .saturating_sub(earlier.committed_grant_blocks),
            read_only_commits: self
                .read_only_commits
                .saturating_sub(earlier.read_only_commits),
            read_validation_retries: self
                .read_validation_retries
                .saturating_sub(earlier.read_validation_retries),
        }
    }
}

/// The one field-wise sum: stripes fold into a table's snapshot and tables
/// fold into an engine's through it. The right-hand side is destructured
/// without `..`, so a counter added to the struct fails to compile here
/// instead of being silently dropped from an aggregate.
impl std::ops::AddAssign for StmStatsSnapshot {
    fn add_assign(&mut self, rhs: Self) {
        let StmStatsSnapshot {
            commits,
            aborts,
            stall_retries,
            strong_reads,
            strong_writes,
            strong_stalls,
            committed_write_blocks,
            committed_grant_blocks,
            read_only_commits,
            read_validation_retries,
        } = rhs;
        self.commits += commits;
        self.aborts += aborts;
        self.stall_retries += stall_retries;
        self.strong_reads += strong_reads;
        self.strong_writes += strong_writes;
        self.strong_stalls += strong_stalls;
        self.committed_write_blocks += committed_write_blocks;
        self.committed_grant_blocks += committed_grant_blocks;
        self.read_only_commits += read_only_commits;
        self.read_validation_retries += read_validation_retries;
    }
}

impl StmStats {
    #[inline]
    fn stripe(&self, me: u32) -> &StatCells {
        self.stripes.stripe(me)
    }

    /// Count one committed transaction for thread `me`.
    pub fn on_commit(&self, me: u32) {
        self.stripe(me).commits.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one aborted attempt for thread `me`.
    pub fn on_abort(&self, me: u32) {
        self.stripe(me).aborts.fetch_add(1, Ordering::Relaxed);
    }

    /// Fold a whole attempt's stall-retry count in at once. The per-spin
    /// counter lives in the attempt's scratch and is flushed here exactly
    /// once per attempt, so the spin loop itself touches no shared line.
    pub fn add_stall_retries(&self, me: u32, n: u64) {
        if n > 0 {
            self.stripe(me)
                .stall_retries
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    pub(crate) fn on_strong(&self, me: u32, write: bool) {
        let stripe = self.stripe(me);
        if write {
            stripe.strong_writes.fetch_add(1, Ordering::Relaxed);
        } else {
            stripe.strong_reads.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn on_strong_stall(&self, me: u32) {
        self.stripe(me)
            .strong_stalls
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Count one read-only commit (snapshot read path) for thread `me`.
    pub fn on_read_commit(&self, me: u32) {
        self.stripe(me)
            .read_only_commits
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Count one failed read-path validation (and retry) for thread `me`.
    pub fn on_read_validation_retry(&self, me: u32) {
        self.stripe(me)
            .read_validation_retries
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Fold one committed transaction's footprint in: distinct written
    /// blocks (the model's `W`) and total grants held (`(1+α)·W`).
    pub fn on_commit_footprint(&self, me: u32, write_blocks: u64, grant_blocks: u64) {
        let stripe = self.stripe(me);
        stripe
            .committed_write_blocks
            .fetch_add(write_blocks, Ordering::Relaxed);
        stripe
            .committed_grant_blocks
            .fetch_add(grant_blocks, Ordering::Relaxed);
    }

    /// Sum the stripes into a point-in-time copy (exact once threads
    /// quiesce; see the type docs for the aggregation contract).
    pub fn snapshot(&self) -> StmStatsSnapshot {
        let mut total = StmStatsSnapshot::default();
        for stripe in self.stripes.iter() {
            let load = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
            total += StmStatsSnapshot {
                commits: load(&stripe.commits),
                aborts: load(&stripe.aborts),
                stall_retries: load(&stripe.stall_retries),
                strong_reads: load(&stripe.strong_reads),
                strong_writes: load(&stripe.strong_writes),
                strong_stalls: load(&stripe.strong_stalls),
                committed_write_blocks: load(&stripe.committed_write_blocks),
                committed_grant_blocks: load(&stripe.committed_grant_blocks),
                read_only_commits: load(&stripe.read_only_commits),
                read_validation_retries: load(&stripe.read_validation_retries),
            };
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = StmStats::default();
        s.on_commit(0);
        s.on_commit(1);
        s.on_abort(2);
        s.add_stall_retries(3, 1);
        s.on_strong(4, true);
        s.on_strong(5, false);
        s.on_strong_stall(6);
        s.on_read_commit(7);
        s.on_read_commit(7);
        s.on_read_validation_retry(8);
        let snap = s.snapshot();
        assert_eq!(snap.commits, 2);
        assert_eq!(snap.aborts, 1);
        assert_eq!(snap.stall_retries, 1);
        assert_eq!(snap.strong_writes, 1);
        assert_eq!(snap.strong_reads, 1);
        assert_eq!(snap.strong_stalls, 1);
        assert_eq!(snap.read_only_commits, 2);
        assert_eq!(snap.read_validation_retries, 1);
        // Read-only traffic must not leak into the write-side ratios.
        assert_eq!(snap.abort_ratio(), 0.5);
    }

    #[test]
    fn aggregate_carries_every_field() {
        // Every field distinct, no `..Default::default()`: a counter added
        // to the struct breaks this literal until the test covers it, and
        // the exhaustive destructuring in `add_assign` breaks until the
        // sum does.
        let one = StmStatsSnapshot {
            commits: 1,
            aborts: 2,
            stall_retries: 3,
            strong_reads: 4,
            strong_writes: 5,
            strong_stalls: 6,
            committed_write_blocks: 7,
            committed_grant_blocks: 8,
            read_only_commits: 9,
            read_validation_retries: 10,
        };
        let mut total = one;
        total += one;
        total += one;
        let expected = StmStatsSnapshot {
            commits: 3,
            aborts: 6,
            stall_retries: 9,
            strong_reads: 12,
            strong_writes: 15,
            strong_stalls: 18,
            committed_write_blocks: 21,
            committed_grant_blocks: 24,
            read_only_commits: 27,
            read_validation_retries: 30,
        };
        assert_eq!(total, expected);
        assert_eq!(total.since(&one), {
            let mut two = one;
            two += one;
            two
        });
    }

    #[test]
    fn abort_ratio_without_commits() {
        assert_eq!(StmStatsSnapshot::default().abort_ratio(), 0.0);
        assert_eq!(EngineStats::default().abort_ratio(), 0.0);
    }

    #[test]
    fn engine_stats_window_and_conversion() {
        let a = EngineStats {
            commits: 10,
            aborts: 4,
            ..Default::default()
        };
        let b = EngineStats {
            commits: 25,
            aborts: 5,
            ..Default::default()
        };
        let w = b.since(&a);
        assert_eq!(w.commits, 15);
        assert_eq!(w.aborts, 1);

        let snap = StmStatsSnapshot {
            commits: 7,
            aborts: 3,
            stall_retries: 2,
            ..Default::default()
        };
        let e = EngineStats::from(snap);
        assert_eq!(e.commits, 7);
        assert_eq!(e.aborts, 3);
        assert_eq!(e.stall_retries, 2);
        assert_eq!(e.read_aborts, 0);
    }

    #[test]
    fn striped_totals_are_exact_across_thread_ids() {
        // Every thread id maps to exactly one stripe, ids sharing a stripe
        // accumulate, and the snapshot equals the event count regardless of
        // how ids distribute over stripes.
        let s = StmStats::default();
        for me in 0..100u32 {
            for _ in 0..=me {
                s.on_commit(me);
            }
            s.add_stall_retries(me, 2);
            s.add_stall_retries(me, 0); // zero-flush must be a no-op
        }
        let snap = s.snapshot();
        assert_eq!(snap.commits, (1..=100).sum::<u64>());
        assert_eq!(snap.stall_retries, 200);
    }
}
