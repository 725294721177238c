//! Whole-STM statistics: commits, aborts, retry behaviour.

use std::sync::atomic::{AtomicU64, Ordering};

use tm_ownership::slots::Slots;

/// Engine-independent counter snapshot: a point-in-time copy of one
/// [`StmStats`] block (or the sum of several) and the one statistics
/// surface every [`TmEngine`](crate::TmEngine), every routed table and the
/// adaptive controller read, so measurement code never has to know which
/// protocol produced the numbers.
///
/// Fields an engine does not track stay zero (the eager engine has no
/// lazy-style abort breakdown; the lazy engine never stalls an acquire and
/// has no strong-isolation accesses). `aborts` is always the total across
/// all abort kinds, so [`abort_ratio`](EngineStats::abort_ratio) is
/// commensurable across engines — the property the paper's
/// cross-organization comparisons need.
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
    /// Eager engine: non-transactional reads under strong isolation.
    pub strong_reads: u64,
    /// Eager engine: non-transactional writes under strong isolation.
    pub strong_writes: u64,
    /// Eager engine: times a strong-isolation access waited for a
    /// transaction.
    pub strong_stalls: u64,
    /// Sum over committed transactions of distinct cache blocks *written*
    /// (the observed counterpart of the model's `W`).
    pub committed_write_blocks: u64,
    /// Sum over committed transactions of distinct footprint units held at
    /// commit — `(1+α)·W` in the model. The lazy engine counts write-set
    /// blocks plus read-set entries. The eager engines count ownership
    /// grants, which is exact for **block-keyed** (tagged) tables; a
    /// tagless table, plain or wrapped in `tm-adaptive`'s resizable table,
    /// keys grants by *entry index*, so a transaction's aliasing blocks
    /// coalesce and this undercounts its block footprint — by about
    /// `F²/2N` for `F` blocks over `N` entries, which vanishes as the
    /// adaptive controller grows the table.
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

    /// Mean fresh-read units per written block (observed `α`), derived
    /// from the grant and write footprints — biased low under an
    /// entry-keyed tagless table (see
    /// [`committed_grant_blocks`](EngineStats::committed_grant_blocks)).
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

/// The one field-wise sum: slots fold into a table's snapshot and tables
/// fold into an engine's through it. The right-hand side is destructured
/// without `..`, so a counter added to the struct fails to compile here
/// instead of being silently dropped from an aggregate.
impl std::ops::AddAssign for EngineStats {
    fn add_assign(&mut self, rhs: Self) {
        let EngineStats {
            commits,
            aborts,
            read_aborts,
            lock_aborts,
            validation_aborts,
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
        self.read_aborts += read_aborts;
        self.lock_aborts += lock_aborts;
        self.validation_aborts += validation_aborts;
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

/// One thread's slot of the counters: the atomic twin of [`EngineStats`].
/// Laid out (`repr(C)`) so that what a committing transaction bumps on
/// either path sits in the slot's first cache line; the abort breakdown and
/// the strong-isolation counters take the second.
#[derive(Debug, Default)]
#[repr(C)]
struct StatCells {
    commits: AtomicU64,
    committed_write_blocks: AtomicU64,
    committed_grant_blocks: AtomicU64,
    read_only_commits: AtomicU64,
    aborts: AtomicU64,
    stall_retries: AtomicU64,
    read_validation_retries: AtomicU64,
    read_aborts: AtomicU64,
    lock_aborts: AtomicU64,
    validation_aborts: AtomicU64,
    strong_reads: AtomicU64,
    strong_writes: AtomicU64,
    strong_stalls: AtomicU64,
}

/// Which of the lazy protocol's three sites ended an attempt (the eager
/// engine's aborts have no such breakdown).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LazyAbort {
    /// In the body: an entry was locked or newer than the snapshot.
    Read,
    /// At commit: a write-set entry could not be locked.
    Lock,
    /// At commit: the read set no longer validated.
    Validation,
}

/// The atomic counters behind every engine's [`EngineStats`]: one block per
/// routed table of a [`crate::Stm`], one for a whole [`crate::LazyStm`].
///
/// Kept in per-thread [`Slots`]: thread `me` below
/// [`SHARED`](tm_ownership::slots::SHARED) is the only writer of its own
/// cache-line-padded slot, so a bump is a `Relaxed` load and a store — no
/// locked instruction and no shared counter line on the hot path. Ids from
/// `SHARED` on share the last slot and bump it with `fetch_add`. That rests
/// on the engine contract that one id runs on one thread at a time
/// ([`TmEngine::run_with`](crate::TmEngine::run_with)).
/// [`StmStats::snapshot`] sums the slots; each event lands in exactly one
/// slot, so quiesced totals are exact and in-flight totals are monotone
/// per slot.
#[derive(Debug, Default)]
pub struct StmStats {
    slots: Slots<StatCells>,
}

impl StmStats {
    /// Add `n` to the cell `pick` selects in thread `me`'s slot.
    #[inline]
    fn add(&self, me: u32, n: u64, pick: impl FnOnce(&StatCells) -> &AtomicU64) {
        let slot = self.slots.get(me);
        slot.add(pick(slot.cells()), n, Ordering::Relaxed);
    }

    /// Count one committed transaction for thread `me`.
    #[inline]
    pub fn on_commit(&self, me: u32) {
        self.add(me, 1, |c| &c.commits);
    }

    /// Count one aborted attempt (of any kind) for thread `me`.
    #[inline]
    pub fn on_abort(&self, me: u32) {
        self.add(me, 1, |c| &c.aborts);
    }

    /// Record which lazy-protocol site an aborted attempt ended at — the
    /// breakdown of, not an addition to, [`on_abort`](Self::on_abort).
    #[inline]
    pub(crate) fn on_lazy_abort(&self, me: u32, site: LazyAbort) {
        self.add(me, 1, |c| match site {
            LazyAbort::Read => &c.read_aborts,
            LazyAbort::Lock => &c.lock_aborts,
            LazyAbort::Validation => &c.validation_aborts,
        });
    }

    /// Fold a whole attempt's stall-retry count in at once. The per-spin
    /// counter lives in the attempt's scratch and is flushed here exactly
    /// once per attempt, so the spin loop itself touches no shared line.
    #[inline]
    pub fn add_stall_retries(&self, me: u32, n: u64) {
        if n > 0 {
            self.add(me, n, |c| &c.stall_retries);
        }
    }

    #[inline]
    pub(crate) fn on_strong(&self, me: u32, write: bool) {
        self.add(me, 1, |c| {
            if write {
                &c.strong_writes
            } else {
                &c.strong_reads
            }
        });
    }

    #[inline]
    pub(crate) fn on_strong_stall(&self, me: u32) {
        self.add(me, 1, |c| &c.strong_stalls);
    }

    /// Count one read-only commit (snapshot read path) for thread `me`.
    #[inline]
    pub fn on_read_commit(&self, me: u32) {
        self.add(me, 1, |c| &c.read_only_commits);
    }

    /// Count one failed read-path validation (and retry) for thread `me`.
    #[inline]
    pub fn on_read_validation_retry(&self, me: u32) {
        self.add(me, 1, |c| &c.read_validation_retries);
    }

    /// Fold one committed transaction's footprint in: distinct written
    /// blocks (the model's `W`) and total footprint units held
    /// (`(1+α)·W`).
    #[inline]
    pub fn on_commit_footprint(&self, me: u32, write_blocks: u64, grant_blocks: u64) {
        let slot = self.slots.get(me);
        let c = slot.cells();
        slot.add_all(
            [
                (&c.committed_write_blocks, write_blocks),
                (&c.committed_grant_blocks, grant_blocks),
            ],
            Ordering::Relaxed,
        );
    }

    /// Sum the slots into a point-in-time copy (exact once threads
    /// quiesce; see the type docs for the aggregation contract).
    pub fn snapshot(&self) -> EngineStats {
        let mut total = EngineStats::default();
        for cells in self.slots.iter() {
            let load = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
            total += EngineStats {
                commits: load(&cells.commits),
                aborts: load(&cells.aborts),
                read_aborts: load(&cells.read_aborts),
                lock_aborts: load(&cells.lock_aborts),
                validation_aborts: load(&cells.validation_aborts),
                stall_retries: load(&cells.stall_retries),
                strong_reads: load(&cells.strong_reads),
                strong_writes: load(&cells.strong_writes),
                strong_stalls: load(&cells.strong_stalls),
                committed_write_blocks: load(&cells.committed_write_blocks),
                committed_grant_blocks: load(&cells.committed_grant_blocks),
                read_only_commits: load(&cells.read_only_commits),
                read_validation_retries: load(&cells.read_validation_retries),
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
        s.on_lazy_abort(2, LazyAbort::Validation);
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
        assert_eq!(snap.validation_aborts, 1);
        assert_eq!(snap.read_aborts + snap.lock_aborts, 0);
        assert_eq!(snap.stall_retries, 1);
        assert_eq!(snap.strong_writes, 1);
        assert_eq!(snap.strong_reads, 1);
        assert_eq!(snap.strong_stalls, 1);
        assert_eq!(snap.read_only_commits, 2);
        assert_eq!(snap.read_validation_retries, 1);
        // Read-only traffic must not leak into the write-side ratios.
        assert_eq!(snap.abort_ratio(), 0.5);
        assert_eq!(EngineStats::default().abort_ratio(), 0.0);
    }

    #[test]
    fn aggregate_carries_every_field() {
        // Every field distinct, no `..Default::default()`: a counter added
        // to the struct breaks this literal until the test covers it, and
        // the exhaustive destructuring in `add_assign` breaks until the
        // sum does.
        let one = EngineStats {
            commits: 1,
            aborts: 2,
            read_aborts: 3,
            lock_aborts: 4,
            validation_aborts: 5,
            stall_retries: 6,
            strong_reads: 7,
            strong_writes: 8,
            strong_stalls: 9,
            committed_write_blocks: 10,
            committed_grant_blocks: 11,
            read_only_commits: 12,
            read_validation_retries: 13,
        };
        let mut total = one;
        total += one;
        total += one;
        let expected = EngineStats {
            commits: 3,
            aborts: 6,
            read_aborts: 9,
            lock_aborts: 12,
            validation_aborts: 15,
            stall_retries: 18,
            strong_reads: 21,
            strong_writes: 24,
            strong_stalls: 27,
            committed_write_blocks: 30,
            committed_grant_blocks: 33,
            read_only_commits: 36,
            read_validation_retries: 39,
        };
        assert_eq!(total, expected);
        // The window between two snapshots is the field-wise difference.
        assert_eq!(total.since(&one), {
            let mut two = one;
            two += one;
            two
        });
    }

    #[test]
    fn slotted_totals_are_exact_across_thread_ids() {
        // Every thread id maps to exactly one slot, ids sharing the last
        // slot accumulate, and the snapshot equals the event count
        // regardless of how ids distribute over slots.
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
