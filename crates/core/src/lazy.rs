//! A lazy (commit-time locking, invisible readers) STM over the versioned
//! tagless table — the TL2/McRT-style design the paper's §2.1 alludes to:
//! "Even STM implementations that do not visibly track readers would need to
//! assign an ownership table entry for the read location to record version
//! numbers."
//!
//! Protocol (global-version-clock TL2):
//!
//! 1. **Begin**: sample the global clock into `rv`.
//! 2. **Read**: sample the block's entry stamp; abort if locked or newer
//!    than `rv` (the value may be inconsistent); read the heap word; re-check
//!    the stamp; record `(entry, version)` in the read set.
//! 3. **Write**: buffer locally.
//! 4. **Commit**: lock every write-set entry (sorted, CAS on the sampled
//!    version), increment the clock to get `wv`, validate the read set,
//!    publish the buffered writes, release locks installing `wv`.
//!
//! Because the versioned table is **tagless**, a committing writer bumps the
//! version of every block aliasing its entries: concurrent readers of
//! *unrelated* data fail validation. The paper's false-conflict law thus
//! applies to this engine too — it just manifests at validation time, which
//! [`LazyStm::stats`] separates out.

use std::sync::atomic::{AtomicU64, Ordering};

use tm_ownership::versioned::{VersionedStats, VersionedTable};
use tm_ownership::{fingerprint_of, BlockMapper, TableConfig, ThreadId, FP_NONE, FP_SATURATED};
use tm_telemetry::{AbortCause, NoopProbe, Probe};

use crate::contention::{drive, Attempt, Path, RetryPolicy};
use crate::engine::{ReadOps, TmEngine, TxnOps};
use crate::heap::Heap;
use crate::readpath::READ_SPINS;
use crate::scratch::ScratchGuard;
use crate::stats::{EngineStats, LazyAbort, StmStats};
use crate::stm::{Aborted, RetryLimitExceeded};

/// Classify a conflict by comparing the fingerprint found in the entry word
/// (the last/current writer's block) against the fingerprint of the block
/// this transaction accessed there. Unknown or saturated fingerprints on
/// either side prove nothing.
#[inline]
fn classify_fp(theirs: u32, mine: u32) -> AbortCause {
    if theirs == FP_NONE || theirs == FP_SATURATED || mine == FP_NONE || mine == FP_SATURATED {
        AbortCause::UnknownConflict
    } else if theirs == mine {
        AbortCause::TrueConflict
    } else {
        AbortCause::FalseConflict
    }
}

/// A TL2-style software transactional memory (see the [module docs](self)).
///
/// Implements [`TmEngine`], which is how transactions are run; build one
/// with [`StmBuilder::build_lazy`](crate::StmBuilder::build_lazy).
#[derive(Debug)]
pub struct LazyStm<P: Probe = NoopProbe> {
    heap: Heap,
    table: VersionedTable,
    clock: AtomicU64,
    stats: StmStats,
    probe: P,
}

impl<P: Probe> LazyStm<P> {
    /// An STM over a `heap_words`-word heap and a versioned tagless table
    /// of geometry `cfg`, reporting to `probe`. This is what
    /// [`StmBuilder::build_lazy`](crate::StmBuilder::build_lazy) calls.
    pub fn with_config_probed(heap_words: usize, cfg: TableConfig, probe: P) -> Self {
        Self {
            heap: Heap::new(heap_words),
            table: VersionedTable::new(cfg),
            clock: AtomicU64::new(1),
            stats: StmStats::default(),
            probe,
        }
    }

    /// The attached telemetry probe.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// The versioned table (for stats inspection).
    pub fn table(&self) -> &VersionedTable {
        &self.table
    }

    /// Engine-level statistics in the unified cross-engine shape:
    /// `aborts` is the total, with the lazy protocol's read/lock/validation
    /// breakdown in the dedicated fields.
    pub fn stats(&self) -> EngineStats {
        self.stats.snapshot()
    }

    /// Table-level statistics (commit-time locks, and the samples, locks
    /// and validations that met contention).
    pub fn table_stats(&self) -> VersionedStats {
        self.table.stats()
    }
}

/// The lazy engine's two attempts. The loop around them — budget, backoff,
/// outcome counters, probe bracket — is `contention::drive`.
impl<P: Probe> TmEngine for LazyStm<P> {
    type Txn<'e>
        = LazyTxn<'e, P>
    where
        Self: 'e;

    type ReadTxn<'e>
        = LazyReadTxn<'e, P>
    where
        Self: 'e;

    /// One attempt is `begin → body → commit`.
    fn run_with<'s, R>(
        &'s self,
        me: ThreadId,
        policy: RetryPolicy,
        mut body: impl FnMut(&mut LazyTxn<'s, P>) -> Result<R, Aborted>,
    ) -> Result<R, RetryLimitExceeded> {
        drive(&self.probe, me, policy, Path::Update, || {
            let mut txn = LazyTxn::begin(self, me);
            let (site, cause) = match body(&mut txn) {
                Ok(r) => match txn.commit() {
                    Ok(()) => return Attempt::Committed(r, &self.stats),
                    // The commit site attributed the cause itself.
                    Err(attributed) => attributed,
                },
                Err(Aborted) => (
                    LazyAbort::Read,
                    txn.abort_cause.take().unwrap_or(AbortCause::ExplicitRetry),
                ),
            };
            self.stats.on_lazy_abort(me, site);
            Attempt::Aborted(cause, &self.stats)
        })
    }

    /// The TL2 read-only fast path. Each attempt samples the global clock
    /// into a fresh `rv` and serves every read by version sampling alone —
    /// no read set, no scratch checkout, no commit-time locking, nothing a
    /// writer ever waits on. A read whose entry is locked or newer than
    /// `rv` aborts the attempt (after a bounded spin on a transient lock)
    /// and the next one starts from a fresh snapshot.
    fn run_read_with<'s, R>(
        &'s self,
        me: ThreadId,
        policy: RetryPolicy,
        mut body: impl FnMut(&mut LazyReadTxn<'s, P>) -> Result<R, Aborted>,
    ) -> Result<R, RetryLimitExceeded> {
        drive(&self.probe, me, policy, Path::ReadOnly, || {
            let mut txn = LazyReadTxn {
                stm: self,
                rv: self.clock.load(Ordering::Acquire),
                mapper: self.table.config().mapper(),
                reads: 0,
            };
            Attempt::read_only(body(&mut txn), &self.stats)
        })
    }

    fn engine_stats(&self) -> EngineStats {
        self.stats()
    }

    fn heap(&self) -> &Heap {
        &self.heap
    }
}

/// An in-flight lazy transaction: invisible read set plus write buffer.
///
/// Like the eager [`crate::Txn`], all per-attempt structures — read set,
/// write buffer, and the commit-time lock buffers — live in a recycled
/// [`TxnScratch`](crate::scratch::TxnScratch), and the block mapper is
/// cached at begin, so steady-state attempts allocate nothing.
#[derive(Debug)]
pub struct LazyTxn<'s, P: Probe = NoopProbe> {
    stm: &'s LazyStm<P>,
    id: ThreadId,
    rv: u64,
    mapper: BlockMapper,
    scratch: ScratchGuard,
    reads: u64,
    writes: u64,
    /// Cause of the abort that ended this attempt (telemetry only; set at
    /// the failing read, consumed by the retry loop).
    abort_cause: Option<AbortCause>,
}

impl<'s, P: Probe> LazyTxn<'s, P> {
    fn begin(stm: &'s LazyStm<P>, id: ThreadId) -> Self {
        Self {
            stm,
            id,
            rv: stm.clock.load(Ordering::Acquire),
            mapper: stm.table.config().mapper(),
            scratch: ScratchGuard::checkout(),
            reads: 0,
            writes: 0,
            abort_cause: None,
        }
    }

    /// Distinct entries in the validation set.
    pub fn read_set_len(&self) -> usize {
        self.scratch.read_set.len()
    }

    /// Buffered (not yet committed) writes in this attempt.
    pub fn pending_writes(&self) -> usize {
        self.scratch.wbuf.len()
    }

    fn read_validated(&mut self, addr: u64) -> Result<u64, Aborted> {
        self.reads += 1;
        if let Some(v) = self.scratch.wbuf.get(addr) {
            return Ok(v);
        }
        let block = self.mapper.block_of(addr);
        let my_fp = fingerprint_of(block);
        let entry = self.stm.table.entry_of(block);
        let pre = self.stm.table.sample(entry);
        if pre.locked || pre.version > self.rv {
            // The entry word names the block of the writer that locked or
            // last bumped it — compare fingerprints to attribute the abort.
            if P::ENABLED {
                self.abort_cause = Some(classify_fp(pre.fp, my_fp));
            }
            return Err(Aborted);
        }
        let value = self.stm.heap.load(addr);
        // Re-check: if the stamp moved during the read, the value may be torn.
        let post = self.stm.table.sample(entry);
        if post.locked || post.version != pre.version {
            if P::ENABLED {
                self.abort_cause = Some(classify_fp(post.fp, my_fp));
            }
            return Err(Aborted);
        }
        // Consistency across entries: remember the first-observed version
        // (and the block fingerprint, for commit-time attribution).
        match self.scratch.read_set.get(entry) {
            Some((v, _)) if v != pre.version => {
                if P::ENABLED {
                    self.abort_cause = Some(classify_fp(pre.fp, my_fp));
                }
                return Err(Aborted);
            }
            Some(_) => {}
            None => {
                self.scratch.read_set.insert(entry, (pre.version, my_fp));
            }
        }
        Ok(value)
    }

    /// On failure, returns the site that refused the commit and the
    /// attributed abort cause (the caller counts the one and hands the
    /// other to the driver).
    fn commit(mut self) -> Result<(), (LazyAbort, AbortCause)> {
        let stm = self.stm;
        let scratch = &mut *self.scratch;
        if scratch.wbuf.is_empty() {
            // Read-only transactions commit without locking: every read was
            // consistent at `rv`.
            stm.stats
                .on_commit_footprint(self.id, 0, scratch.read_set.len() as u64);
            return Ok(());
        }

        // Lock the write set in ascending entry order (no deadlock), CASing
        // on the currently-sampled version and installing the written
        // block's fingerprint for concurrent aborters to classify against.
        // The sort/dedup buffer and the locked list are retained scratch —
        // this path allocates nothing once warm.
        scratch.entry_buf.clear();
        for (block, _) in scratch.write_blocks.iter() {
            scratch
                .entry_buf
                .push((stm.table.entry_of(block), fingerprint_of(block)));
        }
        scratch.entry_buf.sort_unstable();
        scratch.entry_buf.dedup();
        // Distinct blocks aliasing into one entry: keep one record, with a
        // saturated fingerprint (the entry covers more than one block).
        let mut w = 0;
        for i in 0..scratch.entry_buf.len() {
            if w > 0 && scratch.entry_buf[w - 1].0 == scratch.entry_buf[i].0 {
                scratch.entry_buf[w - 1].1 = FP_SATURATED;
            } else {
                scratch.entry_buf[w] = scratch.entry_buf[i];
                w += 1;
            }
        }
        scratch.entry_buf.truncate(w);

        scratch.locked_buf.clear();
        for i in 0..scratch.entry_buf.len() {
            let (entry, fp) = scratch.entry_buf[i];
            let stamp = stm.table.sample(entry);
            // Whoever beat us (a live locker or a completed bumper) left its
            // block fingerprint in the word that refused us. Classify from
            // that word, never a re-sample: a locker that has since aborted
            // restores an older writer's fingerprint.
            let refused = if stamp.locked {
                Err(stamp)
            } else {
                stm.table.try_lock_fp(entry, stamp.version, fp)
            };
            if let Err(theirs) = refused {
                let cause = classify_fp(theirs.fp, fp);
                for &(e, v, pfp) in &scratch.locked_buf {
                    stm.table.unlock_restore_fp(e, v, pfp);
                }
                return Err((LazyAbort::Lock, cause));
            }
            scratch.locked_buf.push((entry, stamp.version, stamp.fp));
        }

        let wv = stm.clock.fetch_add(1, Ordering::AcqRel) + 1;

        // Validate the read set (entries we locked ourselves pass).
        for (entry, (version, my_fp)) in scratch.read_set.iter() {
            let mine = scratch.locked_buf.iter().find(|&&(e, _, _)| e == entry);
            // If we locked it ourselves, its pre-lock version must match
            // what we read; `validate` sees the locked state, so check the
            // recorded pre-lock version directly in that case. Either way
            // the failure carries the fingerprint of the word that was
            // judged: for entries we locked ourselves the live word holds
            // OUR fingerprint — the invalidator's is the one sampled just
            // before locking, preserved in `locked_buf`.
            let judged = match mine {
                Some(&(_, v, _)) if v == version => Ok(()),
                Some(&(_, _, pre_lock_fp)) => Err(pre_lock_fp),
                None => stm.table.validate(entry, version, false).map_err(|s| s.fp),
            };
            if let Err(their_fp) = judged {
                // A provably-aliasing invalidator is a false conflict; a
                // provably-same-block one a true conflict; otherwise the
                // generic validation failure.
                let cause = match classify_fp(their_fp, my_fp) {
                    AbortCause::UnknownConflict => AbortCause::ValidationFailed,
                    c => c,
                };
                for &(e, v, pfp) in &scratch.locked_buf {
                    stm.table.unlock_restore_fp(e, v, pfp);
                }
                return Err((LazyAbort::Validation, cause));
            }
        }

        // Publish and release.
        for (addr, value) in scratch.wbuf.iter() {
            stm.heap.store(addr, value);
        }
        for &(entry, _, _) in &scratch.locked_buf {
            stm.table.unlock_bump(entry, wv);
        }

        // Footprint observation (the model's W and (1+α)·W) for the
        // adaptive controller and the harness's per-cell means.
        let write_blocks = scratch.write_blocks.len() as u64;
        stm.stats.on_commit_footprint(
            self.id,
            write_blocks,
            write_blocks + scratch.read_set.len() as u64,
        );
        Ok(())
    }
}

/// The lazy transaction's read surface: reads validate against the
/// snapshot clock (invisible readers).
impl<P: Probe> ReadOps for LazyTxn<'_, P> {
    fn read(&mut self, addr: u64) -> Result<u64, Aborted> {
        self.read_validated(addr)
    }

    fn read_count(&self) -> u64 {
        self.reads
    }
}

/// The lazy transaction's write surface: writes are buffered and only lock
/// at commit time.
impl<P: Probe> TxnOps for LazyTxn<'_, P> {
    fn write(&mut self, addr: u64, value: u64) -> Result<(), Aborted> {
        self.writes += 1;
        // Track distinct written blocks as we go (the model's observed W;
        // commit derives its lock set from this, already deduplicated).
        self.scratch
            .write_blocks
            .insert(self.mapper.block_of(addr), ());
        self.scratch.wbuf.insert(addr, value);
        Ok(())
    }

    fn write_count(&self) -> u64 {
        self.writes
    }
}

/// An in-flight **read-only** TL2 transaction: the classic invisible-reader
/// fast path. A few words on the stack — snapshot clock, cached mapper —
/// and *no read set*: because nothing is ever locked at commit,
/// proving each read individually consistent at `rv` proves the whole
/// transaction serializes at `rv`.
#[derive(Debug)]
pub struct LazyReadTxn<'s, P: Probe = NoopProbe> {
    stm: &'s LazyStm<P>,
    /// Global-clock sample this transaction serializes at.
    rv: u64,
    mapper: BlockMapper,
    reads: u64,
}

impl<P: Probe> ReadOps for LazyReadTxn<'_, P> {
    fn read(&mut self, addr: u64) -> Result<u64, Aborted> {
        let block = self.mapper.block_of(addr);
        let entry = self.stm.table.entry_of(block);
        let mut spins = 0u32;
        loop {
            let pre = self.stm.table.sample(entry);
            if pre.locked {
                // Commit-time locks are held for a bounded publication
                // window — spin briefly before giving the attempt up.
                if spins >= READ_SPINS {
                    return Err(Aborted);
                }
                spins += 1;
                std::hint::spin_loop();
                continue;
            }
            if pre.version > self.rv {
                // Newer than our snapshot: only a fresh `rv` can help.
                return Err(Aborted);
            }
            let value = self.stm.heap.load(addr);
            // Re-check: if the stamp moved during the read, the value may
            // be torn.
            let post = self.stm.table.sample(entry);
            if post.locked || post.version != pre.version {
                if spins >= READ_SPINS {
                    return Err(Aborted);
                }
                spins += 1;
                std::hint::spin_loop();
                continue;
            }
            self.reads += 1;
            return Ok(value);
        }
    }

    fn read_count(&self) -> u64 {
        self.reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StmBuilder;

    fn lazy_stm(heap_words: usize, table_entries: usize) -> LazyStm {
        StmBuilder::new()
            .heap_words(heap_words)
            .table_entries(table_entries)
            .build_lazy()
    }

    #[test]
    fn read_write_commit() {
        let stm = lazy_stm(64, 256);
        stm.heap().store(0, 5);
        let r = stm.run(0, |txn| {
            let v = txn.read(0)?;
            txn.write(8, v + 1)?;
            Ok(v)
        });
        assert_eq!(r, 5);
        assert_eq!(stm.heap().load(8), 6);
        assert_eq!(stm.stats().commits, 1);
    }

    #[test]
    fn reads_own_writes() {
        let stm = lazy_stm(64, 256);
        stm.run(0, |txn| {
            txn.write(0, 42)?;
            assert_eq!(txn.read(0)?, 42);
            assert_eq!(stm.heap().load(0), 0, "write must stay buffered");
            Ok(())
        });
        assert_eq!(stm.heap().load(0), 42);
    }

    #[test]
    fn read_only_transactions_do_not_lock() {
        let stm = lazy_stm(64, 256);
        stm.run(0, |txn| txn.read(0));
        assert_eq!(stm.table_stats().locks, 0);
    }

    #[test]
    fn version_clock_advances_per_writing_commit() {
        let stm = lazy_stm(64, 256);
        for i in 0..5u64 {
            stm.run(0, |txn| txn.write(0, i));
        }
        // Entry version equals the number of writing commits + initial clock.
        let e = stm.table().entry_of(0);
        assert_eq!(stm.table().sample(e).version, 1 + 5);
    }

    #[test]
    fn concurrent_counter_is_exact() {
        let stm = std::sync::Arc::new(lazy_stm(64, 1024));
        let threads = 4u32;
        let increments = 500u64;
        crossbeam::scope(|s| {
            for id in 0..threads {
                let stm = &stm;
                s.spawn(move |_| {
                    for _ in 0..increments {
                        stm.run(id, |txn| txn.update(0, |v| v + 1).map(|_| ()));
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(stm.heap().load(0), threads as u64 * increments);
        assert_eq!(stm.stats().commits, threads as u64 * increments);
    }

    #[test]
    fn conservation_under_contention() {
        let stm = std::sync::Arc::new(lazy_stm(1024, 512));
        let cells = 32u64;
        for i in 0..cells {
            stm.heap().store(i * 8, 100);
        }
        crossbeam::scope(|s| {
            for id in 0..4u32 {
                let stm = &stm;
                s.spawn(move |_| {
                    let mut x = (id as u64 + 1) * 0x9E37_79B9;
                    for _ in 0..800 {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(11);
                        let a = (x >> 30) % cells;
                        let b = (x >> 10) % cells;
                        if a == b {
                            continue;
                        }
                        stm.run(id, |txn| {
                            let va = txn.read(a * 8)?;
                            let vb = txn.read(b * 8)?;
                            txn.write(a * 8, va - va.min(5))?;
                            txn.write(b * 8, vb + va.min(5))?;
                            Ok(())
                        });
                    }
                });
            }
        })
        .unwrap();
        let total: u64 = (0..cells).map(|i| stm.heap().load(i * 8)).sum();
        assert_eq!(total, cells * 100);
    }

    #[test]
    fn false_validation_abort_on_aliasing_blocks() {
        use tm_ownership::HashKind;
        // 2-entry table, mask hash: blocks 0 and 2 share entry 0. A reader
        // of block 0 must be invalidated by a commit to block 2 even though
        // the data is disjoint — the false conflict, lazy edition.
        let stm = StmBuilder::new()
            .heap_words(256)
            .table_entries(2)
            .hash(HashKind::Mask)
            .build_lazy();
        let mut attempt = 0;
        let r = stm.try_run(0, 2, |txn| {
            attempt += 1;
            let v = txn.read(0)?; // block 0 → entry 0
            if attempt == 1 {
                // A conflicting writer commits to block 2 (addr 128) while
                // we're live.
                stm.run(1, |w| w.write(128, 9));
            }
            // Reading another word of block 0 re-validates entry 0 against
            // the recorded version and must now fail (same entry, version
            // moved).
            let _ = txn.read(8)?;
            Ok(v)
        });
        assert_eq!(attempt, 2, "first attempt must abort, second succeed");
        assert!(r.is_ok());
        assert!(stm.stats().read_aborts >= 1);
    }

    #[test]
    fn read_path_serializes_at_snapshot() {
        let stm = lazy_stm(64, 256);
        stm.heap().store(0, 7);
        stm.heap().store(8, 35);
        let before = stm.table_stats();
        let v = stm.run_read(0, |txn| {
            let a = txn.read(0)?;
            let b = txn.read(8)?;
            assert_eq!(txn.read_count(), 2);
            Ok(a + b)
        });
        assert_eq!(v, 42);
        // No locks taken, and the outcome lands only in the read counters.
        assert_eq!(stm.table_stats().locks, before.locks);
        let s = stm.stats();
        assert_eq!(s.read_only_commits, 1);
        assert_eq!(s.commits, 0);
        assert_eq!(s.aborts, 0);
    }

    #[test]
    fn read_path_snapshot_is_never_torn() {
        // The writer keeps the pair equal transactionally; read-only
        // snapshots must never observe a half-published commit.
        let stm = std::sync::Arc::new(lazy_stm(64, 1024));
        let rounds = 2000u64;
        crossbeam::scope(|s| {
            let w = &stm;
            s.spawn(move |_| {
                for _ in 0..rounds {
                    w.run(0, |t| {
                        let v = t.read(0)?;
                        t.write(0, v + 1)?;
                        t.write(8, v + 1)
                    });
                }
            });
            for id in 1..3u32 {
                let r = &stm;
                s.spawn(move |_| {
                    for _ in 0..rounds {
                        let (a, b) = r.run_read(id, |t| Ok((t.read(0)?, t.read(8)?)));
                        assert_eq!(a, b, "torn read-only snapshot");
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(stm.heap().load(0), rounds);
        assert_eq!(stm.stats().read_only_commits, 2 * rounds);
    }

    #[test]
    fn try_run_budget() {
        let stm = lazy_stm(64, 256);
        let r: Result<(), _> = stm.try_run(0, 2, |_txn| Err(Aborted));
        assert_eq!(r, Err(RetryLimitExceeded { attempts: 2 }));
        assert_eq!(stm.stats().read_aborts, 2);
    }

    #[test]
    fn stats_windowing_and_ratio() {
        let stm = lazy_stm(64, 256);
        stm.run(0, |txn| txn.write(0, 1));
        let mid = stm.stats();
        let _: Result<(), _> = stm.try_run(0, 3, |_txn| Err(Aborted));
        stm.run(0, |txn| txn.write(8, 2));
        let window = stm.stats().since(&mid);
        assert_eq!(window.commits, 1);
        assert_eq!(window.read_aborts, 3);
        assert_eq!(window.aborts, 3);
        assert_eq!(window.abort_ratio(), 3.0);
        assert_eq!(EngineStats::default().abort_ratio(), 0.0);
    }

    #[test]
    fn write_skew_prevented_by_validation() {
        // Classic snapshot-isolation anomaly: two transactions each read
        // both cells and write one. Serializability requires one to abort
        // and retry; the final state must satisfy x + y >= 1 decrement only.
        let stm = std::sync::Arc::new(lazy_stm(64, 1024));
        stm.heap().store(0, 1);
        stm.heap().store(64, 1); // different blocks
        crossbeam::scope(|s| {
            for id in 0..2u32 {
                let stm = &stm;
                s.spawn(move |_| {
                    stm.run(id, |txn| {
                        let x = txn.read(0)?;
                        let y = txn.read(64)?;
                        if x + y >= 2 {
                            // "withdraw" from my side
                            if id == 0 {
                                txn.write(0, x - 1)?;
                            } else {
                                txn.write(64, y - 1)?;
                            }
                        }
                        Ok(())
                    });
                });
            }
        })
        .unwrap();
        let (x, y) = (stm.heap().load(0), stm.heap().load(64));
        assert_eq!(
            x + y,
            1,
            "exactly one withdrawal may see x+y>=2 under serializability (got x={x} y={y})"
        );
    }
}
