//! Cross-table mode: the escalation only a multi-table [`Route`] can
//! reach.
//!
//! An eager attempt that touches a second table is abandoned and the body
//! restarts here. The body acquires **no** grants: reads are served from a
//! publication-gate-validated heap snapshot (the `run_read` epoch scheme,
//! with whole-read-log revalidation when the epoch moves) and logged by
//! value, writes stay buffered. Commit is an ordered two-phase protocol —
//! enter the participating tables in ascending order, acquire the whole
//! footprint's grants in ascending `(table, grant key)` order, validate the
//! read log under them, publish inside one gate bracket, release and exit.
//! All *blocking* acquisition in the engine is this
//! commit phase and it is globally ordered, so no two committers can wait
//! on each other in a cycle; `tm-shard`'s crate docs carry the full
//! argument.

use std::sync::atomic::Ordering;

use tm_ownership::concurrent::{ConcurrentTable, Held};
use tm_ownership::{Access, AcquireOutcome};
use tm_telemetry::{AbortCause, Probe};

use super::{cause_of_class, Aborted, Route, Stm, Txn};

/// Default spin budget per grant during the cross-table commit's ordered
/// acquisition phase. Deliberately much larger than the eager stall budget:
/// under [`AcquireOrder::ShardOrdered`] every wait is on a *finite-duration*
/// holder (an eager transaction's bounded body or another committer's
/// commit phase), so waiting almost always beats aborting. The budget is a
/// backstop, not the correctness mechanism.
pub const DEFAULT_COMMIT_SPINS: u32 = 1 << 14;

/// Bounded rounds of mid-body read-log revalidation before an attempt
/// gives up and retries through backoff.
const REVALIDATE_ROUNDS: u32 = 64;

/// The table indices set in a table bitmap (≤ 64 tables by builder cap),
/// ascending.
fn tables_of(mut bitmap: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        let shard = bitmap.trailing_zeros();
        bitmap &= bitmap.wrapping_sub(1);
        (shard < u64::BITS).then_some(shard)
    })
}

/// The order the cross-table commit acquires its footprint's grants in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AcquireOrder {
    /// Strictly ascending `(table index, grant key)` — the protocol's
    /// deadlock-freedom-by-construction order.
    #[default]
    ShardOrdered,
    /// Per-transaction first-touch order, unsorted. **A deliberately
    /// wrong mutant** kept so tests can prove the ordering is
    /// load-bearing: opposing cross-table transactions acquire in opposite
    /// orders, produce circular waits, and burn the whole acquisition
    /// budget. To make those cycles materialize deterministically (even on
    /// one hardware thread), the mutant also yields between its commit
    /// acquisitions. Never use outside protocol-validation tests.
    Unordered,
}

impl<T: ConcurrentTable, P: Probe, R: Route> Stm<T, P, R> {
    /// Replace the cross-table acquisition order (builder-style; call
    /// before sharing the engine). [`AcquireOrder::Unordered`] is a
    /// test-only mutant — see its docs.
    pub fn with_acquire_order(mut self, order: AcquireOrder) -> Self {
        self.order = order;
        self
    }

    /// Replace the per-grant commit acquisition spin budget.
    pub fn with_commit_spins(mut self, spins: u32) -> Self {
        self.commit_spins = spins.max(1);
        self
    }

    /// The configured cross-table acquisition order.
    pub fn acquire_order(&self) -> AcquireOrder {
        self.order
    }

    /// Transactions whose committed footprint spanned ≥ 2 tables (always 0
    /// on the one-table route).
    pub fn cross_shard_commits(&self) -> u64 {
        self.cross_commits.load(Ordering::Relaxed)
    }

    /// Cross-table commit attempts that aborted in the ordered acquisition
    /// or validation phase.
    pub fn cross_shard_aborts(&self) -> u64 {
        self.cross_aborts.load(Ordering::Relaxed)
    }
}

impl<T: ConcurrentTable, P: Probe, R: Route> Txn<'_, T, P, R> {
    /// Whether this attempt is running in cross-table mode.
    pub fn is_cross_shard(&self) -> bool {
        self.cross
    }

    /// Whether every logged read still matches the heap.
    fn read_log_holds(&self) -> bool {
        let heap = &self.stm.heap;
        self.scratch
            .rlog
            .iter()
            .all(|&(addr, value)| heap.load(addr) == value)
    }

    /// The publication epoch moved — re-sample it and re-check every
    /// logged read value so the body keeps observing one consistent
    /// snapshot (opacity). Returns the fresh epoch.
    fn revalidate_read_log(&mut self) -> Result<u64, Aborted> {
        for _ in 0..REVALIDATE_ROUNDS {
            let epoch = self.stm.quiescent_epoch().ok_or(Aborted)?;
            if !self.read_log_holds() {
                if P::ENABLED {
                    self.abort_cause = Some(AbortCause::ValidationFailed);
                }
                return Err(Aborted);
            }
            // No publication may have raced the re-check itself.
            if self.stm.publish_gate.still_at(epoch) {
                return Ok(epoch);
            }
        }
        Err(Aborted)
    }

    /// Record `block` in the first-touch order the commit plan starts from.
    pub(super) fn touch_cross(&mut self, block: u64) {
        let s = &mut *self.scratch;
        if !s.write_blocks.contains(block) && !s.read_blocks.contains(block) {
            s.touched.push(block);
        }
    }

    /// Cross-mode read: gate-validated heap load plus value logging; no
    /// ownership-table traffic at all.
    pub(super) fn read_cross(&mut self, addr: u64, block: u64) -> Result<u64, Aborted> {
        let stm = self.stm;
        let mut epoch = match self.epoch {
            Some(e) => e,
            None => stm.quiescent_epoch().ok_or(Aborted)?,
        };
        loop {
            self.epoch = Some(epoch);
            let value = stm.heap.load(addr);
            if stm.publish_gate.still_at(epoch) {
                self.scratch.rlog.push((addr, value));
                self.touch_cross(block);
                self.scratch.read_blocks.insert(block, ());
                return Ok(value);
            }
            epoch = self.revalidate_read_log()?;
        }
    }

    /// Release every commit-phase grant, then exit the tables the commit
    /// entered (error paths and epilogue).
    pub(super) fn release_commit_grants(&mut self) {
        let stm = self.stm;
        for &(shard, key, held) in self.scratch.cgrants.iter() {
            stm.state(shard).table.release(self.id, key, held);
        }
        self.scratch.cgrants.clear();
        for shard in tables_of(std::mem::take(&mut self.commit_tables)) {
            stm.state(shard).table.exit(self.id);
        }
    }

    /// Abort out of the commit phase, returning everything acquired.
    fn abort_commit(&mut self, cause: AbortCause) -> Aborted {
        if P::ENABLED {
            self.abort_cause = Some(cause);
        }
        self.commit_phase_abort = true;
        self.release_commit_grants();
        Aborted
    }

    /// The ordered two-phase cross-table commit. On success the write set
    /// is published (single gate bracket) and all grants are released; on
    /// failure everything acquired is released and the attempt aborts.
    /// Returns the coordinator (lowest participating) table and the span.
    pub(super) fn commit_cross(&mut self) -> Result<(u32, u32), Aborted> {
        let stm = self.stm;

        // Enter every participating table, in ascending order, before the
        // plan takes their grant keys: no table can change its keys until
        // `release_commit_grants` exits it.
        let tables = self.scratch.touched.iter().fold(0u64, |bits, &block| {
            bits | (1 << (stm.route.table_of(block) & 63))
        });
        for shard in tables_of(tables) {
            stm.state(shard).table.enter(self.id);
        }
        self.commit_tables = tables;

        // Build the acquisition plan: one entry per touched block, in
        // first-touch order — written blocks at Write, read-only blocks at
        // Read. The real protocol then sorts by `(table, key)`; the
        // `Unordered` mutant deliberately keeps the per-transaction
        // first-touch order, which is what makes opposing transactions
        // acquire in opposite orders and cycle.
        {
            let s = &mut *self.scratch;
            s.acq.clear();
            for &block in &s.touched {
                let write = s.write_blocks.contains(block);
                let shard = stm.route.table_of(block);
                let key = stm.state(shard).table.grant_key(block);
                s.acq.push((shard, key, write, block));
            }
            if stm.order == AcquireOrder::ShardOrdered {
                // Ascending (table, key); writes before reads on one key so
                // an aliasing read+write acquires Write directly.
                s.acq
                    .sort_unstable_by_key(|&(shard, key, write, _)| (shard, key, !write));
            }
        }

        // Phase 1: acquire, in plan order, each grant under the (large,
        // bounded) commit spin budget.
        for i in 0..self.scratch.acq.len() {
            let (shard, key, write, block) = self.scratch.acq[i];
            let access = if write { Access::Write } else { Access::Read };
            let slot = self
                .scratch
                .cgrants
                .iter()
                .position(|g| g.0 == shard && g.1 == key);
            let held = slot.map_or(Held::None, |j| self.scratch.cgrants[j].2);
            if held == Held::Write || (held == Held::Read && !write) {
                continue; // already held at a sufficient level
            }
            let table = &stm.state(shard).table;
            let mut spins = 0u32;
            loop {
                match table.acquire(self.id, block, access, held) {
                    AcquireOutcome::Granted => {
                        let after = held.after(access);
                        match slot {
                            Some(j) => self.scratch.cgrants[j].2 = after,
                            None => self.scratch.cgrants.push((shard, key, after)),
                        }
                        if P::ENABLED {
                            stm.probe.on_grant(self.id);
                        }
                        // The mutant yields between acquisitions so the
                        // circular waits it exists to demonstrate
                        // materialize deterministically, even on a single
                        // hardware thread.
                        if stm.order == AcquireOrder::Unordered {
                            std::thread::yield_now();
                        }
                        break;
                    }
                    AcquireOutcome::AlreadyHeld => break,
                    AcquireOutcome::Conflict(c) => {
                        if spins >= stm.commit_spins {
                            return Err(self.abort_commit(cause_of_class(c.class)));
                        }
                        spins += 1;
                        self.stall_retries += 1;
                        // Commit waits are long-budget; yield occasionally
                        // so a descheduled grant holder can run on
                        // oversubscribed machines.
                        if spins.is_multiple_of(256) {
                            std::thread::yield_now();
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                }
            }
        }

        // Phase 2a: validate the read log. Every checked word is covered
        // by a grant we now hold, so no writer can be mid-publication on
        // it — the loads are stable.
        if !self.read_log_holds() {
            return Err(self.abort_commit(AbortCause::ValidationFailed));
        }

        // Footprint accounting and attribution: the commit is counted in
        // the lowest participating table; each table's footprint counters
        // get the blocks that actually landed there.
        let s = &*self.scratch;
        let span = tables.count_ones();
        let coordinator = tables.trailing_zeros();
        let mut extra = 0u64;
        for shard_idx in tables_of(tables) {
            let writes = s
                .write_blocks
                .iter()
                .filter(|&(b, _)| stm.route.table_of(b) == shard_idx)
                .count() as u64;
            let grants = s.acq.iter().filter(|&&(sh, ..)| sh == shard_idx).count() as u64;
            let stats = &stm.state(shard_idx).stats;
            stats.on_commit_footprint(self.id, writes, grants);
            // Pair the blocks just recorded with a commit event in the
            // same table (the coordinator's lands in the retry loop): a
            // table whose counters carried cross-table write blocks but no
            // commits would hand its adaptive controller an unboundedly
            // inflated mean footprint, and the controller would answer
            // with a multi-million-entry resize.
            if shard_idx != coordinator {
                stats.on_commit(self.id);
                extra += 1;
            }
        }
        if extra > 0 {
            stm.cross_extra_commits.fetch_add(extra, Ordering::Relaxed);
        }

        // Phase 2b: publish everything inside one gate bracket — readers
        // on the wait-free path observe the whole cross-table write set or
        // none of it — then release.
        self.publish();
        self.release_commit_grants();
        Ok((if span == 0 { 0 } else { coordinator }, span.max(1)))
    }
}
