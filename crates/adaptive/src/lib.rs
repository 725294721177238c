//! Feedback-controlled, online-resizable ownership tables.
//!
//! Zilles & Rajwar's central result (*Transactional Memory and the Birthday
//! Paradox*, SPAA 2007) is that a fixed-size tagless ownership table
//! suffers birthday-paradox false conflicts growing **quadratically** with
//! transaction footprint and concurrency — so a production word-based STM
//! must size its table to the workload it is actually running. This crate
//! turns that diagnosis into a cure:
//!
//! * [`ResizableTable`] wraps any [`ConcurrentTable`] in an
//!   active/standby pair behind an [`epoch`] gate that counts the threads
//!   holding grants: a resize turns away first grants, waits for the
//!   holders to finish, and swaps in an empty table of the new geometry —
//!   no in-flight transaction aborts, and transaction logs stay valid
//!   (grant keys are block addresses, immune to rehashing).
//! * [`ResizePolicy`] inverts the paper's Eq. 8 (via [`tm_model::sizing`])
//!   against observed footprint/concurrency, with headroom and hysteresis.
//! * [`AdaptiveController`] closes the loop from a running [`Stm`]'s
//!   statistics stream, one [`tick`](AdaptiveController::tick) per control
//!   epoch.
//!
//! # Example
//!
//! ```
//! use tm_adaptive::{adaptive_stm, ControlReport, ResizePolicy};
//! use tm_stm::{TmEngine, TxnOps};
//!
//! // 64k-word heap, deliberately under-sized 256-entry tagless table,
//! // 4 expected worker threads.
//! let (stm, mut controller) = adaptive_stm(1 << 16, 256, ResizePolicy::default(), 4);
//!
//! // Run a footprint-heavy workload...
//! for t in 0..200u64 {
//!     stm.run(0, |txn| {
//!         for w in 0..16 {
//!             txn.write(((t * 16 + w) % 2048) * 64, w)?;
//!         }
//!         Ok(())
//!     });
//! }
//!
//! // ...and let one control epoch fix the table.
//! match controller.tick(&stm) {
//!     ControlReport::Resized { report, .. } => {
//!         assert!(report.to_entries > 256);
//!         assert_eq!(stm.table().live_entries(), report.to_entries);
//!     }
//!     other => panic!("expected a resize, got {other:?}"),
//! }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod controller;
pub mod epoch;
pub mod policy;
pub mod resizable;

pub use controller::{AdaptiveController, ControlReport};
pub use epoch::EpochGate;
pub use policy::{Decision, Observation, ResizePolicy};
pub use resizable::{ResizableTable, ResizeError, ResizeReport, ResizeStats};

use tm_ownership::concurrent::ConcurrentTable;
use tm_ownership::{ConcurrentTaggedTable, ConcurrentTaglessTable, TableConfig};
use tm_shard::{ShardedStm, ShardedStmBuilder};
use tm_stm::{Probe, Stm, StmBuilder};

/// Terminal methods extending [`StmBuilder`] with the adaptive engines, so
/// the one fluent constructor covers this crate too. Like every other
/// terminal, these are generic over the builder's probe axis: chain
/// `.probe(recorder)` before the terminal to attach telemetry, and the
/// controller reports executed resizes to it as `on_resize` events.
///
/// ```
/// use tm_adaptive::{AdaptiveStmBuilder, ResizePolicy};
/// use tm_stm::{ReadOps, StmBuilder, TmEngine, TxnOps};
///
/// let (stm, mut controller) = StmBuilder::new()
///     .heap_words(1 << 16)
///     .table_entries(256)
///     .build_adaptive(ResizePolicy::default(), 4);
/// stm.run(0, |txn| txn.write(0, 7));
/// assert_eq!(stm.run_read(0, |txn| txn.read(0)), 7);
/// assert_eq!(controller.epochs(), 0);
/// ```
pub trait AdaptiveStmBuilder {
    /// The probe type the built engine carries, inherited from the
    /// builder's `.probe(..)` axis.
    type Probe: Probe;

    /// An eager STM over an adaptively-sized **tagless** table, plus the
    /// controller that keeps the table sized to the workload. Call
    /// [`AdaptiveController::tick`] periodically (timer thread, batch
    /// boundary, metrics scrape) to let the sizing model react.
    fn build_adaptive(
        &self,
        policy: ResizePolicy,
        concurrency: u32,
    ) -> (
        Stm<ResizableTable<ConcurrentTaglessTable>, Self::Probe>,
        AdaptiveController,
    );

    /// Like [`build_adaptive`](AdaptiveStmBuilder::build_adaptive) but over
    /// a **tagged** table: conflicts are always genuine, so resizing here
    /// manages chain lengths (lookup cost) rather than false conflicts.
    fn build_adaptive_tagged(
        &self,
        policy: ResizePolicy,
        concurrency: u32,
    ) -> (
        Stm<ResizableTable<ConcurrentTaggedTable>, Self::Probe>,
        AdaptiveController,
    );

    /// A **sharded** eager STM (`tm-shard`) whose per-shard tables are
    /// each adaptively sized by their own controller — shard `i`'s
    /// geometry tracks shard `i`'s workload slice, so a skewed workload
    /// grows only the hot shard's table. Tick the controllers together
    /// via [`tick_shards`].
    ///
    /// The builder's `table_entries` is the total initial budget (split
    /// per shard as in
    /// [`shard_table_config`](StmBuilder::shard_table_config));
    /// `concurrency` is the expected worker-thread count, passed to every
    /// controller (any thread can transact in any shard).
    fn build_sharded_adaptive(
        &self,
        policy: ResizePolicy,
        concurrency: u32,
    ) -> (
        ShardedStm<ResizableTable<ConcurrentTaglessTable>, Self::Probe>,
        Vec<AdaptiveController>,
    );
}

impl<P: Probe + Clone> AdaptiveStmBuilder for StmBuilder<P> {
    type Probe = P;

    fn build_adaptive(
        &self,
        policy: ResizePolicy,
        concurrency: u32,
    ) -> (
        Stm<ResizableTable<ConcurrentTaglessTable>, P>,
        AdaptiveController,
    ) {
        let table = ResizableTable::with_factory(self.table_config(), ConcurrentTaglessTable::new);
        (
            self.build_with_table(table),
            AdaptiveController::new(policy, concurrency),
        )
    }

    fn build_adaptive_tagged(
        &self,
        policy: ResizePolicy,
        concurrency: u32,
    ) -> (
        Stm<ResizableTable<ConcurrentTaggedTable>, P>,
        AdaptiveController,
    ) {
        let table = ResizableTable::with_factory(self.table_config(), ConcurrentTaggedTable::new);
        (
            self.build_with_table(table),
            AdaptiveController::new(policy, concurrency),
        )
    }

    fn build_sharded_adaptive(
        &self,
        policy: ResizePolicy,
        concurrency: u32,
    ) -> (
        ShardedStm<ResizableTable<ConcurrentTaglessTable>, P>,
        Vec<AdaptiveController>,
    ) {
        let shards = self.configured_shards();
        let tables = (0..shards)
            .map(|_| {
                ResizableTable::with_factory(self.shard_table_config(), ConcurrentTaglessTable::new)
            })
            .collect();
        let controllers = (0..shards)
            .map(|_| AdaptiveController::new(policy, concurrency))
            .collect();
        (self.build_sharded_with_tables(tables), controllers)
    }
}

/// Close one control epoch on **every shard** of a sharded adaptive
/// engine: controller `i` observes shard `i`'s statistics window and
/// resizes shard `i`'s table if its slice of the workload demands it.
/// Returns the per-shard reports, by shard index.
///
/// `controllers.len()` must equal `stm.shard_count()` (as produced by
/// [`AdaptiveStmBuilder::build_sharded_adaptive`]).
pub fn tick_shards<T: ConcurrentTable, P: Probe>(
    stm: &ShardedStm<ResizableTable<T>, P>,
    controllers: &mut [AdaptiveController],
) -> Vec<ControlReport> {
    assert_eq!(
        controllers.len(),
        stm.shard_count(),
        "one controller per shard required"
    );
    controllers
        .iter_mut()
        .enumerate()
        .map(|(i, c)| c.tick_with(stm.shard_table(i), stm.shard_stats(i), stm.probe()))
        .collect()
}

/// Shorthand for [`StmBuilder`]`::new().heap_words(..).table_entries(..)
/// .build_adaptive(..)` (see [`AdaptiveStmBuilder`]).
pub fn adaptive_stm(
    heap_words: usize,
    initial_entries: usize,
    policy: ResizePolicy,
    concurrency: u32,
) -> (
    Stm<ResizableTable<ConcurrentTaglessTable>>,
    AdaptiveController,
) {
    StmBuilder::new()
        .heap_words(heap_words)
        .table_entries(initial_entries)
        .build_adaptive(policy, concurrency)
}

/// Convenience: a bare resizable tagless table (no STM), for direct use or
/// simulation.
pub fn resizable_tagless(cfg: TableConfig) -> ResizableTable<ConcurrentTaglessTable> {
    ResizableTable::with_factory(cfg, ConcurrentTaglessTable::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_ownership::concurrent::ConcurrentTable;

    #[test]
    fn constructors_wire_up() {
        let (stm, ctl) = adaptive_stm(1024, 256, ResizePolicy::default(), 2);
        assert_eq!(stm.table().live_entries(), 256);
        assert_eq!(ctl.epochs(), 0);

        let (stm, _ctl) = StmBuilder::new()
            .heap_words(1024)
            .table_entries(128)
            .build_adaptive_tagged(ResizePolicy::default(), 2);
        assert_eq!(stm.table().live_entries(), 128);

        let t = resizable_tagless(TableConfig::new(64));
        assert_eq!(ConcurrentTable::num_entries(&t), 64);
    }

    #[test]
    fn sharded_adaptive_ticks_each_shard_independently() {
        use tm_stm::{TmEngine, TxnOps};

        let (stm, mut controllers) = StmBuilder::new()
            .heap_words(1 << 16)
            .table_entries(1 << 10)
            .shards(4)
            .build_sharded_adaptive(ResizePolicy::default(), 8);
        assert_eq!(stm.shard_count(), 4);
        assert_eq!(controllers.len(), 4);
        // Total budget split per shard: 1024 / 4 = 256 entries each.
        for i in 0..4 {
            assert_eq!(stm.shard_table(i).live_entries(), 256);
        }

        // Footprint-heavy traffic confined to shard 0's block span.
        let span = stm.shard_map().block_range(0);
        let blocks = span.end - span.start;
        for t in 0..200u64 {
            stm.run(0, |txn| {
                for w in 0..24 {
                    txn.write(((t * 24 + w) % blocks) * 64, w)?;
                }
                Ok(())
            });
        }

        let reports = tick_shards(&stm, &mut controllers);
        assert_eq!(reports.len(), 4);
        // The hot shard grew; the idle shards had nothing to act on.
        match &reports[0] {
            ControlReport::Resized { report, .. } => {
                assert!(report.to_entries > 256, "grew to {}", report.to_entries);
                assert_eq!(stm.shard_table(0).live_entries(), report.to_entries);
            }
            other => panic!("expected hot shard to resize, got {other:?}"),
        }
        for (i, r) in reports.iter().enumerate().skip(1) {
            assert!(
                matches!(r, ControlReport::InsufficientEvidence { .. }),
                "idle shard {i} should lack evidence, got {r:?}"
            );
            assert_eq!(stm.shard_table(i).live_entries(), 256);
        }
    }
}
