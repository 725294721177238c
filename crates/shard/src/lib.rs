//! The sharded STM: `tm-stm`'s eager engine routed over S ownership
//! tables, with ordered cross-shard commit.
//!
//! There is one eager engine, [`tm_stm::Stm`], generic over a
//! [`Route`](tm_stm::Route) from cache blocks to ownership tables. This
//! crate supplies the multi-table route — [`ShardMap`], contiguous block
//! spans — and names the engine routed by it: [`ShardedStm`]. The acquire
//! loop, write buffer, publish bracket, retry driver, read path, scratch
//! pool and `TmEngine` impl are `tm-stm`'s, shared with the plain
//! one-table `Stm`; what a multi-table route adds is the home-table pin
//! and the cross-shard mode described below.
//!
//! Why shard at all: one ownership table is the ceiling on raw scale —
//! every grant funnels through it, so t8/t16 throughput flattens well
//! before the hardware does. Routing partitions the **conflict-detection
//! state** — ownership table, commit statistics, and (via `tm-adaptive`)
//! the resize controller — into `S` shards, while keeping **one heap and
//! one publication gate**, so the typed layer, `tm-structs`, and the
//! wait-free `run_read` path work unchanged.
//!
//! # Protocol
//!
//! Transactions start in **eager mode**, pinned to the shard of their
//! first-touched block (the *home* shard). As long as every access stays
//! home, a transaction runs the engine's ordinary eager attempt — grant
//! acquisition with bounded stall-then-abort, buffered writes, one
//! publication-gate bracket at commit — on the home shard's table. A
//! single-shard transaction therefore pays one route lookup per access
//! and nothing else.
//!
//! The first access to a second shard **escalates** the transaction: the
//! attempt is abandoned (grants released, nothing published) and the body
//! restarts in **cross-shard mode**, which acquires *no* grants during the
//! body. Reads are served from a publication-gate-validated heap snapshot
//! (the same epoch scheme as `run_read`, with whole-read-log revalidation
//! when the epoch moves), values are logged, and writes stay buffered.
//! Commit is then an ordered two-phase protocol:
//!
//! 1. **Acquire**: grants for the full footprint — write blocks at
//!    `Access::Write`, read blocks at `Access::Read` — are acquired in
//!    strictly ascending `(shard index, grant key)` order, spinning on
//!    conflict up to a (large, bounded) budget.
//! 2. **Validate + publish**: every logged read value is re-checked
//!    against the heap (grant holds make the checked words stable), then
//!    all buffered stores are published inside a single
//!    [`PublishGate`](tm_stm::PublishGate) bracket and every grant is
//!    released.
//!
//! **Deadlock freedom**: all *blocking* acquisition in the system is the
//! cross-shard commit phase, and it is globally ordered — two committers
//! can never wait on each other in a cycle. Eager-mode transactions
//! acquire unordered but never block unboundedly (bounded stall, then
//! abort-and-release), so every wait in the system terminates. The
//! [`AcquireOrder::Unordered`] mutant exists purely to *prove* the
//! ordering is load-bearing: under opposing cross-shard transfers it
//! produces circular waits that exhaust the acquisition budget.
//!
//! **Reader atomicity**: the publication gate is shared by every shard,
//! and a cross-shard commit publishes its entire write set inside one
//! bracket — a `run_read` transaction can never observe a half-committed
//! cross-shard transaction, regardless of how many shards it spans.
//!
//! # Quick start
//!
//! ```
//! use tm_shard::ShardedStmBuilder;
//! use tm_stm::{ReadOps, StmBuilder, TmEngine, TxnOps};
//!
//! let stm = StmBuilder::new()
//!     .heap_words(1 << 12)
//!     .table_entries(1 << 10)
//!     .shards(4)
//!     .build_sharded_tagless();
//! assert_eq!(stm.shard_count(), 4);
//!
//! // A transfer across the first and last shard commits atomically.
//! let far = (stm.shard_map().block_range(3).start) * 64;
//! stm.heap().store(0, 100);
//! stm.run(0, |txn| {
//!     let v = txn.read(0)?;
//!     txn.write(0, v - 30)?;
//!     txn.write(far, 30)
//! });
//! assert_eq!(stm.heap().load(0) + stm.heap().load(far), 100);
//! assert_eq!(stm.cross_shard_commits(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod builder;
mod map;

pub use builder::ShardedStmBuilder;
pub use map::ShardMap;
pub use tm_stm::{AcquireOrder, DEFAULT_COMMIT_SPINS};

/// The eager engine routed over `S` ownership tables by a [`ShardMap`]:
/// per-shard tables, statistics and (via `tm-adaptive`) resize
/// controllers, over **one** heap and **one** publication gate.
///
/// A distinct type from the one-table `Stm<T, P>` (the route is a type
/// parameter), built via the [`ShardedStmBuilder`] terminals on
/// `tm_stm::StmBuilder` (`.shards(S).build_sharded_tagless()` etc.). See
/// the crate docs for the protocol.
pub type ShardedStm<T, P = tm_stm::NoopProbe> = tm_stm::Stm<T, P, ShardMap>;

#[cfg(test)]
mod tests {
    use super::*;
    use tm_stm::{ReadOps, StmBuilder, TmEngine, TxnOps};

    fn engine(shards: usize) -> ShardedStm<tm_stm::ConcurrentTaglessTable> {
        StmBuilder::new()
            .heap_words(1 << 12)
            .table_entries(1 << 10)
            .shards(shards)
            .build_sharded_tagless()
    }

    /// Word address at the start of `shard`'s block range.
    fn addr_in(stm: &ShardedStm<tm_stm::ConcurrentTaglessTable>, shard: u32) -> u64 {
        stm.shard_map().block_range(shard).start * 64
    }

    #[test]
    fn single_shard_txn_commits_on_home_shard() {
        let stm = engine(4);
        stm.run(0, |txn| {
            let v = txn.read(8)?;
            txn.write(8, v + 41)?;
            txn.write(128, 1) // distinct 64-byte block, same shard
        });
        assert_eq!(stm.heap().load(8), 41);
        assert_eq!(stm.heap().load(128), 1);
        let snaps = stm.shard_snapshots();
        assert_eq!(snaps[0].commits, 1);
        assert_eq!(snaps[0].committed_write_blocks, 2);
        for s in &snaps[1..] {
            assert_eq!(s.commits, 0);
        }
        assert_eq!(stm.cross_shard_commits(), 0);
        assert_eq!(stm.stats().commits, 1);
    }

    #[test]
    fn cross_shard_transfer_escalates_and_commits_once() {
        let stm = engine(4);
        let a = addr_in(&stm, 0);
        let b = addr_in(&stm, 3);
        stm.heap().store(a, 100);
        stm.run(0, |txn| {
            let v = txn.read(a)?;
            txn.write(a, v - 30)?;
            let w = txn.read(b)?;
            txn.write(b, w + 30)
        });
        assert_eq!(stm.heap().load(a), 70);
        assert_eq!(stm.heap().load(b), 30);
        assert_eq!(stm.cross_shard_commits(), 1);
        assert_eq!(stm.cross_shard_aborts(), 0);
        // Escalation must not surface as an abort, and the aggregate
        // counts the transaction exactly once.
        let total = stm.stats();
        assert_eq!(total.commits, 1);
        assert_eq!(total.aborts, 0);
        // The per-shard view records it once per *participating* shard —
        // blocks and commits stay paired, so each shard's mean footprint
        // (the adaptive controllers' sizing input) reflects the traffic
        // that actually landed there.
        assert_eq!(stm.shard_stats(0).commits, 1);
        assert_eq!(stm.shard_stats(3).commits, 1);
        assert_eq!(stm.shard_stats(1).commits, 0);
        assert_eq!(stm.shard_stats(0).committed_write_blocks, 1);
        assert_eq!(stm.shard_stats(3).committed_write_blocks, 1);
    }

    #[test]
    fn cross_shard_read_only_footprint_validates() {
        let stm = engine(2);
        let a = addr_in(&stm, 0);
        let b = addr_in(&stm, 1);
        stm.heap().store(a, 3);
        stm.heap().store(b, 4);
        let sum = stm.run(0, |txn| Ok(txn.read(a)? + txn.read(b)?));
        assert_eq!(sum, 7);
        assert_eq!(stm.cross_shard_commits(), 1);
        assert_eq!(stm.stats().committed_write_blocks, 0);
    }

    #[test]
    fn run_read_sees_committed_state() {
        let stm = engine(4);
        let a = addr_in(&stm, 1);
        stm.run(0, |txn| txn.write(a, 9));
        let v = stm.run_read(1, |txn| txn.read(a));
        assert_eq!(v, 9);
        assert!(stm
            .shard_snapshots()
            .iter()
            .any(|s| s.read_only_commits == 1));
    }

    #[test]
    fn writes_read_back_through_the_buffer_in_both_modes() {
        let stm = engine(4);
        let a = addr_in(&stm, 0);
        let b = addr_in(&stm, 2);
        stm.run(0, |txn| {
            txn.write(a, 5)?;
            assert_eq!(txn.read(a)?, 5); // eager mode: own write visible
            txn.write(b, 6)?; // escalates; body restarts
            assert_eq!(txn.read(a)?, 5); // cross mode: own write visible
            assert_eq!(txn.read(b)?, 6);
            Ok(())
        });
        assert_eq!(stm.heap().load(a), 5);
        assert_eq!(stm.heap().load(b), 6);
    }

    #[test]
    fn unordered_mutant_is_constructible_and_still_commits_solo() {
        // Solo (uncontended) cross-shard txns succeed even under the
        // mutant order; only *opposing* committers deadlock (covered by
        // the atomicity integration test).
        let stm = engine(4).with_acquire_order(AcquireOrder::Unordered);
        assert_eq!(stm.acquire_order(), AcquireOrder::Unordered);
        let a = addr_in(&stm, 0);
        let b = addr_in(&stm, 3);
        stm.run(0, |txn| {
            txn.write(b, 1)?;
            txn.write(a, 2)
        });
        assert_eq!(stm.heap().load(a), 2);
        assert_eq!(stm.heap().load(b), 1);
        assert_eq!(stm.cross_shard_commits(), 1);
    }

    #[test]
    fn cross_shard_commit_probe_hooks_fire() {
        use std::sync::Arc;
        use tm_telemetry::Recorder;

        let recorder = Arc::new(Recorder::new());
        let stm = StmBuilder::new()
            .heap_words(1 << 12)
            .table_entries(1 << 10)
            .shards(4)
            .probe(Arc::clone(&recorder))
            .build_sharded_tagless();
        let b = stm.shard_map().block_range(2).start * 64;
        stm.run(0, |txn| {
            txn.write(0, 1)?;
            txn.write(b, 2)
        });
        let snap = recorder.snapshot();
        assert_eq!(snap.cross_shard_commits, 1);
        assert_eq!(snap.txn.count(), 1);
    }
}
