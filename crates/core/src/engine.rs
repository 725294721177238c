//! The unified transaction API: one operation surface ([`TxnOps`]), one
//! engine contract ([`TmEngine`]), one constructor ([`StmBuilder`]).
//!
//! The paper's thesis is that false-conflict scaling is a property of the
//! *ownership-table organization*, not of any one STM protocol. The API
//! mirrors that: workloads and data structures are written once against
//! these traits and run unchanged over the eager engine (any
//! [`ConcurrentTable`]) and the lazy TL2-style engine — so every workload
//! can be measured on every organization.
//!
//! * [`ReadOps`] is the read-only operation surface — what a
//!   [`TmEngine::run_read`] body sees. [`TxnOps`] extends it with the write
//!   surface for read-write bodies. [`Txn`] and [`LazyTxn`](crate::LazyTxn)
//!   implement both; the read-only [`ReadTxn`](crate::ReadTxn) and
//!   [`LazyReadTxn`](crate::LazyReadTxn) implement only [`ReadOps`], so a
//!   write inside a read-only body is a *compile error*, not a runtime
//!   abort. `tm-structs` structures are generic over these traits, so they
//!   compose into any engine's transactions.
//! * [`TmEngine`] is what a driver sees: `run`/`try_run`/`run_with` under a
//!   per-call [`RetryPolicy`], the wait-free read-only path
//!   ([`run_read`](TmEngine::run_read)), the shared [`Heap`], and a unified
//!   [`EngineStats`] snapshot with `since()`/`abort_ratio()` that makes
//!   cross-engine numbers commensurable. An engine implements the two
//!   `*_with` methods by handing the crate's one retry driver
//!   (`contention.rs`) a closure that makes a single attempt; everything
//!   else on the trait is provided.
//! * [`StmBuilder`] is the constructor: one fluent entry point covering
//!   table geometry, contention policy and telemetry probe, with a typed
//!   terminal per engine (`build_tagless`, `build_tagged`, `build_lazy`,
//!   and `build_with_table` for wrapped tables such as `tm-adaptive`'s
//!   resizable one).
//!
//! # The same closure on every engine
//!
//! ```
//! use tm_stm::{ReadOps, StmBuilder, TmEngine, TxnOps};
//!
//! // One workload, written against the traits...
//! fn transfer<E: TmEngine>(stm: &E) -> u64 {
//!     stm.heap().store(0, 100);
//!     stm.run(0, |txn| {
//!         let a = txn.read(0)?;
//!         txn.write(64, a / 2)?;
//!         txn.update(0, |v| v / 2)
//!     });
//!     // Read it back without touching the ownership table at all.
//!     stm.run_read(0, |txn| txn.read(0))
//! }
//!
//! // ...runs identically on all three engine families.
//! let b = StmBuilder::new().heap_words(64).table_entries(256);
//! assert_eq!(transfer(&b.build_tagless()), 50);
//! assert_eq!(transfer(&b.build_tagged()), 50);
//! assert_eq!(transfer(&b.build_lazy()), 50);
//! ```

use tm_ownership::concurrent::ConcurrentTable;
use tm_ownership::{
    ConcurrentTaggedTable, ConcurrentTaglessTable, HashKind, TableConfig, ThreadId,
};
use tm_telemetry::{NoopProbe, Probe};

use crate::contention::{ContentionPolicy, RetryPolicy};
use crate::heap::{Heap, WORD_BYTES};
use crate::lazy::LazyStm;
use crate::stats::EngineStats;
use crate::stm::{Aborted, OneTable, RetryLimitExceeded, Stm};

/// The read-only operation surface — everything a transaction body may do
/// without writing.
///
/// This is the bound on [`TmEngine::ReadTxn`], so a body handed to
/// [`TmEngine::run_read`] can read and voluntarily retry but has no write
/// surface at all: a write inside a read-only transaction is rejected by
/// the type system, not detected at runtime. It is also the supertrait of
/// [`TxnOps`], so read-only helpers (struct `contains`/`get` queries,
/// typed-layer `TRef::get`) written against `ReadOps` compose into both
/// read-write and read-only transactions on every engine.
///
/// Object safety matches `TxnOps`: `read`/`read_count` are dispatchable
/// through `&mut dyn ReadOps`; the generic convenience `retry` needs a
/// sized receiver (spell it `Err(Aborted)` in `dyn` contexts).
pub trait ReadOps {
    /// Transactional read of the word at `addr`.
    fn read(&mut self, addr: u64) -> Result<u64, Aborted>;

    /// Words read so far in this attempt (including write-buffer hits,
    /// where the transaction has one).
    fn read_count(&self) -> u64;

    /// Voluntarily abort this attempt (e.g. a precondition failed and the
    /// caller wants a clean retry). Equivalent to returning `Err(Aborted)`
    /// from the body — which is also the spelling to use in `dyn` contexts,
    /// where this generic convenience is not dispatchable.
    fn retry<R>(&self) -> Result<R, Aborted>
    where
        Self: Sized,
    {
        Err(Aborted)
    }
}

/// The full read-write operation surface a transaction body is written
/// against: [`ReadOps`] plus the write side.
///
/// Implemented by the eager [`Txn`](crate::Txn) and the lazy
/// [`LazyTxn`](crate::LazyTxn); code generic over `TxnOps` (or taking
/// `&mut dyn TxnOps` — the required methods and `update_with`/`update_add`
/// are object-safe; the generic conveniences `update`/`retry` need a sized
/// receiver) composes into either engine's transactions — this is the
/// trait `tm-structs` structures build on.
pub trait TxnOps: ReadOps {
    /// Transactional write of `value` to the word at `addr` (buffered until
    /// commit).
    fn write(&mut self, addr: u64, value: u64) -> Result<(), Aborted>;

    /// Words written so far in this attempt.
    fn write_count(&self) -> u64;

    /// Object-safe read-modify-write; returns the new value. Prefer
    /// [`update`](TxnOps::update) outside `dyn` contexts.
    ///
    /// The default composes [`read`](ReadOps::read) and
    /// [`write`](TxnOps::write). An engine may override it to take write
    /// ownership once: the eager [`Txn`](crate::Txn) acquires `Write`
    /// directly on its home table (one grant where read + write takes a
    /// read grant and an upgrade). The lazy engine and the eager engine's
    /// cross-table mode compose read + write. Values, heap and
    /// [`EngineStats`] are the same either way; only the ownership table's
    /// counts differ.
    fn update_with(&mut self, addr: u64, f: &mut dyn FnMut(u64) -> u64) -> Result<u64, Aborted> {
        let v = f(self.read(addr)?);
        self.write(addr, v)?;
        Ok(v)
    }

    /// Read-modify-write add (wrapping); returns the new value.
    fn update_add(&mut self, addr: u64, delta: u64) -> Result<u64, Aborted> {
        self.update_with(addr, &mut |v| v.wrapping_add(delta))
    }

    /// Read-modify-write helper; returns the new value.
    fn update<F>(&mut self, addr: u64, f: F) -> Result<u64, Aborted>
    where
        F: FnOnce(u64) -> u64,
        Self: Sized,
    {
        let mut f = Some(f);
        self.update_with(addr, &mut |v| (f.take().expect("update runs once"))(v))
    }
}

/// A transactional-memory engine the generic machinery (harness drivers,
/// data structures, benches) can run bodies on.
///
/// Implemented by [`Stm`] over **every** [`ConcurrentTable`] (tagless,
/// tagged, and wrapped tables like `tm-adaptive`'s resizable one) and every
/// [`Route`](crate::Route) (one table, or `tm-shard`'s several), and by
/// [`LazyStm`]. The associated transaction type implements [`TxnOps`], so
/// one body — written against the trait — runs on every engine.
///
/// The retry budget belongs to a *call* (`run` never gives up, `try_run`
/// and the `*_with` forms take theirs as an argument), never to an engine.
pub trait TmEngine: Sync {
    /// The in-flight transaction handed to bodies.
    type Txn<'e>: TxnOps
    where
        Self: 'e;

    /// The in-flight **read-only** transaction handed to
    /// [`run_read`](TmEngine::run_read) bodies. Bounded by [`ReadOps`]
    /// only, so the write surface does not exist on it.
    type ReadTxn<'e>: ReadOps
    where
        Self: 'e;

    /// Run `body` as a transaction for thread `me` under an explicit retry
    /// `policy`. Returns the body's result, or
    /// [`RetryLimitExceeded`] once a bounded policy's budget is spent.
    ///
    /// `me` must be unique among concurrently executing threads (it is the
    /// identity recorded in the ownership table where the organization
    /// tracks one, and the backoff jitter seed everywhere).
    fn run_with<'s, R>(
        &'s self,
        me: ThreadId,
        policy: RetryPolicy,
        body: impl FnMut(&mut Self::Txn<'s>) -> Result<R, Aborted>,
    ) -> Result<R, RetryLimitExceeded>
    where
        Self: Sized;

    /// Run `body` as a **read-only** transaction for thread `me` under an
    /// explicit retry `policy`.
    ///
    /// The read path never touches the ownership table: the eager engines
    /// serve reads from a publication-gate-validated heap snapshot, the
    /// lazy engine from TL2 version sampling against its begin snapshot.
    /// Read-only transactions therefore acquire no grants, stall no
    /// writer, and sit entirely outside the paper's false-conflict budget;
    /// their outcomes land in [`EngineStats::read_only_commits`] /
    /// [`EngineStats::read_validation_retries`], never in the write-side
    /// `commits`/`aborts`.
    fn run_read_with<'s, R>(
        &'s self,
        me: ThreadId,
        policy: RetryPolicy,
        body: impl FnMut(&mut Self::ReadTxn<'s>) -> Result<R, Aborted>,
    ) -> Result<R, RetryLimitExceeded>
    where
        Self: Sized;

    /// Unified counter snapshot (see [`EngineStats`]).
    fn engine_stats(&self) -> EngineStats;

    /// The shared heap (for initialization and post-run inspection).
    fn heap(&self) -> &Heap;

    /// Run `body` for thread `me`, retrying on abort until it commits.
    /// Returns the closure's result.
    fn run<'s, R>(
        &'s self,
        me: ThreadId,
        body: impl FnMut(&mut Self::Txn<'s>) -> Result<R, Aborted>,
    ) -> R
    where
        Self: Sized,
    {
        match self.run_with(me, RetryPolicy::Unbounded, body) {
            Ok(r) => r,
            Err(_) => unreachable!("an unbounded policy cannot exhaust its budget"),
        }
    }

    /// Run a read-only `body` for thread `me`, retrying on validation
    /// failure until it commits. Returns the closure's result.
    ///
    /// Writes are unrepresentable inside the body — this is a compile
    /// error, not a runtime abort:
    ///
    /// ```compile_fail,E0599
    /// use tm_stm::{ReadOps, StmBuilder, TmEngine};
    ///
    /// let stm = StmBuilder::new().heap_words(16).table_entries(16).build_tagless();
    /// stm.run_read(0, |txn| {
    ///     txn.write(0, 1)?; // ERROR: no `write` on a read-only transaction
    ///     Ok(())
    /// });
    /// ```
    fn run_read<'s, R>(
        &'s self,
        me: ThreadId,
        body: impl FnMut(&mut Self::ReadTxn<'s>) -> Result<R, Aborted>,
    ) -> R
    where
        Self: Sized,
    {
        match self.run_read_with(me, RetryPolicy::Unbounded, body) {
            Ok(r) => r,
            Err(_) => unreachable!("an unbounded policy cannot exhaust its budget"),
        }
    }

    /// Like [`run`](TmEngine::run) but giving up after `max_attempts`
    /// aborts.
    fn try_run<'s, R>(
        &'s self,
        me: ThreadId,
        max_attempts: u32,
        body: impl FnMut(&mut Self::Txn<'s>) -> Result<R, Aborted>,
    ) -> Result<R, RetryLimitExceeded>
    where
        Self: Sized,
    {
        self.run_with(me, RetryPolicy::Bounded { max_attempts }, body)
    }

    /// Sum of the first `words` heap words (the harness's isolation
    /// checksum). Only meaningful while no transactions run.
    fn heap_sum(&self, words: usize) -> u64 {
        (0..words as u64)
            .map(|w| self.heap().load(w * WORD_BYTES))
            .fold(0u64, u64::wrapping_add)
    }
}

/// Shared-ownership delegation: an `Arc<E>` drives the same engine, so
/// thread-spawning code can pass clones or references interchangeably.
impl<E: TmEngine + Send> TmEngine for std::sync::Arc<E> {
    type Txn<'e>
        = E::Txn<'e>
    where
        Self: 'e;

    type ReadTxn<'e>
        = E::ReadTxn<'e>
    where
        Self: 'e;

    fn run_with<'s, R>(
        &'s self,
        me: ThreadId,
        policy: RetryPolicy,
        body: impl FnMut(&mut Self::Txn<'s>) -> Result<R, Aborted>,
    ) -> Result<R, RetryLimitExceeded> {
        (**self).run_with(me, policy, body)
    }

    fn run_read_with<'s, R>(
        &'s self,
        me: ThreadId,
        policy: RetryPolicy,
        body: impl FnMut(&mut Self::ReadTxn<'s>) -> Result<R, Aborted>,
    ) -> Result<R, RetryLimitExceeded> {
        (**self).run_read_with(me, policy, body)
    }

    fn engine_stats(&self) -> EngineStats {
        (**self).engine_stats()
    }

    fn heap(&self) -> &Heap {
        (**self).heap()
    }
}

/// Fluent constructor for every engine in the crate. Outside it, `tm-stm`
/// has two public engine constructors, and they are what the terminals
/// call: [`Stm::routed`] (every eager terminal, here and in `tm-shard` /
/// `tm-adaptive`) and [`LazyStm::with_config_probed`] (`build_lazy`).
///
/// Axes: heap size × table geometry (entries, block bytes, hash kind) ×
/// [`ContentionPolicy`] × telemetry probe. The
/// engine kind is the typed terminal method, so each engine keeps its
/// concrete type (no boxing on the hot path). The builder is `Clone` and
/// terminals take `&self`, so one geometry can mint several engines for
/// side-by-side comparison.
///
/// The probe is a *type axis*: [`probe`](StmBuilder::probe) converts a
/// `StmBuilder` into a `StmBuilder<Q>`, and every terminal then mints
/// engines carrying that probe type — there is one set of terminals, not a
/// plain/`_probed` pair per engine.
///
/// ```
/// use tm_stm::{ContentionPolicy, StmBuilder, TmEngine, TxnOps};
///
/// let builder = StmBuilder::new()
///     .heap_words(1 << 10)
///     .table_entries(512)
///     .contention(ContentionPolicy::Stall { max_spins: 64 });
///
/// let stm = builder.build_tagged();
/// stm.run(0, |txn| txn.write(0, 7));
/// assert_eq!(stm.heap().load(0), 7);
/// ```
///
/// Attaching a probe (the engine type tracks it):
///
/// ```
/// use std::sync::Arc;
/// use tm_stm::{StmBuilder, TmEngine, TxnOps};
/// use tm_telemetry::Recorder;
///
/// let recorder = Arc::new(Recorder::new());
/// let stm = StmBuilder::new()
///     .heap_words(64)
///     .table_entries(64)
///     .probe(Arc::clone(&recorder))
///     .build_tagless();
/// stm.run(0, |txn| txn.write(0, 1));
/// assert_eq!(recorder.snapshot().txn.count(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct StmBuilder<P: Probe = NoopProbe> {
    heap_words: usize,
    table_entries: usize,
    shards: usize,
    block_bytes: Option<usize>,
    hash: Option<HashKind>,
    contention: ContentionPolicy,
    probe: P,
}

impl Default for StmBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl StmBuilder {
    /// A builder with the workspace's defaults: a 64k-word heap, a
    /// 4096-entry table of default geometry, suicide contention handling,
    /// and no probe.
    pub fn new() -> Self {
        Self {
            heap_words: 1 << 16,
            table_entries: 4096,
            shards: 1,
            block_bytes: None,
            hash: None,
            contention: ContentionPolicy::default(),
            probe: NoopProbe,
        }
    }
}

impl<P: Probe> StmBuilder<P> {
    /// Heap size in 64-bit words.
    pub fn heap_words(mut self, words: usize) -> Self {
        self.heap_words = words;
        self
    }

    /// First-level ownership-table entries (the paper's `N`).
    ///
    /// For sharded engines this is the **total** entry budget: a sharded
    /// terminal divides it evenly, giving each shard
    /// `ceil(entries / shards)` entries, so sharded and single-table
    /// engines built from one builder compare at equal table memory.
    pub fn table_entries(mut self, entries: usize) -> Self {
        self.table_entries = entries;
        self
    }

    /// Number of shards a sharded terminal partitions the engine into
    /// (default 1). The single-table terminals (`build_tagless`,
    /// `build_tagged`, `build_lazy`) ignore this axis; `tm-shard`'s
    /// `ShardedStmBuilder` terminals consume it via
    /// [`configured_shards`](StmBuilder::configured_shards).
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        self.shards = shards;
        self
    }

    /// Cache-block bytes the table tracks ownership at.
    pub fn block_bytes(mut self, bytes: usize) -> Self {
        self.block_bytes = Some(bytes);
        self
    }

    /// Block-to-entry hash function.
    pub fn hash(mut self, hash: HashKind) -> Self {
        self.hash = Some(hash);
        self
    }

    /// Reaction to a conflicting acquire (eager engines only; the lazy
    /// engine has no in-flight stalling to configure).
    pub fn contention(mut self, policy: ContentionPolicy) -> Self {
        self.contention = policy;
        self
    }

    /// Attach a telemetry probe (e.g. [`tm_telemetry::Recorder`]), changing
    /// the builder's probe *type*: every terminal afterwards mints engines
    /// that carry `Q` statically, so an un-probed build keeps zero
    /// telemetry cost. Terminals clone the probe into each engine, so an
    /// `Arc<Recorder>` shared across engines fans out naturally.
    pub fn probe<Q: Probe>(self, probe: Q) -> StmBuilder<Q> {
        StmBuilder {
            heap_words: self.heap_words,
            table_entries: self.table_entries,
            shards: self.shards,
            block_bytes: self.block_bytes,
            hash: self.hash,
            contention: self.contention,
            probe,
        }
    }

    /// An `entries`-entry table with this builder's geometry knobs.
    fn geometry(&self, entries: usize) -> TableConfig {
        let mut cfg = TableConfig::new(entries);
        if let Some(bytes) = self.block_bytes {
            cfg = cfg.with_block_bytes(bytes);
        }
        if let Some(hash) = self.hash {
            cfg = cfg.with_hash(hash);
        }
        cfg
    }

    /// The table geometry this builder currently describes.
    pub fn table_config(&self) -> TableConfig {
        self.geometry(self.table_entries)
    }

    /// The configured contention policy (for extension builders that
    /// construct their own engine through [`Stm::routed`]).
    pub fn configured_contention(&self) -> ContentionPolicy {
        self.contention
    }

    /// The configured heap size (for extension builders that construct
    /// their own engine, e.g. `tm-adaptive`).
    pub fn configured_heap_words(&self) -> usize {
        self.heap_words
    }

    /// The configured shard count (see [`shards`](StmBuilder::shards); 1
    /// unless set). Consumed by `tm-shard`'s sharded terminals.
    pub fn configured_shards(&self) -> usize {
        self.shards
    }

    /// The per-shard table geometry at the configured shard count: the
    /// total entry budget divided evenly (ceiling, then rounded up to the
    /// tables' power-of-two requirement), all other geometry knobs
    /// unchanged. At one shard this is exactly
    /// [`table_config`](StmBuilder::table_config); at power-of-two shard
    /// counts over power-of-two budgets the split is exact.
    pub fn shard_table_config(&self) -> TableConfig {
        let per_shard = self
            .table_entries
            .div_ceil(self.shards)
            .max(1)
            .next_power_of_two();
        self.geometry(per_shard)
    }
}

impl<P: Probe + Clone> StmBuilder<P> {
    /// A clone of the configured probe (for extension builders that
    /// construct their own engine, e.g. `tm-shard`'s sharded terminals).
    pub fn configured_probe(&self) -> P {
        self.probe.clone()
    }

    /// An eager STM over a **tagless** table (paper Figure 1).
    pub fn build_tagless(&self) -> Stm<ConcurrentTaglessTable, P> {
        self.build_with_table(ConcurrentTaglessTable::new(self.table_config()))
    }

    /// An eager STM over a **tagged** chained table (paper Figure 7).
    pub fn build_tagged(&self) -> Stm<ConcurrentTaggedTable, P> {
        self.build_with_table(ConcurrentTaggedTable::new(self.table_config()))
    }

    /// A lazy TL2-style STM over the versioned tagless table.
    pub fn build_lazy(&self) -> LazyStm<P> {
        LazyStm::with_config_probed(self.heap_words, self.table_config(), self.probe.clone())
    }

    /// An eager STM over a caller-supplied table — the extension point for
    /// wrapped organizations (`tm-adaptive`'s `ResizableTable`, custom
    /// instrumented tables). The table should be built from
    /// [`table_config`](StmBuilder::table_config) so geometry knobs apply.
    pub fn build_with_table<T: ConcurrentTable>(&self, table: T) -> Stm<T, P> {
        Stm::routed(
            self.heap_words,
            vec![table],
            OneTable,
            self.contention,
            self.probe.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One body, three engines — the API's reason to exist. The final
    /// read-back goes through the snapshot read path.
    fn count_to<E: TmEngine>(engine: &E, n: u64) -> u64 {
        for _ in 0..n {
            engine.run(0, |txn| txn.update_add(0, 1).map(|_| ()));
        }
        engine.run_read(0, |txn| txn.read(0))
    }

    #[test]
    fn same_body_every_engine() {
        let b = StmBuilder::new().heap_words(64).table_entries(128);
        assert_eq!(count_to(&b.build_tagless(), 5), 5);
        assert_eq!(count_to(&b.build_tagged(), 5), 5);
        assert_eq!(count_to(&b.build_lazy(), 5), 5);
    }

    #[test]
    fn engine_stats_are_commensurable() {
        let b = StmBuilder::new().heap_words(64).table_entries(128);
        let eager = b.build_tagged();
        let lazy = b.build_lazy();
        count_to(&eager, 3);
        count_to(&lazy, 3);
        // `count_to` finishes with one read-only transaction; it must land
        // in the read-side counters, never the write-side ones.
        for stats in [eager.engine_stats(), lazy.engine_stats()] {
            assert_eq!(stats.commits, 3);
            assert_eq!(stats.read_only_commits, 1);
            assert_eq!(stats.abort_ratio(), 0.0);
        }
    }

    #[test]
    fn run_read_observes_committed_state_on_every_engine() {
        fn sum_two<E: TmEngine>(engine: &E) -> u64 {
            engine.run(0, |txn| {
                txn.write(0, 11)?;
                txn.write(8, 31)
            });
            engine.run_read(1, |txn| {
                let a = txn.read(0)?;
                let b = txn.read(8)?;
                Ok(a + b)
            })
        }
        let b = StmBuilder::new().heap_words(64).table_entries(128);

        let tagless = b.build_tagless();
        assert_eq!(sum_two(&tagless), 42);
        let tagged = b.build_tagged();
        assert_eq!(sum_two(&tagged), 42);
        let lazy = b.build_lazy();
        assert_eq!(sum_two(&lazy), 42);

        // Shared-ownership delegation covers the read path too.
        let arced = std::sync::Arc::new(b.build_tagless());
        assert_eq!(sum_two(&arced), 42);

        for stats in [
            tagless.engine_stats(),
            tagged.engine_stats(),
            lazy.engine_stats(),
            arced.engine_stats(),
        ] {
            assert_eq!(stats.read_only_commits, 1);
            assert_eq!(stats.read_validation_retries, 0);
            assert_eq!(stats.commits, 1);
        }
    }

    #[test]
    fn read_only_retry_budget_is_honoured() {
        let b = StmBuilder::new().heap_words(64).table_entries(64);
        let stm = b.build_tagged();
        let r: Result<(), _> =
            stm.run_read_with(0, RetryPolicy::Bounded { max_attempts: 2 }, |txn| {
                txn.retry()
            });
        assert_eq!(r, Err(RetryLimitExceeded { attempts: 2 }));
        let stats = stm.engine_stats();
        assert_eq!(stats.read_validation_retries, 2);
        assert_eq!(stats.read_only_commits, 0);
        assert_eq!(stats.aborts, 0);

        let lazy = b.build_lazy();
        let r: Result<(), _> =
            lazy.run_read_with(0, RetryPolicy::Bounded { max_attempts: 2 }, |txn| {
                txn.retry()
            });
        assert_eq!(r, Err(RetryLimitExceeded { attempts: 2 }));
        let stats = lazy.engine_stats();
        assert_eq!(stats.read_validation_retries, 2);
        assert_eq!(stats.read_only_commits, 0);
        assert_eq!(stats.aborts, 0);
    }

    #[test]
    fn builder_geometry_applies() {
        let b = StmBuilder::new()
            .heap_words(256)
            .table_entries(32)
            .hash(HashKind::Mask)
            .block_bytes(64);
        let stm = b.build_tagless();
        assert_eq!(stm.table().num_entries(), 32);
        assert_eq!(stm.table().config().hash(), HashKind::Mask);
        let lazy = b.build_lazy();
        assert_eq!(lazy.table().config().num_entries(), 32);
    }

    #[test]
    fn update_retry_budget_is_honoured() {
        let b = StmBuilder::new().heap_words(64).table_entries(64);
        let bounded = RetryPolicy::Bounded { max_attempts: 2 };
        let stm = b.build_tagged();
        let r: Result<(), _> = stm.run_with(0, bounded, |txn| txn.retry());
        assert_eq!(r, Err(RetryLimitExceeded { attempts: 2 }));
        assert_eq!(stm.engine_stats().aborts, 2);

        let lazy = b.build_lazy();
        let r: Result<(), _> = lazy.run_with(0, bounded, |_| Err(Aborted));
        assert_eq!(r, Err(RetryLimitExceeded { attempts: 2 }));
        assert_eq!(lazy.engine_stats().aborts, 2);

        // A zero budget is clamped to one attempt, not a panic or a spin.
        let zero = RetryPolicy::Bounded { max_attempts: 0 };
        let r: Result<(), _> = stm.run_with(0, zero, |txn| txn.retry());
        assert_eq!(r, Err(RetryLimitExceeded { attempts: 1 }));
    }

    #[test]
    fn heap_sum_is_uniform() {
        let b = StmBuilder::new().heap_words(16).table_entries(16);
        let eager = b.build_tagless();
        eager.run(0, |txn| {
            txn.write(0, 3)?;
            txn.write(8, 4)
        });
        assert_eq!(eager.heap_sum(16), 7);
        let lazy = b.build_lazy();
        lazy.run(0, |txn| txn.write(0, 9));
        assert_eq!(lazy.heap_sum(16), 9);
    }

    #[test]
    fn dyn_txn_ops_compose() {
        // &mut dyn TxnOps is a first-class body parameter (what the harness
        // and heterogeneous helpers use).
        fn bump(txn: &mut dyn TxnOps) -> Result<(), Aborted> {
            txn.update_add(0, 2)?;
            Ok(())
        }
        let stm = StmBuilder::new()
            .heap_words(16)
            .table_entries(16)
            .build_tagged();
        stm.run(0, |txn| bump(txn));
        assert_eq!(stm.heap().load(0), 2);
    }
}
