//! Facade crate for the *Transactional Memory and the Birthday Paradox*
//! reproduction (Zilles & Rajwar, SPAA 2007).
//!
//! Re-exports the workspace crates under stable module names so examples,
//! integration tests, and downstream users have a single dependency:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`ownership`] | `tm-ownership` | Tagless and tagged ownership tables |
//! | [`stm`] | `tm-stm` | Word-based software transactional memory |
//! | [`adaptive`] | `tm-adaptive` | Online-resizable tables + sizing controller |
//! | [`shard`] | `tm-shard` | S-way sharded engine with ordered cross-shard commit |
//! | [`traces`] | `tm-traces` | Synthetic address-trace generators |
//! | [`cache_sim`] | `tm-cache-sim` | L1 cache model for HTM overflow |
//! | [`model`] | `tm-model` | Analytical conflict-likelihood model |
//! | [`sim`] | `tm-sim` | Monte-Carlo simulators |
//! | [`structs`] | `tm-structs` | Transactional data structures |
//! | [`telemetry`] | `tm-telemetry` | Tracing, abort attribution, latency histograms |
//! | [`server`] | `tm-server` | Networked keyed-store service with group commit |
//!
//! The [`prelude`] re-exports the unified transaction API (the `TmEngine`/
//! `TxnOps`/`ReadOps` traits, the `StmBuilder`), the typed object layer
//! (`TRef`, the `TxWord`/`TxLayout` codecs, `Region`, `TxAlloc`), and the
//! data structures in one import.
//!
//! See `README.md` for a guided tour and `DESIGN.md` for the experiment map.

/// One-import surface for writing transactional code: the core traits, the
/// builder, the typed object layer, and the data structures.
///
/// Code is written against typed handles — a [`Region`](tm_stm::Region)
/// allocates [`TRef<T>`](tm_stm::TRef) cells, and the same closure runs on
/// every engine the builder can mint. Updates go through `run`; **reads go
/// through `run_read`**, the wait-free read-only path whose bodies are
/// bounded by `ReadOps` so a stray write is a compile error, not a runtime
/// abort. Eager tagless (paper Figure 1):
///
/// ```
/// use tm_birthday::prelude::*;
///
/// let stm = StmBuilder::new().heap_words(256).table_entries(128).build_tagless();
/// let mut region = Region::new(0, 256 * 8);
/// let cell: TRef<u64> = region.alloc_ref();
/// let n = stm.run(0, |txn| cell.update(txn, |v| v + 41));
/// assert_eq!(n, 41);
/// // Reads take the epoch-snapshot path: no ownership acquired, writers
/// // never stalled.
/// assert_eq!(stm.run_read(0, |txn| cell.get(txn)), 41);
/// ```
///
/// Eager tagged (paper Figure 7):
///
/// ```
/// use tm_birthday::prelude::*;
///
/// let stm = StmBuilder::new().heap_words(256).table_entries(128).build_tagged();
/// let mut region = Region::new(0, 256 * 8);
/// let cell: TRef<u64> = region.alloc_ref();
/// let n = stm.run(0, |txn| cell.update(txn, |v| v + 41));
/// assert_eq!(n, 41);
/// assert_eq!(stm.run_read(0, |txn| cell.get(txn)), 41);
/// ```
///
/// Lazy TL2-style (read-only transactions validate against the global
/// version clock instead of keeping a read set):
///
/// ```
/// use tm_birthday::prelude::*;
///
/// let stm = StmBuilder::new().heap_words(256).table_entries(128).build_lazy();
/// let mut region = Region::new(0, 256 * 8);
/// let cell: TRef<u64> = region.alloc_ref();
/// let n = stm.run(0, |txn| cell.update(txn, |v| v + 41));
/// assert_eq!(n, 41);
/// assert_eq!(stm.run_read(0, |txn| cell.get(txn)), 41);
/// ```
///
/// Adaptive (online-resizable table driven by the sizing model; the read
/// path rides the eager engine's publication gate unchanged):
///
/// ```
/// use tm_birthday::prelude::*;
///
/// let (stm, _controller) = StmBuilder::new()
///     .heap_words(256)
///     .table_entries(128)
///     .build_adaptive(ResizePolicy::default(), 1);
/// let mut region = Region::new(0, 256 * 8);
/// let cell: TRef<u64> = region.alloc_ref();
/// let n = stm.run(0, |txn| cell.update(txn, |v| v + 41));
/// assert_eq!(n, 41);
/// assert_eq!(stm.run_read(0, |txn| cell.get(txn)), 41);
/// ```
///
/// Dynamic structures allocate nodes *inside* transactions through
/// [`TxAlloc`](tm_stm::TxAlloc) — aborts roll the allocation back:
///
/// ```
/// use tm_birthday::prelude::*;
///
/// let stm = StmBuilder::new().heap_words(1024).table_entries(256).build_tagged();
/// let mut region = Region::new(0, 1024 * 8);
/// let list: TList<u64> = TList::create(&mut region, 32);
/// assert_eq!(stm.run(0, |txn| list.insert(txn, 7)), Ok(true));
/// assert_eq!(stm.run(0, |txn| list.insert(txn, 3)), Ok(true));
/// assert_eq!(stm.run(0, |txn| list.snapshot(txn)), vec![3, 7]);
/// // Membership tests are read-only: run them on the wait-free read path.
/// assert!(stm.run_read(0, |txn| list.contains(txn, 7)));
/// assert_eq!(stm.run_read(0, |txn| list.len(txn)), 2);
/// ```
pub mod prelude {
    pub use tm_adaptive::{AdaptiveController, AdaptiveStmBuilder, ResizePolicy};
    pub use tm_shard::{ShardMap, ShardedStm, ShardedStmBuilder};
    pub use tm_stm::{
        Aborted, CapacityError, ContentionPolicy, EngineStats, LazyStm, ReadOps, Region,
        RetryLimitExceeded, RetryPolicy, Stm, StmBuilder, TRef, TmEngine, TxAlloc, TxLayout,
        TxResult, TxWord, TxnOps,
    };
    pub use tm_structs::{TCounter, TList, TMap, TQueue, TStack};
}

pub use tm_adaptive as adaptive;
pub use tm_cache_sim as cache_sim;
pub use tm_model as model;
pub use tm_ownership as ownership;
pub use tm_server as server;
pub use tm_shard as shard;
pub use tm_sim as sim;
pub use tm_stm as stm;
pub use tm_structs as structs;
pub use tm_telemetry as telemetry;
pub use tm_traces as traces;
