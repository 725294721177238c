//! Typed transactional data structures over the word-based STM — generic
//! over **every** engine, with **no raw addresses in the API**.
//!
//! The paper's motivation for transactional memory is that atomic blocks
//! compose where locks do not; this crate is the workspace's demonstration
//! that the `tm-stm` trait layer supports real composable structures.
//! Every structure is laid out in the STM heap through the typed object
//! layer — [`TRef`] handles and the [`TxWord`](tm_stm::TxWord)/
//! [`TxLayout`](tm_stm::TxLayout) codecs — so its operations take and
//! return typed values, never `u64` addresses. Static layout comes from a
//! [`Region`]; the dynamic structure ([`TList`]) allocates and frees nodes
//! **inside transactions** via [`TxAlloc`], so aborts roll allocation
//! back.
//!
//! Every operation is a *transaction-composable* method generic over
//! [`TxnOps`](tm_stm::TxnOps) (reads over [`ReadOps`](tm_stm::ReadOps)),
//! and the transaction is the API: one operation on its own is
//! `stm.run(me, |txn| queue.enqueue(txn, v))`, or
//! `stm.run_read(me, |txn| map.get(txn, key))` for a wait-free read, and
//! several compose into one atomic block the same way. One definition runs
//! on the eager engines (any ownership-table organization, including
//! `tm-adaptive`'s resizable one) *and* the lazy TL2-style engine,
//! unchanged.
//!
//! # The capacity-outcome idiom
//!
//! Bounded structures share **one** fullness signal:
//! [`CapacityError`]. Composable operations that can observe fullness
//! return the two-layer [`TxResult`] —
//! `Result<Result<T, CapacityError>, Aborted>` — where the **outer** layer
//! is STM control flow (`?` propagates an abort so the engine retries) and
//! the **inner** layer is the structure's committed answer (a full
//! structure is a real, serializable observation, not a conflict):
//!
//! ```
//! use tm_stm::{Aborted, StmBuilder, TmEngine};
//! use tm_structs::{CapacityError, Region, TQueue};
//!
//! let stm = StmBuilder::new().heap_words(256).table_entries(64).build_tagged();
//! let mut region = Region::new(0, 256 * 8);
//! let queue: TQueue<u64> = TQueue::create(&mut region, 1);
//! stm.run(0, |txn| {
//!     assert_eq!(queue.enqueue(txn, 7)?, Ok(()));
//!     assert_eq!(queue.enqueue(txn, 8)?, Err(CapacityError)); // full — still commits
//!     Ok(())
//! });
//! ```
//!
//! [`TmEngine::run`](tm_stm::TmEngine::run) consumes the outer layer (it
//! retries on `Aborted`), so a lone operation hands back the inner
//! `Result<T, CapacityError>`:
//! `stm.run(me, |txn| queue.enqueue(txn, 9))`.
//!
//! Because these structures run on the same ownership tables the paper
//! analyses, they double as workloads: point the constructors at a small
//! tagless table and watch disjoint operations abort each other; point them
//! at a tagged table and only genuine collisions remain. [`TList`] adds the
//! pointer-chasing, allocation-heavy shape the fixed-capacity structures
//! cannot express (the harness's `list-chase` scenario family).
//!
//! # Example
//!
//! ```
//! use tm_stm::{StmBuilder, TmEngine, TxnOps};
//! use tm_structs::{Region, TCounter, TStack};
//!
//! let mut region = Region::new(0, 4096);
//! let counter = TCounter::create(&mut region);
//! let stack: TStack<u64> = TStack::create(&mut region, 64);
//!
//! // Compose: push and count in one atomic step — on any engine.
//! fn push_and_count<E: TmEngine>(stm: &E, counter: TCounter, stack: tm_structs::TStack) {
//!     stm.run(0, |txn| {
//!         stack.push(txn, 42)?.expect("stack has room");
//!         counter.add(txn, 1)?;
//!         Ok(())
//!     });
//! }
//!
//! let builder = StmBuilder::new().heap_words(4096).table_entries(1024);
//! let eager = builder.build_tagged();
//! push_and_count(&eager, counter, stack);
//! assert_eq!(eager.run(0, |txn| counter.read(txn)), 1);
//! assert_eq!(eager.run(0, |txn| stack.pop(txn)), Some(42));
//!
//! let lazy = builder.build_lazy();
//! push_and_count(&lazy, counter, stack);
//! assert_eq!(lazy.run(0, |txn| counter.read(txn)), 1);
//! assert_eq!(lazy.run(0, |txn| stack.pop(txn)), Some(42));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod counter;
mod list;
mod map;
mod queue;
mod stack;

pub use counter::TCounter;
pub use list::TList;
pub use map::TMap;
pub use queue::TQueue;
pub use stack::TStack;

// The typed-layer vocabulary the structures speak — re-exported so users
// of this crate need no direct `tm-stm` import for everyday code.
pub use tm_stm::{CapacityError, Region, TRef, TxAlloc, TxResult};
