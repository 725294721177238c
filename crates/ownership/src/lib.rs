//! Ownership-table organizations for word-based software transactional memory.
//!
//! This crate implements the central data structure studied by Zilles & Rajwar
//! in *"Transactional Memory and the Birthday Paradox"* (SPAA 2007): the
//! **ownership table** that word-based STMs (and the STM fallback path of
//! hybrid TMs) use to track which transaction currently has read or write
//! permission over which regions of memory.
//!
//! Two organizations are provided, each once, behind
//! [`ConcurrentTable`](concurrent::ConcurrentTable):
//!
//! * **Tagless** ([`ConcurrentTaglessTable`]) — the design used by most
//!   published word-based STMs (paper Figure 1). An entry grants permission
//!   at the granularity of *every* address that hashes to it, so distinct
//!   addresses that merely alias in the table produce **false conflicts**.
//!   The paper shows the false-conflict rate grows quadratically with
//!   transaction footprint and concurrency.
//! * **Tagged** ([`ConcurrentTaggedTable`]) — the alternative the paper
//!   advocates (Figure 7): each entry stores the address tag and chains
//!   aliasing records, so only genuine data conflicts are reported. The
//!   common case (zero or one record per entry) needs no indirection.
//!
//! The tables keep no per-transaction state: the caller (the STM, or the
//! simulators' one-thread driver in `tm-sim`) logs each
//! [`GrantKey`](concurrent::GrantKey) it was granted with the
//! [`Held`](concurrent::Held) level, passes that level into later acquires,
//! and releases the log at commit or abort.
//!
//! Memory addresses are mapped to cache blocks by [`BlockMapper`] and blocks
//! to table entries by a pluggable [`HashKind`]; [`stats::TableStats`]
//! aggregates the acquire and conflict counters the paper's experiments
//! measure. [`slots::Slots`] keeps per-thread counters a thread bumps with a
//! plain load and store: the tables' access counts here, and `tm-stm`'s
//! commit statistics and publication gate.
//!
//! # Example
//!
//! ```
//! use tm_ownership::concurrent::{ConcurrentTable, Held};
//! use tm_ownership::{
//!     Access, AcquireOutcome, ConcurrentTaggedTable, ConcurrentTaglessTable, HashKind, TableConfig,
//! };
//!
//! let cfg = TableConfig::new(1024).with_block_bytes(64).with_hash(HashKind::Mask);
//! let tagless = ConcurrentTaglessTable::new(cfg.clone());
//! let tagged = ConcurrentTaggedTable::new(cfg);
//!
//! // Two transactions touch *different* blocks that alias in a small table.
//! // Neither holds anything yet, so both pass `Held::None`.
//! let (a, b) = (0u32, 1u32);
//! let block_x = 0x100 >> 6;
//! let block_y = block_x + 1024; // same entry under the mask hash
//!
//! let granted = tagless.acquire(a, block_x, Access::Write, Held::None);
//! assert!(matches!(granted, AcquireOutcome::Granted));
//! // Tagless: false conflict — the table cannot tell the blocks apart.
//! let refused = tagless.acquire(b, block_y, Access::Write, Held::None);
//! assert!(matches!(refused, AcquireOutcome::Conflict(_)));
//!
//! let granted = tagged.acquire(a, block_x, Access::Write, Held::None);
//! assert!(matches!(granted, AcquireOutcome::Granted));
//! // Tagged: the chain keeps both records; no conflict.
//! let granted = tagged.acquire(b, block_y, Access::Write, Held::None);
//! assert!(matches!(granted, AcquireOutcome::Granted));
//!
//! // Commit: release each logged grant at the level it was granted.
//! tagged.release(a, tagged.grant_key(block_x), Held::Write);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod concurrent;
mod entry;
mod fingerprint;
mod hashing;
pub mod slots;
pub mod smallmap;
pub mod stats;
pub mod versioned;

pub use concurrent::{ConcurrentTaggedTable, ConcurrentTaglessTable, GrantSnapshot};
pub use entry::{Access, AcquireOutcome, Conflict, ConflictClass, ConflictKind, Mode, ThreadId};
pub use fingerprint::{classify, fingerprint_of, FP_NONE, FP_SATURATED};
pub use hashing::{BlockAddr, BlockMapper, EntryIndex, HashKind, TableConfig};
pub use smallmap::{SmallKey, SmallMap};
pub use versioned::{Stamp, VersionedStats, VersionedTable};
