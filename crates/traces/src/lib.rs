//! Synthetic memory-address traces for the *Birthday Paradox* reproduction.
//!
//! The paper's two trace-driven experiments consume inputs we cannot
//! redistribute, so this crate synthesizes structurally equivalent streams
//! (see DESIGN.md, "Trace substitutions"):
//!
//! * [`jbb`] — a SPECjbb2005-like 4-warehouse multithreaded workload, the
//!   input to the Figure 2 alias-likelihood study. Per-thread object heaps,
//!   Zipf object popularity, sequential runs, and a small hot shared region.
//! * [`spec`] — twelve SPEC CPU2000-like sequential benchmark profiles, the
//!   input to the Figure 3 HTM-overflow study. Parameterized working-set
//!   size, streaming-ness, stack share, and store fraction per benchmark.
//! * [`filter`] — the paper's true-conflict removal (§2.2) plus conversion
//!   from raw access traces to block-granular streams.
//! * [`io`] — a compact binary trace codec (`bytes`-based).
//!
//! All generators are deterministic under a caller-provided seed, so every
//! experiment in this workspace is exactly reproducible.
//!
//! # Example
//!
//! ```
//! use tm_traces::jbb::{generate, JbbParams};
//! use tm_traces::filter::{remove_true_conflicts, to_block_stream};
//!
//! let params = JbbParams { accesses_per_thread: 10_000, ..Default::default() };
//! let traces = generate(&params);
//! assert_eq!(traces.len(), 4);
//!
//! // Block streams with true sharing removed — ready for the Fig. 2 study.
//! let streams: Vec<_> = traces.iter().map(|t| to_block_stream(t, 6)).collect();
//! let disjoint = remove_true_conflicts(&streams);
//! assert_eq!(disjoint.len(), 4);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod event;
pub mod filter;
pub mod io;
pub mod jbb;
pub mod sampler;
pub mod spec;

pub use event::{MemAccess, Trace, TraceStats};
