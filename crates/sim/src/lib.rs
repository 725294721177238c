//! Monte-Carlo simulators for the *Birthday Paradox* experiments.
//!
//! Five engines: the paper's three measurement methodologies (`open`,
//! `closed`, `traced`) and two extensions (`strong`, `hybrid`).
//!
//! * [`open`] — the **open-system lockstep** simulator behind Figure 4:
//!   `C` transactions start together, add uniformly random blocks round-
//!   robin in the `[read^α write]*` pattern, and the first conflict ends the
//!   run. Validates the analytical model directly.
//! * [`closed`] — the **closed-system** simulator behind Figures 5 and 6:
//!   staggered threads run fixed-size transactions back to back for a fixed
//!   duration, aborting and restarting on conflict; reports conflict counts,
//!   commits, mean table occupancy, and the *actual* (effective) concurrency
//!   the paper uses to explain Figure 6's convergence.
//! * [`traced`] — the **trace-driven** experiment behind Figure 2: populate
//!   the table from filtered multithreaded address streams until every
//!   stream has written `W` blocks, and measure the alias likelihood.
//! * [`strong`] — the §6 extension: closed-system transactions plus
//!   non-transactional *bystander* threads whose strong-isolation lookups
//!   add further false-conflict pressure on a tagless table.
//! * [`hybrid`] — the deployment context the paper argues about: HTM-mode
//!   transactions while they fit the cache, STM fallback through the shared
//!   ownership table when they overflow; demonstrates the "concurrency of 1
//!   for overflowed transactions" conclusion end to end.
//!
//! All engines run on the concurrent tables the STM (`tm-stm`) uses,
//! driven from one thread through [`table::SimTable`], which keeps each
//! simulated transaction's grant log the way the STM keeps a real one. The
//! simulations are statistical, not concurrency tests.
//! [`runner::parallel_sweep`] distributes independent data points across
//! CPU cores.
//!
//! # Example
//!
//! ```
//! use tm_sim::open::{run_open_system, OpenSystemParams};
//! use tm_model::lockstep::conflict_likelihood;
//!
//! let params = OpenSystemParams {
//!     concurrency: 2, write_footprint: 8, alpha: 2,
//!     table_entries: 4096, runs: 2000, seed: 1,
//! };
//! let sim = run_open_system(&params).conflict_rate;
//! let model = conflict_likelihood(2, 8, 2.0, 4096);
//! assert!((sim - model).abs() < 0.03, "sim {sim} vs model {model}");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod closed;
pub mod hybrid;
pub mod open;
pub mod runner;
pub mod strong;
pub mod table;
pub mod traced;

pub use closed::{run_closed_system, ClosedSystemParams, ClosedSystemResult};
pub use hybrid::{run_hybrid, HybridParams, HybridResult, Organization};
pub use open::{run_open_system, OpenSystemParams, OpenSystemResult};
pub use runner::parallel_sweep;
pub use strong::{run_strong_isolation, StrongIsolationParams, StrongIsolationResult};
pub use table::SimTable;
pub use traced::{alias_likelihood, TracedAliasParams, TracedAliasResult};
