//! `tm-server`: a networked transactional keyed-store service over any
//! [`TmEngine`](tm_stm::TmEngine).
//!
//! Everything below the harness drives the engines as a *closed* system —
//! a fixed set of threads looping transactions back to back. Production
//! traffic is not shaped like that: it arrives as framed requests from
//! many sessions, bursty and open-loop, and the paper's sizing question
//! ("how large must the ownership table be at this operating point?")
//! needs an empirical counterpart for that regime. This crate is it:
//!
//! * [`protocol`] — versioned, length-prefixed binary frames; total
//!   decoding (typed errors, never panics), no serde;
//! * [`session`] — per-connection state with per-session response
//!   ordering, so clients pipeline freely;
//! * [`batch`] — **group commit**: key-disjoint write requests from
//!   different sessions coalesce into one engine transaction under a
//!   footprint cap and a latency budget;
//! * [`backpressure`] — admission control that contracts a shared inflight
//!   budget as the engine's observed abort ratio rises, shedding load with
//!   explicit `Busy` responses instead of collapsing;
//! * [`server`] — the worker threads, fed directly by the transports;
//!   reads run inline on the engine's wait-free read path, writes flow
//!   through the batcher, and each session is handed its responses once
//!   per worker wake-up;
//! * [`transport`] — TCP and a hermetic in-process channel transport
//!   (same frames, no sockets) that CI and tests run on;
//! * [`queue`] — the hand-off queue between those threads: the workers'
//!   inbound queues and the channel sessions' sinks;
//! * [`loadgen`] — a client fleet simulating thousands of sessions with
//!   Poisson or bursty arrivals, latency capture via `tm-telemetry`, and
//!   a built-in conservation invariant;
//! * [`fault`] — seed-deterministic fault injection: frame drop / delay /
//!   truncation / corruption, scheduled disconnects, injected crashes at
//!   named points in the write pipeline, and forced-abort storms;
//! * [`client`] — a retrying client with exponential backoff and
//!   per-session idempotency tokens, so a retried write after a lost
//!   response applies exactly once;
//! * [`chaos`] — the chaos harness: runs a seeded fault schedule against
//!   a real server and checks conservation, FIFO, and exactly-once
//!   invariants afterwards.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use tm_server::protocol::{Request, Response};
//! use tm_server::server::{start, ServerConfig};
//! use tm_stm::StmBuilder;
//!
//! let engine = Arc::new(
//!     StmBuilder::new().heap_words(1024).table_entries(1024).build_tagless(),
//! );
//! let server = start(Arc::clone(&engine), ServerConfig::new(1024));
//!
//! let mut conn = server.connect();
//! let resp = conn
//!     .request(Request::Add { key: 7, delta: 5 }, Duration::from_secs(2))
//!     .expect("server answers");
//! assert_eq!(resp.response, Response::Added(5));
//!
//! let resp = conn
//!     .request(Request::Get { key: 7 }, Duration::from_secs(2))
//!     .expect("server answers");
//! assert_eq!(resp.response, Response::Value(5));
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod backpressure;
pub mod batch;
pub mod chaos;
pub mod client;
pub mod fault;
pub mod loadgen;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod session;
pub mod transport;

pub use backpressure::{Admission, AdmissionPolicy};
// Re-exported so loadgen configs can be built from this crate alone.
pub use batch::{BatchPolicy, Batcher, PendingWrite, WriteOp};
pub use chaos::{run_chaos_case, ChaosCase, ChaosOutcome};
pub use client::{BackoffPolicy, CallOutcome, RetryClient, RetryStats};
pub use fault::{CrashPoint, CrashSchedule, FaultPlan, FaultState, FaultyConn, FrameFaults};
pub use loadgen::{run_loadgen, ArrivalProcess, LoadReport, LoadgenConfig};
pub use protocol::{
    DecodeError, ErrorCode, FrameBuf, Request, RequestFrame, Response, ResponseFrame,
};
pub use server::{start, ServerConfig, ServerHandle, ServerStatsSnapshot};
pub use session::SessionId;
pub use tm_harness::AccessPattern;
pub use transport::{serve_tcp, ChannelConn, TcpConn, TcpTransport};
