//! Observability for the STM engines: probes, abort-cause attribution,
//! latency histograms, and a bounded flight recorder.
//!
//! The paper quantifies *false conflicts* — aborts induced purely by
//! ownership-table aliasing between distinct blocks. Before this crate the
//! workspace could only observe them on data-disjoint scenarios (where every
//! abort is false by construction); everywhere else aborts were one
//! undifferentiated counter and latency existed only as a mean. This crate
//! supplies the three missing instruments:
//!
//! * an [`AbortCause`] taxonomy, attributed *at the abort site* by comparing
//!   the conflicting block identities (true vs. false conflict) or the
//!   protocol step that failed (validation, capacity, explicit retry);
//! * log-linear latency [`Histogram`]s (ns resolution, fixed bucket array,
//!   mergeable, ≤6.25 % relative error) for per-attempt and whole-transaction
//!   latency;
//! * a bounded per-stripe flight-recorder ring of [`TxnEvent`]s exportable
//!   as JSONL.
//!
//! Engines report through the [`Probe`] trait. The default [`NoopProbe`] has
//! `ENABLED = false` and empty methods, so every probe call — and every
//! `Instant::now()` the engines gate on `P::ENABLED` — monomorphizes away;
//! the hot path stays zero-allocation and branch-identical to a
//! pre-telemetry build. The [`Recorder`] is the real implementation: striped
//! atomics, preallocated rings, no steady-state allocation of its own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Why a transaction attempt aborted.
///
/// `TrueConflict` vs. `FalseConflict` is the paper's central distinction:
/// a *true* conflict involves the same block; a *false* conflict is two
/// distinct blocks aliasing to one ownership-table entry (Eq. 8's
/// birthday-paradox rate). `UnknownConflict` is a conflict the abort site
/// could not classify (the evidence named more than one block, or none).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AbortCause {
    /// Conflict on the same block — inherent to the workload.
    TrueConflict,
    /// Conflict between distinct blocks aliasing one table entry.
    FalseConflict,
    /// A conflict whose block identities could not be compared.
    UnknownConflict,
    /// Lazy engine: commit-time read-set validation failed against a version
    /// the transaction itself observed (a real serialization failure).
    ValidationFailed,
    /// A structural limit was hit (table or buffer capacity).
    Capacity,
    /// The transaction body requested a retry voluntarily.
    ExplicitRetry,
}

impl AbortCause {
    /// Number of causes (size of per-cause counter arrays).
    pub const COUNT: usize = 6;

    /// Every cause, in counter-array order.
    pub const ALL: [AbortCause; Self::COUNT] = [
        AbortCause::TrueConflict,
        AbortCause::FalseConflict,
        AbortCause::UnknownConflict,
        AbortCause::ValidationFailed,
        AbortCause::Capacity,
        AbortCause::ExplicitRetry,
    ];

    /// Stable machine-readable name (used in reports and JSONL).
    pub fn as_str(self) -> &'static str {
        match self {
            AbortCause::TrueConflict => "true-conflict",
            AbortCause::FalseConflict => "false-conflict",
            AbortCause::UnknownConflict => "unknown-conflict",
            AbortCause::ValidationFailed => "validation-failed",
            AbortCause::Capacity => "capacity",
            AbortCause::ExplicitRetry => "explicit-retry",
        }
    }

    /// Index into per-cause counter arrays ([`AbortCause::ALL`] order).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            AbortCause::TrueConflict => 0,
            AbortCause::FalseConflict => 1,
            AbortCause::UnknownConflict => 2,
            AbortCause::ValidationFailed => 3,
            AbortCause::Capacity => 4,
            AbortCause::ExplicitRetry => 5,
        }
    }
}

impl std::fmt::Display for AbortCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// Sub-bucket resolution: 2^4 = 16 sub-buckets per octave, bounding the
/// relative quantization error at 1/16 = 6.25 %.
const SUB_BITS: u32 = 4;
const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Values at or above 2^40 ns (~18 minutes) saturate into the last bucket.
const MAX_EXP: u32 = 40;
/// Bucket count: one linear region of 16 buckets for values < 16, then 16
/// sub-buckets per octave for exponents 4..40.
pub const NUM_BUCKETS: usize = (MAX_EXP as usize - SUB_BITS as usize + 1) * SUB_BUCKETS;

/// Map a value to its bucket index.
#[inline]
fn bucket_of(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros(); // floor(log2(value)), >= SUB_BITS
    if exp >= MAX_EXP {
        return NUM_BUCKETS - 1;
    }
    let sub = (value >> (exp - SUB_BITS)) as usize & (SUB_BUCKETS - 1);
    (exp - SUB_BITS + 1) as usize * SUB_BUCKETS + sub
}

/// The smallest value mapping to bucket `index` (the reported
/// representative; percentiles are therefore conservative lower bounds).
#[inline]
fn bucket_lower_bound(index: usize) -> u64 {
    let octave = index / SUB_BUCKETS;
    let sub = (index % SUB_BUCKETS) as u64;
    if octave == 0 {
        return sub;
    }
    (SUB_BUCKETS as u64 + sub) << (octave as u32 - 1)
}

/// A mergeable log-linear histogram of `u64` samples (nanoseconds).
///
/// Fixed bucket array (no allocation after construction), exact counts,
/// values quantized to ≤6.25 % relative error. Buckets are linear below 16
/// and log-linear (16 sub-buckets per power of two) above; values ≥ 2^40
/// saturate into the final bucket.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; NUM_BUCKETS],
            total: 0,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_of(value)] += 1;
        self.total += 1;
    }

    /// Fold another histogram into this one (element-wise add).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The value at quantile `q` in `[0, 1]` (lower bound of the containing
    /// bucket), or `None` when empty. `q = 0.5` is the median.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the sample we want, 1-based; q = 0 means the first sample.
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_lower_bound(i));
            }
        }
        // Unreachable while counts sum to total; be safe anyway.
        Some(bucket_lower_bound(NUM_BUCKETS - 1))
    }

    /// Shorthand: (p50, p95, p99), or `None` when empty.
    pub fn p50_p95_p99(&self) -> Option<(u64, u64, u64)> {
        Some((
            self.percentile(0.50)?,
            self.percentile(0.95)?,
            self.percentile(0.99)?,
        ))
    }

    /// The 99.9th percentile, or `None` when empty — the tail quantile
    /// service-level reporting (`tm-server` SLOs) gates on, where p99 is
    /// too coarse: at thousands of requests per second the 99.9th
    /// percentile is what a per-minute SLO breach actually looks like.
    pub fn p999(&self) -> Option<u64> {
        self.percentile(0.999)
    }
}

/// A thread-safe histogram with the same bucket scheme as [`Histogram`].
///
/// Recording is a single relaxed `fetch_add`; [`AtomicHistogram::snapshot`]
/// produces a plain [`Histogram`] for merging and percentile queries.
#[derive(Debug)]
pub struct AtomicHistogram {
    counts: Vec<AtomicU64>,
    total: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        let mut counts = Vec::with_capacity(NUM_BUCKETS);
        counts.resize_with(NUM_BUCKETS, AtomicU64::default);
        AtomicHistogram {
            counts,
            total: AtomicU64::new(0),
        }
    }

    /// Record one sample (relaxed; counts are advisory under contention).
    #[inline]
    pub fn record(&self, value: u64) {
        self.counts[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Copy the current counts into a plain [`Histogram`].
    pub fn snapshot(&self) -> Histogram {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total = counts.iter().sum();
        Histogram { counts, total }
    }

    /// Zero every bucket.
    pub fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.total.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Probe
// ---------------------------------------------------------------------------

/// Engine-side instrumentation hooks.
///
/// Engines are generic over `P: Probe` and gate *all* telemetry work —
/// including clock reads — on `P::ENABLED`, a compile-time constant. With
/// the default [`NoopProbe`] every hook body is empty and `ENABLED` is
/// `false`, so the instrumentation monomorphizes to nothing: the hot path
/// stays zero-allocation and does not touch the clock.
///
/// Timing arguments are nanoseconds. `attempt_ns` covers one body execution
/// (begin → abort or begin → commit-published); `txn_ns` covers the whole
/// transaction including every aborted attempt and backoff.
#[allow(unused_variables)]
pub trait Probe: Send + Sync {
    /// Compile-time switch the engines gate telemetry bookkeeping on.
    const ENABLED: bool;

    /// A transaction started its first attempt.
    #[inline]
    fn on_txn_begin(&self, thread: u32) {}

    /// An ownership grant was obtained (eager engines).
    #[inline]
    fn on_grant(&self, thread: u32) {}

    /// An acquire hit a conflict and the stall policy retried it.
    #[inline]
    fn on_stall(&self, thread: u32) {}

    /// An attempt aborted with `cause` after `attempt_ns`.
    #[inline]
    fn on_abort(&self, thread: u32, cause: AbortCause, attempt_ns: u64) {}

    /// The transaction committed: final attempt took `attempt_ns`, the whole
    /// transaction `txn_ns`, over `attempts` attempts (1 = first try).
    #[inline]
    fn on_commit(&self, thread: u32, attempt_ns: u64, txn_ns: u64, attempts: u64) {}

    /// The adaptive controller resized the ownership table.
    #[inline]
    fn on_resize(&self, from_entries: u64, to_entries: u64) {}

    /// A read-only transaction started an attempt on the snapshot read path
    /// (`TmEngine::run_read`).
    #[inline]
    fn on_read_begin(&self, thread: u32) {}

    /// A read-only attempt failed snapshot/read validation and will retry.
    #[inline]
    fn on_read_validation_retry(&self, thread: u32) {}

    /// A read-only transaction committed after `txn_ns` (all attempts).
    #[inline]
    fn on_read_commit(&self, thread: u32, txn_ns: u64) {}

    /// A transaction whose committed footprint spanned `shards` (≥ 2)
    /// shards finished its ordered two-phase commit (sharded engine only).
    #[inline]
    fn on_cross_shard_commit(&self, thread: u32, shards: u32) {}

    /// A cross-shard transaction attempt aborted during commit — the
    /// ordered grant-acquisition budget ran out or value validation failed.
    #[inline]
    fn on_cross_shard_abort(&self, thread: u32) {}
}

/// The default probe: disabled, every hook empty, zero cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    const ENABLED: bool = false;
}

impl<P: Probe> Probe for std::sync::Arc<P> {
    const ENABLED: bool = P::ENABLED;

    #[inline]
    fn on_txn_begin(&self, thread: u32) {
        (**self).on_txn_begin(thread);
    }
    #[inline]
    fn on_grant(&self, thread: u32) {
        (**self).on_grant(thread);
    }
    #[inline]
    fn on_stall(&self, thread: u32) {
        (**self).on_stall(thread);
    }
    #[inline]
    fn on_abort(&self, thread: u32, cause: AbortCause, attempt_ns: u64) {
        (**self).on_abort(thread, cause, attempt_ns);
    }
    #[inline]
    fn on_commit(&self, thread: u32, attempt_ns: u64, txn_ns: u64, attempts: u64) {
        (**self).on_commit(thread, attempt_ns, txn_ns, attempts);
    }
    #[inline]
    fn on_resize(&self, from_entries: u64, to_entries: u64) {
        (**self).on_resize(from_entries, to_entries);
    }
    #[inline]
    fn on_read_begin(&self, thread: u32) {
        (**self).on_read_begin(thread);
    }
    #[inline]
    fn on_read_validation_retry(&self, thread: u32) {
        (**self).on_read_validation_retry(thread);
    }
    #[inline]
    fn on_read_commit(&self, thread: u32, txn_ns: u64) {
        (**self).on_read_commit(thread, txn_ns);
    }
    #[inline]
    fn on_cross_shard_commit(&self, thread: u32, shards: u32) {
        (**self).on_cross_shard_commit(thread, shards);
    }
    #[inline]
    fn on_cross_shard_abort(&self, thread: u32) {
        (**self).on_cross_shard_abort(thread);
    }
}

// ---------------------------------------------------------------------------
// Flight-recorder events
// ---------------------------------------------------------------------------

/// What happened (one flight-recorder ring entry's payload).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Transaction began its first attempt.
    Begin,
    /// An ownership grant was obtained.
    Grant,
    /// The stall policy retried a conflicted acquire.
    Stall,
    /// An attempt aborted.
    Abort {
        /// Attributed cause.
        cause: AbortCause,
        /// Duration of the aborted attempt.
        attempt_ns: u64,
    },
    /// The transaction committed.
    Commit {
        /// Duration of the final (successful) attempt.
        attempt_ns: u64,
        /// Whole-transaction duration including aborted attempts.
        txn_ns: u64,
        /// Attempts taken (1 = committed first try).
        attempts: u64,
    },
    /// The adaptive controller resized the table.
    Resize {
        /// Entries before.
        from_entries: u64,
        /// Entries after.
        to_entries: u64,
    },
    /// A read-only transaction began an attempt (snapshot read path).
    ReadBegin,
    /// A read-only attempt failed validation and retried.
    ReadRetry,
    /// A read-only transaction committed.
    ReadCommit {
        /// Whole-transaction duration including validation retries.
        txn_ns: u64,
    },
    /// A cross-shard transaction finished its ordered two-phase commit.
    CrossShardCommit {
        /// Shards the committed footprint spanned (≥ 2).
        shards: u32,
    },
    /// A cross-shard commit attempt aborted (acquisition budget or
    /// value-validation failure).
    CrossShardAbort,
}

impl EventKind {
    /// Stable machine-readable name.
    pub fn as_str(&self) -> &'static str {
        match self {
            EventKind::Begin => "begin",
            EventKind::Grant => "grant",
            EventKind::Stall => "stall",
            EventKind::Abort { .. } => "abort",
            EventKind::Commit { .. } => "commit",
            EventKind::Resize { .. } => "resize",
            EventKind::ReadBegin => "read-begin",
            EventKind::ReadRetry => "read-retry",
            EventKind::ReadCommit { .. } => "read-commit",
            EventKind::CrossShardCommit { .. } => "cross-shard-commit",
            EventKind::CrossShardAbort => "cross-shard-abort",
        }
    }
}

/// One flight-recorder entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxnEvent {
    /// Nanoseconds since the recorder's epoch (construction or last reset).
    pub t_ns: u64,
    /// Reporting thread (`u32::MAX` for engine-global events like resizes).
    pub thread: u32,
    /// Payload.
    pub kind: EventKind,
}

impl TxnEvent {
    /// The event's fields as a JSON fragment *without* surrounding braces,
    /// so callers can prepend run identity (engine/scenario/threads) when
    /// building JSONL trace files.
    pub fn fields_json(&self) -> String {
        let mut s = format!(
            "\"t_ns\":{},\"thread\":{},\"event\":\"{}\"",
            self.t_ns,
            self.thread,
            self.kind.as_str()
        );
        match self.kind {
            EventKind::Begin
            | EventKind::Grant
            | EventKind::Stall
            | EventKind::ReadBegin
            | EventKind::ReadRetry
            | EventKind::CrossShardAbort => {}
            EventKind::CrossShardCommit { shards } => {
                s.push_str(&format!(",\"shards\":{shards}"));
            }
            EventKind::ReadCommit { txn_ns } => {
                s.push_str(&format!(",\"txn_ns\":{txn_ns}"));
            }
            EventKind::Abort { cause, attempt_ns } => {
                s.push_str(&format!(
                    ",\"cause\":\"{}\",\"attempt_ns\":{attempt_ns}",
                    cause.as_str()
                ));
            }
            EventKind::Commit {
                attempt_ns,
                txn_ns,
                attempts,
            } => {
                s.push_str(&format!(
                    ",\"attempt_ns\":{attempt_ns},\"txn_ns\":{txn_ns},\"attempts\":{attempts}"
                ));
            }
            EventKind::Resize {
                from_entries,
                to_entries,
            } => {
                s.push_str(&format!(
                    ",\"from_entries\":{from_entries},\"to_entries\":{to_entries}"
                ));
            }
        }
        s
    }

    /// The event as one self-contained JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        format!("{{{}}}", self.fields_json())
    }
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

/// Stripes in the recorder; threads map to stripes by `thread & 15`, the
/// same striping `tm-stm`'s statistics use.
pub const RECORDER_STRIPES: usize = 16;

/// Default flight-recorder ring capacity *per stripe* (the recorder keeps
/// the most recent events; older ones are counted as dropped).
pub const DEFAULT_RING_CAPACITY: usize = 64;

#[derive(Debug)]
struct EventRing {
    buf: VecDeque<TxnEvent>,
    dropped: u64,
}

#[derive(Debug)]
struct Stripe {
    attempt: AtomicHistogram,
    txn: AtomicHistogram,
    read_txn: AtomicHistogram,
    causes: [AtomicU64; AbortCause::COUNT],
    read_begins: AtomicU64,
    read_retries: AtomicU64,
    cross_commits: AtomicU64,
    cross_aborts: AtomicU64,
    events: Mutex<EventRing>,
}

impl Stripe {
    fn new(ring_capacity: usize) -> Self {
        Stripe {
            attempt: AtomicHistogram::new(),
            txn: AtomicHistogram::new(),
            read_txn: AtomicHistogram::new(),
            causes: Default::default(),
            read_begins: AtomicU64::new(0),
            read_retries: AtomicU64::new(0),
            cross_commits: AtomicU64::new(0),
            cross_aborts: AtomicU64::new(0),
            events: Mutex::new(EventRing {
                buf: VecDeque::with_capacity(ring_capacity),
                dropped: 0,
            }),
        }
    }
}

/// Per-shard engine counters attached to a [`TelemetrySnapshot`] when the
/// run drove a sharded engine.
///
/// Telemetry sits *below* the engine crates, so it cannot name their stats
/// types; the driver converts each shard's engine snapshot into this
/// plain-data row and stores the rows in the
/// [`TelemetrySnapshot::shard_stats`] of the snapshot it took.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index (0-based).
    pub shard: u32,
    /// Committed transactions attributed to this shard (cross-shard
    /// transactions count once, in their lowest participating shard).
    pub commits: u64,
    /// Aborted attempts attributed to this shard.
    pub aborts: u64,
    /// Acquire re-attempts under the stall policy in this shard.
    pub stall_retries: u64,
    /// Distinct written blocks of committed transactions that landed in
    /// this shard.
    pub committed_write_blocks: u64,
    /// Read-only commits attributed to this shard.
    pub read_only_commits: u64,
    /// Current ownership-table entries (tracks per-shard adaptive resizes).
    pub table_entries: u64,
}

/// Everything a [`Recorder`] captured, in plain-data form.
#[derive(Clone, Debug)]
pub struct TelemetrySnapshot {
    /// Per-attempt latency (every attempt: aborted and committed).
    pub attempt: Histogram,
    /// Whole-transaction latency (committed transactions).
    pub txn: Histogram,
    /// Whole-transaction latency of committed *read-only* transactions
    /// (`run_read`); its count is the read-only commit count.
    pub read_txn: Histogram,
    /// Abort counts indexed by [`AbortCause::index`].
    pub abort_causes: [u64; AbortCause::COUNT],
    /// Read-only attempts begun on the snapshot read path.
    pub read_begins: u64,
    /// Read-only attempts that failed snapshot/read validation and retried.
    pub read_validation_retries: u64,
    /// Flight-recorder contents, sorted by `t_ns`.
    pub events: Vec<TxnEvent>,
    /// Events evicted from the bounded rings.
    pub dropped_events: u64,
    /// Transactions whose committed footprint spanned ≥ 2 shards.
    pub cross_shard_commits: u64,
    /// Cross-shard commit attempts that aborted (ordering budget or
    /// validation failure).
    pub cross_shard_aborts: u64,
    /// Per-shard engine counters ([`Recorder::snapshot`] leaves this empty;
    /// a driver of a sharded engine fills it in).
    pub shard_stats: Vec<ShardStats>,
}

impl TelemetrySnapshot {
    /// The count recorded for `cause`.
    pub fn cause(&self, cause: AbortCause) -> u64 {
        self.abort_causes[cause.index()]
    }

    /// Total attributed aborts.
    pub fn total_aborts(&self) -> u64 {
        self.abort_causes.iter().sum()
    }

    /// Observed false-conflict fraction of classified conflicts
    /// (`None` when no conflict abort was classified).
    pub fn false_fraction(&self) -> Option<f64> {
        let f = self.cause(AbortCause::FalseConflict);
        let t = self.cause(AbortCause::TrueConflict);
        (f + t > 0).then(|| f as f64 / (f + t) as f64)
    }
}

/// The enabled [`Probe`]: striped histograms, per-cause counters, and a
/// bounded flight-recorder ring per stripe.
///
/// All storage is preallocated at construction; recording performs no
/// steady-state allocation (rings evict their oldest entry once full).
/// Share one recorder across worker threads via `Arc<Recorder>` — `Arc<P>`
/// forwards the [`Probe`] impl.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    stripes: Vec<Stripe>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder with the default per-stripe ring capacity.
    pub fn new() -> Self {
        Self::with_ring_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A recorder keeping at most `ring_capacity` events per stripe.
    pub fn with_ring_capacity(ring_capacity: usize) -> Self {
        let mut stripes = Vec::with_capacity(RECORDER_STRIPES);
        stripes.resize_with(RECORDER_STRIPES, || Stripe::new(ring_capacity.max(1)));
        Recorder {
            epoch: Instant::now(),
            stripes,
        }
    }

    #[inline]
    fn stripe(&self, thread: u32) -> &Stripe {
        &self.stripes[thread as usize & (RECORDER_STRIPES - 1)]
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    fn push_event(&self, thread: u32, kind: EventKind) {
        let event = TxnEvent {
            t_ns: self.now_ns(),
            thread,
            kind,
        };
        let stripe = self.stripe(thread);
        let mut ring = stripe.events.lock().unwrap_or_else(|e| e.into_inner());
        if ring.buf.len() == ring.buf.capacity() {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(event);
    }

    /// Zero every histogram, counter, and ring; restart the event clock.
    /// Call between warmup and measurement phases.
    pub fn reset(&mut self) {
        self.reset_window();
        self.epoch = Instant::now();
    }

    /// [`reset`](Recorder::reset) through a shared reference (for recorders
    /// already shared via `Arc` with running engines): zeroes histograms,
    /// cause counters, and rings, but keeps the event clock's epoch so
    /// `t_ns` stays monotone across the reset. Concurrent recording during
    /// the reset may survive partially; call it at a quiescent point (e.g.
    /// between a run's warmup and measurement phases).
    pub fn reset_window(&self) {
        for stripe in &self.stripes {
            stripe.attempt.reset();
            stripe.txn.reset();
            stripe.read_txn.reset();
            for c in &stripe.causes {
                c.store(0, Ordering::Relaxed);
            }
            stripe.read_begins.store(0, Ordering::Relaxed);
            stripe.read_retries.store(0, Ordering::Relaxed);
            stripe.cross_commits.store(0, Ordering::Relaxed);
            stripe.cross_aborts.store(0, Ordering::Relaxed);
            let mut ring = stripe.events.lock().unwrap_or_else(|e| e.into_inner());
            ring.buf.clear();
            ring.dropped = 0;
        }
    }

    /// Merge every stripe into one plain-data snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut attempt = Histogram::new();
        let mut txn = Histogram::new();
        let mut read_txn = Histogram::new();
        let mut abort_causes = [0u64; AbortCause::COUNT];
        let mut read_begins = 0;
        let mut read_validation_retries = 0;
        let mut cross_shard_commits = 0;
        let mut cross_shard_aborts = 0;
        let mut events = Vec::new();
        let mut dropped_events = 0;
        for stripe in &self.stripes {
            attempt.merge(&stripe.attempt.snapshot());
            txn.merge(&stripe.txn.snapshot());
            read_txn.merge(&stripe.read_txn.snapshot());
            for (i, c) in stripe.causes.iter().enumerate() {
                abort_causes[i] += c.load(Ordering::Relaxed);
            }
            read_begins += stripe.read_begins.load(Ordering::Relaxed);
            read_validation_retries += stripe.read_retries.load(Ordering::Relaxed);
            cross_shard_commits += stripe.cross_commits.load(Ordering::Relaxed);
            cross_shard_aborts += stripe.cross_aborts.load(Ordering::Relaxed);
            let ring = stripe.events.lock().unwrap_or_else(|e| e.into_inner());
            events.extend(ring.buf.iter().copied());
            dropped_events += ring.dropped;
        }
        events.sort_by_key(|e| e.t_ns);
        TelemetrySnapshot {
            attempt,
            txn,
            read_txn,
            abort_causes,
            read_begins,
            read_validation_retries,
            events,
            dropped_events,
            cross_shard_commits,
            cross_shard_aborts,
            shard_stats: Vec::new(),
        }
    }
}

impl Probe for Recorder {
    const ENABLED: bool = true;

    #[inline]
    fn on_txn_begin(&self, thread: u32) {
        self.push_event(thread, EventKind::Begin);
    }

    #[inline]
    fn on_grant(&self, thread: u32) {
        self.push_event(thread, EventKind::Grant);
    }

    #[inline]
    fn on_stall(&self, thread: u32) {
        self.push_event(thread, EventKind::Stall);
    }

    #[inline]
    fn on_abort(&self, thread: u32, cause: AbortCause, attempt_ns: u64) {
        let stripe = self.stripe(thread);
        stripe.attempt.record(attempt_ns);
        stripe.causes[cause.index()].fetch_add(1, Ordering::Relaxed);
        self.push_event(thread, EventKind::Abort { cause, attempt_ns });
    }

    #[inline]
    fn on_commit(&self, thread: u32, attempt_ns: u64, txn_ns: u64, attempts: u64) {
        let stripe = self.stripe(thread);
        stripe.attempt.record(attempt_ns);
        stripe.txn.record(txn_ns);
        self.push_event(
            thread,
            EventKind::Commit {
                attempt_ns,
                txn_ns,
                attempts,
            },
        );
    }

    #[inline]
    fn on_resize(&self, from_entries: u64, to_entries: u64) {
        self.push_event(
            u32::MAX,
            EventKind::Resize {
                from_entries,
                to_entries,
            },
        );
    }

    #[inline]
    fn on_read_begin(&self, thread: u32) {
        self.stripe(thread)
            .read_begins
            .fetch_add(1, Ordering::Relaxed);
        self.push_event(thread, EventKind::ReadBegin);
    }

    #[inline]
    fn on_read_validation_retry(&self, thread: u32) {
        self.stripe(thread)
            .read_retries
            .fetch_add(1, Ordering::Relaxed);
        self.push_event(thread, EventKind::ReadRetry);
    }

    #[inline]
    fn on_read_commit(&self, thread: u32, txn_ns: u64) {
        self.stripe(thread).read_txn.record(txn_ns);
        self.push_event(thread, EventKind::ReadCommit { txn_ns });
    }

    #[inline]
    fn on_cross_shard_commit(&self, thread: u32, shards: u32) {
        self.stripe(thread)
            .cross_commits
            .fetch_add(1, Ordering::Relaxed);
        self.push_event(thread, EventKind::CrossShardCommit { shards });
    }

    #[inline]
    fn on_cross_shard_abort(&self, thread: u32) {
        self.stripe(thread)
            .cross_aborts
            .fetch_add(1, Ordering::Relaxed);
        self.push_event(thread, EventKind::CrossShardAbort);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_is_monotone_and_continuous() {
        // Exhaustive over the linear/log seam plus spot checks per octave.
        let mut prev = 0;
        for v in 0..4096u64 {
            let b = bucket_of(v);
            assert!(b >= prev, "bucket_of must be monotone at {v}");
            prev = b;
            assert!(
                bucket_lower_bound(b) <= v,
                "lower bound exceeds value at {v}"
            );
        }
        // Relative error bound: lower bound within 1/16 of the value.
        for exp in SUB_BITS..MAX_EXP {
            let v = (1u64 << exp) + (1u64 << exp) / 3;
            let lb = bucket_lower_bound(bucket_of(v));
            assert!(lb <= v && (v - lb) as f64 / v as f64 <= 1.0 / 16.0 + 1e-9);
        }
        // Saturation.
        assert_eq!(bucket_of(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_of(1u64 << 63), NUM_BUCKETS - 1);
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new();
        assert!(h.percentile(0.5).is_none());
        for v in 1..=100u64 {
            h.record(v * 10);
        }
        assert_eq!(h.count(), 100);
        let (p50, p95, p99) = h.p50_p95_p99().unwrap();
        assert!(p50 <= p95 && p95 <= p99);
        // p50 of 10..=1000 step 10 is the 50th sample = 500, quantized down.
        assert!((440..=500).contains(&p50), "p50 = {p50}");
        assert!((890..=990).contains(&p99), "p99 = {p99}");
        // With 100 samples the 99.9th percentile is the last sample (1000),
        // quantized down by at most one bucket width.
        let p999 = h.p999().unwrap();
        assert!(p99 <= p999 && (930..=1000).contains(&p999), "p999 = {p999}");
    }

    #[test]
    fn histogram_merge_conserves_count() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..50 {
            a.record(v * 7);
            b.record(v * 131);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), a.count() + b.count());
    }

    #[test]
    fn atomic_histogram_matches_plain() {
        let ah = AtomicHistogram::new();
        let mut h = Histogram::new();
        for v in [0, 1, 15, 16, 17, 1000, 123_456_789] {
            ah.record(v);
            h.record(v);
        }
        assert_eq!(ah.snapshot(), h);
        ah.reset();
        assert!(ah.snapshot().is_empty());
    }

    #[test]
    fn recorder_counts_causes_and_bounds_rings() {
        let mut r = Recorder::with_ring_capacity(4);
        r.on_txn_begin(0);
        for _ in 0..10 {
            r.on_abort(0, AbortCause::FalseConflict, 100);
        }
        r.on_abort(1, AbortCause::TrueConflict, 200);
        r.on_commit(0, 300, 5_000, 11);
        let snap = r.snapshot();
        assert_eq!(snap.cause(AbortCause::FalseConflict), 10);
        assert_eq!(snap.cause(AbortCause::TrueConflict), 1);
        assert_eq!(snap.total_aborts(), 11);
        assert_eq!(snap.attempt.count(), 12); // 11 aborts + 1 commit
        assert_eq!(snap.txn.count(), 1);
        // Stripe 0 ring bounded at 4; events were begin + 10 aborts + commit.
        assert!(snap.events.len() <= 4 * 2 + 1);
        assert!(snap.dropped_events >= 8);
        assert!((snap.false_fraction().unwrap() - 10.0 / 11.0).abs() < 1e-12);

        r.reset();
        let snap = r.snapshot();
        assert_eq!(snap.total_aborts(), 0);
        assert!(snap.events.is_empty());
        assert_eq!(snap.dropped_events, 0);
    }

    #[test]
    fn events_sorted_and_jsonl_shaped() {
        let r = Recorder::new();
        r.on_txn_begin(3);
        r.on_grant(3);
        r.on_stall(7);
        r.on_abort(7, AbortCause::UnknownConflict, 42);
        r.on_commit(3, 10, 20, 2);
        r.on_resize(4096, 8192);
        let snap = r.snapshot();
        assert!(snap.events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        let kinds: Vec<&str> = snap.events.iter().map(|e| e.kind.as_str()).collect();
        for k in ["begin", "grant", "stall", "abort", "commit", "resize"] {
            assert!(kinds.contains(&k), "missing {k}");
        }
        let abort = snap
            .events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Abort { .. }))
            .unwrap();
        let line = abort.to_json_line();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"event\":\"abort\""));
        assert!(line.contains("\"cause\":\"unknown-conflict\""));
        let resize = snap.events.iter().find(|e| e.thread == u32::MAX).unwrap();
        assert!(resize.fields_json().contains("\"to_entries\":8192"));
    }

    #[test]
    fn read_path_hooks_are_counted_and_traced() {
        let r = Recorder::new();
        r.on_read_begin(2);
        r.on_read_begin(2);
        r.on_read_validation_retry(2);
        r.on_read_commit(2, 640);
        let snap = r.snapshot();
        assert_eq!(snap.read_begins, 2);
        assert_eq!(snap.read_validation_retries, 1);
        assert_eq!(snap.read_txn.count(), 1);
        // Read-path events never touch the write-side instruments.
        assert_eq!(snap.txn.count(), 0);
        assert_eq!(snap.attempt.count(), 0);
        assert_eq!(snap.total_aborts(), 0);
        let kinds: Vec<&str> = snap.events.iter().map(|e| e.kind.as_str()).collect();
        for k in ["read-begin", "read-retry", "read-commit"] {
            assert!(kinds.contains(&k), "missing {k}");
        }
        let commit = snap
            .events
            .iter()
            .find(|e| matches!(e.kind, EventKind::ReadCommit { .. }))
            .unwrap();
        assert!(commit.to_json_line().contains("\"txn_ns\":640"));
        r.reset_window();
        let snap = r.snapshot();
        assert_eq!(snap.read_begins, 0);
        assert_eq!(snap.read_validation_retries, 0);
        assert!(snap.read_txn.is_empty());
    }

    #[test]
    fn cross_shard_hooks_are_counted_and_traced() {
        let r = Recorder::new();
        r.on_cross_shard_commit(1, 3);
        r.on_cross_shard_commit(2, 2);
        r.on_cross_shard_abort(1);
        let snap = r.snapshot();
        assert_eq!(snap.cross_shard_commits, 2);
        assert_eq!(snap.cross_shard_aborts, 1);
        let commit = snap
            .events
            .iter()
            .find(|e| matches!(e.kind, EventKind::CrossShardCommit { .. }))
            .unwrap();
        assert!(commit.to_json_line().contains("\"shards\":3"));
        assert!(snap
            .events
            .iter()
            .any(|e| e.kind.as_str() == "cross-shard-abort"));
        // Cross-shard hooks stay off the write-side instruments.
        assert_eq!(snap.txn.count(), 0);
        assert_eq!(snap.total_aborts(), 0);
        r.reset_window();
        let snap = r.snapshot();
        assert_eq!(snap.cross_shard_commits, 0);
        assert_eq!(snap.cross_shard_aborts, 0);
        assert!(snap.shard_stats.is_empty());
    }

    #[test]
    fn noop_probe_is_callable() {
        // Smoke: the default hooks exist and do nothing.
        let p = NoopProbe;
        const { assert!(!NoopProbe::ENABLED) };
        p.on_txn_begin(0);
        p.on_abort(0, AbortCause::Capacity, 1);
        p.on_commit(0, 1, 2, 1);
        let arc = std::sync::Arc::new(Recorder::new());
        const { assert!(<std::sync::Arc<Recorder> as Probe>::ENABLED) };
        arc.on_commit(0, 1, 2, 1);
        assert_eq!(arc.snapshot().txn.count(), 1);
    }
}
