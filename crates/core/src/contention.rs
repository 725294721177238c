//! Contention management: what a transaction does when it hits a conflict.
//!
//! The paper (§2.1): "Due to the all-or-nothing nature of transactions, a
//! single conflict forces a transaction to either abort or stall until the
//! conflicting transaction commits." Both options are provided; because
//! ownership acquisition is eager and non-blocking, the stall variant spins
//! a bounded number of times on the contended entry before giving up and
//! aborting (unbounded stalling could deadlock two transactions stalling on
//! each other).
//!
//! It is also where the reaction to an *abort* lives: [`drive`] is the one
//! attempt loop in the crate. Every engine's update path and read-only
//! path run under it; an engine contributes only the closure that makes a
//! single attempt.

use std::time::Instant;

use tm_ownership::ThreadId;
use tm_telemetry::{AbortCause, Probe};

use crate::stats::StmStats;
use crate::stm::{Aborted, RetryLimitExceeded};

/// Policy choices for reacting to a conflict.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ContentionPolicy {
    /// Abort immediately and retry the whole transaction after randomized
    /// exponential backoff.
    #[default]
    Suicide,
    /// Re-attempt the conflicting acquire up to the given number of times
    /// (spinning in between), then abort.
    Stall {
        /// Maximum re-attempts of one acquire before aborting.
        max_spins: u32,
    },
}

impl ContentionPolicy {
    /// Acquire re-attempts allowed before aborting (0 for suicide).
    pub fn max_spins(&self) -> u32 {
        match self {
            ContentionPolicy::Suicide => 0,
            ContentionPolicy::Stall { max_spins } => *max_spins,
        }
    }
}

/// How a whole transaction reacts to repeated aborts: the retry budget
/// one [`run_with`](crate::TmEngine::run_with) /
/// [`run_read_with`](crate::TmEngine::run_read_with) call spends before it
/// gives up with [`RetryLimitExceeded`].
///
/// Orthogonal to [`ContentionPolicy`], which governs a *single* conflicting
/// acquire inside one attempt; the retry policy governs the attempt loop
/// around the whole body. It is a property of the call, never of the
/// engine, and every engine honours it identically — the loop is shared.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RetryPolicy {
    /// Retry (with randomized exponential backoff) until the body commits.
    #[default]
    Unbounded,
    /// Give up after this many attempts (clamped to at least one).
    Bounded {
        /// Maximum attempts, counting the first.
        max_attempts: u32,
    },
}

impl RetryPolicy {
    /// The attempt budget this policy allows.
    pub fn budget(&self) -> u32 {
        match self {
            RetryPolicy::Unbounded => u32::MAX,
            RetryPolicy::Bounded { max_attempts } => (*max_attempts).max(1),
        }
    }
}

/// Randomized exponential backoff between transaction retries.
///
/// Spin-loop based (no syscalls) with a cap; the jitter source is a
/// SplitMix64 stream seeded per transaction so threads desynchronize.
#[derive(Clone, Debug)]
pub struct Backoff {
    attempt: u32,
    rng_state: u64,
    max_exponent: u32,
}

impl Backoff {
    /// Fresh backoff state with the given jitter seed.
    pub fn new(seed: u64) -> Self {
        Self {
            attempt: 0,
            rng_state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
            max_exponent: 16,
        }
    }

    /// Number of retries so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    fn next_u64(&mut self) -> u64 {
        // SplitMix64: tiny, seedable, good enough for jitter.
        self.rng_state = self.rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Record an abort and spin for a randomized, exponentially growing
    /// interval.
    pub fn wait(&mut self) {
        self.attempt += 1;
        let exp = self.attempt.min(self.max_exponent);
        let ceiling = 1u64 << exp;
        let spins = self.next_u64() % ceiling;
        for _ in 0..spins {
            std::hint::spin_loop();
        }
    }

    /// Reset after a successful commit.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// Which of an engine's two paths a transaction runs on. The loop is the
/// same; the counters and probe hooks an outcome lands in differ, so the
/// write-side ratios never see read-only traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Path {
    /// Read-write: `commits`/`aborts`, `on_txn_begin` once, then
    /// `on_abort`* and `on_commit`.
    Update,
    /// Read-only: `read_only_commits`/`read_validation_retries`,
    /// `on_read_begin` per attempt, then `on_read_validation_retry` or
    /// `on_read_commit`.
    ReadOnly,
}

/// What one attempt came to, and the counter block it is charged to (an
/// engine routed over several tables attributes each attempt to one).
pub(crate) enum Attempt<'s, O> {
    /// The body ran and its effects are published.
    Committed(O, &'s StmStats),
    /// The attempt was abandoned. On the read-only path the cause is not
    /// reported: a read-only attempt fails one way, validation.
    Aborted(AbortCause, &'s StmStats),
    /// Not an outcome. The attempt changed how the transaction must run
    /// (an eager attempt reached a second table and continues in
    /// cross-table mode): run it again at once, counting nothing.
    Restart,
}

impl<'s, O> Attempt<'s, O> {
    /// A read-only attempt's outcome: the body's own result is all there
    /// is, since nothing is committed.
    pub(crate) fn read_only(outcome: Result<O, Aborted>, stats: &'s StmStats) -> Self {
        match outcome {
            Ok(value) => Attempt::Committed(value, stats),
            Err(Aborted) => Attempt::Aborted(AbortCause::ValidationFailed, stats),
        }
    }
}

/// Nanoseconds since an (optionally taken) probe timestamp; `0` when
/// telemetry is off and no timestamp was taken.
#[inline]
fn elapsed_ns(start: Option<Instant>) -> u64 {
    start.map_or(0, |t| t.elapsed().as_nanos() as u64)
}

/// Run `attempt` until it commits or `policy`'s budget is spent, backing
/// off between attempts — the transaction driver of every engine, on both
/// paths.
///
/// Owns everything about a transaction that is not one attempt: the
/// attempt budget, the [`Backoff`], the outcome counters and the probe
/// bracket around them. Counter and probe are bumped side by side here and
/// nowhere else, so a [`Recorder`](tm_telemetry::Recorder)'s counts agree
/// with [`EngineStats`](crate::EngineStats) by construction. All clock
/// reads sit behind the compile-time probe switch: with `NoopProbe` the
/// timestamps are `None` and nothing here touches the clock.
///
/// Generic over `attempt` and inlined, so a transaction pays no indirect
/// call: loop, attempt and body compile into one function per call site.
#[inline]
pub(crate) fn drive<'s, P: Probe, O>(
    probe: &P,
    me: ThreadId,
    policy: RetryPolicy,
    path: Path,
    mut attempt: impl FnMut() -> Attempt<'s, O>,
) -> Result<O, RetryLimitExceeded> {
    let budget = policy.budget();
    let update = path == Path::Update;
    let mut backoff = Backoff::new(me as u64);
    let mut attempts = 0u32;
    let txn_start = P::ENABLED.then(Instant::now);
    if P::ENABLED && update {
        probe.on_txn_begin(me);
    }
    loop {
        let attempt_start = (P::ENABLED && update).then(Instant::now);
        if P::ENABLED && !update {
            probe.on_read_begin(me);
        }
        match attempt() {
            Attempt::Committed(value, stats) => {
                if update {
                    stats.on_commit(me);
                    if P::ENABLED {
                        probe.on_commit(
                            me,
                            elapsed_ns(attempt_start),
                            elapsed_ns(txn_start),
                            u64::from(attempts) + 1,
                        );
                    }
                } else {
                    stats.on_read_commit(me);
                    if P::ENABLED {
                        probe.on_read_commit(me, elapsed_ns(txn_start));
                    }
                }
                return Ok(value);
            }
            Attempt::Aborted(cause, stats) => {
                if update {
                    stats.on_abort(me);
                    if P::ENABLED {
                        probe.on_abort(me, cause, elapsed_ns(attempt_start));
                    }
                } else {
                    stats.on_read_validation_retry(me);
                    if P::ENABLED {
                        probe.on_read_validation_retry(me);
                    }
                }
            }
            Attempt::Restart => continue,
        }
        attempts += 1;
        if attempts >= budget {
            return Err(RetryLimitExceeded { attempts });
        }
        backoff.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_spins() {
        assert_eq!(ContentionPolicy::Suicide.max_spins(), 0);
        assert_eq!(ContentionPolicy::Stall { max_spins: 8 }.max_spins(), 8);
        assert_eq!(ContentionPolicy::default(), ContentionPolicy::Suicide);
    }

    #[test]
    fn backoff_counts_and_resets() {
        let mut b = Backoff::new(1);
        assert_eq!(b.attempts(), 0);
        b.wait();
        b.wait();
        assert_eq!(b.attempts(), 2);
        b.reset();
        assert_eq!(b.attempts(), 0);
    }

    #[test]
    fn jitter_streams_differ_by_seed() {
        let mut a = Backoff::new(1);
        let mut b = Backoff::new(2);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }
}
