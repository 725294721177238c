//! Deterministic fault injection: the chaos layer the recovery machinery
//! is tested against.
//!
//! Everything here is driven by a seed, never by wall-clock randomness, so
//! any failing schedule replays bit-exactly from its [`FaultPlan`]. Three
//! fault families compose:
//!
//! * **frame faults** ([`FrameFaults`], applied by [`FaultyConn`] on the
//!   client side of the channel transport): drop, truncate, corrupt, or
//!   delay-reorder request frames; drop response frames; sever the
//!   connection after the Nth delivered request. Truncation and corruption
//!   are guaranteed to produce *undecodable* bytes (a corrupted frame that
//!   would still decode is dropped instead), so a fault can garble what the
//!   server sees but never silently change a write's meaning.
//! * **crash points** ([`CrashPoint`], checked by the server/batch code
//!   via [`FaultState::crash_point`]): a [`CrashSchedule`] panics the worker
//!   thread on the scheduled hit of a named point. The worker thread
//!   catches the unwind, poisons what was lost, audits the engine, and
//!   serves on — the chaos tests assert conservation across every
//!   such crash.
//! * **abort storms** ([`FaultState::force_abort`], polled by the group
//!   body as a fault probe): a deterministic per-mille coin that forces the
//!   transaction body to abort voluntarily, pushing the engine's abort
//!   ratio far above what Eq. 8 predicts for the workload and exercising
//!   the admission controller's contraction path.
//!
//! Crash points deliberately bracket the write pipeline's state handoffs —
//! frame ingress, batcher enqueue, and both sides of group commit — the
//! places where a real bug would strand admission budget, dedup tokens, or
//! unacknowledged clients. The engine itself never unwinds mid-transaction
//! (every point sits outside `TmEngine::run`); engine-internal corruption
//! is what the recovery audit *detects*, not what it injects.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::protocol::{Request, RequestFrame, ResponseFrame};
use crate::transport::ChannelConn;

/// Named places in the write pipeline where an injected panic may fire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPoint {
    /// Top of `handle_frame`, before the frame is decoded or admitted: the
    /// frame vanishes entirely (never applied, never answered).
    FrameIngress,
    /// Inside `Batcher::push`, after admission admitted the write but
    /// before it is safely enqueued: recovery must release the admission
    /// budget and poison the caller.
    BatchEnqueue,
    /// Immediately before a drained group runs its engine transaction: the
    /// whole group must vanish (nothing applied, every op poisoned).
    BeforeGroupCommit,
    /// Immediately after the engine transaction committed but before any
    /// response went out: recovery must still deliver the acks, or acked
    /// increments and the heap would diverge.
    AfterGroupCommit,
}

impl CrashPoint {
    /// Every crash point, in pipeline order.
    pub const ALL: [CrashPoint; 4] = [
        CrashPoint::FrameIngress,
        CrashPoint::BatchEnqueue,
        CrashPoint::BeforeGroupCommit,
        CrashPoint::AfterGroupCommit,
    ];

    /// Position in [`CrashPoint::ALL`] (chaos reports index by it).
    pub fn index(self) -> usize {
        match self {
            CrashPoint::FrameIngress => 0,
            CrashPoint::BatchEnqueue => 1,
            CrashPoint::BeforeGroupCommit => 2,
            CrashPoint::AfterGroupCommit => 3,
        }
    }

    /// Stable human-readable name (chaos reports key on it).
    pub fn name(self) -> &'static str {
        match self {
            CrashPoint::FrameIngress => "frame-ingress",
            CrashPoint::BatchEnqueue => "batch-enqueue",
            CrashPoint::BeforeGroupCommit => "before-group-commit",
            CrashPoint::AfterGroupCommit => "after-group-commit",
        }
    }
}

/// One scheduled panic: fire on the `at_hit`-th (1-based) evaluation of
/// `point`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashSchedule {
    /// Where.
    pub point: CrashPoint,
    /// On which hit (1 = the first time the point is reached).
    pub at_hit: u64,
}

/// Frame-level fault rates, in per-mille (0 = never, 1000 = always).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameFaults {
    /// Silently drop an outgoing request frame.
    pub drop_request_per_mille: u32,
    /// Cut 1..len bytes off the end of an outgoing request frame (always
    /// undecodable: the envelope's length prefix no longer matches).
    pub truncate_per_mille: u32,
    /// Flip one byte of an outgoing request frame. If the flipped frame
    /// would still decode (the flip landed somewhere harmless or changed
    /// the payload's *meaning*), the frame is dropped instead — corruption
    /// may garble a request but never silently rewrite it.
    pub corrupt_per_mille: u32,
    /// Hold an outgoing request frame back and deliver it after the next
    /// one (a one-slot reorder).
    pub delay_per_mille: u32,
    /// Silently drop an incoming response frame — the fault that makes
    /// retries double-apply without idempotency tokens.
    pub drop_response_per_mille: u32,
    /// Sever the connection (drop everything both ways) after this many
    /// requests have actually been delivered.
    pub disconnect_after: Option<u64>,
}

impl FrameFaults {
    /// Do frame faults exist at all in this plan?
    pub fn any(&self) -> bool {
        self.drop_request_per_mille > 0
            || self.truncate_per_mille > 0
            || self.corrupt_per_mille > 0
            || self.delay_per_mille > 0
            || self.drop_response_per_mille > 0
            || self.disconnect_after.is_some()
    }
}

/// A complete, replayable fault schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for every probabilistic draw (frame faults, abort storm).
    pub seed: u64,
    /// Frame-level faults (applied client-side by [`FaultyConn`]).
    pub frame: FrameFaults,
    /// Scheduled worker panics.
    pub crashes: Vec<CrashSchedule>,
    /// Per-mille probability that the group-commit body aborts voluntarily
    /// on any given attempt. Capped at [`FaultPlan::MAX_STORM_PER_MILLE`]
    /// so a storm can slow commits but never livelock them.
    pub abort_storm_per_mille: u32,
}

impl FaultPlan {
    /// Upper bound on [`FaultPlan::abort_storm_per_mille`]: a commit
    /// attempt always retains at least a 10% chance of proceeding.
    pub const MAX_STORM_PER_MILLE: u32 = 900;

    /// The no-fault plan (useful as a baseline under the same plumbing).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            frame: FrameFaults::default(),
            crashes: Vec::new(),
            abort_storm_per_mille: 0,
        }
    }

    /// Compile the plan into shared runtime state for a server.
    pub fn arm(&self) -> Arc<FaultState> {
        let mut plan = self.clone();
        plan.abort_storm_per_mille = plan.abort_storm_per_mille.min(Self::MAX_STORM_PER_MILLE);
        Arc::new(FaultState {
            plan,
            hits: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
            fired: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
            storm_ticks: AtomicU64::new(0),
            crashes_fired: AtomicU64::new(0),
        })
    }
}

/// Shared runtime state of an armed [`FaultPlan`]: per-crash-point hit
/// counters plus the abort-storm coin. One instance is shared by every
/// worker of a server (and by the test observing it).
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    hits: [AtomicU64; 4],
    fired: [AtomicU64; 4],
    storm_ticks: AtomicU64,
    crashes_fired: AtomicU64,
}

/// SplitMix64 finalizer: a cheap, well-mixed hash for deterministic
/// per-tick coins (and for chaos-case derivation from a seed).
pub(crate) fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl FaultState {
    /// Record one hit of `point`; panic if the plan schedules a crash on
    /// this hit. Call sites are the crash points themselves.
    pub fn crash_point(&self, point: CrashPoint) {
        let hit = self.hits[point.index()].fetch_add(1, Ordering::Relaxed) + 1;
        for c in &self.plan.crashes {
            if c.point == point && c.at_hit == hit {
                self.crashes_fired.fetch_add(1, Ordering::Relaxed);
                self.fired[point.index()].fetch_add(1, Ordering::Relaxed);
                panic!(
                    "injected crash at {} (hit {hit}, seed {:#x})",
                    point.name(),
                    self.plan.seed
                );
            }
        }
    }

    /// The abort-storm probe: deterministic per-tick coin the group-commit
    /// body polls. `true` means "abort this attempt".
    pub fn force_abort(&self) -> bool {
        let per_mille = self.plan.abort_storm_per_mille;
        if per_mille == 0 {
            return false;
        }
        let tick = self.storm_ticks.fetch_add(1, Ordering::Relaxed);
        mix(self.plan.seed ^ tick.wrapping_mul(0xa5a5_5a5a_1234_5678)) % 1000 < u64::from(per_mille)
    }

    /// Crashes actually fired so far.
    pub fn crashes_fired(&self) -> u64 {
        self.crashes_fired.load(Ordering::Relaxed)
    }

    /// Times `point` has been evaluated so far.
    pub fn hits(&self, point: CrashPoint) -> u64 {
        self.hits[point.index()].load(Ordering::Relaxed)
    }

    /// Crashes fired at `point` specifically.
    pub fn fired(&self, point: CrashPoint) -> u64 {
        self.fired[point.index()].load(Ordering::Relaxed)
    }

    /// The plan this state was armed from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

/// What a [`FaultyConn`] did to the traffic that crossed it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultyConnStats {
    /// Request frames silently dropped.
    pub dropped_requests: u64,
    /// Request frames truncated (delivered undecodable).
    pub truncated: u64,
    /// Request frames corrupted (delivered undecodable).
    pub corrupted: u64,
    /// Request frames delayed behind their successor.
    pub delayed: u64,
    /// Response frames swallowed.
    pub dropped_responses: u64,
    /// Request frames delivered intact.
    pub delivered: u64,
}

/// The `FaultyTransport` wrapper: a [`ChannelConn`] whose traffic passes
/// through a deterministic fault filter. All draws come from the plan's
/// seed (XORed with the session id so parallel connections under one plan
/// fault independently but reproducibly).
pub struct FaultyConn {
    inner: ChannelConn,
    faults: FrameFaults,
    rng: StdRng,
    /// A frame held back by a delay fault, delivered after the next send.
    held: Option<Vec<u8>>,
    delivered: u64,
    severed: bool,
    next_id: u64,
    /// Traffic accounting (what the chaos harness reconciles against).
    pub stats: FaultyConnStats,
}

impl FaultyConn {
    /// Wrap `inner` with the plan's frame faults.
    pub fn new(inner: ChannelConn, plan: &FaultPlan) -> Self {
        let seed = plan.seed ^ inner.session().wrapping_mul(0x517c_c1b7_2722_0a95);
        Self {
            inner,
            faults: plan.frame,
            rng: StdRng::seed_from_u64(seed),
            held: None,
            delivered: 0,
            severed: false,
            next_id: 1,
            stats: FaultyConnStats::default(),
        }
    }

    /// The underlying session id.
    pub fn session(&self) -> u64 {
        self.inner.session()
    }

    /// Has a disconnect fault severed this connection?
    pub fn is_severed(&self) -> bool {
        self.severed
    }

    /// Encode and send `request` through the fault filter; returns the
    /// correlation id the client should watch for (assigned even when the
    /// fault filter eats the frame — the client cannot know).
    pub fn send(&mut self, request: Request) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let bytes = RequestFrame { id, request }.encode();
        self.send_bytes(bytes);
        id
    }

    fn send_bytes(&mut self, bytes: Vec<u8>) {
        if self.is_severed() {
            self.stats.dropped_requests += 1;
            return;
        }
        let f = self.faults;
        let roll: u32 = self.rng.gen_range(0..1000);
        let drop_end = f.drop_request_per_mille;
        let trunc_end = drop_end + f.truncate_per_mille;
        let corrupt_end = trunc_end + f.corrupt_per_mille;
        let delay_end = corrupt_end + f.delay_per_mille;

        if roll < drop_end {
            self.stats.dropped_requests += 1;
        } else if roll < trunc_end && bytes.len() > 1 {
            let cut = self.rng.gen_range(1..bytes.len());
            self.stats.truncated += 1;
            self.deliver(bytes[..bytes.len() - cut].to_vec());
        } else if roll < corrupt_end {
            let mut garbled = bytes;
            let pos = self.rng.gen_range(0..garbled.len());
            let flip: u8 = self.rng.gen_range(1..255);
            garbled[pos] ^= flip;
            if RequestFrame::decode(&garbled).is_ok() {
                // The flip kept the frame decodable — delivering it would
                // silently change the request. Drop instead.
                self.stats.dropped_requests += 1;
            } else {
                self.stats.corrupted += 1;
                self.deliver(garbled);
            }
        } else if roll < delay_end {
            // Hold this frame; it goes out behind the next one. A second
            // delay before the first released frame just swaps again.
            if let Some(prev) = self.held.replace(bytes) {
                self.deliver(prev);
            }
            self.stats.delayed += 1;
        } else {
            self.deliver(bytes);
        }
    }

    fn deliver(&mut self, bytes: Vec<u8>) {
        self.inner.send_raw(bytes);
        self.delivered += 1;
        self.stats.delivered += 1;
        if let Some(n) = self.faults.disconnect_after {
            if self.delivered >= n && !self.severed {
                self.severed = true;
                self.inner.disconnect();
            }
        }
        // Release any held frame behind the one just delivered.
        if let Some(held) = self.held.take() {
            if !self.is_severed() {
                self.inner.send_raw(held);
                self.delivered += 1;
                self.stats.delivered += 1;
            } else {
                self.stats.dropped_requests += 1;
            }
        }
    }

    /// Push any delay-held frame out now (call before waiting on a
    /// response to the most recent send).
    pub fn flush_held(&mut self) {
        if let Some(held) = self.held.take() {
            if self.is_severed() {
                self.stats.dropped_requests += 1;
            } else {
                self.inner.send_raw(held);
                self.delivered += 1;
                self.stats.delivered += 1;
            }
        }
    }

    /// Wait up to `timeout` for a response that survives the response-drop
    /// filter.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Option<ResponseFrame> {
        if self.is_severed() {
            return None;
        }
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return None;
            }
            let frame = self.inner.recv_timeout(remaining)?;
            if self.rng.gen_range(0..1000) < self.faults.drop_response_per_mille {
                self.stats.dropped_responses += 1;
                continue;
            }
            return Some(frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_fires_exactly_on_schedule() {
        let plan = FaultPlan {
            seed: 1,
            frame: FrameFaults::default(),
            crashes: vec![CrashSchedule {
                point: CrashPoint::BatchEnqueue,
                at_hit: 3,
            }],
            abort_storm_per_mille: 0,
        };
        let state = plan.arm();
        state.crash_point(CrashPoint::BatchEnqueue);
        state.crash_point(CrashPoint::BatchEnqueue);
        // A different point on its third hit does not fire.
        state.crash_point(CrashPoint::FrameIngress);
        state.crash_point(CrashPoint::FrameIngress);
        state.crash_point(CrashPoint::FrameIngress);
        assert_eq!(state.crashes_fired(), 0);
        let r = std::panic::catch_unwind(|| state.crash_point(CrashPoint::BatchEnqueue));
        assert!(r.is_err(), "third BatchEnqueue hit must panic");
        assert_eq!(state.crashes_fired(), 1);
        // The schedule is one-shot: hit 4 passes.
        state.crash_point(CrashPoint::BatchEnqueue);
        assert_eq!(state.hits(CrashPoint::BatchEnqueue), 4);
    }

    #[test]
    fn abort_storm_rate_is_deterministic_and_near_target() {
        let plan = FaultPlan {
            seed: 7,
            frame: FrameFaults::default(),
            crashes: Vec::new(),
            abort_storm_per_mille: 600,
        };
        let a = plan.arm();
        let b = plan.arm();
        let n = 10_000;
        let fired_a = (0..n).filter(|_| a.force_abort()).count();
        let fired_b = (0..n).filter(|_| b.force_abort()).count();
        assert_eq!(fired_a, fired_b, "same seed, same storm");
        let rate = fired_a as f64 / n as f64;
        assert!((0.55..0.65).contains(&rate), "rate {rate}");
    }

    #[test]
    fn storm_rate_is_capped() {
        let mut plan = FaultPlan::none(3);
        plan.abort_storm_per_mille = 1000;
        let state = plan.arm();
        assert_eq!(
            state.plan().abort_storm_per_mille,
            FaultPlan::MAX_STORM_PER_MILLE
        );
        // Even a maxed storm lets some attempts through.
        let n = 10_000;
        let fired = (0..n).filter(|_| state.force_abort()).count();
        assert!(fired < n, "storm must not be total");
    }
}
