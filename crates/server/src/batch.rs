//! Group commit: coalescing compatible writes from different sessions into
//! one transaction.
//!
//! Every committed transaction pays fixed costs — ownership acquisition,
//! commit publication, stats — on top of its per-word work, and every
//! *extra* transaction in flight raises the paper's false-conflict
//! probability (Eq. 8 is quadratic in footprint but also `C(C−1)` in the
//! number of concurrent transactions). Group commit amortizes the fixed
//! cost and shrinks effective concurrency: a worker folds adjacent write
//! requests — possibly from different sessions — into one engine
//! transaction when their footprints are **compatible**.
//!
//! The compatibility rule is deliberately conservative:
//!
//! 1. **key-disjoint** — a request joins a group only if none of its
//!    canonical keys is already in the group. Disjointness makes every
//!    request's result independent of its position inside the batch, so
//!    batching can never change an individual response.
//! 2. **bounded footprint** — the group's total distinct-key count stays
//!    ≤ [`BatchPolicy::max_footprint`]. The abort probability of the merged
//!    transaction grows quadratically with its footprint (the paper's `W²`
//!    law), so unbounded merging would trade fixed-cost savings for
//!    retried *work*, which is the worse side of the trade.
//! 3. **no waiting for company** — the batcher's owner flushes everything
//!    pending the moment its queue is empty: whatever was going to share a
//!    transaction has arrived by then, so a lone write costs one commit and
//!    no delay. [`BatchPolicy::latency_budget`] only caps a request's age
//!    under a queue that never empties ([`Batcher::should_flush`]). The
//!    server does not read the clock per request: it reads it at most once
//!    per message it takes off its queue, the first time a batched write
//!    needs it, and at most once more per 128 frames of a longer message
//!    (`DELIVER_EVERY`), and hands that reading to both [`Batcher::push`]
//!    and `should_flush`. An age is therefore measured against a reading
//!    at most one message or 128 frames old, whichever is less, and the
//!    cap can fire that much late.
//!
//! Requests that fail rule 1 or 2 against the *open* group seal it and
//! start a new one; groups flush in FIFO order, so per-session request
//! order is preserved (a session's later write can never land in an
//! earlier group than its predecessor).
//!
//! A group's key set is a vector scanned in place — no hashing, no
//! allocation per request: a few cache lines at the grouped policy's 128
//! keys, microseconds per request under the caps only tests use (4096).

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::fault::{CrashPoint, FaultState};

/// A write operation with canonicalized keys, ready to fold into a group.
#[derive(Clone, Debug)]
pub struct PendingWrite {
    /// Session that issued it (responses route back here).
    pub session: u64,
    /// Correlation id echoed in the response.
    pub id: u64,
    /// Idempotency token, when the request carried one (recovery and the
    /// response path use it to complete or abandon the dedup entry).
    pub token: Option<u64>,
    /// The operation itself.
    pub op: WriteOp,
}

/// The mutating operations, post-canonicalization (keys already reduced
/// modulo the store's key universe).
#[derive(Clone, Debug)]
pub enum WriteOp {
    /// Overwrite `key` with `value`.
    Put {
        /// Canonical key.
        key: u64,
        /// Stored value.
        value: u64,
    },
    /// `key += delta` (wrapping); response carries the new value.
    Add {
        /// Canonical key.
        key: u64,
        /// Added amount.
        delta: u64,
    },
    /// `k += delta` for every key, atomically.
    MultiAdd {
        /// Canonical keys (may repeat; repeats apply repeatedly).
        keys: Vec<u64>,
        /// Added amount per key.
        delta: u64,
    },
    /// Overwrite each key with its paired value, atomically. `keys` and
    /// `values` are parallel vectors of equal length (split apart so the
    /// footprint accounting can borrow the keys as one slice).
    MultiPut {
        /// Canonical keys (a repeated key keeps its last value).
        keys: Vec<u64>,
        /// Value written to the same-index key.
        values: Vec<u64>,
    },
}

impl WriteOp {
    /// The keys the operation touches.
    pub fn keys(&self) -> &[u64] {
        match self {
            WriteOp::Put { key, .. } | WriteOp::Add { key, .. } => std::slice::from_ref(key),
            WriteOp::MultiAdd { keys, .. } | WriteOp::MultiPut { keys, .. } => keys,
        }
    }
}

/// Group-commit policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct BatchPolicy {
    /// Maximum requests folded into one transaction. `1` disables group
    /// commit entirely (every write is its own transaction).
    pub max_ops: usize,
    /// Maximum distinct keys a merged transaction may touch (the `W` cap;
    /// see the module docs for why this is bounded).
    pub max_footprint: usize,
    /// The oldest a pending request may grow under a queue that never
    /// empties. A cap, not a timer: nothing waits for it (rule 3). The
    /// server measures the age against a clock reading at most one message
    /// or 128 frames old, so a request can outlive the cap by the time the
    /// worker takes to handle that much.
    pub latency_budget: Duration,
}

impl BatchPolicy {
    /// One transaction per request — the baseline group commit is measured
    /// against.
    pub fn unbatched() -> Self {
        Self {
            max_ops: 1,
            max_footprint: usize::MAX,
            latency_budget: Duration::ZERO,
        }
    }

    /// A moderate default: up to 32 requests or 128 keys per transaction,
    /// none pending longer than 500 µs under a queue that never empties.
    pub fn grouped() -> Self {
        Self {
            max_ops: 32,
            max_footprint: 128,
            latency_budget: Duration::from_micros(500),
        }
    }
}

/// One sealed-or-open group: the requests that will run as one transaction.
#[derive(Debug, Default)]
pub struct Group {
    /// Folded requests, in arrival order.
    pub ops: Vec<PendingWrite>,
    /// The distinct keys of `ops`, in no particular order.
    keys: Vec<u64>,
}

impl Group {
    /// Distinct keys across the group.
    pub fn footprint(&self) -> usize {
        self.keys.len()
    }

    /// Take `keys` into the key set if the rules allow one more request
    /// touching them (an empty group allows any, however wide), and say so.
    fn admits(&mut self, keys: &[u64], policy: &BatchPolicy) -> bool {
        let held = self.keys.len();
        self.keys.extend_from_slice(keys);
        let (old, new) = self.keys.split_at_mut(held);
        new.sort_unstable(); // repeats inside the request become adjacent
        let disjoint = !new.iter().any(|key| old.contains(key)); // rule 1
        self.keys.dedup(); // `old` has no repeats, so only `new` shrinks
        let rule_2 = self.keys.len() <= policy.max_footprint;
        let fits = self.ops.is_empty() || disjoint && rule_2 && self.ops.len() < policy.max_ops;
        if !fits {
            self.keys.truncate(held);
        }
        fits
    }
}

/// The per-worker write coalescer. Single-threaded by design: each worker
/// owns one, so no locking — cross-session coalescing happens because one
/// worker serves many sessions.
#[derive(Debug)]
pub struct Batcher {
    policy: BatchPolicy,
    groups: Vec<Group>,
    /// Emptied groups handed back by [`Batcher::recycle`].
    spare: Vec<Group>,
    oldest: Option<Instant>,
    /// Armed fault plan, when chaos testing injects crashes here.
    faults: Option<Arc<FaultState>>,
}

impl Batcher {
    /// New empty batcher under `policy`.
    pub fn new(policy: BatchPolicy) -> Self {
        Self::with_faults(policy, None)
    }

    /// New empty batcher whose `push` evaluates the
    /// [`CrashPoint::BatchEnqueue`] crash point against `faults`.
    pub fn with_faults(policy: BatchPolicy, faults: Option<Arc<FaultState>>) -> Self {
        Self {
            policy,
            groups: Vec::new(),
            spare: Vec::new(),
            oldest: None,
            faults,
        }
    }

    /// Enqueue a write. Joins the open (last) group when compatible,
    /// otherwise seals it and opens a new one.
    ///
    /// Crash point: an injected panic fires *before* the write is
    /// enqueued, modeling a failure between admission and the batcher —
    /// recovery must release the admission budget and poison the caller.
    pub fn push(&mut self, op: PendingWrite, now: Instant) {
        if let Some(f) = &self.faults {
            f.crash_point(CrashPoint::BatchEnqueue);
        }
        self.oldest.get_or_insert(now);
        let open = self.groups.last_mut();
        if !open.is_some_and(|g| g.admits(op.op.keys(), &self.policy)) {
            // Room for a fill of one-key requests (the grouped policy's 32 at
            // most); a wider group grows once and `recycle` keeps its size.
            let room = self.policy.max_ops.min(32);
            let mut group = self.spare.pop().unwrap_or_else(|| Group {
                ops: Vec::with_capacity(room),
                keys: Vec::with_capacity(room),
            });
            group.admits(op.op.keys(), &self.policy);
            self.groups.push(group);
        }
        let open = self.groups.last_mut().expect("a group admitted it");
        open.ops.push(op);
    }

    /// Take back a drained group, answered, so a later one reuses its storage.
    pub(crate) fn recycle(&mut self, mut group: Group) {
        group.ops.clear();
        group.keys.clear();
        self.spare.push(group);
    }

    /// Nothing enqueued?
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Does any pending group hold a write from `session`? Reads from that
    /// session must flush first to preserve per-session response order and
    /// read-your-writes (groups are small, so the scan is cheap).
    pub fn has_session(&self, session: u64) -> bool {
        self.groups
            .iter()
            .any(|g| g.ops.iter().any(|op| op.session == session))
    }

    /// Must the worker flush before it takes another message? True when any
    /// group is full or the oldest request has reached the latency budget.
    pub fn should_flush(&self, now: Instant) -> bool {
        let (full, old) = (self.policy.max_ops, self.policy.latency_budget);
        self.groups.iter().any(|g| g.ops.len() >= full)
            || (self.oldest).is_some_and(|t| now.saturating_duration_since(t) >= old)
    }

    /// Take every pending group, FIFO, resetting the age of the oldest.
    pub fn drain(&mut self) -> Vec<Group> {
        self.oldest = None;
        std::mem::take(&mut self.groups)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use proptest::prelude::*;

    use super::*;

    fn add(session: u64, id: u64, key: u64) -> PendingWrite {
        PendingWrite {
            session,
            id,
            token: None,
            op: WriteOp::Add { key, delta: 1 },
        }
    }

    fn policy(max_ops: usize, max_footprint: usize) -> BatchPolicy {
        BatchPolicy {
            max_ops,
            max_footprint,
            latency_budget: Duration::from_millis(10),
        }
    }

    #[test]
    fn disjoint_ops_coalesce_into_one_group() {
        let mut b = Batcher::new(policy(8, 64));
        let t = Instant::now();
        for k in 0..5 {
            b.push(add(k, k, k), t);
        }
        let groups = b.drain();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].ops.len(), 5);
        assert_eq!(groups[0].footprint(), 5);
    }

    #[test]
    fn key_overlap_seals_the_group() {
        let mut b = Batcher::new(policy(8, 64));
        let t = Instant::now();
        b.push(add(0, 0, 7), t);
        b.push(add(1, 1, 8), t);
        b.push(add(2, 2, 7), t); // same key as op 0 → new group
        let groups = b.drain();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].ops.len(), 2);
        assert_eq!(groups[1].ops.len(), 1);
    }

    #[test]
    fn footprint_cap_seals_the_group() {
        let mut b = Batcher::new(policy(8, 4));
        let t = Instant::now();
        b.push(
            PendingWrite {
                session: 0,
                id: 0,
                token: None,
                op: WriteOp::MultiAdd {
                    keys: vec![0, 1, 2],
                    delta: 1,
                },
            },
            t,
        );
        b.push(
            PendingWrite {
                session: 1,
                id: 1,
                token: None,
                op: WriteOp::MultiAdd {
                    keys: vec![3, 4],
                    delta: 1,
                },
            },
            t,
        ); // 3 + 2 > 4 → sealed
        assert_eq!(b.drain().len(), 2);
    }

    #[test]
    fn max_ops_triggers_flush_and_unbatched_never_groups() {
        let mut b = Batcher::new(policy(2, 64));
        let t = Instant::now();
        b.push(add(0, 0, 0), t);
        assert!(!b.should_flush(t));
        b.push(add(1, 1, 1), t);
        assert!(b.should_flush(t), "full group must flush");

        let mut u = Batcher::new(BatchPolicy::unbatched());
        u.push(add(0, 0, 0), t);
        u.push(add(1, 1, 1), t);
        let groups = u.drain();
        assert_eq!(groups.len(), 2, "max_ops=1 means one txn per request");
        assert!(u.is_empty());
    }

    #[test]
    fn latency_budget_forces_flush() {
        let mut b = Batcher::new(policy(64, 1024));
        let t = Instant::now();
        b.push(add(0, 0, 0), t);
        assert!(!b.should_flush(t));
        assert!(b.should_flush(t + Duration::from_millis(11)));
        b.drain();
        assert!(
            !b.should_flush(t + Duration::from_millis(11)),
            "drain resets the age"
        );
    }

    #[test]
    fn push_crash_point_fires_before_enqueue() {
        use crate::fault::{CrashSchedule, FaultPlan, FrameFaults};
        let plan = FaultPlan {
            seed: 0,
            frame: FrameFaults::default(),
            crashes: vec![CrashSchedule {
                point: CrashPoint::BatchEnqueue,
                at_hit: 2,
            }],
            abort_storm_per_mille: 0,
        };
        let mut b = Batcher::with_faults(policy(8, 64), Some(plan.arm()));
        let t = Instant::now();
        b.push(add(0, 0, 0), t);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.push(add(1, 1, 1), t)));
        assert!(r.is_err(), "second push must hit the scheduled crash");
        // The crash fired before enqueue: the write is NOT in the batcher.
        let groups = b.drain();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].ops.len(), 1);
        assert_eq!(groups[0].ops[0].id, 0);
    }

    /// The batcher this module replaced, kept as the model the key vector
    /// is checked against: a `HashSet` per group and a fresh one per
    /// request. Groups are the ids folded and the footprint.
    #[derive(Default)]
    struct ModelBatcher {
        groups: Vec<(Vec<u64>, HashSet<u64>)>,
    }

    impl ModelBatcher {
        fn push(&mut self, pw: &PendingWrite, policy: &BatchPolicy) {
            let fresh: HashSet<u64> = pw.op.keys().iter().copied().collect();
            let joins = self.groups.last().is_some_and(|(ids, keys)| {
                ids.len() < policy.max_ops
                    && fresh.is_disjoint(keys)
                    && keys.len() + fresh.len() <= policy.max_footprint
            });
            if !joins {
                self.groups.push(Default::default());
            }
            let (ids, keys) = self.groups.last_mut().expect("just opened");
            ids.push(pw.id);
            keys.extend(fresh);
        }

        fn drain(&mut self) -> Vec<(Vec<u64>, usize)> {
            std::mem::take(&mut self.groups)
                .into_iter()
                .map(|(ids, keys)| (ids, keys.len()))
                .collect()
        }
    }

    /// One step of a random stream: a write, or (`None`) a drain.
    fn step() -> impl Strategy<Value = Option<WriteOp>> {
        // Twelve keys: overlaps between requests and repeats inside one
        // are both common.
        let keys = || proptest::collection::vec(0u64..12, 1..6);
        prop_oneof![
            1 => Just(None),
            4 => (0u64..12).prop_map(|key| Some(WriteOp::Add { key, delta: 1 })),
            3 => keys().prop_map(|keys| Some(WriteOp::MultiAdd { keys, delta: 1 })),
            2 => keys().prop_map(|keys| {
                let values = vec![7; keys.len()];
                Some(WriteOp::MultiPut { keys, values })
            }),
        ]
    }

    proptest! {
        /// Same group boundaries, same footprints and FIFO order as the
        /// `HashSet` model, under tight and test-only wide policies, with
        /// drained groups recycled the way the server recycles them.
        #[test]
        fn key_vector_groups_like_the_hash_set_model(
            steps in proptest::collection::vec(step(), 1..80),
            max_ops in prop_oneof![1usize..6, Just(1024usize)],
            max_footprint in prop_oneof![1usize..10, Just(4096usize), Just(usize::MAX)],
        ) {
            let policy = policy(max_ops, max_footprint);
            let (mut batcher, mut model) = (Batcher::new(policy), ModelBatcher::default());
            let now = Instant::now();
            let mut pushed = 0u64;
            // A trailing drain checks what the stream left pending.
            for step in steps.into_iter().chain([None]) {
                let Some(op) = step else {
                    let groups = batcher.drain();
                    let seen: Vec<(Vec<u64>, usize)> = groups
                        .iter()
                        .map(|g| (g.ops.iter().map(|pw| pw.id).collect(), g.footprint()))
                        .collect();
                    prop_assert_eq!(&seen, &model.drain());
                    let ids: Vec<u64> = seen.into_iter().flat_map(|(ids, _)| ids).collect();
                    prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "FIFO: {:?}", ids);
                    prop_assert!(batcher.is_empty());
                    groups.into_iter().for_each(|g| batcher.recycle(g));
                    continue;
                };
                let pw = PendingWrite { session: pushed % 3, id: pushed, token: None, op };
                model.push(&pw, &policy);
                batcher.push(pw, now);
                pushed += 1;
            }
        }
    }

    #[test]
    fn fifo_order_preserved_across_groups() {
        // A session's second write lands in a later group than its first
        // even when the second would fit an earlier-sealed group.
        let mut b = Batcher::new(policy(8, 64));
        let t = Instant::now();
        b.push(add(0, 0, 1), t);
        b.push(add(0, 1, 1), t); // overlaps → seals group 0
        b.push(add(0, 2, 2), t); // joins group 1 (disjoint with key 1)
        let groups = b.drain();
        assert_eq!(groups.len(), 2);
        let order: Vec<u64> = groups
            .iter()
            .flat_map(|g| g.ops.iter().map(|o| o.id))
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
    }
}
