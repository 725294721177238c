//! The chaos harness: run a seeded fault schedule against a real server
//! and check the invariants that survive it.
//!
//! One [`ChaosCase`] is a complete, replayable experiment: a seed expands
//! deterministically into a [`FaultPlan`] (frame faults, scheduled worker
//! crashes, abort storm), a server topology, and a client fleet of
//! [`RetryClient`]s issuing increment-only writes through [`FaultyConn`]s.
//! After the dust settles the runner reconciles three ledgers:
//!
//! * the **engine heap** (`heap_sum` — ground truth of what applied),
//! * the **server ledger** (`applied_delta` — what committed groups
//!   recorded),
//! * the **client ledger** (`acked_delta` + `unknown_max_delta` — what
//!   clients believe happened).
//!
//! The invariants, for increment-only traffic:
//!
//! ```text
//! heap_sum == server applied_delta                  (server ledger exact)
//! acked_delta <= heap_sum                           (no lost acked write)
//! heap_sum <= acked_delta + unknown_max_delta       (no phantom apply)
//! ```
//!
//! The last line is the exactly-once claim: a retried write whose first
//! response was lost must not apply twice. Running a case with
//! `dedup_window == 0` (deduplication off) makes phantom applies real and
//! the runner reports them — the suite uses that to prove the checks have
//! teeth.
//!
//! A concurrent FIFO probe (a plain pipelined session) runs alongside the
//! fleet: its responses must come back in send order even across worker
//! crashes and recoveries, because session state survives the worker
//! thread's `catch_unwind` boundary.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tm_stm::{HashKind, StmBuilder, TmEngine};

use crate::client::{BackoffPolicy, CallOutcome, RetryClient, RetryStats};
use crate::fault::{mix, CrashPoint, CrashSchedule, FaultPlan, FaultyConn, FrameFaults};
use crate::protocol::{Request, Response};
use crate::server::{start, ServerConfig, ServerStatsSnapshot};
use crate::session::DEFAULT_DEDUP_WINDOW;

/// One complete chaos experiment (see module docs).
#[derive(Clone, Debug)]
pub struct ChaosCase {
    /// Master seed; every derived draw traces back to it.
    pub seed: u64,
    /// Server workers (engine writer concurrency).
    pub shards: u32,
    /// Retry clients driven in parallel.
    pub clients: u32,
    /// Logical writes each client issues (each may take many attempts).
    pub writes_per_client: u32,
    /// Distinct keys (and heap words).
    pub key_universe: u64,
    /// Server-side idempotency window. `0` = deduplication off — the
    /// deliberately broken mode the mutation check runs.
    pub dedup_window: usize,
    /// The fault schedule.
    pub plan: FaultPlan,
    /// Retry/backoff policy the clients run.
    pub policy: BackoffPolicy,
}

impl ChaosCase {
    /// Expand `seed` into a full case. The crash point cycles with the
    /// seed (`seed % 4`), so any contiguous run of seeds covers all four
    /// crash points uniformly; everything else is drawn from mixed
    /// sub-streams of the seed.
    pub fn from_seed(seed: u64) -> Self {
        let d = |salt: u64| mix(seed ^ mix(salt));
        let point = CrashPoint::ALL[(seed % 4) as usize];
        let mut crashes = vec![CrashSchedule {
            point,
            at_hit: 1 + d(2) % 8,
        }];
        // Half the cases schedule a second crash at another point, so
        // recovery-after-recovery is exercised too.
        if d(3) % 2 == 0 {
            crashes.push(CrashSchedule {
                point: CrashPoint::ALL[(d(4) % 4) as usize],
                at_hit: 1 + d(5) % 8,
            });
        }
        let frame = FrameFaults {
            drop_request_per_mille: (d(6) % 120) as u32,
            truncate_per_mille: (d(7) % 80) as u32,
            corrupt_per_mille: (d(8) % 80) as u32,
            delay_per_mille: (d(9) % 120) as u32,
            drop_response_per_mille: (d(10) % 250) as u32,
            disconnect_after: if d(11) % 4 == 0 {
                Some(8 + d(12) % 16)
            } else {
                None
            },
        };
        let abort_storm_per_mille = if d(13) % 4 == 0 {
            300 + (d(14) % 400) as u32
        } else {
            0
        };
        Self {
            seed,
            shards: 1 + (d(1) % 2) as u32,
            clients: 4,
            writes_per_client: 6,
            key_universe: 64,
            dedup_window: DEFAULT_DEDUP_WINDOW,
            plan: FaultPlan {
                seed,
                frame,
                crashes,
                abort_storm_per_mille,
            },
            policy: BackoffPolicy::fast_test(),
        }
    }
}

/// What one chaos case left behind, with every invariant breach spelled
/// out in `violations` (empty = the case held).
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// The case's seed (for replay).
    pub seed: u64,
    /// Engine ground truth after shutdown.
    pub heap_sum: u64,
    /// Client-side acknowledged increments.
    pub acked_delta: u64,
    /// Client-side bound on what `Unknown` calls may have applied.
    pub unknown_max_delta: u64,
    /// Injected crashes that actually fired.
    pub crashes_fired: u64,
    /// Fired-crash breakdown, indexed like [`CrashPoint::ALL`].
    pub crashes_by_point: [u64; 4],
    /// Final server counters (post-drain).
    pub server: ServerStatsSnapshot,
    /// Aggregated client retry accounting.
    pub retry: RetryStats,
    /// FIFO-probe responses received (gaps are legal — a crash may eat a
    /// frame — but misordering never is).
    pub fifo_seen: u64,
    /// Every invariant breach, human-readable.
    pub violations: Vec<String>,
}

impl ChaosOutcome {
    /// Did every invariant hold?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

fn accumulate(into: &mut RetryStats, from: &RetryStats) {
    into.attempts += from.attempts;
    into.retries_timeout += from.retries_timeout;
    into.retries_busy += from.retries_busy;
    into.retries_restart += from.retries_restart;
    into.retries_malformed += from.retries_malformed;
    into.acked_writes += from.acked_writes;
    into.acked_delta += from.acked_delta;
    into.unknown += from.unknown;
    into.unknown_max_delta += from.unknown_max_delta;
    into.stale_responses += from.stale_responses;
}

/// Run one case end to end and reconcile the ledgers.
pub fn run_chaos_case(case: &ChaosCase) -> ChaosOutcome {
    let engine = Arc::new(
        StmBuilder::new()
            .heap_words(case.key_universe as usize)
            .table_entries((case.key_universe as usize).next_power_of_two() * 4)
            .hash(HashKind::Multiplicative)
            .build_tagless(),
    );
    let faults = case.plan.arm();
    let mut cfg = ServerConfig::new(case.key_universe);
    cfg.shards = case.shards;
    cfg.dedup_window = case.dedup_window;
    cfg.faults = Some(Arc::clone(&faults));
    cfg.audit_increments = true;
    let server = start(Arc::clone(&engine), cfg);
    let admission = server.admission_handle();

    // The client fleet: each worker owns a faulty connection and a retry
    // client, issues increment-only writes, and reports its ledgers.
    let mut workers = Vec::new();
    for c in 0..case.clients {
        let conn = FaultyConn::new(server.connect(), &case.plan);
        let mut client = RetryClient::new(conn, case.policy, case.seed ^ u64::from(c));
        let worker_seed = mix(case.seed ^ mix(0xc0ff_ee00 + u64::from(c)));
        let universe = case.key_universe;
        let writes = case.writes_per_client;
        workers.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(worker_seed);
            let mut violations = Vec::new();
            for _ in 0..writes {
                let op = if rng.gen_range(0..4u32) == 0 {
                    let n = rng.gen_range(2..5usize);
                    let mut keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..universe)).collect();
                    keys.sort_unstable();
                    keys.dedup();
                    Request::MultiAdd { keys, delta: 1 }
                } else {
                    Request::Add {
                        key: rng.gen_range(0..universe),
                        delta: 1,
                    }
                };
                match client.call_write(op) {
                    CallOutcome::Acked(Response::Added(_) | Response::MultiAdded { .. }) => {}
                    CallOutcome::Acked(other) => {
                        violations.push(format!("write acked with {other:?}"));
                    }
                    CallOutcome::NotApplied | CallOutcome::Unknown => {}
                    // Tokens are issued monotonically and the window holds
                    // far more than one client ever issues: a fresh token
                    // can only expire if the window logic is wrong (or
                    // deliberately disabled — but then Expired can't
                    // happen either, dedup is off entirely).
                    CallOutcome::Expired => {
                        violations.push("fresh idempotency token expired".into());
                    }
                }
                if client.conn().is_severed() {
                    break; // a disconnect fault ended this session
                }
            }
            client.drain_stale(Duration::from_millis(30));
            (client.stats, violations)
        }));
    }

    // The FIFO probe: a plain (fault-free) pipelined session sharing the
    // server with the chaotic fleet. Crashes may eat its frames (gaps),
    // but whatever comes back must be in send order.
    let mut violations = Vec::new();
    let mut fifo_seen = 0u64;
    {
        let mut probe = server.connect();
        let n_pings = 16u64;
        let first_id = probe.send(Request::Ping);
        for _ in 1..n_pings {
            probe.send(Request::Ping);
        }
        let mut last = first_id.wrapping_sub(1);
        while let Some(frame) = probe.recv_timeout(Duration::from_millis(150)) {
            if frame.id <= last {
                violations.push(format!(
                    "FIFO probe: id {} arrived after id {} (seed {:#x})",
                    frame.id, last, case.seed
                ));
            }
            last = frame.id;
            fifo_seen += 1;
            if fifo_seen == n_pings {
                break;
            }
        }
    }

    let mut retry = RetryStats::default();
    for w in workers {
        let (stats, v) = w.join().expect("chaos worker");
        accumulate(&mut retry, &stats);
        violations.extend(v);
    }
    let crashes_fired = faults.crashes_fired();
    let mut crashes_by_point = [0u64; 4];
    for point in CrashPoint::ALL {
        crashes_by_point[point.index()] = faults.fired(point);
    }
    let server_stats = server.shutdown();
    let heap_sum = engine.heap_sum(case.key_universe as usize);

    // Ledger reconciliation (see module docs). Traffic is increment-only,
    // so the server-side ledger must be *exact*.
    if server_stats.put_writes != 0 {
        violations.push(format!(
            "chaos traffic must be increment-only, saw {} puts",
            server_stats.put_writes
        ));
    }
    if heap_sum != server_stats.applied_delta {
        violations.push(format!(
            "server ledger diverged: heap_sum {} != applied_delta {}",
            heap_sum, server_stats.applied_delta
        ));
    }
    if retry.acked_delta > heap_sum {
        violations.push(format!(
            "lost acked write: acked_delta {} > heap_sum {}",
            retry.acked_delta, heap_sum
        ));
    }
    if heap_sum > retry.acked_delta + retry.unknown_max_delta {
        violations.push(format!(
            "phantom applies: heap_sum {} > acked {} + unknown bound {} \
             (a retried write applied more than once)",
            heap_sum, retry.acked_delta, retry.unknown_max_delta
        ));
    }
    // Every admitted write must release its cost exactly once — delivered,
    // vanished, or poisoned. Residual inflight after the drain means some
    // group was dropped without recovery seeing it: a permanent budget
    // leak that would eventually answer everything `Busy`.
    let inflight = admission.inflight();
    if inflight != 0 {
        violations.push(format!(
            "admission budget leaked: {inflight} words still inflight after \
             the drain (a lost group never released its cost)"
        ));
    }
    if server_stats.audit_failures != 0 {
        violations.push(format!(
            "recovery audit failed {} time(s): heap diverged from the \
             applied ledger at a restart boundary",
            server_stats.audit_failures
        ));
    }

    ChaosOutcome {
        seed: case.seed,
        heap_sum,
        acked_delta: retry.acked_delta,
        unknown_max_delta: retry.unknown_max_delta,
        crashes_fired,
        crashes_by_point,
        server: server_stats,
        retry,
        fifo_seen,
        violations,
    }
}
