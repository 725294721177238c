//! The chaos suite: seeded fault schedules against a live server.
//!
//! Three layers of evidence:
//!
//! 1. A deterministic sweep pinning each crash point individually —
//!    every one fires, is contained, and the ledgers reconcile.
//! 2. A proptest over 256 seeded fault schedules (`ChaosCase::from_seed`
//!    cycles the crash point with the seed, so all four points are
//!    covered uniformly) asserting heap-sum conservation, per-session
//!    FIFO, and exactly-once acked writes under arbitrary combinations
//!    of frame faults, disconnects, crashes, and abort storms.
//! 3. A mutation check: the same harness with the dedup window
//!    deliberately disabled must *detect* the resulting double-applies —
//!    proving the invariants have teeth, not just that they pass.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use tm_server::chaos::{run_chaos_case, ChaosCase};
use tm_server::client::BackoffPolicy;
use tm_server::fault::{CrashPoint, CrashSchedule, FaultPlan, FrameFaults};
use tm_server::protocol::{ErrorCode, Request, Response};
use tm_server::server::{start, ServerConfig};
use tm_server::BatchPolicy;
use tm_stm::{StmBuilder, TmEngine};

/// Layer 1: each crash point, alone, with no frame noise — the crash must
/// fire, the shard must recover, and every ledger must reconcile exactly
/// (no frame faults means no `Unknown` slack: acked == heap).
#[test]
fn every_crash_point_fires_and_recovers() {
    for (i, point) in CrashPoint::ALL.into_iter().enumerate() {
        let seed = 0x9000 + i as u64;
        let case = ChaosCase {
            seed,
            shards: 1,
            clients: 2,
            writes_per_client: 8,
            key_universe: 64,
            dedup_window: 1024,
            plan: FaultPlan {
                seed,
                frame: FrameFaults::default(),
                crashes: vec![CrashSchedule { point, at_hit: 3 }],
                abort_storm_per_mille: 0,
            },
            policy: BackoffPolicy::fast_test(),
        };
        let out = run_chaos_case(&case);
        assert!(
            out.violations.is_empty(),
            "{}: {:?}",
            point.name(),
            out.violations
        );
        assert_eq!(out.crashes_fired, 1, "{} must fire", point.name());
        assert_eq!(
            out.server.shard_restarts,
            1,
            "{} must be contained by exactly one restart",
            point.name()
        );
        // No frame faults and no disconnects: every call settles, so the
        // client ledger is exact, crash or no crash.
        assert_eq!(out.retry.unknown, 0, "{}", point.name());
        assert_eq!(
            out.acked_delta,
            out.heap_sum,
            "{}: acked != heap with a clean transport",
            point.name()
        );
        assert!(out.heap_sum > 0, "{}: writes must land", point.name());
        // The two poisoning points must actually poison (the write or
        // group the crash interrupted gets ShardRestarted, then retries).
        if matches!(
            point,
            CrashPoint::BatchEnqueue | CrashPoint::BeforeGroupCommit
        ) {
            assert!(
                out.server.poisoned_writes > 0,
                "{}: the interrupted write must be poisoned",
                point.name()
            );
            assert!(
                out.retry.retries_restart > 0,
                "{}: clients must see ShardRestarted and retry",
                point.name()
            );
        }
        // A crash after commit must not suppress the acks.
        if point == CrashPoint::AfterGroupCommit {
            assert_eq!(
                out.server.poisoned_writes, 0,
                "committed group poisons nothing"
            );
        }
    }
}

/// Layer 1a: a group leaves the batcher either because it filled (the
/// per-message check) or because the worker's queue ran empty (the flush
/// before it blocks). Both go through the same `pending_groups` / `current`
/// bracket, so a crash on either side of the commit must leave the same
/// answers, counters, heap and admission gauge whichever way the group
/// left. One client, one write at a time: under `max_ops: 1` every push
/// fills its group; under the grouped policy no group of one is full and
/// only the empty queue commits it.
#[test]
fn crash_on_a_drain_triggered_flush_recovers_like_a_fill_triggered_one() {
    for point in [CrashPoint::BeforeGroupCommit, CrashPoint::AfterGroupCommit] {
        let fill = BatchPolicy {
            max_ops: 1,
            ..BatchPolicy::grouped()
        };
        let [filled, drained] = [fill, BatchPolicy::grouped()].map(|batch| {
            let engine = Arc::new(
                StmBuilder::new()
                    .heap_words(64)
                    .table_entries(256)
                    .build_tagless(),
            );
            let mut cfg = ServerConfig::new(64);
            cfg.shards = 1;
            cfg.batch = batch;
            cfg.audit_increments = true;
            cfg.faults = Some(
                FaultPlan {
                    crashes: vec![CrashSchedule { point, at_hit: 3 }],
                    ..FaultPlan::none(0x21)
                }
                .arm(),
            );
            let server = start(Arc::clone(&engine), cfg);
            let admission = server.admission_handle();
            let mut conn = server.connect();
            let answers: Vec<Response> = (0..6u64)
                .map(|n| {
                    conn.request(
                        Request::Add {
                            key: n % 2,
                            delta: 1,
                        },
                        Duration::from_secs(5),
                    )
                    .expect("answered across the restart")
                    .response
                })
                .collect();
            let stats = server.shutdown();
            (answers, stats, engine.heap_sum(64), admission.inflight())
        });
        assert_eq!(filled, drained, "{}", point.name());

        let (answers, stats, heap_sum, inflight) = drained;
        assert_eq!((stats.shard_restarts, stats.audit_failures), (1, 0));
        assert_eq!(inflight, 0, "{}: admission cost leaked", point.name());
        let third = if point == CrashPoint::BeforeGroupCommit {
            // The group vanished whole: poisoned, not applied.
            assert_eq!((stats.poisoned_writes, heap_sum), (1, 5));
            Response::Error(ErrorCode::ShardRestarted)
        } else {
            // The heap moved, so recovery still delivered the ack.
            assert_eq!((stats.poisoned_writes, heap_sum), (0, 6));
            Response::Added(2)
        };
        assert_eq!(answers[2], third, "{}", point.name());
    }
}

/// Layer 1a': a crash costs the frame it strikes, not the message that
/// frame arrived in. The frames queued behind it in the same message are
/// served by the restarted loop, in order, as they were when every frame
/// was a queue message of its own.
#[test]
fn crash_inside_a_message_costs_one_frame_and_the_rest_is_served() {
    let serve = |point, at_hit, requests: &[Request]| {
        let engine = Arc::new(
            StmBuilder::new()
                .heap_words(64)
                .table_entries(256)
                .build_tagless(),
        );
        let mut cfg = ServerConfig::new(64);
        cfg.shards = 1;
        cfg.audit_increments = true;
        cfg.faults = Some(
            FaultPlan {
                crashes: vec![CrashSchedule { point, at_hit }],
                ..FaultPlan::none(0x24)
            }
            .arm(),
        );
        let server = start(Arc::clone(&engine), cfg);
        let mut conn = server.connect();
        // Queued, then handed over by the first receive: one message.
        for request in requests {
            conn.send(request.clone());
        }
        let answers: Vec<(u64, Response)> =
            std::iter::from_fn(|| conn.recv_timeout(Duration::from_millis(300)))
                .map(|frame| (frame.id, frame.response))
                .collect();
        let stats = server.shutdown();
        assert_eq!((stats.shard_restarts, stats.audit_failures), (1, 0));
        (answers, engine.heap_sum(64))
    };

    // The third frame vanishes at ingress: never applied, never answered.
    let reads: Vec<Request> = (0..5).map(|key| Request::Get { key }).collect();
    let (answers, _) = serve(CrashPoint::FrameIngress, 3, &reads);
    let ids: Vec<u64> = answers.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, [1, 2, 4, 5]);

    // A write struck on its way into the batcher is poisoned in its place
    // in the pipeline; the read behind it still runs.
    let add = Request::Add { key: 1, delta: 1 };
    let get = Request::Get { key: 1 };
    let (answers, heap_sum) = serve(CrashPoint::BatchEnqueue, 1, &[get.clone(), add, get]);
    let wanted = [
        (1, Response::Value(0)),
        (2, Response::Error(ErrorCode::ShardRestarted)),
        (3, Response::Value(0)),
    ];
    assert_eq!((answers.as_slice(), heap_sum), (&wanted[..], 0));
}

/// Layer 1b: a retried write whose response was dropped must apply exactly
/// once — the dedup window replays the recorded ack instead of re-running
/// the write. Deterministic: every response is dropped until the client's
/// penultimate attempt, guaranteeing at least one duplicate delivery.
#[test]
fn lost_response_retry_applies_exactly_once() {
    let seed = 0xdead_beef;
    let case = ChaosCase {
        seed,
        shards: 1,
        clients: 1,
        writes_per_client: 4,
        key_universe: 16,
        dedup_window: 1024,
        plan: FaultPlan {
            seed,
            frame: FrameFaults {
                drop_response_per_mille: 500,
                ..FrameFaults::default()
            },
            crashes: Vec::new(),
            abort_storm_per_mille: 0,
        },
        policy: BackoffPolicy::fast_test(),
    };
    let out = run_chaos_case(&case);
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    // The server must have recognized at least one duplicate for this test
    // to have exercised anything.
    assert!(
        out.server.duplicates > 0,
        "no duplicate deliveries happened — the schedule is too tame: {out:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Layer 2: the headline chaos property. 256 seeded schedules; the
    /// crash point cycles with the seed so all four are covered.
    #[test]
    fn seeded_fault_schedules_conserve(seed in 0u64..1_000_000) {
        let case = ChaosCase::from_seed(seed);
        let out = run_chaos_case(&case);
        prop_assert!(
            out.violations.is_empty(),
            "seed {}: {:?}",
            seed,
            out.violations
        );
    }
}

/// Layer 3: break the dedup window on purpose (capacity 0 = dedup off) and
/// hammer with dropped responses; the harness must report phantom applies.
/// If this test fails, the chaos invariants have lost their teeth.
#[test]
fn broken_dedup_window_is_caught() {
    let mut caught = false;
    for seed in 0..16u64 {
        let case = ChaosCase {
            seed,
            shards: 1,
            clients: 4,
            writes_per_client: 8,
            key_universe: 32,
            dedup_window: 0, // deduplication OFF — the deliberate bug
            plan: FaultPlan {
                seed,
                frame: FrameFaults {
                    drop_response_per_mille: 400,
                    ..FrameFaults::default()
                },
                crashes: Vec::new(),
                abort_storm_per_mille: 0,
            },
            policy: BackoffPolicy::fast_test(),
        };
        let out = run_chaos_case(&case);
        if out.violations.iter().any(|v| v.contains("phantom applies")) {
            caught = true;
            break;
        }
    }
    assert!(
        caught,
        "disabling the dedup window must produce a detected phantom apply \
         within 16 seeds — the conservation check is not sensitive enough"
    );
}

/// The graceful-shutdown half of the tentpole: a server with slow batches
/// shut down mid-stream answers everything it accepted (covered in
/// service_smoke) — here, the chaotic variant: shutdown with a fault plan
/// armed still drains cleanly.
#[test]
fn chaotic_shutdown_drains_cleanly() {
    let seed = 0x5147;
    let mut case = ChaosCase::from_seed(seed);
    case.plan.crashes.clear(); // no crashes: pure frame noise + storm
    case.plan.abort_storm_per_mille = 500;
    let out = run_chaos_case(&case);
    assert!(out.violations.is_empty(), "{:?}", out.violations);
}

/// Severed connections (disconnect faults) leave the ledger consistent:
/// whatever the severed clients' unknowns, heap == server ledger exactly.
#[test]
fn disconnects_conserve() {
    for seed in [1u64, 2, 3] {
        let case = ChaosCase {
            seed,
            shards: 2,
            clients: 4,
            writes_per_client: 8,
            key_universe: 64,
            dedup_window: 1024,
            plan: FaultPlan {
                seed,
                frame: FrameFaults {
                    disconnect_after: Some(5),
                    ..FrameFaults::default()
                },
                crashes: Vec::new(),
                abort_storm_per_mille: 0,
            },
            policy: BackoffPolicy::fast_test(),
        };
        let out = run_chaos_case(&case);
        assert!(
            out.violations.is_empty(),
            "seed {seed}: {:?}",
            out.violations
        );
    }
}

/// FIFO probe sanity under a crash-heavy schedule: responses that survive
/// must be in order (the registry outlives shard restarts), checked inside
/// the runner; here we just require the probe actually saw traffic.
#[test]
fn fifo_survives_restarts() {
    let seed = 2; // seed % 4 == 2 → BeforeGroupCommit crash
    let case = ChaosCase::from_seed(seed);
    let out = run_chaos_case(&case);
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    assert!(out.fifo_seen > 0, "the FIFO probe saw nothing: {out:?}");
}
