//! End-to-end service tests over both transports: request/response
//! semantics, pipelining order, busy shedding, graceful shutdown, and the
//! acceptance-scale fleet (4096 sessions) with the conservation invariant.

use std::sync::Arc;
use std::time::Duration;

use tm_harness::AccessPattern;
use tm_server::loadgen::{run_loadgen, ArrivalProcess, LoadgenConfig};
use tm_server::protocol::{ErrorCode, Request, Response};
use tm_server::server::{start, ServerConfig};
use tm_server::transport::{serve_tcp, TcpConn};
use tm_server::{AdmissionPolicy, BatchPolicy};
use tm_stm::{ConcurrentTaglessTable, HashKind, Stm, StmBuilder, TmEngine};

const TIMEOUT: Duration = Duration::from_secs(5);

fn engine(heap_words: usize) -> Arc<Stm<ConcurrentTaglessTable>> {
    Arc::new(
        StmBuilder::new()
            .heap_words(heap_words)
            .table_entries(1 << 12)
            .hash(HashKind::Multiplicative)
            .build_tagless(),
    )
}

#[test]
fn basic_ops_round_trip() {
    let eng = engine(1024);
    let server = start(Arc::clone(&eng), ServerConfig::new(1024));
    let mut conn = server.connect();

    assert_eq!(
        conn.request(Request::Ping, TIMEOUT).unwrap().response,
        Response::Pong
    );
    assert_eq!(
        conn.request(Request::Add { key: 5, delta: 3 }, TIMEOUT)
            .unwrap()
            .response,
        Response::Added(3)
    );
    assert_eq!(
        conn.request(Request::Put { key: 6, value: 40 }, TIMEOUT)
            .unwrap()
            .response,
        Response::Written
    );
    assert_eq!(
        conn.request(Request::Get { key: 5 }, TIMEOUT)
            .unwrap()
            .response,
        Response::Value(3)
    );
    assert_eq!(
        conn.request(
            Request::MultiAdd {
                keys: vec![5, 6, 7],
                delta: 2
            },
            TIMEOUT
        )
        .unwrap()
        .response,
        Response::MultiAdded { applied: 3 }
    );
    // One consistent snapshot of all three keys.
    assert_eq!(
        conn.request(
            Request::MultiGet {
                keys: vec![5, 6, 7]
            },
            TIMEOUT
        )
        .unwrap()
        .response,
        Response::Values(vec![5, 42, 2])
    );
    // Keys canonicalize modulo the universe: key 5 + 1024 is key 5.
    assert_eq!(
        conn.request(Request::Get { key: 5 + 1024 }, TIMEOUT)
            .unwrap()
            .response,
        Response::Value(5)
    );
    assert_eq!(
        conn.request(Request::Close, TIMEOUT).unwrap().response,
        Response::Closed
    );
    server.shutdown();
}

#[test]
fn pipelined_requests_answered_in_order() {
    let eng = engine(1024);
    let server = start(Arc::clone(&eng), ServerConfig::new(1024));
    let mut conn = server.connect();

    // Mix reads and writes so ordering crosses the read-inline/write-batch
    // boundary: a later Get must still be answered after an earlier Add.
    let mut ids = Vec::new();
    for k in 0..32u64 {
        ids.push(conn.send(Request::Add { key: k, delta: 1 }));
        ids.push(conn.send(Request::Get { key: k }));
    }
    for expected in ids {
        let frame = conn.recv_timeout(TIMEOUT).expect("response");
        assert_eq!(frame.id, expected, "in-order answering");
        if frame.id.is_multiple_of(2) {
            // Every Get sees its session's preceding Add already applied.
            assert_eq!(frame.response, Response::Value(1));
        }
    }
    server.shutdown();
}

#[test]
fn two_pipelining_sessions_keep_their_order_and_their_groups() {
    let eng = engine(1024);
    let mut cfg = ServerConfig::new(1024);
    cfg.shards = 1;
    let server = start(Arc::clone(&eng), cfg);
    let mut conns = [server.connect(), server.connect()];

    // One thread feeds both sessions alternately, so the worker's queue
    // order is fixed: a's Add, b's Add, a's Get, b's Get, ... A Get
    // commits its session's Add if nothing has yet; whether the other
    // session's Add shares that transaction depends on how far the feeder
    // is ahead of the worker.
    let mut ids: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    for k in 0..32u64 {
        for (c, conn) in conns.iter_mut().enumerate() {
            let key = 2 * k + c as u64;
            ids[c].push(conn.send(Request::Add { key, delta: 1 }));
            conn.flush();
        }
        for (c, conn) in conns.iter_mut().enumerate() {
            let key = 2 * k + c as u64;
            ids[c].push(conn.send(Request::Get { key }));
            conn.flush();
        }
    }
    for (conn, ids) in conns.iter_mut().zip(&ids) {
        assert_eq!(ids.len(), 64);
        for (n, &expected) in ids.iter().enumerate() {
            let frame = conn.recv_timeout(TIMEOUT).expect("response");
            assert_eq!(frame.id, expected, "in-order answering");
            let wanted = match n % 2 {
                0 => Response::Added(1),
                _ => Response::Value(1),
            };
            assert_eq!(frame.response, wanted);
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.ops_committed, 64);
    // A session's Get stands between any two of its Adds, so no group
    // holds two of them: 32 groups at least, one per Add at most.
    assert!(
        (32..=64).contains(&stats.groups_committed),
        "{} groups",
        stats.groups_committed
    );
    assert_eq!(eng.heap_sum(1024), 64);
}

#[test]
fn lone_read_is_answered_without_waiting_for_a_timer() {
    // The worker blocks in a plain receive: the answer must leave before it
    // does. If delivery waited for the batcher's latency budget, no round
    // trip could beat it.
    let eng = engine(1024);
    let cfg = ServerConfig::new(1024);
    let budget = cfg.batch.latency_budget;
    let server = start(Arc::clone(&eng), cfg);
    let mut conn = server.connect();
    let fastest = (0..100)
        .map(|_| {
            let sent = std::time::Instant::now();
            let resp = conn.request(Request::Get { key: 3 }, TIMEOUT);
            assert_eq!(resp.expect("answered").response, Response::Value(0));
            sent.elapsed()
        })
        .min()
        .expect("100 round trips");
    assert!(fastest < budget, "fastest of 100: {fastest:?}");
    server.shutdown();
}

/// A batch policy whose cap no test reaches and whose groups nothing in a
/// test fills: only an empty queue, a read-your-writes flush, `Close` or
/// shutdown commits under it.
fn drain_only_batching() -> BatchPolicy {
    BatchPolicy {
        max_ops: 1024,
        max_footprint: 4096,
        latency_budget: Duration::from_secs(600),
    }
}

#[test]
fn lone_write_is_acked_without_a_read_a_close_or_a_shutdown() {
    // Nothing follows the Add: no group fills, no read of its session
    // forces it out, and the cap is ten minutes away. The worker's queue
    // running empty is what commits it.
    let eng = engine(1024);
    let mut cfg = ServerConfig::new(1024);
    cfg.shards = 1;
    cfg.batch = drain_only_batching();
    let server = start(Arc::clone(&eng), cfg);
    let (mut writer, mut reader) = (server.connect(), server.connect());
    for n in 1..=3u64 {
        let ack = writer.request(Request::Add { key: 1, delta: 1 }, TIMEOUT);
        assert_eq!(ack.expect("acked").response, Response::Added(n));
    }
    // Another session's read does not depend on it either way.
    let id = writer.send(Request::Add { key: 1, delta: 1 });
    writer.flush();
    let resp = reader.request(Request::Get { key: 2 }, TIMEOUT);
    assert_eq!(resp.expect("answered").response, Response::Value(0));
    let ack = writer.recv_timeout(TIMEOUT).expect("acked");
    assert_eq!((ack.id, ack.response), (id, Response::Added(4)));
    let stats = server.shutdown();
    assert_eq!((stats.ops_committed, stats.groups_committed), (4, 4));
}

#[test]
fn write_under_a_queue_that_never_empties_is_flushed_at_the_cap() {
    // One thread queues a lone Add and then, from another session, a burst
    // of reads that takes the worker many times the latency budget (and
    // 150 deliveries of 128 messages) to get through, with a Get of the
    // written key at its end. Queueing a Ping is cheaper than serving one,
    // so the worker falls behind and never sees its queue empty: no group
    // fills, no read is from the writer's session, and only the cap commits
    // the Add. Where the worker does catch up, the empty queue commits it.
    // Either way the Get, served inline when the worker reaches it, finds
    // the Add applied; a write held until the queue drains would read 0.
    const BURST: usize = 20_000;
    let eng = engine(1024);
    let mut cfg = ServerConfig::new(1024);
    cfg.shards = 1;
    let server = start(Arc::clone(&eng), cfg);
    let (mut writer, mut reader) = (server.connect(), server.connect());

    let add = writer.send(Request::Add { key: 7, delta: 1 });
    writer.flush();
    for _ in 0..BURST {
        reader.send(Request::Ping);
    }
    let get = reader.send(Request::Get { key: 7 });

    for _ in 0..BURST {
        let pong = reader.recv_timeout(TIMEOUT).expect("pong");
        assert_eq!(pong.response, Response::Pong);
    }
    let read = reader.recv_timeout(TIMEOUT).expect("read answer");
    assert_eq!((read.id, read.response), (get, Response::Value(1)));
    let ack = writer.recv_timeout(TIMEOUT).expect("write ack");
    assert_eq!((ack.id, ack.response), (add, Response::Added(1)));
    let stats = server.shutdown();
    assert_eq!((stats.ops_committed, stats.groups_committed), (1, 1));
}

/// Groups committed for one message of 200 key-disjoint `Add`s under the
/// drain-only caps and `latency_budget`. The message crosses
/// `DELIVER_EVERY` (128 frames), where the worker hands responses over and
/// reads its clock again.
fn groups_for_one_message_under(latency_budget: Duration) -> u64 {
    let eng = engine(1024);
    let mut cfg = ServerConfig::new(1024);
    cfg.batch = BatchPolicy {
        latency_budget,
        ..drain_only_batching()
    };
    let server = start(Arc::clone(&eng), cfg);
    let mut conn = server.connect();
    let adds: Vec<Request> = (0..200).map(|key| Request::Add { key, delta: 1 }).collect();
    conn.send_raw(message_of(&adds));
    for id in 1..=200 {
        let frame = conn.recv_timeout(TIMEOUT).expect("acked");
        assert_eq!((frame.id, frame.response), (id, Response::Added(1)));
    }
    let stats = server.shutdown();
    assert_eq!(stats.ops_committed, 200);
    assert_eq!(eng.heap_sum(1024), 200);
    stats.groups_committed
}

#[test]
fn the_age_cap_fires_inside_one_message() {
    // No group fills and the queue is not empty until the message is
    // walked. A zero budget makes every write as old as the cap by the
    // worker's reading after it, however stale that reading: each commits
    // alone.
    assert_eq!(groups_for_one_message_under(Duration::ZERO), 200);
    // Ten minutes: only the empty queue behind the message commits, once.
    assert_eq!(groups_for_one_message_under(Duration::from_secs(600)), 1);
}

#[test]
fn close_after_pipelined_writes_acks_them_all_then_closes() {
    let eng = engine(1024);
    let mut cfg = ServerConfig::new(1024);
    cfg.batch = drain_only_batching();
    let server = start(Arc::clone(&eng), cfg);
    let mut conn = server.connect();
    let writes: Vec<u64> = (0..10u64)
        .map(|k| conn.send(Request::Add { key: k, delta: 1 }))
        .collect();
    let close = conn.send(Request::Close);
    // Whatever the worker had not committed when it reached Close, Close
    // commits: every ack precedes it, in order.
    for id in writes {
        let frame = conn.recv_timeout(TIMEOUT).expect("write ack");
        assert_eq!((frame.id, frame.response), (id, Response::Added(1)));
    }
    let last = conn.recv_timeout(TIMEOUT).expect("Closed");
    assert_eq!((last.id, last.response), (close, Response::Closed));
    // EOF: the sink is gone, so this returns at once rather than timing out.
    let waited = std::time::Instant::now();
    assert_eq!(conn.recv_timeout(TIMEOUT), None);
    assert!(waited.elapsed() < TIMEOUT, "hang-up, not a timeout");
    // A frame after Close is discarded unread.
    conn.send(Request::Add { key: 0, delta: 1 });
    conn.flush();
    assert_eq!(server.shutdown().ops_committed, 10);
    assert_eq!(eng.heap_sum(1024), 10);
}

#[test]
fn malformed_frames_get_typed_errors() {
    let eng = engine(256);
    let server = start(Arc::clone(&eng), ServerConfig::new(256));
    let mut conn = server.connect();

    // A structurally valid envelope with a bogus tag: the server can still
    // recover the correlation id.
    let mut bad = tm_server::RequestFrame {
        id: 77,
        request: Request::Ping,
    }
    .encode();
    bad[13] = 250; // tag byte
    conn.send_raw(bad);
    let resp = conn.recv_timeout(TIMEOUT).unwrap();
    assert_eq!(resp.id, 77);
    assert_eq!(resp.response, Response::Error(ErrorCode::Malformed));

    // The session survives a malformed frame whose envelope was readable.
    assert_eq!(
        conn.request(Request::Ping, TIMEOUT).unwrap().response,
        Response::Pong
    );

    // Total garbage (no recoverable correlation id): the server must NOT
    // invent an id — a fabricated `id 0` answer would desynchronize the
    // client's pipeline. Instead the session is closed.
    conn.send_raw(vec![9, 0, 0, 0, 42, 1, 2, 3, 4, 5, 6, 7, 8]);
    assert_eq!(
        conn.recv_timeout(Duration::from_millis(300)),
        None,
        "an unattributable frame must never be answered"
    );
    // The session is gone: later valid requests go unanswered too.
    conn.send(Request::Ping);
    assert_eq!(conn.recv_timeout(Duration::from_millis(300)), None);
    let stats = server.stats();
    assert_eq!(stats.sessions_closed, 1);
    assert_eq!(stats.malformed, 2);

    // Other sessions are unaffected.
    let mut conn2 = server.connect();
    assert_eq!(
        conn2.request(Request::Ping, TIMEOUT).unwrap().response,
        Response::Pong
    );
    server.shutdown();
}

/// `requests` encoded back to back under ids 1, 2, ...: one inbound message.
fn message_of(requests: &[Request]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (request, id) in requests.iter().cloned().zip(1..) {
        bytes.extend(tm_server::RequestFrame { id, request }.encode());
    }
    bytes
}

#[test]
fn malformed_frame_inside_a_message_costs_only_itself() {
    let eng = engine(256);
    let server = start(Arc::clone(&eng), ServerConfig::new(256));
    let mut conn = server.connect();
    let get = Request::Get { key: 3 };
    let mut message = message_of(&[get.clone(), Request::Ping, get]);
    // The second frame's tag byte: its envelope (and so its id) stays
    // readable, and the message stays a run of whole frames.
    let second = message_of(&[Request::Get { key: 3 }]).len();
    message[second + 13] = 250;
    conn.send_raw(message);
    let answers: Vec<_> = (0..3)
        .map(|_| conn.recv_timeout(TIMEOUT).expect("answered"))
        .map(|frame| (frame.id, frame.response))
        .collect();
    let wanted = [
        (1, Response::Value(0)),
        (2, Response::Error(ErrorCode::Malformed)),
        (3, Response::Value(0)),
    ];
    assert_eq!(answers, wanted);
    let stats = server.shutdown();
    assert_eq!((stats.requests, stats.malformed), (2, 1));
    assert_eq!(stats.sessions_closed, 0);
}

#[test]
fn close_inside_a_message_discards_the_frames_behind_it() {
    let eng = engine(256);
    let server = start(Arc::clone(&eng), ServerConfig::new(256));
    let mut conn = server.connect();
    conn.send_raw(message_of(&[
        Request::Add { key: 1, delta: 5 },
        Request::Close,
        Request::Add { key: 1, delta: 7 },
        Request::Get { key: 1 },
    ]));
    let added = conn
        .recv_timeout(TIMEOUT)
        .expect("the write ahead of Close");
    assert_eq!((added.id, added.response), (1, Response::Added(5)));
    let closed = conn.recv_timeout(TIMEOUT).expect("Closed");
    assert_eq!((closed.id, closed.response), (2, Response::Closed));
    assert_eq!(conn.recv_timeout(TIMEOUT), None, "hang-up, nothing more");
    let stats = server.shutdown();
    assert_eq!(stats.requests, 2, "the frames behind Close go unread");
    assert_eq!(eng.heap_sum(256), 5);
}

#[test]
fn a_message_that_is_not_whole_frames_is_one_undecodable_frame() {
    let eng = engine(256);
    let server = start(Arc::clone(&eng), ServerConfig::new(256));
    let mut conn = server.connect();
    // Two good frames and a cut third: nothing in it is served. The first
    // frame's envelope is where the whole message's id is looked for.
    let mut message = message_of(&[
        Request::Add { key: 1, delta: 5 },
        Request::Add { key: 2, delta: 5 },
        Request::Add { key: 3, delta: 5 },
    ]);
    message.truncate(message.len() - 1);
    conn.send_raw(message);
    let only = conn.recv_timeout(TIMEOUT).expect("one answer");
    assert_eq!(
        (only.id, only.response),
        (1, Response::Error(ErrorCode::Malformed))
    );
    assert_eq!(
        conn.request(Request::Ping, TIMEOUT).unwrap().response,
        Response::Pong,
        "and the session goes on"
    );
    let stats = server.shutdown();
    assert_eq!((stats.requests, stats.malformed), (1, 1));
    assert_eq!(eng.heap_sum(256), 0);
}

#[test]
fn six_hundred_frames_in_one_message_are_answered_in_order_with_read_your_writes() {
    const KEYS: u64 = 16;
    let eng = engine(1024);
    let mut cfg = ServerConfig::new(1024);
    cfg.admission = AdmissionPolicy::unlimited();
    let server = start(Arc::clone(&eng), cfg);
    let mut conn = server.connect();

    // What each request must be answered with, from a model of the store.
    let mut model = [0u64; KEYS as usize];
    let mut wanted = Vec::new();
    for i in 0..600u64 {
        let key = (i * 7) % KEYS;
        let (request, response) = match i % 3 {
            0 => {
                model[key as usize] += 1;
                let added = Response::Added(model[key as usize]);
                (Request::Add { key, delta: 1 }, added)
            }
            1 => {
                let keys = vec![key, (key + 1) % KEYS];
                keys.iter().for_each(|&k| model[k as usize] += 2);
                let added = Response::MultiAdded { applied: 2 };
                (Request::MultiAdd { keys, delta: 2 }, added)
            }
            // A key the two writes before it touched.
            _ => {
                let key = (key + KEYS - 7) % KEYS;
                (Request::Get { key }, Response::Value(model[key as usize]))
            }
        };
        wanted.push((conn.send(request), response));
    }
    // ~20 KB: under the coalescing bound, so this is one message.
    for expected in wanted {
        let frame = conn.recv_timeout(TIMEOUT).expect("answered");
        assert_eq!((frame.id, frame.response), expected);
    }
    let stats = server.shutdown();
    assert_eq!((stats.requests, stats.ops_committed), (600, 400));
    assert_eq!(eng.heap_sum(1024), model.iter().sum::<u64>());
}

#[test]
fn tiny_admission_budget_sheds_with_busy() {
    let eng = engine(1 << 12);
    let mut cfg = ServerConfig::new(1 << 12);
    cfg.batch = BatchPolicy::grouped();
    cfg.admission = AdmissionPolicy {
        base_inflight: 16,
        min_inflight: 8,
        slope: 4.0,
    };
    let server = start(Arc::clone(&eng), cfg);
    let mut conn = server.connect();

    // Pipeline far more write cost than the budget admits. Each MultiAdd
    // costs 8; at most two fit before a flush releases them.
    let n = 64u64;
    for i in 0..n {
        let keys: Vec<u64> = (0..8).map(|j| i * 8 + j).collect();
        conn.send(Request::MultiAdd { keys, delta: 1 });
    }
    let mut busy = 0u64;
    let mut applied = 0u64;
    for _ in 0..n {
        match conn
            .recv_timeout(TIMEOUT)
            .expect("every request is answered")
            .response
        {
            Response::MultiAdded { applied: a } => applied += u64::from(a),
            Response::Busy => busy += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(busy > 0, "overload must shed");
    assert!(applied > 0, "some writes must land");
    // A shed write applied nothing; an acked write applied exactly once.
    assert_eq!(eng.heap_sum(1 << 12), applied);
    assert_eq!(server.stats().busy, busy);
    assert_eq!(server.admission().shed_count(), busy);
    server.shutdown();
}

#[test]
fn busy_shed_token_retries_as_new() {
    // Pins the handle_frame ordering contract: `dedup_begin` runs before
    // admission, which is sound only because the Busy path abandons the
    // token — a reorder that stops abandoning would leave shed tokens
    // permanently InFlight and silently swallow every retry.
    let eng = engine(1024);
    let mut cfg = ServerConfig::new(1024);
    cfg.admission = AdmissionPolicy {
        base_inflight: 2,
        min_inflight: 1,
        slope: 1.0,
    };
    let server = start(Arc::clone(&eng), cfg);
    let mut conn = server.connect();
    // A thrashing engine has contracted the budget to its one-word floor:
    // a two-word write is shed however soon the write before it commits.
    server.admission().observe(1e9);
    assert_eq!(server.admission().budget(), 1);

    let pair = || Request::MultiAdd {
        keys: vec![1, 2],
        delta: 1,
    };
    let id1 = conn.send(Request::idempotent(1, Request::Add { key: 0, delta: 1 }));
    let id2 = conn.send(Request::idempotent(2, pair()));
    // `Busy` is answered inline and the ack when the write's group
    // commits, so which arrives first depends on whether the worker's
    // queue ran empty between the two frames.
    let mut answers = [
        conn.recv_timeout(TIMEOUT).expect("first answer"),
        conn.recv_timeout(TIMEOUT).expect("second answer"),
    ]
    .map(|frame| (frame.id, frame.response));
    answers.sort_by_key(|(id, _)| *id);
    assert_eq!(
        answers,
        [(id1, Response::Added(1)), (id2, Response::Busy)],
        "the one-word write fits, the two-word write is shed"
    );

    // The engine calms down and the budget recovers. Retrying the shed
    // token must classify it New — admitted and applied. Were it still
    // InFlight, the retry would be swallowed unanswered.
    server.admission().observe(0.0);
    let id3 = conn.send(Request::idempotent(2, pair()));
    let id4 = conn.send(Request::Get { key: 1 });
    let retried = conn.recv_timeout(TIMEOUT).expect("retried write ack");
    assert_eq!(
        (retried.id, retried.response),
        (id3, Response::MultiAdded { applied: 2 })
    );
    let read = conn.recv_timeout(TIMEOUT).expect("read answer");
    assert_eq!((read.id, read.response), (id4, Response::Value(1)));

    let stats = server.shutdown();
    assert_eq!(stats.busy, 1);
    assert_eq!(
        stats.duplicates, 0,
        "the retry of a shed token is a fresh write, not a duplicate"
    );
    assert_eq!(eng.heap_sum(1024), 3, "each write applied exactly once");
}

#[test]
fn shutdown_flushes_pending_batches() {
    let eng = engine(1024);
    let mut cfg = ServerConfig::new(1024);
    cfg.batch = drain_only_batching();
    let server = start(Arc::clone(&eng), cfg);
    let mut conn = server.connect();
    let writes: Vec<u64> = (0..10u64)
        .map(|k| conn.send(Request::Add { key: k, delta: 1 }))
        .collect();
    conn.flush();
    // However many of the ten the worker has committed by now, shutdown
    // commits the rest and answers them before the shards exit.
    server.shutdown();
    for id in writes {
        let frame = conn
            .try_recv()
            .expect("graceful shutdown answers pending writes");
        assert_eq!((frame.id, frame.response), (id, Response::Added(1)));
    }
    assert_eq!(conn.try_recv(), None);
    assert_eq!(eng.heap_sum(1024), 10);
}

#[test]
fn multi_put_is_atomic_across_engine_shards() {
    // The server over a 4-shard tm-shard engine: a MultiPut whose pairs
    // land on different engine shards must publish atomically — concurrent
    // MultiGet snapshots (wait-free run_read) see both writes or neither,
    // never a torn mix.
    use tm_shard::ShardedStmBuilder;
    let universe: u64 = 4096; // 512 blocks → 128-block spans at 4 shards
    let eng = Arc::new(
        StmBuilder::new()
            .heap_words(universe as usize)
            .table_entries(1 << 12)
            .shards(4)
            .build_sharded_tagless(),
    );
    // Key 10 lives in shard 0's span, key 3000 in shard 2's.
    let (lo, hi) = (10u64, 3000u64);
    let server = start(Arc::clone(&eng), ServerConfig::new(universe));

    let mut writer = server.connect();
    let mut reader = server.connect();
    let rounds = 200u64;
    std::thread::scope(|s| {
        s.spawn(move || {
            for i in 1..=rounds {
                let resp = writer
                    .request(
                        Request::MultiPut {
                            pairs: vec![(lo, i), (hi, i)],
                        },
                        TIMEOUT,
                    )
                    .unwrap()
                    .response;
                assert_eq!(resp, Response::MultiWritten { applied: 2 });
            }
        });
        s.spawn(move || loop {
            let resp = reader
                .request(Request::MultiGet { keys: vec![lo, hi] }, TIMEOUT)
                .unwrap()
                .response;
            let Response::Values(vals) = resp else {
                panic!("MultiGet answered {resp:?}");
            };
            assert_eq!(
                vals[0], vals[1],
                "torn cross-shard read: snapshot saw one half of a MultiPut"
            );
            if vals[0] == rounds {
                return;
            }
        });
    });
    assert!(
        eng.cross_shard_commits() >= rounds,
        "every MultiPut spans two shards; saw {}",
        eng.cross_shard_commits()
    );
    let stats = server.shutdown();
    assert_eq!(stats.put_writes, rounds * 2);
    assert_eq!(stats.audit_failures, 0);
}

#[test]
fn acceptance_fleet_4k_sessions_conserves() {
    // The acceptance bar: ≥ 4096 concurrent simulated sessions over
    // the channel transport, zero isolation-invariant violations.
    let universe: u64 = 1 << 16;
    let eng = engine(universe as usize);
    let mut cfg = ServerConfig::new(universe);
    cfg.batch = BatchPolicy::grouped();
    cfg.admission = AdmissionPolicy::unlimited();
    let server = start(Arc::clone(&eng), cfg);

    let fleet = LoadgenConfig {
        sessions: 4096,
        driver_threads: 4,
        requests_per_session: 2,
        arrivals: ArrivalProcess::Poisson { rate_hz: 500.0 },
        write_fraction: 0.7,
        keys_per_op: 4,
        pattern: AccessPattern::Uniform,
        key_universe: universe,
        pipeline_window: 2,
        seed: 0x4096,
    };
    let report = run_loadgen(&server, &fleet);

    assert_eq!(report.sent, 4096 * 2);
    assert_eq!(report.unanswered, 0, "every request answered");
    assert_eq!(report.errors, 0);
    assert!(
        report.conservation_holds(&*eng, universe),
        "heap sum {} != acknowledged increments {}",
        eng.heap_sum(universe as usize),
        report.applied_delta
    );
    // Group commit must actually coalesce across sessions at this scale.
    let stats = server.stats();
    assert!(
        stats.coalescing_factor() > 1.2,
        "coalescing factor {:.2}",
        stats.coalescing_factor()
    );
    server.shutdown();
}

#[test]
fn bursty_fleet_conserves() {
    let universe: u64 = 1 << 14;
    let eng = engine(universe as usize);
    let mut cfg = ServerConfig::new(universe);
    cfg.admission = AdmissionPolicy::default();
    let server = start(Arc::clone(&eng), cfg);

    let fleet = LoadgenConfig {
        sessions: 256,
        driver_threads: 2,
        requests_per_session: 8,
        arrivals: ArrivalProcess::Bursty {
            rate_hz: 150.0,
            burst: 4,
        },
        write_fraction: 1.0,
        keys_per_op: 2,
        pattern: AccessPattern::Zipf { exponent: 0.8 },
        key_universe: universe,
        pipeline_window: 8,
        seed: 0xb0b,
    };
    let report = run_loadgen(&server, &fleet);
    assert_eq!(report.unanswered, 0);
    assert!(report.conservation_holds(&*eng, universe));
    server.shutdown();
}

#[test]
fn tcp_transport_round_trip() {
    let eng = engine(1024);
    let server = start(Arc::clone(&eng), ServerConfig::new(1024));
    let transport = match serve_tcp(&server, "127.0.0.1:0") {
        Ok(t) => t,
        Err(e) => {
            // Sandboxes without loopback: the channel-transport tests carry
            // the coverage; don't fail the suite on environment.
            eprintln!("skipping TCP test: bind failed: {e}");
            server.shutdown();
            return;
        }
    };
    let addr = transport.local_addr();

    let mut conn = TcpConn::connect(addr).expect("connect to loopback");
    // Pipeline three requests over the socket, then drain in order.
    let a = conn.send(Request::Add { key: 1, delta: 10 }).unwrap();
    let b = conn.send(Request::Get { key: 1 }).unwrap();
    let c = conn.send(Request::Ping).unwrap();
    let ra = conn.recv_timeout(TIMEOUT).unwrap().expect("response a");
    let rb = conn.recv_timeout(TIMEOUT).unwrap().expect("response b");
    let rc = conn.recv_timeout(TIMEOUT).unwrap().expect("response c");
    assert_eq!((ra.id, ra.response), (a, Response::Added(10)));
    assert_eq!((rb.id, rb.response), (b, Response::Value(10)));
    assert_eq!((rc.id, rc.response), (c, Response::Pong));

    // A second concurrent connection gets its own session.
    let mut conn2 = TcpConn::connect(addr).expect("second connection");
    conn2.send(Request::Add { key: 1, delta: 1 }).unwrap();
    let r = conn2.recv_timeout(TIMEOUT).unwrap().expect("response");
    assert_eq!(r.response, Response::Added(11));

    drop(conn);
    drop(conn2);
    transport.stop();
    server.shutdown();
    assert_eq!(eng.heap_sum(1024), 11);
}
