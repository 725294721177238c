//! The service's counters against the clients' own tallies, with every
//! worker busy.
//!
//! Each worker keeps its own counter block, written by its thread alone,
//! and `ServerHandle::stats` sums the blocks. Eight channel sessions on the
//! default four workers (two per worker) pipeline `Add`s, `MultiAdd`s and
//! `Get`s over keys of their own, so every answer is known when the request
//! is sent; after `shutdown` the summed counters must equal what the
//! clients sent and saw acknowledged, and the heap must hold exactly the
//! increments the server says it applied.

use std::sync::Arc;
use std::time::Duration;

use tm_birthday::prelude::*;
use tm_birthday::server::{start, AdmissionPolicy, ChannelConn, Request, Response, ServerConfig};

const KEYS: u64 = 1 << 10;
const SESSIONS: u64 = 8;
const ROUNDS: u64 = 12;
const WINDOW: u64 = 40;
const MULTI: u64 = 3;
const TIMEOUT: Duration = Duration::from_secs(10);

/// What the clients sent and were answered, in the server's terms.
#[derive(Debug, Default, PartialEq, Eq)]
struct Tally {
    requests: u64,
    reads: u64,
    writes: u64,
    applied_delta: u64,
}

/// Request `i` of session `s` and, from `model` (updated in place), the
/// one response that answers it. Session `s` owns the keys `≡ s` modulo
/// `SESSIONS`, so no other session moves an answer.
fn exchange(s: u64, i: u64, model: &mut [u64], tally: &mut Tally) -> (Request, Response) {
    let key = |n: u64| (n * SESSIONS + s) % KEYS;
    tally.requests += 1;
    match i % 4 {
        0 | 2 => {
            let (key, delta) = (key(i * 13), i % 5 + 1);
            model[key as usize] += delta;
            tally.writes += 1;
            tally.applied_delta += delta;
            (
                Request::Add { key, delta },
                Response::Added(model[key as usize]),
            )
        }
        1 => {
            let keys: Vec<u64> = (0..MULTI).map(|k| key(i * 7 + k * 41)).collect();
            keys.iter().for_each(|&k| model[k as usize] += 2);
            tally.writes += 1;
            tally.applied_delta += 2 * MULTI;
            let applied = MULTI as u32;
            (
                Request::MultiAdd { keys, delta: 2 },
                Response::MultiAdded { applied },
            )
        }
        // A key this window just wrote: read-your-writes flushes it first.
        _ => {
            let key = key((i - 1) * 13);
            tally.reads += 1;
            (Request::Get { key }, Response::Value(model[key as usize]))
        }
    }
}

#[test]
fn summed_worker_counters_equal_the_clients_tallies() {
    let engine = Arc::new(
        StmBuilder::new()
            .heap_words(KEYS as usize)
            .table_entries(1 << 12)
            .build_tagless(),
    );
    let mut config = ServerConfig::new(KEYS);
    // Aborts between workers may contract the default budget; a `Busy`
    // here would be a shed write, not a counting error.
    config.admission = AdmissionPolicy::unlimited();
    let workers = config.shards;
    assert_eq!(workers, 4, "the default worker count");
    let server = start(Arc::clone(&engine), config);
    let mut conns: Vec<ChannelConn> = (0..SESSIONS).map(|_| server.connect()).collect();
    for worker in 0..u64::from(workers) {
        let on_it = conns
            .iter()
            .filter(|c| c.session() % u64::from(workers) == worker)
            .count();
        assert_eq!(on_it, 2, "two sessions on worker {worker}");
    }

    let mut model = vec![0u64; KEYS as usize];
    let mut tally = Tally::default();
    for round in 0..ROUNDS {
        // A window on every session first, so all four workers have
        // queued work at once; then every answer, in order.
        let mut expected = Vec::new();
        for (s, conn) in conns.iter_mut().enumerate() {
            for i in round * WINDOW..(round + 1) * WINDOW {
                let (request, response) = exchange(s as u64, i, &mut model, &mut tally);
                expected.push((s, conn.send(request), response));
            }
            conn.flush();
        }
        for (s, id, response) in expected {
            let frame = conns[s].recv_timeout(TIMEOUT).expect("answered in time");
            assert_eq!((frame.id, frame.response), (id, response), "session {s}");
        }
    }

    drop(conns);
    let stats = server.shutdown();
    let served = Tally {
        requests: stats.requests,
        reads: stats.reads,
        writes: stats.writes_enqueued,
        applied_delta: stats.applied_delta,
    };
    assert_eq!(served, tally);
    assert_eq!(stats.ops_committed, tally.writes);
    assert_eq!(stats.busy, 0);
    assert_eq!(stats.applied_delta, engine.heap_sum(KEYS as usize));
    assert_eq!(stats.applied_delta, model.iter().sum::<u64>());
}
