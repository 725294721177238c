//! An open-loop probe of the two channel workloads: requests are due on a
//! fixed schedule whatever the server does, and each is timed from when it
//! was due, so a stall shows as latency on everything queued behind it.
//!
//! The driver has to spin to keep the schedule, so the probe runs unpinned
//! and measures the neighbours on this shared box as much as the server.
//! Its numbers are reported and never gated.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tm_server::protocol::Response;
use tm_server::transport::ChannelConn;
use tm_stm::TmEngine;

use crate::spec::percentile_us;
use crate::svc::{start_server, tagless_engine, Plan, Stream, CONNS};
use crate::workload::{Round, HEAP_WORDS};

/// Requests due per second.
const RATE_HZ: u64 = 100_000;
/// Give up when the run takes this many times its schedule.
const PATIENCE: u32 = 5;

pub fn probe(plan: &Plan, seed: u64, requests: u64) -> Round {
    let interval = Duration::from_nanos(1_000_000_000 / RATE_HZ);
    let engine = Arc::new(tagless_engine());
    let server = start_server(&engine, plan);
    let mut conns: Vec<ChannelConn> = (0..CONNS).map(|_| server.connect()).collect();
    let mut stream = Stream::new(seed ^ 0x4f50_454e, plan.mix, plan.spread);

    let mut late_ns = Vec::with_capacity(requests as usize);
    let mut latency_ns = Vec::with_capacity(requests as usize);
    let mut acked_delta = 0u64;
    let mut failed = 0u64;
    let (mut sent, mut answered) = (0u64, [0u64; CONNS]);
    let t0 = Instant::now();
    let deadline = interval * requests as u32 * PATIENCE + Duration::from_secs(1);
    let due = |k: u64| interval * k as u32;
    while answered.iter().sum::<u64>() < requests {
        let now = t0.elapsed();
        if now > deadline {
            failed += requests - answered.iter().sum::<u64>();
            break;
        }
        // Request k goes out on connection k % CONNS once it is due.
        while sent < requests && due(sent) <= now {
            late_ns.push((t0.elapsed() - due(sent)).as_nanos() as u64);
            conns[sent as usize % CONNS].send(stream.next());
            sent += 1;
        }
        // A connection answers in order, so its j-th answer belongs to
        // request `conn + j * CONNS`.
        for (conn, answered) in answered.iter_mut().enumerate() {
            while let Some(frame) = conns[conn].try_recv() {
                let k = conn as u64 + *answered * CONNS as u64;
                latency_ns.push((t0.elapsed() - due(k)).as_nanos() as u64);
                *answered += 1;
                match frame.response {
                    Response::Value(_) | Response::Values(_) => {}
                    Response::Added(_) => acked_delta += 1,
                    Response::MultiAdded { applied } => acked_delta += applied as u64,
                    _ => failed += 1,
                }
            }
        }
        std::hint::spin_loop();
    }
    drop(conns);
    let served = server.shutdown();
    failed += u64::from(engine.heap_sum(HEAP_WORDS) != acked_delta);
    failed += u64::from(served.applied_delta != acked_delta);

    Round {
        values: vec![
            ("loadgen.open_p50_us", percentile_us(&mut latency_ns, 0.50)),
            ("loadgen.open_p99_us", percentile_us(&mut latency_ns, 0.99)),
            (
                "loadgen.open_late_p99_us",
                percentile_us(&mut late_ns, 0.99),
            ),
        ],
        attempted: requests + 2,
        failed,
    }
}
