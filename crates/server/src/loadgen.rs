//! The client fleet: thousands of simulated sessions with Poisson or
//! bursty arrivals, pipelined over the channel transport.
//!
//! Each **driver thread** multiplexes many logical sessions (4k sessions
//! do not need 4k OS threads): it walks its sessions round-robin, sends
//! whatever their arrival clocks owe, and drains responses, recording
//! per-request latency into `tm-telemetry` histograms. The fleet is a
//! genuinely *open* system — arrivals are scheduled by a clock, not by
//! completions — which is the regime where Eq. 8's service-inflation
//! feedback loop lives and what the admission controller is for.
//!
//! Writes are increment-only (`Add`/`MultiAdd` with `delta = 1`), so the
//! fleet carries its own whole-run isolation invariant: once every
//! response has arrived, the heap-wide sum must equal
//! [`LoadReport::applied_delta`] — every acknowledged increment applied
//! exactly once, every `Busy`-shed increment applied exactly zero times.
//! [`LoadReport::conservation_holds`] checks it against the engine.
//! `Busy` is terminal here: the fleet never resends a shed write
//! ([`RetryClient`](crate::client::RetryClient) is the client that does).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tm_harness::{AccessPattern, BlockSampler};
use tm_stm::TmEngine;
use tm_telemetry::Histogram;

use crate::protocol::{Request, Response};
use crate::server::ServerHandle;
use crate::transport::ChannelConn;

/// How a session's requests arrive.
#[derive(Clone, Copy, Debug)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at `rate_hz` per session (exponential
    /// inter-arrival gaps).
    Poisson {
        /// Mean arrivals per second per session.
        rate_hz: f64,
    },
    /// Bursts of `burst` back-to-back requests, burst *events* arriving as
    /// a Poisson process at `rate_hz` — same mean load as Poisson at
    /// `rate_hz · burst`, much spikier instantaneous concurrency.
    Bursty {
        /// Mean burst events per second per session.
        rate_hz: f64,
        /// Requests per burst.
        burst: u32,
    },
}

impl ArrivalProcess {
    /// Draw the gap to the next arrival event and its size.
    fn next_event(&self, rng: &mut StdRng) -> (Duration, u32) {
        let (rate, size) = match *self {
            ArrivalProcess::Poisson { rate_hz } => (rate_hz, 1),
            ArrivalProcess::Bursty { rate_hz, burst } => (rate_hz, burst.max(1)),
        };
        // Inverse-CDF exponential; clamp the uniform away from 1.0 so ln
        // never sees zero.
        let u: f64 = rng.gen::<f64>().min(1.0 - 1e-12);
        let gap = -(1.0 - u).ln() / rate.max(1e-9);
        (Duration::from_secs_f64(gap.min(10.0)), size)
    }
}

/// Fleet parameters.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Logical sessions (connections).
    pub sessions: u32,
    /// OS threads driving them.
    pub driver_threads: u32,
    /// Requests each session issues before retiring.
    pub requests_per_session: u32,
    /// Arrival process per session.
    pub arrivals: ArrivalProcess,
    /// Probability a request is a write (`Add`/`MultiAdd`); the rest are
    /// reads (`Get`/`MultiGet`) on the wait-free path.
    pub write_fraction: f64,
    /// Distinct keys per write (1 → `Add`, else `MultiAdd`) and per
    /// `MultiGet`.
    pub keys_per_op: u32,
    /// Key popularity distribution (the harness's vocabulary).
    pub pattern: AccessPattern,
    /// Key universe; must match the server's.
    pub key_universe: u64,
    /// Max responses a session leaves outstanding before it stops sending
    /// (pipelining window).
    pub pipeline_window: u32,
    /// Fleet RNG seed.
    pub seed: u64,
}

impl LoadgenConfig {
    /// A small smoke fleet: 64 sessions, 2 drivers, uniform keys.
    pub fn smoke(key_universe: u64) -> Self {
        Self {
            sessions: 64,
            driver_threads: 2,
            requests_per_session: 8,
            arrivals: ArrivalProcess::Poisson { rate_hz: 200.0 },
            write_fraction: 0.5,
            keys_per_op: 4,
            pattern: AccessPattern::Uniform,
            key_universe,
            pipeline_window: 4,
            seed: 0x10ad,
        }
    }
}

/// What the fleet measured.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Requests sent.
    pub sent: u64,
    /// Writes acknowledged as applied (`Added`/`MultiAdded`).
    pub acked_writes: u64,
    /// Reads acknowledged (`Value`/`Values`).
    pub acked_reads: u64,
    /// Writes shed with `Busy` (not applied).
    pub busy: u64,
    /// `Error` responses.
    pub errors: u64,
    /// Responses that never arrived before the drain deadline.
    pub unanswered: u64,
    /// Total increment actually applied by acknowledged writes (each
    /// `Added` is +1, each `MultiAdded{applied}` is +applied).
    pub applied_delta: u64,
    /// Per-write latency, nanoseconds (send → response).
    pub write_latency: Histogram,
    /// Per-read latency, nanoseconds.
    pub read_latency: Histogram,
    /// Fleet wall-clock.
    pub elapsed: Duration,
}

impl LoadReport {
    fn merge(&mut self, other: LoadReport) {
        self.sent += other.sent;
        self.acked_writes += other.acked_writes;
        self.acked_reads += other.acked_reads;
        self.busy += other.busy;
        self.errors += other.errors;
        self.unanswered += other.unanswered;
        self.applied_delta += other.applied_delta;
        self.write_latency.merge(&other.write_latency);
        self.read_latency.merge(&other.read_latency);
        self.elapsed = self.elapsed.max(other.elapsed);
    }

    /// Acknowledged operations per second of fleet wall-clock.
    pub fn throughput_hz(&self) -> f64 {
        let acked = (self.acked_writes + self.acked_reads + self.busy) as f64;
        if self.elapsed.is_zero() {
            0.0
        } else {
            acked / self.elapsed.as_secs_f64()
        }
    }

    /// The whole-run isolation invariant: the engine's heap sum over the
    /// key universe equals the acknowledged increment total. Every `Busy`
    /// shed must have applied nothing; every ack exactly once.
    pub fn conservation_holds<E: TmEngine>(&self, engine: &E, key_universe: u64) -> bool {
        engine.heap_sum(key_universe as usize) == self.applied_delta
    }

    /// Human-readable percentile line for one latency histogram.
    fn latency_line(name: &str, h: &Histogram) -> String {
        match (h.p50_p95_p99(), h.p999()) {
            (Some((p50, p95, p99)), Some(p999)) => format!(
                "{name}: p50 {:.1}µs  p95 {:.1}µs  p99 {:.1}µs  p99.9 {:.1}µs  (n={})",
                p50 as f64 / 1e3,
                p95 as f64 / 1e3,
                p99 as f64 / 1e3,
                p999 as f64 / 1e3,
                h.count()
            ),
            _ => format!("{name}: no samples"),
        }
    }

    /// Multi-line human summary (what the example and smoke bin print).
    pub fn summary(&self) -> String {
        format!(
            "sent {}  acked writes {}  reads {}  busy {}  errors {}  unanswered {}\n\
             applied delta {}  elapsed {:.2?}  throughput {:.0} ops/s\n\
             {}\n{}",
            self.sent,
            self.acked_writes,
            self.acked_reads,
            self.busy,
            self.errors,
            self.unanswered,
            self.applied_delta,
            self.elapsed,
            self.throughput_hz(),
            Self::latency_line("write latency", &self.write_latency),
            Self::latency_line("read  latency", &self.read_latency),
        )
    }
}

/// One logical session inside a driver thread.
struct SessionSim {
    conn: ChannelConn,
    rng: StdRng,
    next_arrival: Instant,
    /// Requests still owed by the current arrival event (bursts > 1).
    event_remaining: u32,
    sent: u32,
    /// When each request in flight was sent, by correlation id.
    outstanding: HashMap<u64, Instant>,
}

/// Run the fleet against `server` and aggregate what it saw. Returns after
/// every session has sent its quota and either received or timed out on
/// every response (10 s drain deadline).
pub fn run_loadgen(server: &ServerHandle, cfg: &LoadgenConfig) -> LoadReport {
    assert!(cfg.sessions >= 1 && cfg.driver_threads >= 1);
    // Connections are opened on the caller's thread (the handle is not
    // shared across threads) and moved into the drivers.
    let mut conns: Vec<ChannelConn> = (0..cfg.sessions).map(|_| server.connect()).collect();

    let start = Instant::now();
    let mut chunks: Vec<Vec<ChannelConn>> = (0..cfg.driver_threads).map(|_| Vec::new()).collect();
    for (i, conn) in conns.drain(..).enumerate() {
        chunks[i % cfg.driver_threads as usize].push(conn);
    }

    let mut report = LoadReport::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .enumerate()
            .map(|(t, chunk)| {
                let cfg = cfg.clone();
                scope.spawn(move || drive(chunk, t as u64, &cfg, start))
            })
            .collect();
        for h in handles {
            report.merge(h.join().expect("driver thread panicked"));
        }
    });
    report.elapsed = start.elapsed();
    report
}

/// Draw `count` *distinct* keys from the sampler (rejection; the universe
/// is much larger than any per-op footprint, so this terminates fast).
fn draw_keys(sampler: &BlockSampler, rng: &mut StdRng, count: u32, universe: u64) -> Vec<u64> {
    let count = (count as u64).min(universe) as usize;
    let mut keys = Vec::with_capacity(count);
    while keys.len() < count {
        let k = sampler.sample(rng);
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    keys
}

fn drive(
    conns: Vec<ChannelConn>,
    thread_idx: u64,
    cfg: &LoadgenConfig,
    start: Instant,
) -> LoadReport {
    let sampler = BlockSampler::for_pattern(cfg.pattern, cfg.key_universe);
    let mut report = LoadReport::default();
    let mut sessions: Vec<SessionSim> = conns
        .into_iter()
        .enumerate()
        .map(|(i, conn)| {
            let mut rng = StdRng::seed_from_u64(
                cfg.seed ^ (thread_idx << 40) ^ (i as u64) << 8 ^ 0x5e55_1011,
            );
            let (gap, size) = cfg.arrivals.next_event(&mut rng);
            SessionSim {
                conn,
                rng,
                next_arrival: start + gap,
                event_remaining: size,
                sent: 0,
                outstanding: HashMap::new(),
            }
        })
        .collect();

    // Phase 1: send per arrival clocks, draining responses as they come.
    loop {
        let mut all_sent = true;
        let mut any_progress = false;
        let now = Instant::now();
        for s in sessions.iter_mut() {
            any_progress |= drain_responses(s, &mut report);
            if s.sent >= cfg.requests_per_session {
                continue;
            }
            all_sent = false;
            while s.sent < cfg.requests_per_session
                && now >= s.next_arrival
                && (s.outstanding.len() as u32) < cfg.pipeline_window
            {
                send_one(s, cfg, &sampler, &mut report);
                any_progress = true;
                s.event_remaining -= 1;
                if s.event_remaining == 0 {
                    let (gap, size) = cfg.arrivals.next_event(&mut s.rng);
                    s.next_arrival = now + gap;
                    s.event_remaining = size;
                }
            }
            // The response is drained a whole pass over the sessions from
            // now: the request must not wait that long to leave.
            s.conn.flush();
        }
        if all_sent {
            break;
        }
        if !any_progress {
            // Nothing due and nothing arrived: sleep to the earliest clock.
            let wake = sessions
                .iter()
                .filter(|s| s.sent < cfg.requests_per_session)
                .map(|s| s.next_arrival)
                .min()
                .unwrap_or_else(Instant::now);
            std::thread::sleep(
                wake.saturating_duration_since(Instant::now())
                    .min(Duration::from_millis(1)),
            );
        }
    }

    // Phase 2: drain the tail.
    let deadline = Instant::now() + Duration::from_secs(10);
    while sessions.iter().any(|s| !s.outstanding.is_empty()) && Instant::now() < deadline {
        let mut progressed = false;
        for s in sessions.iter_mut() {
            progressed |= drain_responses(s, &mut report);
        }
        if !progressed {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    report.unanswered = sessions.iter().map(|s| s.outstanding.len() as u64).sum();
    report
}

fn send_one(
    s: &mut SessionSim,
    cfg: &LoadgenConfig,
    sampler: &BlockSampler,
    report: &mut LoadReport,
) {
    let is_write = s.rng.gen_bool(cfg.write_fraction);
    let keys = draw_keys(sampler, &mut s.rng, cfg.keys_per_op, cfg.key_universe);
    let request = match (is_write, keys.len()) {
        (true, 1) => Request::Add {
            key: keys[0],
            delta: 1,
        },
        (true, _) => Request::MultiAdd { keys, delta: 1 },
        (false, 1) => Request::Get { key: keys[0] },
        (false, _) => Request::MultiGet { keys },
    };
    let id = s.conn.send(request);
    s.outstanding.insert(id, Instant::now());
    s.sent += 1;
    report.sent += 1;
}

/// Pull every ready response for one session; returns whether any arrived.
fn drain_responses(s: &mut SessionSim, report: &mut LoadReport) -> bool {
    let mut any = false;
    while let Some(frame) = s.conn.try_recv() {
        any = true;
        let Some(sent_at) = s.outstanding.remove(&frame.id) else {
            report.errors += 1; // response to a request we never made
            continue;
        };
        let nanos = sent_at.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        match frame.response {
            Response::Added(_) => {
                report.acked_writes += 1;
                report.applied_delta += 1;
                report.write_latency.record(nanos);
            }
            Response::MultiAdded { applied } => {
                report.acked_writes += 1;
                report.applied_delta += u64::from(applied);
                report.write_latency.record(nanos);
            }
            Response::Written | Response::MultiWritten { .. } => {
                report.acked_writes += 1;
                report.write_latency.record(nanos);
            }
            Response::Value(_) | Response::Values(_) | Response::Pong => {
                report.acked_reads += 1;
                report.read_latency.record(nanos);
            }
            Response::Busy => report.busy += 1,
            Response::Closed => {}
            Response::Error(_) => report.errors += 1,
        }
    }
    any
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_gaps_track_the_rate() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = ArrivalProcess::Poisson { rate_hz: 1000.0 };
        let n = 20_000;
        let total: Duration = (0..n).map(|_| p.next_event(&mut rng).0).sum();
        let mean_us = total.as_micros() as f64 / n as f64;
        // Mean gap should be ~1000 µs.
        assert!((800.0..1200.0).contains(&mean_us), "mean gap {mean_us} µs");

        let b = ArrivalProcess::Bursty {
            rate_hz: 100.0,
            burst: 8,
        };
        let (_, size) = b.next_event(&mut rng);
        assert_eq!(size, 8);
    }

    #[test]
    fn distinct_key_draws() {
        let sampler = BlockSampler::for_pattern(AccessPattern::Uniform, 1 << 16);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let keys = draw_keys(&sampler, &mut rng, 8, 1 << 16);
            let mut dedup = keys.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), keys.len(), "{keys:?}");
        }
        // Never asks for more distinct keys than the universe holds.
        assert_eq!(draw_keys(&sampler, &mut rng, 8, 3).len(), 3);
    }
}
