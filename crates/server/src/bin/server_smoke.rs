//! CI smoke for the service layer: four phases over the channel
//! transport, each gated on hard invariants.
//!
//! * **Phase A — unbatched baseline**: a write-heavy fleet against
//!   `BatchPolicy::unbatched()`. Gate: conservation (heap sum equals
//!   acknowledged increments) and zero unanswered requests.
//! * **Phase B — group commit**: the same fleet against
//!   `BatchPolicy::grouped()`. Gates: conservation, zero unanswered, a
//!   measured coalescing factor (ops per committed transaction) above a
//!   conservative floor, and batched throughput no worse than a
//!   conservative fraction of unbatched (the floors and their rationale
//!   live in `benches/README.md`).
//! * **Phase C — overload shedding**: a deliberately tiny admission budget
//!   under a hot burst. Gates: the server sheds (`busy > 0`), still
//!   answers everything (zero unanswered — shed requests get `Busy`, not
//!   silence), and conservation still holds (a shed write applied
//!   nothing).
//! * **Phase D — lone writes**: 1000 `Add`s, one at a time, on an idle
//!   grouped server. Gate: the median round trip is under the policy's
//!   `latency_budget` — a write with nothing behind it commits when the
//!   worker's queue runs empty, not when a budget runs out. (Under the
//!   timed flush every round trip *was* the budget.)
//!
//! Usage: `server_smoke [--drivers N] [--sessions N] [--requests N]`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tm_harness::AccessPattern;
use tm_server::loadgen::{run_loadgen, ArrivalProcess, LoadReport, LoadgenConfig};
use tm_server::protocol::{Request, Response};
use tm_server::server::{start, ServerConfig, ServerStatsSnapshot};
use tm_server::{AdmissionPolicy, BatchPolicy};
use tm_stm::{HashKind, StmBuilder, TmEngine};

/// Keys the store exposes; large enough that true conflicts are rare and
/// conservation checks cover a meaningful footprint.
const KEY_UNIVERSE: u64 = 1 << 16;

/// The coalescing factor phase B must reach (its fleet can fold up to 32
/// ops per transaction; 2.0 asserts grouping happens at all without
/// betting on timing).
const MIN_COALESCING: f64 = 2.0;

/// Batched throughput must be at least this fraction of unbatched (see
/// `benches/README.md` for the measured headroom behind the floor).
const MIN_THROUGHPUT_RATIO: f64 = 0.5;

struct Args {
    drivers: u32,
    sessions: u32,
    requests: u32,
}

fn parse_args() -> Args {
    let mut args = Args {
        drivers: 8,
        sessions: 4096,
        requests: 4,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut grab = |name: &str| -> u32 {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} needs a number"))
        };
        match flag.as_str() {
            "--drivers" => args.drivers = grab("--drivers"),
            "--sessions" => args.sessions = grab("--sessions"),
            "--requests" => args.requests = grab("--requests"),
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn fleet(args: &Args, arrivals: ArrivalProcess, write_fraction: f64) -> LoadgenConfig {
    LoadgenConfig {
        sessions: args.sessions,
        driver_threads: args.drivers,
        requests_per_session: args.requests,
        arrivals,
        write_fraction,
        keys_per_op: 4,
        pattern: AccessPattern::Uniform,
        key_universe: KEY_UNIVERSE,
        pipeline_window: 4,
        seed: 0x5e55,
    }
}

/// Round trips phase D times.
const LONE_WRITES: u64 = 1000;

fn engine() -> Arc<impl TmEngine + Send + 'static> {
    Arc::new(
        StmBuilder::new()
            .heap_words(KEY_UNIVERSE as usize)
            .table_entries(1 << 14)
            .hash(HashKind::Multiplicative)
            .build_tagless(),
    )
}

/// One phase: fresh engine, fresh server, one fleet run.
fn run_phase(
    name: &str,
    server_cfg: ServerConfig,
    fleet_cfg: &LoadgenConfig,
) -> (LoadReport, ServerStatsSnapshot, bool) {
    let engine = engine();
    let server = start(Arc::clone(&engine), server_cfg);
    let report = run_loadgen(&server, fleet_cfg);
    let stats = server.stats();
    server.shutdown();
    let conserved = report.conservation_holds(&*engine, KEY_UNIVERSE);
    println!("== {name} ==");
    println!("{}", report.summary());
    println!(
        "server: groups {}  ops {}  coalescing {:.2}  busy {}  heap sum {}  conserved {}",
        stats.groups_committed,
        stats.ops_committed,
        stats.coalescing_factor(),
        stats.busy,
        engine.heap_sum(KEY_UNIVERSE as usize),
        conserved,
    );
    println!();
    (report, stats, conserved)
}

/// Phase D: `LONE_WRITES` one-at-a-time `Add`s on an idle server; the
/// median round trip, or what went wrong.
fn lone_write_p50(server_cfg: ServerConfig) -> Result<Duration, String> {
    let engine = engine();
    let server = start(Arc::clone(&engine), server_cfg);
    let mut conn = server.connect();
    let mut round_trips = Vec::with_capacity(LONE_WRITES as usize);
    for key in 0..LONE_WRITES {
        let sent = Instant::now();
        match conn.request(Request::Add { key, delta: 1 }, Duration::from_secs(5)) {
            Some(frame) if frame.response == Response::Added(1) => round_trips.push(sent.elapsed()),
            other => return Err(format!("Add {key} answered {other:?}")),
        }
    }
    let stats = server.shutdown();
    let heap_sum = engine.heap_sum(KEY_UNIVERSE as usize);
    if heap_sum != LONE_WRITES {
        return Err(format!(
            "heap sum {heap_sum} after {LONE_WRITES} acked Adds"
        ));
    }
    round_trips.sort_unstable();
    let p50 = round_trips[round_trips.len() / 2];
    println!("== phase D: lone writes ==");
    println!(
        "round trips {}  p50 {p50:?}  p99 {:?}  max {:?}  groups {}",
        round_trips.len(),
        round_trips[round_trips.len() * 99 / 100],
        round_trips[round_trips.len() - 1],
        stats.groups_committed,
    );
    println!();
    Ok(p50)
}

fn main() {
    let args = parse_args();
    let mut failures: Vec<String> = Vec::new();
    let mut gate = |ok: bool, msg: String| {
        if !ok {
            failures.push(msg);
        }
    };

    // Phase A: unbatched baseline.
    let mut cfg = ServerConfig::new(KEY_UNIVERSE);
    cfg.batch = BatchPolicy::unbatched();
    cfg.admission = AdmissionPolicy::unlimited();
    let arrivals = ArrivalProcess::Poisson { rate_hz: 400.0 };
    let fleet_ab = fleet(&args, arrivals, 1.0);
    let (a_report, _a_stats, a_conserved) = run_phase("phase A: unbatched", cfg, &fleet_ab);
    gate(a_conserved, "phase A: conservation violated".into());
    gate(
        a_report.unanswered == 0 && a_report.errors == 0,
        format!(
            "phase A: {} unanswered, {} errors",
            a_report.unanswered, a_report.errors
        ),
    );

    // Phase B: group commit, same fleet.
    let mut cfg = ServerConfig::new(KEY_UNIVERSE);
    cfg.batch = BatchPolicy {
        max_ops: 32,
        max_footprint: 128,
        latency_budget: Duration::from_micros(500),
    };
    cfg.admission = AdmissionPolicy::unlimited();
    let (b_report, b_stats, b_conserved) = run_phase("phase B: group commit", cfg, &fleet_ab);
    gate(b_conserved, "phase B: conservation violated".into());
    gate(
        b_report.unanswered == 0 && b_report.errors == 0,
        format!(
            "phase B: {} unanswered, {} errors",
            b_report.unanswered, b_report.errors
        ),
    );
    gate(
        b_stats.coalescing_factor() >= MIN_COALESCING,
        format!(
            "phase B: coalescing factor {:.2} below floor {MIN_COALESCING}",
            b_stats.coalescing_factor()
        ),
    );
    let ratio = b_report.throughput_hz() / a_report.throughput_hz().max(1e-9);
    println!("batched/unbatched throughput ratio: {ratio:.2}");
    gate(
        ratio >= MIN_THROUGHPUT_RATIO,
        format!("throughput ratio {ratio:.2} below floor {MIN_THROUGHPUT_RATIO}"),
    );

    // Phase C: overload against a tiny admission budget.
    let mut cfg = ServerConfig::new(KEY_UNIVERSE);
    cfg.batch = BatchPolicy::grouped();
    cfg.admission = AdmissionPolicy {
        base_inflight: 64,
        min_inflight: 16,
        slope: 4.0,
    };
    let overload = ArrivalProcess::Bursty {
        rate_hz: 500.0,
        burst: 4,
    };
    let mut fleet_c = fleet(&args, overload, 1.0);
    fleet_c.sessions = args.sessions.min(512);
    fleet_c.pipeline_window = 8;
    let (c_report, _c_stats, c_conserved) = run_phase("phase C: overload shedding", cfg, &fleet_c);
    gate(
        c_conserved,
        "phase C: conservation violated (a Busy write applied?)".into(),
    );
    gate(c_report.busy > 0, "phase C: overload never shed".into());
    gate(
        c_report.unanswered == 0,
        format!(
            "phase C: {} unanswered (shed must answer Busy)",
            c_report.unanswered
        ),
    );

    // Phase D: lone writes on an idle grouped server.
    let mut cfg = ServerConfig::new(KEY_UNIVERSE);
    cfg.batch = BatchPolicy::grouped();
    let budget = cfg.batch.latency_budget;
    match lone_write_p50(cfg) {
        Ok(p50) => gate(
            p50 < budget,
            format!("phase D: lone-write p50 {p50:?} not under the {budget:?} latency budget"),
        ),
        Err(what) => gate(false, format!("phase D: {what}")),
    }

    if failures.is_empty() {
        println!("server smoke: all gates passed");
    } else {
        for f in &failures {
            eprintln!("GATE FAILED: {f}");
        }
        std::process::exit(1);
    }
}
