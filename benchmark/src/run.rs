//! One run: one workload, one seed, traced or not. Rounds until the time
//! is up, each metric's near-best sample, then (traced only) the per-layer
//! microbenchmarks, the request ledger and the open-loop probe.
//!
//! A round times its throughput phase in slices and its latency phase in
//! chunks of 10 to 30 ms, so a run has hundreds of samples of each metric,
//! and reports the best of them after setting the best hundredth aside
//! ([`MetricDecl::near_best`]). Why not the median: a neighbour on this
//! shared box slows everything by half for seconds at a time. Over sets of
//! ten runs the median sample spread up to 54 %, the tenth percentile up to
//! 25 %, the very best up to 10 %, the near-best up to 9 %.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use tm_harness::json::{self, Json};
use tm_stm::TmEngine;

use crate::ledger::{self, Tracer};
use crate::spec::{median, spec, MetricDecl, Samples};
use crate::svc::{self, Plan};
use crate::workload::{Round, RoundArgs, Scale, Workload, HEAP_WORDS};
use crate::{layers, openloop, procfs, txn};

/// A metric's value is the near-best sample of at least this many rounds.
const MIN_ROUNDS: usize = 3;
/// Share of a traced run's time spent on rounds; the rest goes to the
/// per-layer passes.
const TRACED_ROUND_SHARE: f64 = 0.35;
/// Schedule length of the open-loop probe at full scale, seconds.
const OPEN_LOOP_SECONDS: u64 = 2;

/// Per-layer metrics that only some workloads have; elsewhere they read 0.
const WORKLOAD_SPECIFIC: &[&str] = &[
    "adaptive.birthday_aborts_per_commit",
    "adaptive.final_table_entries",
    "stm.threads2_",
    "backpressure.shed_share",
    "batch.coalescing_factor",
    "ledger.",
    "loadgen.",
    "model.eq8_ratio",
    "server.",
    "transport.",
];

#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// How long to keep starting rounds.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Self-check only: see [`RoundArgs::corrupt`].
    pub corrupt: bool,
}

/// What a run measured.
pub struct RunOutput {
    pub config: RunConfig,
    pub pinned_cpu: Option<u32>,
    pub attempted: u64,
    pub failed: u64,
    /// The declared metrics of this run's mode, in declaration order.
    pub metrics: Vec<(&'static MetricDecl, f64)>,
    /// Every sample (slice, chunk or round) of every round-level metric.
    pub rounds: Samples,
    /// The ledger's spans (traced service runs).
    pub spans: Option<Tracer>,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(decl, _)| decl.name == name)
            .map(|(_, v)| *v)
    }
}

pub fn run(config: RunConfig) -> RunOutput {
    let RunConfig {
        workload,
        seed,
        trace,
        scale,
        ..
    } = config;
    // One core for everything a bound applies to, pinned before anything is
    // spawned: threads inherit the mask.
    let unpinned = procfs::CpuMask::current();
    let pinned_cpu = procfs::pin_to_highest_cpu();
    let unpin = || {
        if let Some(mask) = unpinned {
            mask.apply();
        }
    };

    let budget =
        Duration::from_secs_f64(config.seconds * if trace { TRACED_ROUND_SHARE } else { 1.0 });
    let args = RoundArgs {
        seed,
        scale,
        trace,
        corrupt: config.corrupt,
    };
    let mut rounds = Samples::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut absorb = |round: Round, into: &mut Samples| {
        attempted += round.attempted;
        failed += round.failed;
        into.extend(round.values);
    };
    let t0 = Instant::now();
    let mut done = 0;
    while done < MIN_ROUNDS || t0.elapsed() < budget {
        absorb(workload.round(args), &mut rounds);
        done += 1;
    }
    let declared = spec();
    let declaration = |name: &str| {
        declared
            .metric(name)
            .unwrap_or_else(|| panic!("`{name}` is measured but not declared in BENCHMARK.json"))
    };
    let mut values = Samples::default();
    for (name, samples) in &rounds.0 {
        values.push(name, declaration(name).near_best(samples));
    }

    let mut spans = None;
    if trace {
        values.extend(layers::measure(seed, scale));
        if workload.is_service() {
            let plan = svc::plan(workload);
            let cpu_ns_per_op = values.0["cpu_ns_per_op"][0];
            let (round, tracer) = if plan.tcp {
                ledger_pass(svc::sharded_engine, &plan, cpu_ns_per_op, args)
            } else {
                ledger_pass(svc::tagless_engine, &plan, cpu_ns_per_op, args)
            };
            absorb(round, &mut values);
            spans = Some(tracer);
            if !plan.tcp {
                // The probe's driver spins; give it and the server a CPU each.
                unpin();
                let requests = scale.ops(OPEN_LOOP_SECONDS * 100_000, 1);
                absorb(openloop::probe(&plan, seed, requests), &mut values);
            }
        }
        if workload == Workload::TxnBirthday {
            unpin();
            absorb(txn::two_thread_pass(args), &mut values);
        }
    }
    values.push("process.peak_rss_mb", procfs::peak_rss_kb() as f64 / 1024.0);
    unpin();

    values.0.keys().for_each(|name| {
        declaration(name);
    });
    let metrics = declared
        .metrics(trace)
        .iter()
        .map(|decl| {
            let value = match values.0.get(&decl.name).map(Vec::as_slice) {
                Some([value]) => *value,
                Some(many) => panic!(
                    "`{}` was measured {} times in one run",
                    decl.name,
                    many.len()
                ),
                None if WORKLOAD_SPECIFIC.iter().any(|p| decl.name.starts_with(p)) => 0.0,
                None => panic!(
                    "`{}` is declared but {} never measures it",
                    decl.name,
                    workload.name()
                ),
            };
            assert!(value.is_finite(), "`{}` is not a number", decl.name);
            (decl, value)
        })
        .collect();
    RunOutput {
        config,
        pinned_cpu,
        attempted,
        failed,
        metrics,
        rounds,
        spans,
    }
}

/// The ledger of one service workload: untraced and traced replays of the
/// throughput stream in turn, three of each, medians of both.
fn ledger_pass<E: TmEngine>(
    build_engine: fn() -> E,
    plan: &Plan,
    cpu_ns_per_op: f64,
    args: RoundArgs,
) -> (Round, Tracer) {
    let requests = args.scale.ops(plan.throughput, svc::WINDOW as u64);
    let mut failed = 0u64;
    let mut replay = |trace: bool| {
        let engine = build_engine();
        let replay = ledger::replay(&engine, plan, args.seed, requests, trace);
        failed += u64::from(engine.heap_sum(HEAP_WORDS) != replay.applied_delta);
        replay
    };
    let (mut plain_ns, mut traced_ns, mut inline_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut tracer = None;
    for _ in 0..3 {
        plain_ns.push(replay(false).elapsed_ns as f64);
        let traced = replay(true);
        traced_ns.push(traced.elapsed_ns as f64);
        inline_ns.push(traced.tracer.self_time_ns() as f64 / requests as f64);
        tracer = Some(traced.tracer);
    }
    let inline = median(&inline_ns);
    let round = Round {
        values: vec![
            ("ledger.inline_ns_per_op", inline),
            ("ledger.hop_ns_per_op", cpu_ns_per_op - inline),
            (
                "ledger.trace_overhead_share",
                median(&traced_ns) / median(&plain_ns) - 1.0,
            ),
        ],
        attempted: 6 * (requests + 1),
        failed,
    };
    (round, tracer.expect("three traced replays ran"))
}

/// The one-line result the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(out: &RunOutput) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct(),
        out.attempted.max(1),
        out.failed
    );
    for (i, (decl, value)) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            decl.name, decl.unit
        );
    }
    line.push_str("}}");
    line
}

/// Everything a run knows, for the results file: the result line's fields
/// plus where and how it ran and the samples behind each value.
pub fn detail(out: &RunOutput) -> Json {
    let env = procfs::environment()
        .into_iter()
        .map(|(key, value)| (key, json::s(value)))
        .collect();
    let metrics = out
        .metrics
        .iter()
        .map(|(decl, value)| {
            let rounds = out.rounds.0.get(&decl.name).map_or(&[][..], Vec::as_slice);
            let members = vec![
                ("value", json::num(*value)),
                ("unit", json::s(&decl.unit)),
                (
                    "rounds",
                    Json::Arr(rounds.iter().map(|v| json::num(*v)).collect()),
                ),
            ];
            (decl.name.clone(), json::obj(members))
        })
        .collect();
    json::obj(vec![
        ("workload", json::s(out.config.workload.name())),
        ("seed", json::unum(out.config.seed)),
        ("trace", Json::Bool(out.config.trace)),
        ("seconds", json::num(out.config.seconds)),
        ("env", json::obj(env)),
        (
            "pinned_cpu",
            out.pinned_cpu
                .map_or(Json::Null, |cpu| json::unum(cpu as u64)),
        ),
        ("correct", Json::Bool(out.correct())),
        ("attempted", json::unum(out.attempted)),
        ("failed", json::unum(out.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}
