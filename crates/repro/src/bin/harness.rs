//! The tm-harness CLI: run the scenario matrix on real threads and emit a
//! machine-readable report.
//!
//! ```text
//! harness [--fast] [--out results.json] [--trace-out events.jsonl]
//!         [--engine NAME]... [--scenario NAME]... [--read-fraction PCT]
//!         [--threads N] [--shards S] [--table-entries N] [--seed N]
//!         [--warmup-ms N] [--measure-ms N]
//! ```
//!
//! `--trace-out` streams every cell's flight-recorder events as JSONL, one
//! event per line, each tagged with the run key (`engine/scenario/tN`).
//!
//! Exits non-zero when any cell reports an isolation-invariant violation —
//! this is what CI gates on. Wall-clock numbers are compared A/B by
//! `benchmark/run.sh compare`, not here.

use std::path::PathBuf;
use std::process::ExitCode;

use tm_harness::{EngineKind, MatrixConfig, Phase, Scenario};
use tm_repro::{f3, Table};

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: harness [--fast] [--out FILE] [--trace-out FILE]\n\
         \x20              [--engine NAME]... [--scenario NAME]...\n\
         \x20              [--read-fraction PCT] [--threads N] [--shards S]\n\
         \x20              [--table-entries N] [--seed N]\n\
         \x20              [--warmup-ms N] [--measure-ms N]\n\
         --read-fraction runs PCT% of each synthetic scenario's transactions\n\
         as wait-free read-only transactions (run_read); the scenario gains a\n\
         '+roPCT' name suffix. Non-synthetic scenarios are left unchanged.\n\
         --shards sets the tm-shard engines' shard count (their report keys\n\
         gain a '/sS' component when S > 1); unsharded engines ignore it.\n\
         engines:   {}  (or 'all')\n\
         scenarios: {}  (or 'all')",
        EngineKind::all().map(|e| e.name()).join(", "),
        Scenario::standard_matrix()
            .iter()
            .map(|s| s.name.clone())
            .collect::<Vec<_>>()
            .join(", "),
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

fn parse_num<T: std::str::FromStr>(args: &mut std::slice::Iter<'_, String>, flag: &str) -> T {
    args.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a numeric argument")))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = MatrixConfig::standard();
    let mut engines: Vec<EngineKind> = Vec::new();
    let mut scenarios: Vec<Scenario> = Vec::new();
    let mut out: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut read_fraction: Option<u32> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fast" => {
                let fast = MatrixConfig::fast();
                config.warmup = fast.warmup;
                config.measure = fast.measure;
                config.fast = true;
            }
            "--out" => {
                out = Some(PathBuf::from(
                    it.next().unwrap_or_else(|| usage("--out needs a path")),
                ));
            }
            "--trace-out" => {
                trace_out = Some(PathBuf::from(
                    it.next()
                        .unwrap_or_else(|| usage("--trace-out needs a path")),
                ));
            }
            "--engine" => {
                let name = it.next().unwrap_or_else(|| usage("--engine needs a name"));
                if name.eq_ignore_ascii_case("all") {
                    engines = EngineKind::all().to_vec();
                } else {
                    // Case-insensitive, and a typo lists every valid name.
                    engines.push(EngineKind::parse_or_describe(name).unwrap_or_else(|e| usage(&e)));
                }
            }
            "--scenario" => {
                let name = it
                    .next()
                    .unwrap_or_else(|| usage("--scenario needs a name"));
                if name.eq_ignore_ascii_case("all") {
                    scenarios = Scenario::standard_matrix();
                } else {
                    // Case-insensitive, and a typo lists every valid name.
                    scenarios
                        .push(Scenario::by_name_or_describe(name).unwrap_or_else(|e| usage(&e)));
                }
            }
            "--read-fraction" => read_fraction = Some(parse_num(&mut it, "--read-fraction")),
            "--threads" => config.threads = parse_num(&mut it, "--threads"),
            "--shards" => config.shards = parse_num(&mut it, "--shards"),
            "--table-entries" => config.table_entries = parse_num(&mut it, "--table-entries"),
            "--seed" => config.seed = parse_num(&mut it, "--seed"),
            "--warmup-ms" => config.warmup = Phase::DurationMs(parse_num(&mut it, "--warmup-ms")),
            "--measure-ms" => {
                config.measure = Phase::DurationMs(parse_num(&mut it, "--measure-ms"))
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument: {other}")),
        }
    }
    if !engines.is_empty() {
        config.engines = engines;
    }
    if !scenarios.is_empty() {
        config.scenarios = scenarios;
    }
    if let Some(pct) = read_fraction {
        // Synthetic scenarios gain the read-only axis; trace replays and
        // structure workloads have no read-only variant and run unchanged.
        config.scenarios = config
            .scenarios
            .iter()
            .map(|s| s.with_read_fraction(pct).unwrap_or_else(|| s.clone()))
            .collect();
    }

    let mut trace = match &trace_out {
        Some(path) => {
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("error: creating {}: {e}", dir.display());
                    return ExitCode::FAILURE;
                }
            }
            match std::fs::File::create(path) {
                Ok(f) => Some(std::io::BufWriter::new(f)),
                Err(e) => {
                    eprintln!("error: creating {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    let mut traced_events = 0u64;
    let report = tm_harness::run_matrix(&config, |i, total, r, telemetry| {
        eprintln!(
            "[{}/{}] {}/{}: {} commits, {} aborts, {} txn/s",
            i + 1,
            total,
            r.engine,
            r.scenario,
            r.commits,
            r.aborts,
            f3(r.throughput_txn_s),
        );
        if let Some(w) = trace.as_mut() {
            use std::io::Write as _;
            for event in &telemetry.events {
                let _ = writeln!(w, "{{\"run\":\"{}\",{}}}", r.key(), event.fields_json());
            }
            traced_events += telemetry.events.len() as u64;
        }
    });
    if let Some(mut w) = trace {
        use std::io::Write as _;
        if let Err(e) = w.flush() {
            eprintln!("error: writing trace: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "wrote {} ({traced_events} events)",
            trace_out.as_ref().expect("trace implies path").display(),
        );
    }

    let mut table = Table::new(
        format!(
            "tm-harness matrix (threads = {}, table = {} entries, measure = {})",
            config.threads,
            config.table_entries,
            config.measure.describe(),
        ),
        &[
            "engine",
            "scenario",
            "ktxn/s",
            "p50/p95/p99 us",
            "aborts/commit",
            "false-conf/commit",
            "violations",
        ],
    );
    let us = |ns: Option<u64>| {
        ns.map(|ns| format!("{:.1}", ns as f64 / 1e3))
            .unwrap_or_else(|| "-".into())
    };
    for r in &report.runs {
        table.row(&[
            r.engine.clone(),
            r.scenario.clone(),
            f3(r.throughput_txn_s / 1e3),
            format!(
                "{}/{}/{}",
                us(r.latency_p50_ns),
                us(r.latency_p95_ns),
                us(r.latency_p99_ns)
            ),
            f3(r.aborts_per_commit),
            r.false_conflicts_per_commit
                .map(f3)
                .unwrap_or_else(|| "-".into()),
            r.invariant_violations.to_string(),
        ]);
    }
    table.print();

    let violations: u64 = report.runs.iter().map(|r| r.invariant_violations).sum();
    if violations > 0 {
        eprintln!("error: {violations} isolation invariant violation(s) detected");
        return ExitCode::FAILURE;
    }
    if let Some(path) = out {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("error: creating {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
        if let Err(e) = std::fs::write(&path, report.to_json_string()) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "wrote {} ({} runs, {} engines, {} scenarios)",
            path.display(),
            report.runs.len(),
            report.engines().len(),
            report.scenarios().len(),
        );
    }
    ExitCode::SUCCESS
}
