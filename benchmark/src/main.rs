//! `tm-benchmark`: the repo benchmark `BENCHMARK.json` declares. See
//! `benchmark/README.md`.
//!
//! ```text
//! tm-benchmark --workload W --seed N --seconds T --trace 0|1   one run
//! tm-benchmark --seed N [--runs K] [--seconds T]                every workload, both passes
//! tm-benchmark compare A.json B.json                            two results, row by row
//! tm-benchmark --check                                          self-check at 1/100 size
//! ```

mod layers;
mod ledger;
mod openloop;
mod procfs;
mod report;
mod run;
mod spec;
mod svc;
mod txn;
mod workload;

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

use run::{RunConfig, RunOutput};
use workload::{Scale, Workload};

/// Counts allocator calls (the per-layer contracts are of the form "zero
/// allocations per transaction") and live heap bytes with their peak (the
/// end-to-end memory metric). Always installed, so traced and untraced runs
/// pay the same few relaxed atomic operations per allocation.
struct CountingAlloc;

pub static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

/// Forget the peak so far: the next [`peak_heap_bytes`] is the most that was
/// live at one time from here on, what is live now included.
pub fn reset_peak_heap() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

pub fn peak_heap_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

// SAFETY: delegates verbatim to `System`; the counters are relaxed atomics
// that no allocation depends on.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        grew(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: tm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
       tm-benchmark --seed <n> [--runs <k>] [--seconds <s>]
       tm-benchmark compare <a.json> <b.json>
       tm-benchmark --check";

/// The value following `flag`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    args.get(at + 1)
        .and_then(|v| v.parse().ok())
        .map(Some)
        .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args else {
            return Err(USAGE.to_string());
        };
        let regressed = report::compare(Path::new(a), Path::new(b))?;
        return Ok(ExitCode::from(u8::from(regressed)));
    }
    if args.iter().any(|a| a == "--check") {
        check()?;
        println!("self-check passed");
        return Ok(ExitCode::SUCCESS);
    }
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: build with --release".to_string());
    }
    let seed: u64 = flag(args, "--seed")?.ok_or(USAGE)?;
    let seconds: u64 = flag(args, "--seconds")?.unwrap_or(spec::spec().run_seconds);
    let Some(name) = flag::<String>(args, "--workload")? else {
        let runs = flag(args, "--runs")?.unwrap_or(1);
        let correct = report::suite(seed, runs, seconds)?;
        return Ok(ExitCode::from(u8::from(!correct)));
    };
    let workload =
        Workload::by_name(&name).ok_or_else(|| format!("unknown workload `{name}`\n{USAGE}"))?;
    let trace = match flag::<u8>(args, "--trace")? {
        Some(0) | None => false,
        Some(1) => true,
        Some(_) => return Err(format!("--trace takes 0 or 1\n{USAGE}")),
    };
    let out = run::run(RunConfig {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
        scale: Scale(1),
        corrupt: false,
    });
    report::write_file(
        &report::run_file(workload, trace),
        &run::detail(&out).to_pretty(),
    )?;
    if let Some(tracer) = &out.spans {
        let path = Path::new(report::RESULTS_DIR).join(format!("trace-{name}.jsonl"));
        report::write_file(&path, &tracer.to_jsonl())?;
    }
    for (decl, value) in &out.metrics {
        println!("{:<42} {value:>16.4} {}", decl.name, decl.unit);
    }
    println!("{}", run::result_line(&out));
    Ok(ExitCode::SUCCESS)
}

/// Counts that no scheduler, clock or neighbour can move: equal in every
/// round of a txn workload's run, and in every run of a seed.
const EXACT_PER_ROUND: &[&str] = &["ownership.grants_per_commit", "stm.aborts_per_commit"];
const EXACT_PER_RUN: &[&str] = &[
    "ownership.lockstep_conflicts_per_commit",
    "stm.allocs_per_txn",
    "protocol.allocs_per_roundtrip",
];

/// Every workload, both passes, at 1/100 of the op counts, in this
/// process. Shows that each declared metric is measured exactly once per
/// workload, that the exact counts are exact, and that the conservation
/// check fires when the expected total is falsified.
fn check() -> Result<(), String> {
    let quick = |workload, trace, corrupt| {
        run::run(RunConfig {
            workload,
            seed: 1,
            seconds: 0.0,
            trace,
            scale: Scale(100),
            corrupt,
        })
    };
    let ensure = |ok: bool, what: String| if ok { Ok(()) } else { Err(what) };
    let declared = spec::spec();
    for decl in declared.end_to_end.iter().chain(&declared.per_layer) {
        ensure(
            spec::valid_name(&decl.name),
            format!("`{}` is not a valid metric name", decl.name),
        )?;
    }
    for workload in Workload::ALL {
        let name = workload.name();
        // `run` itself refuses a declared metric it did not measure, or
        // measured twice; here, that what it printed is what is declared.
        let passes: Vec<RunOutput> = [false, true]
            .into_iter()
            .map(|trace| quick(workload, trace, false))
            .collect();
        for (out, trace) in passes.iter().zip([false, true]) {
            let printed: Vec<&str> = out.metrics.iter().map(|(d, _)| d.name.as_str()).collect();
            let expected: Vec<&str> = declared
                .metrics(trace)
                .iter()
                .map(|d| d.name.as_str())
                .collect();
            ensure(printed == expected, format!("{name}: printed {printed:?}"))?;
            ensure(
                out.metrics.iter().all(|(d, _)| !d.unit.is_empty()),
                format!("{name}: a metric has no unit"),
            )?;
            ensure(
                out.correct(),
                format!("{name}: {} of {} failed", out.failed, out.attempted),
            )?;
            ensure(out.attempted >= 1, format!("{name}: nothing attempted"))?;
        }
        let traced = &passes[1];
        // How a server's groups form depends on when its flush timer fires.
        if !workload.is_service() {
            for exact in EXACT_PER_ROUND {
                let rounds = &traced.rounds.0[*exact];
                ensure(
                    rounds.windows(2).all(|w| w[0] == w[1]),
                    format!("{name}: {exact} differs between rounds: {rounds:?}"),
                )?;
            }
        }
        let again = quick(workload, true, false);
        for exact in EXACT_PER_RUN {
            ensure(
                traced.value(exact) == again.value(exact),
                format!("{name}: {exact} differs between runs of one seed"),
            )?;
        }
        ensure(
            traced.value("stm.allocs_per_txn") == Some(0.0),
            format!("{name}: a steady-state transaction allocated"),
        )?;
        if workload.is_service() {
            let (inline, hop, cpu) = (
                traced.value("ledger.inline_ns_per_op").unwrap_or(0.0),
                traced.value("ledger.hop_ns_per_op").unwrap_or(0.0),
                declared
                    .metric("cpu_ns_per_op")
                    .expect("declared")
                    .near_best(&traced.rounds.0["cpu_ns_per_op"]),
            );
            ensure(
                (inline + hop - cpu).abs() <= 1e-6 * cpu,
                format!("{name}: inline {inline} + hop {hop} != cpu {cpu}"),
            )?;
            ensure(traced.spans.is_some(), format!("{name}: no spans recorded"))?;
        }
        let corrupted = quick(workload, false, true);
        ensure(
            corrupted.failed > 0 && !corrupted.correct(),
            format!("{name}: a falsified increment total went unnoticed"),
        )?;
        eprintln!("[check] {name}: ok");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn self_check() {
        super::check().expect("self-check");
    }
}
