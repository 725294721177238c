//! The whole benchmark as one command (every workload, both passes, each
//! run its own child process) and the comparison of two of its results.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use tm_harness::json::{self, Json};

use crate::spec::{median, quartiles, spec, MetricDecl};
use crate::workload::Workload;

/// Where results and traces go, relative to the working directory.
pub const RESULTS_DIR: &str = "results";

/// The file a single run leaves its detail in, for the suite to collect.
pub fn run_file(workload: Workload, trace: bool) -> PathBuf {
    Path::new(RESULTS_DIR).join(format!(
        "run-{}-trace{}.json",
        workload.name(),
        u8::from(trace)
    ))
}

pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    let dir = path.parent().expect("results files live in a directory");
    fs::create_dir_all(dir)
        .and_then(|()| fs::write(path, text))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Values of one metric on one workload over a set of runs.
#[derive(Default)]
struct Series {
    unit: String,
    /// One value per run: the near-best of that run's samples.
    runs: Vec<f64>,
    /// Every sample (slice, chunk or round) of every run.
    rounds: Vec<f64>,
}

fn numbers(list: Option<&Json>) -> Vec<f64> {
    list.and_then(Json::as_arr)
        .map(|items| items.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Run every workload `runs` times, untraced and traced, each run a child
/// process of this same binary. Prints every metric and writes
/// `results/benchmark-<seed>.json`. `Ok(false)` when a check failed.
pub fn suite(seed: u64, runs: u32, seconds: u64) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut env = Json::Null;
    let mut pinned_cpu = Json::Null;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let (mut attempted, mut failed) = (0u64, 0u64);
        // In declaration order: end-to-end first, then per-layer.
        let mut series: Vec<(String, Series)> = Vec::new();
        for run in 0..runs {
            for trace in [false, true] {
                eprintln!(
                    "[{}] run {}/{runs}, {} pass",
                    workload.name(),
                    run + 1,
                    if trace { "traced" } else { "untraced" }
                );
                let status = Command::new(&exe)
                    .args(["--workload", workload.name()])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .stdout(Stdio::null())
                    .status()
                    .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
                if !status.success() {
                    return Err(format!(
                        "{} ({status}) on {}",
                        exe.display(),
                        workload.name()
                    ));
                }
                let detail = read_json(&run_file(workload, trace))?;
                attempted += detail.get("attempted").and_then(Json::as_u64).unwrap_or(0);
                failed += detail.get("failed").and_then(Json::as_u64).unwrap_or(0);
                env = detail.get("env").cloned().unwrap_or(Json::Null);
                pinned_cpu = detail.get("pinned_cpu").cloned().unwrap_or(Json::Null);
                for (name, metric) in detail.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
                    let at = series
                        .iter()
                        .position(|(n, _)| n == name)
                        .unwrap_or_else(|| {
                            series.push((name.clone(), Series::default()));
                            series.len() - 1
                        });
                    let entry = &mut series[at].1;
                    entry.unit = metric
                        .get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string();
                    entry
                        .runs
                        .extend(metric.get("value").and_then(Json::as_f64));
                    entry.rounds.extend(numbers(metric.get("rounds")));
                }
            }
        }
        all_correct &= failed == 0;
        println!(
            "== {} (attempted {attempted}, failed {failed}, fail share {})",
            workload.name(),
            failed as f64 / attempted.max(1) as f64
        );
        for (name, s) in &series {
            println!("  {name:<42} {:>16.4} {}", median(&s.runs), s.unit);
        }
        let metrics = series
            .into_iter()
            .map(|(name, s)| {
                let list = |v: &[f64]| Json::Arr(v.iter().map(|x| json::num(*x)).collect());
                let members = vec![
                    ("value", json::num(median(&s.runs))),
                    ("unit", json::s(s.unit)),
                    ("runs", list(&s.runs)),
                    ("rounds", list(&s.rounds)),
                ];
                (name, json::obj(members))
            })
            .collect();
        workloads.push((
            workload.name().to_string(),
            json::obj(vec![
                ("correct", Json::Bool(failed == 0)),
                ("attempted", json::unum(attempted)),
                ("failed", json::unum(failed)),
                ("metrics", Json::Obj(metrics)),
            ]),
        ));
    }
    let summary = json::obj(vec![
        ("seed", json::unum(seed)),
        ("runs", json::unum(runs as u64)),
        ("seconds", json::unum(seconds)),
        ("env", env),
        ("pinned_cpu", pinned_cpu),
        ("workloads", Json::Obj(workloads)),
        // The benchmark measures; a gain is claimed by the change that
        // makes one, against this file.
        ("claim", Json::Null),
    ]);
    let path = Path::new(RESULTS_DIR).join(format!("benchmark-{seed}.json"));
    write_file(&path, &summary.to_pretty())?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

/// How one end-to-end metric on one workload moved between two results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse by more than the metric's bound.
    Regressed,
    /// The spread between identical runs is wider than the bound, so the
    /// two medians cannot be told apart at that resolution.
    Unresolved,
}

/// Median and quartiles of one side of a comparison.
struct Side {
    median: f64,
    q1: f64,
    q3: f64,
}

impl Side {
    fn of(samples: &[f64]) -> Self {
        let (q1, q3) = quartiles(samples);
        Self {
            median: median(samples),
            q1,
            q3,
        }
    }

    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

fn judge(decl: &MetricDecl, a: &Side, b: &Side) -> (f64, Verdict) {
    let bound = decl.bound.expect("end-to-end metrics carry a bound");
    // Positive is worse, whichever way the metric points.
    let change = (b.median - a.median) / a.median.abs();
    let worse_by = if decl.higher_is_better {
        -change
    } else {
        change
    };
    let verdict = if a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// The samples behind one metric: per-run values when there are enough of
/// them for quartiles (or the metric has no others: peak RSS is read once a
/// run), else every sample of the runs there are.
fn samples(result: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let m = result
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?;
    let (runs, rounds) = (numbers(m.get("runs")), numbers(m.get("rounds")));
    Some(if runs.len() >= 4 || rounds.is_empty() {
        runs
    } else {
        rounds
    })
}

/// Print one row per (workload, end-to-end metric) of results `a` and `b`.
/// `Ok(true)` when some row regressed.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (ja, jb) = (read_json(a)?, read_json(b)?);
    println!(
        "{:<14} {:<14} {:>12} {:>25} {:>12} {:>25} {:>9} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A quartiles",
        "B median",
        "B quartiles",
        "worse by",
        "bound"
    );
    let mut counts = [0usize; 3];
    for workload in &spec().workloads {
        for decl in &spec().end_to_end {
            let side = |j: &Json, path: &Path| {
                samples(j, workload, &decl.name)
                    .filter(|s| !s.is_empty())
                    .map(|s| Side::of(&s))
                    .ok_or_else(|| format!("{}: no {} on {workload}", path.display(), decl.name))
            };
            let (sa, sb) = (side(&ja, a)?, side(&jb, b)?);
            let (worse_by, verdict) = judge(decl, &sa, &sb);
            counts[verdict as usize] += 1;
            println!(
                "{:<14} {:<14} {:>12.4} {:>25} {:>12.4} {:>25} {:>+8.1}% {:>5.0}%  {}",
                workload,
                decl.name,
                sa.median,
                format!("[{:.4}, {:.4}]", sa.q1, sa.q3),
                sb.median,
                format!("[{:.4}, {:.4}]", sb.q1, sb.q3),
                worse_by * 100.0 + 0.0,
                decl.bound.unwrap_or(0.0) * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    println!(
        "{} ok, {} regressed, {} unresolved",
        counts[Verdict::Ok as usize],
        counts[Verdict::Regressed as usize],
        counts[Verdict::Unresolved as usize]
    );
    Ok(counts[Verdict::Regressed as usize] > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(higher_is_better: bool) -> MetricDecl {
        MetricDecl {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better,
            bound: Some(0.10),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let tight = |m: f64| Side::of(&[m * 0.99, m, m, m * 1.01]);
        // Lower is better: +20% regresses, -20% and +5% do not.
        assert_eq!(
            judge(&decl(false), &tight(100.0), &tight(120.0)).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&decl(false), &tight(100.0), &tight(80.0)).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&decl(false), &tight(100.0), &tight(105.0)).1,
            Verdict::Ok
        );
        // Higher is better: the same moves, mirrored.
        assert_eq!(
            judge(&decl(true), &tight(100.0), &tight(80.0)).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&decl(true), &tight(100.0), &tight(120.0)).1,
            Verdict::Ok
        );
        // A spread wider than the bound hides any move.
        let wide = Side::of(&[70.0, 90.0, 110.0, 130.0]);
        assert_eq!(
            judge(&decl(false), &wide, &tight(150.0)).1,
            Verdict::Unresolved
        );
    }

    #[test]
    fn samples_prefer_runs_when_there_are_enough() {
        let doc = |runs: &str| {
            json::parse(&format!(
                "{{\"workloads\":{{\"w\":{{\"metrics\":{{\"m\":{{\"runs\":{runs},\"rounds\":[1,2,3]}}}}}}}}}}"
            ))
            .expect("valid")
        };
        assert_eq!(
            samples(&doc("[5,6,7,8]"), "w", "m"),
            Some(vec![5.0, 6.0, 7.0, 8.0])
        );
        assert_eq!(samples(&doc("[5]"), "w", "m"), Some(vec![1.0, 2.0, 3.0]));
        assert_eq!(samples(&doc("[5]"), "w", "absent"), None);
        let no_rounds = json::parse("{\"workloads\":{\"w\":{\"metrics\":{\"m\":{\"runs\":[5]}}}}}");
        assert_eq!(
            samples(&no_rounds.expect("valid"), "w", "m"),
            Some(vec![5.0])
        );
    }
}
