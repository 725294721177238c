//! The benchmark's declaration (`BENCHMARK.json`, embedded at build time)
//! and the statistics every report uses.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use tm_harness::json::{self, Json};

/// One declared metric.
#[derive(Clone, Debug)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Debug)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
    pub run_seconds: u64,
}

impl Spec {
    /// The declaration of `name`, end-to-end or per-layer.
    pub fn metric(&self, name: &str) -> Option<&MetricDecl> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }

    /// The metrics a run prints: end-to-end untraced, per-layer traced.
    pub fn metrics(&self, trace: bool) -> &[MetricDecl] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

fn metric_list(doc: &Json, key: &str) -> Vec<MetricDecl> {
    let field = |m: &Json, k: &str| {
        m.get(k)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: a {key} metric lacks `{k}`"))
            .to_string()
    };
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` is not a list"))
        .iter()
        .map(|m| MetricDecl {
            name: field(m, "name"),
            unit: field(m, "unit"),
            higher_is_better: field(m, "better") == "higher",
            bound: m.get("bound").and_then(Json::as_f64),
        })
        .collect()
}

/// The declaration this binary was built against.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        Spec {
            workloads: doc
                .get("workloads")
                .and_then(Json::as_arr)
                .expect("BENCHMARK.json: `workloads` is a list")
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Json::as_str)
                        .expect("BENCHMARK.json: a workload lacks `name`")
                        .to_string()
                })
                .collect(),
            end_to_end: metric_list(&doc, "end_to_end"),
            per_layer: metric_list(&doc, "per_layer"),
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_u64)
                .expect("BENCHMARK.json: `run_seconds` is a whole number"),
        }
    })
}

/// Whether `name` is a name the benchmark's contract accepts: a letter or
/// digit first, then at most 63 more of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

/// Values of named metrics, one list entry per round (or per run).
#[derive(Clone, Debug, Default)]
pub struct Samples(pub BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_string()).or_default().push(value);
    }

    pub fn extend(&mut self, values: impl IntoIterator<Item = (&'static str, f64)>) {
        for (name, value) in values {
            self.push(name, value);
        }
    }
}

/// The share of a run's samples set aside as luck before the best is taken.
const LUCKY_SHARE: f64 = 0.01;

impl MetricDecl {
    /// The value a run reports for its samples of this metric: the best one,
    /// by the metric's direction, after the best hundredth are set aside; 0
    /// when empty. With up to a hundred samples that is the best one.
    ///
    /// Every sample of a seed measures identical work, and a neighbour on
    /// this shared box can only make one worse, for seconds at a time, so
    /// the better end of a run's samples is the program and the rest is the
    /// neighbours. The very best ones are the scheduler's rare favours (one
    /// `svc-write` round in ten runs a tenth faster than the rest).
    pub fn near_best(&self, values: &[f64]) -> f64 {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        if self.higher_is_better {
            v.reverse();
        }
        let rank = (LUCKY_SHARE * v.len().saturating_sub(1) as f64) as usize;
        v.get(rank).copied().unwrap_or(0.0)
    }
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// computes them (the "exclusive" method). Fewer than two values have no
/// spread: both quartiles are the value itself.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The `q`-quantile (0..=1) of latencies in nanoseconds, as microseconds.
/// Sorts `ns` in place; 0 when empty.
pub fn percentile_us(ns: &mut [u64], q: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    ns.sort_unstable();
    let rank = ((ns.len() as f64 * q).ceil() as usize).clamp(1, ns.len());
    ns[rank - 1] as f64 / 1e3
}

/// Median and 99th percentile, in microseconds, of each `chunk` consecutive
/// latencies of `ns` (of all of them when there are fewer). A shorter tail is
/// left out: its percentiles would rest on too few samples.
pub fn chunk_percentiles_us(ns: &mut [u64], chunk: usize) -> Vec<(f64, f64)> {
    let chunk = chunk.min(ns.len()).max(1);
    ns.chunks_exact_mut(chunk)
        .map(|c| (percentile_us(c, 0.50), percentile_us(c, 0.99)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declaration_is_well_formed() {
        let s = spec();
        assert_eq!(s.workloads.len(), 5);
        let mut names: Vec<&str> = s
            .workloads
            .iter()
            .map(String::as_str)
            .chain(s.end_to_end.iter().map(|m| m.name.as_str()))
            .chain(s.per_layer.iter().map(|m| m.name.as_str()))
            .collect();
        assert!(names.iter().all(|name| valid_name(name)));
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b"));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        for m in &s.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(s
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn near_best_follows_the_direction() {
        let s = spec();
        let ops = s.metric("ops_per_s").expect("declared");
        let cpu = s.metric("cpu_ns_per_op").expect("declared");
        // Up to a hundred samples: the best one.
        assert_eq!(ops.near_best(&[2.0, 3.0, 1.0]), 3.0);
        assert_eq!(cpu.near_best(&[2.0, 3.0, 1.0]), 1.0);
        assert_eq!(cpu.near_best(&[]), 0.0);
        // 501 samples: the five best are luck.
        let v: Vec<f64> = (0..=500).map(f64::from).collect();
        assert_eq!(cpu.near_best(&v), 5.0);
        assert_eq!(ops.near_best(&v), 495.0);
        assert!(s.metric("stm.update_txn_ns").is_some() && s.metric("nope").is_none());
    }

    #[test]
    fn percentiles_pick_the_nearest_rank() {
        let mut ns: Vec<u64> = (1..=100).map(|i| i * 1000).collect();
        assert_eq!(percentile_us(&mut ns, 0.50), 50.0);
        assert_eq!(percentile_us(&mut ns, 0.99), 99.0);
        assert_eq!(percentile_us(&mut [], 0.5), 0.0);
    }

    #[test]
    fn chunks_are_whole_or_left_out() {
        let mut ns: Vec<u64> = (1..=250).map(|i| i * 1000).collect();
        assert_eq!(
            chunk_percentiles_us(&mut ns, 100),
            [(50.0, 99.0), (150.0, 199.0)]
        );
        assert_eq!(chunk_percentiles_us(&mut ns[..10], 100), [(5.0, 10.0)]);
        assert!(chunk_percentiles_us(&mut [], 100).is_empty());
    }
}
