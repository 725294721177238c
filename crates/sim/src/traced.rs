//! Trace-driven alias-likelihood measurement (paper §2.2, Figure 2).
//!
//! The experiment: populate an `N`-entry tagless ownership table with `C`
//! concurrent block streams (true conflicts already filtered out) until each
//! stream has *written* `W` cache blocks; record whether any alias-induced
//! conflict happened first. Repeating over many trace samples yields the
//! alias likelihood as a function of `W`, `N`, and `C`.
//!
//! Streams come from [`tm_traces::filter`] (real-trace structure, including
//! the sequential runs that distinguish Figure 2 from the purely random
//! Figure 4). Samples advance through the streams; when a stream is
//! exhausted it wraps around with a per-wrap block-address salt so later
//! samples do not replay byte-identical footprints.

use tm_ownership::{Access, ConcurrentTaglessTable, HashKind, TableConfig};
use tm_traces::filter::BlockAccess;

use crate::table::SimTable;

/// Parameters of one Figure 2 data point.
#[derive(Clone, Debug)]
pub struct TracedAliasParams {
    /// Concurrency `C`: how many streams populate the table together.
    pub concurrency: usize,
    /// Target distinct written blocks per stream `W`.
    pub write_footprint: usize,
    /// Ownership-table entries `N` (power of two).
    pub table_entries: usize,
    /// Trace samples to evaluate (the paper runs ~10 000).
    pub samples: usize,
    /// Block-to-entry hash (the paper's observations about consecutive
    /// addresses make this worth sweeping).
    pub hash: HashKind,
}

impl Default for TracedAliasParams {
    fn default() -> Self {
        Self {
            concurrency: 2,
            write_footprint: 20,
            table_entries: 16_384,
            samples: 2_000,
            hash: HashKind::Multiplicative,
        }
    }
}

/// Outcome of the sampled experiment at one data point.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TracedAliasResult {
    /// Fraction of samples where an alias occurred before every stream
    /// finished its `W` writes.
    pub alias_likelihood: f64,
    /// Samples evaluated.
    pub samples: usize,
    /// Samples that aliased.
    pub aliased_samples: usize,
}

/// Cursor over a stream with wrap-around salting.
struct Cursor<'a> {
    stream: &'a [BlockAccess],
    pos: usize,
    wraps: u64,
}

impl<'a> Cursor<'a> {
    fn next(&mut self) -> BlockAccess {
        if self.pos >= self.stream.len() {
            self.pos = 0;
            self.wraps += 1;
        }
        let mut a = self.stream[self.pos];
        self.pos += 1;
        // Salt the high address bits per wrap: keeps the run structure but
        // relocates the footprint, like sampling a different trace region.
        a.block ^= self.wraps << 44;
        a
    }
}

/// Run the experiment over filtered `streams` (must contain at least
/// `params.concurrency` non-empty streams).
pub fn alias_likelihood(
    streams: &[Vec<BlockAccess>],
    params: &TracedAliasParams,
) -> TracedAliasResult {
    assert!(
        streams.len() >= params.concurrency,
        "need {} streams, got {}",
        params.concurrency,
        streams.len()
    );
    assert!(params.concurrency >= 2, "need at least two streams");
    assert!(params.write_footprint >= 1, "need a positive write target");
    assert!(
        streams[..params.concurrency].iter().all(|s| !s.is_empty()),
        "streams must be non-empty"
    );

    let cfg = TableConfig::new(params.table_entries).with_hash(params.hash);
    let mut table = SimTable::new(ConcurrentTaglessTable::new(cfg));

    let mut cursors: Vec<Cursor<'_>> = streams[..params.concurrency]
        .iter()
        .map(|s| Cursor {
            stream: s,
            pos: 0,
            wraps: 0,
        })
        .collect();

    let mut aliased = 0usize;
    for _ in 0..params.samples {
        if run_sample(&mut table, &mut cursors, params) {
            aliased += 1;
        }
        for t in 0..params.concurrency {
            table.release_all(t as u32);
        }
    }

    TracedAliasResult {
        alias_likelihood: aliased as f64 / params.samples as f64,
        samples: params.samples,
        aliased_samples: aliased,
    }
}

/// One sample: consume streams round-robin until every stream wrote `W`
/// distinct blocks or a conflict happened. Returns whether it conflicted.
fn run_sample(
    table: &mut SimTable<ConcurrentTaglessTable>,
    cursors: &mut [Cursor<'_>],
    params: &TracedAliasParams,
) -> bool {
    let c = params.concurrency;
    let mut writes = vec![0usize; c];
    let mut done = 0usize;

    // Distinct-write tracking: the table's AlreadyHeld covers entry-level
    // duplication, but W counts distinct *blocks*; track per-sample.
    let mut seen_writes: Vec<std::collections::HashSet<u64>> =
        (0..c).map(|_| std::collections::HashSet::new()).collect();

    while done < c {
        for t in 0..c {
            if writes[t] >= params.write_footprint {
                continue;
            }
            let a = cursors[t].next();
            let access = if a.is_write {
                Access::Write
            } else {
                Access::Read
            };
            if !table.acquire(t as u32, a.block, access).is_ok() {
                return true;
            }
            if a.is_write && seen_writes[t].insert(a.block) {
                writes[t] += 1;
                if writes[t] == params.write_footprint {
                    done += 1;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_traces::filter::{remove_true_conflicts, to_block_stream};
    use tm_traces::jbb::{generate, JbbParams};

    fn streams(accesses: usize) -> Vec<Vec<BlockAccess>> {
        let params = JbbParams {
            accesses_per_thread: accesses,
            ..Default::default()
        };
        let traces = generate(&params);
        let raw: Vec<_> = traces.iter().map(|t| to_block_stream(t, 6)).collect();
        remove_true_conflicts(&raw)
    }

    #[test]
    fn likelihood_grows_with_footprint() {
        let s = streams(60_000);
        let at = |w: usize| {
            alias_likelihood(
                &s,
                &TracedAliasParams {
                    write_footprint: w,
                    table_entries: 16_384,
                    samples: 400,
                    ..Default::default()
                },
            )
            .alias_likelihood
        };
        let (l5, l20, l80) = (at(5), at(20), at(80));
        assert!(l5 < l20 && l20 < l80, "{l5} {l20} {l80}");
        // Superlinear: quadrupling W should much more than double the rate
        // until saturation.
        if l20 < 0.5 {
            assert!(l20 > 2.0 * l5.max(0.002), "{l5} -> {l20}");
        }
    }

    #[test]
    fn likelihood_falls_with_table_size() {
        let s = streams(60_000);
        let at = |n: usize| {
            alias_likelihood(
                &s,
                &TracedAliasParams {
                    write_footprint: 20,
                    table_entries: n,
                    samples: 400,
                    ..Default::default()
                },
            )
            .alias_likelihood
        };
        let (small, large) = (at(4_096), at(65_536));
        assert!(small > large, "{small} vs {large}");
    }

    #[test]
    fn likelihood_grows_with_concurrency() {
        let s = streams(60_000);
        let at = |c: usize| {
            alias_likelihood(
                &s,
                &TracedAliasParams {
                    concurrency: c,
                    write_footprint: 20,
                    table_entries: 65_536,
                    samples: 400,
                    ..Default::default()
                },
            )
            .alias_likelihood
        };
        let (c2, c4) = (at(2), at(4));
        assert!(c4 > 2.0 * c2.max(0.002), "c2={c2} c4={c4}");
    }

    #[test]
    fn deterministic() {
        let s = streams(30_000);
        let p = TracedAliasParams {
            samples: 200,
            ..Default::default()
        };
        assert_eq!(alias_likelihood(&s, &p), alias_likelihood(&s, &p));
    }

    #[test]
    #[should_panic(expected = "need 4 streams")]
    fn rejects_too_few_streams() {
        let s = streams(5_000);
        alias_likelihood(
            &s[..2],
            &TracedAliasParams {
                concurrency: 4,
                ..Default::default()
            },
        );
    }
}
