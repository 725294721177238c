//! The feedback loop: observe a running STM, consult the sizing model,
//! resize the table.
//!
//! Each [`AdaptiveController::tick`] closes one control epoch: it diffs the
//! STM's cumulative counters against the previous tick, reconstructs the
//! paper's model parameters from them (observed `W` from committed write
//! blocks, `α` from the grant/write ratio, `C` from configuration), asks
//! the [`ResizePolicy`] whether the active table still satisfies the
//! false-conflict target, and executes the resize when it does not.
//! Everything is advisory-rate: tick from a timer thread, between batches,
//! or from a metrics scraper — transactions never block on the controller,
//! except that a thread's first grant waits while a resize drains the
//! holders.

use tm_model::lockstep;
use tm_ownership::concurrent::ConcurrentTable;
use tm_stm::{EngineStats, Probe, Stm};

use crate::policy::{Decision, Observation, ResizePolicy};
use crate::resizable::{ResizableTable, ResizeError, ResizeReport};

/// What one control epoch did, with the evidence it acted on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ControlReport {
    /// Too few commits this epoch to trust the observation.
    InsufficientEvidence {
        /// Commits seen in the window.
        commits: u64,
    },
    /// The active size satisfies the policy.
    Kept {
        /// The workload observed this epoch.
        observation: Observation,
        /// Model-predicted per-transaction conflict probability at the
        /// current size.
        predicted_conflict: f64,
    },
    /// The table was resized.
    Resized {
        /// The workload observed this epoch.
        observation: Observation,
        /// Model-predicted conflict probability *before* the resize.
        predicted_conflict: f64,
        /// The swap that happened.
        report: ResizeReport,
    },
    /// The policy wanted a resize but grants were still held when the
    /// quiesce budget ran out; the controller will retry on a later tick.
    ResizeDeferred {
        /// The workload observed this epoch.
        observation: Observation,
        /// The size that was attempted.
        attempted_entries: usize,
        /// Why the resize did not happen: grants still held when the
        /// quiesce budget ran out.
        error: ResizeError,
    },
}

/// Drives a [`ResizableTable`] from an [`Stm`]'s statistics stream.
#[derive(Debug)]
pub struct AdaptiveController {
    policy: ResizePolicy,
    concurrency: u32,
    last: EngineStats,
    epochs: u64,
}

impl AdaptiveController {
    /// A controller expecting `concurrency` worker threads, enforcing
    /// `policy`.
    pub fn new(policy: ResizePolicy, concurrency: u32) -> Self {
        Self {
            policy,
            concurrency,
            last: EngineStats::default(),
            epochs: 0,
        }
    }

    /// Update the expected concurrency (e.g. after a thread-pool rescale).
    pub fn set_concurrency(&mut self, concurrency: u32) {
        self.concurrency = concurrency;
    }

    /// The policy in force.
    pub fn policy(&self) -> &ResizePolicy {
        &self.policy
    }

    /// Control epochs executed so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Close one control epoch over `stm` (see module docs). Resize
    /// decisions that execute are reported to the engine's telemetry probe
    /// as [`Probe::on_resize`] events.
    pub fn tick<T: ConcurrentTable, P: Probe>(
        &mut self,
        stm: &Stm<ResizableTable<T>, P>,
    ) -> ControlReport {
        self.tick_with(stm.table(), stm.stats(), stm.probe())
    }

    /// Close one control epoch against an explicit table and counter
    /// snapshot — the engine-agnostic core [`tick`](Self::tick) delegates
    /// to. Sharded engines (`tm-shard`) tick one controller per shard,
    /// feeding each that shard's `ResizableTable` and `EngineStats`
    /// window, so every shard's geometry tracks its own
    /// workload slice independently.
    pub fn tick_with<T: ConcurrentTable, P: Probe>(
        &mut self,
        table: &ResizableTable<T>,
        snap: EngineStats,
        probe: &P,
    ) -> ControlReport {
        self.epochs += 1;
        let window = snap.since(&self.last);

        // Keep accumulating below the evidence threshold: advancing the
        // baseline here would discard sub-threshold windows forever and a
        // fast tick rate could starve the controller of evidence.
        if window.commits < self.policy.min_commits {
            return ControlReport::InsufficientEvidence {
                commits: window.commits,
            };
        }
        self.last = snap;

        let observation = Observation {
            concurrency: self.concurrency,
            write_footprint: window.mean_write_footprint(),
            alpha: window.mean_alpha(),
            commits: window.commits,
        };
        let current = table.live_entries();
        let predicted_conflict = lockstep::conflict_likelihood(
            observation.concurrency.max(2),
            observation.write_footprint.round().max(1.0) as u32,
            observation.alpha.max(0.0),
            current as u64,
        )
        .min(1.0);

        match self.policy.decide(&observation, current) {
            Decision::Keep => ControlReport::Kept {
                observation,
                predicted_conflict,
            },
            Decision::Resize(entries) => match table.resize_to(entries) {
                Ok(report) => {
                    if P::ENABLED {
                        probe.on_resize(report.from_entries as u64, report.to_entries as u64);
                    }
                    ControlReport::Resized {
                        observation,
                        predicted_conflict,
                        report,
                    }
                }
                Err(error) => ControlReport::ResizeDeferred {
                    observation,
                    attempted_entries: entries,
                    error,
                },
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_ownership::{ConcurrentTaglessTable, HashKind, TableConfig};
    use tm_stm::{StmBuilder, TmEngine, TxnOps};

    fn adaptive(entries: usize) -> Stm<ResizableTable<ConcurrentTaglessTable>> {
        let table = ResizableTable::with_factory(
            TableConfig::new(entries).with_hash(HashKind::Multiplicative),
            ConcurrentTaglessTable::new,
        );
        StmBuilder::new().build_with_table(table)
    }

    fn churn(stm: &Stm<ResizableTable<ConcurrentTaglessTable>>, txns: u64, writes: u64) {
        for t in 0..txns {
            stm.run(0, |txn| {
                for w in 0..writes {
                    // Spread writes across distinct blocks.
                    txn.write(((t * writes + w) % 4096) * 64, w)?;
                }
                Ok(())
            });
        }
    }

    #[test]
    fn insufficient_evidence_below_threshold() {
        let stm = adaptive(256);
        let mut ctl = AdaptiveController::new(ResizePolicy::default(), 2);
        churn(&stm, 3, 2);
        assert!(matches!(
            ctl.tick(&stm),
            ControlReport::InsufficientEvidence { commits: 3 }
        ));
    }

    #[test]
    fn grows_under_heavy_footprint() {
        let stm = adaptive(256);
        let mut ctl = AdaptiveController::new(ResizePolicy::default(), 8);
        churn(&stm, 200, 24);
        match ctl.tick(&stm) {
            ControlReport::Resized {
                report,
                observation,
                ..
            } => {
                assert!(report.to_entries > 256, "grew to {}", report.to_entries);
                assert!(observation.write_footprint > 20.0);
                assert_eq!(stm.table().live_entries(), report.to_entries);
            }
            r => panic!("expected resize, got {r:?}"),
        }
    }

    #[test]
    fn keeps_when_sized_right_then_shrinks_when_idleish() {
        let stm = adaptive(1 << 15);
        let mut ctl = AdaptiveController::new(ResizePolicy::default(), 2);
        // Tiny transactions: a 32k-entry table is oversized by far more
        // than the hysteresis factor.
        churn(&stm, 200, 1);
        match ctl.tick(&stm) {
            ControlReport::Resized { report, .. } => {
                assert!(
                    report.to_entries < 1 << 15,
                    "shrank to {}",
                    report.to_entries
                );
            }
            r => panic!("expected shrink, got {r:?}"),
        }
    }

    #[test]
    fn windows_are_deltas_not_cumulative() {
        let stm = adaptive(1 << 12);
        let mut ctl = AdaptiveController::new(
            ResizePolicy {
                min_commits: 50,
                ..Default::default()
            },
            2,
        );
        churn(&stm, 60, 4);
        let _ = ctl.tick(&stm);
        // No traffic since the last tick: the next window is empty.
        assert!(matches!(
            ctl.tick(&stm),
            ControlReport::InsufficientEvidence { commits: 0 }
        ));
        assert_eq!(ctl.epochs(), 2);
    }

    #[test]
    fn predicted_conflict_is_a_probability() {
        let stm = adaptive(256);
        let mut ctl = AdaptiveController::new(ResizePolicy::default(), 16);
        churn(&stm, 100, 30);
        match ctl.tick(&stm) {
            ControlReport::Resized {
                predicted_conflict, ..
            }
            | ControlReport::Kept {
                predicted_conflict, ..
            } => {
                assert!((0.0..=1.0).contains(&predicted_conflict));
            }
            r => panic!("unexpected {r:?}"),
        }
    }
}
