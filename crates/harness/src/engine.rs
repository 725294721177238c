//! The engine axis of the run matrix — and thin re-exports of the core
//! transaction traits.
//!
//! The driving surface itself lives in `tm-stm` now: [`TmEngine`] runs one
//! transaction and exposes unified [`EngineStats`]; [`TxnOps`] is the
//! address-level operation surface scenario bodies are written against,
//! and its supertrait [`ReadOps`] is the read-only subset that
//! `TmEngine::run_read` bodies are bounded by.
//! Every engine implements both, so the harness needs no per-engine
//! adapter layer and **every scenario runs on every engine** — including
//! the `tm-structs` workloads on the lazy engine, the matrix cells the old
//! per-harness trait could not express.

pub use tm_stm::{EngineStats, ReadOps, TmEngine, TxnOps};

/// Engine selection axis of the run matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Eager-acquire STM over a tagless table (paper Figure 1).
    EagerTagless,
    /// Eager-acquire STM over a tagged chained table (paper Figure 7).
    EagerTagged,
    /// Lazy TL2-style engine over the versioned tagless table.
    Lazy,
    /// Eager STM over `tm-adaptive`'s resizable tagless table with a live
    /// controller resizing it mid-run.
    Adaptive,
    /// `tm-shard`'s sharded multi-table engine over tagless shards: the
    /// eager fast path for single-shard transactions, ordered two-phase
    /// grant acquisition for cross-shard commits. Honors the run's
    /// `shards` axis.
    Sharded,
    /// The sharded engine with one `tm-adaptive` resizable table **per
    /// shard**, each driven by its own live controller — skewed cells grow
    /// only their hot shard's table.
    ShardedAdaptive,
}

impl EngineKind {
    /// All engines, in report order.
    pub fn all() -> [EngineKind; 6] {
        [
            EngineKind::EagerTagless,
            EngineKind::EagerTagged,
            EngineKind::Lazy,
            EngineKind::Adaptive,
            EngineKind::Sharded,
            EngineKind::ShardedAdaptive,
        ]
    }

    /// Stable report/CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::EagerTagless => "eager-tagless",
            EngineKind::EagerTagged => "eager-tagged",
            EngineKind::Lazy => "lazy-tl2",
            EngineKind::Adaptive => "adaptive",
            EngineKind::Sharded => "sharded",
            EngineKind::ShardedAdaptive => "sharded-adaptive",
        }
    }

    /// `true` for the `tm-shard` engines, whose cells honor (and are keyed
    /// by) the run's `shards` axis.
    pub fn is_sharded(&self) -> bool {
        matches!(self, EngineKind::Sharded | EngineKind::ShardedAdaptive)
    }

    /// Parse a CLI/report name: every [`EngineKind::name`] string plus a
    /// few aliases, case-insensitively.
    pub fn parse(name: &str) -> Option<EngineKind> {
        match name.trim().to_ascii_lowercase().as_str() {
            "eager-tagless" | "tagless" => Some(EngineKind::EagerTagless),
            "eager-tagged" | "tagged" => Some(EngineKind::EagerTagged),
            "lazy-tl2" | "lazy" | "tl2" => Some(EngineKind::Lazy),
            "adaptive" => Some(EngineKind::Adaptive),
            "sharded" | "shard" | "sharded-tagless" => Some(EngineKind::Sharded),
            "sharded-adaptive" => Some(EngineKind::ShardedAdaptive),
            _ => None,
        }
    }

    /// Like [`EngineKind::parse`], but the error spells out every accepted
    /// name — what CLI front-ends should print for a typo'd `--engine`.
    pub fn parse_or_describe(name: &str) -> Result<EngineKind, String> {
        EngineKind::parse(name).ok_or_else(|| {
            format!(
                "unknown engine '{name}' (valid: {}; aliases: tagless, tagged, lazy, tl2)",
                EngineKind::all().map(|e| e.name()).join(", ")
            )
        })
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in EngineKind::all() {
            assert_eq!(EngineKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(EngineKind::parse("tagless"), Some(EngineKind::EagerTagless));
        assert_eq!(EngineKind::parse("nope"), None);
    }

    #[test]
    fn parse_is_case_insensitive_and_trims() {
        assert_eq!(
            EngineKind::parse("Eager-Tagged"),
            Some(EngineKind::EagerTagged)
        );
        assert_eq!(EngineKind::parse("LAZY-TL2"), Some(EngineKind::Lazy));
        assert_eq!(EngineKind::parse(" adaptive "), Some(EngineKind::Adaptive));
    }

    #[test]
    fn parse_error_lists_valid_names() {
        let err = EngineKind::parse_or_describe("bogus").unwrap_err();
        for kind in EngineKind::all() {
            assert!(err.contains(kind.name()), "{err}");
        }
        assert!(err.contains("bogus"), "{err}");
        assert_eq!(
            EngineKind::parse_or_describe("TAGGED"),
            Ok(EngineKind::EagerTagged)
        );
    }

    #[test]
    fn core_trait_reexports_drive_engines() {
        let stm = tm_stm::StmBuilder::new()
            .heap_words(64)
            .table_entries(256)
            .build_tagged();
        TmEngine::run(&stm, 0, |txn| {
            txn.update_add(0, 5)?;
            txn.update_add(8, 2)?;
            Ok(())
        });
        assert_eq!(stm.engine_stats().commits, 1);
        assert_eq!(stm.heap_sum(8), 7);

        let lazy = tm_stm::StmBuilder::new()
            .heap_words(64)
            .table_entries(256)
            .build_lazy();
        TmEngine::run(&lazy, 0, |txn| {
            txn.update_add(0, 3)?;
            Ok(())
        });
        assert_eq!(lazy.engine_stats().commits, 1);
        assert_eq!(lazy.heap_sum(8), 3);
    }
}
