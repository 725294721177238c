//! Statistics counters the paper's experiments measure: acquires, grants,
//! conflicts by kind and classification, and (for the tagged organization)
//! chain insertions.

/// Counters accumulated by an ownership table.
///
/// A point-in-time copy: the concurrent tables count with relaxed atomics
/// and [`stats_snapshot`](crate::concurrent::ConcurrentTable::stats_snapshot)
/// reads them into this plain `u64` struct.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Read-permission acquire attempts.
    pub read_acquires: u64,
    /// Write-permission acquire attempts.
    pub write_acquires: u64,
    /// Acquires that granted a new unit of permission.
    pub grants: u64,
    /// Acquires satisfied by permission the transaction already held.
    pub already_held: u64,
    /// Successful read-to-write upgrades.
    pub upgrades: u64,
    /// Conflicts reported, by kind.
    pub read_after_write: u64,
    /// Write-after-read conflicts.
    pub write_after_read: u64,
    /// Write-after-write conflicts.
    pub write_after_write: u64,
    /// Conflicts proven to be aliases between distinct blocks (requires
    /// conflict classification; tagless only — tagged tables cannot produce
    /// these by construction).
    pub false_conflicts: u64,
    /// Conflicts proven to involve the same block.
    pub true_conflicts: u64,
    /// Conflicts the table could not classify (classification disabled).
    pub unclassified_conflicts: u64,
    /// Entry releases performed.
    pub releases: u64,
    /// Tagged only: records inserted into a chain that already held at least
    /// one record for a *different* block (i.e. genuine aliasing the tagged
    /// organization absorbs instead of reporting).
    pub chain_inserts: u64,
}

impl TableStats {
    /// Total acquire attempts.
    pub fn total_acquires(&self) -> u64 {
        self.read_acquires + self.write_acquires
    }

    /// Total conflicts of all kinds.
    pub fn total_conflicts(&self) -> u64 {
        self.read_after_write + self.write_after_read + self.write_after_write
    }

    /// Conflicts per acquire, in [0, 1]; `None` when nothing was acquired.
    pub fn conflict_rate(&self) -> Option<f64> {
        let n = self.total_acquires();
        (n > 0).then(|| self.total_conflicts() as f64 / n as f64)
    }

    /// Fraction of classified conflicts that were false (alias-induced).
    pub fn false_fraction(&self) -> Option<f64> {
        let n = self.false_conflicts + self.true_conflicts;
        (n > 0).then(|| self.false_conflicts as f64 / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_rate_and_totals() {
        let mut s = TableStats::default();
        assert_eq!(s.conflict_rate(), None);
        s.read_acquires = 1;
        s.write_acquires = 2;
        s.write_after_write = 1;
        s.false_conflicts = 1;
        assert_eq!(s.total_acquires(), 3);
        assert_eq!(s.total_conflicts(), 1);
        assert!((s.conflict_rate().unwrap() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.false_fraction(), Some(1.0));
    }

    #[test]
    fn conflict_kinds_sum_and_fraction() {
        let s = TableStats {
            read_after_write: 1,
            write_after_read: 1,
            write_after_write: 1,
            true_conflicts: 1,
            unclassified_conflicts: 2,
            ..TableStats::default()
        };
        assert_eq!(s.total_conflicts(), 3);
        assert_eq!(s.false_fraction(), Some(0.0));
    }
}
