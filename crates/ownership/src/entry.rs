//! Entry modes, access kinds, and conflict descriptions shared by every
//! ownership-table organization.

use std::fmt;

/// Identifier of a thread / transaction owner recorded in the table.
///
/// The paper's experiments use at most 8 concurrent transactions; `u32`
/// leaves ample headroom while keeping packed entry representations compact.
pub type ThreadId = u32;

/// The state of an ownership-table entry (paper Figure 1: the *mode* field).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mode {
    /// No transaction holds the entry.
    Free,
    /// One or more transactions hold the entry for reading; the entry stores
    /// the *number of sharers* (Figure 1's `# sharers` column).
    Read,
    /// Exactly one transaction holds the entry for writing; the entry stores
    /// the *owner* (Figure 1's `owner` column).
    Write,
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mode::Free => write!(f, "Free"),
            Mode::Read => write!(f, "Read"),
            Mode::Write => write!(f, "Write"),
        }
    }
}

/// The kind of permission a transaction requests on a cache block.
///
/// `Default` is [`Access::Read`] — only used by containers that pre-fill
/// storage (e.g. `SmallMap`'s inline slots); a default value is never
/// observable as a grant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Access {
    /// Read permission (shared).
    #[default]
    Read,
    /// Write permission (exclusive).
    Write,
}

impl Access {
    /// `true` for [`Access::Write`].
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, Access::Write)
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Access::Read => write!(f, "read"),
            Access::Write => write!(f, "write"),
        }
    }
}

/// Why an acquire attempt failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConflictKind {
    /// Requested a read while another transaction holds the entry for
    /// writing.
    ReadAfterWrite,
    /// Requested a write while one or more other transactions hold the entry
    /// for reading.
    WriteAfterRead,
    /// Requested a write while another transaction holds the entry for
    /// writing.
    WriteAfterWrite,
}

impl fmt::Display for ConflictKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConflictKind::ReadAfterWrite => write!(f, "read-after-write"),
            ConflictKind::WriteAfterRead => write!(f, "write-after-read"),
            ConflictKind::WriteAfterWrite => write!(f, "write-after-write"),
        }
    }
}

/// The table's verdict on whether a conflict was *false* (an alias between
/// distinct blocks sharing one entry — the paper's central quantity) or
/// *true* (a genuine collision on the same block).
///
/// Tagless tables can only classify when built with conflict classification
/// enabled ([`crate::hashing::TableConfig::with_conflict_classification`]):
/// the table compares advisory per-thread block hints published alongside
/// grants.
/// Tagged tables never produce false conflicts by construction, so they
/// always report [`ConflictClass::KnownTrue`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ConflictClass {
    /// The table could not compare block identities (classification
    /// disabled, or the evidence raced away before it could be read).
    #[default]
    Unknown,
    /// Proven to involve the **same** block — inherent to the workload.
    KnownTrue,
    /// Proven to be an alias between **different** blocks.
    KnownFalse,
}

impl ConflictClass {
    /// `true` when proven to be an alias between distinct blocks.
    #[inline]
    pub fn is_known_false(self) -> bool {
        matches!(self, ConflictClass::KnownFalse)
    }

    /// `true` when proven to involve the same block.
    #[inline]
    pub fn is_known_true(self) -> bool {
        matches!(self, ConflictClass::KnownTrue)
    }
}

/// A detected conflict, as reported by an acquire attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conflict {
    /// The flavour of incompatibility.
    pub kind: ConflictKind,
    /// The writing owner we collided with, when the table knows it (a
    /// [`ConflictKind::WriteAfterRead`] against multiple sharers has no
    /// single owner to report).
    pub with: Option<ThreadId>,
    /// The true/false classification verdict, when the table can produce
    /// one (see [`ConflictClass`]).
    pub class: ConflictClass,
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} conflict", self.kind)?;
        if let Some(t) = self.with {
            write!(f, " with thread {t}")?;
        }
        match self.class {
            ConflictClass::KnownFalse => write!(f, " (false/alias)")?,
            ConflictClass::KnownTrue => write!(f, " (true/same-block)")?,
            ConflictClass::Unknown => {}
        }
        Ok(())
    }
}

/// Result of asking a table for permission on a block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AcquireOutcome {
    /// Permission granted; the transaction now holds one unit of it and must
    /// release it on commit or abort.
    Granted,
    /// The transaction already held sufficient permission (e.g. it owns the
    /// entry for writing and asked to read, or — tagless only — a *different*
    /// block it touched maps to the same entry). No new release obligation
    /// is created.
    AlreadyHeld,
    /// Permission denied: the request is incompatible with the current
    /// holder(s). The transaction must abort or stall.
    Conflict(Conflict),
}

impl AcquireOutcome {
    /// `true` when permission is available (granted now or held before).
    #[inline]
    pub fn is_ok(&self) -> bool {
        !matches!(self, AcquireOutcome::Conflict(_))
    }

    /// The conflict payload, if any.
    #[inline]
    pub fn conflict(&self) -> Option<Conflict> {
        match self {
            AcquireOutcome::Conflict(c) => Some(*c),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_is_write() {
        assert!(Access::Write.is_write());
        assert!(!Access::Read.is_write());
    }

    #[test]
    fn outcome_predicates() {
        assert!(AcquireOutcome::Granted.is_ok());
        assert!(AcquireOutcome::AlreadyHeld.is_ok());
        let c = Conflict {
            kind: ConflictKind::WriteAfterWrite,
            with: Some(3),
            class: ConflictClass::KnownFalse,
        };
        let o = AcquireOutcome::Conflict(c);
        assert!(!o.is_ok());
        assert_eq!(o.conflict(), Some(c));
        assert_eq!(AcquireOutcome::Granted.conflict(), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Mode::Free.to_string(), "Free");
        assert_eq!(Access::Write.to_string(), "write");
        let c = Conflict {
            kind: ConflictKind::ReadAfterWrite,
            with: Some(7),
            class: ConflictClass::Unknown,
        };
        assert_eq!(c.to_string(), "read-after-write conflict with thread 7");
        let cf = Conflict {
            kind: ConflictKind::WriteAfterRead,
            with: None,
            class: ConflictClass::KnownFalse,
        };
        assert_eq!(cf.to_string(), "write-after-read conflict (false/alias)");
        let ct = Conflict {
            kind: ConflictKind::WriteAfterWrite,
            with: Some(2),
            class: ConflictClass::KnownTrue,
        };
        assert_eq!(
            ct.to_string(),
            "write-after-write conflict with thread 2 (true/same-block)"
        );
    }
}
