//! The block fingerprint both tagless organizations keep in their entry
//! words, and the one rule that classifies a conflict from it.
//!
//! A tagless entry cannot tell the blocks that alias at it apart, but its
//! word has room for 30 bits naming *which* block its holder (or last
//! writer) covered. A transaction refused by that word compares the name
//! against its own block: the same block is a true conflict, a different
//! one is a false conflict — table aliasing, the paper's quantity. The
//! word that refused the requester is the evidence, so nothing can race
//! away between the refusal and the verdict.

use crate::entry::ConflictClass;
use crate::hashing::BlockAddr;

/// Fingerprint value meaning "no information" (a free word).
pub const FP_NONE: u32 = 0;
/// Fingerprint value meaning "no single block": the address did not fit, or
/// the word's holders cover more than one block.
pub const FP_SATURATED: u32 = (1 << 30) - 1;

/// The block fingerprint stored in an entry word: exact (`block + 1`) below
/// the saturation bound, [`FP_SATURATED`] above it. Exact for block
/// addresses below 2^30 − 2, every workload in this workspace.
#[inline]
pub fn fingerprint_of(block: BlockAddr) -> u32 {
    if block >= (FP_SATURATED - 1) as u64 {
        FP_SATURATED
    } else {
        block as u32 + 1
    }
}

/// Classify a conflict from the fingerprint in the word that refused it
/// (`theirs`) and the fingerprint of the block requested (`mine`): equal
/// exact fingerprints are a true conflict, distinct exact ones a false
/// conflict, and an absent or saturated one on either side proves nothing.
#[inline]
pub fn classify(theirs: u32, mine: u32) -> ConflictClass {
    if theirs == FP_NONE || theirs == FP_SATURATED || mine == FP_NONE || mine == FP_SATURATED {
        ConflictClass::Unknown
    } else if theirs == mine {
        ConflictClass::KnownTrue
    } else {
        ConflictClass::KnownFalse
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_the_bound_saturated_above() {
        assert_eq!(fingerprint_of(0), 1);
        assert_eq!(fingerprint_of(9), 10);
        assert_eq!(fingerprint_of((FP_SATURATED - 2) as u64), FP_SATURATED - 1);
        assert_eq!(fingerprint_of((FP_SATURATED - 1) as u64), FP_SATURATED);
        assert_eq!(fingerprint_of(u64::MAX), FP_SATURATED);
    }

    #[test]
    fn only_two_exact_fingerprints_decide() {
        let (a, b) = (fingerprint_of(9), fingerprint_of(10));
        assert_eq!(classify(a, a), ConflictClass::KnownTrue);
        assert_eq!(classify(a, b), ConflictClass::KnownFalse);
        for unknown in [FP_NONE, FP_SATURATED] {
            assert_eq!(classify(unknown, a), ConflictClass::Unknown);
            assert_eq!(classify(a, unknown), ConflictClass::Unknown);
        }
    }
}
