//! The ownership word both organizations keep: Figure 1's entry — a mode
//! plus an owner or a sharer count — packed into one `u64` beside the
//! fingerprint of the block its holders cover:
//!
//! ```text
//! bits 0..2    mode      (0 = Free, 1 = Read, 2 = Write)
//! bits 2..34   payload   (owner ThreadId for Write, sharer count for Read)
//! bits 34..64  fp        (the one block the holders cover; saturated once
//!                         they cover more than one; 0 when Free)
//! ```
//!
//! A tagless entry is one such word, changed by CAS. A tagged record is a
//! block beside one such word, changed under its bucket's lock (Figure 7's
//! record: tag, mode, sharers). Both change it only through the pure
//! transitions here, [`granted`] and [`released`], and decode it only
//! through [`refusal`], [`snapshot`] and [`units`].

use crate::entry::{Access, ConflictKind, Mode, ThreadId};
use crate::fingerprint::FP_SATURATED;

use super::{GrantKey, GrantSnapshot, Held};

const MODE_MASK: u64 = 0b11;
const MODE_FREE: u64 = 0;
pub(super) const MODE_READ: u64 = 1;
const MODE_WRITE: u64 = 2;
const PAYLOAD_SHIFT: u32 = 2;
const FP_SHIFT: u32 = 34;
/// A free word: no mode, no payload, no fingerprint.
pub(super) const FREE: u64 = 0;
/// The fingerprint field set to [`FP_SATURATED`] (all ones).
pub(super) const FP_SATURATED_BITS: u64 = (FP_SATURATED as u64) << FP_SHIFT;

#[inline]
fn pack(mode: u64, payload: u32, fp: u32) -> u64 {
    mode | ((payload as u64) << PAYLOAD_SHIFT) | ((fp as u64) << FP_SHIFT)
}

#[inline]
pub(super) fn mode_of(word: u64) -> u64 {
    word & MODE_MASK
}

#[inline]
fn payload_of(word: u64) -> u32 {
    (word >> PAYLOAD_SHIFT) as u32
}

#[inline]
pub(super) fn fp_of(word: u64) -> u32 {
    (word >> FP_SHIFT) as u32
}

/// The fingerprint of a word whose holders covered `held` and now `fp`.
#[inline]
fn join(held: u32, fp: u32) -> u32 {
    if held == fp {
        held
    } else {
        FP_SATURATED
    }
}

/// The word after granting `access` on `cur` to `txn`, which holds `held`
/// there and covers the block fingerprinted `fp`; `None` when `cur` refuses.
#[inline]
pub(super) fn granted(cur: u64, txn: ThreadId, access: Access, held: Held, fp: u32) -> Option<u64> {
    match (access, mode_of(cur)) {
        (Access::Read, MODE_FREE) => Some(pack(MODE_READ, 1, fp)),
        (Access::Read, MODE_READ) => {
            Some(pack(MODE_READ, payload_of(cur) + 1, join(fp_of(cur), fp)))
        }
        (Access::Write, MODE_FREE) => Some(pack(MODE_WRITE, txn, fp)),
        // An upgrade: the caller holds a read unit, so a sole reader is
        // the caller.
        (Access::Write, MODE_READ) if held == Held::Read && payload_of(cur) == 1 => {
            Some(pack(MODE_WRITE, txn, join(fp_of(cur), fp)))
        }
        _ => None,
    }
}

/// The word after a holder at level `held` releases `word`. The remaining
/// readers cover at most what the word names, so a departing reader leaves
/// the fingerprint as it is; the last one frees the word.
#[inline]
pub(super) fn released(word: u64, held: Held) -> u64 {
    match held {
        Held::None => word,
        Held::Read => {
            let sharers = payload_of(word);
            if sharers <= 1 {
                FREE
            } else {
                pack(MODE_READ, sharers - 1, fp_of(word))
            }
        }
        Held::Write => FREE,
    }
}

/// The kind of conflict `word` raises against a request for `access` it
/// refused, and the writer the request met, if any.
#[inline]
pub(super) fn refusal(access: Access, word: u64) -> (ConflictKind, Option<ThreadId>) {
    match (access, mode_of(word)) {
        (Access::Read, _) => (ConflictKind::ReadAfterWrite, Some(payload_of(word))),
        (Access::Write, MODE_READ) => (ConflictKind::WriteAfterRead, None),
        (Access::Write, _) => (ConflictKind::WriteAfterWrite, Some(payload_of(word))),
    }
}

/// The grant `word` holds under `key`; `None` when it is free.
pub(super) fn snapshot(key: GrantKey, word: u64) -> Option<GrantSnapshot> {
    match mode_of(word) {
        MODE_READ => Some(GrantSnapshot {
            key,
            mode: Mode::Read,
            owner: None,
            sharers: payload_of(word),
        }),
        MODE_WRITE => Some(GrantSnapshot {
            key,
            mode: Mode::Write,
            owner: Some(payload_of(word)),
            sharers: 0,
        }),
        _ => None,
    }
}

/// The grant units `word` holds: its sharers, one writer, or none.
pub(super) fn units(word: u64) -> u64 {
    match mode_of(word) {
        MODE_READ => payload_of(word) as u64,
        MODE_WRITE => 1,
        _ => 0,
    }
}
