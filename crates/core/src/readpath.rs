//! The wait-free read-only path: a publication gate for the eager engines.
//!
//! Eager transactions buffer writes privately and publish them to the heap
//! only inside commit, after every ownership grant is held. A read-only
//! transaction that never touches the ownership table therefore needs just
//! one guarantee: it must not observe a *partially published* write set.
//! The `PublishGate` provides exactly that, as a seqlock with one
//! `ingress`/`egress` pair per thread slot:
//!
//! - A committing writer with a non-empty write buffer bumps its slot's
//!   `ingress` counter, publishes its buffered stores, then bumps `egress`.
//! - A reader samples the gate at begin: if the summed `ingress` equals the
//!   summed `egress`, no publication is in flight and the sum is the
//!   reader's *epoch*. After every heap load it re-sums `ingress`; if the
//!   sum still equals the epoch, no publication even **started** since
//!   begin, so everything it has read belongs to one quiescent snapshot.
//!
//! Writers never wait for readers (they only write their own slot —
//! wait-free), and readers never block writers; a reader that races a
//! publication simply retries. A thread id below
//! [`SHARED`](tm_ownership::slots::SHARED) is its slot's only writer (the
//! engine's one-thread-per-id contract), so its bracket is the
//! single-writer seqlock's: plain stores, no locked instruction. Ids from
//! `SHARED` on share the last slot and bump it with `fetch_add`, in the
//! same orderings. Ordering argument, given that heap loads and stores are
//! `Relaxed`:
//!
//! - Writer: `ingress` bump (`Relaxed`) → `fence(Release)` → heap stores
//!   → `egress` bump (`Release`). The release fence orders the ingress
//!   bump before every heap store as observed through any later acquire.
//! - Reader validation: heap load → `fence(Acquire)` → `ingress` loads.
//!   If the reader observed any store from writer W's publication, the
//!   acquire fence after the load synchronizes with W's release fence, so
//!   the re-summed `ingress` includes W's bump and no longer equals the
//!   begin epoch — the read is rejected. Contrapositive: an accepted read
//!   saw no in-flight publication.
//! - Reader begin sums `egress` **before** `ingress` (both `Acquire`). For
//!   any writer whose `egress` bump is included, the `Release`-`Acquire`
//!   pair makes its earlier `ingress` bump visible to the later ingress
//!   loads, so the observed ingress multiset always covers the observed
//!   egress multiset per slot; sum equality therefore means every started
//!   publication had finished, and `Acquire` on `egress` makes all of its
//!   stores visible to the reader's subsequent loads.
//!
//! The reader-side sum walks sixteen padded slots, a fine trade because
//! the eager reader validates with one fence plus sixteen relaxed loads and
//! still performs no CAS, takes no lock, and allocates nothing.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use tm_ownership::slots::Slots;

/// Spins a read-only attempt spends waiting before it gives up and
/// retries through backoff. Eager engines spin at `run_read` begin while a
/// writer is mid-publication; the lazy engine spins per read while a
/// commit-time lock is held. Publication windows are a handful of relaxed
/// stores, so a small budget rides out almost every race without burning a
/// backoff — and because it is a budget, a stalled writer cannot wedge a
/// reader in a silent spin: the attempt aborts and re-enters through the
/// caller's retry policy.
pub(crate) const READ_SPINS: u32 = 64;

/// One slot of the gate: its writers' publications begun and ended.
#[derive(Debug, Default)]
struct GateSlot {
    ingress: AtomicU64,
    egress: AtomicU64,
}

/// The slotted seqlock described in the module docs.
///
/// Public because engine crates outside `tm-stm` (the sharded engine in
/// `tm-shard`) implement the same publication protocol: writers bracket
/// their buffered heap stores with [`publish_begin`](PublishGate::publish_begin)/
/// [`publish_end`](PublishGate::publish_end), and the table-free read path
/// validates with [`reader_epoch`](PublishGate::reader_epoch)/
/// [`still_at`](PublishGate::still_at). One gate instance covers one heap:
/// a multi-shard commit publishing under a single bracket is atomic to
/// every reader of that heap.
#[derive(Debug, Default)]
pub struct PublishGate {
    slots: Slots<GateSlot>,
}

impl PublishGate {
    /// Writer prologue: announce an in-flight publication. Must be paired
    /// with [`publish_end`](Self::publish_end) on the same thread id, with
    /// the heap stores in between. Wait-free: a plain store (a `fetch_add`
    /// on the shared slot) plus a fence.
    ///
    /// In debug builds an id that owns its slot is checked to have no
    /// bracket open: a second `publish_begin` before the `publish_end` is
    /// the trace of one id used by two threads at once.
    #[inline]
    pub fn publish_begin(&self, me: u32) {
        let slot = self.slots.get(me);
        let GateSlot { ingress, egress } = slot.cells();
        debug_assert!(
            !slot.is_exclusive()
                || ingress.load(Ordering::Relaxed) == egress.load(Ordering::Relaxed),
            "publish_begin({me}) with a bracket already open on its slot: \
             thread id {me} is in use by two threads at once"
        );
        slot.add(ingress, 1, Ordering::Relaxed);
        fence(Ordering::Release);
    }

    /// Writer epilogue: the publication is complete.
    #[inline]
    pub fn publish_end(&self, me: u32) {
        let slot = self.slots.get(me);
        slot.add(&slot.cells().egress, 1, Ordering::Release);
    }

    /// Reader begin: `Some(epoch)` when no publication is in flight, `None`
    /// when one is (caller spins or aborts). Egress is summed first — see
    /// the module docs for why that order is load-bearing.
    #[inline]
    pub fn reader_epoch(&self) -> Option<u64> {
        let mut egress = 0u64;
        for slot in self.slots.iter() {
            egress += slot.egress.load(Ordering::Acquire);
        }
        let mut ingress = 0u64;
        for slot in self.slots.iter() {
            ingress += slot.ingress.load(Ordering::Acquire);
        }
        (ingress == egress).then_some(ingress)
    }

    /// Reader validation: true when no publication has *started* since the
    /// epoch was taken, i.e. every load so far came from one quiescent
    /// snapshot.
    #[inline]
    pub fn still_at(&self, epoch: u64) -> bool {
        fence(Ordering::Acquire);
        let mut ingress = 0u64;
        for slot in self.slots.iter() {
            ingress += slot.ingress.load(Ordering::Relaxed);
        }
        ingress == epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_tracks_publications() {
        let gate = PublishGate::default();
        let epoch = gate.reader_epoch().expect("quiescent at start");
        assert!(gate.still_at(epoch));

        gate.publish_begin(3);
        // Mid-publication: no epoch is available and the old one is stale.
        assert_eq!(gate.reader_epoch(), None);
        assert!(!gate.still_at(epoch));
        gate.publish_end(3);

        let next = gate.reader_epoch().expect("quiescent after publish");
        assert_eq!(next, epoch + 1);
        assert!(gate.still_at(next));
    }

    #[test]
    fn slots_sum_across_thread_ids() {
        let gate = PublishGate::default();
        // Ids 15 and 16 share the last slot; 0 and 1 own theirs. The sums
        // must be slot-layout-independent.
        for me in [0u32, 15, 16, 1] {
            gate.publish_begin(me);
            gate.publish_end(me);
        }
        assert_eq!(gate.reader_epoch(), Some(4));
    }

    #[test]
    fn shared_slot_brackets_may_overlap() {
        // Ids from `SHARED` on may publish at once: their brackets nest on
        // one slot without tripping the single-writer check.
        let gate = PublishGate::default();
        gate.publish_begin(15);
        gate.publish_begin(40);
        assert_eq!(gate.reader_epoch(), None);
        gate.publish_end(40);
        gate.publish_end(15);
        assert_eq!(gate.reader_epoch(), Some(2));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "thread id 3 is in use by two threads at once")]
    fn a_second_open_bracket_on_an_owned_slot_panics_in_debug() {
        let gate = PublishGate::default();
        gate.publish_begin(3);
        gate.publish_begin(3);
    }
}
