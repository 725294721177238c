//! The holder gate: the read side of the active/standby pattern.
//!
//! The gate counts *holders*, not operations: a transaction attempt enters
//! before its first grant in the guarded table and exits after its last
//! release, so the operations in between never touch it. The count is
//! sharded (one cache-line-padded counter per shard, picked by the
//! caller's hint), so entering is one shard-local increment and one flag
//! load.
//!
//! A resize [`EpochGate::try_seal`]s the gate: new entries wait, holders
//! carry on, and the sealer waits — up to a budget — until every shard's
//! count reads zero. That is the `active_standby` crate's "writer awaits
//! the standby being free of read guards", where one guard spans an
//! attempt's grants: once no attempt is inside, the guarded table is empty
//! and the sealer may swap it; [`EpochGate::open`] releases the waiters. A
//! seal whose budget runs out reopens the gate itself.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Number of counter shards; a power of two so the hint masks cheaply.
const SHARDS: usize = 32;

/// One cache-line-padded holder count.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Shard {
    holders: AtomicUsize,
}

/// The gate (see module docs).
#[derive(Debug)]
pub struct EpochGate {
    shards: Vec<Shard>,
    sealed: AtomicBool,
}

impl Default for EpochGate {
    fn default() -> Self {
        Self::new()
    }
}

/// Spin briefly, then yield: waits here are on other threads' progress.
fn backoff(spins: &mut u32) {
    *spins += 1;
    if *spins > 64 {
        std::thread::yield_now();
    } else {
        std::hint::spin_loop();
    }
}

impl EpochGate {
    /// A new, open gate.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
            sealed: AtomicBool::new(false),
        }
    }

    /// Become a holder; waits (spinning, then yielding) while the gate is
    /// sealed.
    ///
    /// `hint` selects the counter shard — pass something thread-stable so
    /// concurrent holders spread out — and the matching
    /// [`exit`](Self::exit) must pass the same hint.
    pub fn enter(&self, hint: usize) {
        let holders = &self.shards[hint & (SHARDS - 1)].holders;
        loop {
            // Count first, then look: a sealer that stores `sealed` before
            // this load reads its counts after it, so it sees this entry —
            // or this entry sees the seal and retracts.
            holders.fetch_add(1, Ordering::SeqCst);
            if !self.sealed.load(Ordering::SeqCst) {
                return;
            }
            holders.fetch_sub(1, Ordering::SeqCst);
            let mut spins = 0u32;
            while self.sealed.load(Ordering::SeqCst) {
                backoff(&mut spins);
            }
        }
    }

    /// Stop being a holder (pairs with an [`enter`](Self::enter) under the
    /// same `hint`).
    pub fn exit(&self, hint: usize) {
        self.shards[hint & (SHARDS - 1)]
            .holders
            .fetch_sub(1, Ordering::SeqCst);
    }

    /// Seal the gate and wait up to `budget` for every holder to exit.
    ///
    /// `true`: no one holds, and no one can enter, until
    /// [`open`](Self::open) — the caller owns whatever the gate guards.
    /// `false`: holders remained when the budget ran out; the gate is open
    /// again. A caller that is itself a holder always gets `false`.
    pub fn try_seal(&self, budget: Duration) -> bool {
        self.sealed.store(true, Ordering::SeqCst);
        let start = Instant::now();
        let mut spins = 0u32;
        loop {
            // A shard read as zero stays free of admitted holders: anyone
            // entering after the seal sees it and retracts.
            if self
                .shards
                .iter()
                .all(|s| s.holders.load(Ordering::SeqCst) == 0)
            {
                return true;
            }
            if start.elapsed() >= budget {
                self.open();
                return false;
            }
            backoff(&mut spins);
        }
    }

    /// Re-open a sealed gate, releasing any waiting entrants.
    pub fn open(&self) {
        self.sealed.store(false, Ordering::SeqCst);
    }

    /// Whether the gate is currently sealed (diagnostic).
    pub fn is_sealed(&self) -> bool {
        self.sealed.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    const LONG: Duration = Duration::from_secs(10);
    const SHORT: Duration = Duration::from_millis(5);

    #[test]
    fn enter_exit_balances() {
        let gate = EpochGate::new();
        gate.enter(0);
        gate.enter(1);
        gate.exit(0);
        gate.exit(1);
        // Both holders left: the seal succeeds at once.
        assert!(gate.try_seal(SHORT));
        assert!(gate.is_sealed());
        gate.open();
    }

    #[test]
    fn seal_waits_for_a_holder_to_exit() {
        let gate = EpochGate::new();
        let inside = AtomicU32::new(0);
        crossbeam::scope(|s| {
            let (gate, inside) = (&gate, &inside);
            s.spawn(move |_| {
                gate.enter(3);
                inside.store(1, Ordering::SeqCst);
                while inside.load(Ordering::SeqCst) != 2 {
                    std::hint::spin_loop();
                }
                gate.exit(3);
            });
            while inside.load(Ordering::SeqCst) != 1 {
                std::hint::spin_loop();
            }
            let sealer = s.spawn(move |_| {
                assert!(gate.try_seal(LONG));
                // Only reachable once the holder exited.
                assert_eq!(inside.load(Ordering::SeqCst), 2);
                gate.open();
            });
            std::thread::sleep(Duration::from_millis(20));
            inside.store(2, Ordering::SeqCst);
            sealer.join().unwrap();
        })
        .unwrap();
    }

    #[test]
    fn entrants_wait_out_a_seal() {
        let gate = EpochGate::new();
        let passed = AtomicU32::new(0);
        assert!(gate.try_seal(SHORT));
        crossbeam::scope(|s| {
            let (gate, passed) = (&gate, &passed);
            for i in 0..4 {
                s.spawn(move |_| {
                    gate.enter(i);
                    passed.fetch_add(1, Ordering::SeqCst);
                    gate.exit(i);
                });
            }
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(
                passed.load(Ordering::SeqCst),
                0,
                "sealed gate admitted an entrant"
            );
            gate.open();
        })
        .unwrap();
        assert_eq!(passed.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn a_failed_seal_reopens_the_gate() {
        let gate = EpochGate::new();
        gate.enter(7);
        // The caller is a holder: the budget runs out.
        assert!(!gate.try_seal(SHORT));
        assert!(!gate.is_sealed());
        // A first entry on another shard is admitted at once.
        gate.enter(8);
        gate.exit(8);
        gate.exit(7);
        assert!(gate.try_seal(SHORT));
        gate.open();
    }

    #[test]
    fn stress_seal_open_cycles() {
        let gate = EpochGate::new();
        let ops = AtomicU32::new(0);
        let inside = AtomicU32::new(0);
        crossbeam::scope(|s| {
            let (gate, ops, inside) = (&gate, &ops, &inside);
            for t in 0..4usize {
                s.spawn(move |_| {
                    for _ in 0..2000 {
                        gate.enter(t);
                        inside.fetch_add(1, Ordering::SeqCst);
                        ops.fetch_add(1, Ordering::Relaxed);
                        inside.fetch_sub(1, Ordering::SeqCst);
                        gate.exit(t);
                    }
                });
            }
            s.spawn(move |_| {
                for _ in 0..50 {
                    if gate.try_seal(LONG) {
                        assert_eq!(inside.load(Ordering::SeqCst), 0, "holder inside a seal");
                        gate.open();
                    }
                    std::thread::yield_now();
                }
            });
        })
        .unwrap();
        assert_eq!(ops.load(Ordering::Relaxed), 8000);
        assert!(gate.try_seal(SHORT)); // everything drained
    }
}
