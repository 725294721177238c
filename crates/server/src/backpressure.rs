//! Admission control: a bounded inflight budget that contracts as the
//! engine's abort ratio rises.
//!
//! The failure mode this prevents is the classic open-system collapse: in
//! a closed benchmark, more offered load just queues; in an open system,
//! offered load beyond the service rate inflates every transaction's
//! retry count (service inflation), which *lowers* the service rate,
//! which inflates retries further. The paper's Eq. 8 gives the mechanism
//! a formula — conflict probability grows as `C(C−1)`, so admitting more
//! concurrent work degrades *everyone* superlinearly.
//!
//! The controller is deliberately simple and cheap enough for the per-
//! request path:
//!
//! * a shared **inflight gauge** counts admitted-but-uncommitted write
//!   cost (heap words, not requests, so a 64-key `MultiAdd` spends 64× the
//!   budget of an `Add`);
//! * a **budget** that shrinks from `base` toward `min` as the observed
//!   abort ratio rises: `budget = base / (1 + slope · abort_ratio)`,
//!   clamped to `[min, base]`. With the default slope 4, one abort per
//!   commit (ratio 1.0) cuts admission to a fifth.
//! * requests beyond the budget are refused with an explicit `Busy`
//!   response — shedding is visible to the client and cheap for the
//!   server (no transaction is started), so under overload latency for
//!   *admitted* work stays bounded instead of every request degrading.
//!
//! Workers call [`Admission::observe`] periodically with a windowed abort
//! ratio from [`EngineStats::since`](tm_stm::EngineStats::since); the
//! budget is a plain atomic so observation and admission never lock.

use std::sync::atomic::{AtomicU64, Ordering};

/// Static knobs of the admission controller.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionPolicy {
    /// Inflight write cost (heap words) admitted when the engine is
    /// abort-free.
    pub base_inflight: u64,
    /// Floor the budget never shrinks below — keeps the service live even
    /// when thrashing, so it can observe the abort ratio falling again.
    pub min_inflight: u64,
    /// How hard the budget contracts per unit of abort ratio.
    pub slope: f64,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        Self {
            base_inflight: 4096,
            min_inflight: 64,
            slope: 4.0,
        }
    }
}

impl AdmissionPolicy {
    /// Effectively unlimited admission (for tests and closed-loop use
    /// where the client fleet already bounds inflight work).
    pub fn unlimited() -> Self {
        Self {
            base_inflight: u64::MAX / 2,
            min_inflight: u64::MAX / 2,
            slope: 0.0,
        }
    }

    /// The budget at a given abort ratio: `base / (1 + slope·ratio)`,
    /// clamped to `[min, base]`.
    pub fn budget_at(&self, abort_ratio: f64) -> u64 {
        let ratio = abort_ratio.max(0.0);
        let raw = self.base_inflight as f64 / (1.0 + self.slope * ratio);
        (raw as u64).clamp(self.min_inflight, self.base_inflight)
    }
}

/// The shared admission gauge. One per server; all workers admit against
/// the same budget, so total inflight write cost is globally bounded.
#[derive(Debug)]
pub struct Admission {
    policy: AdmissionPolicy,
    inflight: AtomicU64,
    budget: AtomicU64,
    shed: AtomicU64,
}

impl Admission {
    /// New gauge at the abort-free budget.
    pub fn new(policy: AdmissionPolicy) -> Self {
        Self {
            inflight: AtomicU64::new(0),
            budget: AtomicU64::new(policy.base_inflight),
            shed: AtomicU64::new(0),
            policy,
        }
    }

    /// Try to admit `cost` words of write work. On refusal the caller
    /// answers `Busy` and must **not** call [`Admission::release`].
    /// Zero-cost requests are always admitted.
    pub fn try_admit(&self, cost: u64) -> bool {
        if cost == 0 {
            return true;
        }
        let budget = self.budget.load(Ordering::Relaxed);
        // Optimistic add, undo on overshoot: cheaper than CAS-looping on
        // the hot path and the transient overshoot is bounded by one
        // request per worker.
        let prev = self.inflight.fetch_add(cost, Ordering::Relaxed);
        if prev.saturating_add(cost) > budget {
            self.inflight.fetch_sub(cost, Ordering::Relaxed);
            self.shed.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// Return `cost` words after the write committed (or failed).
    pub fn release(&self, cost: u64) {
        if cost > 0 {
            self.inflight.fetch_sub(cost, Ordering::Relaxed);
        }
    }

    /// Fold a freshly observed abort ratio into the budget.
    pub fn observe(&self, abort_ratio: f64) {
        self.budget
            .store(self.policy.budget_at(abort_ratio), Ordering::Relaxed);
    }

    /// Current budget (words).
    pub fn budget(&self) -> u64 {
        self.budget.load(Ordering::Relaxed)
    }

    /// Currently admitted write cost (words).
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Requests refused so far.
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_contracts_with_abort_ratio() {
        let p = AdmissionPolicy {
            base_inflight: 1000,
            min_inflight: 50,
            slope: 4.0,
        };
        assert_eq!(p.budget_at(0.0), 1000);
        assert_eq!(p.budget_at(1.0), 200); // 1000 / 5
        assert_eq!(p.budget_at(100.0), 50); // clamped to the floor
                                            // Ratios are never negative in practice, but the clamp holds anyway.
        assert_eq!(p.budget_at(-3.0), 1000);
    }

    #[test]
    fn admit_release_cycle() {
        let a = Admission::new(AdmissionPolicy {
            base_inflight: 10,
            min_inflight: 2,
            slope: 4.0,
        });
        assert!(a.try_admit(6));
        assert!(a.try_admit(4));
        assert_eq!(a.inflight(), 10);
        assert!(!a.try_admit(1), "budget exhausted");
        assert_eq!(a.shed_count(), 1);
        assert_eq!(a.inflight(), 10, "refused cost is rolled back");
        a.release(6);
        assert!(a.try_admit(5));
        a.release(4);
        a.release(5);
        assert_eq!(a.inflight(), 0);
    }

    #[test]
    fn observe_reshapes_admission() {
        let a = Admission::new(AdmissionPolicy {
            base_inflight: 100,
            min_inflight: 10,
            slope: 4.0,
        });
        assert!(a.try_admit(80));
        a.release(80);
        a.observe(1.0); // budget → 20
        assert_eq!(a.budget(), 20);
        assert!(!a.try_admit(80));
        assert!(a.try_admit(20));
        a.release(20);
        a.observe(0.0); // recovery
        assert_eq!(a.budget(), 100);
    }

    #[test]
    fn zero_cost_always_admitted() {
        let a = Admission::new(AdmissionPolicy {
            base_inflight: 1,
            min_inflight: 1,
            slope: 0.0,
        });
        assert!(a.try_admit(1));
        assert!(a.try_admit(0), "pings and closes never shed");
    }
}
