//! Property test: after the policy resizes a tagless table, the *measured*
//! false-conflict rate tracks what `tm-model::sizing` promised.
//!
//! For each sampled workload (footprint `W`, target probability) the test
//! sizes a table through [`ResizePolicy::required_entries`], resizes a
//! deliberately tiny table up to it, then measures the pairwise (`C = 2`)
//! any-conflict rate of disjoint-footprint transaction pairs — the paper's
//! Eq. 4 regime. The empirical rate must stay in a loose band around the
//! model's prediction (Monte-Carlo noise and hash non-uniformity preclude a
//! tight one), and must never exceed the policy's target with its headroom.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tm_adaptive::{resizable_tagless, Observation, ResizePolicy};
use tm_model::lockstep;
use tm_ownership::concurrent::{ConcurrentTable, GrantKey, Held};
use tm_ownership::{Access, HashKind, TableConfig};

/// Write-acquire `block` for `txn`, whose write grant keys so far are
/// `log`, as an engine's log does: a key already held is not acquired
/// again. `false` on a conflict.
fn write(table: &impl ConcurrentTable, txn: u32, block: u64, log: &mut Vec<GrantKey>) -> bool {
    let key = table.grant_key(block);
    if log.contains(&key) {
        return true;
    }
    let granted = table.acquire(txn, block, Access::Write, Held::None).is_ok();
    if granted {
        log.push(key);
    }
    granted
}

/// One trial: txn 0 plants `w` write grants on random distinct blocks,
/// txn 1 tries `w` different random blocks; did txn 1 hit any conflict?
fn pair_conflicts(table: &impl ConcurrentTable, w: u32, rng: &mut StdRng) -> bool {
    table.enter(0);
    table.enter(1);
    let mut planted = Vec::with_capacity(w as usize);
    for _ in 0..w {
        write(table, 0, rng.gen::<u64>(), &mut planted);
    }
    let mut probed = Vec::new();
    let conflicted = !(0..w).all(|_| write(table, 1, rng.gen::<u64>(), &mut probed));
    for (txn, log) in [(0, planted), (1, probed)] {
        for key in log {
            table.release(txn, key, Held::Write);
        }
        table.exit(txn);
    }
    conflicted
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn post_resize_conflict_rate_tracks_sizing_model(
        w in 6u32..24,
        target_millis in 80u64..400, // target conflict prob in [0.08, 0.4)
        seed in any::<u64>(),
    ) {
        let target = target_millis as f64 / 1000.0;
        let policy = ResizePolicy {
            target_conflict_prob: target,
            headroom: 1.0,
            min_entries: 16,
            max_entries: 1 << 26,
            ..Default::default()
        };
        let obs = Observation {
            concurrency: 2,
            write_footprint: w as f64,
            alpha: 0.0,
            commits: 1_000,
        };
        let sized = policy.required_entries(&obs);

        // Start mis-sized, then let the policy's answer fix it online.
        let table = resizable_tagless(
            TableConfig::new(16).with_hash(HashKind::Multiplicative),
        );
        table.resize_to(sized).unwrap();
        prop_assert_eq!(table.live_entries(), sized);

        let trials = 400u32;
        let mut rng = StdRng::seed_from_u64(seed);
        let hits = (0..trials).filter(|_| pair_conflicts(&table, w, &mut rng)).count();
        let empirical = hits as f64 / trials as f64;
        let predicted = lockstep::conflict_likelihood(2, w, 0.0, sized as u64);

        // The model is an upper-bound-flavored linearization; the measured
        // rate must not blow past it (3x + noise floor covers Monte-Carlo
        // variance at 400 trials)...
        prop_assert!(
            empirical <= predicted * 3.0 + 0.06,
            "w={} N={} predicted {:.4} but measured {:.4}", w, sized, predicted, empirical
        );
        // ...and the sizing goal itself must hold.
        prop_assert!(
            empirical <= target * 3.0 + 0.06,
            "w={} N={} target {:.3} but measured {:.4}", w, sized, target, empirical
        );
        // When conflicts should be common enough to measure, they must
        // actually appear: the table must not be vacuously oversized.
        if predicted > 0.15 {
            prop_assert!(
                empirical >= predicted / 6.0,
                "w={} N={} predicted {:.4} but measured only {:.4}", w, sized, predicted, empirical
            );
        }
    }

    /// Growing the table by 4x cuts the measured conflict rate by roughly
    /// 4x (the paper's linear-in-N law), measured across a live resize.
    #[test]
    fn resize_scales_conflict_rate_linearly(
        w in 8u32..20,
        seed in any::<u64>(),
    ) {
        let small_n = 1usize << 10;
        let big_n = small_n << 2;
        let table = resizable_tagless(
            TableConfig::new(small_n).with_hash(HashKind::Multiplicative),
        );

        let trials = 300u32;
        let mut rng = StdRng::seed_from_u64(seed);
        let before = (0..trials).filter(|_| pair_conflicts(&table, w, &mut rng)).count();

        table.resize_to(big_n).unwrap();
        let after = (0..trials).filter(|_| pair_conflicts(&table, w, &mut rng)).count();

        // before/after ≈ 4; demand at least a 2x improvement whenever the
        // base rate is measurable at all.
        if before >= 30 {
            prop_assert!(
                after * 2 <= before,
                "w={} {}→{} conflicts went {} → {}", w, small_n, big_n, before, after
            );
        }
    }
}
