//! A read-modify-write takes write ownership once.
//!
//! The eager `Txn` overrides `TxnOps::update_with` (and so `update_add` and
//! `update`): on its home table it looks the grant key up once and, unless
//! the key is already held at `Write`, acquires `Write` directly. Composing
//! `read` and `write` instead takes a read grant and then upgrades it. The
//! unit cases pin what one RMW costs the table on each organization; the
//! property pins that the override is the composition in everything but the
//! table's counts, and that the counts differ by exactly one grant per RMW
//! whose key was not yet held.

use std::collections::HashSet;

use proptest::prelude::*;

use tm_birthday::ownership::stats::TableStats;
use tm_birthday::prelude::*;
use tm_birthday::shard::ShardMap;
use tm_birthday::stm::{ConcurrentTable, HashKind};

fn builder(entries: usize) -> StmBuilder {
    StmBuilder::new().heap_words(1 << 10).table_entries(entries)
}

/// The table counts one committed transaction leaves on a fresh engine of
/// each organization, with the body's result.
fn on_every_table(
    body: impl Fn(&mut dyn TxnOps) -> Result<u64, Aborted>,
) -> Vec<(&'static str, u64, TableStats)> {
    fn one<T: ConcurrentTable>(
        name: &'static str,
        stm: Stm<T>,
        body: &dyn Fn(&mut dyn TxnOps) -> Result<u64, Aborted>,
    ) -> (&'static str, u64, TableStats) {
        let v = stm.run(0, |txn| body(txn));
        (name, v, stm.table().stats_snapshot())
    }
    let b = builder(256);
    vec![
        one("tagless", b.build_tagless(), &body),
        one("tagged", b.build_tagged(), &body),
        one(
            "adaptive",
            b.build_adaptive(ResizePolicy::default(), 1).0,
            &body,
        ),
    ]
}

#[test]
fn a_fresh_rmw_is_one_write_acquire_and_one_grant() {
    for (name, v, s) in on_every_table(|txn| txn.update_add(0, 7)) {
        assert_eq!(v, 7, "{name}");
        assert_eq!(s.read_acquires, 0, "{name}");
        assert_eq!(s.write_acquires, 1, "{name}");
        assert_eq!(s.grants, 1, "{name}");
        assert_eq!(s.upgrades, 0, "{name}");
        assert_eq!(s.already_held, 0, "{name}");
        assert_eq!(s.releases, 1, "{name}");
    }
}

#[test]
fn an_rmw_after_a_read_of_its_block_is_one_upgrade() {
    // Words 0 and 8 share block 0.
    let body = |txn: &mut dyn TxnOps| {
        txn.read(8)?;
        txn.update_add(0, 1)
    };
    for (name, v, s) in on_every_table(body) {
        assert_eq!(v, 1, "{name}");
        assert_eq!(s.read_acquires, 1, "{name}: the plain read only");
        assert_eq!(s.write_acquires, 1, "{name}");
        assert_eq!(s.grants, 2, "{name}: the read grant and the upgrade");
        assert_eq!(s.upgrades, 1, "{name}");
        assert_eq!(s.already_held, 0, "{name}");
        assert_eq!(s.releases, 1, "{name}");
    }
}

#[test]
fn an_rmw_after_a_write_of_its_word_makes_no_table_call() {
    let body = |txn: &mut dyn TxnOps| {
        txn.write(0, 5)?;
        txn.update_add(0, 1)
    };
    for (name, v, s) in on_every_table(body) {
        assert_eq!(v, 6, "{name}: read through the write buffer");
        assert_eq!(s.read_acquires, 0, "{name}");
        assert_eq!(s.write_acquires, 1, "{name}: the plain write only");
        assert_eq!(s.grants, 1, "{name}");
        assert_eq!(s.upgrades, 0, "{name}");
        assert_eq!(s.already_held, 0, "{name}");
    }
}

#[test]
fn an_rmw_in_cross_table_mode_counts_what_read_and_write_count() {
    fn run(rmw: bool) -> (Vec<TableStats>, EngineStats, u64, u64) {
        let stm = builder(256).shards(4).build_sharded_tagless();
        let map: &ShardMap = stm.shard_map();
        let far = map.block_range(2).start * 64;
        let near = map.block_range(0).start * 64 + 8;
        stm.heap().store(near, 40);
        stm.run(0, |txn| {
            // Home table 2 first, so the attempt escalates at the RMW's
            // route, before any table call on table 0: both bodies make the
            // same eager attempt, and the RMW itself runs in cross mode.
            txn.read(far)?;
            if rmw {
                txn.update_add(near, 2)?;
            } else {
                let v = txn.read(near)?;
                txn.write(near, v + 2)?;
            }
            assert!(txn.is_cross_shard());
            Ok(())
        });
        let tables = (0..stm.shard_count())
            .map(|i| stm.shard_table(i).stats_snapshot())
            .collect();
        (
            tables,
            stm.stats(),
            stm.heap().load(near),
            stm.cross_shard_commits(),
        )
    }
    let composed = run(false);
    assert_eq!(composed.2, 42);
    assert_eq!(composed.3, 1);
    assert_eq!(run(true), composed);
}

/// One step of a transaction script over words `0..64` (eight blocks).
#[derive(Clone, Copy, Debug)]
enum Step {
    Read(u64),
    Write(u64, u64),
    Update(u64, u64),
    /// Give up the transaction here.
    Abort,
}

fn arb_script() -> impl Strategy<Value = Vec<Vec<Step>>> {
    let step = prop_oneof![
        3 => (0u64..64).prop_map(Step::Read),
        2 => (0u64..64, 0u64..1000).prop_map(|(a, v)| Step::Write(a, v)),
        4 => (0u64..64, 1u64..10).prop_map(|(a, d)| Step::Update(a, d)),
        1 => Just(Step::Abort),
    ];
    proptest::collection::vec(proptest::collection::vec(step, 0..16), 0..10)
}

/// A transaction that forwards only `read` and `write`, so `update_with`
/// is the trait's default: read, then write.
struct Composed<'a, X: ?Sized>(&'a mut X);

impl<X: TxnOps + ?Sized> ReadOps for Composed<'_, X> {
    fn read(&mut self, addr: u64) -> Result<u64, Aborted> {
        self.0.read(addr)
    }

    fn read_count(&self) -> u64 {
        self.0.read_count()
    }
}

impl<X: TxnOps + ?Sized> TxnOps for Composed<'_, X> {
    fn write(&mut self, addr: u64, value: u64) -> Result<(), Aborted> {
        self.0.write(addr, value)
    }

    fn write_count(&self) -> u64 {
        self.0.write_count()
    }
}

/// Run one transaction's steps, recording every value read or produced.
fn steps(txn: &mut dyn TxnOps, script: &[Step], seen: &mut Vec<u64>) -> Result<(), Aborted> {
    seen.clear();
    for &step in script {
        match step {
            Step::Read(w) => seen.push(txn.read(w * 8)?),
            Step::Write(w, v) => txn.write(w * 8, v)?,
            Step::Update(w, d) => seen.push(txn.update_add(w * 8, d)?),
            Step::Abort => return Err(Aborted),
        }
    }
    seen.push(txn.read_count());
    seen.push(txn.write_count());
    Ok(())
}

/// What a script leaves behind on one engine.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    seen: Vec<Vec<u64>>,
    heap: Vec<u64>,
    engine: EngineStats,
}

fn play<T: ConcurrentTable>(stm: &Stm<T>, script: &[Vec<Step>], composed: bool) -> Outcome {
    let mut seen = Vec::new();
    for txn in script {
        let mut values = Vec::new();
        // Single-threaded: only an `Abort` step can end an attempt.
        let _ = stm.try_run(0, 1, |t| {
            if composed {
                steps(&mut Composed(t), txn, &mut values)
            } else {
                steps(t, txn, &mut values)
            }
        });
        seen.push(values);
    }
    Outcome {
        seen,
        heap: (0..64).map(|w| stm.heap().load(w * 8)).collect(),
        engine: stm.stats(),
    }
}

/// RMWs, up to each transaction's `Abort`, whose key the transaction did not
/// hold yet. `key` maps a block to the key the table counts grants under.
fn fresh_rmws(script: &[Vec<Step>], key: impl Fn(u64) -> u64) -> u64 {
    let mut fresh = 0;
    for txn in script {
        let mut held = HashSet::new();
        for &step in txn {
            match step {
                Step::Read(w) | Step::Write(w, _) => {
                    held.insert(key(w / 8));
                }
                Step::Update(w, _) => fresh += u64::from(held.insert(key(w / 8))),
                Step::Abort => break,
            }
        }
    }
    fresh
}

/// Both ways on two fresh engines from `build`; `key` as for `fresh_rmws`.
fn check<T: ConcurrentTable>(
    build: impl Fn() -> Stm<T>,
    key: impl Fn(&Stm<T>, u64) -> u64,
    script: &[Vec<Step>],
) -> Result<(), TestCaseError> {
    let (direct, composed) = (build(), build());
    prop_assert_eq!(play(&direct, script, false), play(&composed, script, true));
    let (d, c) = (
        direct.table().stats_snapshot(),
        composed.table().stats_snapshot(),
    );
    let fresh = fresh_rmws(script, |block| key(&direct, block));
    prop_assert_eq!(c.grants - d.grants, fresh);
    prop_assert_eq!(c.upgrades - d.upgrades, fresh);
    prop_assert_eq!(c.releases, d.releases);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn update_is_read_then_write_with_one_grant_less_per_fresh_key(script in arb_script()) {
        // Four mask-hashed entries under eight blocks: every entry aliases.
        let tiny = StmBuilder::new().heap_words(64).table_entries(4).hash(HashKind::Mask);
        check(|| tiny.build_tagless(), |stm, block| stm.table().grant_key(block), &script)?;
        check(|| tiny.build_tagged(), |stm, block| stm.table().grant_key(block), &script)?;
        // The adaptive table reports the wrapped tagless table's counts,
        // which are per entry, not per its block-address grant keys.
        check(
            || tiny.build_adaptive(ResizePolicy::default(), 1).0,
            |stm, block| stm.table().config().entry_of(block) as u64,
            &script,
        )?;
    }
}
