//! Model-based testing of the weak-keyed `RvMap`: against a plain
//! `HashMap` + explicit liveness model, under random interleavings of
//! inserts, lookups, removals, object deaths, collections, and
//! maintenance scans.
//!
//! Invariants:
//! * live-keyed entries are never lost and always retrievable;
//! * dead-keyed entries are (a) never visible once the maintainer has
//!   reported them, (b) reported *exactly once*, and (c) all reported by a
//!   full sweep;
//! * maintenance never touches entries the model says are live (unless the
//!   maintainer's live hook asked for removal — not used here).
//!
//! The model check replays the counterexample proptest once recorded for
//! this file, then a fixed battery of seeds; a failure names its case.

use std::collections::HashMap;

use rv_core::trees::{DeadOnly, RvMap};
use rv_core::Binding;
use rv_heap::{Heap, HeapConfig, ObjId, SplitMix64};
use rv_logic::ParamId;

#[derive(Clone, Copy, Debug)]
enum Op {
    Insert { slot: usize, value: u32 },
    Get { slot: usize },
    Remove { slot: usize },
    Kill { slot: usize },
    Collect,
    Scan { n: usize },
    SweepAll,
}

/// A random op, weighted 4:3:1:2:2:2:1 in declaration order.
fn random_op(rng: &mut SplitMix64) -> Op {
    let slot = rng.next_u64() as usize;
    match rng.gen_range(15) {
        0..=3 => Op::Insert { slot, value: rng.next_u64() as u32 },
        4..=6 => Op::Get { slot },
        7 => Op::Remove { slot },
        8..=9 => Op::Kill { slot },
        10..=11 => Op::Collect,
        12..=13 => Op::Scan { n: 1 + rng.gen_range(7) },
        _ => Op::SweepAll,
    }
}

const POOL: usize = 8;

/// Checks dead-key reports against the model: each reported key must be
/// collected and held by the model, which then drops it — so a key can be
/// reported only once.
fn settle(
    found: Vec<Binding>,
    pool: &[ObjId],
    collected: &[bool; POOL],
    model: &mut HashMap<usize, u32>,
    case: &str,
) {
    for b in found {
        let dead_slot = pool
            .iter()
            .position(|&o| Some(o) == b.get(ParamId(0)))
            .unwrap_or_else(|| panic!("{case}: reported key {b:?} is not from the pool"));
        assert!(collected[dead_slot], "{case}: reported a live key");
        assert!(
            model.remove(&dead_slot).is_some(),
            "{case}: reported an entry the model does not hold"
        );
    }
}

/// Replays `ops` against a fresh heap, an `RvMap` and the model; `case`
/// labels any failure.
fn check_ops(case: &str, ops: &[Op]) {
    let mut heap = Heap::new(HeapConfig::manual());
    let cls = heap.register_class("Obj");
    // Allocate in a frame that exits immediately: liveness is governed
    // solely by the pins, so Kill + Collect really reclaims.
    let frame = heap.enter_frame();
    let pool: Vec<ObjId> = (0..POOL)
        .map(|_| {
            let o = heap.alloc(cls);
            heap.pin(o);
            o
        })
        .collect();
    heap.exit_frame(frame);
    let key = |slot: usize| Binding::from_pairs(&[(ParamId(0), pool[slot % POOL])]);

    let mut map: RvMap<u32> = RvMap::new();
    // Model: slot → value for entries the map should still hold, plus
    // liveness and a kill/collect phase tracker.
    let mut model: HashMap<usize, u32> = HashMap::new();
    let mut alive = [true; POOL];
    let mut collected = [false; POOL]; // actually swept (post-Collect)

    for &op in ops {
        let mut found: Vec<Binding> = Vec::new();
        let mut rec = DeadOnly(|b: Binding, _v: u32| found.push(b));
        match op {
            Op::Insert { slot, value } => {
                let s = slot % POOL;
                // Only live objects can key new entries (the engine
                // inserts at event time, when objects are live). Dead
                // discoveries during the insert's window scan are
                // legitimate; they are validated below.
                if alive[s] && !collected[s] {
                    map.insert(&heap, key(s), value, &mut rec);
                    model.insert(s, value);
                    settle(found, &pool, &collected, &mut model, case);
                }
            }
            Op::Get { slot } => {
                let s = slot % POOL;
                let got = map.get_mut(&heap, key(s), &mut rec).copied();
                settle(found, &pool, &collected, &mut model, case);
                // The lookup itself: if the model holds the slot and it
                // was not just reported, values must agree.
                if !collected[s] {
                    assert_eq!(got, model.get(&s).copied(), "{case}");
                }
            }
            Op::Remove { slot } => {
                let s = slot % POOL;
                assert_eq!(map.remove(&key(s)), model.remove(&s), "{case}");
            }
            Op::Kill { slot } => {
                let s = slot % POOL;
                if alive[s] {
                    alive[s] = false;
                    heap.unpin(pool[s]);
                }
            }
            Op::Collect => {
                heap.collect();
                for s in 0..POOL {
                    if !alive[s] {
                        collected[s] = true;
                    }
                }
            }
            Op::Scan { n } => {
                map.expunge(&heap, n, &mut rec);
                settle(found, &pool, &collected, &mut model, case);
            }
            Op::SweepAll => {
                map.expunge_all(&heap, &mut rec);
                settle(found, &pool, &collected, &mut model, case);
                // After a full sweep, no dead-keyed entries remain.
                for s in model.keys() {
                    assert!(!collected[*s], "{case}: dead entry survived a full sweep");
                }
            }
        }
        // The model drops entries as they are reported, so the map
        // holds exactly the model's entries after every op.
        assert_eq!(map.len(), model.len(), "{case}");
    }
}

#[test]
fn rvmap_agrees_with_the_model() {
    // The counterexample proptest shrank and recorded for this file runs
    // first, as proptest ran it.
    let recorded = [
        Op::Insert { slot: 7440773881247672111_u64 as usize, value: 0 },
        Op::Kill { slot: 518431429251368703_u64 as usize },
        Op::Collect,
        Op::SweepAll,
    ];
    check_ops("recorded ops", &recorded);
    for seed in 0..256 {
        let mut rng = SplitMix64::new(seed);
        let ops: Vec<Op> = (0..rng.gen_range(80)).map(|_| random_op(&mut rng)).collect();
        check_ops(&format!("seed {seed}"), &ops);
    }
}
