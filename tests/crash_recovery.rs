//! Durability suite: snapshot round-trips over the full property catalog
//! and the kill-at-any-byte crash sweep.
//!
//! Part one snapshots a mid-flight [`PropertyMonitor`] for every catalog
//! property under every GC policy, restores it into a fresh monitor, and
//! drives both twins over the identical event suffix: the restored run
//! must be byte-identical at the snapshot point and verdict-identical at
//! the end (modulo the deliberately cold lookup cache). Part two runs
//! [`crash_and_recover`] across seeds × kill classes and asserts the
//! recovered run equals the uninterrupted oracle with zero duplicate
//! goal-report deliveries.

use rv_monitor::core::{
    crash_and_recover, Binding, EngineConfig, GcPolicy, KillClass, PropertyMonitor,
};
use rv_monitor::heap::{Heap, HeapConfig, ObjId, SplitMix64};
use rv_monitor::logic::EventId;
use rv_monitor::props::{compiled, Property};
use rv_monitor::spec::CompiledSpec;

const POOL: usize = 6;
const POLICIES: [GcPolicy; 3] = [GcPolicy::None, GcPolicy::AllParamsDead, GcPolicy::CoenableLazy];

/// One scheduled step of the deterministic workload driver.
enum Step {
    Kill(usize),
    Collect,
    Event(EventId, Vec<(rv_monitor::logic::ParamId, usize)>),
}

/// A seed-reproducible schedule of kills, collections, and events over a
/// fixed pool of parameter objects — the same shape the chaos and crash
/// harnesses use, regenerated here so the test is a pure function of
/// `(spec, seed)`.
fn schedule(spec: &CompiledSpec, seed: u64, events: usize) -> Vec<Step> {
    let mut rng = SplitMix64::new(seed ^ 0x5851_f42d_4c95_7f2d);
    let mut steps = Vec::new();
    let mut emitted = 0;
    while emitted < events {
        if rng.chance(0.15) {
            steps.push(Step::Kill(rng.gen_range(POOL)));
        } else if rng.chance(0.08) {
            steps.push(Step::Collect);
        } else {
            let e = EventId(rng.gen_range(spec.alphabet.len()) as u16);
            let slots =
                spec.event_params[e.as_usize()].iter().map(|&p| (p, rng.gen_range(POOL))).collect();
            steps.push(Step::Event(e, slots));
            emitted += 1;
        }
    }
    steps
}

fn fresh_pool(heap: &mut Heap, class: rv_monitor::heap::ClassId) -> Vec<ObjId> {
    let frame = heap.enter_frame();
    let pool: Vec<ObjId> = (0..POOL).map(|_| heap.alloc(class)).collect();
    for &o in &pool {
        heap.pin(o);
    }
    heap.exit_frame(frame);
    pool
}

fn apply(
    step: &Step,
    heap: &mut Heap,
    class: rv_monitor::heap::ClassId,
    pool: &mut [ObjId],
    monitors: &mut [&mut PropertyMonitor],
) {
    match step {
        Step::Kill(slot) => {
            heap.unpin(pool[*slot]);
            let frame = heap.enter_frame();
            let fresh = heap.alloc(class);
            heap.pin(fresh);
            heap.exit_frame(frame);
            pool[*slot] = fresh;
        }
        Step::Collect => {
            heap.collect();
        }
        Step::Event(e, slots) => {
            let pairs: Vec<_> = slots.iter().map(|&(p, s)| (p, pool[s])).collect();
            let binding = Binding::from_pairs(&pairs);
            for m in monitors.iter_mut() {
                m.try_process(heap, *e, binding).expect("engine accepts scheduled event");
            }
        }
    }
}

/// Engine statistics with the lookup-cache counter zeroed: a restored
/// monitor deliberately starts with a cold cache, so `cache_hits` is the
/// one counter allowed to differ between the twins.
fn normalized(m: &PropertyMonitor) -> rv_monitor::core::EngineStats {
    let mut s = m.stats();
    s.cache_hits = 0;
    s
}

fn round_trip_one(spec: &CompiledSpec, policy: GcPolicy, seed: u64, events: usize, split: usize) {
    let config = EngineConfig { policy, record_triggers: true, ..EngineConfig::default() };
    let mut original = PropertyMonitor::new(spec.clone(), &config);
    let mut heap = Heap::new(HeapConfig::manual());
    let class = heap.register_class("Obj");
    let mut pool = fresh_pool(&mut heap, class);
    let steps = schedule(spec, seed, events);

    for step in &steps[..split] {
        apply(step, &mut heap, class, &mut pool, &mut [&mut original]);
    }
    let ctx = format!("{}/{policy:?}/seed {seed}", spec.name);
    let snap = original.snapshot_bytes().unwrap_or_else(|| panic!("{ctx}: unserializable state"));
    let mut restored = PropertyMonitor::new(spec.clone(), &config);
    restored
        .restore_snapshot(&snap, "<memory>")
        .unwrap_or_else(|e| panic!("{ctx}: restore own snapshot: {e}"));
    assert_eq!(
        restored.snapshot_bytes().unwrap_or_else(|| panic!("{ctx}: re-serialize")),
        snap,
        "{}/{policy:?}/seed {seed}: restore → snapshot must be byte-identical",
        spec.name
    );
    restored
        .check_invariants(&heap)
        .unwrap_or_else(|e| panic!("{ctx}: restored state is unsound: {e}"));

    for step in &steps[split..] {
        apply(step, &mut heap, class, &mut pool, &mut [&mut original, &mut restored]);
    }
    original.finish(&heap);
    restored.finish(&heap);
    assert_eq!(
        normalized(&original),
        normalized(&restored),
        "{}/{policy:?}/seed {seed}: twins diverged after the split",
        spec.name
    );
    for (a, b) in original.engines().iter().zip(restored.engines()) {
        assert_eq!(a.triggers(), b.triggers(), "{}/{policy:?}/seed {seed}", spec.name);
    }
}

/// Every catalog property, every GC policy: snapshot mid-run, restore,
/// and the twin runs stay in lock-step to the end of the trace.
#[test]
fn snapshot_round_trips_for_every_catalog_property_and_policy() {
    for property in Property::ALL {
        let spec = compiled(property).expect("catalog property compiles");
        for policy in POLICIES {
            round_trip_one(&spec, policy, 11, 96, 40);
        }
    }
}

/// A snapshot taken at step 0 (before any event) and at the very end of
/// the trace both round-trip — the boundary cases of the split point.
#[test]
fn snapshot_round_trips_at_trace_boundaries() {
    let spec = compiled(Property::UnsafeMapIter).expect("catalog property compiles");
    for split in [0, 60] {
        round_trip_one(&spec, GcPolicy::CoenableLazy, 3, 60, split);
    }
}

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("rv-crash-sweep-{}-{tag}", std::process::id()))
}

/// The crash sweep proper: every kill class against every catalog
/// property under the paper's coenable policy. Each run crashes at a
/// seed-chosen operation, mutilates the journal or checkpoint per the
/// kill class, recovers, finishes the trace, and must equal the
/// uninterrupted oracle with zero duplicate goal-report deliveries.
#[test]
fn every_property_survives_every_kill_class() {
    for (pi, property) in Property::ALL.into_iter().enumerate() {
        let spec = compiled(property).expect("catalog property compiles");
        for (ki, kill) in KillClass::ALL.into_iter().enumerate() {
            let dir = scratch(&format!("p{pi}k{ki}"));
            let out =
                crash_and_recover(property.source(), GcPolicy::CoenableLazy, 23, 96, 8, kill, &dir)
                    .expect("harness runs clean");
            assert!(
                out.ok(),
                "{}/{}: verdicts_match={} stats_match={} dups={} delivered={} (oracle {})",
                spec.name,
                kill.label(),
                out.verdicts_match(),
                out.stats_match(),
                out.duplicate_deliveries,
                out.delivered,
                out.oracle_stats.triggers
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Seeds × policies on one representative property: the crash point and
/// the mutilation move with the seed, so this sweeps many distinct
/// kill offsets.
#[test]
fn seed_sweep_crashes_at_many_offsets_without_duplicates() {
    let source = Property::UnsafeIter.source();
    for policy in POLICIES {
        for seed in [1u64, 2, 3, 5, 8] {
            for (ki, kill) in KillClass::ALL.into_iter().enumerate() {
                let dir = scratch(&format!("s{seed}{policy:?}k{ki}"));
                let out = crash_and_recover(source, policy, seed, 80, 6, kill, &dir)
                    .expect("harness runs clean");
                assert!(
                    out.ok(),
                    "{policy:?}/seed {seed}/{}: dups={} lost={}",
                    kill.label(),
                    out.duplicate_deliveries,
                    out.lost_bytes
                );
                assert_eq!(out.duplicate_deliveries, 0);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

/// Seeded round-trip: each seed chooses the property, policy, trace
/// length and split point, and seeds the trace itself.
#[test]
fn any_split_point_round_trips() {
    for seed in 0..48 {
        let mut rng = SplitMix64::new(seed);
        let property = Property::ALL[rng.gen_range(Property::ALL.len())];
        let policy = POLICIES[rng.gen_range(POLICIES.len())];
        let events = 8 + rng.gen_range(56);
        let spec = compiled(property).expect("catalog property compiles");
        let steps = schedule(&spec, seed, events).len();
        let split = ((steps as f64) * rng.next_f64()) as usize;
        round_trip_one(&spec, policy, seed, events, split.min(steps));
    }
}
