//! The sharded-engine differential suite: for every catalog property,
//! every GC policy, a ladder of shard counts (including a prime one, so
//! routing is exercised off the power-of-two happy path), and a battery
//! of fixed seeds, run the same random workload through
//!
//! 1. the sequential [`PropertyMonitor`](rv_monitor::core::PropertyMonitor),
//! 2. the sharded [`ShardedMonitor`](rv_monitor::core::ShardedMonitor), and
//! 3. the Figure 5 reference oracle,
//!
//! and assert equal verdicts and trigger multisets per block, plus the
//! sharding accounting identities: merged `events` equals total
//! deliveries, the merged peak is the max (not the sum) of the per-shard
//! peaks, and a 1-shard run reproduces the sequential stats verbatim.
//!
//! Runs on the default (offline) build — no external dependencies.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rv_monitor::core::{
    differential_run, differential_run_with, Binding, EngineConfig, GcPolicy, HandlerFactory,
    NoopObserver, PropertyMonitor, ShardConfig, ShardDifferential, ShardedMonitor, Trigger,
};
use rv_monitor::heap::{Heap, HeapConfig, ObjId};
use rv_monitor::props::Property;
use rv_monitor::spec::CompiledSpec;

const SEEDS: [u64; 4] = [3, 11, 29, 47];
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];
const EVENTS: usize = 128;

/// Runs the full catalog × shard-count × seed battery for one policy.
fn battery(policy: GcPolicy) -> Vec<ShardDifferential> {
    let mut outcomes = Vec::new();
    for property in Property::ALL {
        let spec = rv_monitor::props::compiled(property).expect("catalog compiles");
        for shards in SHARD_COUNTS {
            for seed in SEEDS {
                let cfg = ShardConfig { shards, batch: 16, seed: 0x5EED };
                let out = differential_run(&spec, policy, cfg, seed, EVENTS)
                    .unwrap_or_else(|e| panic!("{property:?} shards {shards} seed {seed}: {e}"));
                assert!(
                    out.matches(),
                    "{property:?} {policy:?} shards {shards} seed {seed}:\n{}",
                    out.mismatches.join("\n")
                );
                assert_eq!(out.trace_len, EVENTS);
                outcomes.push(out);
            }
        }
    }
    outcomes
}

/// A battery proves nothing if no property ever fired, no event was ever
/// broadcast (partial instances), and no event was ever routed: check the
/// aggregates.
fn assert_not_vacuous(outcomes: &[ShardDifferential]) {
    let triggers: usize = outcomes.iter().map(|o| o.report.triggers.len()).sum();
    let routed: u64 = outcomes.iter().map(|o| o.report.routed_events).sum();
    let broadcast: u64 = outcomes
        .iter()
        .filter(|o| o.report.per_shard.len() > 1)
        .map(|o| o.report.broadcast_events)
        .sum();
    assert!(triggers > 0, "no property ever triggered — the workload is too tame");
    assert!(routed > 0, "no event was ever routed by its owner object");
    assert!(broadcast > 0, "no partial instance was ever broadcast");
}

#[test]
fn shard_equivalence_policy_none() {
    assert_not_vacuous(&battery(GcPolicy::None));
}

#[test]
fn shard_equivalence_policy_all_params_dead() {
    assert_not_vacuous(&battery(GcPolicy::AllParamsDead));
}

#[test]
fn shard_equivalence_policy_coenable_lazy() {
    let outcomes = battery(GcPolicy::CoenableLazy);
    assert_not_vacuous(&outcomes);
    // The GC machinery must actually run inside the shards, or the suite
    // is not testing "GC per shard, unchanged".
    let collected: u64 = outcomes.iter().map(|o| o.report.stats.monitors_collected).sum();
    assert!(collected > 0, "sharded engines never collected a monitor");
}

/// The merged peak must be the max of the per-shard peaks — the exact
/// high-water-mark semantics the `merge_from` fix introduced — while the
/// additive counters must be the per-shard sums.
#[test]
fn merged_stats_follow_peak_vs_counter_semantics() {
    let spec = rv_monitor::props::compiled(Property::UnsafeIter).unwrap();
    for shards in SHARD_COUNTS {
        let cfg = ShardConfig { shards, batch: 8, seed: 1 };
        let out = differential_run(&spec, GcPolicy::CoenableLazy, cfg, 5, EVENTS).unwrap();
        assert!(out.matches(), "shards {shards}: {:?}", out.mismatches);
        let report = &out.report;
        assert_eq!(report.per_shard.len(), shards);
        let peak_max = report.per_shard.iter().map(|s| s.peak_live_monitors).max().unwrap();
        let events_sum: u64 = report.per_shard.iter().map(|s| s.events).sum();
        assert_eq!(report.stats.peak_live_monitors, peak_max, "peaks merge with max");
        assert_eq!(report.stats.events, events_sum, "additive counters merge with +");
        assert_eq!(report.stats.events, report.deliveries);
    }
}

// --- Degradation ladder under sharding -----------------------------------
//
// The PR-2 ladder (ForcedSweep → EagerCollect → ShedNewMonitors) is
// engine-local state: budgets trip per engine, and a sharded monitor has
// one engine per block per shard. The sweep rungs are verdict-preserving
// (they only reclaim *dead* monitors), so any workload must produce
// identical trigger streams at any shard count. The shed rung drops
// monitor creations, so determinism across shard counts needs the whole
// slice population on one shard — a single owner object routes every
// owner-bound event (and with it every monitor creation) to the same
// worker at every count, making the shed decisions, and therefore the
// trigger stream, reproducible bit-for-bit.

/// The single-owner workload: one collection, many iterators. All
/// creations come first so the live-monitor population actually climbs
/// (a create→update→next triple would retire each matched monitor
/// before the next creation), then one update, then every iterator is
/// advanced — each surviving monitor fires UnsafeIter's match.
fn single_owner_trace(
    spec: &CompiledSpec,
    c: ObjId,
    iters: &[ObjId],
) -> Vec<(&'static str, Binding)> {
    let params = |name: &str| {
        let e = spec.alphabet.lookup(name).expect("catalog event");
        spec.event_params[e.as_usize()].clone()
    };
    let (pc, pu, pn) = (params("create"), params("update"), params("next"));
    let mut trace = Vec::new();
    for &i in iters {
        trace.push(("create", Binding::from_pairs(&[(pc[0], c), (pc[1], i)])));
    }
    trace.push(("update", Binding::from_pairs(&[(pu[0], c)])));
    for &i in iters {
        trace.push(("next", Binding::from_pairs(&[(pn[0], i)])));
    }
    trace
}

fn single_owner_heap(iters: usize) -> (Heap, ObjId, Vec<ObjId>) {
    let mut heap = Heap::new(HeapConfig::manual());
    let class = heap.register_class("Obj");
    let frame = heap.enter_frame();
    let c = heap.alloc(class);
    heap.pin(c);
    let iters: Vec<ObjId> = (0..iters)
        .map(|_| {
            let o = heap.alloc(class);
            heap.pin(o);
            o
        })
        .collect();
    heap.exit_frame(frame);
    (heap, c, iters)
}

/// Runs the single-owner workload through a sharded monitor, returning
/// the ordered per-block trigger stream and the merged stats.
fn sharded_single_owner(
    spec: &CompiledSpec,
    config: &EngineConfig,
    shards: usize,
    handlers: Option<HandlerFactory>,
) -> (Vec<Trigger>, rv_monitor::core::EngineStats) {
    let (heap, c, iters) = single_owner_heap(24);
    let trace = single_owner_trace(spec, c, &iters);
    let cfg = ShardConfig { shards, batch: 4, seed: 0x5EED };
    let mut sharded = ShardedMonitor::with_observers_and_handlers(
        spec.clone(),
        config,
        cfg,
        |_, _| NoopObserver,
        handlers,
    );
    let mut session = sharded.session(&heap);
    for (name, binding) in &trace {
        session.process_named(name, *binding);
    }
    drop(session);
    let report = sharded.finish(&heap);
    assert!(report.error.is_none(), "shards {shards}: {:?}", report.error);
    (report.block_triggers(0), report.stats)
}

/// The same workload through the sequential engine (the ground truth).
fn sequential_single_owner(
    spec: &CompiledSpec,
    config: &EngineConfig,
    panic_handlers: bool,
) -> (Vec<Trigger>, rv_monitor::core::EngineStats) {
    let (heap, c, iters) = single_owner_heap(24);
    let trace = single_owner_trace(spec, c, &iters);
    let mut config = config.clone();
    config.record_triggers = true;
    let mut monitor = PropertyMonitor::new(spec.clone(), &config);
    if panic_handlers {
        for engine in monitor.engines_mut() {
            engine.set_trigger_handler(|_, _, _| panic!("injected ladder-test handler panic"));
        }
    }
    for (name, binding) in &trace {
        monitor
            .try_process_named(&heap, name, *binding)
            .unwrap_or_else(|e| panic!("sequential: {e}"));
    }
    (monitor.engines()[0].triggers().to_vec(), monitor.stats())
}

/// The degradation ladder's rungs (ForcedSweep, EagerCollect, then
/// shedding) under budget pressure: the random differential workload must
/// agree sharded-vs-sequential at every shard count (the Figure 5 oracle
/// is not consulted — it models no budgets).
#[test]
fn sweep_rungs_under_budget_pressure_match_sequential_at_all_shard_counts() {
    let spec = rv_monitor::props::compiled(Property::UnsafeIter).unwrap();
    let config = EngineConfig {
        max_live_monitors: Some(6),
        record_triggers: true,
        ..EngineConfig::default()
    };
    let mut streams = Vec::new();
    let mut trips = 0;
    for shards in [1usize, 2, 4] {
        let cfg = ShardConfig { shards, batch: 8, seed: 0x5EED };
        let out = differential_run_with(&spec, &config, cfg, 13, EVENTS)
            .unwrap_or_else(|e| panic!("shards {shards}: {e}"));
        assert!(out.matches(), "shards {shards}:\n{}", out.mismatches.join("\n"));
        trips += out.report.stats.budget_trips;
        streams.push((shards, out.report.triggers));
    }
    assert!(trips > 0, "the budget never tripped — workload too tame");
    for pair in streams.windows(2) {
        assert_eq!(
            pair[0].1, pair[1].1,
            "shards {} and {} disagree on the trigger stream",
            pair[0].0, pair[1].0
        );
    }
}

/// The shed rung with a single-owner workload: every monitor creation
/// lands on the owner's shard, so the hard cap sheds the *same*
/// creations at shard counts 1, 2 and 4 — trigger streams and shed
/// counts are identical to each other and to the sequential engine.
#[test]
fn shed_rung_is_deterministic_across_shard_counts() {
    let spec = rv_monitor::props::compiled(Property::UnsafeIter).unwrap();
    let config = EngineConfig {
        max_live_monitors: Some(4),
        record_triggers: true,
        ..EngineConfig::default()
    };
    let (seq_triggers, seq_stats) = sequential_single_owner(&spec, &config, false);
    assert!(seq_stats.shed > 0, "the cap never shed a creation — workload too tame");
    assert!(seq_stats.budget_trips > 0);
    assert!(!seq_triggers.is_empty(), "shedding must degrade, not silence, the monitor");
    for shards in [1usize, 2, 4] {
        let (triggers, stats) = sharded_single_owner(&spec, &config, shards, None);
        assert_eq!(
            triggers, seq_triggers,
            "shards {shards}: shed trigger stream diverged from sequential"
        );
        assert_eq!(stats.shed, seq_stats.shed, "shards {shards}: shed counts diverged");
        assert_eq!(
            stats.budget_trips, seq_stats.budget_trips,
            "shards {shards}: budget trips diverged"
        );
        assert_eq!(
            stats.degradations, seq_stats.degradations,
            "shards {shards}: ladder transitions diverged"
        );
    }
}

/// Panicking trigger handlers inside shard workers: the engine's panic
/// boundary quarantines the offending monitor on its shard; the recorded
/// trigger streams and quarantine counts are identical at shard counts
/// {1, 2, 4} and match the sequential engine with the same handler.
#[test]
fn handler_quarantine_is_deterministic_across_shard_counts() {
    let spec = rv_monitor::props::compiled(Property::UnsafeIter).unwrap();
    let config = EngineConfig { record_triggers: true, ..EngineConfig::default() };
    let (seq_triggers, seq_stats) = sequential_single_owner(&spec, &config, true);
    assert!(seq_stats.quarantined > 0, "the panicking handler never quarantined a monitor");
    for shards in [1usize, 2, 4] {
        let invocations = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&invocations);
        let factory: HandlerFactory = Arc::new(move |_shard, _block| {
            let counter = Arc::clone(&counter);
            Some(Box::new(move |_step, _binding: &Binding, _verdict| {
                counter.fetch_add(1, Ordering::Relaxed);
                panic!("injected ladder-test handler panic");
            }))
        });
        let (triggers, stats) = sharded_single_owner(&spec, &config, shards, Some(factory));
        assert_eq!(
            triggers, seq_triggers,
            "shards {shards}: quarantine trigger stream diverged from sequential"
        );
        assert_eq!(
            stats.quarantined, seq_stats.quarantined,
            "shards {shards}: quarantine counts diverged"
        );
        assert_eq!(
            invocations.load(Ordering::Relaxed),
            seq_stats.triggers,
            "shards {shards}: every report must reach the handler exactly once"
        );
    }
}

/// Trigger output is keyed `(event_seq, ordinal)` and must be identical
/// across shard counts — determinism regardless of thread interleaving.
#[test]
fn trigger_streams_are_identical_across_shard_counts() {
    let spec = rv_monitor::props::compiled(Property::UnsafeMapIter).unwrap();
    let mut streams = Vec::new();
    for shards in SHARD_COUNTS {
        let cfg = ShardConfig { shards, batch: 8, seed: 0x5EED };
        let out = differential_run(&spec, GcPolicy::AllParamsDead, cfg, 17, EVENTS).unwrap();
        assert!(out.matches(), "shards {shards}: {:?}", out.mismatches);
        streams.push((shards, out.report.triggers));
    }
    for pair in streams.windows(2) {
        assert_eq!(
            pair[0].1, pair[1].1,
            "shards {} and {} disagree on the ordered trigger stream",
            pair[0].0, pair[1].0
        );
    }
}
