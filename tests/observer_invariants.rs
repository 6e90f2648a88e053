//! Observer/stats parity: every lifecycle callback delivered through
//! [`EngineObserver`] must agree with the engine's own [`EngineStats`]
//! counters — the observability layer is a *view* of the pipeline, never a
//! second bookkeeping source that can drift.
//!
//! Each catalog property is driven through a deterministic workload that
//! exercises creation, flagging (object death + GC), collection, sweeps
//! and triggers, under every GC policy.

use std::collections::HashMap;

use rv_monitor::core::{
    Binding, BudgetKind, DegradationPolicy, EngineConfig, EngineObserver, EngineStats, FlagCause,
    GcPolicy, MetricsRegistry, MonitorId, Phase, PhaseProfiler, PropertyMonitor, ProvenanceLedger,
    ShardConfig, ShardedMonitor, TraceRecorder,
};
use rv_monitor::heap::{Heap, HeapConfig, ObjId};
use rv_monitor::logic::{EventId, ParamId, ParamSet, Verdict};
use rv_monitor::props::{compiled, Property};
use rv_monitor::spec::CompiledSpec;

/// Counts every callback; the plainest possible observer.
#[derive(Clone, Copy, Debug, Default)]
struct Counting {
    events: u64,
    created: u64,
    flagged: u64,
    collected: u64,
    dead_keys: u64,
    triggers: u64,
    sweeps_started: u64,
    sweeps_finished: u64,
    sweep_flagged: u64,
    sweep_collected: u64,
    budget_trips: u64,
    deg_entered: u64,
    deg_exited: u64,
    shed: u64,
    quarantined: u64,
}

impl EngineObserver for Counting {
    fn event_dispatched(&mut self, _event: EventId, _binding: &Binding, _touched: usize) {
        self.events += 1;
    }
    fn monitor_created(&mut self, _id: MonitorId, _binding: &Binding) {
        self.created += 1;
    }
    fn monitor_flagged(
        &mut self,
        _id: MonitorId,
        _binding: &Binding,
        _last_event: EventId,
        _dead: ParamSet,
        _cause: FlagCause,
    ) {
        self.flagged += 1;
    }
    fn monitor_collected(&mut self, _id: MonitorId) {
        self.collected += 1;
    }
    fn dead_key_discovered(&mut self, _key: &Binding) {
        self.dead_keys += 1;
    }
    fn sweep_started(&mut self) {
        self.sweeps_started += 1;
    }
    fn sweep_finished(&mut self, flagged: u64, collected: u64) {
        self.sweeps_finished += 1;
        self.sweep_flagged += flagged;
        self.sweep_collected += collected;
    }
    fn trigger_fired(&mut self, _step: usize, _binding: &Binding, _verdict: Verdict) {
        self.triggers += 1;
    }
    fn budget_tripped(&mut self, _budget: BudgetKind, _observed: u64, _limit: u64) {
        self.budget_trips += 1;
    }
    fn degradation_entered(&mut self, _level: DegradationPolicy) {
        self.deg_entered += 1;
    }
    fn degradation_exited(&mut self, _level: DegradationPolicy) {
        self.deg_exited += 1;
    }
    fn monitor_shed(&mut self, _binding: &Binding) {
        self.shed += 1;
    }
    fn monitor_quarantined(&mut self, _id: MonitorId, _binding: &Binding) {
        self.quarantined += 1;
    }
}

/// Drives `spec` through a deterministic workload with observers built by
/// `make`, returning the per-block observers paired with their engines'
/// stats.
///
/// The workload allocates a fresh object per spec parameter each round,
/// replays the whole alphabet over those objects (multi-round, so lookup
/// caches both hit and miss), then drops the objects, collects the heap
/// and sweeps — exercising creation, flagging, collection, dead keys and
/// triggers.
fn drive<O: EngineObserver>(
    spec: CompiledSpec,
    config: &EngineConfig,
    make: impl FnMut(usize) -> O,
) -> Vec<(O, EngineStats)>
where
    O: std::fmt::Debug + Default,
{
    let event_params = spec.event_params.clone();
    let n_params = spec.param_classes.len();
    let n_events = spec.alphabet.len();
    let mut monitor = PropertyMonitor::with_observers(spec, config, make);
    let mut heap = Heap::new(HeapConfig::manual());
    let cls = heap.register_class("Obj");

    for round in 0..6 {
        let frame = heap.enter_frame();
        let objs: Vec<ObjId> = (0..n_params.max(1)).map(|_| heap.alloc(cls)).collect();
        // Two passes over the alphabet per round: the second replays the
        // same parameter instances, so consecutive same-binding events can
        // serve from the lookup cache.
        for _pass in 0..2 {
            for e in 0..n_events {
                let event = EventId(u16::try_from(e).unwrap());
                let pairs: Vec<_> =
                    event_params[e].iter().map(|&p| (p, objs[p.0 as usize])).collect();
                monitor.process(&heap, event, Binding::from_pairs(&pairs));
            }
        }
        heap.exit_frame(frame);
        if round % 2 == 1 {
            heap.collect();
            for engine in monitor.engines_mut() {
                engine.full_sweep(&heap);
            }
        }
    }
    heap.collect();
    monitor.finish(&heap);

    monitor
        .engines_mut()
        .iter_mut()
        .map(|e| {
            let stats = e.stats();
            (std::mem::take(&mut *e.observer_mut()), stats)
        })
        .collect()
}

/// Every catalog property, under every GC policy: observer callback counts
/// must equal the engine's own counters, and the lifecycle identity
/// `live == created − collected` must hold.
#[test]
fn observer_counts_match_engine_stats_for_all_catalog_properties() {
    for p in Property::ALL {
        for policy in [GcPolicy::None, GcPolicy::AllParamsDead, GcPolicy::CoenableLazy] {
            let spec = compiled(p).unwrap();
            let config = EngineConfig { policy, record_triggers: true, ..EngineConfig::default() };
            for (block, (obs, stats)) in
                drive(spec, &config, |_| Counting::default()).into_iter().enumerate()
            {
                let ctx = format!("{p:?} block {block} policy {policy:?}");
                assert_eq!(obs.events, stats.events, "{ctx}: events");
                assert_eq!(obs.created, stats.monitors_created, "{ctx}: created");
                assert_eq!(obs.flagged, stats.monitors_flagged, "{ctx}: flagged");
                assert_eq!(obs.collected, stats.monitors_collected, "{ctx}: collected");
                assert_eq!(obs.dead_keys, stats.dead_keys, "{ctx}: dead keys");
                assert_eq!(obs.triggers, stats.triggers, "{ctx}: triggers");
                assert_eq!(obs.budget_trips, stats.budget_trips, "{ctx}: budget trips");
                assert_eq!(obs.deg_entered, stats.degradations, "{ctx}: degradations");
                assert_eq!(obs.shed, stats.shed, "{ctx}: shed");
                assert_eq!(obs.quarantined, stats.quarantined, "{ctx}: quarantined");
                assert_eq!(
                    stats.live_monitors as u64,
                    stats.monitors_created - stats.monitors_collected,
                    "{ctx}: live == created − collected"
                );
                assert!(
                    stats.monitors_flagged <= stats.monitors_created,
                    "{ctx}: flagged ≤ created"
                );
                assert!(
                    stats.monitors_collected <= stats.monitors_created,
                    "{ctx}: collected ≤ created"
                );
                assert!(stats.peak_live_monitors >= stats.live_monitors, "{ctx}: peak ≥ live");
                assert_eq!(obs.sweeps_started, obs.sweeps_finished, "{ctx}: sweeps balanced");
                assert!(obs.sweeps_started >= 1, "{ctx}: finish() sweeps at least once");
                assert!(
                    obs.sweep_flagged <= obs.flagged,
                    "{ctx}: sweep deltas are a subset of all flags"
                );
            }
        }
    }
}

/// The workload must actually exercise the interesting paths somewhere in
/// the catalog — a parity test over all-zero counters proves nothing.
#[test]
fn workload_reaches_creation_flagging_collection_and_triggers() {
    let mut total = Counting::default();
    let mut cache_hits = 0;
    for p in Property::ALL {
        let spec = compiled(p).unwrap();
        let config = EngineConfig { record_triggers: true, ..EngineConfig::default() };
        for (obs, stats) in drive(spec, &config, |_| Counting::default()) {
            total.events += obs.events;
            total.created += obs.created;
            total.flagged += obs.flagged;
            total.collected += obs.collected;
            total.dead_keys += obs.dead_keys;
            total.triggers += obs.triggers;
            cache_hits += stats.cache_hits;
        }
    }
    assert!(total.events > 0, "events dispatched");
    assert!(total.created > 0, "monitors created");
    assert!(total.flagged > 0, "monitors flagged");
    assert!(total.collected > 0, "monitors collected");
    assert!(total.dead_keys > 0, "dead keys discovered");
    assert!(total.triggers > 0, "triggers fired");
    assert!(cache_hits > 0, "lookup cache exercised");
}

/// The keys of the flat JSON object `"name":{…}` inside `json`.
fn object_keys<'a>(json: &'a str, name: &str) -> Vec<&'a str> {
    let open = format!("\"{name}\":{{");
    let start =
        json.find(&open).unwrap_or_else(|| panic!("no {name} object in {json}")) + open.len();
    let body = &json[start..start + json[start..].find('}').unwrap()];
    body.split(',').map(|kv| kv.split('"').nth(1).unwrap()).collect()
}

/// Asserts that `snap` embeds `stats` verbatim as its `"engine"` object and
/// that no count is kept twice: no key appears both there and under the
/// registry's own `"counters"`.
fn assert_engine_is_the_one_counter(snap: &str, stats: &EngineStats) {
    assert!(snap.contains(&format!("\"engine\":{}", stats.to_json())), "{snap}");
    let engine = object_keys(snap, "engine");
    for key in object_keys(snap, "counters") {
        assert!(!engine.contains(&key), "`{key}` is counted twice: {snap}");
    }
}

/// [`MetricsRegistry`] is itself an observer; its histograms must account
/// for exactly the events and collections the engine counted, and its JSON
/// snapshot must embed the engine stats verbatim as the one copy of
/// E/M/FM/CM.
#[test]
fn metrics_registry_snapshot_agrees_with_engine_stats() {
    let spec = compiled(Property::UnsafeIter).unwrap();
    let config = EngineConfig { record_triggers: true, ..EngineConfig::default() };
    for (obs, stats) in drive(spec, &config, |_| MetricsRegistry::new()) {
        assert_eq!(obs.touched_per_event().count(), stats.events);
        // Monitors collected before the final sweep have recorded
        // lifetimes; none may outlive the bookkeeping.
        assert_eq!(obs.lifetime_events().count(), stats.monitors_collected);
        let json = obs.snapshot_json(&stats, None);
        assert_engine_is_the_one_counter(&json, &stats);
        assert!(stats.events > 0 && stats.monitors_created > 0, "{json}");
    }
}

/// A composed `(TraceRecorder, MetricsRegistry)` observer — the pair the
/// `rvmon trace` CLI installs — delivers every callback to both halves.
#[test]
fn composed_observer_feeds_both_halves() {
    let spec = compiled(Property::HasNext).unwrap();
    let config = EngineConfig { record_triggers: true, ..EngineConfig::default() };
    let runs = drive(spec, &config, |_| (TraceRecorder::new(1 << 16), MetricsRegistry::new()));
    for ((recorder, metrics), stats) in runs {
        assert_eq!(metrics.touched_per_event().count(), stats.events);
        assert_eq!(recorder.dropped(), 0, "capacity was ample");
        // The ring holds one record per event/created/flagged/collected/
        // dead-key/trigger callback plus three per sweep (started,
        // finished, and the GC-cycle telemetry record).
        let expected = stats.events
            + stats.monitors_created
            + stats.monitors_flagged
            + stats.monitors_collected
            + stats.dead_keys
            + stats.triggers
            + 3 * metrics.sweeps();
        assert_eq!(recorder.records().len() as u64, expected);
        // Every record renders as a JSON object on its own line.
        for line in recorder.dump_jsonl().lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "bad JSONL line: {line}");
        }
    }
}

/// The trace ring buffer is bounded: overflow drops the *oldest* records
/// and accounts for them, rather than growing or silently truncating.
#[test]
fn trace_recorder_ring_drops_oldest_and_counts_them() {
    let spec = compiled(Property::UnsafeIter).unwrap();
    let config = EngineConfig::default();
    let runs = drive(spec, &config, |_| TraceRecorder::new(8));
    for (recorder, _) in runs {
        let records = recorder.records();
        assert!(records.len() <= 8);
        assert!(recorder.dropped() > 0, "tiny ring must overflow under the workload");
        // Sequence numbers stay contiguous and oldest-first after wrap.
        for w in records.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1, "records out of order");
        }
        assert_eq!(records[0].seq, recorder.dropped(), "dropped prefix is accounted");
    }
}

/// Drives UNSAFEITER into sustained resource pressure: every collection /
/// iterator pair stays rooted for the whole run, so with a small
/// `max_live_monitors` budget only the degradation ladder can bound the
/// monitor population.
fn drive_bloat<O: EngineObserver>(
    config: &EngineConfig,
    make: impl FnMut(usize) -> O,
) -> Vec<(O, EngineStats)>
where
    O: std::fmt::Debug + Default,
{
    let spec = compiled(Property::UnsafeIter).unwrap();
    let create = spec.alphabet.lookup("create").unwrap();
    let mut monitor = PropertyMonitor::with_observers(spec, config, make);
    let mut heap = Heap::new(HeapConfig::manual());
    let cls = heap.register_class("Obj");
    let _frame = heap.enter_frame(); // never exited: nothing ever dies
    let (c, i) = (ParamId(0), ParamId(1));
    for _ in 0..24 {
        let coll = heap.alloc(cls);
        let iter = heap.alloc(cls);
        monitor.process(&heap, create, Binding::from_pairs(&[(c, coll), (i, iter)]));
    }
    monitor
        .engines_mut()
        .iter_mut()
        .map(|e| {
            let stats = e.stats();
            (std::mem::take(&mut *e.observer_mut()), stats)
        })
        .collect()
}

/// Under the degradation ladder, the budget/degradation/shed callbacks
/// agree with [`EngineStats`], the budget is a hard cap, and the creation
/// ledger balances: every creation decision is either shed at the
/// admission gate, still live, or collected — `shed + created − collected
/// == shed + live`.
#[test]
fn degradation_observer_parity_and_ledger_under_the_full_ladder() {
    let config = EngineConfig { max_live_monitors: Some(4), ..EngineConfig::default() };
    for (block, (obs, stats)) in
        drive_bloat(&config, |_| Counting::default()).into_iter().enumerate()
    {
        let ctx = format!("block {block}");
        assert_eq!(obs.budget_trips, stats.budget_trips, "{ctx}: budget trips");
        assert_eq!(obs.deg_entered, stats.degradations, "{ctx}: degradations entered");
        assert_eq!(obs.shed, stats.shed, "{ctx}: shed");
        assert_eq!(obs.quarantined, stats.quarantined, "{ctx}: quarantined");
        assert!(obs.deg_exited <= obs.deg_entered, "{ctx}: exits ≤ entries");
        assert!(stats.budget_trips > 0, "{ctx}: the workload must trip the budget");
        assert!(stats.degradations > 0, "{ctx}: the ladder must engage");
        assert_eq!(
            stats.shed + stats.monitors_created - stats.monitors_collected,
            stats.shed + stats.live_monitors as u64,
            "{ctx}: shed/created/collected/live ledger must balance"
        );
        assert!(
            stats.peak_live_monitors <= 4,
            "{ctx}: the ladder enforces the budget as a hard cap ({stats})"
        );
        assert!(stats.shed > 0, "{ctx}: pressure without death must shed");
    }
}

/// Budget trips, ladder transitions and sheds are visible through both
/// structured observers: as JSONL records in [`TraceRecorder`] and, through
/// the embedded engine stats, in the [`MetricsRegistry`] snapshot.
#[test]
fn degradation_transitions_are_visible_in_trace_and_metrics() {
    let config = EngineConfig { max_live_monitors: Some(4), ..EngineConfig::default() };
    let runs = drive_bloat(&config, |_| (TraceRecorder::new(1 << 12), MetricsRegistry::new()));
    for ((recorder, metrics), stats) in runs {
        assert!(stats.budget_trips > 0);
        assert_eq!(recorder.dropped(), 0, "capacity was ample");
        let jsonl = recorder.dump_jsonl();
        let records = |kind: &str| jsonl.matches(&format!("\"kind\":\"{kind}\"")).count() as u64;
        assert_eq!(records("budget_tripped"), stats.budget_trips, "trip records:\n{jsonl}");
        assert_eq!(records("degradation_entered"), stats.degradations, "ladder:\n{jsonl}");
        assert_eq!(records("shed"), stats.shed, "shed records:\n{jsonl}");
        assert_eq!(records("degradation_exited"), metrics.degradations_exited());
        let snap = metrics.snapshot_json(&stats, None);
        assert_engine_is_the_one_counter(&snap, &stats);
    }
}

/// Every engine-instrumented phase span must balance — a `phase_timed`
/// callback counts both ends, and the external enter/exit call sites
/// (journal append, shard route) are not reachable here — for the whole
/// catalog under every GC policy. The hot-path phases must actually fire.
#[test]
fn phase_spans_balance_for_all_catalog_properties_and_policies() {
    for p in Property::ALL {
        for policy in [GcPolicy::None, GcPolicy::AllParamsDead, GcPolicy::CoenableLazy] {
            let spec = compiled(p).unwrap();
            let config = EngineConfig { policy, record_triggers: true, ..EngineConfig::default() };
            for (block, (prof, stats)) in
                drive(spec, &config, |_| PhaseProfiler::new()).into_iter().enumerate()
            {
                let ctx = format!("{p:?} block {block} policy {policy:?}");
                assert!(prof.balanced(), "{ctx}: unbalanced spans: {}", prof.to_json());
                assert_eq!(prof.events(), stats.events, "{ctx}: event denominator");
                for phase in Phase::ALL {
                    assert_eq!(
                        prof.phase(phase).count(),
                        prof.exits(phase),
                        "{ctx}: every closed {} span records one sample",
                        phase.label()
                    );
                }
                assert_eq!(
                    prof.enters(Phase::IndexLookup),
                    stats.events,
                    "{ctx}: one index lookup per dispatched event"
                );
                assert!(
                    prof.enters(Phase::Transition) > 0,
                    "{ctx}: the workload must step monitors"
                );
                assert!(prof.enters(Phase::Sweep) > 0, "{ctx}: finish() sweeps");
                assert_eq!(
                    prof.enters(Phase::JournalAppend),
                    0,
                    "{ctx}: no journal in this harness"
                );
                assert_eq!(prof.enters(Phase::ShardRoute), 0, "{ctx}: no router in this harness");
            }
        }
    }
}

/// Per-shard profiler workload: every object is allocated before the
/// session opens (workers share the heap immutably), the alphabet is
/// replayed twice per round over each round's objects, then the run
/// frees everything, collects, sweeps and finishes — mirrored exactly by
/// [`drive_plain`] so a 1-shard run is comparable span-for-span.
fn drive_sharded(
    property: Property,
    config: &EngineConfig,
    shards: usize,
) -> rv_monitor::core::ShardReport<PhaseProfiler> {
    let spec = compiled(property).unwrap();
    let event_params = spec.event_params.clone();
    let n_params = spec.param_classes.len();
    let n_events = spec.alphabet.len();
    let mut sharded = ShardedMonitor::with_observers(
        spec,
        config,
        ShardConfig { shards, batch: 4, seed: 7 },
        |_, _| PhaseProfiler::new(),
    );
    let mut heap = Heap::new(HeapConfig::manual());
    let cls = heap.register_class("Obj");
    let frame = heap.enter_frame();
    let rounds: Vec<Vec<ObjId>> =
        (0..6).map(|_| (0..n_params.max(1)).map(|_| heap.alloc(cls)).collect()).collect();
    {
        let mut session = sharded.session(&heap);
        for objs in &rounds {
            for _pass in 0..2 {
                for e in 0..n_events {
                    let event = EventId(u16::try_from(e).unwrap());
                    let pairs: Vec<_> =
                        event_params[e].iter().map(|&p| (p, objs[p.0 as usize])).collect();
                    session.process(event, Binding::from_pairs(&pairs));
                }
            }
        }
    }
    heap.exit_frame(frame);
    heap.collect();
    sharded.sweep(&heap);
    sharded.finish(&heap)
}

/// The sequential mirror of [`drive_sharded`]: identical event stream,
/// identical free/collect/sweep/finish tail, one [`PropertyMonitor`].
fn drive_plain(property: Property, config: &EngineConfig) -> Vec<(PhaseProfiler, EngineStats)> {
    let spec = compiled(property).unwrap();
    let event_params = spec.event_params.clone();
    let n_params = spec.param_classes.len();
    let n_events = spec.alphabet.len();
    let mut monitor = PropertyMonitor::with_observers(spec, config, |_| PhaseProfiler::new());
    let mut heap = Heap::new(HeapConfig::manual());
    let cls = heap.register_class("Obj");
    let frame = heap.enter_frame();
    let rounds: Vec<Vec<ObjId>> =
        (0..6).map(|_| (0..n_params.max(1)).map(|_| heap.alloc(cls)).collect()).collect();
    for objs in &rounds {
        for _pass in 0..2 {
            for e in 0..n_events {
                let event = EventId(u16::try_from(e).unwrap());
                let pairs: Vec<_> =
                    event_params[e].iter().map(|&p| (p, objs[p.0 as usize])).collect();
                monitor.process(&heap, event, Binding::from_pairs(&pairs));
            }
        }
    }
    heap.exit_frame(frame);
    heap.collect();
    for engine in monitor.engines_mut() {
        engine.full_sweep(&heap);
    }
    monitor.finish(&heap);
    monitor
        .engines_mut()
        .iter_mut()
        .map(|e| {
            let stats = e.stats();
            (std::mem::take(&mut *e.observer_mut()), stats)
        })
        .collect()
}

/// Sharded phase accounting, across the whole catalog × GC policies ×
/// shard counts {1, 4}: every worker-side profiler balances, the
/// coordinator's routing spans balance and count one span per submitted
/// event, and the cross-shard merge preserves both balance and exact
/// per-phase span counts (merge is pure addition — nothing lost, nothing
/// invented).
#[test]
fn sharded_phase_spans_balance_and_merge_exactly() {
    for p in Property::ALL {
        for policy in [GcPolicy::None, GcPolicy::AllParamsDead, GcPolicy::CoenableLazy] {
            for shards in [1usize, 4] {
                let config = EngineConfig { policy, ..EngineConfig::default() };
                let report = drive_sharded(p, &config, shards);
                let ctx = format!("{p:?} policy {policy:?} shards {shards}");
                assert_eq!(report.error, None, "{ctx}");
                assert!(report.route_profile.balanced(), "{ctx}: router spans");
                assert_eq!(
                    report.route_profile.enters(Phase::ShardRoute),
                    report.events,
                    "{ctx}: one routing span per submitted event"
                );
                let mut merged = PhaseProfiler::new();
                let mut sums = [0u64; Phase::COUNT];
                for per_block in &report.observers {
                    for prof in per_block {
                        assert!(prof.balanced(), "{ctx}: worker spans: {}", prof.to_json());
                        for (i, phase) in Phase::ALL.into_iter().enumerate() {
                            sums[i] += prof.enters(phase);
                        }
                        merged.merge_from(prof);
                    }
                }
                assert!(merged.balanced(), "{ctx}: merge must preserve balance");
                for (i, phase) in Phase::ALL.into_iter().enumerate() {
                    assert_eq!(
                        merged.enters(phase),
                        sums[i],
                        "{ctx}: merged {} spans are the exact sum of the parts",
                        phase.label()
                    );
                }
                assert_eq!(
                    merged.events(),
                    report.deliveries,
                    "{ctx}: one event_dispatched per (shard, block) delivery"
                );
            }
        }
    }
}

/// A 1-shard run delivers exactly the sequential event stream, so the
/// merged worker profilers must agree with a sequential profiler
/// span-count-for-span-count (timings differ; counts may not).
#[test]
fn one_shard_profile_counts_equal_sequential_profile_counts() {
    for p in Property::ALL {
        for policy in [GcPolicy::None, GcPolicy::AllParamsDead, GcPolicy::CoenableLazy] {
            // Worker engines always record triggers; mirror that.
            let config = EngineConfig { policy, record_triggers: true, ..EngineConfig::default() };
            let report = drive_sharded(p, &config, 1);
            assert_eq!(report.error, None, "{p:?} policy {policy:?}");
            assert_eq!(report.broadcast_events, 0, "{p:?}: one shard never broadcasts");
            let mut merged = PhaseProfiler::new();
            for per_block in &report.observers {
                for prof in per_block {
                    merged.merge_from(prof);
                }
            }
            let mut sequential = PhaseProfiler::new();
            let mut seq_stats = EngineStats::default();
            for (prof, stats) in drive_plain(p, &config) {
                sequential.merge_from(&prof);
                seq_stats.merge_from(&stats);
            }
            let ctx = format!("{p:?} policy {policy:?}");
            assert_eq!(report.stats.events, seq_stats.events, "{ctx}: same event stream");
            assert_eq!(merged.events(), sequential.events(), "{ctx}: event denominators");
            for phase in Phase::ALL {
                assert_eq!(
                    merged.enters(phase),
                    sequential.enters(phase),
                    "{ctx}: {} span count must not depend on sharding",
                    phase.label()
                );
                assert_eq!(merged.exits(phase), sequential.exits(phase), "{ctx}: exits");
            }
        }
    }
}

/// The provenance ledger's re-derived Figure 10 row must equal the
/// engine's own E/M/FM/CM — per block, for the whole catalog, under
/// every GC policy. This is the accounting identity `rvmon explain
/// --summary` enforces at the CLI.
#[test]
fn provenance_summary_is_an_accounting_identity_with_engine_stats() {
    for p in Property::ALL {
        for policy in [GcPolicy::None, GcPolicy::AllParamsDead, GcPolicy::CoenableLazy] {
            let spec = compiled(p).unwrap();
            let config = EngineConfig { policy, record_triggers: true, ..EngineConfig::default() };
            for (block, (ledger, stats)) in
                drive(spec, &config, |_| ProvenanceLedger::new()).into_iter().enumerate()
            {
                let ctx = format!("{p:?} block {block} policy {policy:?}");
                let s = ledger.summary();
                assert_eq!(s.events, stats.events, "{ctx}: E");
                assert_eq!(s.created, stats.monitors_created, "{ctx}: M");
                assert_eq!(s.flagged, stats.monitors_flagged, "{ctx}: FM");
                assert_eq!(s.collected, stats.monitors_collected, "{ctx}: CM");
                // Per-instance causality is internally consistent too.
                let live =
                    ledger.instances().iter().filter(|r| r.collected_at_event.is_none()).count();
                assert_eq!(live as u64, s.created - s.collected, "{ctx}: live instances");
                for r in ledger.instances() {
                    if let Some(at) = r.collected_at_event {
                        assert!(at >= r.created_at_event, "{ctx}: collected before created");
                    }
                    for f in &r.flags {
                        assert!(f.at_event >= r.created_at_event, "{ctx}: flagged before created");
                    }
                }
            }
        }
    }
}

/// The GC observatory's accounting identity: every object death happens
/// strictly after the last event, so once the events stop, the only way
/// a monitor can be collected is a sweep cycle — the sum of `reclaimed`
/// over the [`GcCycleRecord`]s must equal exactly the growth of the
/// engine's CM counter across the sweeps (terminal-verdict monitors
/// discarded on the hot path are CM too, but predate the records), and
/// the provenance ledger must re-derive the same total. Occupancy
/// deltas must chain exactly across cycles.
///
/// [`GcCycleRecord`]: rv_monitor::core::GcCycleRecord
#[test]
fn gc_cycle_records_reconcile_with_engine_stats_and_ledger() {
    use rv_monitor::core::{GcCycleRecord, GcKind, GcReason};

    for p in Property::ALL {
        let spec = compiled(p).unwrap();
        let event_params = spec.event_params.clone();
        let n_params = spec.param_classes.len();
        let n_events = spec.alphabet.len();
        let config = EngineConfig { record_triggers: true, ..EngineConfig::default() };
        let mut monitor =
            PropertyMonitor::with_observers(spec, &config, |_| ProvenanceLedger::new());
        let mut heap = Heap::new(HeapConfig::manual());
        let cls = heap.register_class("Obj");
        let frame = heap.enter_frame();
        let rounds: Vec<Vec<ObjId>> =
            (0..4).map(|_| (0..n_params.max(1)).map(|_| heap.alloc(cls)).collect()).collect();
        for objs in &rounds {
            for e in 0..n_events {
                let event = EventId(u16::try_from(e).unwrap());
                let pairs: Vec<_> =
                    event_params[e].iter().map(|&p| (p, objs[p.0 as usize])).collect();
                monitor.process(&heap, event, Binding::from_pairs(&pairs));
            }
        }
        // Everything dies only now — after the final event — so every
        // collection from here on is attributable to a sweep cycle.
        let cm_before_sweeps: Vec<u64> =
            monitor.engines().iter().map(|e| e.stats().monitors_collected).collect();
        heap.exit_frame(frame);
        heap.collect();
        let mut per_block: Vec<Vec<GcCycleRecord>> = Vec::new();
        for engine in monitor.engines_mut() {
            let mut recs = Vec::new();
            for reason in [GcReason::Forced, GcReason::Periodic] {
                recs.push(
                    engine
                        .full_sweep_with(&heap, reason)
                        .expect("enabled observer yields a cycle record"),
                );
            }
            per_block.push(recs);
        }
        for (bi, engine) in monitor.engines().iter().enumerate() {
            let ctx = format!("{p:?} block {bi}");
            let stats = engine.stats();
            let ledger = engine.observer();
            let recs = &per_block[bi];
            let reclaimed: u64 = recs.iter().map(|r| r.reclaimed).sum();
            let flagged: u64 = recs.iter().map(|r| r.flagged).sum();
            assert_eq!(
                reclaimed,
                stats.monitors_collected - cm_before_sweeps[bi],
                "{ctx}: Σ reclaimed == CM growth across the sweeps"
            );
            assert_eq!(
                stats.monitors_collected,
                ledger.summary().collected,
                "{ctx}: ledger re-derives CM"
            );
            assert!(flagged <= stats.monitors_flagged, "{ctx}: sweep flags ⊆ all flags");
            for (ci, r) in recs.iter().enumerate() {
                assert_eq!(r.kind, GcKind::MonitorSweep, "{ctx} cycle {ci}");
                assert_eq!(
                    r.occupancy_before - r.reclaimed,
                    r.occupancy_after,
                    "{ctx} cycle {ci}: occupancy delta is the reclaim count"
                );
                assert_eq!(r.scanned, r.occupancy_before, "{ctx} cycle {ci}: full sweep");
                let bytes = r.to_bytes();
                assert_eq!(GcCycleRecord::from_bytes(&bytes).as_ref(), Some(r), "{ctx}: codec");
            }
            for w in recs.windows(2) {
                assert_eq!(
                    w[0].occupancy_after, w[1].occupancy_before,
                    "{ctx}: occupancy chains across cycles"
                );
                assert!(w[0].end_ns <= w[1].end_ns, "{ctx}: cycle ends are monotone");
            }
            // The second (quiescent) sweep reclaimed nothing.
            assert_eq!(recs[1].reclaimed, 0, "{ctx}: quiescent cycle");
        }
    }
}

/// The structural zero-overhead guarantee: with the no-op observer, a
/// sweep must hand back *no* cycle record at all — no clock is read, no
/// accounting is assembled, nothing allocates.
#[test]
fn disabled_observer_sweeps_yield_no_cycle_records() {
    use rv_monitor::core::GcReason;

    let spec = compiled(Property::UnsafeIter).unwrap();
    let config = EngineConfig::default();
    let mut monitor = PropertyMonitor::new(spec, &config);
    let heap = Heap::new(HeapConfig::manual());
    for engine in monitor.engines_mut() {
        for reason in [GcReason::Forced, GcReason::Periodic, GcReason::Degradation] {
            assert!(
                engine.full_sweep_with(&heap, reason).is_none(),
                "NoopObserver sweep must not assemble a record"
            );
        }
    }
}

/// The timeline lane is a faithful transcript of the profiler: a
/// composed `(SpanLog, PhaseProfiler)` observer must log exactly one
/// phase span per profiler exit, name for name, and the Chrome trace
/// export of those lanes must carry one balanced `B`/`E` pair per span.
#[test]
fn span_log_lanes_match_phase_profiler_counts_for_catalog() {
    use rv_monitor::core::{chrome_trace_json, SpanLog};

    for p in [Property::UnsafeIter, Property::HasNext] {
        let spec = compiled(p).unwrap();
        let config = EngineConfig { record_triggers: true, ..EngineConfig::default() };
        let runs = drive(spec, &config, |_| (SpanLog::new(), PhaseProfiler::new()));
        let mut lanes: Vec<(String, SpanLog)> = Vec::new();
        for (block, ((log, prof), _)) in runs.into_iter().enumerate() {
            let ctx = format!("{p:?} block {block}");
            let phase_spans: u64 = log.spans().iter().filter(|s| s.cat == "phase").count() as u64;
            let profiler_spans: u64 = Phase::ALL.into_iter().map(|ph| prof.exits(ph)).sum();
            assert_eq!(phase_spans, profiler_spans, "{ctx}: one span per exit");
            for ph in Phase::ALL {
                assert_eq!(
                    log.count_named(ph.label()),
                    prof.exits(ph),
                    "{ctx}: {} span count",
                    ph.label()
                );
            }
            lanes.push((format!("block{block}"), log));
        }
        let borrowed: Vec<(String, &SpanLog)> = lanes.iter().map(|(n, l)| (n.clone(), l)).collect();
        let json = chrome_trace_json(&borrowed);
        let opens = json.matches("\"ph\":\"B\"").count();
        let closes = json.matches("\"ph\":\"E\"").count();
        let completes = json.matches("\"ph\":\"X\"").count();
        let phase_spans: usize =
            lanes.iter().map(|(_, l)| l.spans().iter().filter(|s| s.cat == "phase").count()).sum();
        let gc_spans: usize =
            lanes.iter().map(|(_, l)| l.spans().iter().filter(|s| s.cat == "gc").count()).sum();
        assert_eq!(opens, phase_spans, "{p:?}: one B per phase span");
        assert_eq!(closes, phase_spans, "{p:?}: one E per phase span");
        assert_eq!(completes, gc_spans, "{p:?}: one X per GC cycle");
        assert_eq!(
            json.matches("\"ph\":\"M\"").count(),
            lanes.len(),
            "{p:?}: one thread-name metadata event per lane"
        );
    }
}

/// `full_sweep` must be idempotent at a quiescent point, and the observer
/// must see the second sweep as a no-op (0 newly flagged / collected).
#[test]
fn quiescent_sweep_reports_zero_deltas() {
    let spec = compiled(Property::UnsafeIter).unwrap();
    let event_params = spec.event_params.clone();
    let mut monitor =
        PropertyMonitor::with_observers(spec, &EngineConfig::default(), |_| Counting::default());
    let mut heap = Heap::new(HeapConfig::manual());
    let cls = heap.register_class("Obj");
    let frame = heap.enter_frame();
    let objs: Vec<ObjId> = (0..2).map(|_| heap.alloc(cls)).collect();
    for e in 0..3u16 {
        let pairs: Vec<_> =
            event_params[e as usize].iter().map(|&p| (p, objs[p.0 as usize])).collect();
        monitor.process(&heap, EventId(e), Binding::from_pairs(&pairs));
    }
    heap.exit_frame(frame);
    heap.collect();
    monitor.finish(&heap);
    let after_finish: HashMap<usize, Counting> =
        monitor.engines_mut().iter_mut().enumerate().map(|(i, e)| (i, *e.observer_mut())).collect();
    // Nothing changed since finish(): a second sweep observes no deltas.
    for engine in monitor.engines_mut() {
        engine.full_sweep(&heap);
    }
    for (i, engine) in monitor.engines_mut().iter_mut().enumerate() {
        let before = after_finish[&i];
        let now = *engine.observer_mut();
        assert_eq!(now.sweeps_started, before.sweeps_started + 1);
        assert_eq!(now.sweep_flagged, before.sweep_flagged, "block {i}: nothing newly flagged");
        assert_eq!(
            now.sweep_collected, before.sweep_collected,
            "block {i}: nothing newly collected"
        );
        assert_eq!(now.flagged, before.flagged, "block {i}");
        assert_eq!(now.collected, before.collected, "block {i}");
    }
}
