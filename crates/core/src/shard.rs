//! A sharded parallel monitoring engine: the parameter-instance space is
//! partitioned across N worker shards, each owning a private [`Engine`]
//! per property block, so no locks are taken on the event hot path.
//!
//! Parametric trace slicing is embarrassingly parallel per slice (Roşu &
//! Chen): once an event is routed to the parameter instances it affects,
//! each monitor instance steps independently. The partition key is the
//! property's *owner parameter* — the parameter bound by the most events
//! of the alphabet ([`owner_param`]). Routing follows the paper's Figure 5
//! indexing discipline:
//!
//! * an event whose instance binds the owner is routed to exactly one
//!   shard, by a stable splitmix64-seeded hash of the owner *object*;
//! * an event whose (partial) instance does not bind the owner is
//!   broadcast to every shard.
//!
//! Verdict equivalence with the sequential engine holds because slices
//! never span shards under this rule. A monitor binding owner object `o`
//! only ever interacts — through joins, the disable table, and timestamp
//! comparisons — with monitors and event instances that either bind the
//! same `o` (routed to the same shard) or bind no owner at all
//! (broadcast, hence present in that shard); and each shard sees its
//! subsequence in global order, so every timestamp comparison agrees with
//! the sequential run. Monitors that do *not* bind the owner are stepped
//! only by broadcast events and are therefore identical replicas in every
//! shard; their goal reports are deduplicated by accepting shard 0's copy
//! only.
//!
//! Events travel in per-shard batches (configurable) to amortize channel
//! crossings; trigger reports funnel back and are ordered by
//! `(event_seq, ordinal)` so output is deterministic regardless of shard
//! interleaving — the same key the write-ahead journal uses. Per-shard
//! [`EngineStats`] are aggregated through [`EngineStats::merge_from`],
//! whose peak-vs-counter semantics this module is the first cross-thread
//! consumer of.
//!
//! # Heap access
//!
//! Workers read the shared [`Heap`] through liveness queries only
//! (`Heap: Sync`). A [`ShardSession`] borrows the heap for its whole
//! lifetime and quiesces every worker on drop, so the heap can only be
//! mutated (collections, frees, kills) *between* sessions, when no batch
//! is in flight.

use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use rv_heap::{Heap, HeapConfig, ObjId, SplitMix64};
use rv_logic::{EventId, ParamId, Verdict};
use rv_spec::CompiledSpec;

use crate::binding::Binding;
use crate::engine::{EngineConfig, GcPolicy};
use crate::error::EngineError;
use crate::multi::PropertyMonitor;
use crate::obs::{EngineObserver, NoopObserver, Phase};
use crate::profile::PhaseProfiler;
use crate::reference::{monitor_trace, Trigger};
use crate::stats::EngineStats;

/// Sharding parameters.
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig {
    /// Number of worker shards (≥ 1).
    pub shards: usize,
    /// Events buffered per shard before a batch is sent (≥ 1).
    pub batch: usize,
    /// Seed for the owner-object routing hash. Any value is correct; it
    /// only shifts which shard a given owner object lands on.
    pub seed: u64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig { shards: 4, batch: 64, seed: 0x5EED }
    }
}

impl ShardConfig {
    /// A config with `shards` workers and default batch/seed.
    #[must_use]
    pub fn with_shards(shards: usize) -> Self {
        ShardConfig { shards, ..ShardConfig::default() }
    }
}

/// A per-worker trigger-handler factory: called as `factory(shard, block)`
/// inside each worker thread so the (non-`Send`) handler closure is built
/// where it runs. Returning `None` leaves that engine handler-free.
///
/// This is how a driver attaches fallible user callbacks to a sharded
/// monitor — and how tests prove the engine's panic-quarantine behaves
/// identically at every shard count.
pub type HandlerFactory =
    Arc<dyn Fn(usize, usize) -> Option<Box<dyn FnMut(usize, &Binding, Verdict)>> + Send + Sync>;

/// The shard an owner object is routed to: one splitmix64 mixing round
/// is the stable routing hash.
fn shard_of(owner: ObjId, seed: u64, shards: usize) -> usize {
    (SplitMix64::new(owner.to_bits() ^ seed).next_u64() % shards as u64) as usize
}

/// The designated owner parameter of a spec: the parameter bound by the
/// most events of the alphabet (ties go to the lowest [`ParamId`]), or
/// `None` for a parameterless spec.
///
/// Any parameter is a *correct* partition key; the one bound most often
/// minimizes broadcast traffic.
#[must_use]
pub fn owner_param(spec: &CompiledSpec) -> Option<ParamId> {
    let mut best: Option<(usize, ParamId)> = None;
    for i in 0..spec.event_def.param_count() {
        let p = ParamId(i as u8);
        let bound = (0..spec.alphabet.len())
            .filter(|&e| spec.event_def.params_of(EventId(e as u16)).contains(p))
            .count();
        if best.is_none_or(|(c, _)| bound > c) {
            best = Some((bound, p));
        }
    }
    best.map(|(_, p)| p)
}

/// A goal report from the sharded engine, keyed for deterministic output
/// and journal compatibility.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardTrigger {
    /// Global 0-based sequence number of the triggering event.
    pub event_seq: u64,
    /// Tie-breaker among reports of the same event, assigned after the
    /// deterministic `(event_seq, block, binding, verdict)` sort.
    pub ordinal: u32,
    /// Property block the report came from.
    pub block: usize,
    /// The parameter instance whose slice reached the goal.
    pub binding: Binding,
    /// The goal verdict reached.
    pub verdict: Verdict,
}

impl ShardTrigger {
    /// The reference-oracle shape of this report (`step` = global event
    /// sequence number).
    #[must_use]
    pub fn as_reference(&self) -> Trigger {
        Trigger { step: self.event_seq as usize, binding: self.binding, verdict: self.verdict }
    }
}

/// A raw pointer to the shared heap, sendable to worker threads.
///
/// Soundness: `Heap: Sync`, and the coordinator guarantees the pointee
/// outlives every in-flight batch — [`ShardSession`] borrows the heap and
/// quiesces all workers before the borrow ends, and [`ShardedMonitor::finish`]
/// holds its heap borrow until every worker has joined.
struct HeapRef(*const Heap);

// SAFETY: see the struct docs — the pointee is a `Sync` heap kept alive
// and unmutated for as long as any worker may dereference the pointer.
unsafe impl Send for HeapRef {}

impl HeapRef {
    /// # Safety
    ///
    /// Callers must only dereference between receiving the message that
    /// carried this ref and sending the acknowledgement for it.
    unsafe fn get(&self) -> &Heap {
        unsafe { &*self.0 }
    }
}

/// One routed event, as delivered to a shard.
struct EventMsg {
    seq: u64,
    event: EventId,
    binding: Binding,
    /// Which property blocks this shard must step for this event.
    block_mask: u64,
}

enum Msg {
    Batch(HeapRef, Vec<EventMsg>),
    Sweep(HeapRef),
    Finish(HeapRef),
}

/// A trigger observed by a worker, before coordinator dedup/ordering.
struct RawTrigger {
    event_seq: u64,
    block: usize,
    binding: Binding,
    verdict: Verdict,
}

/// Per-message acknowledgement: the coordinator counts these to quiesce.
struct Ack {
    triggers: Vec<RawTrigger>,
}

/// What a worker thread returns when joined.
struct WorkerDone<O> {
    /// Per-block final stats.
    stats: Vec<EngineStats>,
    /// Per-block observers, extracted from the engines.
    observers: Vec<O>,
    /// First error any engine's infallible facade swallowed.
    error: Option<EngineError>,
}

struct WorkerHandle<O> {
    tx: Sender<Msg>,
    ack_rx: Receiver<Ack>,
    handle: JoinHandle<WorkerDone<O>>,
}

fn worker_loop<O: EngineObserver + Default>(
    spec: CompiledSpec,
    config: EngineConfig,
    observers: Vec<O>,
    handlers: Option<HandlerFactory>,
    shard: usize,
    rx: Receiver<Msg>,
    ack_tx: Sender<Ack>,
) -> WorkerDone<O> {
    let mut slots: Vec<Option<O>> = observers.into_iter().map(Some).collect();
    let mut monitor: PropertyMonitor<O> =
        PropertyMonitor::with_observers(spec, &config, |i| slots[i].take().expect("one per block"));
    if let Some(factory) = handlers {
        // Handlers are built on this thread — they need not be `Send` —
        // and the engine wraps each call in its own panic boundary.
        for (b, engine) in monitor.engines_mut().iter_mut().enumerate() {
            if let Some(h) = factory(shard, b) {
                engine.set_trigger_handler(h);
            }
        }
    }
    let blocks = monitor.engines().len();
    // Triggers already reported per block, so each event's new reports can
    // be diffed off the engines' recorded-trigger logs.
    let mut seen = vec![0usize; blocks];
    let mut error: Option<EngineError> = None;
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Batch(heap, events) => {
                // SAFETY: the coordinator keeps the heap borrowed until it
                // has received the ack sent below.
                let heap = unsafe { heap.get() };
                let mut out = Vec::new();
                for ev in &events {
                    for (b, engine) in monitor.engines_mut().iter_mut().enumerate() {
                        if ev.block_mask & (1 << b) == 0 {
                            continue;
                        }
                        engine.process(heap, ev.event, ev.binding);
                        if let Some(e) = engine.take_last_error() {
                            error.get_or_insert(e);
                        }
                        let triggers = engine.triggers();
                        for t in &triggers[seen[b]..] {
                            out.push(RawTrigger {
                                event_seq: ev.seq,
                                block: b,
                                binding: t.binding,
                                verdict: t.verdict,
                            });
                        }
                        seen[b] = triggers.len();
                    }
                }
                if ack_tx.send(Ack { triggers: out }).is_err() {
                    break;
                }
            }
            Msg::Sweep(heap) => {
                // SAFETY: `sweep` holds its heap borrow until the ack below
                // is received.
                let heap = unsafe { heap.get() };
                for engine in monitor.engines_mut() {
                    engine.full_sweep(heap);
                }
                if ack_tx.send(Ack { triggers: Vec::new() }).is_err() {
                    break;
                }
            }
            Msg::Finish(heap) => {
                // SAFETY: `finish` holds its heap borrow until join.
                monitor.finish(unsafe { heap.get() });
                let _ = ack_tx.send(Ack { triggers: Vec::new() });
                break;
            }
        }
    }
    WorkerDone {
        stats: monitor.engines().iter().map(|e| e.stats()).collect(),
        observers: monitor
            .engines_mut()
            .iter_mut()
            .map(|e| std::mem::replace(e.observer_mut(), O::default()))
            .collect(),
        error,
    }
}

/// The final accounting of a sharded run.
#[derive(Debug)]
pub struct ShardReport<O = NoopObserver> {
    /// All shards' stats aggregated through [`EngineStats::merge_from`]
    /// (additive counters sum, high-water marks max).
    pub stats: EngineStats,
    /// Per-shard stats, each merged across that shard's property blocks.
    pub per_shard: Vec<EngineStats>,
    /// Deduplicated goal reports in deterministic
    /// `(event_seq, ordinal)` order.
    pub triggers: Vec<ShardTrigger>,
    /// Per-shard, per-block observers extracted from the worker engines.
    pub observers: Vec<Vec<O>>,
    /// Events submitted to [`ShardSession::process`].
    pub events: u64,
    /// Events delivered to exactly one shard (instance bound the owner).
    pub routed_events: u64,
    /// Events delivered to more than one shard (partial instances).
    pub broadcast_events: u64,
    /// Total `(shard, block)` deliveries; with a valid trace this equals
    /// the merged `stats.events`.
    pub deliveries: u64,
    /// Coordinator-side routing/broadcast timing: one
    /// [`Phase::ShardRoute`] span per submitted event, recorded only when
    /// the observer type is enabled (`NoopObserver` runs compile it out).
    pub route_profile: PhaseProfiler,
    /// First failure observed anywhere: a worker-side engine error or a
    /// disconnected shard.
    pub error: Option<EngineError>,
}

impl<O> ShardReport<O> {
    /// The reports of one property block, in oracle shape.
    #[must_use]
    pub fn block_triggers(&self, block: usize) -> Vec<Trigger> {
        self.triggers.iter().filter(|t| t.block == block).map(ShardTrigger::as_reference).collect()
    }
}

/// A sharded multi-property monitor: [`PropertyMonitor`] semantics,
/// partitioned across worker threads.
///
/// Feed events through a [`ShardSession`] (see [`ShardedMonitor::session`]);
/// mutate the heap only between sessions; call
/// [`ShardedMonitor::finish`] to quiesce, join and aggregate.
pub struct ShardedMonitor<O: EngineObserver + Send + Default + 'static = NoopObserver> {
    owners: Vec<Option<ParamId>>,
    shard_cfg: ShardConfig,
    workers: Vec<WorkerHandle<O>>,
    /// Per-shard outgoing batch buffers.
    buffers: Vec<Vec<EventMsg>>,
    /// Per-shard count of batches sent but not yet acknowledged.
    outstanding: Vec<usize>,
    /// Scratch per-shard block masks, reused across events.
    masks: Vec<u64>,
    /// Accepted (post-dedup) triggers; ordinals assigned at `finish`.
    triggers: Vec<ShardTrigger>,
    seq: u64,
    routed: u64,
    broadcast: u64,
    deliveries: u64,
    route_profile: PhaseProfiler,
    error: Option<EngineError>,
    alphabet: rv_logic::Alphabet,
}

impl ShardedMonitor<NoopObserver> {
    /// Builds a sharded monitor with no-op observers.
    ///
    /// # Panics
    ///
    /// Panics if `shard_cfg.shards` or `shard_cfg.batch` is zero, or if
    /// the spec has more than 64 property blocks.
    #[must_use]
    pub fn new(spec: CompiledSpec, config: &EngineConfig, shard_cfg: ShardConfig) -> Self {
        ShardedMonitor::with_observers(spec, config, shard_cfg, |_, _| NoopObserver)
    }
}

impl<O: EngineObserver + Send + Default + 'static> ShardedMonitor<O> {
    /// Builds a sharded monitor, attaching `make(shard, block)` as the
    /// observer of each worker engine.
    ///
    /// Worker engines always record triggers (the deduplication rule needs
    /// each report's binding); every other [`EngineConfig`] knob is taken
    /// as given.
    ///
    /// # Panics
    ///
    /// Panics if `shard_cfg.shards` or `shard_cfg.batch` is zero, or if
    /// the spec has more than 64 property blocks.
    #[must_use]
    pub fn with_observers(
        spec: CompiledSpec,
        config: &EngineConfig,
        shard_cfg: ShardConfig,
        make: impl FnMut(usize, usize) -> O,
    ) -> Self {
        Self::with_observers_and_handlers(spec, config, shard_cfg, make, None)
    }

    /// [`ShardedMonitor::with_observers`] plus a [`HandlerFactory`]: each
    /// worker engine gets `handlers(shard, block)` installed as its
    /// trigger handler. Handlers run inside the engine's panic boundary,
    /// so a panicking handler quarantines the offending monitor on its
    /// shard without disturbing any other shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard_cfg.shards` or `shard_cfg.batch` is zero, or if
    /// the spec has more than 64 property blocks.
    #[must_use]
    pub fn with_observers_and_handlers(
        spec: CompiledSpec,
        config: &EngineConfig,
        shard_cfg: ShardConfig,
        mut make: impl FnMut(usize, usize) -> O,
        handlers: Option<HandlerFactory>,
    ) -> Self {
        assert!(shard_cfg.shards >= 1, "at least one shard");
        assert!(shard_cfg.batch >= 1, "batch size must be positive");
        let blocks = spec.properties.len();
        assert!(blocks <= 64, "at most 64 property blocks per sharded spec");
        let owner = owner_param(&spec);
        let mut worker_cfg = config.clone();
        worker_cfg.record_triggers = true;
        let workers = (0..shard_cfg.shards)
            .map(|s| {
                let (tx, rx) = std::sync::mpsc::channel();
                let (ack_tx, ack_rx) = std::sync::mpsc::channel();
                let spec = spec.clone();
                let cfg = worker_cfg.clone();
                let observers: Vec<O> = (0..blocks).map(|b| make(s, b)).collect();
                let factory = handlers.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("rv-shard-{s}"))
                    .spawn(move || worker_loop(spec, cfg, observers, factory, s, rx, ack_tx))
                    .expect("spawn shard worker");
                WorkerHandle { tx, ack_rx, handle }
            })
            .collect();
        ShardedMonitor {
            owners: vec![owner; blocks],
            shard_cfg,
            workers,
            buffers: (0..shard_cfg.shards).map(|_| Vec::new()).collect(),
            outstanding: vec![0; shard_cfg.shards],
            masks: vec![0; shard_cfg.shards],
            triggers: Vec::new(),
            seq: 0,
            routed: 0,
            broadcast: 0,
            deliveries: 0,
            route_profile: PhaseProfiler::new().with_label("shard-coordinator"),
            error: None,
            alphabet: spec.alphabet,
        }
    }

    /// Number of worker shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shard_cfg.shards
    }

    /// Looks up an event id by name.
    #[must_use]
    pub fn event(&self, name: &str) -> Option<EventId> {
        self.alphabet.lookup(name)
    }

    /// Opens an event-feeding session. The session shares `heap` with the
    /// worker threads; dropping it quiesces every worker, after which the
    /// heap may be mutated again.
    pub fn session<'h, 'm>(&'m mut self, heap: &'h Heap) -> ShardSession<'h, 'm, O> {
        ShardSession { mon: self, heap }
    }

    /// The first failure observed so far (worker engine error or shard
    /// disconnect). Sticky; [`ShardedMonitor::finish`] also reports it.
    #[must_use]
    pub fn last_error(&self) -> Option<&EngineError> {
        self.error.as_ref()
    }

    /// Runs a full monitor sweep ([`Engine::full_sweep`](crate::Engine::full_sweep))
    /// on every engine of every shard, quiescing before and after — the
    /// sharded counterpart of sweeping each engine of a
    /// [`PropertyMonitor`].
    pub fn sweep(&mut self, heap: &Heap) {
        self.quiesce(heap);
        for s in 0..self.shard_cfg.shards {
            let heap_ref = HeapRef(std::ptr::from_ref(heap));
            if self.workers[s].tx.send(Msg::Sweep(heap_ref)).is_ok() {
                self.outstanding[s] += 1;
            } else {
                self.error.get_or_insert(EngineError::ShardDisconnected { shard: s });
            }
        }
        self.quiesce(heap);
    }

    fn route(&mut self, heap: &Heap, event: EventId, binding: Binding) {
        // Time the routing decision + batch hand-off; compiled out on
        // NoopObserver runs like every other phase span.
        let span =
            if O::ENABLED { Some(self.route_profile.enter(Phase::ShardRoute)) } else { None };
        let seq = self.seq;
        self.seq += 1;
        let shards = self.shard_cfg.shards;
        self.masks.iter_mut().for_each(|m| *m = 0);
        for (b, owner) in self.owners.iter().enumerate() {
            match owner.and_then(|p| binding.get(p)) {
                Some(obj) => {
                    self.masks[shard_of(obj, self.shard_cfg.seed, shards)] |= 1 << b;
                }
                None => {
                    for m in &mut self.masks {
                        *m |= 1 << b;
                    }
                }
            }
        }
        let dests = self.masks.iter().filter(|&&m| m != 0).count();
        if dests > 1 {
            self.broadcast += 1;
        } else {
            self.routed += 1;
        }
        for s in 0..shards {
            let mask = self.masks[s];
            if mask == 0 {
                continue;
            }
            self.deliveries += u64::from(mask.count_ones());
            self.buffers[s].push(EventMsg { seq, event, binding, block_mask: mask });
            if self.buffers[s].len() >= self.shard_cfg.batch {
                self.dispatch(heap, s);
            }
        }
        if let Some(span) = span {
            self.route_profile.exit(span);
        }
    }

    fn dispatch(&mut self, heap: &Heap, s: usize) {
        if self.buffers[s].is_empty() {
            return;
        }
        let events = std::mem::take(&mut self.buffers[s]);
        let heap_ref = HeapRef(std::ptr::from_ref(heap));
        if self.workers[s].tx.send(Msg::Batch(heap_ref, events)).is_ok() {
            self.outstanding[s] += 1;
        } else {
            self.error.get_or_insert(EngineError::ShardDisconnected { shard: s });
        }
    }

    /// Flushes every buffer and waits until no batch is in flight.
    fn quiesce(&mut self, heap: &Heap) {
        for s in 0..self.shard_cfg.shards {
            self.dispatch(heap, s);
        }
        for s in 0..self.shard_cfg.shards {
            while self.outstanding[s] > 0 {
                match self.workers[s].ack_rx.recv() {
                    Ok(ack) => {
                        self.outstanding[s] -= 1;
                        self.absorb(s, ack);
                    }
                    Err(_) => {
                        // The worker is gone; nothing more will arrive.
                        self.outstanding[s] = 0;
                        self.error.get_or_insert(EngineError::ShardDisconnected { shard: s });
                    }
                }
            }
        }
    }

    /// Applies the replica-deduplication rule: a report whose binding
    /// includes the block's owner exists in exactly one shard (accept it
    /// wherever it appears); a report that does not bind the owner comes
    /// from a monitor replicated in every shard, so only shard 0's copy
    /// counts.
    fn absorb(&mut self, shard: usize, ack: Ack) {
        for t in ack.triggers {
            let owner_bound = self.owners[t.block].is_some_and(|p| t.binding.get(p).is_some());
            if owner_bound || shard == 0 {
                self.triggers.push(ShardTrigger {
                    event_seq: t.event_seq,
                    ordinal: 0,
                    block: t.block,
                    binding: t.binding,
                    verdict: t.verdict,
                });
            }
        }
    }

    /// Quiesces, runs each worker's final sweep, joins every thread, and
    /// aggregates stats, observers and deterministically ordered triggers.
    ///
    /// The `heap` borrow is held until every worker has joined, so no
    /// worker can observe a dangling heap.
    #[must_use]
    pub fn finish(mut self, heap: &Heap) -> ShardReport<O> {
        self.quiesce(heap);
        for s in 0..self.shard_cfg.shards {
            let heap_ref = HeapRef(std::ptr::from_ref(heap));
            if self.workers[s].tx.send(Msg::Finish(heap_ref)).is_ok() {
                self.outstanding[s] += 1;
            } else {
                self.error.get_or_insert(EngineError::ShardDisconnected { shard: s });
            }
        }
        self.quiesce(heap);

        let mut per_shard = Vec::new();
        let mut observers = Vec::new();
        let mut stats = EngineStats::default();
        let mut error = self.error.take();
        for w in self.workers.drain(..) {
            drop(w.tx);
            match w.handle.join() {
                Ok(done) => {
                    let mut shard_stats = EngineStats::default();
                    for s in &done.stats {
                        shard_stats.merge_from(s);
                    }
                    stats.merge_from(&shard_stats);
                    per_shard.push(shard_stats);
                    observers.push(done.observers);
                    if error.is_none() {
                        error = done.error;
                    }
                }
                Err(_) => {
                    error.get_or_insert(EngineError::ShardDisconnected { shard: per_shard.len() });
                    per_shard.push(EngineStats::default());
                    observers.push(Vec::new());
                }
            }
        }

        let mut triggers = std::mem::take(&mut self.triggers);
        order_triggers(&mut triggers);

        ShardReport {
            stats,
            per_shard,
            triggers,
            observers,
            events: self.seq,
            routed_events: self.routed,
            broadcast_events: self.broadcast,
            deliveries: self.deliveries,
            route_profile: std::mem::take(&mut self.route_profile),
            error,
        }
    }
}

/// Sorts triggers into the deterministic output order and assigns the
/// per-event ordinals: `(event_seq, block, binding, verdict)` is a total
/// order independent of shard count and thread interleaving.
fn order_triggers(triggers: &mut [ShardTrigger]) {
    triggers.sort_by_key(|t| (t.event_seq, t.block, t.binding, t.verdict));
    let mut prev = None;
    let mut ordinal = 0u32;
    for t in triggers {
        if prev != Some(t.event_seq) {
            prev = Some(t.event_seq);
            ordinal = 0;
        }
        t.ordinal = ordinal;
        ordinal += 1;
    }
}

/// An event-feeding window over a [`ShardedMonitor`]: holds the heap
/// borrow that makes the worker threads' shared reads sound, and quiesces
/// every worker on drop.
pub struct ShardSession<'h, 'm, O: EngineObserver + Send + Default + 'static = NoopObserver> {
    mon: &'m mut ShardedMonitor<O>,
    heap: &'h Heap,
}

impl<O: EngineObserver + Send + Default + 'static> ShardSession<'_, '_, O> {
    /// Routes one parametric event: to the shard owning the binding's
    /// owner object, or to every shard if the instance does not bind the
    /// owner. Batches are sent as they fill.
    ///
    /// Never panics and never blocks on the workers; failures stick to
    /// [`ShardedMonitor::last_error`].
    pub fn process(&mut self, event: EventId, binding: Binding) {
        self.mon.route(self.heap, event, binding);
    }

    /// Dispatches by event name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a declared event of the spec.
    pub fn process_named(&mut self, name: &str, binding: Binding) {
        let event = self.mon.event(name).unwrap_or_else(|| panic!("spec has no event `{name}`"));
        self.process(event, binding);
    }

    /// Flushes all buffers and waits until every in-flight batch has been
    /// acknowledged (the state [`Drop`] also establishes).
    pub fn flush(&mut self) {
        self.mon.quiesce(self.heap);
    }
}

impl<O: EngineObserver + Send + Default + 'static> Drop for ShardSession<'_, '_, O> {
    fn drop(&mut self) {
        self.mon.quiesce(self.heap);
    }
}

/// Live parameter objects available to the differential event generator.
const POOL: usize = 6;

/// Per-event probability of killing (and replacing) a pool object.
const KILL_PROB: f64 = 0.12;

/// The outcome of one sharded differential run ([`differential_run`]).
#[derive(Debug)]
pub struct ShardDifferential {
    /// Parametric events emitted.
    pub trace_len: usize,
    /// Property blocks compared.
    pub blocks: usize,
    /// Human-readable descriptions of every disagreement; empty on a
    /// passing run.
    pub mismatches: Vec<String>,
    /// The sequential monitor's merged stats.
    pub sequential_stats: EngineStats,
    /// The sharded run's full report.
    pub report: ShardReport,
}

impl ShardDifferential {
    /// Whether the sharded engine agreed with the sequential engine and
    /// the Figure 5 oracle everywhere.
    #[must_use]
    pub fn matches(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Runs every property block of `spec` under `policy` over a
/// seed-reproducible random workload, three ways — sequential
/// [`PropertyMonitor`], [`ShardedMonitor`] with `shard_cfg`, and the
/// Figure 5 reference oracle — and cross-checks them: per-block first
/// reports per binding must agree exactly, merged stats must satisfy the
/// sharding accounting identities, and a 1-shard run must reproduce the
/// sequential stats verbatim.
///
/// The workload interleaves event bursts with object kills
/// (unpin + collect on a plain manual heap); kills only happen between
/// shard sessions, exactly the quiesce discipline real drivers must
/// follow.
///
/// # Errors
///
/// Any [`EngineError`] either engine reports — under correct operation,
/// none.
pub fn differential_run(
    spec: &CompiledSpec,
    policy: GcPolicy,
    shard_cfg: ShardConfig,
    seed: u64,
    events: usize,
) -> Result<ShardDifferential, EngineError> {
    let config = EngineConfig { policy, record_triggers: true, ..EngineConfig::default() };
    differential_impl(spec, &config, shard_cfg, seed, events, true)
}

/// [`differential_run`] with a caller-supplied full [`EngineConfig`] —
/// budgets, degradation ladder and all. The sharded and sequential
/// engines are still required to agree exactly; the Figure 5 oracle
/// comparison is skipped, because the abstract algorithm models no
/// resource budgets (a correctly shedding engine reports *fewer*
/// triggers than the oracle by design).
///
/// # Errors
///
/// Any [`EngineError`] either engine reports.
pub fn differential_run_with(
    spec: &CompiledSpec,
    config: &EngineConfig,
    shard_cfg: ShardConfig,
    seed: u64,
    events: usize,
) -> Result<ShardDifferential, EngineError> {
    let mut config = config.clone();
    config.record_triggers = true;
    differential_impl(spec, &config, shard_cfg, seed, events, false)
}

fn differential_impl(
    spec: &CompiledSpec,
    config: &EngineConfig,
    shard_cfg: ShardConfig,
    seed: u64,
    events: usize,
    check_oracle: bool,
) -> Result<ShardDifferential, EngineError> {
    let mut heap = Heap::new(HeapConfig::manual());
    let class = heap.register_class("Object");
    let frame = heap.enter_frame();
    let mut pool: Vec<ObjId> = (0..POOL).map(|_| heap.alloc(class)).collect();
    for &o in &pool {
        heap.pin(o);
    }
    heap.exit_frame(frame);

    let mut sequential = PropertyMonitor::new(spec.clone(), config);
    let mut sharded = ShardedMonitor::new(spec.clone(), config, shard_cfg);
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1));
    let mut trace: Vec<(EventId, Binding)> = Vec::new();

    while trace.len() < events {
        if rng.chance(KILL_PROB) {
            // Heap mutation: legal here because no session is open, so
            // every worker is quiesced.
            let slot = rng.gen_range(POOL);
            heap.unpin(pool[slot]);
            let f = heap.enter_frame();
            let fresh = heap.alloc(class);
            heap.pin(fresh);
            heap.exit_frame(f);
            pool[slot] = fresh;
            heap.collect();
            continue;
        }
        let burst = (1 + rng.gen_range(24)).min(events - trace.len());
        let mut session = sharded.session(&heap);
        for _ in 0..burst {
            let e = EventId(rng.gen_range(spec.alphabet.len()) as u16);
            let pairs: Vec<_> = spec.event_params[e.as_usize()]
                .iter()
                .map(|&p| (p, pool[rng.gen_range(POOL)]))
                .collect();
            let binding = Binding::from_pairs(&pairs);
            trace.push((e, binding));
            sequential.try_process(&heap, e, binding)?;
            session.process(e, binding);
        }
        drop(session);
    }
    sequential.finish(&heap);
    sequential.check_invariants(&heap)?;
    let report = sharded.finish(&heap);
    if let Some(e) = report.error {
        return Err(e);
    }

    let mut mismatches = Vec::new();
    for (b, prop) in spec.properties.iter().enumerate() {
        let seq = crate::chaos::dedup(sequential.engines()[b].triggers());
        let shd = crate::chaos::dedup(&report.block_triggers(b));
        if shd != seq {
            mismatches.push(format!("block {b}: sharded {shd:?} != sequential {seq:?}"));
        }
        if check_oracle {
            let oracle =
                crate::chaos::dedup(&monitor_trace(&prop.formalism, prop.goal, &trace).triggers);
            if shd != oracle {
                mismatches.push(format!("block {b}: sharded {shd:?} != oracle {oracle:?}"));
            }
        }
    }
    if report.stats.events != report.deliveries {
        mismatches.push(format!(
            "merged events {} != deliveries {}",
            report.stats.events, report.deliveries
        ));
    }
    if report.events != report.routed_events + report.broadcast_events
        || report.events != trace.len() as u64
    {
        mismatches.push(format!(
            "event accounting: {} submitted, {} routed + {} broadcast, {} traced",
            report.events,
            report.routed_events,
            report.broadcast_events,
            trace.len()
        ));
    }
    let max_peak = report.per_shard.iter().map(|s| s.peak_live_monitors).max().unwrap_or(0);
    if report.stats.peak_live_monitors != max_peak {
        mismatches.push(format!(
            "merged peak {} is not the max of the per-shard peaks {max_peak}",
            report.stats.peak_live_monitors
        ));
    }
    let sequential_stats = sequential.stats();
    if shard_cfg.shards == 1 && report.stats != sequential_stats {
        mismatches.push(format!(
            "1-shard stats {:?} != sequential stats {sequential_stats:?}",
            report.stats
        ));
    }

    Ok(ShardDifferential {
        trace_len: trace.len(),
        blocks: spec.properties.len(),
        mismatches,
        sequential_stats,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unsafe_iter_spec() -> CompiledSpec {
        CompiledSpec::from_source(
            r#"UnsafeIter(Collection c, Iterator i) {
                event create(c, i);
                event update(c);
                event next(i);
                ere: create next* update+ next
                @match { report "unsafe iteration"; }
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn owner_param_picks_the_most_bound_parameter() {
        let spec = unsafe_iter_spec();
        // c appears in create+update, i in create+next: a tie, broken
        // toward the lowest id.
        assert_eq!(owner_param(&spec), Some(ParamId(0)));
    }

    #[test]
    fn routing_hash_is_stable_and_in_range() {
        for shards in [1usize, 2, 4, 7] {
            for raw in 0..64u64 {
                let o = ObjId::from_bits(raw | (1 << 32));
                let s = shard_of(o, 0x5EED, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(o, 0x5EED, shards), "stable");
            }
        }
        // The hash actually spreads consecutive objects for shards > 1.
        let spread: std::collections::HashSet<usize> =
            (0..64u64).map(|r| shard_of(ObjId::from_bits(r | (1 << 32)), 0, 4)).collect();
        assert!(spread.len() > 1, "all 64 objects landed on one shard");
    }

    #[test]
    fn sharded_run_matches_sequential_and_oracle() {
        let spec = unsafe_iter_spec();
        for shards in [1, 2, 4] {
            let out = differential_run(
                &spec,
                GcPolicy::CoenableLazy,
                ShardConfig { shards, batch: 8, seed: 0x5EED },
                7,
                192,
            )
            .unwrap();
            assert!(out.matches(), "shards {shards}: {:?}", out.mismatches);
            assert_eq!(out.trace_len, 192);
        }
    }

    #[test]
    fn broadcast_events_reach_every_shard() {
        let spec = unsafe_iter_spec();
        let config = EngineConfig { record_triggers: true, ..EngineConfig::default() };
        let mut sharded = ShardedMonitor::new(
            spec.clone(),
            &config,
            ShardConfig { shards: 4, batch: 2, seed: 1 },
        );
        let mut heap = Heap::new(HeapConfig::manual());
        let class = heap.register_class("Object");
        let _f = heap.enter_frame();
        let (c, i) = (heap.alloc(class), heap.alloc(class));
        let (pc, pi) = (ParamId(0), ParamId(1));
        let mut session = sharded.session(&heap);
        // create and update bind the owner c; next binds only i.
        session.process_named("create", Binding::from_pairs(&[(pc, c), (pi, i)]));
        session.process_named("update", Binding::from_pairs(&[(pc, c)]));
        session.process_named("next", Binding::from_pairs(&[(pi, i)]));
        drop(session);
        let report = sharded.finish(&heap);
        assert_eq!(report.error, None);
        assert_eq!(report.events, 3);
        assert_eq!(report.routed_events, 2);
        assert_eq!(report.broadcast_events, 1, "partial instance must broadcast");
        assert_eq!(report.deliveries, 2 + 4, "2 routed + 1 broadcast × 4 shards");
        assert_eq!(report.stats.events, report.deliveries);
        // The ⟨c, i⟩ slice saw create update next ⇒ one match, reported
        // exactly once despite the broadcast.
        assert_eq!(report.triggers.len(), 1, "{:?}", report.triggers);
        let t = report.triggers[0];
        assert_eq!((t.event_seq, t.ordinal, t.block), (2, 0, 0));
        assert_eq!(t.verdict, Verdict::Match);
    }

    #[test]
    fn trigger_order_is_deterministic_across_shard_counts() {
        let spec = unsafe_iter_spec();
        let run = |shards| {
            differential_run(
                &spec,
                GcPolicy::AllParamsDead,
                ShardConfig { shards, batch: 5, seed: 9 },
                21,
                160,
            )
            .unwrap()
        };
        let a = run(2);
        let b = run(4);
        assert!(a.matches(), "{:?}", a.mismatches);
        assert!(b.matches(), "{:?}", b.mismatches);
        assert_eq!(
            a.report.triggers, b.report.triggers,
            "(event_seq, ordinal) order must not depend on the shard count"
        );
    }

    #[test]
    fn one_shard_reproduces_sequential_stats_exactly() {
        let spec = unsafe_iter_spec();
        let out = differential_run(
            &spec,
            GcPolicy::CoenableLazy,
            ShardConfig { shards: 1, batch: 16, seed: 3 },
            11,
            128,
        )
        .unwrap();
        assert!(out.matches(), "{:?}", out.mismatches);
        assert_eq!(out.report.stats, out.sequential_stats);
    }

    #[test]
    fn observers_ride_along_per_shard_and_block() {
        use crate::obs::MetricsRegistry;
        let spec = unsafe_iter_spec();
        let config = EngineConfig::default();
        let mut sharded = ShardedMonitor::with_observers(
            spec,
            &config,
            ShardConfig { shards: 2, batch: 4, seed: 0 },
            |_, _| MetricsRegistry::default(),
        );
        let mut heap = Heap::new(HeapConfig::manual());
        let class = heap.register_class("Object");
        let _f = heap.enter_frame();
        let (pc, pi) = (ParamId(0), ParamId(1));
        // All allocation happens before the session opens: the heap may
        // not be mutated while workers share it.
        let pairs: Vec<_> = (0..8).map(|_| (heap.alloc(class), heap.alloc(class))).collect();
        let mut session = sharded.session(&heap);
        for &(c, i) in &pairs {
            session.process_named("create", Binding::from_pairs(&[(pc, c), (pi, i)]));
            session.process_named("update", Binding::from_pairs(&[(pc, c)]));
        }
        drop(session);
        let report = sharded.finish(&heap);
        assert_eq!(report.error, None);
        assert_eq!(report.observers.len(), 2);
        assert_eq!(report.observers[0].len(), 1, "one block per shard");
        // Merged per-shard registries account for every delivery.
        let mut merged = MetricsRegistry::default();
        for per_block in &report.observers {
            for m in per_block {
                merged.merge_from(m);
            }
        }
        assert_eq!(
            merged.touched_per_event().count(),
            report.deliveries,
            "one touched-per-event sample per delivery"
        );
    }
}
