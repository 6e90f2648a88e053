//! The parametric monitoring engine: indexing trees, enable-set monitor
//! creation, and the paper's lazy monitor garbage collection.
//!
//! # Event dispatch (§4.1)
//!
//! For an event `e⟨θ⟩`, the engine looks `θ` up in the `⟨D(e)⟩`-tree of
//! Figure 6, obtaining the set of monitor instances whose bindings are
//! more informative than `θ`; each is stepped in place. Monitor *creation*
//! follows the enable-set discipline of Chen et al. \[19\] (which the paper's
//! RV builds on): a new instance for `θ ⊔ θ''` is created only when
//! `dom(θ'')` is an enable parameter set of `e`, inheriting the source's
//! state, and only when no event relevant to the new slice has been missed
//! (checked against the *disable* table, the analogue of JavaMOP's disable
//! stamps).
//!
//! # Garbage collection (§4.2)
//!
//! Three policies are provided:
//!
//! * [`GcPolicy::None`] — monitors live until their containers die.
//! * [`GcPolicy::AllParamsDead`] — the JavaMOP baseline: a monitor is
//!   flagged only when *every* bound parameter object is dead.
//! * [`GcPolicy::CoenableLazy`] — the paper's contribution: when an
//!   indexing structure discovers a dead parameter object, the monitors
//!   beneath it evaluate `ALIVENESS(last_event)` against their dead
//!   parameter set and flag themselves when no goal remains reachable
//!   (§4.2.2); flagged monitors are physically removed later, when a
//!   containing structure is next touched (Figures 7–8).
//!
//! Independently of the policy, monitors whose verdict can never become a
//! goal again (terminal states) are retired after reporting.
//!
//! # Robustness
//!
//! [`EngineConfig`] optionally carries a live-monitor budget
//! (`max_live_monitors`); when it trips, the engine walks the
//! [`DegradationPolicy`] ladder — forced safepoint sweeps, then exhaustive
//! per-event tree maintenance, then shedding new monitor creations — and
//! steps back down once pressure clears. Internal inconsistencies surface
//! as recoverable [`EngineError`]s via [`Engine::try_process`]; handler
//! callbacks run under `catch_unwind`, so a panicking handler quarantines
//! only its own monitor instance.

use rv_heap::Heap;
use rv_logic::{Aliveness, EventDef, EventId, Formalism, GoalSet, ParamSet, Verdict};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::binding::{Binding, BindingHash};
use crate::error::EngineError;
use crate::obs::{EngineObserver, FlagCause, GcCycleRecord, GcKind, GcReason, NoopObserver, Phase};
use crate::reference::Trigger;
use crate::stats::EngineStats;
use crate::store::{Instance, MonitorId, MonitorStore};
use crate::trees::{Maintainer, RvMap, RvSet};

/// Pressure-free events required before the engine leaves degradation.
const DEGRADATION_COOLDOWN: u32 = 16;

/// The monitor garbage-collection policy (§5 compares these head to head).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum GcPolicy {
    /// Never flag monitors (structures still shed entries whose keys die).
    None,
    /// JavaMOP: flag when all bound parameter objects are dead.
    AllParamsDead,
    /// RV: flag when the coenable-set ALIVENESS formula fails (falls back
    /// to [`GcPolicy::AllParamsDead`] behaviour for properties without
    /// coenable sets, e.g. CFG properties with a `fail` goal).
    #[default]
    CoenableLazy,
}

/// Which resource budget tripped (reported via
/// [`EngineObserver::budget_tripped`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BudgetKind {
    /// [`EngineConfig::max_live_monitors`].
    LiveMonitors,
}

impl BudgetKind {
    /// The snake_case label used in traces and snapshots.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BudgetKind::LiveMonitors => "live_monitors",
        }
    }
}

/// A rung of the graceful-degradation ladder, ordered by severity.
///
/// Under sustained budget pressure the engine escalates `ForcedSweep` →
/// `EagerCollect` → `ShedNewMonitors`, and it steps back to normal
/// operation after a run of pressure-free events.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum DegradationPolicy {
    /// Run a safepoint [`Engine::full_sweep`] when a budget trips.
    ForcedSweep,
    /// Additionally switch from lazy windowed expunging to exhaustive tree
    /// maintenance after every event.
    EagerCollect,
    /// Additionally refuse monitor creations while pressure persists
    /// (counted in [`EngineStats::shed`]), making the live-monitor budget
    /// a hard cap.
    ShedNewMonitors,
}

impl DegradationPolicy {
    /// The snake_case label used in traces and snapshots.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DegradationPolicy::ForcedSweep => "forced_sweep",
            DegradationPolicy::EagerCollect => "eager_collect",
            DegradationPolicy::ShedNewMonitors => "shed_new_monitors",
        }
    }
}

/// Configuration for an [`Engine`].
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// The GC policy.
    pub policy: GcPolicy,
    /// Record every trigger (tests) or only count them (benchmarks).
    pub record_triggers: bool,
    /// Enable the monomorphic lookup cache: consecutive events on the same
    /// parameter instance (the ubiquitous `hasNext()`/`next()` loop) reuse
    /// the previous tree lookup so long as no monitor was created, flagged
    /// or collected in between. This is this reproduction's stand-in for
    /// the "staged/decentralized indexing" optimizations the paper cites
    /// as orthogonal (\[6, 8, 17\]) and disables in its own evaluation.
    pub lookup_cache: bool,
    /// Budget on live monitor instances (`None` = unbounded). The
    /// degradation ladder makes this a hard cap: creations are shed
    /// rather than let the population exceed it.
    pub max_live_monitors: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            policy: GcPolicy::CoenableLazy,
            record_triggers: false,
            lookup_cache: true,
            max_live_monitors: None,
        }
    }
}

/// A monitoring engine for one parametric property.
///
/// The second type parameter is the [`EngineObserver`] receiving lifecycle
/// callbacks; it defaults to [`NoopObserver`], whose callbacks are empty
/// inlined functions, so unobserved engines pay nothing. Attach a real
/// observer with [`Engine::with_observer`].
#[derive(Debug)]
pub struct Engine<F: Formalism, O: EngineObserver = NoopObserver> {
    formalism: F,
    event_def: EventDef,
    goal: GoalSet,
    aliveness: Option<Aliveness>,
    config: EngineConfig,
    /// Per event: which tree and which creation sources dispatch touches.
    plans: Vec<EventPlan>,
    /// All parameter subsets that ever serve as creation sources.
    source_domains: Vec<ParamSet>,
    store: MonitorStore<F::State>,
    /// Exact-instance tables, sorted by domain: for each `dom(θ)` that has
    /// had an instance, a map `θ → monitor`.
    exact: Vec<(ParamSet, RvMap<MonitorId>)>,
    /// Indexing trees (Figure 6), parallel to `tracked`: for each tracked
    /// subset `P`, a map from `θ|P` to the set of instances with binding
    /// ⊒ `θ|P`.
    trees: Vec<RvMap<RvSet>>,
    /// Which subsets have trees, sorted: every `D(e)` plus every `Y ∩ D(e)`
    /// needed to locate join sources.
    tracked: Vec<ParamSet>,
    /// Calls to `sweep_once` so far: a sweep can drop exact-table entries
    /// without flagging or collecting anything, so the lookup-cache
    /// signature counts sweeps too.
    sweeps: u64,
    /// The *disable* table: event instances seen so far, used to refuse
    /// creating a monitor whose slice would be incomplete.
    disable: DisableTable,
    stats: EngineStats,
    /// Recorded triggers (when `record_triggers`).
    triggers: Vec<Trigger>,
    /// Scratch buffers reused across events.
    scratch_ids: Vec<MonitorId>,
    /// Nanoseconds of [`Phase::Creation`] spans inside the current event's
    /// disable check, which that span leaves out.
    creation_ns: u64,
    /// The monomorphic lookup cache (see [`EngineConfig::lookup_cache`]).
    cache: LookupCache,
    /// Active degradation rung (`None` = normal operation). `Option`
    /// ordering (`None < Some(_)`) matches ladder severity.
    degradation: Option<DegradationPolicy>,
    /// Consecutive pressure-free events; drives degradation recovery.
    clean_events: u32,
    /// Optional goal-report handler, run under `catch_unwind`.
    handler: HandlerSlot,
    /// The most recent error swallowed by the infallible [`Engine::process`]
    /// facade (sticky).
    last_error: Option<EngineError>,
    /// Construction instant: the time origin for [`GcCycleRecord::end_ns`]
    /// timestamps.
    epoch: Instant,
    /// The lifecycle observer (no-op by default).
    observer: O,
}

/// A goal-report handler: called with `(step, binding, verdict)` for each
/// trigger — the `@match`/`@fail` handler body of a spec.
pub type TriggerHandler = Box<dyn FnMut(usize, &Binding, Verdict)>;

/// Wrapper so [`Engine`] can keep deriving `Debug` around an opaque
/// closure.
#[derive(Default)]
struct HandlerSlot(Option<TriggerHandler>);

impl std::fmt::Debug for HandlerSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() { "HandlerSlot(set)" } else { "HandlerSlot(none)" })
    }
}

/// What dispatching one event touches, fixed at construction: `D(e)` is
/// fixed per event, so its tree and its join sources are too.
#[derive(Clone, Debug)]
struct EventPlan {
    /// Index of the `⟨D(e)⟩`-tree in `trees`.
    tree: usize,
    /// Whether the event's own instance is ever wanted: the event may start
    /// a goal slice (`∅ ∈ ENABLEˣ(e)`), or `D(e)` is a creation source.
    create_own: bool,
    /// The enable sets `Y` of `e` with `Y ⊄ D(e)`, in enable order.
    joins: Vec<JoinSource>,
}

/// Where a join finds the instances of domain `y` compatible with the
/// event's binding.
#[derive(Clone, Copy, Debug)]
struct JoinSource {
    y: ParamSet,
    /// The `⟨Y ∩ D(e)⟩`-tree, or `None` when `Y ∩ D(e) = ∅`: then every
    /// instance of domain `y` is compatible, and the exact table is scanned.
    tree: Option<usize>,
}

/// The monomorphic lookup cache: remembers the member list of the last
/// `⟨D(e)⟩`-tree lookup. Valid while the *mutation signature* — monitors
/// created + flagged + collected, and sweeps run — is unchanged: any
/// set-membership change or monitor-slot reuse moves one of those counters,
/// so a matching signature guarantees the cached ids are still exactly the
/// live members under the key (retired members are skipped by dispatch
/// anyway).
///
/// A hit also skips two probes whose answers cannot have changed: the
/// exact-table probe for the key's own instance (`own_exists`), and the
/// disable-table insert of the key, which the miss that filled the cache
/// made (`DisableTable::prune` forgets the key if it removes that entry).
#[derive(Debug, Default)]
struct LookupCache {
    key: Option<Binding>,
    signature: u64,
    members: Vec<MonitorId>,
    /// Whether the key's own exact instance existed at the end of the last
    /// event on it; `None` after a miss until that event ends, and after
    /// an event that created a monitor.
    own_exists: Option<bool>,
    hits: u64,
}

/// The disable table with its own lazy weak pruning.
#[derive(Debug, Default)]
struct DisableTable {
    seen: HashSet<Binding, BindingHash>,
    ring: Vec<Binding>,
    cursor: usize,
}

impl DisableTable {
    fn insert(&mut self, b: Binding) {
        if self.seen.insert(b) {
            self.ring.push(b);
        }
    }

    fn contains(&self, b: &Binding) -> bool {
        self.seen.contains(b)
    }

    /// Drops a few entries whose objects died: such instances can never
    /// recur, and creation checks against them are settled by the weak
    /// keys of the exact table anyway. Removing the lookup cache's key
    /// forgets it, so the next event on that binding misses and inserts it
    /// again.
    fn prune(&mut self, heap: &Heap, n: usize, cache_key: &mut Option<Binding>) {
        for _ in 0..n.min(self.ring.len()) {
            if self.cursor >= self.ring.len() {
                self.cursor = 0;
            }
            let b = self.ring[self.cursor];
            if b.iter().any(|(_, o)| !heap.is_alive(o)) {
                self.seen.remove(&b);
                self.ring.swap_remove(self.cursor);
                if *cache_key == Some(b) {
                    *cache_key = None;
                }
            } else {
                self.cursor += 1;
            }
        }
    }

    /// Retained entries, not allocator capacity: the rule of
    /// [`RvMap::estimated_bytes`], and capacity would follow the hash
    /// table's tombstone layout.
    fn bytes(&self) -> usize {
        (self.seen.len() + self.ring.len()) * std::mem::size_of::<Binding>()
    }
}

impl<F: Formalism> Engine<F> {
    /// Builds an engine for `formalism` with goal `goal` under `config`,
    /// with the zero-cost [`NoopObserver`].
    ///
    /// # Panics
    ///
    /// Panics if the event definition does not cover the formalism's
    /// alphabet.
    #[must_use]
    pub fn new(formalism: F, event_def: EventDef, goal: GoalSet, config: EngineConfig) -> Self {
        Engine::with_observer(formalism, event_def, goal, config, NoopObserver)
    }
}

impl<F: Formalism, O: EngineObserver> Engine<F, O> {
    /// Builds an engine whose lifecycle transitions are reported to
    /// `observer`.
    ///
    /// # Panics
    ///
    /// Panics if the event definition does not cover the formalism's
    /// alphabet.
    #[must_use]
    pub fn with_observer(
        formalism: F,
        event_def: EventDef,
        goal: GoalSet,
        config: EngineConfig,
        observer: O,
    ) -> Self {
        let alphabet = formalism.alphabet().clone();
        let n_events = alphabet.len();
        // ALIVENESS (§4.2.2).
        let aliveness = formalism.coenable(goal).map(|co| co.lift(&event_def).aliveness());
        // ENABLE sets → creation sources per event. Without enable sets
        // (CFG), creation is permissive: any existing domain can source a
        // join, and every event may start a slice.
        let (enable_sources, enable_bottom) = match formalism.enable(goal) {
            Some(en) => {
                let mut sources = Vec::with_capacity(n_events);
                let mut bottoms = Vec::with_capacity(n_events);
                for (family, has_empty) in &en {
                    let mut sets: Vec<ParamSet> =
                        family.sets().iter().map(|&s| event_def.params_of_set(s)).collect();
                    sets.sort_unstable_by_key(|s| std::cmp::Reverse(s.len()));
                    sets.dedup();
                    sources.push(sets);
                    bottoms.push(*has_empty);
                }
                (sources, bottoms)
            }
            None => {
                // All unions of event domains can be sources.
                let mut domains: Vec<ParamSet> = vec![ParamSet::EMPTY];
                for e in alphabet.iter() {
                    let d = event_def.params_of(e);
                    let mut extra: Vec<ParamSet> = domains.iter().map(|&x| x.union(d)).collect();
                    domains.append(&mut extra);
                    domains.sort_unstable();
                    domains.dedup();
                }
                domains.retain(|d| !d.is_empty());
                domains.sort_unstable_by_key(|s| std::cmp::Reverse(s.len()));
                (vec![domains; n_events], vec![true; n_events])
            }
        };
        let mut source_domains: Vec<ParamSet> = enable_sources.iter().flatten().copied().collect();
        source_domains.sort_unstable();
        source_domains.dedup();
        // Tracked tree subsets: every D(e), plus Y ∩ D(e) projections used
        // to locate join sources.
        let mut tracked: Vec<ParamSet> = alphabet.iter().map(|e| event_def.params_of(e)).collect();
        for e in alphabet.iter() {
            let d = event_def.params_of(e);
            for &y in &enable_sources[e.as_usize()] {
                let p = y.intersection(d);
                if !p.is_empty() {
                    tracked.push(p);
                }
            }
        }
        tracked.sort_unstable();
        tracked.dedup();
        let tree_of = |p: ParamSet| {
            tracked.binary_search(&p).expect("every D(e) and non-empty Y ∩ D(e) is tracked")
        };
        let plans = alphabet
            .iter()
            .map(|e| {
                let d = event_def.params_of(e);
                let joins = enable_sources[e.as_usize()]
                    .iter()
                    .filter(|y| !y.is_subset(d))
                    .map(|&y| {
                        let p = y.intersection(d);
                        JoinSource { y, tree: (!p.is_empty()).then(|| tree_of(p)) }
                    })
                    .collect();
                EventPlan {
                    tree: tree_of(d),
                    create_own: enable_bottom[e.as_usize()] || source_domains.contains(&d),
                    joins,
                }
            })
            .collect();
        let trees = tracked.iter().map(|_| RvMap::new()).collect();
        let mut store = MonitorStore::new();
        // Collected-id logging is what lets the engine deliver
        // `monitor_collected`; it is skipped entirely for the no-op.
        store.set_collected_log(O::ENABLED);
        Engine {
            formalism,
            event_def,
            goal,
            aliveness,
            config,
            plans,
            source_domains,
            store,
            exact: Vec::new(),
            trees,
            tracked,
            sweeps: 0,
            disable: DisableTable::default(),
            stats: EngineStats::default(),
            triggers: Vec::new(),
            scratch_ids: Vec::new(),
            creation_ns: 0,
            cache: LookupCache::default(),
            degradation: None,
            clean_events: 0,
            handler: HandlerSlot::default(),
            last_error: None,
            epoch: Instant::now(),
            observer,
        }
    }

    /// The attached observer.
    #[must_use]
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Mutable access to the attached observer (e.g. to dump its trace).
    #[must_use]
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// The property goal.
    #[must_use]
    pub fn goal(&self) -> GoalSet {
        self.goal
    }

    /// The underlying formalism.
    #[must_use]
    pub fn formalism(&self) -> &F {
        &self.formalism
    }

    /// The event definition `D`.
    #[must_use]
    pub fn event_def(&self) -> &EventDef {
        &self.event_def
    }

    /// Statistics so far (Fig. 10 columns and memory estimates).
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let mut s = self.stats;
        let ss = self.store.stats();
        s.monitors_created = ss.created;
        s.monitors_flagged = ss.flagged;
        s.monitors_collected = ss.collected;
        s.peak_live_monitors = ss.peak_live;
        s.live_monitors = self.store.live();
        s.quarantined = ss.quarantined;
        s
    }

    /// Triggers recorded so far (empty unless
    /// [`EngineConfig::record_triggers`]).
    #[must_use]
    pub fn triggers(&self) -> &[Trigger] {
        &self.triggers
    }

    /// Estimated bytes held by the engine's monitors and structures — the
    /// Fig. 9(B) metric.
    #[must_use]
    pub fn estimated_bytes(&self) -> usize {
        let mut bytes = self.store.estimated_bytes() + self.disable.bytes();
        for (_, m) in &self.exact {
            bytes += m.estimated_bytes();
        }
        for t in &self.trees {
            bytes += t.estimated_bytes();
            for (_, set) in t.iter() {
                bytes += set.estimated_bytes();
            }
        }
        bytes
    }

    /// Processes one parametric event `e⟨θ⟩` — the infallible facade over
    /// [`Engine::try_process`].
    ///
    /// This never panics: a monitoring layer that can abort the monitored
    /// program is worse than no monitoring at all. Malformed events and
    /// internal inconsistencies are dropped and remembered — the typed
    /// [`EngineError`] stays readable via [`Engine::last_error`]. Callers
    /// that need per-event failure reporting use [`Engine::try_process`].
    pub fn process(&mut self, heap: &Heap, event: EventId, binding: Binding) {
        if let Err(e) = self.try_process(heap, event, binding) {
            self.last_error = Some(e);
        }
    }

    /// The most recent error the infallible [`Engine::process`] facade
    /// swallowed, if any. Sticky: a later valid event leaves it in place.
    #[must_use]
    pub fn last_error(&self) -> Option<&EngineError> {
        self.last_error.as_ref()
    }

    /// Processes one parametric event, reporting malformed input and
    /// internal inconsistencies as recoverable [`EngineError`]s.
    ///
    /// # Errors
    ///
    /// [`EngineError::EventOutOfAlphabet`] and
    /// [`EngineError::InconsistentEvent`] reject malformed input before any
    /// state changes; the remaining variants report a broken internal
    /// invariant (the offending event is abandoned midway, but the engine
    /// stays usable).
    pub fn try_process(
        &mut self,
        heap: &Heap,
        event: EventId,
        binding: Binding,
    ) -> Result<(), EngineError> {
        if event.as_usize() >= self.plans.len() {
            return Err(EngineError::EventOutOfAlphabet(event));
        }
        let expected = self.event_def.params_of(event);
        if binding.domain() != expected {
            return Err(EngineError::InconsistentEvent { event, expected, got: binding.domain() });
        }
        let dispatched = self.dispatch(heap, event, binding);
        if dispatched.is_err() {
            // The abandoned event skipped its disable-table insert, which
            // a cache hit on its binding would take for granted.
            self.cache.key = None;
        }
        dispatched
    }

    /// The lookup-cache signature: moves whenever a monitor is created,
    /// flagged or collected, or a sweep runs.
    fn cache_signature(&self) -> u64 {
        let ss = self.store.stats();
        ss.created
            .wrapping_mul(3)
            .wrapping_add(ss.flagged.wrapping_mul(5))
            .wrapping_add(ss.collected.wrapping_mul(7))
            .wrapping_add(self.sweeps.wrapping_mul(11))
    }

    /// Dispatches one validated event (the body of [`Engine::try_process`]).
    fn dispatch(
        &mut self,
        heap: &Heap,
        event: EventId,
        binding: Binding,
    ) -> Result<(), EngineError> {
        let step = self.stats.events as usize;
        self.stats.events += 1;
        // End-to-end dispatch latency: from here (post-validation) through
        // governance, trigger delivery, and the collected-id flush.
        let t_event = if O::ENABLED { Some(Instant::now()) } else { None };
        let own_tree = self.plans[event.as_usize()].tree;

        // --- update existing instances ⊒ θ (Figure 6 lookup) ------------
        let signature = self.cache_signature();
        let t_lookup = if O::ENABLED { Some(Instant::now()) } else { None };
        let hit = self.config.lookup_cache
            && self.cache.key == Some(binding)
            && self.cache.signature == signature;
        if hit {
            // Monomorphic hit: same instance, no monitor lifecycle change.
            self.stats.cache_hits += 1;
            self.cache.hits += 1;
            self.scratch_ids.clear();
            self.scratch_ids.extend_from_slice(&self.cache.members);
            // Keep a trickle of lazy GC flowing even on hot loops.
            if self.cache.hits % 16 == 0 {
                let t_expunge = if O::ENABLED { Some(Instant::now()) } else { None };
                let mut sink = NotifySink::new(
                    &mut self.store,
                    &self.aliveness,
                    self.config.policy,
                    heap,
                    &mut self.stats,
                    &mut self.observer,
                );
                self.trees[own_tree].expunge(heap, 1, &mut sink);
                if let Some(t) = t_expunge {
                    self.observer.phase_timed(Phase::DeadKeyExpunge, elapsed_nanos(t));
                }
            }
        } else {
            let mut sink = NotifySink::new(
                &mut self.store,
                &self.aliveness,
                self.config.policy,
                heap,
                &mut self.stats,
                &mut self.observer,
            );
            self.scratch_ids.clear();
            if let Some(set) = self.trees[own_tree].get_mut(heap, binding, &mut sink) {
                // Figure 8: compact while touching the set.
                set.compact(sink.store);
                self.scratch_ids.extend_from_slice(set.members());
            }
            if self.config.lookup_cache {
                // The expunge above may itself have changed the signature.
                self.cache.key = Some(binding);
                self.cache.signature = self.cache_signature();
                self.cache.own_exists = None;
                self.cache.members.clear();
                self.cache.members.extend_from_slice(&self.scratch_ids);
            }
        }
        if let Some(t) = t_lookup {
            self.observer.phase_timed(Phase::IndexLookup, elapsed_nanos(t));
        }
        self.observer.event_dispatched(event, &binding, self.scratch_ids.len());
        let t_step = if O::ENABLED { Some(Instant::now()) } else { None };
        let ids = std::mem::take(&mut self.scratch_ids);
        let mut stepped = Ok(());
        for &id in &ids {
            if let Err(e) = self.step_instance(id, event, step) {
                stepped = Err(e);
                break;
            }
        }
        self.scratch_ids = ids;
        stepped?;
        if let Some(t) = t_step {
            self.observer.phase_timed(Phase::Transition, elapsed_nanos(t));
        }

        // --- create new instances (enable-set discipline) ----------------
        // Following JavaMOP's algorithm D: creation is attempted only when
        // the event's *own* binding has no instance yet (its first
        // relevant event). Joins with pre-existing instances are created
        // in the same step; later events find everything via the trees.
        // The exact table keeps even flagged/terminated instances until
        // they are swept, so this also prevents re-creating retired ones.
        // A hit reuses the answer of the last event on its binding: the
        // exact table gains entries only by creation and loses them only
        // by creation-time expunges and sweeps, all of which move the
        // signature.
        let t_disable = if O::ENABLED { Some(Instant::now()) } else { None };
        self.creation_ns = 0;
        let own_exists = match self.cache.own_exists {
            Some(known) if hit => known,
            _ => self.exact_get(&binding).is_some(),
        };
        let created_before = self.store.stats().created;
        if !own_exists {
            self.try_create_own(heap, event, binding, step)?;
            self.try_create_joins(heap, event, binding, step)?;
        }

        // Record the event instance in the disable table (a hit's binding
        // is already there), and do a little lazy maintenance elsewhere.
        if !hit {
            self.disable.insert(binding);
        }
        self.disable.prune(heap, 2, &mut self.cache.key);
        if self.config.lookup_cache {
            let created = self.store.stats().created != created_before;
            self.cache.own_exists = if created { None } else { Some(own_exists) };
        }
        if let Some(t) = t_disable {
            let ns = elapsed_nanos(t).saturating_sub(self.creation_ns);
            self.observer.phase_timed(Phase::DisableCheck, ns);
        }
        self.end_of_event_governance(heap);
        if O::ENABLED {
            self.flush_collected();
        }
        if let Some(t) = t_event {
            self.observer.event_latency(elapsed_nanos(t));
        }
        Ok(())
    }

    /// The exact instance for `key`, if one is registered.
    fn exact_get(&self, key: &Binding) -> Option<MonitorId> {
        let domain = key.domain();
        let (_, map) = self.exact.iter().find(|(d, _)| *d == domain)?;
        map.peek(key).copied()
    }

    /// Delivers `monitor_collected` for every id the store reclaimed since
    /// the last flush. Called at the end of [`Engine::process`] and of
    /// sweeps, so observer collection counts match [`EngineStats`] at every
    /// API boundary.
    fn flush_collected(&mut self) {
        for id in self.store.drain_collected() {
            self.observer.monitor_collected(id);
        }
    }

    /// Steps one live instance in place, reporting and retiring as needed.
    fn step_instance(
        &mut self,
        id: MonitorId,
        event: EventId,
        step: usize,
    ) -> Result<(), EngineError> {
        // invariant: every dispatched id comes from a container that holds
        // a reference on the slot, and unflagged/unterminated monitors keep
        // their exact-table reference — so the slot must be live. A stale
        // id here is a refcount bug, not a normal state.
        let Some(instance) = self.store.try_get_mut(id) else {
            debug_assert!(false, "stale monitor id dispatched");
            return Err(EngineError::StaleMonitor(id));
        };
        if instance.flagged || instance.terminated || instance.quarantined {
            return Ok(());
        }
        let before = self.formalism.state_bytes(&instance.state);
        let verdict = self.formalism.step(&mut instance.state, event);
        instance.last_event = event;
        let after = self.formalism.state_bytes(&instance.state);
        let binding = instance.binding;
        let terminal = self.formalism.is_terminal(&instance.state, self.goal);
        self.store.add_state_bytes(after as isize - before as isize);
        if self.goal.contains(verdict) {
            self.report(id, step, binding, verdict);
        }
        if terminal {
            self.store.terminate(id);
        }
        Ok(())
    }

    fn report(&mut self, id: MonitorId, step: usize, binding: Binding, verdict: Verdict) {
        self.stats.triggers += 1;
        self.observer.trigger_fired(step, &binding, verdict);
        if self.config.record_triggers {
            self.triggers.push(Trigger { step, binding, verdict });
        }
        if let Some(handler) = self.handler.0.as_mut() {
            // A panicking handler must not take the engine down: quarantine
            // the reporting monitor and keep processing.
            let outcome = catch_unwind(AssertUnwindSafe(|| handler(step, &binding, verdict)));
            if outcome.is_err() && self.store.quarantine(id) {
                self.observer.monitor_quarantined(id, &binding);
            }
        }
    }

    /// Creates the instance for the event's own binding, if the enable
    /// discipline wants it: either the event can start a goal slice
    /// (`∅ ∈ ENABLEˣ(e)`), or `D(e)` serves as a creation source for some
    /// future event.
    fn try_create_own(
        &mut self,
        heap: &Heap,
        event: EventId,
        binding: Binding,
        step: usize,
    ) -> Result<(), EngineError> {
        if !self.plans[event.as_usize()].create_own {
            self.stats.creations_skipped += 1;
            return Ok(());
        }
        // The resource gate goes first: it may run a sweep, which must
        // happen before a source instance is selected below.
        if !self.admit_creation(heap, &binding) {
            return Ok(());
        }
        // Inherit from the most informative existing sub-instance.
        let mut best: Option<(ParamSet, MonitorId)> = None;
        for &domain in &self.source_domains {
            if domain.is_subset(binding.domain())
                && domain != binding.domain()
                && best.is_none_or(|(b, _)| domain.len() > b.len())
            {
                if let Some(id) = self.exact_get(&binding.restrict(domain)) {
                    // invariant: the exact table holds a reference on the
                    // slot, so the id is live.
                    let source = self.store.try_get(id).ok_or(EngineError::StaleMonitor(id))?;
                    if !source.flagged && !source.terminated {
                        best = Some((domain, id));
                    }
                }
            }
        }
        let source_domain = best.map_or(ParamSet::EMPTY, |(d, _)| d);
        if !self.slice_complete(binding, source_domain) {
            self.stats.creations_skipped += 1;
            return Ok(());
        }
        let state = match best {
            Some((_, id)) => {
                self.store.try_get(id).ok_or(EngineError::StaleMonitor(id))?.state.clone()
            }
            None => self.formalism.initial_state(),
        };
        self.create_instance(heap, binding, state, event, step)?;
        Ok(())
    }

    /// Creates joins `θ ⊔ θ''` for sources `θ''` whose domain is an enable
    /// parameter set of `e`.
    fn try_create_joins(
        &mut self,
        heap: &Heap,
        event: EventId,
        binding: Binding,
        step: usize,
    ) -> Result<(), EngineError> {
        // Sources with `Y ⊆ D(e)` are not in the plan: the ⊒ update and
        // the own creation cover them.
        for k in 0..self.plans[event.as_usize()].joins.len() {
            let JoinSource { y, tree } = self.plans[event.as_usize()].joins[k];
            // Locate instances with domain exactly `y` compatible with θ.
            self.scratch_ids.clear();
            match tree {
                None => {
                    // Disjoint domains: every instance of domain y is
                    // compatible. Scan the exact table for y.
                    if let Some((_, m)) = self.exact.iter().find(|(d, _)| *d == y) {
                        self.scratch_ids.extend(m.iter().map(|(_, &id)| id));
                    }
                }
                Some(t) => {
                    let key = binding.restrict(y);
                    let mut sink = NotifySink::new(
                        &mut self.store,
                        &self.aliveness,
                        self.config.policy,
                        heap,
                        &mut self.stats,
                        &mut self.observer,
                    );
                    if let Some(set) = self.trees[t].get_mut(heap, key, &mut sink) {
                        set.compact(sink.store);
                        self.scratch_ids.extend_from_slice(set.members());
                    }
                }
            }
            let candidates = std::mem::take(&mut self.scratch_ids);
            for &id in &candidates {
                if !self.store.contains(id) {
                    continue;
                }
                let source = self.store.get(id);
                if source.flagged || source.terminated || source.binding.domain() != y {
                    continue;
                }
                let source_binding = source.binding;
                let Some(join) = binding.lub(source_binding) else { continue };
                if join == source_binding {
                    // The "join" is the source itself (θ ⊑ source): it was
                    // already stepped through the ⟨D(e)⟩-tree.
                    continue;
                }
                // Already exists?
                if self.exact_get(&join).is_some() {
                    continue;
                }
                if !self.slice_complete(join, y) {
                    self.stats.creations_skipped += 1;
                    continue;
                }
                // Born flagged: the GC policy would flag the new instance
                // right after its creating step — a needed parameter
                // object is already gone, or (empty ALIVENESS masks) no
                // event after this one is ever needed. The instance must
                // still be created and stepped, because the creating step
                // itself may reach the goal; it is flagged immediately
                // afterwards so the next sweep reclaims it.
                let dead = join.dead_params(heap);
                let born_flagged =
                    should_flag(self.config.policy, &self.aliveness, join.domain(), event, dead);
                if !self.admit_creation(heap, &join) {
                    continue;
                }
                // The admission gate may have swept; re-check the source.
                let state = match self.store.try_get(id) {
                    Some(s) if !s.flagged && !s.terminated => s.state.clone(),
                    _ => {
                        self.stats.creations_skipped += 1;
                        continue;
                    }
                };
                let new_id = match self.create_instance(heap, join, state, event, step) {
                    Ok(new_id) => new_id,
                    Err(e) => {
                        self.scratch_ids = candidates;
                        return Err(e);
                    }
                };
                if born_flagged && self.store.contains(new_id) {
                    let inst = self.store.get(new_id);
                    if !inst.terminated && !inst.flagged && self.store.flag(new_id) {
                        self.observer.monitor_flagged(
                            new_id,
                            &join,
                            event,
                            dead,
                            flag_cause(self.config.policy, &self.aliveness),
                        );
                    }
                }
            }
            self.scratch_ids = candidates;
        }
        Ok(())
    }

    /// The disable-table check: creating an instance for `target` from a
    /// source covering `source_domain` is exact iff no event instance
    /// `θ''' ⊑ target` with `dom(θ''') ⊄ source_domain` has occurred.
    fn slice_complete(&self, target: Binding, source_domain: ParamSet) -> bool {
        // Enumerate sub-domains of dom(target) not covered by the source.
        let dom = target.domain();
        let bits = dom.0;
        let mut sub = bits;
        loop {
            let s = ParamSet(sub);
            if !s.is_empty()
                && !s.is_subset(source_domain)
                && self.disable.contains(&target.restrict(s))
            {
                return false;
            }
            if sub == 0 {
                break;
            }
            sub = (sub - 1) & bits;
        }
        true
    }

    /// [`Engine::register_instance`], timed as one [`Phase::Creation`]
    /// span.
    fn create_instance(
        &mut self,
        heap: &Heap,
        binding: Binding,
        state: F::State,
        event: EventId,
        step: usize,
    ) -> Result<MonitorId, EngineError> {
        let t = if O::ENABLED { Some(Instant::now()) } else { None };
        let created = self.register_instance(heap, binding, state, event, step);
        if let Some(t) = t {
            let ns = elapsed_nanos(t);
            self.creation_ns += ns;
            self.observer.phase_timed(Phase::Creation, ns);
        }
        created
    }

    /// Registers a freshly created instance in the exact table and every
    /// relevant indexing tree, then steps it by the creating event.
    /// Returns the new instance's id.
    fn register_instance(
        &mut self,
        heap: &Heap,
        binding: Binding,
        state: F::State,
        event: EventId,
        step: usize,
    ) -> Result<MonitorId, EngineError> {
        let id = self.store.create(binding, state, event);
        self.observer.monitor_created(id, &binding);
        // invariant: `id` was created two lines above; the slot is live.
        self.store.add_state_bytes(self.formalism.state_bytes(&self.store.get(id).state) as isize);
        // Exact table (a domain's table appears with its first instance).
        let domain = binding.domain();
        let slot = match self.exact.binary_search_by_key(&domain, |(d, _)| *d) {
            Ok(slot) => slot,
            Err(slot) => {
                self.exact.insert(slot, (domain, RvMap::new()));
                slot
            }
        };
        let mut sink = ExactMaintainer {
            store: &mut self.store,
            aliveness: &self.aliveness,
            policy: self.config.policy,
            heap,
            observer: &mut self.observer,
        };
        self.exact[slot].1.insert(heap, binding, id, &mut sink);
        self.store.retain(id);
        // Trees: every tracked subset of the new binding's domain.
        for (&p, tree) in self.tracked.iter().zip(&mut self.trees) {
            if !p.is_subset(domain) {
                continue;
            }
            let key = binding.restrict(p);
            let mut sink = NotifySink::new(
                &mut self.store,
                &self.aliveness,
                self.config.policy,
                heap,
                &mut self.stats,
                &mut self.observer,
            );
            match tree.get_mut(heap, key, &mut sink) {
                Some(set) => set.push(id),
                None => {
                    tree.insert(heap, key, RvSet::singleton(id), &mut sink);
                }
            }
            self.store.retain(id);
        }
        // Step by the creating event.
        self.step_instance(id, event, step)?;
        Ok(id)
    }

    // --- resource governance (budgets + degradation ladder) -------------

    /// The degradation rung currently active, if any.
    #[must_use]
    pub fn degradation_level(&self) -> Option<DegradationPolicy> {
        self.degradation
    }

    /// Installs a handler invoked on every goal report (the spec's
    /// `@match`/`@fail` body). The handler runs under `catch_unwind`: if it
    /// panics, only the reporting monitor instance is quarantined (counted
    /// in [`EngineStats::quarantined`]) and the engine keeps processing.
    pub fn set_trigger_handler(&mut self, handler: impl FnMut(usize, &Binding, Verdict) + 'static) {
        self.handler = HandlerSlot(Some(Box::new(handler)));
    }

    /// Per-event budget evaluation and degradation bookkeeping, run at the
    /// end of [`Engine::try_process`]. Costs nothing when no budget is
    /// configured and the engine is not degraded.
    fn end_of_event_governance(&mut self, heap: &Heap) {
        if self.config.max_live_monitors.is_none() && self.degradation.is_none() {
            return;
        }
        // EagerCollect and deeper: lazy windowed expunging is not keeping
        // up, so run exhaustive tree maintenance after every event.
        if self.degradation >= Some(DegradationPolicy::EagerCollect) {
            self.sweep_once_timed(heap);
        }
        let mut pressure = false;
        if let Some(max) = self.config.max_live_monitors {
            if self.store.live() > max {
                pressure = true;
                self.trip(self.store.live() as u64, max as u64, heap);
            }
            pressure |= self.store.live() >= max;
        }
        if let Some(level) = self.degradation {
            if pressure {
                self.clean_events = 0;
            } else {
                self.clean_events += 1;
                if self.clean_events >= DEGRADATION_COOLDOWN {
                    self.degradation = None;
                    self.clean_events = 0;
                    self.observer.degradation_exited(level);
                }
            }
        }
    }

    /// The budget gate run before each monitor creation. Returns `false`
    /// when the creation must be shed — which only happens at the
    /// [`DegradationPolicy::ShedNewMonitors`] rung.
    fn admit_creation(&mut self, heap: &Heap, binding: &Binding) -> bool {
        if let Some(max) = self.config.max_live_monitors {
            if self.store.live() >= max {
                self.trip(self.store.live() as u64, max as u64, heap);
                if self.store.live() >= max
                    && self.degradation == Some(DegradationPolicy::ShedNewMonitors)
                {
                    self.stats.shed += 1;
                    self.observer.monitor_shed(binding);
                    return false;
                }
            }
        }
        true
    }

    /// Handles one live-monitor budget violation: record it, make sure a
    /// degradation rung is active, apply remedies, and escalate while the
    /// pressure persists.
    fn trip(&mut self, observed: u64, limit: u64, heap: &Heap) {
        self.stats.budget_trips += 1;
        self.observer.budget_tripped(BudgetKind::LiveMonitors, observed, limit);
        self.clean_events = 0;
        // Sweeps run while already degraded are maintenance demanded by
        // the ladder; the first trip's sweep is charged to the budget.
        let sweep_reason = if self.degradation.is_some() {
            GcReason::Degradation
        } else {
            self.enter_degradation(DegradationPolicy::ForcedSweep);
            GcReason::Budget
        };
        loop {
            let rung = self.degradation.unwrap_or(DegradationPolicy::ForcedSweep);
            if rung < DegradationPolicy::ShedNewMonitors {
                self.full_sweep_with(heap, sweep_reason);
            }
            if (self.store.live() as u64) < limit || rung == DegradationPolicy::ShedNewMonitors {
                return;
            }
            self.enter_degradation(match rung {
                DegradationPolicy::ForcedSweep => DegradationPolicy::EagerCollect,
                _ => DegradationPolicy::ShedNewMonitors,
            });
        }
    }

    /// Raises the active rung to at least `level`, reporting the
    /// escalation. Never lowers the rung.
    fn enter_degradation(&mut self, level: DegradationPolicy) {
        if self.degradation < Some(level) {
            self.degradation = Some(level);
            self.stats.degradations += 1;
            self.observer.degradation_entered(level);
        }
    }

    /// Validates store/tree/stats consistency, returning the first
    /// violation found. Intended for debug builds, chaos harnesses, and
    /// post-mortems — it walks every container, so it is O(monitors).
    ///
    /// # Errors
    ///
    /// [`EngineError::InvariantViolation`] (or
    /// [`EngineError::StaleMonitor`]) describing the first inconsistency.
    pub fn check_invariants(&self, heap: &Heap) -> Result<(), EngineError> {
        fn err(msg: String) -> Result<(), EngineError> {
            Err(EngineError::InvariantViolation(msg))
        }
        let s = self.stats();
        if s.monitors_created - s.monitors_collected != s.live_monitors as u64 {
            return err(format!(
                "created ({}) - collected ({}) != live ({})",
                s.monitors_created, s.monitors_collected, s.live_monitors
            ));
        }
        if s.monitors_flagged > s.monitors_created {
            return err(format!(
                "flagged ({}) exceeds created ({})",
                s.monitors_flagged, s.monitors_created
            ));
        }
        if s.peak_live_monitors < s.live_monitors {
            return err(format!(
                "peak ({}) below live ({})",
                s.peak_live_monitors, s.live_monitors
            ));
        }
        // Count container memberships per monitor and check key shapes.
        let mut memberships: HashMap<MonitorId, u32> = HashMap::new();
        for (domain, map) in &self.exact {
            let domain = *domain;
            for (key, &id) in map.iter() {
                if key.domain() != domain {
                    return err(format!("exact key {key:?} filed under domain {domain:?}"));
                }
                let Some(instance) = self.store.try_get(id) else {
                    return Err(EngineError::StaleMonitor(id));
                };
                if instance.binding != *key {
                    return err(format!(
                        "exact entry {key:?} maps to monitor with binding {:?}",
                        instance.binding
                    ));
                }
                *memberships.entry(id).or_insert(0) += 1;
            }
        }
        for (&p, tree) in self.tracked.iter().zip(&self.trees) {
            for (key, set) in tree.iter() {
                if key.domain() != p {
                    return err(format!("tree ⟨{p:?}⟩ holds key {key:?}"));
                }
                for &id in set.members() {
                    let Some(instance) = self.store.try_get(id) else {
                        return Err(EngineError::StaleMonitor(id));
                    };
                    if instance.binding.restrict(p) != *key {
                        return err(format!(
                            "tree ⟨{p:?}⟩ key {key:?} holds monitor with binding {:?}",
                            instance.binding
                        ));
                    }
                    *memberships.entry(id).or_insert(0) += 1;
                }
            }
        }
        for (id, instance) in self.store.iter() {
            let held = memberships.get(&id).copied().unwrap_or(0);
            if held != instance.refs() {
                return err(format!(
                    "monitor #{} holds {} container refs but appears in {} containers",
                    id.as_usize(),
                    instance.refs(),
                    held
                ));
            }
        }
        // Heap-dependent check: under AllParamsDead a flagged monitor's
        // parameters must all be dead — ObjId generations make death
        // permanent, so this holds at any later time too.
        if self.config.policy == GcPolicy::AllParamsDead {
            for (id, instance) in self.store.iter() {
                if instance.flagged {
                    let domain = instance.binding.domain();
                    if domain.is_empty() || instance.binding.dead_params(heap) != domain {
                        return err(format!(
                            "monitor #{} flagged under AllParamsDead with live parameters",
                            id.as_usize()
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Runs GC maintenance over every structure, fully expunging dead keys
    /// and compacting sets. Called by benchmarks at safepoints and by
    /// [`Engine::finish`]. Emits a [`GcReason::Forced`] cycle record (the
    /// caller asked for the sweep explicitly).
    pub fn full_sweep(&mut self, heap: &Heap) {
        self.full_sweep_with(heap, GcReason::Forced);
    }

    /// [`Engine::full_sweep`] with an explicit [`GcReason`], returning the
    /// per-cycle accounting delivered to the observer — or `None` when the
    /// observer is disabled, in which case no wall clock is read and no
    /// record is assembled at all (the structural zero-overhead guarantee).
    pub fn full_sweep_with(&mut self, heap: &Heap, reason: GcReason) -> Option<GcCycleRecord> {
        // Two passes: the first discovers dead keys and *flags* monitors
        // (Figure 7); the second compacts live-keyed structures, which can
        // only shed monitors once they are flagged (Figure 8). Incremental
        // operation interleaves these naturally; a safepoint sweep must
        // sequence them.
        let before = self.store.stats();
        let live_before = self.store.live() as u64;
        self.observer.sweep_started();
        let t_sweep = if O::ENABLED { Some(Instant::now()) } else { None };
        for _ in 0..2 {
            self.sweep_once(heap);
        }
        let pause_ns = t_sweep.map(elapsed_nanos);
        if let Some(ns) = pause_ns {
            self.observer.phase_timed(Phase::Sweep, ns);
        }
        if O::ENABLED {
            self.flush_collected();
        }
        let after = self.store.stats();
        self.observer
            .sweep_finished(after.flagged - before.flagged, after.collected - before.collected);
        let record = pause_ns.map(|ns| GcCycleRecord {
            kind: GcKind::MonitorSweep,
            reason,
            end_ns: elapsed_nanos(self.epoch),
            pause_ns: ns,
            scanned: live_before,
            reclaimed: after.collected - before.collected,
            flagged: after.flagged - before.flagged,
            occupancy_before: live_before,
            occupancy_after: self.store.live() as u64,
        });
        if let Some(rec) = &record {
            self.observer.gc_cycle(rec);
        }
        record
    }

    fn sweep_once_timed(&mut self, heap: &Heap) {
        let t = if O::ENABLED { Some(Instant::now()) } else { None };
        self.sweep_once(heap);
        if let Some(t) = t {
            self.observer.phase_timed(Phase::DeadKeyExpunge, elapsed_nanos(t));
        }
    }

    fn sweep_once(&mut self, heap: &Heap) {
        // Visit structures in domain order (both tables are sorted by
        // domain): sweep-driven releases determine slot reuse, and
        // identical runs (original vs crash-recovered) must release in the
        // same order.
        self.sweeps += 1;
        let policy = self.config.policy;
        for tree in &mut self.trees {
            let mut sink = NotifySink::new(
                &mut self.store,
                &self.aliveness,
                policy,
                heap,
                &mut self.stats,
                &mut self.observer,
            );
            tree.expunge_all(heap, &mut sink);
        }
        for (_, map) in &mut self.exact {
            let mut sink = ExactMaintainer {
                store: &mut self.store,
                aliveness: &self.aliveness,
                policy,
                heap,
                observer: &mut self.observer,
            };
            map.expunge_all(heap, &mut sink);
        }
    }

    /// Final flush: sweeps everything and releases all containers, so CM
    /// reflects every monitor the engine let go of.
    pub fn finish(&mut self, heap: &Heap) {
        self.full_sweep(heap);
    }

    /// Drains the heap's completed-collection log and delivers each cycle
    /// to the observer as a [`GcKind::HeapCollect`] record. A no-op (the
    /// log is still drained, keeping it bounded) when the observer is
    /// disabled. Call once per heap per drain point: the heap log is
    /// consumed, so routing it through several engines would double-count.
    pub fn observe_heap_cycles(&mut self, heap: &mut Heap) {
        let cycles = heap.drain_cycles();
        if O::ENABLED {
            for c in &cycles {
                self.observer.gc_cycle(&GcCycleRecord::from_heap_cycle(c));
            }
        }
    }

    // --- Checkpoint/restore (crash consistency) --------------------------

    /// Serializes the engine's full dynamic state — monitor instances,
    /// indexing trees, GC flags, the disable table, statistics, recorded
    /// triggers, and degradation state — as a versioned, self-validating
    /// byte payload (the checkpoint body of `snapshot.rs`).
    ///
    /// The encoding is *canonical*: hash-map contents are sorted by
    /// binding, everything else keeps its in-memory order (slot positions,
    /// free-list LIFO order, set membership order, expunge rings), so
    /// `snapshot → restore → snapshot` is byte-identical and a restored
    /// engine replays future events exactly as the original would have.
    ///
    /// Returns `None` when the formalism has no state codec
    /// ([`Formalism::encode_state`] unsupported) — every formalism shipped
    /// with this reproduction has one.
    #[must_use]
    pub fn snapshot_bytes(&self) -> Option<Vec<u8>> {
        use crate::journal::encode_binding;
        use crate::snapshot::{put_bytes, put_u16, put_u32, put_u64};
        let mut out = Vec::with_capacity(256);
        out.push(ENGINE_SNAPSHOT_VERSION);
        // Fingerprint: restoring into an engine built for a different
        // policy or alphabet must fail loudly, not silently misbehave.
        out.push(policy_byte(self.config.policy));
        put_u16(&mut out, self.formalism.alphabet().len() as u16);
        // Monitor store, positionally: slot indices are the identity the
        // indexing structures reference.
        let slots = self.store.snapshot_slots();
        put_u64(&mut out, slots.len() as u64);
        let mut state_buf = Vec::new();
        for slot in slots {
            match slot {
                None => out.push(0),
                Some(inst) => {
                    out.push(1);
                    encode_binding(inst.binding, &mut out);
                    state_buf.clear();
                    if !self.formalism.encode_state(&inst.state, &mut state_buf) {
                        return None;
                    }
                    put_bytes(&mut out, &state_buf);
                    put_u16(&mut out, inst.last_event.0);
                    let flags = u8::from(inst.flagged)
                        | (u8::from(inst.terminated) << 1)
                        | (u8::from(inst.quarantined) << 2);
                    out.push(flags);
                    put_u32(&mut out, inst.refs());
                }
            }
        }
        let free = self.store.snapshot_free();
        put_u64(&mut out, free.len() as u64);
        for &i in free {
            put_u32(&mut out, i);
        }
        let ss = self.store.stats();
        put_u64(&mut out, ss.created);
        put_u64(&mut out, ss.flagged);
        put_u64(&mut out, ss.collected);
        put_u64(&mut out, ss.quarantined);
        put_u64(&mut out, ss.peak_live as u64);
        put_u64(&mut out, self.store.snapshot_state_bytes() as u64);
        // Exact-instance tables, sorted by domain.
        put_u32(&mut out, self.exact.len() as u32);
        for (d, map) in &self.exact {
            put_u32(&mut out, d.0);
            encode_rvmap(map, &mut out, |&id, out| {
                put_u32(out, id.as_usize() as u32);
            });
        }
        // Indexing trees, sorted by tracked subset.
        put_u32(&mut out, self.trees.len() as u32);
        for (d, tree) in self.tracked.iter().zip(&self.trees) {
            put_u32(&mut out, d.0);
            encode_rvmap(tree, &mut out, |set: &RvSet, out| {
                put_u64(out, set.members().len() as u64);
                for &id in set.members() {
                    put_u32(out, id.as_usize() as u32);
                }
            });
        }
        // Disable table: seen sorted, prune ring verbatim.
        let mut seen: Vec<Binding> = self.disable.seen.iter().copied().collect();
        seen.sort_unstable();
        put_u64(&mut out, seen.len() as u64);
        for b in seen {
            encode_binding(b, &mut out);
        }
        put_u64(&mut out, self.disable.ring.len() as u64);
        for &b in &self.disable.ring {
            encode_binding(b, &mut out);
        }
        put_u64(&mut out, self.disable.cursor as u64);
        // Raw statistics field (the store-derived columns are recomputed
        // by `stats()`; serializing the raw field keeps round trips exact).
        let s = &self.stats;
        for v in [
            s.events,
            s.monitors_created,
            s.monitors_flagged,
            s.monitors_collected,
            s.peak_live_monitors as u64,
            s.live_monitors as u64,
            s.triggers,
            s.dead_keys,
            s.creations_skipped,
            s.cache_hits,
            s.shed,
            s.quarantined,
            s.budget_trips,
            s.degradations,
        ] {
            put_u64(&mut out, v);
        }
        // Recorded triggers.
        put_u64(&mut out, self.triggers.len() as u64);
        for t in &self.triggers {
            put_u64(&mut out, t.step as u64);
            out.push(t.verdict.to_byte());
            encode_binding(t.binding, &mut out);
        }
        // Degradation state.
        out.push(match self.degradation {
            None => 0,
            Some(DegradationPolicy::ForcedSweep) => 1,
            Some(DegradationPolicy::EagerCollect) => 2,
            Some(DegradationPolicy::ShedNewMonitors) => 3,
        });
        put_u32(&mut out, self.clean_events);
        // Reserved, always 0 (restore rejects anything else): it keeps the
        // payload layout that `ENGINE_SNAPSHOT_VERSION` names.
        out.push(0);
        Some(out)
    }

    /// Restores a [`Engine::snapshot_bytes`] payload into this engine,
    /// replacing its dynamic state wholesale. The engine must have been
    /// constructed with the same formalism, event definition, goal, and
    /// configuration as the one that took the snapshot (checked via an
    /// embedded fingerprint).
    ///
    /// Restore is *pure*: it does not consult the heap and does not
    /// re-evaluate GC flags, so `snapshot → restore → snapshot` is
    /// byte-identical. Dead keys stay for the lazy path to discover, as
    /// they would have in the engine that took the snapshot; recovery
    /// follows the restore with [`Engine::check_invariants`].
    ///
    /// # Errors
    ///
    /// [`EngineError::CorruptSnapshot`] (with `file` as context) on any
    /// malformed, truncated, or fingerprint-mismatched payload; the engine
    /// is left unmodified in that case.
    pub fn restore_snapshot(&mut self, bytes: &[u8], file: &str) -> Result<(), EngineError> {
        self.try_restore(bytes)
            .map_err(|detail| EngineError::CorruptSnapshot { file: file.to_owned(), detail })
    }

    #[allow(clippy::too_many_lines)]
    fn try_restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        use crate::snapshot::Cursor;
        fn need<T>(v: Option<T>, what: &str) -> Result<T, String> {
            v.ok_or_else(|| format!("truncated or malformed {what}"))
        }
        let mut c = Cursor::new(bytes);
        let version = need(c.u8(), "version byte")?;
        if version != ENGINE_SNAPSHOT_VERSION {
            return Err(format!(
                "unsupported snapshot version {version} (expected {ENGINE_SNAPSHOT_VERSION})"
            ));
        }
        let policy = need(c.u8(), "policy byte")?;
        if policy != policy_byte(self.config.policy) {
            return Err(format!(
                "policy mismatch: snapshot has {policy}, engine runs {:?}",
                self.config.policy
            ));
        }
        let n_events = usize::from(need(c.u16(), "alphabet size")?);
        if n_events != self.formalism.alphabet().len() {
            return Err(format!(
                "alphabet mismatch: snapshot has {n_events} events, engine has {}",
                self.formalism.alphabet().len()
            ));
        }
        // Store.
        let nslots = need(c.count(), "slot count")?;
        let mut slots: Vec<Option<Instance<F::State>>> = Vec::with_capacity(nslots);
        for i in 0..nslots {
            match need(c.u8(), "slot presence byte")? {
                0 => slots.push(None),
                1 => {
                    let binding = need(c.binding(), "monitor binding")?;
                    let state_bytes = need(c.bytes(), "monitor state")?;
                    let state = self
                        .formalism
                        .decode_state(state_bytes)
                        .ok_or_else(|| format!("undecodable monitor state in slot {i}"))?;
                    let last_event = need(c.u16(), "last event")?;
                    if usize::from(last_event) >= n_events {
                        return Err(format!("slot {i}: last event {last_event} out of alphabet"));
                    }
                    let flags = need(c.u8(), "flag byte")?;
                    if flags > 0b111 {
                        return Err(format!("slot {i}: unknown flag bits {flags:#x}"));
                    }
                    let refs = need(c.u32(), "reference count")?;
                    slots.push(Some(Instance::from_parts(
                        binding,
                        state,
                        EventId(last_event),
                        flags & 1 != 0,
                        flags & 2 != 0,
                        flags & 4 != 0,
                        refs,
                    )));
                }
                b => return Err(format!("slot {i}: invalid presence byte {b}")),
            }
        }
        let nfree = need(c.count(), "free-list length")?;
        let mut free = Vec::with_capacity(nfree);
        let mut freed = vec![false; nslots];
        for _ in 0..nfree {
            let i = need(c.u32(), "free-list entry")? as usize;
            if i >= nslots || slots[i].is_some() || freed[i] {
                return Err(format!("free-list entry {i} does not name an empty slot"));
            }
            freed[i] = true;
            free.push(i as u32);
        }
        if free.len() != slots.iter().filter(|s| s.is_none()).count() {
            return Err("free list does not cover every empty slot".into());
        }
        let store_stats = crate::store::StoreStats {
            created: need(c.u64(), "created count")?,
            flagged: need(c.u64(), "flagged count")?,
            collected: need(c.u64(), "collected count")?,
            quarantined: need(c.u64(), "quarantined count")?,
            peak_live: need(c.u64(), "peak-live count")? as usize,
        };
        let state_extra = need(c.u64(), "state bytes")? as usize;
        // Exact tables.
        let live_slot = |id: u32| (id as usize) < nslots && slots[id as usize].is_some();
        let nexact = need(c.u32(), "exact-table count")? as usize;
        let mut exact: Vec<(ParamSet, RvMap<MonitorId>)> = Vec::new();
        for _ in 0..nexact {
            let domain = ParamSet(need(c.u32(), "exact-table domain")?);
            let (window, cursor, ring, entries) = decode_rvmap(&mut c, |c| {
                let id = c.u32()?;
                live_slot(id).then(|| MonitorId::from_raw(id))
            })
            .ok_or("malformed exact table")?;
            if exact.iter().any(|(d, _)| *d == domain) {
                return Err(format!("duplicate exact table for domain {domain:?}"));
            }
            let mut m = RvMap::new();
            m.restore_parts(window, cursor, ring, entries);
            exact.push((domain, m));
        }
        exact.sort_unstable_by_key(|(d, _)| *d);
        // Trees.
        let ntrees = need(c.u32(), "tree count")? as usize;
        if ntrees != self.trees.len() {
            return Err(format!(
                "tree count mismatch: snapshot has {ntrees}, engine tracks {}",
                self.trees.len()
            ));
        }
        let mut trees: Vec<Option<RvMap<RvSet>>> = self.tracked.iter().map(|_| None).collect();
        for _ in 0..ntrees {
            let domain = ParamSet(need(c.u32(), "tree domain")?);
            let Ok(slot) = self.tracked.binary_search(&domain) else {
                return Err(format!("snapshot tree domain {domain:?} is not tracked"));
            };
            let (window, cursor, ring, entries) = decode_rvmap(&mut c, |c| {
                let n = c.count()?;
                let mut set = RvSet::new();
                for _ in 0..n {
                    let id = c.u32()?;
                    if !live_slot(id) {
                        return None;
                    }
                    set.push(MonitorId::from_raw(id));
                }
                Some(set)
            })
            .ok_or("malformed indexing tree")?;
            let mut m = RvMap::new();
            m.restore_parts(window, cursor, ring, entries);
            if trees[slot].replace(m).is_some() {
                return Err(format!("duplicate tree for domain {domain:?}"));
            }
        }
        // As many trees as tracked subsets, none twice: every one is here.
        let trees: Vec<RvMap<RvSet>> =
            trees.into_iter().collect::<Option<_>>().ok_or("missing indexing tree")?;
        // Disable table.
        let nseen = need(c.count(), "disable-table size")?;
        let mut seen = HashSet::with_capacity_and_hasher(nseen, BindingHash::default());
        for _ in 0..nseen {
            if !seen.insert(need(c.binding(), "disable-table binding")?) {
                return Err("duplicate disable-table binding".into());
            }
        }
        let nring = need(c.count(), "disable-ring length")?;
        let mut ring = Vec::with_capacity(nring);
        for _ in 0..nring {
            ring.push(need(c.binding(), "disable-ring binding")?);
        }
        let cursor = need(c.u64(), "disable cursor")? as usize;
        let disable = DisableTable { seen, ring, cursor };
        // Statistics.
        let mut stat = |what| need(c.u64(), what);
        let stats = EngineStats {
            events: stat("events stat")?,
            monitors_created: stat("created stat")?,
            monitors_flagged: stat("flagged stat")?,
            monitors_collected: stat("collected stat")?,
            peak_live_monitors: stat("peak-live stat")? as usize,
            live_monitors: stat("live stat")? as usize,
            triggers: stat("triggers stat")?,
            dead_keys: stat("dead-keys stat")?,
            creations_skipped: stat("skipped stat")?,
            cache_hits: stat("cache stat")?,
            shed: stat("shed stat")?,
            quarantined: stat("quarantined stat")?,
            budget_trips: stat("budget stat")?,
            degradations: stat("degradations stat")?,
        };
        // Recorded triggers.
        let ntriggers = need(c.count(), "trigger count")?;
        let mut triggers = Vec::with_capacity(ntriggers);
        for _ in 0..ntriggers {
            let step = need(c.u64(), "trigger step")? as usize;
            let verdict = Verdict::from_byte(need(c.u8(), "trigger verdict")?)
                .ok_or("invalid trigger verdict byte")?;
            let binding = need(c.binding(), "trigger binding")?;
            triggers.push(Trigger { step, binding, verdict });
        }
        // Degradation state.
        let degradation = match need(c.u8(), "degradation rung")? {
            0 => None,
            1 => Some(DegradationPolicy::ForcedSweep),
            2 => Some(DegradationPolicy::EagerCollect),
            3 => Some(DegradationPolicy::ShedNewMonitors),
            b => return Err(format!("invalid degradation rung {b}")),
        };
        let clean_events = need(c.u32(), "clean-event count")?;
        match need(c.u8(), "reserved byte")? {
            0 => {}
            b => return Err(format!("invalid reserved byte {b}")),
        }
        if !c.finished() {
            return Err("trailing bytes after snapshot payload".into());
        }
        // Commit: nothing above touched `self`, so a failed decode leaves
        // the engine untouched.
        self.store.restore_parts(slots, free, store_stats, state_extra);
        self.exact = exact;
        self.trees = trees;
        self.disable = disable;
        self.stats = stats;
        self.triggers = triggers;
        self.scratch_ids.clear();
        self.cache = LookupCache::default();
        self.degradation = degradation;
        self.clean_events = clean_events;
        Ok(())
    }
}

/// Version byte of the engine snapshot payload (bumped on any layout
/// change; see DESIGN.md §10 for the version history).
pub(crate) const ENGINE_SNAPSHOT_VERSION: u8 = 1;

/// The stable one-byte encoding of a [`GcPolicy`] used in snapshot
/// fingerprints.
fn policy_byte(policy: GcPolicy) -> u8 {
    match policy {
        GcPolicy::None => 0,
        GcPolicy::AllParamsDead => 1,
        GcPolicy::CoenableLazy => 2,
    }
}

/// Serializes one weak map: expunge schedule verbatim (window, cursor,
/// ring), then the live entries sorted by binding for a canonical byte
/// stream.
fn encode_rvmap<V>(map: &RvMap<V>, out: &mut Vec<u8>, mut enc_value: impl FnMut(&V, &mut Vec<u8>)) {
    use crate::journal::encode_binding;
    use crate::snapshot::put_u64;
    let (window, cursor, ring) = map.snapshot_schedule();
    put_u64(out, window as u64);
    put_u64(out, cursor as u64);
    put_u64(out, ring.len() as u64);
    for &b in ring {
        encode_binding(b, out);
    }
    let mut entries: Vec<(&Binding, &V)> = map.snapshot_entries().iter().collect();
    entries.sort_unstable_by_key(|(b, _)| **b);
    put_u64(out, entries.len() as u64);
    for (b, v) in entries {
        encode_binding(*b, out);
        enc_value(v, out);
    }
}

/// Decodes [`encode_rvmap`]; `None` on malformed bytes.
#[allow(clippy::type_complexity)]
fn decode_rvmap<V>(
    c: &mut crate::snapshot::Cursor<'_>,
    mut dec_value: impl FnMut(&mut crate::snapshot::Cursor<'_>) -> Option<V>,
) -> Option<(usize, usize, Vec<Binding>, Vec<(Binding, V)>)> {
    let window = usize::try_from(c.u64()?).ok()?;
    let cursor = usize::try_from(c.u64()?).ok()?;
    let nring = c.count()?;
    let mut ring = Vec::with_capacity(nring);
    for _ in 0..nring {
        ring.push(c.binding()?);
    }
    let nentries = c.count()?;
    let mut entries = Vec::with_capacity(nentries);
    for _ in 0..nentries {
        let b = c.binding()?;
        let v = dec_value(c)?;
        entries.push((b, v));
    }
    Some((window, cursor, ring, entries))
}

/// Nanoseconds since `t`, saturating.
fn elapsed_nanos(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Which [`FlagCause`] the active policy reports when it flags.
fn flag_cause(policy: GcPolicy, aliveness: &Option<Aliveness>) -> FlagCause {
    match policy {
        GcPolicy::CoenableLazy if aliveness.is_some() => FlagCause::Aliveness,
        _ => FlagCause::AllParamsDead,
    }
}

/// Shared flagging rule.
fn should_flag(
    policy: GcPolicy,
    aliveness: &Option<Aliveness>,
    domain: ParamSet,
    last_event: EventId,
    dead: ParamSet,
) -> bool {
    match policy {
        GcPolicy::None => false,
        GcPolicy::AllParamsDead => !domain.is_empty() && dead == domain,
        GcPolicy::CoenableLazy => match aliveness {
            Some(a) => !a.is_necessary(last_event, dead),
            None => !domain.is_empty() && dead == domain,
        },
    }
}

/// Tree maintenance: notification of monitors under dead keys (Figure 7)
/// plus Figure 8 set compaction for live keys.
struct NotifySink<'a, S, O: EngineObserver> {
    store: &'a mut MonitorStore<S>,
    aliveness: &'a Option<Aliveness>,
    policy: GcPolicy,
    heap: &'a Heap,
    stats: &'a mut EngineStats,
    observer: &'a mut O,
}

impl<'a, S, O: EngineObserver> NotifySink<'a, S, O> {
    fn new(
        store: &'a mut MonitorStore<S>,
        aliveness: &'a Option<Aliveness>,
        policy: GcPolicy,
        heap: &'a Heap,
        stats: &'a mut EngineStats,
        observer: &'a mut O,
    ) -> Self {
        NotifySink { store, aliveness, policy, heap, stats, observer }
    }
}

impl<S, O: EngineObserver> Maintainer<RvSet> for NotifySink<'_, S, O> {
    /// Figure 7 (A): the key died; notify all monitors below, then drop the
    /// subtree (B).
    fn on_dead(&mut self, key: Binding, mut set: RvSet) {
        self.stats.dead_keys += 1;
        self.observer.dead_key_discovered(&key);
        let t = if O::ENABLED { Some(Instant::now()) } else { None };
        for &id in set.members() {
            if !self.store.contains(id) {
                continue;
            }
            let instance = self.store.get(id);
            if instance.flagged || instance.terminated {
                continue;
            }
            let binding = instance.binding;
            let last_event = instance.last_event;
            let dead = binding.dead_params(self.heap);
            if should_flag(self.policy, self.aliveness, binding.domain(), last_event, dead)
                && self.store.flag(id)
            {
                self.observer.monitor_flagged(
                    id,
                    &binding,
                    last_event,
                    dead,
                    flag_cause(self.policy, self.aliveness),
                );
            }
        }
        if let Some(t) = t {
            self.observer.phase_timed(Phase::Aliveness, elapsed_nanos(t));
        }
        set.release_all(self.store);
    }

    /// §5.1.1: live-keyed sets are compacted in passing; empty sets are
    /// unlinked.
    fn on_live(&mut self, _key: &Binding, set: &mut RvSet) -> bool {
        set.compact(self.store);
        set.is_empty()
    }
}

/// Exact-table maintenance: "if the value is a flagged monitor instance
/// ... it removes the mapping" (§5.1.1).
struct ExactMaintainer<'a, S, O: EngineObserver> {
    store: &'a mut MonitorStore<S>,
    aliveness: &'a Option<Aliveness>,
    policy: GcPolicy,
    heap: &'a Heap,
    observer: &'a mut O,
}

impl<S, O: EngineObserver> Maintainer<MonitorId> for ExactMaintainer<'_, S, O> {
    fn on_dead(&mut self, _key: Binding, id: MonitorId) {
        if !self.store.contains(id) {
            return;
        }
        let instance = self.store.get(id);
        if !instance.flagged && !instance.terminated {
            let binding = instance.binding;
            let last_event = instance.last_event;
            let dead = binding.dead_params(self.heap);
            if should_flag(self.policy, self.aliveness, binding.domain(), last_event, dead)
                && self.store.flag(id)
            {
                self.observer.monitor_flagged(
                    id,
                    &binding,
                    last_event,
                    dead,
                    flag_cause(self.policy, self.aliveness),
                );
            }
        }
        self.store.release(id);
    }

    fn on_live(&mut self, _key: &Binding, id: &mut MonitorId) -> bool {
        if self.store.is_collectable(*id) {
            self.store.release(*id);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_heap::{HeapConfig, ObjId};
    use rv_logic::ere::unsafe_iter_ere;
    use rv_logic::fsm::has_next_fsm;
    use rv_logic::{Alphabet, ParamId};

    const C: ParamId = ParamId(0);
    const I: ParamId = ParamId(1);

    fn unsafe_iter_parts() -> (Alphabet, rv_logic::dfa::Dfa, EventDef) {
        let alphabet = Alphabet::from_names(&["create", "update", "next"]);
        let dfa = unsafe_iter_ere(&alphabet).compile(&alphabet, 1_000).unwrap();
        let def = EventDef::new(
            &alphabet,
            &["c", "i"],
            vec![ParamSet::singleton(C).with(I), ParamSet::singleton(C), ParamSet::singleton(I)],
        );
        (alphabet, dfa, def)
    }

    fn engine_with(policy: GcPolicy) -> (Engine<rv_logic::dfa::Dfa>, Alphabet) {
        let (alphabet, dfa, def) = unsafe_iter_parts();
        let config = EngineConfig { policy, record_triggers: true, ..EngineConfig::default() };
        (Engine::new(dfa, def, GoalSet::MATCH, config), alphabet)
    }

    fn alloc_n(heap: &mut Heap, n: usize) -> Vec<ObjId> {
        let cls = heap.register_class("Obj");
        let f = heap.enter_frame();
        let v = (0..n).map(|_| heap.alloc(cls)).collect();
        let _keep_rooted = f; // never exited: objects stay rooted
        v
    }

    #[test]
    fn try_process_rejects_malformed_events_without_state_changes() {
        let (mut engine, _alphabet) = engine_with(GcPolicy::CoenableLazy);
        let heap = Heap::new(HeapConfig::manual());
        let err = engine.try_process(&heap, EventId(99), Binding::BOTTOM).unwrap_err();
        assert_eq!(err, EngineError::EventOutOfAlphabet(EventId(99)));
        // `create` needs ⟨c, i⟩; an empty binding is not D-consistent.
        let err = engine.try_process(&heap, EventId(0), Binding::BOTTOM).unwrap_err();
        assert!(matches!(err, EngineError::InconsistentEvent { .. }), "{err}");
        assert_eq!(engine.stats().events, 0, "rejected input must leave no trace");
        engine.check_invariants(&heap).unwrap();
    }

    /// Regression: `process` used to `panic!("engine: {e}")` on a malformed
    /// event, which would abort the monitored program. The typed error must
    /// surface via
    /// [`Engine::last_error`] instead, and the engine must stay usable.
    #[test]
    fn process_surfaces_errors_instead_of_panicking() {
        let (mut engine, alphabet) = engine_with(GcPolicy::CoenableLazy);
        let mut heap = Heap::new(HeapConfig::manual());
        engine.process(&heap, EventId(99), Binding::BOTTOM);
        assert_eq!(engine.stats().events, 0, "rejected input must leave no trace");
        assert_eq!(engine.last_error(), Some(&EngineError::EventOutOfAlphabet(EventId(99))));
        // `create` needs ⟨c, i⟩; an empty binding is not D-consistent. The
        // sticky slot keeps the most recent error.
        engine.process(&heap, EventId(0), Binding::BOTTOM);
        assert!(
            matches!(engine.last_error(), Some(EngineError::InconsistentEvent { .. })),
            "{:?}",
            engine.last_error()
        );
        // The engine is still fully usable after swallowing errors.
        let objs = alloc_n(&mut heap, 2);
        let ev = |n: &str| alphabet.lookup(n).unwrap();
        engine.process(&heap, ev("create"), Binding::from_pairs(&[(C, objs[0]), (I, objs[1])]));
        assert_eq!(engine.stats().events, 1);
        assert!(
            matches!(engine.last_error(), Some(EngineError::InconsistentEvent { .. })),
            "valid events leave the slot as it was"
        );
        engine.check_invariants(&heap).unwrap();
    }

    #[test]
    fn live_monitor_budget_is_a_hard_cap_with_the_full_ladder() {
        let (alphabet, dfa, def) = unsafe_iter_parts();
        let config = EngineConfig { max_live_monitors: Some(8), ..EngineConfig::default() };
        let mut engine = Engine::new(dfa, def, GoalSet::MATCH, config);
        let mut heap = Heap::new(HeapConfig::manual());
        let ev = |n: &str| alphabet.lookup(n).unwrap();
        // Long-lived collections and iterators: nothing dies, so only the
        // degradation ladder can bound the monitor population.
        let objs = alloc_n(&mut heap, 128);
        for pair in objs.chunks(2) {
            let b = Binding::from_pairs(&[(C, pair[0]), (I, pair[1])]);
            engine.process(&heap, ev("create"), b);
        }
        let stats = engine.stats();
        assert!(stats.peak_live_monitors <= 8, "{stats}");
        assert!(stats.shed > 0, "{stats}");
        assert!(stats.budget_trips > 0, "{stats}");
        assert!(stats.degradations >= 1, "{stats}");
        assert_eq!(engine.degradation_level(), Some(DegradationPolicy::ShedNewMonitors));
        engine.check_invariants(&heap).unwrap();
    }

    #[test]
    fn degradation_recovers_after_pressure_free_events() {
        let (alphabet, dfa, def) = unsafe_iter_parts();
        let config = EngineConfig { max_live_monitors: Some(2), ..EngineConfig::default() };
        let mut engine = Engine::new(dfa, def, GoalSet::MATCH, config);
        let mut heap = Heap::new(HeapConfig::manual());
        let cls = heap.register_class("Obj");
        let _outer = heap.enter_frame();
        let coll = heap.alloc(cls);
        let ev = |n: &str| alphabet.lookup(n).unwrap();
        {
            let inner = heap.enter_frame();
            for _ in 0..4 {
                let iter = heap.alloc(cls);
                engine.process(&heap, ev("create"), Binding::from_pairs(&[(C, coll), (I, iter)]));
            }
            heap.exit_frame(inner);
        }
        assert!(engine.degradation_level().is_some(), "{}", engine.stats());
        assert!(engine.stats().shed >= 1, "{}", engine.stats());
        // The iterators die; pressure clears; the engine steps back down.
        heap.collect();
        for _ in 0..2 * DEGRADATION_COOLDOWN {
            engine.process(&heap, ev("update"), Binding::from_pairs(&[(C, coll)]));
        }
        assert_eq!(engine.degradation_level(), None, "{}", engine.stats());
        engine.check_invariants(&heap).unwrap();
    }

    #[test]
    fn panicking_handler_quarantines_only_its_monitor() {
        let (alphabet, dfa, def) = unsafe_iter_parts();
        let config = EngineConfig { record_triggers: true, ..EngineConfig::default() };
        let mut engine = Engine::new(dfa, def, GoalSet::MATCH, config);
        engine.set_trigger_handler(|_, _, _| panic!("handler bug"));
        let mut heap = Heap::new(HeapConfig::manual());
        let o = alloc_n(&mut heap, 4);
        let ev = |n: &str| alphabet.lookup(n).unwrap();
        // Silence the default hook while the deliberate panics fire.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        // Two independent violating slices: the first handler panic must
        // not stop the second violation from being detected.
        for (c, i) in [(o[0], o[1]), (o[2], o[3])] {
            engine.process(&heap, ev("create"), Binding::from_pairs(&[(C, c), (I, i)]));
            engine.process(&heap, ev("update"), Binding::from_pairs(&[(C, c)]));
            engine.process(&heap, ev("next"), Binding::from_pairs(&[(I, i)]));
        }
        std::panic::set_hook(prev);
        let stats = engine.stats();
        assert_eq!(stats.triggers, 2, "{stats}");
        assert_eq!(stats.quarantined, 2, "{stats}");
        assert_eq!(engine.triggers().len(), 2);
        engine.check_invariants(&heap).unwrap();
    }

    #[test]
    fn non_panicking_handler_sees_every_trigger() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let (mut engine, alphabet) = engine_with(GcPolicy::CoenableLazy);
        let seen = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&seen);
        engine.set_trigger_handler(move |step, _, verdict| sink.borrow_mut().push((step, verdict)));
        let mut heap = Heap::new(HeapConfig::manual());
        let o = alloc_n(&mut heap, 2);
        let ev = |n: &str| alphabet.lookup(n).unwrap();
        engine.process(&heap, ev("create"), Binding::from_pairs(&[(C, o[0]), (I, o[1])]));
        engine.process(&heap, ev("update"), Binding::from_pairs(&[(C, o[0])]));
        engine.process(&heap, ev("next"), Binding::from_pairs(&[(I, o[1])]));
        assert_eq!(seen.borrow().len(), 1);
        assert_eq!(engine.stats().quarantined, 0);
    }

    #[test]
    fn detects_unsafe_iteration_and_matches_the_oracle() {
        let (mut engine, alphabet) = engine_with(GcPolicy::None);
        let mut heap = Heap::new(HeapConfig::manual());
        let o = alloc_n(&mut heap, 4);
        let ev = |n: &str| alphabet.lookup(n).unwrap();
        let trace = vec![
            (ev("update"), Binding::from_pairs(&[(C, o[0])])),
            (ev("create"), Binding::from_pairs(&[(C, o[0]), (I, o[2])])),
            (ev("next"), Binding::from_pairs(&[(I, o[2])])),
            (ev("update"), Binding::from_pairs(&[(C, o[0])])),
            (ev("next"), Binding::from_pairs(&[(I, o[2])])),
        ];
        for &(e, b) in &trace {
            engine.process(&heap, e, b);
        }
        let oracle = crate::reference::monitor_trace(engine.formalism(), GoalSet::MATCH, &trace);
        assert_eq!(engine.triggers(), &oracle.triggers[..]);
        assert_eq!(engine.stats().triggers, 1);
    }

    #[test]
    fn enable_sets_suppress_useless_monitors() {
        // Bare `next` events (no create) must not create monitors — this
        // is why Fig. 10 shows sunflow with 1.3M events but 2 monitors.
        let (mut engine, alphabet) = engine_with(GcPolicy::CoenableLazy);
        let mut heap = Heap::new(HeapConfig::manual());
        let o = alloc_n(&mut heap, 3);
        let next = alphabet.lookup("next").unwrap();
        for _ in 0..100 {
            engine.process(&heap, next, Binding::from_pairs(&[(I, o[1])]));
        }
        assert_eq!(engine.stats().monitors_created, 0);
        assert!(engine.stats().creations_skipped > 0);
    }

    #[test]
    fn update_events_create_collection_monitors() {
        let (mut engine, alphabet) = engine_with(GcPolicy::CoenableLazy);
        let mut heap = Heap::new(HeapConfig::manual());
        let o = alloc_n(&mut heap, 2);
        let update = alphabet.lookup("update").unwrap();
        engine.process(&heap, update, Binding::from_pairs(&[(C, o[0])]));
        engine.process(&heap, update, Binding::from_pairs(&[(C, o[0])]));
        engine.process(&heap, update, Binding::from_pairs(&[(C, o[1])]));
        assert_eq!(engine.stats().monitors_created, 2, "one per collection");
    }

    #[test]
    fn create_inherits_the_update_history() {
        // update⟨c⟩ then create⟨c,i⟩ then next: the combined slice is
        // "update create next" — still `?`; a second update+next matches.
        let (mut engine, alphabet) = engine_with(GcPolicy::None);
        let mut heap = Heap::new(HeapConfig::manual());
        let o = alloc_n(&mut heap, 2);
        let ev = |n: &str| alphabet.lookup(n).unwrap();
        engine.process(&heap, ev("update"), Binding::from_pairs(&[(C, o[0])]));
        engine.process(&heap, ev("create"), Binding::from_pairs(&[(C, o[0]), (I, o[1])]));
        engine.process(&heap, ev("next"), Binding::from_pairs(&[(I, o[1])]));
        assert_eq!(engine.stats().triggers, 0);
        engine.process(&heap, ev("update"), Binding::from_pairs(&[(C, o[0])]));
        engine.process(&heap, ev("next"), Binding::from_pairs(&[(I, o[1])]));
        assert_eq!(engine.stats().triggers, 1);
    }

    #[test]
    fn coenable_gc_flags_monitors_for_dead_iterators() {
        // The paper's headline scenario: the Collection outlives its
        // Iterators; the coenable policy flags their monitors, the
        // JavaMOP policy cannot.
        for (policy, expect_flagged) in
            [(GcPolicy::CoenableLazy, true), (GcPolicy::AllParamsDead, false)]
        {
            let (alphabet, dfa, def) = unsafe_iter_parts();
            let config = EngineConfig { policy, record_triggers: false, ..EngineConfig::default() };
            let mut engine = Engine::new(dfa, def, GoalSet::MATCH, config);
            let mut heap = Heap::new(HeapConfig::manual());
            let cls = heap.register_class("Obj");
            let _outer = heap.enter_frame();
            let coll = heap.alloc(cls);
            let ev = |n: &str| alphabet.lookup(n).unwrap();
            for _ in 0..50 {
                let inner = heap.enter_frame();
                let iter = heap.alloc(cls);
                heap.add_edge(iter, coll);
                engine.process(&heap, ev("create"), Binding::from_pairs(&[(C, coll), (I, iter)]));
                engine.process(&heap, ev("next"), Binding::from_pairs(&[(I, iter)]));
                heap.exit_frame(inner);
            }
            heap.collect();
            // Touch the structures so lazy expunging runs to completion.
            engine.full_sweep(&heap);
            let stats = engine.stats();
            assert!(stats.monitors_created >= 50, "{policy:?}: {stats}");
            if expect_flagged {
                assert!(
                    stats.monitors_flagged >= 50,
                    "{policy:?} should flag dead-iterator monitors: {stats}"
                );
                assert!(stats.monitors_collected >= 50, "{policy:?}: {stats}");
            } else {
                assert_eq!(
                    stats.monitors_flagged, 0,
                    "{policy:?} cannot flag while the collection lives: {stats}"
                );
            }
        }
    }

    #[test]
    fn all_params_dead_flags_when_everything_dies() {
        let (alphabet, dfa, def) = unsafe_iter_parts();
        let config = EngineConfig { policy: GcPolicy::AllParamsDead, ..EngineConfig::default() };
        let mut engine = Engine::new(dfa, def, GoalSet::MATCH, config);
        let mut heap = Heap::new(HeapConfig::manual());
        let cls = heap.register_class("Obj");
        let outer = heap.enter_frame();
        let coll = heap.alloc(cls);
        let iter = heap.alloc(cls);
        let ev = |n: &str| alphabet.lookup(n).unwrap();
        engine.process(&heap, ev("create"), Binding::from_pairs(&[(C, coll), (I, iter)]));
        heap.exit_frame(outer);
        heap.collect();
        engine.full_sweep(&heap);
        let stats = engine.stats();
        assert!(stats.monitors_flagged >= 1, "{stats}");
    }

    #[test]
    fn gc_does_not_lose_triggers_when_objects_stay_alive() {
        // Same trace under all three policies with interleaved heap
        // collections (which reclaim nothing): identical triggers.
        let mut expected: Option<Vec<Trigger>> = None;
        for policy in [GcPolicy::None, GcPolicy::AllParamsDead, GcPolicy::CoenableLazy] {
            let (mut engine, alphabet) = engine_with(policy);
            let mut heap = Heap::new(HeapConfig::manual());
            let o = alloc_n(&mut heap, 4);
            let ev = |n: &str| alphabet.lookup(n).unwrap();
            let trace = vec![
                (ev("create"), Binding::from_pairs(&[(C, o[0]), (I, o[1])])),
                (ev("create"), Binding::from_pairs(&[(C, o[2]), (I, o[3])])),
                (ev("update"), Binding::from_pairs(&[(C, o[0])])),
                (ev("next"), Binding::from_pairs(&[(I, o[1])])),
                (ev("next"), Binding::from_pairs(&[(I, o[3])])),
                (ev("update"), Binding::from_pairs(&[(C, o[2])])),
                (ev("next"), Binding::from_pairs(&[(I, o[3])])),
            ];
            for &(e, b) in &trace {
                heap.collect();
                engine.process(&heap, e, b);
            }
            let triggers = engine.triggers().to_vec();
            match &expected {
                None => expected = Some(triggers),
                Some(exp) => assert_eq!(&triggers, exp, "{policy:?}"),
            }
        }
        assert_eq!(expected.unwrap().len(), 2);
    }

    #[test]
    fn terminated_monitors_stop_reporting() {
        // HasNext FSM: the error state is terminal for goal {match}; a
        // monitor that reported once is retired, not re-fired.
        let (alphabet, spec) = has_next_fsm();
        let dfa = spec.compile(&alphabet).unwrap();
        let def = EventDef::new(
            &alphabet,
            &["i"],
            vec![ParamSet::singleton(C), ParamSet::singleton(C), ParamSet::singleton(C)],
        );
        let config = EngineConfig { record_triggers: true, ..EngineConfig::default() };
        let mut engine = Engine::new(dfa, def, GoalSet::MATCH, config);
        let mut heap = Heap::new(HeapConfig::manual());
        let o = alloc_n(&mut heap, 1);
        let next = alphabet.lookup("next").unwrap();
        engine.process(&heap, next, Binding::from_pairs(&[(C, o[0])]));
        assert_eq!(engine.stats().triggers, 1);
        engine.process(&heap, next, Binding::from_pairs(&[(C, o[0])]));
        engine.process(&heap, next, Binding::from_pairs(&[(C, o[0])]));
        assert_eq!(engine.stats().triggers, 1, "terminated monitor must not re-fire");
    }

    #[test]
    fn collected_monitors_do_not_receive_further_events() {
        let (mut engine, alphabet) = engine_with(GcPolicy::CoenableLazy);
        let mut heap = Heap::new(HeapConfig::manual());
        let cls = heap.register_class("Obj");
        let _outer = heap.enter_frame();
        let coll = heap.alloc(cls);
        let ev = |n: &str| alphabet.lookup(n).unwrap();
        {
            let inner = heap.enter_frame();
            let iter = heap.alloc(cls);
            engine.process(&heap, ev("create"), Binding::from_pairs(&[(C, coll), (I, iter)]));
            heap.exit_frame(inner);
        }
        heap.collect();
        engine.full_sweep(&heap);
        let flagged_before = engine.stats().monitors_flagged;
        assert!(flagged_before >= 1);
        // Updates to the surviving collection must not resurrect it.
        for _ in 0..10 {
            engine.process(&heap, ev("update"), Binding::from_pairs(&[(C, coll)]));
        }
        assert_eq!(engine.stats().triggers, 0);
    }

    #[test]
    fn estimated_bytes_shrink_after_collection() {
        let (mut engine, alphabet) = engine_with(GcPolicy::CoenableLazy);
        let mut heap = Heap::new(HeapConfig::manual());
        let cls = heap.register_class("Obj");
        let _outer = heap.enter_frame();
        let coll = heap.alloc(cls);
        let ev = |n: &str| alphabet.lookup(n).unwrap();
        let inner = heap.enter_frame();
        let mut iters = Vec::new();
        for _ in 0..500 {
            let iter = heap.alloc(cls);
            iters.push(iter);
            engine.process(&heap, ev("create"), Binding::from_pairs(&[(C, coll), (I, iter)]));
        }
        let live_full = engine.stats().live_monitors;
        heap.exit_frame(inner);
        heap.collect();
        engine.full_sweep(&heap);
        assert!(engine.stats().live_monitors < live_full / 2);
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;
    use rv_heap::HeapConfig;
    use rv_logic::ere::unsafe_iter_ere;
    use rv_logic::{Alphabet, ParamId};

    const C: ParamId = ParamId(0);
    const I: ParamId = ParamId(1);

    fn parts() -> (Alphabet, rv_logic::dfa::Dfa, EventDef) {
        parts_with_next_on(ParamSet::singleton(I))
    }

    /// UnsafeIter with `next` binding `next_params`.
    fn parts_with_next_on(next_params: ParamSet) -> (Alphabet, rv_logic::dfa::Dfa, EventDef) {
        let alphabet = Alphabet::from_names(&["create", "update", "next"]);
        let dfa = unsafe_iter_ere(&alphabet).compile(&alphabet, 1_000).unwrap();
        let def = EventDef::new(
            &alphabet,
            &["c", "i"],
            vec![ParamSet::singleton(C).with(I), ParamSet::singleton(C), next_params],
        );
        (alphabet, dfa, def)
    }

    /// The cache must be invisible: identical triggers and statistics
    /// (except the hit counter) with it on and off, across a workload with
    /// creations, violations, and deaths interleaved.
    #[test]
    fn lookup_cache_is_semantically_invisible() {
        let run = |cache: bool| {
            let (alphabet, dfa, def) = parts();
            let config = EngineConfig {
                record_triggers: true,
                lookup_cache: cache,
                ..EngineConfig::default()
            };
            let mut engine = Engine::new(dfa, def, GoalSet::MATCH, config);
            let mut heap = Heap::new(HeapConfig::auto(128));
            let cls = heap.register_class("Obj");
            let _outer = heap.enter_frame();
            let ev = |n: &str| alphabet.lookup(n).unwrap();
            for round in 0..20 {
                let coll = heap.alloc(cls);
                heap.pin(coll);
                for k in 0..10 {
                    let inner = heap.enter_frame();
                    let iter = heap.alloc(cls);
                    heap.add_edge(iter, coll);
                    engine.process(
                        &heap,
                        ev("create"),
                        Binding::from_pairs(&[(C, coll), (I, iter)]),
                    );
                    // A hot next-loop: the cache's target pattern.
                    for _ in 0..8 {
                        engine.process(&heap, ev("next"), Binding::from_pairs(&[(I, iter)]));
                    }
                    if k % 3 == 0 {
                        engine.process(&heap, ev("update"), Binding::from_pairs(&[(C, coll)]));
                        engine.process(&heap, ev("next"), Binding::from_pairs(&[(I, iter)]));
                    }
                    heap.exit_frame(inner);
                }
                if round % 4 == 3 {
                    heap.collect();
                }
            }
            (engine.triggers().to_vec(), engine.stats())
        };
        let (triggers_on, stats_on) = run(true);
        let (triggers_off, stats_off) = run(false);
        assert_eq!(triggers_on, triggers_off);
        assert_eq!(stats_on.monitors_created, stats_off.monitors_created);
        assert_eq!(stats_on.triggers, stats_off.triggers);
        assert!(stats_on.cache_hits > 0, "the next-loop should hit the cache");
        assert_eq!(stats_off.cache_hits, 0);
    }

    /// Runs `script` with the lookup cache on and off under `policy`, with
    /// `next` binding `next_params`, and requires equal triggers and equal
    /// statistics apart from the hit counter. Returns the hits taken with
    /// the cache on.
    fn assert_cache_invisible(
        policy: GcPolicy,
        next_params: ParamSet,
        script: impl Fn(&mut Engine<rv_logic::dfa::Dfa>, &mut Heap, &Alphabet),
    ) -> u64 {
        let run = |cache: bool| {
            let (alphabet, dfa, def) = parts_with_next_on(next_params);
            let config = EngineConfig {
                policy,
                record_triggers: true,
                lookup_cache: cache,
                ..EngineConfig::default()
            };
            let mut engine = Engine::new(dfa, def, GoalSet::MATCH, config);
            let mut heap = Heap::new(HeapConfig::manual());
            script(&mut engine, &mut heap, &alphabet);
            (engine.triggers().to_vec(), engine.stats())
        };
        let (triggers_on, stats_on) = run(true);
        let (triggers_off, stats_off) = run(false);
        assert_eq!(triggers_on, triggers_off);
        assert_eq!(EngineStats { cache_hits: 0, ..stats_on }, stats_off);
        stats_on.cache_hits
    }

    /// A sweep between two events on one binding drops the binding's own
    /// instance from the exact table, so the second event must not reuse
    /// the first one's own-instance answer (nor its tree members). Here
    /// `next` binds both parameters, so the instance also sits in the tree
    /// of its live collection. Its iterator is dead and the policy never
    /// flags, so the sweep drops it from the exact table without moving the
    /// created, flagged or collected count. Only the sweep count in the
    /// signature turns the second event into a miss. (A terminated own
    /// instance cannot expose this: the sweep releases its last reference,
    /// so the collected count moves anyway.)
    #[test]
    fn a_sweep_between_same_binding_events_clears_the_own_instance_answer() {
        let both = ParamSet::singleton(C).with(I);
        let hits = assert_cache_invisible(GcPolicy::None, both, |engine, heap, alphabet| {
            let cls = heap.register_class("Obj");
            let _outer = heap.enter_frame();
            let coll = heap.alloc(cls);
            let inner = heap.enter_frame();
            let iter = heap.alloc(cls);
            let ev = |n: &str| alphabet.lookup(n).unwrap();
            let ci = Binding::from_pairs(&[(C, coll), (I, iter)]);
            // Creates the own instance; the `next` records that it exists.
            engine.process(heap, ev("create"), ci);
            engine.process(heap, ev("next"), ci);
            heap.exit_frame(inner);
            heap.collect();
            engine.full_sweep(heap);
            engine.process(heap, ev("next"), ci);
        });
        assert_eq!(hits, 0, "the sweep must turn the event after it into a miss");
    }

    /// The hit path skips the disable-table insert of its binding because
    /// the miss that filled the cache made it. If `prune` removes that entry
    /// (one of its objects died), the next event on the binding must miss
    /// and insert it again: the entry is what refuses the later `create`.
    /// How many live entries precede the key decides whether the prune
    /// cursor reaches it on the hit, so the script runs for several ring
    /// lengths.
    #[test]
    fn pruning_the_cached_key_makes_the_next_event_insert_it_again() {
        let mut hits = 0;
        for live in 0..8 {
            let i_only = ParamSet::singleton(I);
            hits +=
                assert_cache_invisible(GcPolicy::CoenableLazy, i_only, |engine, heap, alphabet| {
                    let cls = heap.register_class("Obj");
                    let _outer = heap.enter_frame();
                    let coll = heap.alloc(cls);
                    let next = alphabet.lookup("next").unwrap();
                    for _ in 0..live {
                        let other = heap.alloc(cls);
                        engine.process(heap, next, Binding::from_pairs(&[(I, other)]));
                    }
                    let inner = heap.enter_frame();
                    let iter = heap.alloc(cls);
                    let i = Binding::from_pairs(&[(I, iter)]);
                    engine.process(heap, next, i);
                    heap.exit_frame(inner);
                    heap.collect();
                    for _ in 0..2 {
                        engine.process(heap, next, i);
                    }
                    let create = alphabet.lookup("create").unwrap();
                    engine.process(heap, create, Binding::from_pairs(&[(C, coll), (I, iter)]));
                });
        }
        assert!(hits > 0, "the repeated next events should hit the cache");
    }
}

#[cfg(test)]
mod snapshot_tests {
    use super::*;
    use rv_heap::{Heap, HeapConfig, ObjId};
    use rv_logic::ere::unsafe_iter_ere;
    use rv_logic::{Alphabet, ParamId};

    const C: ParamId = ParamId(0);
    const I: ParamId = ParamId(1);

    fn unsafe_iter_engine(policy: GcPolicy) -> (Engine<rv_logic::dfa::Dfa>, Alphabet) {
        let alphabet = Alphabet::from_names(&["create", "update", "next"]);
        let dfa = unsafe_iter_ere(&alphabet).compile(&alphabet, 1_000).unwrap();
        let def = EventDef::new(
            &alphabet,
            &["c", "i"],
            vec![ParamSet::singleton(C).with(I), ParamSet::singleton(C), ParamSet::singleton(I)],
        );
        let config = EngineConfig { policy, record_triggers: true, ..EngineConfig::default() };
        (Engine::new(dfa, def, GoalSet::MATCH, config), alphabet)
    }

    /// Runs some events, including a mid-trace collection that leaves
    /// dead keys pending lazy expunging.
    fn mid_run_engine(
        policy: GcPolicy,
    ) -> (Engine<rv_logic::dfa::Dfa>, Alphabet, Heap, ObjId, ObjId) {
        let (mut engine, alphabet) = unsafe_iter_engine(policy);
        let mut heap = Heap::new(HeapConfig::manual());
        let cls = heap.register_class("Obj");
        let _outer = heap.enter_frame();
        let coll = heap.alloc(cls);
        let iter = heap.alloc(cls);
        let ev = |n: &str| alphabet.lookup(n).unwrap();
        engine.process(&heap, ev("create"), Binding::from_pairs(&[(C, coll), (I, iter)]));
        engine.process(&heap, ev("update"), Binding::from_pairs(&[(C, coll)]));
        for _ in 0..4 {
            let inner = heap.enter_frame();
            let dying = heap.alloc(cls);
            engine.process(&heap, ev("create"), Binding::from_pairs(&[(C, coll), (I, dying)]));
            heap.exit_frame(inner);
        }
        engine.process(&heap, ev("next"), Binding::from_pairs(&[(I, iter)]));
        // Collect *after* the last event: the dead keys are still pending
        // lazy expunging when the snapshot is taken.
        heap.collect();
        (engine, alphabet, heap, coll, iter)
    }

    #[test]
    fn snapshot_restore_snapshot_is_byte_identical() {
        for policy in [GcPolicy::None, GcPolicy::AllParamsDead, GcPolicy::CoenableLazy] {
            let (engine, _, _heap, _, _) = mid_run_engine(policy);
            let bytes = engine.snapshot_bytes().expect("DFA states are encodable");
            let (mut fresh, _) = unsafe_iter_engine(policy);
            fresh.restore_snapshot(&bytes, "mem").unwrap();
            let again = fresh.snapshot_bytes().unwrap();
            assert_eq!(bytes, again, "{policy:?}: restore must be pure and exact");
        }
    }

    #[test]
    fn restored_engine_continues_identically() {
        let (mut original, alphabet, heap, coll, iter) = mid_run_engine(GcPolicy::CoenableLazy);
        let bytes = original.snapshot_bytes().unwrap();
        let (mut restored, _) = unsafe_iter_engine(GcPolicy::CoenableLazy);
        restored.restore_snapshot(&bytes, "mem").unwrap();
        let ev = |n: &str| alphabet.lookup(n).unwrap();
        // Same suffix against both engines on the same heap.
        for engine in [&mut original, &mut restored] {
            engine.process(&heap, ev("update"), Binding::from_pairs(&[(C, coll)]));
            engine.process(&heap, ev("next"), Binding::from_pairs(&[(I, iter)]));
            engine.full_sweep(&heap);
        }
        assert_eq!(original.stats(), restored.stats());
        assert_eq!(original.triggers(), restored.triggers());
        assert_eq!(original.snapshot_bytes().unwrap(), restored.snapshot_bytes().unwrap());
        restored.check_invariants(&heap).unwrap();
    }

    #[test]
    fn corrupt_snapshots_are_rejected_without_modifying_the_engine() {
        let (engine, _, _heap, _, _) = mid_run_engine(GcPolicy::CoenableLazy);
        let bytes = engine.snapshot_bytes().unwrap();
        let (mut fresh, _) = unsafe_iter_engine(GcPolicy::CoenableLazy);
        let virgin = fresh.snapshot_bytes().unwrap();
        // Truncation at every prefix must error, never panic.
        for cut in 0..bytes.len() {
            assert!(
                fresh.restore_snapshot(&bytes[..cut], "cut").is_err(),
                "prefix of {cut} bytes must be rejected"
            );
        }
        // Trailing garbage.
        let mut padded = bytes.clone();
        padded.push(0);
        let err = fresh.restore_snapshot(&padded, "padded").unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
        // The payload's last byte is reserved and always written as 0.
        let mut reserved = bytes.clone();
        *reserved.last_mut().unwrap() = 1;
        let err = fresh.restore_snapshot(&reserved, "reserved").unwrap_err();
        assert!(matches!(err, EngineError::CorruptSnapshot { .. }), "{err:?}");
        assert!(err.to_string().contains("reserved byte"), "{err}");
        // Policy fingerprint mismatch.
        let (mut wrong, _) = unsafe_iter_engine(GcPolicy::None);
        let err = wrong.restore_snapshot(&bytes, "policy").unwrap_err();
        assert!(err.to_string().contains("policy mismatch"), "{err}");
        // Failed restores must leave the engine untouched.
        assert_eq!(fresh.snapshot_bytes().unwrap(), virgin);
    }

    #[test]
    fn restore_rejects_dangling_monitor_references() {
        let (engine, _, _heap, _, _) = mid_run_engine(GcPolicy::CoenableLazy);
        let bytes = engine.snapshot_bytes().unwrap();
        // Flip bytes one at a time across the payload; every outcome must
        // be a clean Ok (benign field) or Err (caught corruption) — no
        // panics, no invariant-violating accepts.
        let (mut fresh, _) = unsafe_iter_engine(GcPolicy::CoenableLazy);
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x01;
            let _ = fresh.restore_snapshot(&mutated, "flip");
        }
    }
}
