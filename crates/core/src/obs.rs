//! Engine observability: lifecycle tracing, metrics, and JSON export.
//!
//! The paper's whole evaluation (§5, Figures 9–10) is built on observing
//! the monitor lifecycle — events processed (E), monitors created (M),
//! flagged (FM) and collected (CM) — but aggregate counters cannot answer
//! *when and why* an individual monitor became garbage. This module adds
//! a zero-cost hook layer for exactly those transitions:
//!
//! * [`EngineObserver`] — a trait with one callback per GC-relevant
//!   lifecycle transition, every method defaulting to a no-op. The engine
//!   is generic over its observer with [`NoopObserver`] as the default;
//!   with the no-op, every callback is an empty inlined function and all
//!   timing/logging code is compiled out behind the
//!   [`EngineObserver::ENABLED`] constant.
//! * [`TraceRecorder`] — a bounded ring buffer of timestamped lifecycle
//!   records, dumped as JSONL (one record per line).
//! * [`MetricsRegistry`] — the counts the engine does not keep (sweeps,
//!   GC cycles) plus fixed-bucket histograms (monitor lifetimes, bindings
//!   touched per event, sweep batch sizes, GC pauses); E/M/FM/CM stay in
//!   [`EngineStats`], the one counter. The JSON snapshot serializer is
//!   hand-rolled: the workspace is dependency-free, so there is no serde
//!   here. Per-phase wall-clock
//!   histograms live in one place, [`PhaseProfiler`](crate::PhaseProfiler).
//!
//! Two observers compose as a tuple: `(TraceRecorder, MetricsRegistry)`
//! is itself an [`EngineObserver`] that forwards to both.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use rv_heap::HeapStats;
use rv_logic::{Alphabet, EventDef, EventId, ParamSet, Verdict};

use crate::binding::Binding;
use crate::engine::{BudgetKind, DegradationPolicy};
use crate::stats::EngineStats;
use crate::store::MonitorId;

/// Why a GC policy flagged a monitor instance unnecessary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlagCause {
    /// The coenable-set ALIVENESS formula (§4.2.2) became unsatisfiable:
    /// with the dead parameters, no goal verdict is reachable after the
    /// monitor's last event.
    Aliveness,
    /// Every bound parameter object died (the JavaMOP baseline rule, also
    /// the fallback for properties without coenable sets).
    AllParamsDead,
}

impl FlagCause {
    /// The snake_case label used in traces and snapshots.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FlagCause::Aliveness => "aliveness",
            FlagCause::AllParamsDead => "all_params_dead",
        }
    }
}

/// Which collector a [`GcCycleRecord`] describes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GcKind {
    /// A stop-the-world mark-sweep collection of the simulated heap
    /// (`rv_heap::Heap::collect`).
    HeapCollect,
    /// A safepoint monitor sweep
    /// ([`Engine::full_sweep`](crate::Engine::full_sweep)): dead-key
    /// expunge plus flagged-monitor compaction over every structure.
    MonitorSweep,
}

impl GcKind {
    /// Number of kinds (the length of [`GcKind::ALL`]).
    pub const COUNT: usize = 2;

    /// All kinds.
    pub const ALL: [GcKind; GcKind::COUNT] = [GcKind::HeapCollect, GcKind::MonitorSweep];

    /// The snake_case label used in traces and snapshots.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            GcKind::HeapCollect => "heap",
            GcKind::MonitorSweep => "monitor_sweep",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            GcKind::HeapCollect => 0,
            GcKind::MonitorSweep => 1,
        }
    }
}

/// Why a collection cycle ran.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GcReason {
    /// The allocation budget expired (`HeapConfig::gc_every_allocs`), or
    /// any other schedule-driven trigger.
    Periodic,
    /// An explicit request: `Heap::collect`, `Engine::finish`, a `!gc` /
    /// `!sweep` trace directive.
    Forced,
    /// The degradation ladder is active and demanded extra maintenance
    /// (eager per-event sweeps while degraded).
    Degradation,
    /// A resource budget tripped and the trip handler swept to relieve
    /// pressure.
    Budget,
}

impl GcReason {
    /// Number of reasons (the length of [`GcReason::ALL`]).
    pub const COUNT: usize = 4;

    /// All reasons.
    pub const ALL: [GcReason; GcReason::COUNT] =
        [GcReason::Periodic, GcReason::Forced, GcReason::Degradation, GcReason::Budget];

    /// The snake_case label used in traces and snapshots.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            GcReason::Periodic => "periodic",
            GcReason::Forced => "forced",
            GcReason::Degradation => "degradation",
            GcReason::Budget => "budget",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            GcReason::Periodic => 0,
            GcReason::Forced => 1,
            GcReason::Degradation => 2,
            GcReason::Budget => 3,
        }
    }

    fn from_byte(b: u8) -> Option<GcReason> {
        GcReason::ALL.into_iter().find(|r| r.index() == usize::from(b))
    }
}

/// One completed garbage-collection cycle — heap mark-sweep or monitor
/// sweep — as first-class telemetry: what ran, why, how long the world
/// stopped, and what it bought. Delivered via
/// [`EngineObserver::gc_cycle`], journaled as `AUX_GC_CYCLE` records, and
/// aggregated by [`MetricsRegistry`] into pause histograms and MMU
/// inputs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GcCycleRecord {
    /// Which collector ran.
    pub kind: GcKind,
    /// Why it ran.
    pub reason: GcReason,
    /// Nanoseconds since the emitter's epoch at which the pause *ended*
    /// (so `end_ns - pause_ns` is the pause start). Epochs are
    /// per-emitter (engine construction / heap creation / run start);
    /// MMU math only needs them monotone within one stream.
    pub end_ns: u64,
    /// Stop-the-world duration of the cycle in nanoseconds.
    pub pause_ns: u64,
    /// Objects (heap) or live monitors (sweep) examined by the cycle.
    pub scanned: u64,
    /// Objects or monitors physically reclaimed.
    pub reclaimed: u64,
    /// Monitors newly flagged unnecessary (always 0 for heap cycles).
    pub flagged: u64,
    /// Live objects (heap) or live monitors (sweep) before the cycle.
    pub occupancy_before: u64,
    /// Live objects or monitors after the cycle.
    pub occupancy_after: u64,
}

impl GcCycleRecord {
    /// Encoded size of [`GcCycleRecord::to_bytes`] in bytes.
    pub const ENCODED_LEN: usize = 2 + 7 * 8;

    /// Serializes the record as a fixed-width little-endian payload (the
    /// journal's `AUX_GC_CYCLE` body).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(GcCycleRecord::ENCODED_LEN);
        out.push(self.kind.index() as u8);
        out.push(self.reason.index() as u8);
        for v in [
            self.end_ns,
            self.pause_ns,
            self.scanned,
            self.reclaimed,
            self.flagged,
            self.occupancy_before,
            self.occupancy_after,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Lifts a drained [`rv_heap::HeapCycle`] into the unified record
    /// stream (rv-heap cannot depend on this crate, so the conversion
    /// lives here). Heap cycles never flag monitors.
    #[must_use]
    pub fn from_heap_cycle(c: &rv_heap::HeapCycle) -> GcCycleRecord {
        GcCycleRecord {
            kind: GcKind::HeapCollect,
            reason: if c.forced { GcReason::Forced } else { GcReason::Periodic },
            end_ns: c.end_ns,
            pause_ns: c.pause_ns,
            scanned: c.live_before,
            reclaimed: c.swept,
            flagged: 0,
            occupancy_before: c.live_before,
            occupancy_after: c.live_after,
        }
    }

    /// Decodes a [`GcCycleRecord::to_bytes`] payload; `None` on any
    /// malformed input (wrong length, unknown kind/reason byte).
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Option<GcCycleRecord> {
        if bytes.len() != GcCycleRecord::ENCODED_LEN {
            return None;
        }
        let kind = match bytes[0] {
            0 => GcKind::HeapCollect,
            1 => GcKind::MonitorSweep,
            _ => return None,
        };
        let reason = GcReason::from_byte(bytes[1])?;
        let word = |i: usize| {
            let at = 2 + i * 8;
            u64::from_le_bytes(bytes[at..at + 8].try_into().expect("length checked"))
        };
        Some(GcCycleRecord {
            kind,
            reason,
            end_ns: word(0),
            pause_ns: word(1),
            scanned: word(2),
            reclaimed: word(3),
            flagged: word(4),
            occupancy_before: word(5),
            occupancy_after: word(6),
        })
    }
}

/// A timed phase of event dispatch, reported via
/// [`EngineObserver::phase_timed`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Looking `θ` up in the `⟨D(e)⟩` indexing tree (Figure 6).
    IndexLookup,
    /// Consulting the disable set / creation veto before instantiating a
    /// monitor (Algorithm C⟨X⟩'s `disable` check plus coenable vetoes).
    DisableCheck,
    /// Stepping matched monitor states by the event.
    Transition,
    /// Evaluating ALIVENESS for monitors under a dead key (Figure 7).
    Aliveness,
    /// Expunging dead keys from indexing trees and exact maps (the trickle
    /// expunge on the hot path and the bulk `expunge_all` inside sweeps).
    DeadKeyExpunge,
    /// A whole safepoint sweep/compaction pass
    /// ([`Engine::full_sweep`](crate::Engine::full_sweep), end to end).
    Sweep,
    /// Appending one record to the write-ahead journal (durable runs).
    JournalAppend,
    /// Routing/broadcasting one event across shard channels.
    ShardRoute,
}

impl Phase {
    /// Number of phases (the length of [`Phase::ALL`]).
    pub const COUNT: usize = 8;

    /// All phases, in dispatch order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::IndexLookup,
        Phase::DisableCheck,
        Phase::Transition,
        Phase::Aliveness,
        Phase::DeadKeyExpunge,
        Phase::Sweep,
        Phase::JournalAppend,
        Phase::ShardRoute,
    ];

    /// The snake_case label used in snapshots.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Phase::IndexLookup => "index_lookup",
            Phase::DisableCheck => "disable_check",
            Phase::Transition => "transition",
            Phase::Aliveness => "aliveness",
            Phase::DeadKeyExpunge => "dead_key_expunge",
            Phase::Sweep => "sweep",
            Phase::JournalAppend => "journal_append",
            Phase::ShardRoute => "shard_route",
        }
    }

    /// Parses a snake_case label back to a phase.
    #[must_use]
    pub fn from_label(label: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.label() == label)
    }

    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// Lifecycle callbacks from an [`Engine`](crate::Engine).
///
/// Every method has an empty default body, so implementors override only
/// what they need. The associated [`ENABLED`](EngineObserver::ENABLED)
/// constant lets the engine compile out observation-only work (wall-clock
/// reads, collected-id logging) when the observer is [`NoopObserver`]:
/// `if O::ENABLED { … }` folds to nothing at monomorphization time.
#[allow(unused_variables)]
pub trait EngineObserver {
    /// Whether the engine should spend any effort feeding this observer.
    /// `false` only for [`NoopObserver`] (and compositions of it).
    const ENABLED: bool = true;

    /// An event `e⟨θ⟩` was dispatched; `monitors_touched` instances with
    /// bindings ⊒ θ were looked up for stepping.
    fn event_dispatched(&mut self, event: EventId, binding: &Binding, monitors_touched: usize) {}

    /// A monitor instance was created for `binding`.
    fn monitor_created(&mut self, id: MonitorId, binding: &Binding) {}

    /// A monitor was flagged unnecessary: with `dead` parameters dead, the
    /// policy decided (per `cause`) that no goal is reachable after
    /// `last_event`.
    fn monitor_flagged(
        &mut self,
        id: MonitorId,
        binding: &Binding,
        last_event: EventId,
        dead: ParamSet,
        cause: FlagCause,
    ) {
    }

    /// The last container released the monitor — it is physically gone
    /// (the CM of Figure 10).
    fn monitor_collected(&mut self, id: MonitorId) {}

    /// An indexing structure discovered a key whose referent died
    /// (Figure 7 A).
    fn dead_key_discovered(&mut self, key: &Binding) {}

    /// A safepoint sweep ([`Engine::full_sweep`](crate::Engine::full_sweep))
    /// began.
    fn sweep_started(&mut self) {}

    /// The sweep finished, having newly flagged `flagged` and reclaimed
    /// `collected` monitors.
    fn sweep_finished(&mut self, flagged: u64, collected: u64) {}

    /// A goal verdict was reported (a handler execution).
    fn trigger_fired(&mut self, step: usize, binding: &Binding, verdict: Verdict) {}

    /// A dispatch phase took `nanos` wall-clock nanoseconds. Only emitted
    /// when `Self::ENABLED` (timing a no-op observer would itself cost).
    fn phase_timed(&mut self, phase: Phase, nanos: u64) {}

    /// A resource budget was exceeded: `observed` crossed `limit`.
    fn budget_tripped(&mut self, budget: BudgetKind, observed: u64, limit: u64) {}

    /// The degradation ladder escalated to `level`.
    fn degradation_entered(&mut self, level: DegradationPolicy) {}

    /// The engine recovered from degradation `level` back to normal
    /// operation.
    fn degradation_exited(&mut self, level: DegradationPolicy) {}

    /// A monitor creation for `binding` was refused under resource
    /// pressure ([`DegradationPolicy::ShedNewMonitors`]).
    fn monitor_shed(&mut self, binding: &Binding) {}

    /// A handler panic quarantined monitor `id`; the engine keeps
    /// processing every other instance.
    fn monitor_quarantined(&mut self, id: MonitorId, binding: &Binding) {}

    /// A garbage-collection cycle (heap mark-sweep or monitor sweep)
    /// finished. Only emitted when `Self::ENABLED` — assembling the
    /// record costs wall-clock reads.
    fn gc_cycle(&mut self, record: &GcCycleRecord) {}

    /// One event finished end-to-end dispatch (validation through
    /// triggers delivered) in `nanos` wall-clock nanoseconds. Only
    /// emitted when `Self::ENABLED`.
    fn event_latency(&mut self, nanos: u64) {}
}

/// The do-nothing observer: the engine's default. All callbacks are empty
/// and [`EngineObserver::ENABLED`] is `false`, so observability adds no
/// instructions to the monomorphized hot path.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopObserver;

impl EngineObserver for NoopObserver {
    const ENABLED: bool = false;
}

/// Observers compose as pairs: `(recorder, metrics)` forwards every
/// callback to both elements.
impl<A: EngineObserver, B: EngineObserver> EngineObserver for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn event_dispatched(&mut self, event: EventId, binding: &Binding, monitors_touched: usize) {
        self.0.event_dispatched(event, binding, monitors_touched);
        self.1.event_dispatched(event, binding, monitors_touched);
    }

    fn monitor_created(&mut self, id: MonitorId, binding: &Binding) {
        self.0.monitor_created(id, binding);
        self.1.monitor_created(id, binding);
    }

    fn monitor_flagged(
        &mut self,
        id: MonitorId,
        binding: &Binding,
        last_event: EventId,
        dead: ParamSet,
        cause: FlagCause,
    ) {
        self.0.monitor_flagged(id, binding, last_event, dead, cause);
        self.1.monitor_flagged(id, binding, last_event, dead, cause);
    }

    fn monitor_collected(&mut self, id: MonitorId) {
        self.0.monitor_collected(id);
        self.1.monitor_collected(id);
    }

    fn dead_key_discovered(&mut self, key: &Binding) {
        self.0.dead_key_discovered(key);
        self.1.dead_key_discovered(key);
    }

    fn sweep_started(&mut self) {
        self.0.sweep_started();
        self.1.sweep_started();
    }

    fn sweep_finished(&mut self, flagged: u64, collected: u64) {
        self.0.sweep_finished(flagged, collected);
        self.1.sweep_finished(flagged, collected);
    }

    fn trigger_fired(&mut self, step: usize, binding: &Binding, verdict: Verdict) {
        self.0.trigger_fired(step, binding, verdict);
        self.1.trigger_fired(step, binding, verdict);
    }

    fn phase_timed(&mut self, phase: Phase, nanos: u64) {
        self.0.phase_timed(phase, nanos);
        self.1.phase_timed(phase, nanos);
    }

    fn budget_tripped(&mut self, budget: BudgetKind, observed: u64, limit: u64) {
        self.0.budget_tripped(budget, observed, limit);
        self.1.budget_tripped(budget, observed, limit);
    }

    fn degradation_entered(&mut self, level: DegradationPolicy) {
        self.0.degradation_entered(level);
        self.1.degradation_entered(level);
    }

    fn degradation_exited(&mut self, level: DegradationPolicy) {
        self.0.degradation_exited(level);
        self.1.degradation_exited(level);
    }

    fn monitor_shed(&mut self, binding: &Binding) {
        self.0.monitor_shed(binding);
        self.1.monitor_shed(binding);
    }

    fn monitor_quarantined(&mut self, id: MonitorId, binding: &Binding) {
        self.0.monitor_quarantined(id, binding);
        self.1.monitor_quarantined(id, binding);
    }

    fn gc_cycle(&mut self, record: &GcCycleRecord) {
        self.0.gc_cycle(record);
        self.1.gc_cycle(record);
    }

    fn event_latency(&mut self, nanos: u64) {
        self.0.event_latency(nanos);
        self.1.event_latency(nanos);
    }
}

// ---------------------------------------------------------------------------
// JSON helpers (hand-rolled: the workspace is offline and serde-free).
// ---------------------------------------------------------------------------

/// Extracts the balanced `{...}` object value of `"key":` from a flat
/// hand-rolled JSON document (no strings containing braces, which holds
/// for every producer in this workspace).
#[must_use]
pub fn json_object_field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":{{");
    let start = json.find(&needle)? + needle.len() - 1;
    let mut depth = 0usize;
    for (i, b) in json[start..].bytes().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&json[start..=start + i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Extracts a bare numeric field `"key":<number>`.
#[must_use]
pub fn json_number_field(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let rest = &json[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Escapes `s` for inclusion in a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders an `f64` the way JSON wants it (no NaN/inf — clamped to null).
#[must_use]
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

pub(crate) fn render_binding(b: &Binding, names: Option<&EventDef>) -> String {
    let mut out = String::new();
    for (i, (p, obj)) in b.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match names {
            Some(def) => {
                let _ = write!(out, "{}={}", def.param_name(p), obj);
            }
            None => {
                let _ = write!(out, "x{}={}", p.as_usize(), obj);
            }
        }
    }
    out
}

pub(crate) fn render_event(e: EventId, alphabet: Option<&Alphabet>) -> String {
    match alphabet {
        Some(a) => a.name(e).to_owned(),
        None => format!("e{}", e.as_usize()),
    }
}

pub(crate) fn render_params(ps: ParamSet, names: Option<&EventDef>) -> String {
    let mut out = String::new();
    for (i, p) in ps.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match names {
            Some(def) => out.push_str(def.param_name(p)),
            None => {
                let _ = write!(out, "x{}", p.as_usize());
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// TraceRecorder
// ---------------------------------------------------------------------------

/// One recorded lifecycle transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// An event was dispatched to `touched` matching instances.
    Event {
        /// The dispatched event.
        event: EventId,
        /// Its parameter instance.
        binding: Binding,
        /// Matching monitor instances stepped.
        touched: usize,
    },
    /// A monitor instance was created.
    Created {
        /// The new instance's id.
        id: MonitorId,
        /// Its binding.
        binding: Binding,
    },
    /// A monitor instance was flagged unnecessary.
    Flagged {
        /// The flagged instance.
        id: MonitorId,
        /// Its binding.
        binding: Binding,
        /// The last event it received (the `e` of `ALIVENESS(e)`).
        last_event: EventId,
        /// Its dead parameters at flag time.
        dead: ParamSet,
        /// Which rule flagged it.
        cause: FlagCause,
    },
    /// A monitor instance was physically reclaimed.
    Collected {
        /// The collected instance.
        id: MonitorId,
    },
    /// An indexing structure discovered a dead key.
    DeadKey {
        /// The dead (partial) parameter instance.
        key: Binding,
    },
    /// A safepoint sweep began.
    SweepStarted,
    /// A safepoint sweep finished.
    SweepFinished {
        /// Monitors newly flagged by the sweep.
        flagged: u64,
        /// Monitors reclaimed by the sweep.
        collected: u64,
    },
    /// A goal verdict fired a handler.
    Trigger {
        /// The violating/matching instance.
        binding: Binding,
        /// The verdict.
        verdict: Verdict,
    },
    /// A resource budget was exceeded.
    BudgetTripped {
        /// Which budget tripped.
        budget: BudgetKind,
        /// The observed value.
        observed: u64,
        /// The configured limit.
        limit: u64,
    },
    /// The degradation ladder escalated.
    DegradationEntered {
        /// The level entered.
        level: DegradationPolicy,
    },
    /// The engine recovered from degradation.
    DegradationExited {
        /// The level left behind.
        level: DegradationPolicy,
    },
    /// A monitor creation was refused under pressure.
    Shed {
        /// The binding whose monitor was not created.
        binding: Binding,
    },
    /// A handler panic quarantined a monitor.
    Quarantined {
        /// The quarantined instance.
        id: MonitorId,
        /// Its binding.
        binding: Binding,
    },
    /// A garbage-collection cycle finished.
    GcCycle {
        /// The full per-cycle accounting.
        record: GcCycleRecord,
    },
}

/// A timestamped lifecycle record.
#[derive(Clone, Copy, Debug)]
pub struct TraceRecord {
    /// Monotonic sequence number (counts records ever captured, including
    /// ones later overwritten by the bounded ring).
    pub seq: u64,
    /// Nanoseconds since the recorder was created.
    pub t_nanos: u64,
    /// Engine event count when the record was captured (the E column).
    pub event_index: u64,
    /// What happened.
    pub kind: TraceKind,
}

/// A bounded ring buffer of [`TraceRecord`]s with JSONL export.
///
/// When the buffer is full the oldest record is overwritten;
/// [`TraceRecorder::dropped`] counts the overwritten records so consumers
/// know the trace is a suffix.
#[derive(Debug)]
pub struct TraceRecorder {
    start: Instant,
    capacity: usize,
    ring: Vec<TraceRecord>,
    head: usize,
    next_seq: u64,
    events_seen: u64,
    /// Optional naming context for human-readable dumps.
    names: Option<(Alphabet, EventDef)>,
}

impl Default for TraceRecorder {
    /// A recorder with the default 65 536-record capacity.
    fn default() -> Self {
        TraceRecorder::new(DEFAULT_TRACE_CAPACITY)
    }
}

/// Default ring capacity for [`TraceRecorder::default`] (and the `rvmon
/// trace` CLI).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

impl TraceRecorder {
    /// A recorder keeping at most `capacity` records (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> TraceRecorder {
        TraceRecorder {
            start: Instant::now(),
            capacity: capacity.max(1),
            ring: Vec::new(),
            head: 0,
            next_seq: 0,
            events_seen: 0,
            names: None,
        }
    }

    /// Attaches an alphabet and event definition so dumps render event and
    /// parameter *names* instead of indices.
    #[must_use]
    pub fn with_names(mut self, alphabet: Alphabet, event_def: EventDef) -> TraceRecorder {
        self.names = Some((alphabet, event_def));
        self
    }

    fn push(&mut self, kind: TraceKind) {
        let record = TraceRecord {
            seq: self.next_seq,
            t_nanos: u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            event_index: self.events_seen,
            kind,
        };
        self.next_seq += 1;
        if self.ring.len() < self.capacity {
            self.ring.push(record);
        } else {
            self.ring[self.head] = record;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Records captured and still buffered, oldest first.
    #[must_use]
    pub fn records(&self) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(self.ring.len());
        out.extend_from_slice(&self.ring[self.head..]);
        out.extend_from_slice(&self.ring[..self.head]);
        out
    }

    /// Records overwritten by the bounded ring.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.next_seq - self.ring.len() as u64
    }

    /// Renders one record as a JSON object (no trailing newline).
    #[must_use]
    pub fn record_json(&self, r: &TraceRecord) -> String {
        let (alphabet, def) = self.names.as_ref().map(|(a, d)| (a, d)).unzip();
        let mut out =
            format!("{{\"seq\":{},\"t_ns\":{},\"event_index\":{}", r.seq, r.t_nanos, r.event_index);
        match r.kind {
            TraceKind::Event { event, binding, touched } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"event\",\"name\":\"{}\",\"binding\":\"{}\",\"touched\":{}",
                    json_escape(&render_event(event, alphabet)),
                    json_escape(&render_binding(&binding, def)),
                    touched
                );
            }
            TraceKind::Created { id, binding } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"created\",\"monitor\":{},\"binding\":\"{}\"",
                    id.as_usize(),
                    json_escape(&render_binding(&binding, def))
                );
            }
            TraceKind::Flagged { id, binding, last_event, dead, cause } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"flagged\",\"monitor\":{},\"binding\":\"{}\",\
                     \"last_event\":\"{}\",\"dead\":\"{}\",\"cause\":\"{}\"",
                    id.as_usize(),
                    json_escape(&render_binding(&binding, def)),
                    json_escape(&render_event(last_event, alphabet)),
                    json_escape(&render_params(dead, def)),
                    cause.label()
                );
            }
            TraceKind::Collected { id } => {
                let _ = write!(out, ",\"kind\":\"collected\",\"monitor\":{}", id.as_usize());
            }
            TraceKind::DeadKey { key } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"dead_key\",\"key\":\"{}\"",
                    json_escape(&render_binding(&key, def))
                );
            }
            TraceKind::SweepStarted => {
                out.push_str(",\"kind\":\"sweep_started\"");
            }
            TraceKind::SweepFinished { flagged, collected } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"sweep_finished\",\"flagged\":{flagged},\"collected\":{collected}"
                );
            }
            TraceKind::Trigger { binding, verdict } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"trigger\",\"binding\":\"{}\",\"verdict\":\"{}\"",
                    json_escape(&render_binding(&binding, def)),
                    verdict
                );
            }
            TraceKind::BudgetTripped { budget, observed, limit } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"budget_tripped\",\"budget\":\"{}\",\"observed\":{observed},\
                     \"limit\":{limit}",
                    budget.label()
                );
            }
            TraceKind::DegradationEntered { level } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"degradation_entered\",\"level\":\"{}\"",
                    level.label()
                );
            }
            TraceKind::DegradationExited { level } => {
                let _ =
                    write!(out, ",\"kind\":\"degradation_exited\",\"level\":\"{}\"", level.label());
            }
            TraceKind::Shed { binding } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"shed\",\"binding\":\"{}\"",
                    json_escape(&render_binding(&binding, def))
                );
            }
            TraceKind::Quarantined { id, binding } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"quarantined\",\"monitor\":{},\"binding\":\"{}\"",
                    id.as_usize(),
                    json_escape(&render_binding(&binding, def))
                );
            }
            TraceKind::GcCycle { record } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"gc_cycle\",\"gc\":\"{}\",\"reason\":\"{}\",\"end_ns\":{},\
                     \"pause_ns\":{},\"scanned\":{},\"reclaimed\":{},\"flagged\":{},\
                     \"occupancy_before\":{},\"occupancy_after\":{}",
                    record.kind.label(),
                    record.reason.label(),
                    record.end_ns,
                    record.pause_ns,
                    record.scanned,
                    record.reclaimed,
                    record.flagged,
                    record.occupancy_before,
                    record.occupancy_after
                );
            }
        }
        out.push('}');
        out
    }

    /// Dumps the buffered records as JSONL — one JSON object per line,
    /// oldest record first.
    #[must_use]
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for r in self.records() {
            out.push_str(&self.record_json(&r));
            out.push('\n');
        }
        out
    }
}

impl EngineObserver for TraceRecorder {
    fn event_dispatched(&mut self, event: EventId, binding: &Binding, monitors_touched: usize) {
        self.events_seen += 1;
        self.push(TraceKind::Event { event, binding: *binding, touched: monitors_touched });
    }

    fn monitor_created(&mut self, id: MonitorId, binding: &Binding) {
        self.push(TraceKind::Created { id, binding: *binding });
    }

    fn monitor_flagged(
        &mut self,
        id: MonitorId,
        binding: &Binding,
        last_event: EventId,
        dead: ParamSet,
        cause: FlagCause,
    ) {
        self.push(TraceKind::Flagged { id, binding: *binding, last_event, dead, cause });
    }

    fn monitor_collected(&mut self, id: MonitorId) {
        self.push(TraceKind::Collected { id });
    }

    fn dead_key_discovered(&mut self, key: &Binding) {
        self.push(TraceKind::DeadKey { key: *key });
    }

    fn sweep_started(&mut self) {
        self.push(TraceKind::SweepStarted);
    }

    fn sweep_finished(&mut self, flagged: u64, collected: u64) {
        self.push(TraceKind::SweepFinished { flagged, collected });
    }

    fn trigger_fired(&mut self, _step: usize, binding: &Binding, verdict: Verdict) {
        self.push(TraceKind::Trigger { binding: *binding, verdict });
    }

    fn budget_tripped(&mut self, budget: BudgetKind, observed: u64, limit: u64) {
        self.push(TraceKind::BudgetTripped { budget, observed, limit });
    }

    fn degradation_entered(&mut self, level: DegradationPolicy) {
        self.push(TraceKind::DegradationEntered { level });
    }

    fn degradation_exited(&mut self, level: DegradationPolicy) {
        self.push(TraceKind::DegradationExited { level });
    }

    fn monitor_shed(&mut self, binding: &Binding) {
        self.push(TraceKind::Shed { binding: *binding });
    }

    fn gc_cycle(&mut self, record: &GcCycleRecord) {
        self.push(TraceKind::GcCycle { record: *record });
    }

    fn monitor_quarantined(&mut self, id: MonitorId, binding: &Binding) {
        self.push(TraceKind::Quarantined { id, binding: *binding });
    }
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

/// A fixed-bucket histogram with power-of-two bucket bounds
/// `1, 2, 4, …, 2^(N−1)` plus an overflow bucket.
///
/// # Error bound
///
/// Only the bucket index is kept per sample, so any quantile estimate is
/// confined to the enclosing power-of-two bucket `(2^(i−1), 2^i]`: the
/// estimate can be off by at most the bucket's width, i.e. it is always
/// within a factor of 2 of the true sample (relative error < 100%,
/// typically far less thanks to the in-bucket linear interpolation).
/// `count`, `sum`, `mean`, and `max` are exact (up to saturation).
/// Ranks falling in the overflow bucket are clamped to the exact
/// [`Histogram::max`], so the top quantile never fabricates a value
/// larger than anything observed.
#[derive(Clone, Debug)]
pub struct Histogram {
    /// `counts[i]` counts samples `≤ 2^i`; the last slot is overflow.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

/// Number of power-of-two buckets: covers values up to 2^29 (~0.5 s in
/// nanoseconds, ~500M in event counts) before overflow.
pub const HISTOGRAM_BUCKETS: usize = 30;

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram { counts: vec![0; HISTOGRAM_BUCKETS + 1], count: 0, sum: 0, max: 0 }
    }

    /// Records one sample. All arithmetic saturates: a metrics sink must
    /// degrade to a pegged counter, never wrap (or panic in debug builds)
    /// after 2^64 samples — the same discipline `sum` always had.
    pub fn record(&mut self, value: u64) {
        let bucket = if value <= 1 {
            0
        } else {
            let b = 64 - u64::leading_zeros(value - 1) as usize;
            b.min(HISTOGRAM_BUCKETS)
        };
        self.counts[bucket] = self.counts[bucket].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Accumulates another histogram into this one (bucket-wise), the
    /// aggregation step for per-shard metrics: bucket counts, `count`, and
    /// `sum` add (saturating — merging is where near-full counters actually
    /// meet), `max` takes the larger mark. Bucket layout is fixed at
    /// compile time, so histograms from any two engines are compatible.
    pub fn merge_from(&mut self, other: &Histogram) {
        for (c, &o) in self.counts.iter_mut().zip(&other.counts) {
            *c = c.saturating_add(o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Raw per-bucket counts: slot `i < HISTOGRAM_BUCKETS` counts samples
    /// `≤ 2^i` (and above the previous bound); the final slot is overflow.
    /// Exposed for cumulative renderings (Prometheus `le` buckets).
    #[must_use]
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Arithmetic mean, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) by linear
    /// interpolation inside the power-of-two bucket holding the target
    /// rank. Bucket `i > 0` spans `(2^(i−1), 2^i]`, bucket 0 spans
    /// `[0, 1]`; ranks landing in the overflow bucket — and any
    /// interpolated value past the largest observed sample — clamp to
    /// [`Histogram::max`]. Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut below = 0.0f64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let through = below + c as f64;
            if through >= rank {
                if i >= HISTOGRAM_BUCKETS {
                    return self.max as f64;
                }
                let lo = if i == 0 { 0.0 } else { (1u64 << (i - 1)) as f64 };
                let hi = (1u64 << i) as f64;
                let frac = ((rank - below) / c as f64).clamp(0.0, 1.0);
                return (lo + (hi - lo) * frac).min(self.max as f64);
            }
            below = through;
        }
        self.max as f64
    }

    /// Renders the histogram as a JSON object (with p50/p95/p99/p99.9
    /// quantile estimates). Empty buckets are elided from the `buckets`
    /// array to keep snapshots small.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"count\":{},\"sum\":{},\"max\":{},\"mean\":{},\
             \"p50\":{},\"p95\":{},\"p99\":{},\"p999\":{},\"buckets\":[",
            self.count,
            self.sum,
            self.max,
            json_f64(self.mean()),
            json_f64(self.quantile(0.50)),
            json_f64(self.quantile(0.95)),
            json_f64(self.quantile(0.99)),
            json_f64(self.quantile(0.999))
        );
        let mut first = true;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            if i < HISTOGRAM_BUCKETS {
                let _ = write!(out, "{{\"le\":{},\"count\":{c}}}", 1u64 << i);
            } else {
                let _ = write!(out, "{{\"le\":\"inf\",\"count\":{c}}}");
            }
        }
        out.push_str("]}");
        out
    }
}

/// Counters and histograms over the monitor-GC pipeline, with a JSON
/// snapshot serializer.
///
/// It keeps only what the engine does not count: E/M/FM/CM and the other
/// engine counters live in [`EngineStats`], which
/// [`snapshot_json`](MetricsRegistry::snapshot_json) embeds.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Events observed: the clock the age histograms are measured in.
    events: u64,
    sweeps: u64,
    degradations_exited: u64,
    /// Creation→collection age in events.
    lifetime_events: Histogram,
    /// Creation→flag age in events.
    flag_latency_events: Histogram,
    /// Matching instances stepped per dispatched event.
    touched_per_event: Histogram,
    /// Monitors reclaimed per safepoint sweep.
    sweep_batch: Histogram,
    /// GC cycles by `[kind][reason]` ([`GcKind::index`] ×
    /// [`GcReason::index`]).
    gc_cycles: [[u64; GcReason::COUNT]; GcKind::COUNT],
    /// Objects/monitors scanned, per [`GcKind::index`].
    gc_scanned: [u64; GcKind::COUNT],
    /// Objects/monitors reclaimed, per [`GcKind::index`].
    gc_reclaimed: [u64; GcKind::COUNT],
    /// Stop-the-world pause nanoseconds, per [`GcKind::index`].
    gc_pause_ns: [Histogram; GcKind::COUNT],
    /// `(end_ns, pause_ns)` per cycle, the raw MMU-curve input (bounded
    /// at [`MAX_GC_PAUSE_RECORDS`]; oldest survive — MMU wants the full
    /// span, and early cycles anchor it).
    gc_pauses: Vec<(u64, u64)>,
    /// Allocation debt: monitors created since the last monitor sweep
    /// minus monitors that sweep reclaimed (the pacer's input signal).
    gc_debt: u64,
    /// End-to-end per-event dispatch latency in nanoseconds.
    event_latency_ns: Histogram,
    /// Birth event-index per live monitor id (removed on collection, so
    /// slot reuse cannot corrupt ages).
    birth: HashMap<MonitorId, u64>,
}

/// Cap on the raw `(end_ns, pause_ns)` records a [`MetricsRegistry`]
/// retains for MMU computation.
pub const MAX_GC_PAUSE_RECORDS: usize = 1 << 16;

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Safepoint sweeps observed.
    #[must_use]
    pub fn sweeps(&self) -> u64 {
        self.sweeps
    }

    /// Degradation recoveries observed.
    #[must_use]
    pub fn degradations_exited(&self) -> u64 {
        self.degradations_exited
    }

    /// The creation→collection age histogram (in events).
    #[must_use]
    pub fn lifetime_events(&self) -> &Histogram {
        &self.lifetime_events
    }

    /// The bindings-touched-per-event histogram.
    #[must_use]
    pub fn touched_per_event(&self) -> &Histogram {
        &self.touched_per_event
    }

    /// The per-sweep reclaim-batch histogram.
    #[must_use]
    pub fn sweep_batch(&self) -> &Histogram {
        &self.sweep_batch
    }

    /// GC cycles observed for `kind` with `reason`.
    #[must_use]
    pub fn gc_cycles(&self, kind: GcKind, reason: GcReason) -> u64 {
        self.gc_cycles[kind.index()][reason.index()]
    }

    /// Total GC cycles observed for `kind` across all reasons.
    #[must_use]
    pub fn gc_cycles_total(&self, kind: GcKind) -> u64 {
        self.gc_cycles[kind.index()].iter().sum()
    }

    /// Objects/monitors scanned by `kind` cycles.
    #[must_use]
    pub fn gc_scanned(&self, kind: GcKind) -> u64 {
        self.gc_scanned[kind.index()]
    }

    /// Objects/monitors reclaimed by `kind` cycles.
    #[must_use]
    pub fn gc_reclaimed(&self, kind: GcKind) -> u64 {
        self.gc_reclaimed[kind.index()]
    }

    /// The stop-the-world pause histogram for `kind`.
    #[must_use]
    pub fn gc_pause(&self, kind: GcKind) -> &Histogram {
        &self.gc_pause_ns[kind.index()]
    }

    /// The raw `(end_ns, pause_ns)` cycle records retained for MMU
    /// computation (bounded; see [`MAX_GC_PAUSE_RECORDS`]).
    #[must_use]
    pub fn gc_pauses(&self) -> &[(u64, u64)] {
        &self.gc_pauses
    }

    /// Current allocation debt: monitors created since the last monitor
    /// sweep minus what that sweep reclaimed, saturating at 0.
    #[must_use]
    pub fn gc_debt(&self) -> u64 {
        self.gc_debt
    }

    /// The end-to-end per-event dispatch latency histogram.
    #[must_use]
    pub fn event_latency_ns(&self) -> &Histogram {
        &self.event_latency_ns
    }

    /// Accumulates another registry into this one — the per-shard metrics
    /// aggregation path: every counter sums (saturating) and every
    /// histogram merges via [`Histogram::merge_from`].
    ///
    /// The per-monitor birth table is deliberately *not* merged:
    /// [`MonitorId`]s are engine-local and collide across shards, and the
    /// table exists only to feed the lifetime/latency histograms at
    /// flag/collect time — which each shard already did before its
    /// snapshot was shipped.
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        self.events = self.events.saturating_add(other.events);
        self.sweeps = self.sweeps.saturating_add(other.sweeps);
        self.degradations_exited =
            self.degradations_exited.saturating_add(other.degradations_exited);
        self.lifetime_events.merge_from(&other.lifetime_events);
        self.flag_latency_events.merge_from(&other.flag_latency_events);
        self.touched_per_event.merge_from(&other.touched_per_event);
        self.sweep_batch.merge_from(&other.sweep_batch);
        for (row, other_row) in self.gc_cycles.iter_mut().zip(&other.gc_cycles) {
            for (c, &o) in row.iter_mut().zip(other_row) {
                *c = c.saturating_add(o);
            }
        }
        for (c, &o) in self.gc_scanned.iter_mut().zip(&other.gc_scanned) {
            *c = c.saturating_add(o);
        }
        for (c, &o) in self.gc_reclaimed.iter_mut().zip(&other.gc_reclaimed) {
            *c = c.saturating_add(o);
        }
        for (h, o) in self.gc_pause_ns.iter_mut().zip(&other.gc_pause_ns) {
            h.merge_from(o);
        }
        let room = MAX_GC_PAUSE_RECORDS.saturating_sub(self.gc_pauses.len());
        self.gc_pauses.extend(other.gc_pauses.iter().take(room));
        self.gc_debt = self.gc_debt.saturating_add(other.gc_debt);
        self.event_latency_ns.merge_from(&other.event_latency_ns);
    }

    /// Serializes the registry's own counters and histograms together with
    /// the engine's [`EngineStats`] (the `"engine"` object, E/M/FM/CM and
    /// the rest) and, optionally, the simulated heap's [`HeapStats`], so one
    /// document carries the full pipeline state and each count appears once.
    #[must_use]
    pub fn snapshot_json(&self, engine: &EngineStats, heap: Option<&HeapStats>) -> String {
        let mut out = String::from("{\"counters\":{");
        let _ = write!(
            out,
            "\"sweeps\":{},\"degradations_exited\":{},\"gc_debt\":{}",
            self.sweeps, self.degradations_exited, self.gc_debt
        );
        for kind in GcKind::ALL {
            for reason in GcReason::ALL {
                let _ = write!(
                    out,
                    ",\"gc_{}_{}_cycles\":{}",
                    kind.label(),
                    reason.label(),
                    self.gc_cycles(kind, reason)
                );
            }
            let _ = write!(out, ",\"gc_{}_scanned\":{}", kind.label(), self.gc_scanned(kind));
            let _ = write!(out, ",\"gc_{}_reclaimed\":{}", kind.label(), self.gc_reclaimed(kind));
        }
        out.push_str("},\"histograms\":{");
        let _ = write!(out, "\"monitor_lifetime_events\":{}", self.lifetime_events.to_json());
        let _ = write!(out, ",\"flag_latency_events\":{}", self.flag_latency_events.to_json());
        let _ = write!(out, ",\"bindings_touched_per_event\":{}", self.touched_per_event.to_json());
        let _ = write!(out, ",\"sweep_batch_collected\":{}", self.sweep_batch.to_json());
        for kind in GcKind::ALL {
            let _ =
                write!(out, ",\"gc_pause_{}_ns\":{}", kind.label(), self.gc_pause(kind).to_json());
        }
        let _ = write!(out, ",\"event_latency_ns\":{}", self.event_latency_ns.to_json());
        let _ = write!(out, "}},\"engine\":{}", engine.to_json());
        if let Some(h) = heap {
            let _ = write!(out, ",\"heap\":{}", h.to_json());
        }
        out.push('}');
        out
    }
}

impl EngineObserver for MetricsRegistry {
    fn event_dispatched(&mut self, _event: EventId, _binding: &Binding, monitors_touched: usize) {
        self.events += 1;
        self.touched_per_event.record(monitors_touched as u64);
    }

    fn monitor_created(&mut self, id: MonitorId, _binding: &Binding) {
        self.gc_debt = self.gc_debt.saturating_add(1);
        self.birth.insert(id, self.events);
    }

    fn monitor_flagged(
        &mut self,
        id: MonitorId,
        _binding: &Binding,
        _last_event: EventId,
        _dead: ParamSet,
        _cause: FlagCause,
    ) {
        if let Some(&born) = self.birth.get(&id) {
            self.flag_latency_events.record(self.events - born);
        }
    }

    fn monitor_collected(&mut self, id: MonitorId) {
        if let Some(born) = self.birth.remove(&id) {
            self.lifetime_events.record(self.events - born);
        }
    }

    fn sweep_started(&mut self) {
        self.sweeps += 1;
    }

    fn sweep_finished(&mut self, _flagged: u64, collected: u64) {
        self.sweep_batch.record(collected);
    }

    fn degradation_exited(&mut self, _level: DegradationPolicy) {
        self.degradations_exited += 1;
    }

    fn gc_cycle(&mut self, record: &GcCycleRecord) {
        self.gc_cycles[record.kind.index()][record.reason.index()] += 1;
        self.gc_scanned[record.kind.index()] =
            self.gc_scanned[record.kind.index()].saturating_add(record.scanned);
        self.gc_reclaimed[record.kind.index()] =
            self.gc_reclaimed[record.kind.index()].saturating_add(record.reclaimed);
        self.gc_pause_ns[record.kind.index()].record(record.pause_ns);
        if self.gc_pauses.len() < MAX_GC_PAUSE_RECORDS {
            self.gc_pauses.push((record.end_ns, record.pause_ns));
        }
        if record.kind == GcKind::MonitorSweep {
            self.gc_debt = self.gc_debt.saturating_sub(record.reclaimed);
        }
    }

    fn event_latency(&mut self, nanos: u64) {
        self.event_latency_ns.record(nanos);
    }
}

/// Minimum mutator utilization over any window of `window_ns`
/// nanoseconds within `[0, span_ns]`, given `(end_ns, pause_ns)` cycle
/// records (each pause occupies `[end_ns − pause_ns, end_ns)`).
///
/// Utilization of a window is the fraction of it *not* spent inside a
/// stop-the-world pause; MMU is the minimum over all window placements —
/// the classic real-time GC metric (Cheng & Blelloch 2001). Candidate
/// window positions need only be checked where the overlap function's
/// derivative changes sign: at each pause's start and at each
/// `end − window`, which this evaluates in O(n²) over the pause list.
/// Windows wider than the span degrade to whole-span utilization.
#[must_use]
pub fn mmu(pauses: &[(u64, u64)], span_ns: u64, window_ns: u64) -> f64 {
    if window_ns == 0 {
        return 0.0;
    }
    let span = span_ns.max(1);
    if window_ns >= span {
        let total: u64 = pauses.iter().map(|&(end, p)| p.min(end).min(span)).sum();
        return 1.0 - (total.min(span) as f64 / span as f64);
    }
    let overlap = |w_start: u64| -> u64 {
        let w_end = w_start + window_ns;
        pauses
            .iter()
            .map(|&(end, p)| {
                let start = end.saturating_sub(p);
                end.min(w_end).saturating_sub(start.max(w_start))
            })
            .sum()
    };
    let mut candidates: Vec<u64> = vec![0, span - window_ns];
    for &(end, p) in pauses {
        candidates.push(end.saturating_sub(p).min(span - window_ns));
        candidates.push(end.saturating_sub(window_ns).min(span - window_ns));
    }
    let worst = candidates.into_iter().map(overlap).max().unwrap_or(0).min(window_ns);
    1.0 - worst as f64 / window_ns as f64
}

/// Evaluates [`mmu`] at each window size, returning `(window_ns, mmu)`
/// pairs — the MMU curve.
#[must_use]
pub fn mmu_curve(pauses: &[(u64, u64)], span_ns: u64, windows: &[u64]) -> Vec<(u64, f64)> {
    windows.iter().map(|&w| (w, mmu(pauses, span_ns, w))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_logic::ParamId;

    #[test]
    fn noop_observer_is_disabled() {
        assert!(!NoopObserver::ENABLED);
        assert!(!<(NoopObserver, NoopObserver) as EngineObserver>::ENABLED);
        assert!(<(TraceRecorder, NoopObserver) as EngineObserver>::ENABLED);
        assert!(MetricsRegistry::ENABLED);
    }

    #[test]
    fn histogram_buckets_by_powers_of_two() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max(), u64::MAX);
        let json = h.to_json();
        assert!(json.contains("\"le\":1,\"count\":2"), "{json}");
        assert!(json.contains("\"le\":2,\"count\":1"), "{json}");
        assert!(json.contains("\"le\":4,\"count\":2"), "{json}");
        assert!(json.contains("\"le\":1024,\"count\":1"), "{json}");
        assert!(json.contains("\"le\":\"inf\",\"count\":1"), "{json}");
    }

    #[test]
    fn histogram_merge_adds_counts_and_keeps_the_max() {
        let mut a = Histogram::new();
        a.record(1);
        a.record(3);
        let mut b = Histogram::new();
        b.record(3);
        b.record(100);
        a.merge_from(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.sum(), 107);
        assert_eq!(a.max(), 100);
        let json = a.to_json();
        assert!(json.contains("\"le\":1,\"count\":1"), "{json}");
        assert!(json.contains("\"le\":4,\"count\":2"), "two 3s land in the same bucket: {json}");
        assert!(json.contains("\"le\":128,\"count\":1"), "{json}");
    }

    /// Repeated self-merges double every counter; 70 doublings walk the
    /// totals past 2^64, where the pre-fix `+=` would wrap (panicking in
    /// debug builds). Saturation must peg them at `u64::MAX` instead.
    #[test]
    fn histogram_counts_saturate_instead_of_wrapping() {
        let mut h = Histogram::new();
        h.record(5);
        for _ in 0..70 {
            let snapshot = h.clone();
            h.merge_from(&snapshot);
        }
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.max(), 5, "max is a mark, not a flow: never inflated by merging");
        let json = h.to_json();
        assert!(
            json.contains(&format!("\"le\":8,\"count\":{}", u64::MAX)),
            "bucket counts saturate too: {json}"
        );
    }

    #[test]
    fn metrics_registry_merge_aggregates_counters_and_histograms() {
        let mut a = MetricsRegistry::new();
        a.event_dispatched(EventId(0), &Binding::BOTTOM, 2);
        a.monitor_created(MonitorId::from_raw(0), &Binding::BOTTOM);
        let mut b = MetricsRegistry::new();
        b.event_dispatched(EventId(1), &Binding::BOTTOM, 5);
        b.event_dispatched(EventId(1), &Binding::BOTTOM, 7);
        b.monitor_created(MonitorId::from_raw(0), &Binding::BOTTOM);
        b.monitor_collected(MonitorId::from_raw(0));
        b.sweep_started();
        b.sweep_finished(1, 4);
        b.degradation_exited(DegradationPolicy::ForcedSweep);
        a.merge_from(&b);
        assert_eq!(a.sweeps(), 1);
        assert_eq!(a.degradations_exited(), 1);
        assert_eq!(a.touched_per_event().count(), 3, "histograms merge bucket-wise");
        assert_eq!(a.touched_per_event().max(), 7);
        assert_eq!(a.sweep_batch().count(), 1);
        assert_eq!(a.lifetime_events().count(), 1, "b collected one monitor at age 1");
        assert_eq!(a.gc_debt(), 2, "debt sums: two creations, no monitor-sweep cycle");
        let json = a.snapshot_json(&EngineStats::default(), None);
        assert!(json.contains("{\"counters\":{\"sweeps\":1,\"degradations_exited\":1"), "{json}");
        assert!(json.contains("\"gc_debt\":2"), "{json}");
    }

    #[test]
    fn ring_buffer_is_bounded_and_keeps_the_suffix() {
        let mut rec = TraceRecorder::new(4);
        for i in 0..10u32 {
            rec.monitor_collected(MonitorId::from_raw(i));
        }
        let records = rec.records();
        assert_eq!(records.len(), 4);
        assert_eq!(rec.dropped(), 6);
        assert_eq!(records[0].seq, 6, "oldest surviving record");
        assert_eq!(records[3].seq, 9, "newest record last");
    }

    #[test]
    fn jsonl_dump_is_one_object_per_line() {
        let mut rec = TraceRecorder::new(16);
        rec.sweep_started();
        rec.sweep_finished(2, 3);
        rec.trigger_fired(0, &Binding::BOTTOM, Verdict::Match);
        let dump = rec.dump_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"kind\":\"sweep_started\""));
        assert!(lines[1].contains("\"flagged\":2") && lines[1].contains("\"collected\":3"));
        assert!(lines[2].contains("\"verdict\":\"match\""));
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn metrics_snapshot_contains_counters_and_histograms() {
        let mut m = MetricsRegistry::new();
        let id = MonitorId::from_raw(0);
        m.event_dispatched(EventId(0), &Binding::BOTTOM, 2);
        m.monitor_created(id, &Binding::BOTTOM);
        m.event_dispatched(EventId(1), &Binding::BOTTOM, 1);
        m.monitor_flagged(id, &Binding::BOTTOM, EventId(1), ParamSet::EMPTY, FlagCause::Aliveness);
        m.monitor_collected(id);
        let stats = EngineStats {
            events: 2,
            monitors_created: 1,
            monitors_flagged: 1,
            monitors_collected: 1,
            ..EngineStats::default()
        };
        let json = m.snapshot_json(&stats, None);
        // E/M/FM/CM are read from the engine, once.
        assert!(json.contains(&format!("\"engine\":{}", stats.to_json())), "{json}");
        assert_eq!(json.matches("\"events\":").count(), 1, "{json}");
        assert!(json.contains("\"monitor_lifetime_events\""), "{json}");
        // Phase timings live in `PhaseProfiler`, not the registry.
        assert!(!json.contains("\"phase_"), "{json}");
        // The lifetime histogram recorded 2 − 1 = 1 event of age.
        assert_eq!(m.lifetime_events().count(), 1);
        assert_eq!(m.lifetime_events().sum(), 1);
    }

    #[test]
    fn robustness_callbacks_reach_traces_and_metrics() {
        let mut rec = TraceRecorder::new(16);
        rec.budget_tripped(BudgetKind::LiveMonitors, 12, 10);
        rec.degradation_entered(DegradationPolicy::ForcedSweep);
        rec.monitor_shed(&Binding::BOTTOM);
        rec.monitor_quarantined(MonitorId::from_raw(3), &Binding::BOTTOM);
        rec.degradation_exited(DegradationPolicy::ForcedSweep);
        let dump = rec.dump_jsonl();
        assert!(
            dump.contains("\"kind\":\"budget_tripped\",\"budget\":\"live_monitors\""),
            "{dump}"
        );
        assert!(dump.contains("\"observed\":12,\"limit\":10"), "{dump}");
        assert!(dump.contains("\"kind\":\"degradation_entered\",\"level\":\"forced_sweep\""));
        assert!(dump.contains("\"kind\":\"degradation_exited\",\"level\":\"forced_sweep\""));
        assert!(dump.contains("\"kind\":\"shed\""));
        assert!(dump.contains("\"kind\":\"quarantined\",\"monitor\":3"));

        // Entries, trips, sheds and quarantines are `EngineStats` counters;
        // only the exit is the registry's own.
        let mut m = MetricsRegistry::new();
        m.degradation_entered(DegradationPolicy::ShedNewMonitors);
        m.degradation_exited(DegradationPolicy::ShedNewMonitors);
        assert_eq!(m.degradations_exited(), 1);
        let json = m.snapshot_json(&EngineStats::default(), None);
        assert!(json.contains("\"degradations_exited\":1"), "{json}");
    }

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    /// Every C0 control character must leave `json_escape` as a valid JSON
    /// escape sequence — raw control bytes inside a string literal are
    /// malformed JSON.
    #[test]
    fn escape_covers_every_control_character() {
        for code in 0u32..0x20 {
            let c = char::from_u32(code).unwrap();
            let escaped = json_escape(&c.to_string());
            assert!(escaped.starts_with('\\'), "U+{code:04X} not escaped: {escaped:?}");
            let expected = match c {
                '\n' => "\\n".to_owned(),
                '\r' => "\\r".to_owned(),
                '\t' => "\\t".to_owned(),
                _ => format!("\\u{code:04x}"),
            };
            assert_eq!(escaped, expected, "U+{code:04X}");
        }
        // DEL and non-ASCII pass through: both are legal raw in JSON strings.
        assert_eq!(json_escape("\u{7f}é"), "\u{7f}é");
    }

    /// Non-finite floats have no JSON representation; the serializer must
    /// degrade to `null`, never emit `NaN`/`inf` tokens.
    #[test]
    fn json_f64_nulls_non_finite_values() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NEG_INFINITY), "null");
        assert_eq!(json_f64(0.0), "0");
        assert_eq!(json_f64(-0.0), "-0");
        assert_eq!(json_f64(1.5), "1.5");
        // Extremes render as plain decimals (no exponent tokens JSON
        // parsers could choke on) and stay finite.
        let big = json_f64(f64::MAX);
        assert!(!big.contains('e') && !big.contains('E'), "{big}");
        let mean_of_empty = json_f64(0.0 / 1.0);
        assert_eq!(mean_of_empty, "0");
    }

    /// Quantile estimates interpolate inside power-of-two buckets: a
    /// bucket `(2^(i−1), 2^i]` holding the target rank yields a value
    /// inside those bounds, clamped to the observed max.
    #[test]
    fn histogram_quantiles_interpolate_within_buckets() {
        let mut h = Histogram::new();
        for _ in 0..50 {
            h.record(1); // bucket 0: [0, 1]
        }
        for _ in 0..50 {
            h.record(100); // bucket 7: (64, 128]
        }
        let p50 = h.quantile(0.50);
        assert!((0.0..=1.0).contains(&p50), "p50 inside bucket 0: {p50}");
        let p95 = h.quantile(0.95);
        assert!((64.0..=100.0).contains(&p95), "p95 in (64, max]: {p95}");
        assert_eq!(h.quantile(1.0), 100.0, "p100 is the max");
        assert_eq!(Histogram::new().quantile(0.5), 0.0, "empty histogram");
        // A single sample: every quantile is that sample's bucket, capped
        // at the max itself.
        let mut one = Histogram::new();
        one.record(5);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = one.quantile(q);
            assert!((4.0..=5.0).contains(&v), "q={q}: {v}");
        }
        let json = h.to_json();
        assert!(json.contains("\"p50\":"), "{json}");
        assert!(json.contains("\"p95\":"), "{json}");
        assert!(json.contains("\"p99\":"), "{json}");
    }

    /// Overflow-bucket ranks and saturated counts must not poison the
    /// estimate: the quantile clamps to the recorded max.
    #[test]
    fn histogram_quantiles_survive_overflow_and_saturation() {
        let mut h = Histogram::new();
        h.record(u64::MAX); // overflow bucket
        assert_eq!(h.quantile(0.5), u64::MAX as f64);
        let mut s = Histogram::new();
        s.record(5);
        for _ in 0..70 {
            let snapshot = s.clone();
            s.merge_from(&snapshot);
        }
        assert_eq!(s.count(), u64::MAX);
        let p99 = s.quantile(0.99);
        assert!((4.0..=5.0).contains(&p99), "saturated counts still estimate: {p99}");
    }

    /// Merging is associative on every exposed statistic: (a⊕b)⊕c equals
    /// a⊕(b⊕c) bucket-for-bucket, so shard aggregation order is
    /// irrelevant.
    #[test]
    fn histogram_merge_is_associative() {
        let mk = |values: &[u64]| {
            let mut h = Histogram::new();
            for &v in values {
                h.record(v);
            }
            h
        };
        let (a, b, c) = (mk(&[0, 1, 7]), mk(&[8, 9, 1_000_000]), mk(&[3, u64::MAX]));
        let mut left = a.clone();
        left.merge_from(&b);
        left.merge_from(&c);
        let mut bc = b.clone();
        bc.merge_from(&c);
        let mut right = a.clone();
        right.merge_from(&bc);
        assert_eq!(left.count(), right.count());
        assert_eq!(left.sum(), right.sum());
        assert_eq!(left.max(), right.max());
        assert_eq!(left.to_json(), right.to_json(), "bucket-for-bucket equality");
    }

    /// Exact bucket boundaries: `2^i` lands in bucket `i`, `2^i + 1` in
    /// bucket `i+1`, mirroring `le`-labelled upper bounds in the JSON.
    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper_bounds() {
        for i in 1..10u32 {
            let edge = 1u64 << i;
            let mut h = Histogram::new();
            h.record(edge);
            assert!(h.to_json().contains(&format!("\"le\":{edge},\"count\":1")), "2^{i}");
            let mut h2 = Histogram::new();
            h2.record(edge + 1);
            assert!(
                h2.to_json().contains(&format!("\"le\":{},\"count\":1", edge << 1)),
                "2^{i}+1 overflows into the next bucket"
            );
        }
    }

    #[test]
    fn phase_labels_round_trip_and_cover_the_hot_path() {
        assert_eq!(Phase::ALL.len(), Phase::COUNT);
        for p in Phase::ALL {
            assert_eq!(Phase::from_label(p.label()), Some(p));
        }
        assert_eq!(Phase::from_label("nonsense"), None);
        let mut prof = crate::PhaseProfiler::new();
        for (i, p) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(p.index(), i, "{p:?}: ALL order is discriminant order");
            prof.phase_timed(p, 10);
        }
        let json = prof.to_json();
        for p in Phase::ALL {
            assert_eq!(prof.phase(p).count(), 1, "{p:?}");
            assert!(json.contains(&format!("\"{}\":{{", p.label())), "{json}");
        }
    }

    #[test]
    fn binding_renders_without_names() {
        let obj = rv_heap::ObjId::from_bits((1 << 32) | 5);
        let b = Binding::from_pairs(&[(ParamId(0), obj)]);
        assert_eq!(render_binding(&b, None), "x0=#1g5");
    }

    /// Satellite: `quantile()` edge-case battery — empty, single-sample,
    /// and saturated-top-bucket inputs.
    #[test]
    fn quantile_edge_cases() {
        // Empty: every quantile is 0.
        let empty = Histogram::new();
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(empty.quantile(q), 0.0, "empty histogram at q={q}");
        }

        // Single sample: every quantile stays inside the enclosing
        // power-of-two bucket and never exceeds the exact max.
        let mut single = Histogram::new();
        single.record(100); // bucket (64, 128]
        for q in [0.0, 0.5, 0.99, 1.0] {
            let est = single.quantile(q);
            assert!(est > 64.0 - f64::EPSILON && est <= 100.0, "q={q} gave {est}");
        }
        assert_eq!(single.quantile(1.0), 100.0, "p100 of one sample is that sample");

        // Saturated top bucket: all mass in overflow clamps to max.
        let mut over = Histogram::new();
        over.record(u64::MAX);
        over.record(u64::MAX - 7);
        for q in [0.1, 0.5, 0.999] {
            assert_eq!(over.quantile(q), u64::MAX as f64, "overflow clamps to max at q={q}");
        }

        // Out-of-range q clamps rather than panicking.
        let mut h = Histogram::new();
        h.record(4);
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));

        // The documented power-of-2 error bound: estimate within 2× of
        // the true value for a uniform-ish fill.
        let mut u = Histogram::new();
        for v in 1..=1024u64 {
            u.record(v);
        }
        let p50 = u.quantile(0.5);
        assert!(p50 >= 256.0 && p50 <= 1024.0, "true p50=512, bound allows (256,1024]: {p50}");
        assert!(u.to_json().contains("\"p999\":"), "p99.9 is exported");
    }

    #[test]
    fn gc_cycle_record_round_trips_through_bytes() {
        for kind in GcKind::ALL {
            for reason in GcReason::ALL {
                let rec = GcCycleRecord {
                    kind,
                    reason,
                    end_ns: 123_456_789,
                    pause_ns: 42_000,
                    scanned: 1000,
                    reclaimed: 37,
                    flagged: 5,
                    occupancy_before: 900,
                    occupancy_after: 863,
                };
                let bytes = rec.to_bytes();
                assert_eq!(bytes.len(), GcCycleRecord::ENCODED_LEN);
                assert_eq!(GcCycleRecord::from_bytes(&bytes), Some(rec));
            }
        }
        assert_eq!(GcCycleRecord::from_bytes(&[]), None);
        assert_eq!(GcCycleRecord::from_bytes(&[9; GcCycleRecord::ENCODED_LEN]), None);
        let mut short = vec![0; GcCycleRecord::ENCODED_LEN - 1];
        short[0] = 0;
        assert_eq!(GcCycleRecord::from_bytes(&short), None);
    }

    #[test]
    fn metrics_registry_accounts_gc_cycles_and_debt() {
        let mut m = MetricsRegistry::new();
        for i in 0..3u32 {
            m.monitor_created(MonitorId::from_raw(i), &Binding::BOTTOM);
        }
        assert_eq!(m.gc_debt(), 3, "creations accrue debt");
        m.gc_cycle(&GcCycleRecord {
            kind: GcKind::MonitorSweep,
            reason: GcReason::Forced,
            end_ns: 1000,
            pause_ns: 100,
            scanned: 3,
            reclaimed: 2,
            flagged: 1,
            occupancy_before: 3,
            occupancy_after: 1,
        });
        assert_eq!(m.gc_debt(), 1, "sweep reclaim pays debt down");
        m.gc_cycle(&GcCycleRecord {
            kind: GcKind::HeapCollect,
            reason: GcReason::Periodic,
            end_ns: 2000,
            pause_ns: 50,
            scanned: 10,
            reclaimed: 4,
            flagged: 0,
            occupancy_before: 10,
            occupancy_after: 6,
        });
        assert_eq!(m.gc_debt(), 1, "heap cycles do not touch monitor debt");
        assert_eq!(m.gc_cycles(GcKind::MonitorSweep, GcReason::Forced), 1);
        assert_eq!(m.gc_cycles(GcKind::HeapCollect, GcReason::Periodic), 1);
        assert_eq!(m.gc_cycles_total(GcKind::MonitorSweep), 1);
        assert_eq!(m.gc_scanned(GcKind::MonitorSweep), 3);
        assert_eq!(m.gc_reclaimed(GcKind::HeapCollect), 4);
        assert_eq!(m.gc_pause(GcKind::MonitorSweep).count(), 1);
        assert_eq!(m.gc_pauses(), &[(1000, 100), (2000, 50)]);

        // Merge aggregates all GC state.
        let mut other = MetricsRegistry::new();
        other.gc_cycle(&GcCycleRecord {
            kind: GcKind::MonitorSweep,
            reason: GcReason::Budget,
            end_ns: 500,
            pause_ns: 10,
            scanned: 1,
            reclaimed: 0,
            flagged: 0,
            occupancy_before: 1,
            occupancy_after: 1,
        });
        m.merge_from(&other);
        assert_eq!(m.gc_cycles_total(GcKind::MonitorSweep), 2);
        assert_eq!(m.gc_pauses().len(), 3);
        assert_eq!(m.gc_pause(GcKind::MonitorSweep).count(), 2);

        let json = m.snapshot_json(&EngineStats::default(), None);
        assert!(json.contains("\"gc_debt\":1"), "{json}");
        assert!(json.contains("\"gc_monitor_sweep_forced_cycles\":1"), "{json}");
        assert!(json.contains("\"gc_heap_periodic_cycles\":1"), "{json}");
        assert!(json.contains("\"gc_pause_monitor_sweep_ns\""), "{json}");
        assert!(json.contains("\"event_latency_ns\""), "{json}");
    }

    #[test]
    fn mmu_matches_hand_computed_windows() {
        // One 10 ns pause ending at t=50 in a 100 ns span.
        let pauses = [(50u64, 10u64)];
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(mmu(&pauses, 100, 100), 0.9), "whole span: 90 of 100 mutating");
        assert!(close(mmu(&pauses, 100, 10), 0.0), "a 10 ns window fits inside the pause");
        assert!(close(mmu(&pauses, 100, 20), 0.5), "worst 20 ns window holds the full pause");
        assert!(close(mmu(&pauses, 100, 40), 0.75), "worst 40 ns window holds the full pause");

        // Two adjacent pauses merge their effect within one window.
        let two = [(20u64, 10u64), (40u64, 10u64)];
        assert!(close(mmu(&two, 100, 30), 1.0 / 3.0), "window [10,40) holds both pauses");
        assert!(close(mmu(&two, 100, 100), 0.8));

        // No pauses: utilization 1 at every window.
        assert!(close(mmu(&[], 100, 10), 1.0));
        assert!(close(mmu(&[], 100, 1000), 1.0), "window wider than span");

        // Degenerate inputs.
        assert!(close(mmu(&pauses, 100, 0), 0.0), "zero window is defined as 0");

        let curve = mmu_curve(&pauses, 100, &[10, 20, 100]);
        assert_eq!(curve.len(), 3);
        assert!(close(curve[0].1, 0.0) && close(curve[1].1, 0.5) && close(curve[2].1, 0.9));
        assert!(
            curve.windows(2).all(|w| w[0].1 <= w[1].1 + 1e-9),
            "MMU is monotone in window size for a single pause"
        );
    }
}
