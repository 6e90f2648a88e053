//! Deep observability: the hot-path phase profiler, the per-monitor
//! provenance ledger, and Prometheus text exposition.
//!
//! PR 1's counters answer *how much* (E/M/FM/CM aggregates); this module
//! answers the two questions the paper's evaluation turns on but cannot
//! ask: *where does each microsecond of per-event overhead go*, and *why
//! did this specific monitor instance get created, flagged, and
//! collected*.
//!
//! * [`PhaseProfiler`] — an [`EngineObserver`] that folds every span the
//!   engine times ([`EngineObserver::phase_timed`]) into a per-phase
//!   power-of-two [`Histogram`] (p50/p95/p99 via
//!   [`Histogram::quantile`]); a phase's span count is its histogram's
//!   count. It rides the same `O::ENABLED` monomorphization as
//!   `MetricsRegistry`: with [`NoopObserver`](crate::NoopObserver) the
//!   engine compiles all timing out, so the disabled path costs nothing
//!   (verified by the bench harness). Like `MetricsRegistry` it is
//!   [`merge_from`](PhaseProfiler::merge_from)-able across the blocks of
//!   a spec.
//! * [`ProvenanceLedger`] — an [`EngineObserver`] recording each monitor
//!   instance's life story: creating event index and binding, every
//!   flagging with its cause (which parameters were dead, which event's
//!   ALIVENESS evaluated false) and the sweep it happened under, and the
//!   collection point. [`ProvenanceLedger::summary`] re-derives Figure
//!   10's E/M/FM/CM from the per-instance records — an accounting
//!   identity against [`EngineStats`] that the test suite checks for the
//!   whole catalog.
//! * [`prometheus_text`] — renders engine stats, a merged registry and
//!   profilers as the `rvmon_*` families of the Prometheus text
//!   exposition, through the [`expo`](crate::expo) writer (served by
//!   `rvmon serve`).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use rv_logic::{Alphabet, EventDef, EventId, ParamSet, Verdict};

use crate::binding::Binding;
use crate::expo::{Exposition, Kind};
use crate::obs::{
    json_escape, json_f64, render_binding, render_event, render_params, EngineObserver, FlagCause,
    GcCycleRecord, GcKind, GcReason, Histogram, MetricsRegistry, Phase,
};
use crate::stats::EngineStats;
use crate::store::MonitorId;

// ---------------------------------------------------------------------------
// PhaseProfiler
// ---------------------------------------------------------------------------

/// Per-phase wall-clock histograms of the spans the engine times.
///
/// One profiler covers one property block; the
/// [`label`](PhaseProfiler::with_label) names it in expositions. Merging
/// follows the same discipline as [`MetricsRegistry::merge_from`]: bucket
/// counts add and maxima take the larger mark, so aggregation order is
/// irrelevant.
#[derive(Debug, Clone, Default)]
pub struct PhaseProfiler {
    label: String,
    spans: [Histogram; Phase::COUNT],
    events: u64,
}

impl PhaseProfiler {
    /// An empty, unlabelled profiler.
    #[must_use]
    pub fn new() -> PhaseProfiler {
        PhaseProfiler::default()
    }

    /// Names the profiler (normally the property, e.g. `"UnsafeIter"`).
    #[must_use]
    pub fn with_label(mut self, label: &str) -> PhaseProfiler {
        self.label = label.to_owned();
        self
    }

    /// The profiler's label (empty when unlabelled).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Events observed (denominator for per-event phase cost).
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The wall-clock histogram for `phase`; its
    /// [`count`](Histogram::count) is the number of spans timed.
    #[must_use]
    pub fn phase(&self, phase: Phase) -> &Histogram {
        &self.spans[phase.index()]
    }

    /// Accumulates another profiler (the per-block aggregation path).
    /// The label is kept from `self` unless `self` is unlabelled.
    pub fn merge_from(&mut self, other: &PhaseProfiler) {
        if self.label.is_empty() {
            self.label = other.label.clone();
        }
        for (h, o) in self.spans.iter_mut().zip(&other.spans) {
            h.merge_from(o);
        }
        self.events = self.events.saturating_add(other.events);
    }

    /// Measures the profiler's own cost: the mean wall-clock nanoseconds
    /// one span spends on its clock pair and its
    /// [`phase_timed`](EngineObserver::phase_timed) record, over `reps`
    /// probe spans against a scratch profiler. This is the figure to
    /// subtract when interpreting per-phase sums — and the reason the
    /// `NoopObserver` path compiles the spans out entirely.
    #[must_use]
    pub fn measure_self_overhead(reps: u32) -> f64 {
        let reps = reps.max(1);
        let mut probe = PhaseProfiler::new();
        let start = Instant::now();
        for _ in 0..reps {
            let span = Instant::now();
            let nanos = u64::try_from(span.elapsed().as_nanos()).unwrap_or(u64::MAX);
            probe.phase_timed(Phase::IndexLookup, nanos);
        }
        let total = start.elapsed().as_nanos() as f64;
        total / f64::from(reps)
    }

    /// Renders the profiler as one JSON object: per-phase histograms
    /// (with quantiles, the span count among them) and the event
    /// denominator.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"label\":\"{}\",\"events\":{},\"phases\":{{",
            json_escape(&self.label),
            self.events
        );
        let mut first = true;
        for p in Phase::ALL {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{}\":{{\"ns\":{}}}", p.label(), self.phase(p).to_json());
        }
        out.push_str("}}");
        out
    }
}

impl EngineObserver for PhaseProfiler {
    fn event_dispatched(&mut self, _event: EventId, _binding: &Binding, _monitors_touched: usize) {
        self.events = self.events.saturating_add(1);
    }

    fn phase_timed(&mut self, phase: Phase, nanos: u64) {
        self.spans[phase.index()].record(nanos);
    }
}

// ---------------------------------------------------------------------------
// SpanLog + Chrome trace-event export
// ---------------------------------------------------------------------------

/// One completed span on a timeline lane, in nanoseconds since the
/// owning [`SpanLog`]'s creation.
#[derive(Clone, Debug)]
pub struct TimelineSpan {
    /// Display name (a [`Phase`] label, or `gc:<kind>` for GC cycles).
    pub name: String,
    /// Chrome trace category: `"phase"` or `"gc"`.
    pub cat: &'static str,
    /// Span start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

/// Cap on spans a [`SpanLog`] retains; later spans are counted in
/// [`SpanLog::dropped`] instead (the timeline is then a prefix).
pub const MAX_TIMELINE_SPANS: usize = 1 << 18;

/// An [`EngineObserver`] that captures every timed phase span and GC
/// cycle as a `(start, duration)` interval on one timeline, for Chrome
/// trace-event export ([`chrome_trace_json`]). Each log is one lane
/// (`tid`) in the exported trace; each property block gets one log.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<TimelineSpan>,
    dropped: u64,
    /// Creation nanoseconds since the last disable-check span.
    creation_ns: u64,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log; its creation instant becomes the lane's time origin.
    #[must_use]
    pub fn new() -> SpanLog {
        SpanLog { epoch: Instant::now(), spans: Vec::new(), dropped: 0, creation_ns: 0 }
    }

    /// The captured spans, in completion order.
    #[must_use]
    pub fn spans(&self) -> &[TimelineSpan] {
        &self.spans
    }

    /// Spans discarded after the [`MAX_TIMELINE_SPANS`] cap was hit.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of captured spans whose name is `name`.
    #[must_use]
    pub fn count_named(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    fn push(&mut self, name: String, cat: &'static str, dur_ns: u64) {
        if self.spans.len() >= MAX_TIMELINE_SPANS {
            self.dropped += 1;
            return;
        }
        // The callback arrives at span *end*: anchor the start by
        // subtracting the duration from now.
        let now = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.spans.push(TimelineSpan { name, cat, start_ns: now.saturating_sub(dur_ns), dur_ns });
    }

    /// Records a span at an explicit offset, for offline timeline
    /// reconstruction (the flight recorder rebuilds lanes from a dump's
    /// stored timestamps rather than live `Instant`s). Spans with a
    /// `cat` other than `"phase"` render as `X` complete events in
    /// [`chrome_trace_json`]. Honors the [`MAX_TIMELINE_SPANS`] cap.
    pub fn record_at(&mut self, name: String, cat: &'static str, start_ns: u64, dur_ns: u64) {
        if self.spans.len() >= MAX_TIMELINE_SPANS {
            self.dropped += 1;
            return;
        }
        self.spans.push(TimelineSpan { name, cat, start_ns, dur_ns });
    }
}

impl EngineObserver for SpanLog {
    fn phase_timed(&mut self, phase: Phase, nanos: u64) {
        // A disable-check span reports its time without the creation spans
        // inside it; draw the enclosing interval, so that they nest in it.
        let wall = match phase {
            Phase::Creation => {
                self.creation_ns += nanos;
                nanos
            }
            Phase::DisableCheck => nanos + std::mem::take(&mut self.creation_ns),
            _ => nanos,
        };
        self.push(phase.label().to_owned(), "phase", wall);
    }

    fn gc_cycle(&mut self, record: &GcCycleRecord) {
        self.push(
            format!("gc:{} ({})", record.kind.label(), record.reason.label()),
            "gc",
            record.pause_ns,
        );
    }
}

/// Renders one or more [`SpanLog`] lanes as Chrome trace-event JSON
/// (loadable in Perfetto / `chrome://tracing`). Each lane becomes a
/// `tid` under `pid` 0, named by a thread-name metadata event; every
/// phase span becomes a balanced `B`/`E` duration pair with microsecond
/// timestamps, and every GC cycle becomes a single `X` complete event
/// (GC pauses overlap the phase span that timed them without nesting,
/// and `B`/`E` pairs on one `tid` must nest — `X` events need not).
/// Events are ordered so equal-timestamp pairs nest correctly: at a
/// tie, `E` events close before `B`/`X` events open, outer (longer)
/// spans open first, and inner (shorter) spans close first.
#[must_use]
pub fn chrome_trace_json(lanes: &[(String, &SpanLog)]) -> String {
    struct Ev<'a> {
        tid: usize,
        ts_ns: u64,
        /// Tiebreak class: 0 = E, 1 = B/X (E first at equal ts).
        open: bool,
        /// `X` complete event (GC cycle) instead of a `B`/`E` pair.
        complete: bool,
        /// Duration for nesting tiebreaks (and the `X` event `dur`).
        dur_ns: u64,
        name: &'a str,
        cat: &'a str,
    }
    let mut events: Vec<Ev<'_>> = Vec::new();
    for (tid, (_, log)) in lanes.iter().enumerate() {
        for s in log.spans() {
            // Anything that isn't a nesting phase span ("gc" cycles,
            // flight-recorder "mark" events) renders as a standalone
            // X complete event.
            if s.cat != "phase" {
                events.push(Ev {
                    tid,
                    ts_ns: s.start_ns,
                    open: true,
                    complete: true,
                    dur_ns: s.dur_ns,
                    name: &s.name,
                    cat: s.cat,
                });
                continue;
            }
            events.push(Ev {
                tid,
                ts_ns: s.start_ns,
                open: true,
                complete: false,
                dur_ns: s.dur_ns,
                name: &s.name,
                cat: s.cat,
            });
            events.push(Ev {
                tid,
                ts_ns: s.start_ns.saturating_add(s.dur_ns),
                open: false,
                complete: false,
                dur_ns: s.dur_ns,
                name: &s.name,
                cat: s.cat,
            });
        }
    }
    events.sort_by(|a, b| {
        a.ts_ns.cmp(&b.ts_ns).then_with(|| a.open.cmp(&b.open)).then_with(|| {
            if a.open {
                b.dur_ns.cmp(&a.dur_ns) // outer (longer) spans open first
            } else {
                a.dur_ns.cmp(&b.dur_ns) // inner (shorter) spans close first
            }
        })
    });
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (tid, (name, _)) in lanes.iter().enumerate() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        );
    }
    for e in &events {
        if !first {
            out.push(',');
        }
        first = false;
        if e.complete {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":0,\"tid\":{}}}",
                json_escape(e.name),
                e.cat,
                json_f64(e.ts_ns as f64 / 1000.0),
                json_f64(e.dur_ns as f64 / 1000.0),
                e.tid
            );
        } else {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":0,\"tid\":{}}}",
                json_escape(e.name),
                e.cat,
                if e.open { "B" } else { "E" },
                json_f64(e.ts_ns as f64 / 1000.0),
                e.tid
            );
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

// ---------------------------------------------------------------------------
// ProvenanceLedger
// ---------------------------------------------------------------------------

/// One flagging of a monitor instance, with its cause.
#[derive(Clone, Debug)]
pub struct FlagEvent {
    /// Engine event index when the flag happened.
    pub at_event: u64,
    /// The instance's last event (the `e` whose `ALIVENESS(e)` failed).
    pub last_event: EventId,
    /// The parameters that were dead at flag time.
    pub dead: ParamSet,
    /// Which rule flagged it.
    pub cause: FlagCause,
    /// The sweep (1-based ordinal) the flag happened under, if any —
    /// `None` means it was flagged inline on the hot path.
    pub sweep: Option<u64>,
}

/// The recorded life of one monitor instance.
#[derive(Clone, Debug)]
pub struct InstanceRecord {
    /// The engine-local monitor id (slots are reused after collection;
    /// the ledger keeps the full history anyway).
    pub id: MonitorId,
    /// The instance's parameter binding.
    pub binding: Binding,
    /// Engine event index at creation.
    pub created_at_event: u64,
    /// Every flagging, in order.
    pub flags: Vec<FlagEvent>,
    /// Engine event index at physical collection (`None` = still live).
    pub collected_at_event: Option<u64>,
    /// The sweep (1-based ordinal) that reclaimed it, if collection
    /// happened inside a safepoint sweep.
    pub collected_in_sweep: Option<u64>,
}

/// The Figure 10 row re-derived from per-instance records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProvenanceSummary {
    /// Events observed (E).
    pub events: u64,
    /// Monitor instances created (M).
    pub created: u64,
    /// Flag events across all instances (FM).
    pub flagged: u64,
    /// Instances physically collected (CM).
    pub collected: u64,
}

/// An [`EngineObserver`] recording per-monitor-instance lifecycle
/// causality, queryable by binding and summarizable as Figure 10's
/// E/M/FM/CM.
#[derive(Debug, Default)]
pub struct ProvenanceLedger {
    events: u64,
    sweeps: u64,
    in_sweep: bool,
    instances: Vec<InstanceRecord>,
    /// Live id → index into `instances` (ids are reused; the map always
    /// points at the *current* holder of the id).
    live: HashMap<MonitorId, usize>,
    names: Option<(Alphabet, EventDef)>,
}

impl ProvenanceLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> ProvenanceLedger {
        ProvenanceLedger::default()
    }

    /// Attaches naming context so stories print event and parameter names.
    #[must_use]
    pub fn with_names(mut self, alphabet: Alphabet, event_def: EventDef) -> ProvenanceLedger {
        self.names = Some((alphabet, event_def));
        self
    }

    /// All recorded instances, in creation order.
    #[must_use]
    pub fn instances(&self) -> &[InstanceRecord] {
        &self.instances
    }

    /// Re-derives E/M/FM/CM from the per-instance records. Matching
    /// [`EngineStats`] field-for-field is the accounting identity the
    /// `explain` tests assert.
    #[must_use]
    pub fn summary(&self) -> ProvenanceSummary {
        ProvenanceSummary {
            events: self.events,
            created: self.instances.len() as u64,
            flagged: self.instances.iter().map(|r| r.flags.len() as u64).sum(),
            collected: self.instances.iter().filter(|r| r.collected_at_event.is_some()).count()
                as u64,
        }
    }

    /// Records whose rendered binding contains `needle` (creation order).
    #[must_use]
    pub fn find(&self, needle: &str) -> Vec<&InstanceRecord> {
        let def = self.names.as_ref().map(|(_, d)| d);
        self.instances.iter().filter(|r| render_binding(&r.binding, def).contains(needle)).collect()
    }

    /// The full life story of one instance, one line per lifecycle step.
    #[must_use]
    pub fn story(&self, r: &InstanceRecord) -> String {
        let (alphabet, def) = self.names.as_ref().map(|(a, d)| (a, d)).unzip();
        let mut out = format!(
            "monitor #{} ⟨{}⟩\n  created   at event {}\n",
            r.id.as_usize(),
            render_binding(&r.binding, def),
            r.created_at_event
        );
        for f in &r.flags {
            let _ = write!(
                out,
                "  flagged   at event {} (cause: {}, dead: {{{}}}, after `{}`",
                f.at_event,
                f.cause.label(),
                render_params(f.dead, def),
                render_event(f.last_event, alphabet)
            );
            match f.sweep {
                Some(s) => {
                    let _ = writeln!(out, ", sweep #{s})");
                }
                None => out.push_str(")\n"),
            }
        }
        match r.collected_at_event {
            Some(at) => {
                let _ = write!(out, "  collected at event {at}");
                match r.collected_in_sweep {
                    Some(s) => {
                        let _ = writeln!(out, " (sweep #{s})");
                    }
                    None => out.push('\n'),
                }
            }
            None => out.push_str("  still live\n"),
        }
        out
    }
}

impl EngineObserver for ProvenanceLedger {
    fn event_dispatched(&mut self, _event: EventId, _binding: &Binding, _monitors_touched: usize) {
        self.events = self.events.saturating_add(1);
    }

    fn monitor_created(&mut self, id: MonitorId, binding: &Binding) {
        let idx = self.instances.len();
        self.instances.push(InstanceRecord {
            id,
            binding: *binding,
            created_at_event: self.events,
            flags: Vec::new(),
            collected_at_event: None,
            collected_in_sweep: None,
        });
        self.live.insert(id, idx);
    }

    fn monitor_flagged(
        &mut self,
        id: MonitorId,
        _binding: &Binding,
        last_event: EventId,
        dead: ParamSet,
        cause: FlagCause,
    ) {
        let sweep = if self.in_sweep { Some(self.sweeps) } else { None };
        if let Some(&idx) = self.live.get(&id) {
            self.instances[idx].flags.push(FlagEvent {
                at_event: self.events,
                last_event,
                dead,
                cause,
                sweep,
            });
        }
    }

    fn monitor_collected(&mut self, id: MonitorId) {
        if let Some(idx) = self.live.remove(&id) {
            self.instances[idx].collected_at_event = Some(self.events);
            if self.in_sweep {
                self.instances[idx].collected_in_sweep = Some(self.sweeps);
            }
        }
    }

    fn sweep_started(&mut self) {
        self.sweeps += 1;
        self.in_sweep = true;
    }

    fn sweep_finished(&mut self, _flagged: u64, _collected: u64) {
        self.in_sweep = false;
    }

    fn trigger_fired(&mut self, _step: usize, _binding: &Binding, _verdict: Verdict) {}
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

/// Renders the engine's [`EngineStats`], a merged [`MetricsRegistry`] and
/// per-property [`PhaseProfiler`]s — the one source of phase timings — in
/// the Prometheus text exposition format (`text/plain; version=0.0.4`).
/// Served by `rvmon serve`; also usable as a one-shot dump.
#[must_use]
pub fn prometheus_text(
    stats: &EngineStats,
    metrics: &MetricsRegistry,
    profilers: &[PhaseProfiler],
) -> String {
    let mut expo = Exposition::default();
    let counters: [(&str, &str, u64); 10] = [
        ("rvmon_events_total", "Events dispatched (Fig. 10 E)", stats.events),
        ("rvmon_monitors_created_total", "Monitor instances created (M)", stats.monitors_created),
        (
            "rvmon_monitors_flagged_total",
            "Monitors flagged unnecessary (FM)",
            stats.monitors_flagged,
        ),
        ("rvmon_monitors_collected_total", "Monitors reclaimed (CM)", stats.monitors_collected),
        ("rvmon_dead_keys_total", "Dead index keys discovered", stats.dead_keys),
        ("rvmon_triggers_total", "Goal verdicts reported", stats.triggers),
        ("rvmon_sweeps_total", "Safepoint sweeps", metrics.sweeps()),
        ("rvmon_budget_trips_total", "Resource budget violations", stats.budget_trips),
        ("rvmon_shed_total", "Monitor creations refused under pressure", stats.shed),
        ("rvmon_quarantined_total", "Monitors quarantined by handler panics", stats.quarantined),
    ];
    for (name, help, value) in counters {
        expo.family(name, help, Kind::Counter).sample(&[], value);
    }
    let mut f = expo.family(
        "rvmon_gc_cycles_total",
        "GC cycles by collector kind and reason",
        Kind::Counter,
    );
    for k in GcKind::ALL {
        for r in GcReason::ALL {
            f.sample(&[("kind", k.label()), ("reason", r.label())], metrics.gc_cycles(k, r));
        }
    }
    let mut f = expo.family(
        "rvmon_gc_scanned_total",
        "Objects/monitors examined by GC cycles",
        Kind::Counter,
    );
    for kind in GcKind::ALL {
        f.sample(&[("kind", kind.label())], metrics.gc_scanned(kind));
    }
    let mut f = expo.family(
        "rvmon_gc_reclaimed_total",
        "Objects/monitors reclaimed by GC cycles",
        Kind::Counter,
    );
    for kind in GcKind::ALL {
        f.sample(&[("kind", kind.label())], metrics.gc_reclaimed(kind));
    }
    expo.family(
        "rvmon_gc_debt",
        "Monitors created since the last sweep minus monitors it reclaimed",
        Kind::Gauge,
    )
    .sample(&[], metrics.gc_debt());
    let mut f =
        expo.family("rvmon_gc_pause_ns", "Stop-the-world GC pause durations (ns)", Kind::Histogram);
    for kind in GcKind::ALL {
        f.histogram(&[("kind", kind.label())], metrics.gc_pause(kind));
    }
    expo.family(
        "rvmon_event_latency_ns",
        "End-to-end per-event dispatch latency (ns)",
        Kind::Histogram,
    )
    .histogram(&[], metrics.event_latency_ns());
    let mut f = expo.family(
        "rvmon_phase_duration_ns",
        "Wall-clock nanoseconds per hot-path phase span",
        Kind::Histogram,
    );
    for prof in profilers {
        for p in Phase::ALL {
            f.histogram(&[("property", prof.label()), ("phase", p.label())], prof.phase(p));
        }
    }
    expo.family(
        "rvmon_profiler_self_overhead_ns",
        "Measured cost of one profiler span pair",
        Kind::Gauge,
    )
    .sample(&[], json_f64(PhaseProfiler::measure_self_overhead(4096)));
    expo.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_logic::ParamId;

    fn obj(bits: u64) -> rv_heap::ObjId {
        rv_heap::ObjId::from_bits(bits)
    }

    #[test]
    fn profiler_spans_count_and_merge() {
        let mut a = PhaseProfiler::new().with_label("UnsafeIter");
        a.phase_timed(Phase::IndexLookup, 100);
        a.phase_timed(Phase::Sweep, 2_000);
        assert_eq!(a.phase(Phase::IndexLookup).count(), 1);
        assert_eq!(a.phase(Phase::Sweep).count(), 1);

        let mut b = PhaseProfiler::new();
        b.phase_timed(Phase::IndexLookup, 50);
        b.phase_timed(Phase::Transition, 70);

        let mut merged = PhaseProfiler::new();
        merged.merge_from(&a);
        merged.merge_from(&b);
        assert_eq!(merged.label(), "UnsafeIter", "first non-empty label wins");
        assert_eq!(merged.phase(Phase::IndexLookup).count(), 2);
        assert_eq!(merged.phase(Phase::IndexLookup).sum(), 150);
        assert_eq!(merged.phase(Phase::Transition).count(), 1);
        assert_eq!(merged.phase(Phase::Sweep).max(), 2_000);
        let json = merged.to_json();
        assert!(json.contains("\"label\":\"UnsafeIter\""), "{json}");
        assert!(json.contains("\"index_lookup\":{\"ns\":{\"count\":2,"), "{json}");
    }

    #[test]
    fn self_overhead_is_finite_and_positive() {
        let ns = PhaseProfiler::measure_self_overhead(256);
        assert!(ns.is_finite() && ns >= 0.0, "{ns}");
    }

    #[test]
    fn ledger_reconstructs_a_life_story() {
        let mut ledger = ProvenanceLedger::new();
        let b = Binding::from_pairs(&[(ParamId(0), obj(5))]);
        ledger.event_dispatched(EventId(0), &b, 0);
        ledger.monitor_created(MonitorId::from_raw(0), &b);
        ledger.event_dispatched(EventId(1), &b, 1);
        ledger.sweep_started();
        ledger.monitor_flagged(
            MonitorId::from_raw(0),
            &b,
            EventId(1),
            ParamSet::EMPTY.with(ParamId(0)),
            FlagCause::Aliveness,
        );
        ledger.monitor_collected(MonitorId::from_raw(0));
        ledger.sweep_finished(1, 1);
        let s = ledger.summary();
        assert_eq!(s, ProvenanceSummary { events: 2, created: 1, flagged: 1, collected: 1 });
        let hits = ledger.find("x0=");
        assert_eq!(hits.len(), 1);
        let story = ledger.story(hits[0]);
        assert!(story.contains("created   at event 1"), "{story}");
        assert!(story.contains("cause: aliveness"), "{story}");
        assert!(story.contains("sweep #1"), "{story}");
        assert!(story.contains("collected at event 2"), "{story}");
    }

    #[test]
    fn ledger_survives_monitor_id_reuse() {
        let mut ledger = ProvenanceLedger::new();
        let b1 = Binding::from_pairs(&[(ParamId(0), obj(1))]);
        let b2 = Binding::from_pairs(&[(ParamId(0), obj(2))]);
        ledger.monitor_created(MonitorId::from_raw(0), &b1);
        ledger.monitor_collected(MonitorId::from_raw(0));
        ledger.monitor_created(MonitorId::from_raw(0), &b2); // slot reused
        ledger.monitor_flagged(
            MonitorId::from_raw(0),
            &b2,
            EventId(0),
            ParamSet::EMPTY,
            FlagCause::AllParamsDead,
        );
        assert_eq!(ledger.instances().len(), 2);
        assert!(ledger.instances()[0].flags.is_empty(), "first holder untouched by reuse");
        assert_eq!(ledger.instances()[1].flags.len(), 1);
        let s = ledger.summary();
        assert_eq!(s.created, 2);
        assert_eq!(s.collected, 1);
    }

    #[test]
    fn prometheus_text_renders_counters_and_cumulative_buckets() {
        let m = MetricsRegistry::new();
        let stats = EngineStats { events: 1, ..EngineStats::default() };
        let mut prof = PhaseProfiler::new().with_label("HasNext");
        prof.phase_timed(Phase::IndexLookup, 3);
        prof.phase_timed(Phase::IndexLookup, 100);
        prof.phase_timed(Phase::Transition, 10);
        let text = prometheus_text(&stats, &m, &[prof]);
        assert!(text.contains("rvmon_events_total 1"), "{text}");
        let series = |phase: &str| format!("{{property=\"HasNext\",phase=\"{phase}\"");
        assert!(
            text.contains(&format!(
                "rvmon_phase_duration_ns_bucket{},le=\"+Inf\"}} 2",
                series("index_lookup")
            )),
            "{text}"
        );
        assert!(
            text.contains(&format!("rvmon_phase_duration_ns_count{}}} 2", series("index_lookup"))),
            "{text}"
        );
        assert!(
            text.contains(&format!("rvmon_phase_duration_ns_count{}}} 1", series("transition"))),
            "{text}"
        );
        assert!(!text.contains("rvmon_profile_"), "one phase family, not two: {text}");
        assert!(text.contains("rvmon_profiler_self_overhead_ns "), "{text}");
        // Buckets are cumulative: the le=4 bucket already includes the
        // le=1..4 samples, and +Inf equals the total count.
        let le_4 = format!("rvmon_phase_duration_ns_bucket{},le=\"4\"}}", series("index_lookup"));
        let bucket_4 = text.lines().find(|l| l.starts_with(&le_4)).expect("le=4 bucket present");
        assert!(bucket_4.ends_with(" 1"), "{bucket_4}");
    }

    /// Label values are attacker-ish input (property names come from
    /// user specs) — backslashes, quotes, and newlines must be escaped
    /// per the exposition format, backslash first so later escapes are
    /// not double-escaped.
    #[test]
    fn prometheus_label_values_are_escaped() {
        let m = MetricsRegistry::new();
        let mut prof = PhaseProfiler::new().with_label("Evil\\Prop\"v1\"\nrest");
        prof.phase_timed(Phase::Sweep, 10);
        let text = prometheus_text(&EngineStats::default(), &m, &[prof]);
        let label_line = text
            .lines()
            .find(|l| l.starts_with("rvmon_phase_duration_ns_count{"))
            .expect("phase histogram rendered");
        assert!(label_line.contains("property=\"Evil\\\\Prop\\\"v1\\\"\\nrest\""), "{label_line}");
        assert!(!text.contains("v1\"\n"), "no raw newline survives inside a label value");
        crate::expo::lint::lint_exposition(&text);
    }

    #[test]
    fn prometheus_text_renders_gc_and_latency_series() {
        let mut m = MetricsRegistry::new();
        m.gc_cycle(&GcCycleRecord {
            kind: GcKind::MonitorSweep,
            reason: GcReason::Forced,
            end_ns: 5_000,
            pause_ns: 700,
            scanned: 12,
            reclaimed: 3,
            flagged: 1,
            occupancy_before: 12,
            occupancy_after: 9,
        });
        m.event_latency(1234);
        let text = prometheus_text(&EngineStats::default(), &m, &[]);
        assert!(
            text.contains("rvmon_gc_cycles_total{kind=\"monitor_sweep\",reason=\"forced\"} 1"),
            "{text}"
        );
        assert!(text.contains("rvmon_gc_cycles_total{kind=\"heap\",reason=\"periodic\"} 0"));
        assert!(text.contains("rvmon_gc_scanned_total{kind=\"monitor_sweep\"} 12"), "{text}");
        assert!(text.contains("rvmon_gc_reclaimed_total{kind=\"monitor_sweep\"} 3"), "{text}");
        assert!(text.contains("rvmon_gc_debt 0"), "{text}");
        assert!(
            text.contains("rvmon_gc_pause_ns_bucket{kind=\"monitor_sweep\",le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(text.contains("rvmon_event_latency_ns_bucket{le=\"+Inf\"} 1"), "{text}");
        assert!(text.contains("rvmon_event_latency_ns_sum 1234"), "{text}");
        assert!(text.contains("rvmon_event_latency_ns_count 1"), "{text}");
        crate::expo::lint::lint_exposition(&text);
        assert!(text.contains("# TYPE rvmon_gc_debt gauge\n"), "{text}");
    }

    #[test]
    fn span_log_draws_the_disable_check_around_its_creations() {
        let mut log = SpanLog::new();
        log.phase_timed(Phase::Creation, 300);
        log.phase_timed(Phase::Creation, 200);
        log.phase_timed(Phase::DisableCheck, 40);
        log.phase_timed(Phase::DisableCheck, 60);
        let durations: Vec<u64> = log.spans().iter().map(|s| s.dur_ns).collect();
        assert_eq!(durations, [300, 200, 540, 60], "creations add back to their own span only");
    }

    #[test]
    fn span_log_exports_a_balanced_chrome_trace() {
        let mut log = SpanLog::new();
        log.phase_timed(Phase::IndexLookup, 1_000);
        log.phase_timed(Phase::Transition, 2_000);
        log.phase_timed(Phase::Sweep, 500);
        log.gc_cycle(&GcCycleRecord {
            kind: GcKind::MonitorSweep,
            reason: GcReason::Forced,
            end_ns: 9_000,
            pause_ns: 500,
            scanned: 1,
            reclaimed: 1,
            flagged: 0,
            occupancy_before: 1,
            occupancy_after: 0,
        });
        assert_eq!(log.spans().len(), 4);
        assert_eq!(log.count_named("index_lookup"), 1);
        assert_eq!(log.count_named("gc:monitor_sweep (forced)"), 1);

        let mut other = SpanLog::new();
        other.phase_timed(Phase::Aliveness, 100);
        let json = chrome_trace_json(&[("main".to_owned(), &log), ("block2".to_owned(), &other)]);
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"ph\":\"M\""), "lane metadata present: {json}");
        assert!(json.contains("\"args\":{\"name\":\"block2\"}"), "{json}");

        // GC cycles export as single `X` complete events (they overlap
        // the sweep phase span without nesting); phases as B/E pairs.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 1, "{json}");
        assert!(
            json.contains("\"name\":\"gc:monitor_sweep (forced)\",\"cat\":\"gc\",\"ph\":\"X\""),
            "{json}"
        );
        assert!(json.contains("\"dur\":0.5"), "X events carry their duration: {json}");

        // Balanced B/E pairs per lane, with monotone timestamps.
        for tid in 0..2 {
            let mut depth = 0i64;
            let mut last_ts = f64::MIN;
            let mut pairs = 0;
            for chunk in json.split("},{") {
                if !chunk.contains(&format!("\"tid\":{tid}")) || chunk.contains("\"ph\":\"M\"") {
                    continue;
                }
                let ts: f64 = chunk
                    .split("\"ts\":")
                    .nth(1)
                    .and_then(|r| r.split(',').next())
                    .and_then(|v| v.parse().ok())
                    .expect("ts field");
                assert!(ts >= last_ts, "timestamps monotone within lane {tid}: {json}");
                last_ts = ts;
                if chunk.contains("\"ph\":\"B\"") {
                    depth += 1;
                    pairs += 1;
                } else if chunk.contains("\"ph\":\"E\"") {
                    depth -= 1;
                    assert!(depth >= 0, "E before matching B in lane {tid}");
                }
            }
            assert_eq!(depth, 0, "unbalanced spans in lane {tid}");
            let expected = if tid == 0 { 3 } else { 1 };
            assert_eq!(pairs, expected, "one B per captured phase span in lane {tid}");
        }
    }

    #[test]
    fn span_log_is_bounded() {
        let mut log = SpanLog::new();
        for _ in 0..(MAX_TIMELINE_SPANS + 10) {
            log.phase_timed(Phase::IndexLookup, 1);
        }
        assert_eq!(log.spans().len(), MAX_TIMELINE_SPANS);
        assert_eq!(log.dropped(), 10);
    }
}
