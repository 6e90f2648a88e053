//! Wire-to-trigger request tracing and the post-mortem flight recorder
//! for `rvmond`.
//!
//! Every line a tenant ingests carries a daemon-assigned trace context
//! (tenant, session, client sequence) and flows through the timed
//! [`Stage`] pipeline: wire read → admission → queue wait → engine →
//! journal append → journal fsync → trigger delivery. The per-stage
//! durations land in two per-tenant sinks, both bounded:
//!
//! * [`StageStats`] — one power-of-two [`Histogram`] per stage, the
//!   source of the `rvmond_stage_*` Prometheus series and the
//!   `"stages"` object in STATS replies (what `loadgen --json` and
//!   `rvmonctl slo` read);
//! * [`RequestTraceRing`] — the most recent full [`RequestTrace`]s plus
//!   *exemplar capture*: the k slowest requests keep their complete
//!   per-stage breakdowns, so a post-mortem can show exactly where the
//!   worst request's microseconds went.
//!
//! The [`FlightRecorder`] is the daemon's always-on black box: a
//! bounded ring of notable moments (GC cycles, REJECTs, supervised
//! restarts, reload cutovers, tenant state changes). On tenant failure,
//! circuit-break, or SIGQUIT the daemon serializes the recorder plus
//! the affected tenants' trace rings into a versioned `RVFR 1` dump
//! file — line-oriented text, written with [`render_dump`], read back
//! by [`FlightDump::parse`], rendered for humans by
//! [`FlightDump::render_text`] and for Perfetto by
//! [`FlightDump::chrome_trace`] (lanes = tenants, stage spans as B/E
//! pairs, GC cycles and restarts as X events).

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::time::Instant;

use crate::obs::{json_escape, json_f64, Histogram};
use crate::profile::{chrome_trace_json, SpanLog};

// ---------------------------------------------------------------------------
// Stages
// ---------------------------------------------------------------------------

/// One timed hop of a request's life, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Blocking read + CRC check of the frame off the socket.
    WireRead,
    /// Tenant/connection caps, dedup bookkeeping, queue handoff.
    Admission,
    /// Sitting in the tenant's bounded ingest queue.
    QueueWait,
    /// The parametric engine's slice-and-dispatch work.
    Engine,
    /// Appending event/aux records to the tenant journal.
    JournalAppend,
    /// fsync at a durability barrier (attributed to the SYNC that paid
    /// it; per-event traces read 0 here between barriers).
    JournalFsync,
    /// Journaling fired triggers and publishing them to the poll log.
    TriggerDelivery,
}

/// Number of [`Stage`]s.
pub const STAGE_COUNT: usize = 7;

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::WireRead,
        Stage::Admission,
        Stage::QueueWait,
        Stage::Engine,
        Stage::JournalAppend,
        Stage::JournalFsync,
        Stage::TriggerDelivery,
    ];

    /// Stable snake_case name (metric label, dump token, JSON key).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Stage::WireRead => "wire_read",
            Stage::Admission => "admission",
            Stage::QueueWait => "queue_wait",
            Stage::Engine => "engine",
            Stage::JournalAppend => "journal_append",
            Stage::JournalFsync => "journal_fsync",
            Stage::TriggerDelivery => "trigger_delivery",
        }
    }

    /// Index into `[T; STAGE_COUNT]` stage arrays.
    #[must_use]
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Inverse of [`Stage::label`].
    #[must_use]
    pub fn from_label(s: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|st| st.label() == s)
    }
}

// ---------------------------------------------------------------------------
// RequestTrace + ring
// ---------------------------------------------------------------------------

/// One request's full per-stage breakdown.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestTrace {
    /// Client session id of the `EVENT_SEQ` line.
    pub session: u64,
    /// Client sequence of the line within its session.
    pub cseq: u64,
    /// Daemon-assigned tenant event sequence.
    pub seq: u64,
    /// Completion time, nanoseconds since the recorder epoch.
    pub at_ns: u64,
    /// Nanoseconds spent per stage, indexed by [`Stage::idx`].
    pub stages: [u64; STAGE_COUNT],
}

impl RequestTrace {
    /// Sum of all stage durations.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.stages.iter().fold(0u64, |a, &d| a.saturating_add(d))
    }
}

/// Recent request traces each rvmond tenant retains.
pub const TRACE_RING: usize = 256;
/// Slowest-request exemplars each rvmond tenant retains.
pub const TRACE_EXEMPLARS: usize = 8;

/// Bounded per-tenant trace sink: a ring of the most recent traces plus
/// the k slowest ever seen (exemplars), each with full stage
/// breakdowns.
#[derive(Clone, Debug)]
pub struct RequestTraceRing {
    cap: usize,
    k: usize,
    recent: VecDeque<RequestTrace>,
    /// Sorted by `total_ns` descending; at most `k` entries.
    slowest: Vec<RequestTrace>,
    recorded: u64,
}

impl RequestTraceRing {
    /// A ring keeping `cap` recent traces and `k` slowest exemplars.
    #[must_use]
    pub fn new(cap: usize, k: usize) -> RequestTraceRing {
        RequestTraceRing { cap, k, recent: VecDeque::new(), slowest: Vec::new(), recorded: 0 }
    }

    /// Records one completed trace.
    pub fn push(&mut self, t: RequestTrace) {
        self.recorded += 1;
        if self.recent.len() == self.cap {
            self.recent.pop_front();
        }
        self.recent.push_back(t);
        if self.k == 0 {
            return;
        }
        if self.slowest.len() < self.k {
            self.slowest.push(t);
            self.slowest.sort_by_key(|s| std::cmp::Reverse(s.total_ns()));
        } else if let Some(last) = self.slowest.last() {
            if t.total_ns() > last.total_ns() {
                self.slowest.pop();
                let at = self.slowest.partition_point(|s| s.total_ns() >= t.total_ns());
                self.slowest.insert(at, t);
            }
        }
    }

    /// The most recent traces, oldest first.
    pub fn recent(&self) -> impl Iterator<Item = &RequestTrace> {
        self.recent.iter()
    }

    /// The k slowest traces, slowest first.
    #[must_use]
    pub fn slowest(&self) -> &[RequestTrace] {
        &self.slowest
    }

    /// Lifetime count of traces pushed.
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded
    }
}

// ---------------------------------------------------------------------------
// StageStats
// ---------------------------------------------------------------------------

/// Per-stage latency histograms for one tenant (nanosecond samples).
#[derive(Clone, Debug, Default)]
pub struct StageStats {
    hists: [Histogram; STAGE_COUNT],
}

impl StageStats {
    /// Records `ns` into `stage`'s histogram.
    pub fn record(&mut self, stage: Stage, ns: u64) {
        self.hists[stage.idx()].record(ns);
    }

    /// Records every non-zero stage of a completed trace.
    pub fn record_trace(&mut self, t: &RequestTrace) {
        for s in Stage::ALL {
            let ns = t.stages[s.idx()];
            if ns > 0 || matches!(s, Stage::Engine) {
                // Engine is recorded even at 0 so sample counts track
                // processed lines; the other stages only record real
                // spans (fsync happens at barriers, not per event).
                self.hists[s.idx()].record(ns);
            }
        }
    }

    /// The histogram for one stage.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> &Histogram {
        &self.hists[stage.idx()]
    }

    /// Renders flat per-stage percentiles in microseconds:
    /// `<stage>_count`, `<stage>_p50_us`, `<stage>_p90_us`,
    /// `<stage>_p99_us`, `<stage>_max_us`, `<stage>_sum_us`. Flat keys
    /// keep shallow consumers parser-free.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, s) in Stage::ALL.into_iter().enumerate() {
            let h = &self.hists[s.idx()];
            let l = s.label();
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{l}_count\":{},\"{l}_p50_us\":{},\"{l}_p90_us\":{},\"{l}_p99_us\":{},\
                 \"{l}_max_us\":{},\"{l}_sum_us\":{}",
                h.count(),
                json_f64(h.quantile(0.50) / 1000.0),
                json_f64(h.quantile(0.90) / 1000.0),
                json_f64(h.quantile(0.99) / 1000.0),
                json_f64(to_us(h.max())),
                json_f64(to_us(h.sum())),
            );
        }
        out.push('}');
        out
    }
}

#[allow(clippy::cast_precision_loss)]
fn to_us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

/// What kind of notable moment a [`FlightEvent`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightKind {
    /// A heap/monitor GC cycle (duration = pause).
    GcCycle,
    /// An admission or protocol REJECT (detail leads with the code).
    Reject,
    /// A supervised tenant restart.
    Restart,
    /// A hot spec reload cutover.
    Reload,
    /// A tenant state change (running → failed, circuit-break, drain).
    State,
}

impl FlightKind {
    /// Stable dump token.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FlightKind::GcCycle => "gc_cycle",
            FlightKind::Reject => "reject",
            FlightKind::Restart => "restart",
            FlightKind::Reload => "reload",
            FlightKind::State => "state",
        }
    }

    /// Inverse of [`FlightKind::label`].
    #[must_use]
    pub fn from_label(s: &str) -> Option<FlightKind> {
        [
            FlightKind::GcCycle,
            FlightKind::Reject,
            FlightKind::Restart,
            FlightKind::Reload,
            FlightKind::State,
        ]
        .into_iter()
        .find(|k| k.label() == s)
    }
}

/// One black-box entry.
#[derive(Clone, Debug)]
pub struct FlightEvent {
    /// Nanoseconds since the recorder's epoch.
    pub at_ns: u64,
    /// Owning tenant (whitespace-sanitized on dump).
    pub tenant: String,
    /// Event class.
    pub kind: FlightKind,
    /// Duration where meaningful (GC pause, restart downtime), else 0.
    pub dur_ns: u64,
    /// Free-form detail (REJECT code + message, state labels, …).
    pub detail: String,
}

/// Default bound on retained flight events.
pub const FLIGHT_CAP: usize = 4096;

/// The daemon-wide always-on black box. All methods are O(1); callers
/// wrap it in a `Mutex` and touch it only on cold paths (GC cycles,
/// rejects, restarts — never per event).
#[derive(Debug)]
pub struct FlightRecorder {
    epoch: Instant,
    cap: usize,
    events: VecDeque<FlightEvent>,
    dropped: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(FLIGHT_CAP)
    }
}

impl FlightRecorder {
    /// An empty recorder retaining at most `cap` events (oldest evicted
    /// first — a black box keeps the *recent* past).
    #[must_use]
    pub fn new(cap: usize) -> FlightRecorder {
        FlightRecorder::with_epoch(cap, Instant::now())
    }

    /// Like [`FlightRecorder::new`] with an explicit time origin, so the
    /// daemon can put its black box and every tenant's trace ring on one
    /// shared timeline.
    #[must_use]
    pub fn with_epoch(cap: usize, epoch: Instant) -> FlightRecorder {
        FlightRecorder { epoch, cap: cap.max(1), events: VecDeque::new(), dropped: 0 }
    }

    /// Nanoseconds since the recorder's epoch (the dump time origin).
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records one event stamped now.
    pub fn note(&mut self, tenant: &str, kind: FlightKind, dur_ns: u64, detail: impl Into<String>) {
        let detail = detail.into();
        let at_ns = self.now_ns();
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(FlightEvent {
            at_ns,
            tenant: tenant.to_owned(),
            kind,
            dur_ns,
            detail,
        });
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.events.iter()
    }

    /// Events evicted past the cap.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

// ---------------------------------------------------------------------------
// Dump format (RVFR 1)
// ---------------------------------------------------------------------------

fn sanitize(s: &str) -> String {
    s.chars().map(|c| if c.is_whitespace() { '_' } else { c }).collect()
}

/// Serializes a dump: the `RVFR 1` magic line, one `meta` line of
/// `key=value` pairs (`reason` first), one `ev` line per flight event,
/// and one `trace` line per `(tenant, trace)` pair — recent traces plus
/// slowest exemplars, as the caller collected them.
#[must_use]
pub fn render_dump(
    reason: &str,
    meta: &[(String, String)],
    events: &[FlightEvent],
    traces: &[(String, RequestTrace)],
) -> String {
    let mut out = String::from("RVFR 1\n");
    let _ = write!(out, "meta reason={}", sanitize(reason));
    for (k, v) in meta {
        let _ = write!(out, " {}={}", sanitize(k), sanitize(v));
    }
    out.push('\n');
    for e in events {
        let _ = writeln!(
            out,
            "ev {} {} {} {} {}",
            e.at_ns,
            sanitize(&e.tenant),
            e.kind.label(),
            e.dur_ns,
            e.detail
        );
    }
    for (tenant, t) in traces {
        let _ = write!(
            out,
            "trace {} {} {} {} {}",
            sanitize(tenant),
            t.session,
            t.cseq,
            t.seq,
            t.at_ns
        );
        for s in Stage::ALL {
            let _ = write!(out, " {}={}", s.label(), t.stages[s.idx()]);
        }
        out.push('\n');
    }
    out
}

/// A parsed `RVFR 1` dump.
#[derive(Clone, Debug, Default)]
pub struct FlightDump {
    /// Why the dump was written (`failed`, `circuit_break`, `sigquit`).
    pub reason: String,
    /// Remaining `meta` pairs (version, commit, uptime, tenant count).
    pub meta: Vec<(String, String)>,
    /// Black-box events, oldest first.
    pub events: Vec<FlightEvent>,
    /// `(tenant, trace)` pairs, in dump order.
    pub traces: Vec<(String, RequestTrace)>,
}

impl FlightDump {
    /// Parses the output of [`render_dump`].
    ///
    /// # Errors
    ///
    /// A missing/foreign magic line, or any malformed record line.
    pub fn parse(text: &str) -> Result<FlightDump, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some("RVFR 1") => {}
            Some(other) => return Err(format!("not an RVFR 1 dump (got {other:?})")),
            None => return Err("empty dump".to_owned()),
        }
        let mut dump = FlightDump::default();
        for (no, line) in lines.enumerate() {
            let lineno = no + 2;
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let (tag, rest) =
                line.split_once(' ').ok_or_else(|| format!("line {lineno}: bare tag"))?;
            match tag {
                "meta" => {
                    for pair in rest.split(' ').filter(|p| !p.is_empty()) {
                        let (k, v) = pair
                            .split_once('=')
                            .ok_or_else(|| format!("line {lineno}: meta pair {pair:?}"))?;
                        if k == "reason" {
                            dump.reason = v.to_owned();
                        } else {
                            dump.meta.push((k.to_owned(), v.to_owned()));
                        }
                    }
                }
                "ev" => {
                    let mut it = rest.splitn(5, ' ');
                    let at_ns = parse_field(it.next(), lineno, "at_ns")?;
                    let tenant = it
                        .next()
                        .ok_or_else(|| format!("line {lineno}: ev missing tenant"))?
                        .to_owned();
                    let kind = it
                        .next()
                        .and_then(FlightKind::from_label)
                        .ok_or_else(|| format!("line {lineno}: ev bad kind"))?;
                    let dur_ns = parse_field(it.next(), lineno, "dur_ns")?;
                    let detail = it.next().unwrap_or("").to_owned();
                    dump.events.push(FlightEvent { at_ns, tenant, kind, dur_ns, detail });
                }
                "trace" => {
                    let mut it = rest.split(' ').filter(|p| !p.is_empty());
                    let tenant = it
                        .next()
                        .ok_or_else(|| format!("line {lineno}: trace missing tenant"))?
                        .to_owned();
                    let mut t = RequestTrace {
                        session: parse_field(it.next(), lineno, "session")?,
                        cseq: parse_field(it.next(), lineno, "cseq")?,
                        seq: parse_field(it.next(), lineno, "seq")?,
                        at_ns: parse_field(it.next(), lineno, "at_ns")?,
                        stages: [0; STAGE_COUNT],
                    };
                    for pair in it {
                        let (k, v) = pair
                            .split_once('=')
                            .ok_or_else(|| format!("line {lineno}: stage pair {pair:?}"))?;
                        let stage = Stage::from_label(k)
                            .ok_or_else(|| format!("line {lineno}: unknown stage {k:?}"))?;
                        t.stages[stage.idx()] =
                            v.parse().map_err(|e| format!("line {lineno}: {k}: {e}"))?;
                    }
                    dump.traces.push((tenant, t));
                }
                other => return Err(format!("line {lineno}: unknown tag {other:?}")),
            }
        }
        Ok(dump)
    }

    /// Looks up a meta value.
    #[must_use]
    pub fn meta_value(&self, key: &str) -> Option<&str> {
        self.meta.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Human rendering for `rvmon flight`: the header, the black-box
    /// events, then every trace with its full stage breakdown (slowest
    /// traces are tagged by the dumper's ordering, which puts exemplars
    /// after the recent window).
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "flight dump: reason={}", self.reason);
        for (k, v) in &self.meta {
            let _ = writeln!(out, "  {k}={v}");
        }
        let _ = writeln!(out, "events: {}", self.events.len());
        for e in &self.events {
            let _ = writeln!(
                out,
                "  [{:>12.3} ms] {:<12} {:<8} dur={:.1}us {}",
                to_ms(e.at_ns),
                e.tenant,
                e.kind.label(),
                to_us(e.dur_ns),
                e.detail
            );
        }
        let _ = writeln!(out, "traces: {}", self.traces.len());
        for (tenant, t) in &self.traces {
            let _ = writeln!(
                out,
                "  tenant={} session={} cseq={} seq={} total={:.1}us",
                tenant,
                t.session,
                t.cseq,
                t.seq,
                to_us(t.total_ns())
            );
            let mut parts = Vec::with_capacity(STAGE_COUNT);
            for s in Stage::ALL {
                parts.push(format!("{}={}ns", s.label(), t.stages[s.idx()]));
            }
            let _ = writeln!(out, "    {}", parts.join(" | "));
        }
        out
    }

    /// Chrome trace-event JSON for `rvmon timeline --daemon`: one lane
    /// per tenant; each trace's stages laid back-to-back ending at its
    /// completion time as balanced B/E pairs, GC cycles and
    /// restarts/reloads/state-changes as X complete events.
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        let mut names: Vec<&str> = self
            .traces
            .iter()
            .map(|(t, _)| t.as_str())
            .chain(self.events.iter().map(|e| e.tenant.as_str()))
            .collect();
        names.sort_unstable();
        names.dedup();
        let mut logs: Vec<(String, SpanLog)> =
            names.iter().map(|n| ((*n).to_owned(), SpanLog::new())).collect();
        let lane_of = |logs: &mut Vec<(String, SpanLog)>, name: &str| -> usize {
            logs.iter().position(|(n, _)| n == name).unwrap_or(0)
        };
        for e in &self.events {
            let i = lane_of(&mut logs, &e.tenant);
            let cat = if e.kind == FlightKind::GcCycle { "gc" } else { "mark" };
            let name = if e.detail.is_empty() {
                e.kind.label().to_owned()
            } else {
                format!("{}: {}", e.kind.label(), e.detail)
            };
            logs[i].1.record_at(name, cat, e.at_ns, e.dur_ns);
        }
        for (tenant, t) in &self.traces {
            let i = lane_of(&mut logs, tenant);
            let mut end = t.at_ns;
            for s in Stage::ALL.into_iter().rev() {
                let dur = t.stages[s.idx()];
                if dur == 0 {
                    continue;
                }
                let start = end.saturating_sub(dur);
                logs[i].1.record_at(s.label().to_owned(), "phase", start, dur);
                end = start;
            }
        }
        let lanes: Vec<(String, &SpanLog)> = logs.iter().map(|(n, l)| (n.clone(), l)).collect();
        chrome_trace_json(&lanes)
    }

    /// Summary JSON (used by tests and tooling sanity checks).
    #[must_use]
    pub fn to_json_summary(&self) -> String {
        format!(
            "{{\"reason\":\"{}\",\"events\":{},\"traces\":{}}}",
            json_escape(&self.reason),
            self.events.len(),
            self.traces.len()
        )
    }
}

#[allow(clippy::cast_precision_loss)]
fn to_ms(ns: u64) -> f64 {
    ns as f64 / 1_000_000.0
}

fn parse_field<T: std::str::FromStr>(
    field: Option<&str>,
    lineno: usize,
    name: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    field
        .ok_or_else(|| format!("line {lineno}: missing {name}"))?
        .parse()
        .map_err(|e| format!("line {lineno}: {name}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(seq: u64, engine_ns: u64) -> RequestTrace {
        let mut t = RequestTrace {
            session: 1,
            cseq: seq,
            seq,
            at_ns: seq * 1000,
            ..RequestTrace::default()
        };
        t.stages[Stage::Engine.idx()] = engine_ns;
        t.stages[Stage::JournalAppend.idx()] = 10;
        t
    }

    #[test]
    fn stage_labels_round_trip() {
        for s in Stage::ALL {
            assert_eq!(Stage::from_label(s.label()), Some(s));
        }
        assert_eq!(Stage::from_label("nope"), None);
        assert_eq!(Stage::ALL.len(), STAGE_COUNT);
    }

    #[test]
    fn ring_keeps_recent_window_and_slowest_exemplars() {
        let mut r = RequestTraceRing::new(4, 2);
        for i in 0..10 {
            // seq 3 and 7 are the slow ones.
            let slow = if i == 3 || i == 7 { 1_000_000 + i } else { 100 };
            r.push(trace(i, slow));
        }
        assert_eq!(r.recorded(), 10);
        let recent: Vec<u64> = r.recent().map(|t| t.seq).collect();
        assert_eq!(recent, vec![6, 7, 8, 9], "ring holds the last 4");
        let slow: Vec<u64> = r.slowest().iter().map(|t| t.seq).collect();
        assert_eq!(slow, vec![7, 3], "exemplars survive eviction, slowest first");
    }

    #[test]
    fn stage_stats_records_and_renders_flat_json() {
        let mut s = StageStats::default();
        s.record(Stage::QueueWait, 2_000);
        s.record_trace(&trace(1, 3_000));
        assert_eq!(s.stage(Stage::QueueWait).count(), 1);
        assert_eq!(s.stage(Stage::Engine).count(), 1);
        assert_eq!(s.stage(Stage::JournalFsync).count(), 0, "zero stages skip recording");
        let j = s.to_json();
        for stage in Stage::ALL {
            for suffix in ["count", "p50_us", "p90_us", "p99_us", "max_us", "sum_us"] {
                let key = format!("\"{}_{suffix}\":", stage.label());
                assert!(j.contains(&key), "missing {key} in {j}");
            }
        }
    }

    #[test]
    fn recorder_is_bounded_and_monotonic() {
        let mut f = FlightRecorder::new(3);
        for i in 0..5 {
            f.note("t", FlightKind::Reject, 0, format!("429 {i}"));
        }
        assert_eq!(f.dropped(), 2);
        let details: Vec<&str> = f.events().map(|e| e.detail.as_str()).collect();
        assert_eq!(details, vec!["429 2", "429 3", "429 4"]);
        let times: Vec<u64> = f.events().map(|e| e.at_ns).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn dump_round_trips_through_parse() {
        let mut f = FlightRecorder::new(16);
        f.note("good", FlightKind::GcCycle, 4_500, "minor live=12".to_owned());
        f.note("bad tenant", FlightKind::State, 0, "running -> failed: panic".to_owned());
        let events: Vec<FlightEvent> = f.events().cloned().collect();
        let traces = vec![("bad tenant".to_owned(), trace(42, 9_000))];
        let meta = vec![
            ("version".to_owned(), "0.1.0".to_owned()),
            ("uptime_s".to_owned(), "12".to_owned()),
        ];
        let text = render_dump("circuit break", &meta, &events, &traces);
        assert!(text.starts_with("RVFR 1\n"));
        let dump = FlightDump::parse(&text).unwrap();
        assert_eq!(dump.reason, "circuit_break", "reason whitespace is sanitized");
        assert_eq!(dump.meta_value("version"), Some("0.1.0"));
        assert_eq!(dump.meta_value("uptime_s"), Some("12"));
        assert_eq!(dump.events.len(), 2);
        assert_eq!(dump.events[0].kind, FlightKind::GcCycle);
        assert_eq!(dump.events[0].dur_ns, 4_500);
        assert_eq!(dump.events[1].detail, "running -> failed: panic");
        assert_eq!(dump.events[1].tenant, "bad_tenant");
        assert_eq!(dump.traces.len(), 1);
        let (tenant, t) = &dump.traces[0];
        assert_eq!(tenant, "bad_tenant");
        assert_eq!(t.cseq, 42);
        assert_eq!(t.stages[Stage::Engine.idx()], 9_000);
        assert_eq!(t.stages[Stage::JournalAppend.idx()], 10);
    }

    #[test]
    fn parse_rejects_malformed_dumps() {
        assert!(FlightDump::parse("").is_err());
        assert!(FlightDump::parse("RVJL 1\n").is_err());
        assert!(FlightDump::parse("RVFR 1\nbogus line here\n").is_err());
        assert!(FlightDump::parse("RVFR 1\nev notanumber t reject 0 x\n").is_err());
        assert!(FlightDump::parse("RVFR 1\ntrace t 1 2 3 4 nostage=5\n").is_err());
        assert!(FlightDump::parse("RVFR 1\nev 5 t badkind 0 x\n").is_err());
    }

    #[test]
    fn render_text_contains_full_stage_breakdown() {
        let traces = vec![("bad".to_owned(), trace(7, 5_000))];
        let text = render_dump("failed", &[], &[], &traces);
        let rendered = FlightDump::parse(&text).unwrap().render_text();
        assert!(rendered.contains("reason=failed"));
        assert!(rendered.contains("tenant=bad session=1 cseq=7 seq=7"));
        for s in Stage::ALL {
            assert!(rendered.contains(s.label()), "missing stage {} in {rendered}", s.label());
        }
        assert!(rendered.contains("engine=5000ns"));
    }

    #[test]
    fn chrome_trace_is_valid_balanced_json() {
        let mut f = FlightRecorder::new(16);
        f.note("a", FlightKind::GcCycle, 300, "minor".to_owned());
        f.note("b", FlightKind::Restart, 1_000, "attempt 1".to_owned());
        let events: Vec<FlightEvent> = f.events().cloned().collect();
        let traces = vec![("a".to_owned(), trace(1, 2_000)), ("b".to_owned(), trace(2, 4_000))];
        let text = render_dump("sigquit", &[], &events, &traces);
        let json = FlightDump::parse(&text).unwrap().chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""), "GC/restart marks become X events");
        assert!(json.contains("\"ph\":\"B\"") && json.contains("\"ph\":\"E\""));
        let b = json.matches("\"ph\":\"B\"").count();
        let e = json.matches("\"ph\":\"E\"").count();
        assert_eq!(b, e, "B/E pairs balance");
        assert!(json.contains("\"name\":\"a\"") && json.contains("\"name\":\"b\""));
    }
}
