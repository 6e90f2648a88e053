//! The instrumented dispatcher both workload families drive: a set of
//! [`PropertyMonitor`]s fed one parametric event at a time, with the
//! end-to-end batch clock always on and per-call spans only in traced
//! runs. Spans sit around the public `PropertyMonitor::process` call and
//! are classified from outside by `EngineStats` deltas.

use std::hint::black_box;
use std::time::Instant;

use rv_core::{
    Binding, EngineConfig, EngineObserver, EngineStats, GcReason, Phase, PhaseProfiler,
    PropertyMonitor,
};
use rv_heap::{Heap, HeapStats};
use rv_logic::{EventId, Formalism};
use rv_spec::CompiledSpec;

use crate::report::splitmix64;

/// Monitored events per end-to-end latency sample.
pub const BATCH: u32 = 64;

/// The engine phases reported as `engine.phase.*_ms`.
pub const PHASES: [(Phase, &str); 5] = [
    (Phase::IndexLookup, "index_lookup"),
    (Phase::DisableCheck, "disable_check"),
    (Phase::Transition, "transition"),
    (Phase::DeadKeyExpunge, "dead_key_expunge"),
    (Phase::Aliveness, "aliveness"),
];

/// `process` spans of one traced run, split by what the call did: it
/// created a monitor, was served by the lookup cache, or neither.
#[derive(Default)]
pub struct CallSpans {
    pub create: Vec<u64>,
    pub hit: Vec<u64>,
    pub miss: Vec<u64>,
    pub busy_ns: u64,
}

/// What one monitored pass over a workload produced.
pub struct Pass {
    pub wall_s: f64,
    pub events: u64,
    /// Per monitor: triggers, E, M, FM, CM — before any exit sweep.
    pub fingerprint: Vec<[u64; 5]>,
    pub stats: EngineStats,
    pub peak_bytes: usize,
    pub batches_ns: Vec<u64>,
    pub calls: Option<CallSpans>,
    pub sweep_ns: u64,
    pub sweep_reclaimed: u64,
    pub heap: HeapStats,
    /// Per [`PHASES`] entry, total milliseconds (profiled passes only).
    pub phases_ms: Option<[f64; 5]>,
}

impl Pass {
    /// Two passes over disjoint inputs (one per daemon tenant) as one.
    pub fn merge(mut self, other: Pass) -> Pass {
        self.wall_s += other.wall_s;
        self.events += other.events;
        self.fingerprint.extend(other.fingerprint);
        self.stats.merge_from(&other.stats);
        self.peak_bytes += other.peak_bytes;
        self.batches_ns.extend(other.batches_ns);
        if let (Some(a), Some(b)) = (&mut self.calls, other.calls) {
            a.create.extend(b.create);
            a.hit.extend(b.hit);
            a.miss.extend(b.miss);
            a.busy_ns += b.busy_ns;
        }
        self.sweep_ns += other.sweep_ns;
        self.sweep_reclaimed += other.sweep_reclaimed;
        self.heap.collections += other.heap.collections;
        self.heap.gc_pause_ns += other.heap.gc_pause_ns;
        if let (Some(a), Some(b)) = (&mut self.phases_ms, other.phases_ms) {
            a.iter_mut().zip(b).for_each(|(x, y)| *x += y);
        }
        self
    }
}

/// Observers the dispatcher knows how to read back.
pub trait Observed: EngineObserver + Sized {
    fn make() -> Self;
    fn phases_ms(_monitors: &[PropertyMonitor<Self>]) -> Option<[f64; 5]> {
        None
    }
}

impl Observed for rv_core::NoopObserver {
    fn make() -> Self {
        rv_core::NoopObserver
    }
}

impl Observed for PhaseProfiler {
    fn make() -> Self {
        PhaseProfiler::new()
    }
    fn phases_ms(monitors: &[PropertyMonitor<Self>]) -> Option<[f64; 5]> {
        let mut out = [0.0; 5];
        for m in monitors {
            for e in m.engines() {
                for (i, (phase, _)) in PHASES.iter().enumerate() {
                    out[i] += e.observer().phase(*phase).sum() as f64 / 1e6;
                }
            }
        }
        Some(out)
    }
}

pub struct Monitors<O: Observed> {
    pub monitors: Vec<PropertyMonitor<O>>,
    last: Vec<EngineStats>,
    calls: Option<CallSpans>,
    sample_every: u32,
    since_sample: u32,
    in_batch: u32,
    batch_start: Instant,
    batches_ns: Vec<u64>,
    peak_bytes: usize,
    events: u64,
    started: Instant,
    ended: Option<(Instant, Vec<[u64; 5]>)>,
    sweep: Option<(u64, u64)>,
}

impl<O: Observed> Monitors<O> {
    /// One monitor per spec. `traced` turns on per-call spans;
    /// `sample_every` is the memory-sampling period in program steps.
    pub fn new(
        specs: &[CompiledSpec],
        config: &EngineConfig,
        traced: bool,
        sample_every: u32,
    ) -> Self {
        let monitors: Vec<PropertyMonitor<O>> = specs
            .iter()
            .map(|s| PropertyMonitor::with_observers(s.clone(), config, |_| O::make()))
            .collect();
        let n = monitors.len();
        Monitors {
            monitors,
            last: vec![EngineStats::default(); n],
            calls: traced.then(CallSpans::default),
            sample_every,
            since_sample: 0,
            in_batch: 0,
            batch_start: Instant::now(),
            batches_ns: Vec::new(),
            peak_bytes: 0,
            events: 0,
            started: Instant::now(),
            ended: None,
            sweep: None,
        }
    }

    /// Starts the wall and batch clocks.
    pub fn start(&mut self) {
        self.started = Instant::now();
        self.batch_start = self.started;
    }

    /// Dispatches one event to monitor `slot`.
    #[inline]
    pub fn process(&mut self, heap: &Heap, slot: usize, event: EventId, binding: Binding) {
        self.events += 1;
        match &mut self.calls {
            None => self.monitors[slot].process(heap, event, binding),
            Some(calls) => {
                let t0 = Instant::now();
                self.monitors[slot].process(heap, event, binding);
                let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                let now = self.monitors[slot].stats();
                let last = &mut self.last[slot];
                if now.monitors_created > last.monitors_created {
                    calls.create.push(ns);
                } else if now.cache_hits > last.cache_hits {
                    calls.hit.push(ns);
                } else {
                    calls.miss.push(ns);
                }
                calls.busy_ns += ns;
                *last = now;
            }
        }
        self.in_batch += 1;
        if self.in_batch == BATCH {
            let now = Instant::now();
            self.batches_ns.push(
                u64::try_from(now.duration_since(self.batch_start).as_nanos()).unwrap_or(u64::MAX),
            );
            self.batch_start = now;
            self.in_batch = 0;
        }
    }

    /// One step of the monitored program: samples monitor memory
    /// periodically (the Fig. 9B measurement).
    #[inline]
    pub fn program_step(&mut self) {
        self.since_sample += 1;
        if self.since_sample >= self.sample_every {
            self.since_sample = 0;
            self.sample_memory();
        }
    }

    fn sample_memory(&mut self) {
        let bytes = self.monitors.iter().map(PropertyMonitor::estimated_bytes).sum();
        self.peak_bytes = self.peak_bytes.max(bytes);
    }

    /// Program exit: stops the wall clock, takes the fingerprint and a
    /// final memory sample, and in traced runs times one
    /// `full_sweep_with` per engine block.
    pub fn at_exit(&mut self, heap: &Heap) {
        self.ended = Some((Instant::now(), self.fingerprint()));
        self.sample_memory();
        if self.calls.is_some() {
            let before: u64 = self.monitors.iter().map(|m| m.stats().monitors_collected).sum();
            let t0 = Instant::now();
            for m in &mut self.monitors {
                for engine in m.engines_mut() {
                    let _ = engine.full_sweep_with(heap, GcReason::Forced);
                }
            }
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let after: u64 = self.monitors.iter().map(|m| m.stats().monitors_collected).sum();
            self.sweep = Some((ns, after - before));
        }
    }

    /// Closes the pass; `at_exit` must have run.
    pub fn finish(self, heap: HeapStats) -> Pass {
        let (wall_end, fingerprint) = self.ended.expect("at_exit closes every pass");
        let mut stats = EngineStats::default();
        for m in &self.monitors {
            stats.merge_from(&m.stats());
        }
        let (sweep_ns, sweep_reclaimed) = self.sweep.unwrap_or((0, 0));
        Pass {
            wall_s: wall_end.duration_since(self.started).as_secs_f64(),
            events: self.events,
            fingerprint,
            stats,
            peak_bytes: self.peak_bytes,
            batches_ns: self.batches_ns,
            calls: self.calls,
            sweep_ns,
            sweep_reclaimed,
            heap,
            phases_ms: O::phases_ms(&self.monitors),
        }
    }

    /// Per monitor: triggers and the Fig. 10 E/M/FM/CM counters.
    fn fingerprint(&self) -> Vec<[u64; 5]> {
        self.monitors
            .iter()
            .map(|m| {
                let s = m.stats();
                [s.triggers, s.events, s.monitors_created, s.monitors_flagged, s.monitors_collected]
            })
            .collect()
    }
}

/// The cost of one formalism `step`, in nanoseconds: every property block
/// of `specs` steps a seeded random event string from its initial state
/// (restarted every 16 events). Median of several timed rounds.
pub fn logic_step_ns(specs: &[CompiledSpec], seed: u64) -> f64 {
    const LEN: usize = 4096;
    const REPEAT: usize = 8;
    let mut rng = seed ^ 0x5EED_1061;
    let blocks: Vec<(&rv_logic::AnyFormalism, Vec<EventId>)> = specs
        .iter()
        .flat_map(|s| s.properties.iter())
        .map(|p| {
            let n = p.formalism.alphabet().len().max(1) as u64;
            let events = (0..LEN).map(|_| EventId((splitmix64(&mut rng) % n) as u16)).collect();
            (&p.formalism, events)
        })
        .collect();
    let steps = (blocks.len() * LEN * REPEAT) as f64;
    let mut rounds = Vec::new();
    for _ in 0..9 {
        let t0 = Instant::now();
        for (f, events) in &blocks {
            for _ in 0..REPEAT {
                let mut state = f.initial_state();
                for (k, &e) in events.iter().enumerate() {
                    if k % 16 == 0 {
                        state = f.initial_state();
                    }
                    black_box(f.step(&mut state, e));
                }
            }
        }
        rounds.push(t0.elapsed().as_nanos() as f64 / steps);
    }
    crate::report::median(&rounds)
}
