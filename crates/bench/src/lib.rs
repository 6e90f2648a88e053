//! The evaluation harness: everything needed to regenerate the paper's
//! Figure 9(A) (runtime overhead), Figure 9(B) (peak memory) and
//! Figure 10 (monitoring statistics) tables.
//!
//! The three systems under comparison:
//!
//! * **RV** — the `rv-core` engine with [`GcPolicy::CoenableLazy`];
//! * **MOP** (JavaMOP) — the same engine with [`GcPolicy::AllParamsDead`];
//! * **TM** (Tracematches) — the `rv-tracematches` disjunct engine with
//!   state-indexed GC (regex properties only).
//!
//! Overhead is measured exactly as the paper defines it: the same workload
//! is run unmonitored ([`NullSink`]) and monitored, and the overhead is
//! `time_monitored / time_bare − 1`. Cells that exceed the configured
//! deadline report `∞`, mirroring the paper's non-terminating
//! Tracematches cells.

use std::time::{Duration, Instant};

use rv_core::{
    mmu, Binding, EngineConfig, EngineObserver, GcKind, GcPolicy, GcReason, MetricsRegistry,
    NoopObserver, PhaseProfiler, PropertyMonitor,
};
use rv_heap::Heap;
use rv_logic::{AnyFormalism, EventId};
use rv_props::Property;
use rv_tracematches::TraceMatch;
use rv_workloads::{project, EventSink, NullSink, Profile, SimEvent};

/// Which monitoring system a cell measures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum System {
    /// Tracematches-style baseline.
    Tm,
    /// JavaMOP-style baseline (all-params-dead collection).
    Mop,
    /// The paper's RV (coenable-set lazy collection).
    Rv,
}

impl System {
    /// Table order: TM, MOP, RV (as in Figure 9).
    pub const ALL: [System; 3] = [System::Tm, System::Mop, System::Rv];

    /// The column label used in the tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            System::Tm => "TM",
            System::Mop => "MOP",
            System::Rv => "RV",
        }
    }
}

/// One property attached to a system under test.
enum Attached<O: EngineObserver = NoopObserver> {
    Engine(Box<PropertyMonitor<O>>),
    Tm(Box<TraceMatch>),
}

/// Pre-resolved event dispatch for one property: spec lookups hoisted out
/// of the hot path.
struct Dispatch<O: EngineObserver = NoopObserver> {
    property: Property,
    /// For each possible projected event name: `(event id, param ids)`.
    /// Resolved lazily on first sight and memoized by name pointer.
    spec_alphabet: rv_logic::Alphabet,
    event_params: Vec<Vec<rv_logic::ParamId>>,
    attached: Attached<O>,
}

impl<O: EngineObserver> Dispatch<O> {
    fn translate(&self, name: &str, objs: &rv_workloads::ObjList) -> (EventId, Binding) {
        let event = self
            .spec_alphabet
            .lookup(name)
            .unwrap_or_else(|| panic!("{:?}: unknown event `{name}`", self.property));
        let params = &self.event_params[event.as_usize()];
        debug_assert_eq!(params.len(), objs.as_slice().len());
        let pairs: Vec<(rv_logic::ParamId, rv_heap::ObjId)> =
            params.iter().copied().zip(objs.as_slice().iter().copied()).collect();
        (event, Binding::from_pairs(&pairs))
    }
}

/// A sink feeding workload events to one or more monitored properties
/// under a single system, with a deadline and periodic memory sampling.
///
/// Generic over the per-engine [`EngineObserver`] — the default
/// [`NoopObserver`] is the measured (zero-cost) configuration; attach a
/// real observer with [`MonitorSink::with_observers`] for the profiled
/// pass.
pub struct MonitorSink<O: EngineObserver = NoopObserver> {
    dispatches: Vec<Dispatch<O>>,
    deadline: Option<Instant>,
    timed_out: bool,
    sweep_at_exit: bool,
    events_since_sample: u32,
    /// Peak monitor-side bytes observed (Fig. 9B metric).
    pub peak_bytes: usize,
    /// Total events dispatched to at least one property.
    pub events: u64,
}

impl MonitorSink {
    /// Builds a sink monitoring `properties` under `system`.
    ///
    /// # Panics
    ///
    /// Panics if a CFG property is requested under [`System::Tm`]
    /// (Tracematches is regex-only — the paper's structural limitation).
    #[must_use]
    pub fn new(system: System, properties: &[Property]) -> MonitorSink {
        MonitorSink::with_engine_config(system, properties, EngineConfig::default())
    }

    /// Like [`MonitorSink::new`], but engine-backed systems inherit `base`
    /// (the live-monitor budget, the lookup cache, …). The GC policy is
    /// still forced per system — RV is coenable-lazy, MOP all-params-dead
    /// — so only the other knobs of `base` matter.
    ///
    /// # Panics
    ///
    /// Panics if a CFG property is requested under [`System::Tm`].
    #[must_use]
    pub fn with_engine_config(
        system: System,
        properties: &[Property],
        base: EngineConfig,
    ) -> MonitorSink {
        MonitorSink::with_observers(system, properties, base, |_| NoopObserver)
    }
}

impl<O: EngineObserver> MonitorSink<O> {
    /// Like [`MonitorSink::with_engine_config`], but attaches `make(p)`
    /// to every engine block of property `p` (called once per block).
    /// Observers only attach to engine-backed systems; TM cells ignore
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if a CFG property is requested under [`System::Tm`].
    #[must_use]
    pub fn with_observers(
        system: System,
        properties: &[Property],
        base: EngineConfig,
        mut make: impl FnMut(Property) -> O,
    ) -> MonitorSink<O> {
        let dispatches = properties
            .iter()
            .map(|&property| {
                let spec = rv_props::compiled(property).expect("bundled properties compile");
                let attached = match system {
                    System::Rv | System::Mop => {
                        let config = EngineConfig {
                            policy: if system == System::Rv {
                                GcPolicy::CoenableLazy
                            } else {
                                GcPolicy::AllParamsDead
                            },
                            ..base.clone()
                        };
                        Attached::Engine(Box::new(PropertyMonitor::with_observers(
                            spec.clone(),
                            &config,
                            |_| make(property),
                        )))
                    }
                    System::Tm => {
                        assert!(
                            property.tracematches_supported(),
                            "Tracematches cannot express {property:?} (CFG)"
                        );
                        let prop = &spec.properties[0];
                        let AnyFormalism::Dfa(dfa) = &prop.formalism else {
                            panic!("{property:?}: TM needs a finite automaton");
                        };
                        Attached::Tm(Box::new(TraceMatch::new(
                            dfa.clone(),
                            spec.event_def.clone(),
                            prop.goal,
                        )))
                    }
                };
                Dispatch {
                    property,
                    spec_alphabet: spec.alphabet.clone(),
                    event_params: spec.event_params.clone(),
                    attached,
                }
            })
            .collect();
        MonitorSink {
            dispatches,
            deadline: None,
            timed_out: false,
            sweep_at_exit: false,
            events_since_sample: 0,
            peak_bytes: 0,
            events: 0,
        }
    }

    /// Aborts monitoring (reporting `∞`) once `duration` has elapsed.
    pub fn with_deadline(mut self, duration: Duration) -> MonitorSink<O> {
        self.deadline = Some(Instant::now() + duration);
        self
    }

    /// Forces a safepoint [`rv_core::Engine::full_sweep`] on every engine
    /// block when the workload exits, so end-of-run GC telemetry (cycle
    /// records, pause histograms, reclaim counts) reflects the terminal
    /// collection the paper's numbers assume. Off for measured cells —
    /// the exit sweep is observability, not overhead.
    #[must_use]
    pub fn with_exit_sweep(mut self) -> MonitorSink<O> {
        self.sweep_at_exit = true;
        self
    }

    /// The engine-backed monitors, for reaching attached observers after
    /// a run (empty under TM).
    #[must_use]
    pub fn engine_monitors(&self) -> Vec<(Property, &PropertyMonitor<O>)> {
        self.dispatches
            .iter()
            .filter_map(|d| match &d.attached {
                Attached::Engine(m) => Some((d.property, m.as_ref())),
                Attached::Tm(_) => None,
            })
            .collect()
    }

    /// Whether the deadline fired.
    #[must_use]
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }

    /// Total goal reports across all properties.
    #[must_use]
    pub fn triggers(&self) -> u64 {
        self.dispatches
            .iter()
            .map(|d| match &d.attached {
                Attached::Engine(m) => m.triggers(),
                Attached::Tm(t) => t.stats().triggers,
            })
            .sum()
    }

    /// Aggregated engine statistics per property (None for TM cells).
    #[must_use]
    pub fn engine_stats(&self) -> Vec<(Property, Option<rv_core::EngineStats>)> {
        self.dispatches
            .iter()
            .map(|d| {
                let stats = match &d.attached {
                    Attached::Engine(m) => Some(m.stats()),
                    Attached::Tm(_) => None,
                };
                (d.property, stats)
            })
            .collect()
    }

    /// Current monitor-side bytes.
    #[must_use]
    pub fn current_bytes(&self) -> usize {
        self.dispatches
            .iter()
            .map(|d| match &d.attached {
                Attached::Engine(m) => m.estimated_bytes(),
                Attached::Tm(t) => t.estimated_bytes(),
            })
            .sum()
    }
}

impl<O: EngineObserver> EventSink for MonitorSink<O> {
    fn emit(&mut self, heap: &Heap, event: &SimEvent) {
        if self.timed_out {
            return;
        }
        for i in 0..self.dispatches.len() {
            let Some((name, objs)) = project(event, self.dispatches[i].property) else {
                continue;
            };
            self.events += 1;
            let (event_id, binding) = self.dispatches[i].translate(name, &objs);
            match &mut self.dispatches[i].attached {
                Attached::Engine(m) => m.process(heap, event_id, binding),
                Attached::Tm(t) => t.process(heap, event_id, binding),
            }
        }
        self.events_since_sample += 1;
        if self.events_since_sample >= 4096 {
            self.events_since_sample = 0;
            self.peak_bytes = self.peak_bytes.max(self.current_bytes());
            if let Some(deadline) = self.deadline {
                if Instant::now() > deadline {
                    self.timed_out = true;
                }
            }
        }
    }

    fn at_exit(&mut self, heap: &Heap) {
        if self.sweep_at_exit {
            for d in &mut self.dispatches {
                if let Attached::Engine(m) = &mut d.attached {
                    for engine in m.engines_mut() {
                        let _ = engine.full_sweep_with(heap, GcReason::Forced);
                    }
                }
            }
        }
        self.peak_bytes = self.peak_bytes.max(self.current_bytes());
    }
}

/// The result of one measured cell.
#[derive(Clone, Copy, Debug)]
pub struct CellResult {
    /// Percent runtime overhead versus the unmonitored run (`None` = the
    /// deadline fired, printed as `∞`).
    pub overhead_pct: Option<f64>,
    /// Peak monitor-side memory in KiB.
    pub peak_kib: f64,
    /// Engine statistics, when the system exposes them.
    pub stats: Option<rv_core::EngineStats>,
    /// Goal reports.
    pub triggers: u64,
}

/// Measures the unmonitored baseline time for `profile` at `scale`,
/// best-of-`reps`.
#[must_use]
pub fn measure_baseline(profile: &Profile, scale: f64, reps: u32) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps.max(1) {
        let mut sink = NullSink;
        let start = Instant::now();
        let _ = rv_workloads::run(profile, scale, &mut sink);
        best = best.min(start.elapsed());
    }
    best
}

/// Measures one (benchmark, properties, system) cell.
#[must_use]
pub fn measure_cell(
    profile: &Profile,
    scale: f64,
    system: System,
    properties: &[Property],
    baseline: Duration,
    deadline: Duration,
) -> CellResult {
    let mut sink = MonitorSink::new(system, properties).with_deadline(deadline);
    let start = Instant::now();
    let _ = rv_workloads::run(profile, scale, &mut sink);
    let elapsed = start.elapsed();
    let overhead_pct = if sink.timed_out() {
        None
    } else {
        let base = baseline.as_secs_f64().max(1e-9);
        Some(((elapsed.as_secs_f64() / base) - 1.0) * 100.0)
    };
    let stats = sink.engine_stats().into_iter().filter_map(|(_, s)| s).reduce(|mut acc, s| {
        acc.merge_from(&s);
        acc
    });
    CellResult {
        overhead_pct,
        peak_kib: sink.peak_bytes as f64 / 1024.0,
        stats,
        triggers: sink.triggers(),
    }
}

/// One profiled run of a workload cell: per-property phase profilers
/// (blocks merged) and the wall-clock figures needed to report the
/// profiler's own cost.
#[derive(Debug)]
pub struct ProfiledRun {
    /// One merged profiler per property, labelled with the paper name.
    pub profilers: Vec<PhaseProfiler>,
    /// Best wall-clock seconds with the zero-cost `NoopObserver` path
    /// (profiler compiled out — the disabled configuration).
    pub disabled_secs: f64,
    /// Worst disabled wall-clock seconds: the run-to-run noise bound the
    /// disabled-path overhead claim is judged against.
    pub disabled_worst_secs: f64,
    /// Best wall-clock seconds with the profiler attached.
    pub enabled_secs: f64,
}

impl ProfiledRun {
    /// Profiler-enabled overhead versus the disabled path, in percent.
    #[must_use]
    pub fn enabled_overhead_pct(&self) -> f64 {
        (self.enabled_secs / self.disabled_secs.max(1e-9) - 1.0) * 100.0
    }

    /// Run-to-run spread of the disabled path, in percent — the noise
    /// floor that bounds any claim about the disabled path's cost.
    #[must_use]
    pub fn disabled_spread_pct(&self) -> f64 {
        (self.disabled_worst_secs / self.disabled_secs.max(1e-9) - 1.0) * 100.0
    }

    /// The run as one JSON object (the `--profile-json` cell shape).
    #[must_use]
    pub fn to_json(&self) -> String {
        use rv_core::obs::json_f64;
        let profs: Vec<String> = self.profilers.iter().map(PhaseProfiler::to_json).collect();
        format!(
            "{{\"disabled_secs\":{},\"disabled_worst_secs\":{},\"enabled_secs\":{},\
             \"enabled_overhead_pct\":{},\"disabled_spread_pct\":{},\"self_overhead_ns\":{},\
             \"profilers\":[{}]}}",
            json_f64(self.disabled_secs),
            json_f64(self.disabled_worst_secs),
            json_f64(self.enabled_secs),
            json_f64(self.enabled_overhead_pct()),
            json_f64(self.disabled_spread_pct()),
            json_f64(PhaseProfiler::measure_self_overhead(4096)),
            profs.join(",")
        )
    }
}

/// Measures one cell twice, best-of-`reps` each way: once on the
/// `NoopObserver` path (profiler compiled out) and once with a
/// [`PhaseProfiler`] attached to every engine block. The pair is the
/// "profiler on vs off" figure EXPERIMENTS.md reports; the returned
/// profilers carry the per-phase histograms.
///
/// # Panics
///
/// Panics under [`System::Tm`] — Tracematches has no engine observers.
#[must_use]
pub fn measure_profiled_cell(
    profile: &Profile,
    scale: f64,
    system: System,
    properties: &[Property],
    reps: u32,
) -> ProfiledRun {
    assert!(system != System::Tm, "TM cells have no engine observers to profile");
    let reps = reps.max(1);
    let mut disabled = f64::INFINITY;
    let mut disabled_worst = 0.0f64;
    for _ in 0..reps {
        let mut sink = MonitorSink::new(system, properties);
        let start = Instant::now();
        let _ = rv_workloads::run(profile, scale, &mut sink);
        let t = start.elapsed().as_secs_f64();
        disabled = disabled.min(t);
        disabled_worst = disabled_worst.max(t);
    }
    let mut enabled = f64::INFINITY;
    let mut best: Option<Vec<PhaseProfiler>> = None;
    for _ in 0..reps {
        let mut sink = MonitorSink::with_observers(
            system,
            properties,
            EngineConfig::default(),
            |p: Property| PhaseProfiler::new().with_label(p.paper_name()),
        );
        let start = Instant::now();
        let _ = rv_workloads::run(profile, scale, &mut sink);
        let t = start.elapsed().as_secs_f64();
        if t < enabled || best.is_none() {
            enabled = enabled.min(t);
            let mut profs = Vec::new();
            for (property, monitor) in sink.engine_monitors() {
                let mut merged = PhaseProfiler::new().with_label(property.paper_name());
                for engine in monitor.engines() {
                    merged.merge_from(engine.observer());
                }
                profs.push(merged);
            }
            best = Some(profs);
        }
    }
    let profilers = best.expect("reps >= 1 guarantees a profiled run");
    ProfiledRun {
        profilers,
        disabled_secs: disabled,
        disabled_worst_secs: disabled_worst,
        enabled_secs: enabled,
    }
}

/// Runs the profiled pass the `--profile-json` flag asks for — every
/// DaCapo benchmark under RV with all evaluated properties — and writes
/// one JSON document with per-phase histograms and the measured
/// profiler-on-vs-off overhead per benchmark.
///
/// # Panics
///
/// Panics on IO errors — these binaries are CLIs.
pub fn write_profile_report(path: &str, figure: &str, scale: f64, reps: u32) {
    use rv_core::obs::{json_escape, json_f64};
    let mut cells = Vec::new();
    for profile in Profile::dacapo() {
        let run = measure_profiled_cell(&profile, scale, System::Rv, &Property::EVALUATED, reps);
        cells.push(format!(
            "{{\"benchmark\":\"{}\",\"profile\":{}}}",
            json_escape(profile.name),
            run.to_json()
        ));
    }
    let doc = format!(
        "{{\"figure\":\"{}\",\"scale\":{},\"cells\":[{}]}}\n",
        json_escape(figure),
        json_f64(scale),
        cells.join(",")
    );
    std::fs::write(path, doc).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    eprintln!("wrote {path}");
}

/// Runs every DaCapo benchmark under both engine-backed GC policies —
/// RV's coenable-lazy and MOP's all-params-dead — with a
/// [`MetricsRegistry`] attached and a forced safepoint sweep at exit,
/// then prints the GC observatory table the `--gc-stats` flag asks for:
/// sweep cycles, pause-time quantiles, reclaim rate, and minimum mutator
/// utilization at two window sizes. Pause clocks only run because the
/// observer is attached; measured (overhead) cells never pay for this.
pub fn print_gc_stats(scale: f64) {
    println!("GC observatory (scale {scale}): monitor-sweep pauses, reclaim rate, MMU");
    println!(
        "{:<12} {:<9} {:>6} {:>8} {:>8} {:>9} {:>9} {:>6} {:>8} {:>8}",
        "benchmark",
        "policy",
        "cycles",
        "p50ns",
        "p99ns",
        "scanned",
        "reclaim",
        "rate%",
        "mmu1ms",
        "mmu10ms"
    );
    for profile in Profile::dacapo() {
        for system in [System::Rv, System::Mop] {
            let mut sink = MonitorSink::with_observers(
                system,
                &Property::EVALUATED,
                EngineConfig::default(),
                |_| MetricsRegistry::new(),
            )
            .with_exit_sweep();
            let _ = rv_workloads::run(&profile, scale, &mut sink);
            let mut metrics = MetricsRegistry::new();
            for (_, monitor) in sink.engine_monitors() {
                for engine in monitor.engines() {
                    metrics.merge_from(engine.observer());
                }
            }
            let kind = GcKind::MonitorSweep;
            let pause = metrics.gc_pause(kind);
            let scanned = metrics.gc_scanned(kind);
            let reclaimed = metrics.gc_reclaimed(kind);
            let rate = if scanned == 0 { 0.0 } else { 100.0 * reclaimed as f64 / scanned as f64 };
            let span = metrics.gc_pauses().iter().map(|&(end, _)| end).max().unwrap_or(0);
            println!(
                "{:<12} {:<9} {:>6} {:>8.0} {:>8.0} {:>9} {:>9} {:>6.1} {:>8.3} {:>8.3}",
                profile.name,
                match system {
                    System::Rv => "coenable",
                    System::Mop => "all-dead",
                    System::Tm => unreachable!("engine policies only"),
                },
                metrics.gc_cycles_total(kind),
                pause.quantile(0.50),
                pause.quantile(0.99),
                scanned,
                reclaimed,
                rate,
                mmu(metrics.gc_pauses(), span, 1_000_000),
                mmu(metrics.gc_pauses(), span, 10_000_000),
            );
        }
    }
    println!(
        "(pauses are monitor-sweep safepoints across all engine blocks; \
         heap-collect cycles are journaled runs' territory — see `rvmon gc-log`)"
    );
}

/// Formats an overhead cell: percentage or `∞`.
#[must_use]
pub fn fmt_overhead(cell: &CellResult) -> String {
    match cell.overhead_pct {
        Some(pct) => format!("{pct:.0}"),
        None => "∞".to_owned(),
    }
}

/// Formats a large count the way the paper does (156M, 1.9M, 44K, 18).
#[must_use]
pub fn fmt_count(n: u64) -> String {
    if n >= 10_000_000 {
        format!("{}M", n / 1_000_000)
    } else if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1_000_000.0)
    } else if n >= 10_000 {
        format!("{}K", n / 1_000)
    } else if n >= 1_000 {
        format!("{:.1}K", n as f64 / 1_000.0)
    } else {
        n.to_string()
    }
}

/// Runs the seed-reproducible chaos differential for `property`: every
/// property block under every GC policy over a fault-injecting heap, the
/// engine's verdicts checked against the reference oracle and
/// [`rv_core::Engine::check_invariants`] validated after every injected
/// fault. Returns human-readable descriptions of the failing runs (empty
/// means every run agreed).
#[must_use]
pub fn chaos_check(property: Property, seed: u64, events: usize) -> Vec<String> {
    let spec = rv_props::compiled(property).expect("bundled properties compile");
    let mut failures = Vec::new();
    for block in 0..spec.properties.len() {
        for policy in [GcPolicy::None, GcPolicy::AllParamsDead, GcPolicy::CoenableLazy] {
            match rv_core::run_block(&spec, block, policy, seed, events) {
                Ok(out) if out.verdicts_match() => {}
                Ok(out) => failures.push(format!(
                    "{property:?} block {} {policy:?} seed {seed}: \
                     engine {:?} vs oracle {:?}",
                    block + 1,
                    out.engine_triggers,
                    out.oracle_triggers
                )),
                Err(e) => failures
                    .push(format!("{property:?} block {} {policy:?} seed {seed}: {e}", block + 1)),
            }
        }
    }
    failures
}

/// Parses `--scale X` / `--deadline SECS` style CLI arguments shared by
/// the harness binaries.
#[derive(Clone, Debug)]
pub struct HarnessArgs {
    /// Workload scale factor (default 1.0 = paper counts / 1000).
    pub scale: f64,
    /// Per-cell deadline in seconds (default 30).
    pub deadline_secs: u64,
    /// Baseline repetitions (default 3).
    pub reps: u32,
    /// Where to write a machine-readable JSON report (`--stats-json`).
    pub stats_json: Option<String>,
    /// Where to write the phase-profiler report (`--profile-json`): the
    /// harness reruns its workloads with profilers attached and records
    /// per-phase histograms plus the profiler-on-vs-off overhead.
    pub profile_json: Option<String>,
    /// When set, the harness also runs the deterministic fault-injection
    /// differential with this seed (`--chaos-seed`).
    pub chaos_seed: Option<u64>,
    /// When set, the harness appends the GC observatory table
    /// (`--gc-stats`): per-policy sweep-pause quantiles, reclaim rate,
    /// and MMU — the numbers EXPERIMENTS.md's GC section reports.
    pub gc_stats: bool,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            scale: 1.0,
            deadline_secs: 30,
            reps: 3,
            stats_json: None,
            profile_json: None,
            chaos_seed: None,
            gc_stats: false,
        }
    }
}

impl HarnessArgs {
    /// Parses from `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    #[must_use]
    pub fn from_env() -> HarnessArgs {
        let mut out = HarnessArgs::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut take =
                |name: &str| args.next().unwrap_or_else(|| panic!("{name} requires a value"));
            match arg.as_str() {
                "--scale" => out.scale = take("--scale").parse().expect("numeric --scale"),
                "--deadline" => {
                    out.deadline_secs = take("--deadline").parse().expect("numeric --deadline");
                }
                "--reps" => out.reps = take("--reps").parse().expect("numeric --reps"),
                "--stats-json" => out.stats_json = Some(take("--stats-json")),
                "--profile-json" => out.profile_json = Some(take("--profile-json")),
                "--chaos-seed" => {
                    out.chaos_seed =
                        Some(take("--chaos-seed").parse().expect("numeric --chaos-seed"));
                }
                "--gc-stats" => out.gc_stats = true,
                other => panic!(
                    "unknown argument `{other}` \
                     (known: --scale, --deadline, --reps, --stats-json, --profile-json, \
                     --chaos-seed, --gc-stats)"
                ),
            }
        }
        out
    }

    /// The per-cell deadline.
    #[must_use]
    pub fn deadline(&self) -> Duration {
        Duration::from_secs(self.deadline_secs)
    }
}

/// Accumulates measured cells into the machine-readable JSON document the
/// `--stats-json` flag writes (`BENCH_*.json` artifacts for EXPERIMENTS).
#[derive(Debug)]
pub struct StatsReport {
    figure: String,
    scale: f64,
    cells: Vec<String>,
}

impl StatsReport {
    /// An empty report for `figure` (e.g. `"fig10"`) at workload `scale`.
    #[must_use]
    pub fn new(figure: &str, scale: f64) -> StatsReport {
        StatsReport { figure: figure.to_owned(), scale, cells: Vec::new() }
    }

    /// Records one measured overhead/memory cell.
    pub fn push_cell(&mut self, benchmark: &str, property: &str, system: &str, cell: &CellResult) {
        use rv_core::obs::{json_escape, json_f64};
        let mut entry = format!(
            "{{\"benchmark\":\"{}\",\"property\":\"{}\",\"system\":\"{}\"",
            json_escape(benchmark),
            json_escape(property),
            json_escape(system)
        );
        match cell.overhead_pct {
            Some(pct) => entry.push_str(&format!(",\"overhead_pct\":{}", json_f64(pct))),
            None => entry.push_str(",\"overhead_pct\":null,\"timed_out\":true"),
        }
        entry.push_str(&format!(",\"peak_kib\":{}", json_f64(cell.peak_kib)));
        entry.push_str(&format!(",\"triggers\":{}", cell.triggers));
        if let Some(stats) = &cell.stats {
            entry.push_str(&format!(",\"engine\":{}", stats.to_json()));
        }
        entry.push('}');
        self.cells.push(entry);
    }

    /// Records one pre-formatted JSON object as a cell, for figures whose
    /// columns fit neither the overhead nor the statistics shape (e.g. the
    /// recovery harness's journal/checkpoint timings). The caller is
    /// responsible for passing valid JSON.
    pub fn push_raw_cell(&mut self, cell: String) {
        self.cells.push(cell);
    }

    /// Records one statistics-only cell (Figure 10 has no timing).
    pub fn push_stats(&mut self, benchmark: &str, property: &str, stats: &rv_core::EngineStats) {
        use rv_core::obs::json_escape;
        self.cells.push(format!(
            "{{\"benchmark\":\"{}\",\"property\":\"{}\",\"system\":\"RV\",\"engine\":{}}}",
            json_escape(benchmark),
            json_escape(property),
            stats.to_json()
        ));
    }

    /// The full report as one JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"figure\":\"{}\",\"scale\":{},\"cells\":[{}]}}\n",
            rv_core::obs::json_escape(&self.figure),
            rv_core::obs::json_f64(self.scale),
            self.cells.join(",")
        )
    }

    /// Writes the report to `path` when the flag was given; no-op
    /// otherwise. Panics on IO errors — these binaries are CLIs.
    pub fn write_if_requested(&self, path: Option<&str>) {
        if let Some(path) = path {
            std::fs::write(path, self.to_json())
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("wrote {path}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitor_sink_detects_violations_in_workloads() {
        // pmd's profile injects concurrent updates: RV must report them.
        let mut sink = MonitorSink::new(System::Rv, &[Property::UnsafeIter, Property::HasNext]);
        let _ = rv_workloads::run(&Profile::pmd(), 1.0, &mut sink);
        assert!(sink.events > 0);
        assert!(sink.triggers() > 0, "pmd injects UNSAFEITER violations");
    }

    #[test]
    fn all_three_systems_agree_on_trigger_counts() {
        let mut counts = Vec::new();
        for system in System::ALL {
            let mut sink = MonitorSink::new(system, &[Property::UnsafeIter]);
            let _ = rv_workloads::run(&Profile::pmd(), 0.5, &mut sink);
            counts.push(sink.triggers());
        }
        assert_eq!(counts[0], counts[1], "TM vs MOP");
        assert_eq!(counts[1], counts[2], "MOP vs RV");
    }

    #[test]
    fn rv_flags_more_monitors_than_mop_on_bloat() {
        // bloat keeps collections alive long after their iterators die:
        // RV flags those monitors during the run, MOP (all-params-dead)
        // cannot until the collections die too.
        let run = |system: System| {
            let mut sink = MonitorSink::new(system, &[Property::UnsafeIter]);
            let _ = rv_workloads::run(&Profile::bloat(), 0.25, &mut sink);
            sink.engine_stats()[0].1.unwrap()
        };
        let rv = run(System::Rv);
        let mop = run(System::Mop);
        assert_eq!(rv.monitors_created, mop.monitors_created, "same creation discipline");
        assert!(
            rv.monitors_flagged > mop.monitors_flagged.saturating_mul(2),
            "RV flags ({}) should dwarf MOP's ({}) while collections linger",
            rv.monitors_flagged,
            mop.monitors_flagged
        );
        assert!(
            rv.live_monitors < mop.live_monitors,
            "RV live ({}) should undercut MOP live ({})",
            rv.live_monitors,
            mop.live_monitors
        );
    }

    #[test]
    fn live_monitor_budget_is_honored_on_bloat() {
        // The bloat workload keeps collections alive, so the unbudgeted
        // engine accumulates live monitors far past any small cap. With a
        // budget and the full degradation ladder, shedding makes the cap
        // hard: peak live can never exceed it.
        let cap: usize = 128;
        let config = rv_core::EngineConfig {
            max_live_monitors: Some(cap),
            ..rv_core::EngineConfig::default()
        };
        let mut sink = MonitorSink::with_engine_config(System::Rv, &[Property::UnsafeIter], config);
        let _ = rv_workloads::run(&Profile::bloat(), 0.25, &mut sink);
        let stats = sink.engine_stats()[0].1.unwrap();
        assert!(
            stats.peak_live_monitors <= cap,
            "budget violated: peak {} > cap {cap}",
            stats.peak_live_monitors
        );
        assert!(stats.budget_trips > 0, "the cap should actually be hit: {stats}");
        assert!(stats.shed > 0, "the ladder should reach shedding: {stats}");
        assert!(stats.degradations > 0, "degradation transitions should be counted: {stats}");
    }

    #[test]
    fn chaos_check_passes_for_evaluated_properties() {
        for property in Property::EVALUATED {
            let failures = chaos_check(property, 17, 128);
            assert!(failures.is_empty(), "{failures:?}");
        }
    }

    #[test]
    #[should_panic(expected = "Tracematches cannot express")]
    fn tm_rejects_cfg_properties() {
        let _ = MonitorSink::new(System::Tm, &[Property::SafeLock]);
    }

    #[test]
    fn count_formatting_matches_the_paper_style() {
        assert_eq!(fmt_count(156_000_000), "156M");
        assert_eq!(fmt_count(1_900_000), "1.9M");
        assert_eq!(fmt_count(44_000), "44K");
        assert_eq!(fmt_count(1_500), "1.5K");
        assert_eq!(fmt_count(18), "18");
    }

    #[test]
    fn overhead_formatting_renders_infinity_for_timeouts() {
        let finite =
            CellResult { overhead_pct: Some(151.4), peak_kib: 1.0, stats: None, triggers: 0 };
        assert_eq!(fmt_overhead(&finite), "151");
        let timed_out = CellResult { overhead_pct: None, peak_kib: 1.0, stats: None, triggers: 0 };
        assert_eq!(fmt_overhead(&timed_out), "∞");
    }

    #[test]
    fn deadline_aborts_monitoring_midway() {
        use std::time::Duration;
        let mut sink = MonitorSink::new(System::Tm, &[Property::UnsafeMapIter])
            .with_deadline(Duration::from_millis(0));
        let _ = rv_workloads::run(&Profile::bloat(), 0.25, &mut sink);
        assert!(sink.timed_out(), "a zero deadline must fire");
    }

    #[test]
    fn measure_baseline_is_positive() {
        let d = measure_baseline(&Profile::by_name("luindex").unwrap(), 0.5, 2);
        assert!(d.as_nanos() > 0);
    }
}
