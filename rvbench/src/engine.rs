//! The in-process engine workloads. Every repetition runs the simulated
//! DaCapo-like program of `rv_workloads` twice — unmonitored (`NullSink`)
//! and monitored by the five evaluated properties under the RV policy,
//! the Fig. 9A "ALL" column — in alternating order.

use std::time::Instant;

use rv_core::{Binding, EngineConfig, NoopObserver, PhaseProfiler};
use rv_heap::{Heap, HeapStats, ObjId};
use rv_logic::{Alphabet, ParamId};
use rv_props::Property;
use rv_spec::CompiledSpec;
use rv_workloads::{project, EventSink, NullSink, Profile, SimEvent};

use crate::layers::EngineLayers;
use crate::monitor::{logic_step_ns, Monitors, Observed, Pass};
use crate::report::{median, num, quantile_u64};
use crate::{Outcome, RunCfg};

/// A DaCapo-like profile at a fixed scale.
pub struct EngineWorkload {
    pub profile: Profile,
    pub scale: f64,
}

/// Feeds the program's events to the monitors, projected per property.
struct ProgramSink<O: Observed> {
    monitors: Monitors<O>,
    props: Vec<(Property, Alphabet, Vec<Vec<ParamId>>)>,
}

impl<O: Observed> EventSink for ProgramSink<O> {
    fn emit(&mut self, heap: &Heap, event: &SimEvent) {
        for i in 0..self.props.len() {
            let (property, alphabet, params) = &self.props[i];
            let Some((name, objs)) = project(event, *property) else { continue };
            let event_id = alphabet.lookup(name).expect("projected events are declared");
            let mut pairs = [(ParamId(0), ObjId::from_bits(0)); 3];
            let objs = objs.as_slice();
            for (slot, (&p, &o)) in
                pairs.iter_mut().zip(params[event_id.as_usize()].iter().zip(objs))
            {
                *slot = (p, o);
            }
            let binding = Binding::from_pairs(&pairs[..objs.len()]);
            self.monitors.process(heap, i, event_id, binding);
        }
        self.monitors.program_step();
    }

    fn at_exit(&mut self, heap: &Heap) {
        self.monitors.at_exit(heap);
    }
}

impl EngineWorkload {
    fn specs() -> Vec<CompiledSpec> {
        Property::EVALUATED
            .iter()
            .map(|&p| rv_props::compiled(p).expect("bundled properties compile"))
            .collect()
    }

    fn sink<O: Observed>(specs: &[CompiledSpec], traced: bool) -> ProgramSink<O> {
        let config = EngineConfig::default();
        ProgramSink {
            monitors: Monitors::new(specs, &config, traced, 4096),
            props: Property::EVALUATED
                .iter()
                .zip(specs)
                .map(|(&p, s)| (p, s.alphabet.clone(), s.event_params.clone()))
                .collect(),
        }
    }

    /// Three timed set-ups back to back; the fastest is appended to
    /// `setups`. The first set-up after a monitored pass refills caches
    /// the pass evicted, which is the pass's cost, not set-up's.
    fn setup(setups: &mut Vec<f64>) -> Vec<CompiledSpec> {
        let mut best = f64::INFINITY;
        let mut last = None;
        for _ in 0..3 {
            let t0 = Instant::now();
            let specs = Self::specs();
            let sink = Self::sink::<NoopObserver>(&specs, false);
            std::hint::black_box(&sink.monitors);
            best = best.min(t0.elapsed().as_secs_f64());
            last = Some(specs);
        }
        setups.push(best);
        last.expect("three set-ups")
    }

    fn monitored<O: Observed>(&self, specs: &[CompiledSpec], traced: bool) -> Pass {
        let mut sink = Self::sink::<O>(specs, traced);
        sink.monitors.start();
        let report = rv_workloads::run(&self.profile, self.scale, &mut sink);
        sink.monitors.finish(report.heap)
    }

    fn bare(&self) -> (f64, HeapStats) {
        let t0 = Instant::now();
        let report = rv_workloads::run(&self.profile, self.scale, &mut NullSink);
        (t0.elapsed().as_secs_f64(), report.heap)
    }

    pub fn run(&self, cfg: &RunCfg) -> Outcome {
        let mut out = Outcome::new(cfg);
        let mut profile = self.profile;
        profile.seed = cfg.workload_seed(profile.seed);
        let this = EngineWorkload { profile, scale: self.scale };

        // Set-up: compile the five specs and build their monitors, timed
        // before the first repetition and again after every one, so the
        // median spans the whole run.
        let setup_span = out.spans.enter("setup");
        let mut setups = Vec::new();
        let specs = Self::setup(&mut setups);
        for _ in 1..5 {
            Self::setup(&mut setups);
        }
        out.spans.exit(setup_span);

        let mut bare_s = Vec::new();
        let mut bare_gc_ms = Vec::new();
        let mut bare_collections = 0;
        let mut untraced: Vec<Pass> = Vec::new();
        let mut traced: Vec<Pass> = Vec::new();
        let deadline = Instant::now() + cfg.seconds;
        let mut rep = 0usize;
        while rep < 3 || Instant::now() < deadline {
            let span = out.spans.enter(format!("rep{rep}"));
            // Alternate which of the pair runs first.
            for bare_turn in [rep.is_multiple_of(2), !rep.is_multiple_of(2)] {
                if bare_turn {
                    let s = out.spans.enter("workloads.run bare");
                    let (secs, heap) = this.bare();
                    out.spans.exit(s);
                    bare_s.push(secs);
                    bare_gc_ms.push(heap.gc_pause_ns as f64 / 1e6);
                    bare_collections = heap.collections;
                } else {
                    let s = out.spans.enter("workloads.run monitored");
                    untraced.push(this.monitored::<NoopObserver>(&specs, false));
                    out.spans.exit(s);
                }
            }
            if cfg.traced {
                let s = out.spans.enter("workloads.run traced");
                traced.push(this.monitored::<NoopObserver>(&specs, true));
                out.spans.exit(s);
            }
            out.spans.exit(span);
            let s = out.spans.enter("setup");
            Self::setup(&mut setups);
            out.spans.exit(s);
            rep += 1;
        }
        let profiled = cfg.traced.then(|| {
            let s = out.spans.enter("workloads.run profiled");
            let pass = this.monitored::<PhaseProfiler>(&specs, false);
            out.spans.exit(s);
            pass
        });

        // Correctness: every pass reproduces the recorded fingerprint.
        let mut expected = untraced[0].fingerprint.clone();
        if cfg.inject_mismatch {
            expected[0][0] += 1;
        }
        let gate = &mut out.gate;
        for (kind, pass) in untraced
            .iter()
            .map(|p| ("untraced", p))
            .chain(traced.iter().map(|p| ("traced", p)))
            .chain(profiled.iter().map(|p| ("profiled", p)))
        {
            gate.attempt(pass.events);
            gate.check(pass.fingerprint == expected, pass.events, || {
                format!("{kind} pass fingerprint {:?} != recorded {expected:?}", pass.fingerprint)
            });
        }

        let walls: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
        let batch_samples: usize = untraced.iter().map(|p| p.batches_ns.len()).sum();
        let events = untraced[0].events;
        let m = &mut out.metrics;
        if cfg.traced {
            let step_ns = logic_step_ns(&specs, cfg.seed);
            let layers = EngineLayers {
                traced: &traced,
                profiled: profiled.as_ref().expect("traced runs profile once"),
                untraced_s: &walls,
                bare_s: &bare_s,
                bare_gc_ms: &bare_gc_ms,
                bare_collections,
                step_ns,
            };
            layers.report(m);
            layers.check(&mut out.gate);
            m.push("trace.overhead_pct", layers.overhead_pct(), "%");
            m.push("batch.samples", batch_samples as f64, "count");
        } else {
            let (mut floor, floor_s) = floor(&untraced);
            let bare_floor_s = bare_s.iter().copied().fold(f64::INFINITY, f64::min);
            let peaks: Vec<f64> = untraced.iter().map(|p| p.peak_bytes as f64 / 1024.0).collect();
            m.push("events_per_s", events as f64 / floor_s, "1/s");
            m.push("overhead_pct", (floor_s / bare_floor_s - 1.0) * 100.0, "%");
            m.push("peak_kib", median(&peaks), "KiB");
            m.push("batch_p50_us", quantile_u64(&mut floor, 0.5) / 1e3, "us");
            m.push("batch_p99_us", quantile_u64(&mut floor, 0.99) / 1e3, "us");
            m.push("setup_s", median(&setups), "s");
        }
        let per_rep = |f: &dyn Fn(&Pass) -> f64| {
            untraced.iter().map(|p| num(f(p))).collect::<Vec<_>>().join(",")
        };
        let batch_q = |p: &Pass, q: f64| quantile_u64(&mut p.batches_ns.clone(), q) / 1e3;
        out.detail.push(format!(
            "\"engine\":{{\"profile\":\"{}\",\"profile_seed\":{},\"scale\":{},\"reps\":{},\
             \"events_per_rep\":{},\"fingerprint\":{:?},\"stats\":{},\
             \"monitored_s\":[{}],\"bare_s\":[{}],\"batch_p50_us\":[{}],\"batch_p99_us\":[{}]}}",
            this.profile.name,
            this.profile.seed,
            this.scale,
            untraced.len(),
            events,
            untraced[0].fingerprint,
            untraced[0].stats.to_json(),
            per_rep(&|p| p.wall_s),
            bare_s.iter().map(|&b| num(b)).collect::<Vec<_>>().join(","),
            per_rep(&|p| batch_q(p, 0.5)),
            per_rep(&|p| batch_q(p, 0.99)),
        ));
        out
    }
}

/// The pass as it runs undisturbed: per 64-event batch, the fastest time
/// any untraced pass took, and the wall time those batches plus the
/// fastest tail after the last full batch add up to. Every pass replays
/// the same inputs, so batch `i` is the same work in every pass; other
/// tenants of a shared host that contend for the caches for seconds at a
/// time slow some passes' batches and never speed any up.
fn floor(passes: &[Pass]) -> (Vec<u64>, f64) {
    let mut batches = passes[0].batches_ns.clone();
    for p in &passes[1..] {
        batches.iter_mut().zip(&p.batches_ns).for_each(|(f, &b)| *f = (*f).min(b));
    }
    let batched_s = |p: &Pass| p.batches_ns.iter().sum::<u64>() as f64 / 1e9;
    let tail_s = passes.iter().map(|p| p.wall_s - batched_s(p)).fold(f64::INFINITY, f64::min);
    let wall_s = batches.iter().sum::<u64>() as f64 / 1e9 + tail_s.max(0.0);
    (batches, wall_s)
}
