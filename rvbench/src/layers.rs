//! Per-layer metrics of the in-process engine, shared by both workload
//! families (the daemon workloads measure them on an in-process replay of
//! the lines they send).

use crate::monitor::{Pass, PHASES};
use crate::report::{median, quantile_u64, Gate, Metrics};

/// What the traced part of a run measured about the engine layers.
pub struct EngineLayers<'a> {
    /// Span-traced passes (NoopObserver engines, spans around `process`).
    pub traced: &'a [Pass],
    /// One pass with `PhaseProfiler` observers attached.
    pub profiled: &'a Pass,
    /// Untraced monitored wall times, seconds.
    pub untraced_s: &'a [f64],
    /// Bare (unmonitored) wall times, seconds, and heap GC from them.
    pub bare_s: &'a [f64],
    pub bare_gc_ms: &'a [f64],
    pub bare_collections: u64,
    pub step_ns: f64,
}

impl EngineLayers<'_> {
    pub fn report(&self, m: &mut Metrics) {
        let (mut hit, mut miss, mut create) = (Vec::new(), Vec::new(), Vec::new());
        let mut busy_s = Vec::new();
        for pass in self.traced {
            if let Some(c) = &pass.calls {
                hit.extend_from_slice(&c.hit);
                miss.extend_from_slice(&c.miss);
                create.extend_from_slice(&c.create);
                busy_s.push(c.busy_ns as f64 / 1e9);
            }
        }
        let calls = (hit.len() + miss.len() + create.len()).max(1) as f64;
        let first = &self.traced[0];
        let stats = first.stats;
        let (m_created, fm, cm) = first
            .fingerprint
            .iter()
            .fold((0, 0, 0), |acc, f| (acc.0 + f[2], acc.1 + f[3], acc.2 + f[4]));

        m.push("logic.step_ns", self.step_ns, "ns");
        m.push("engine.hit_ns_p50", quantile_u64(&mut hit, 0.5), "ns");
        m.push("engine.hit_share", hit.len() as f64 / calls, "ratio");
        m.push("engine.miss_ns_p50", quantile_u64(&mut miss, 0.5), "ns");
        m.push("engine.create_ns_p50", quantile_u64(&mut create, 0.5), "ns");
        m.push("engine.create_ns_p99", quantile_u64(&mut create, 0.99), "ns");
        m.push("engine.create_share", create.len() as f64 / calls, "ratio");
        m.push("engine.busy_s", median(&busy_s), "s");
        m.push("engine.monitors_created", m_created as f64, "count");
        m.push("engine.monitors_flagged", fm as f64, "count");
        m.push("engine.monitors_collected", cm as f64, "count");
        m.push("engine.peak_live_monitors", stats.peak_live_monitors as f64, "count");
        m.push(
            "engine.collected_per_flagged",
            if fm == 0 { 0.0 } else { cm as f64 / fm as f64 },
            "ratio",
        );
        let phases = self.profiled.phases_ms.unwrap_or([0.0; 5]);
        for (i, (_, label)) in PHASES.iter().enumerate() {
            m.push(&format!("engine.phase.{label}_ms"), phases[i], "ms");
        }
        let sweep_ms: Vec<f64> = self.traced.iter().map(|p| p.sweep_ns as f64 / 1e6).collect();
        m.push("sweep.ms", median(&sweep_ms), "ms");
        m.push("sweep.reclaimed", first.sweep_reclaimed as f64, "count");
        m.push("heap.gc_ms", median(self.bare_gc_ms), "ms");
        m.push("heap.collections", self.bare_collections as f64, "count");
        let bare_ms = median(self.bare_s) * 1e3;
        m.push("workloads.bare_ms", bare_ms, "ms");
        m.push("trace.accounted_frac", self.accounted_frac(), "ratio");
    }

    /// The self-check as a gate: spans that miss engine work, or count it
    /// twice, show up as an unaccounted or over-accounted wall time.
    pub fn check(&self, gate: &mut Gate) {
        let frac = self.accounted_frac();
        gate.check((0.3..=1.2).contains(&frac), 1, || {
            format!("engine busy + bare time accounts for {frac:.3} of the traced wall time")
        });
    }

    /// Span-traced monitored wall time over the untraced one, minus one.
    pub fn overhead_pct(&self) -> f64 {
        let traced: Vec<f64> = self.traced.iter().map(|p| p.wall_s).collect();
        (median(&traced) / median(self.untraced_s) - 1.0) * 100.0
    }

    /// The self-check: engine busy time plus the bare program's time
    /// should account for the traced monitored wall time.
    pub fn accounted_frac(&self) -> f64 {
        let busy: Vec<f64> = self
            .traced
            .iter()
            .filter_map(|p| p.calls.as_ref().map(|c| c.busy_ns as f64 / 1e9))
            .collect();
        let traced: Vec<f64> = self.traced.iter().map(|p| p.wall_s).collect();
        (median(&busy) + median(self.bare_s)) / median(&traced)
    }
}
