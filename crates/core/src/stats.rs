//! Engine statistics — the columns of the paper's Figure 10, plus the
//! auxiliary counters the evaluation discusses.

use std::fmt;

/// Counters accumulated by an [`Engine`](crate::Engine).
///
/// The Figure 10 mapping: `events` is E, `monitors_created` is M,
/// `monitors_flagged` is FM, `monitors_collected` is CM.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Parametric events processed (E).
    pub events: u64,
    /// Monitor instances created (M).
    pub monitors_created: u64,
    /// Monitor instances flagged unnecessary by the GC policy (FM).
    pub monitors_flagged: u64,
    /// Monitor instances fully reclaimed (CM).
    pub monitors_collected: u64,
    /// Peak simultaneously-live monitor instances.
    pub peak_live_monitors: usize,
    /// Currently live monitor instances.
    pub live_monitors: usize,
    /// Goal verdicts reported (handler executions).
    pub triggers: u64,
    /// Dead weak keys discovered by indexing structures (Figure 7 events).
    pub dead_keys: u64,
    /// Monitor creations skipped by the enable-set / disable-table
    /// discipline.
    pub creations_skipped: u64,
    /// Dispatches served by the monomorphic lookup cache.
    pub cache_hits: u64,
    /// Monitor creations refused under resource pressure
    /// ([`DegradationPolicy::ShedNewMonitors`](crate::DegradationPolicy)).
    pub shed: u64,
    /// Monitors quarantined after their handler panicked.
    pub quarantined: u64,
    /// Resource-budget violations observed (each also reaches the observer
    /// via `budget_tripped`).
    pub budget_trips: u64,
    /// Degradation-ladder escalations (`degradation_entered` callbacks).
    pub degradations: u64,
}

impl EngineStats {
    /// Accumulates another engine's counters into this one.
    ///
    /// Additive counters sum. `live_monitors` also sums, because merged
    /// engines hold disjoint monitor populations (one engine per property
    /// block). `peak_live_monitors` is a *high-water
    /// mark*, not a flow: the per-engine peaks were almost certainly not
    /// simultaneous, so summing them fabricates a combined peak that never
    /// existed (it would overstate Fig. 9B-style peak-memory numbers). The
    /// honest merge is `max` — a lower bound on the true combined peak that
    /// is exact whenever one engine dominates.
    pub fn merge_from(&mut self, other: &EngineStats) {
        self.events += other.events;
        self.monitors_created += other.monitors_created;
        self.monitors_flagged += other.monitors_flagged;
        self.monitors_collected += other.monitors_collected;
        self.peak_live_monitors = self.peak_live_monitors.max(other.peak_live_monitors);
        self.live_monitors += other.live_monitors;
        self.triggers += other.triggers;
        self.dead_keys += other.dead_keys;
        self.creations_skipped += other.creations_skipped;
        self.cache_hits += other.cache_hits;
        self.shed += other.shed;
        self.quarantined += other.quarantined;
        self.budget_trips += other.budget_trips;
        self.degradations += other.degradations;
    }

    /// Renders every counter as a flat JSON object (hand-rolled: the
    /// workspace is serde-free).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"events\":{},\"monitors_created\":{},\"monitors_flagged\":{},\
             \"monitors_collected\":{},\"peak_live_monitors\":{},\"live_monitors\":{},\
             \"triggers\":{},\"dead_keys\":{},\"creations_skipped\":{},\"cache_hits\":{},\
             \"shed\":{},\"quarantined\":{},\"budget_trips\":{},\"degradations\":{}}}",
            self.events,
            self.monitors_created,
            self.monitors_flagged,
            self.monitors_collected,
            self.peak_live_monitors,
            self.live_monitors,
            self.triggers,
            self.dead_keys,
            self.creations_skipped,
            self.cache_hits,
            self.shed,
            self.quarantined,
            self.budget_trips,
            self.degradations
        )
    }
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "E={} M={} FM={} CM={} peak={} live={} triggers={}",
            self.events,
            self.monitors_created,
            self.monitors_flagged,
            self.monitors_collected,
            self.peak_live_monitors,
            self.live_monitors,
            self.triggers
        )?;
        if self.shed != 0 || self.quarantined != 0 || self.budget_trips != 0 {
            write!(
                f,
                " shed={} quarantined={} trips={} degradations={}",
                self.shed, self.quarantined, self.budget_trips, self.degradations
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shows_fig10_columns() {
        let s = EngineStats { events: 10, monitors_created: 3, ..EngineStats::default() };
        let out = s.to_string();
        assert!(out.contains("E=10"));
        assert!(out.contains("M=3"));
        assert!(out.contains("FM=0"));
        assert!(!out.contains("shed="), "robustness columns only shown when active");
    }

    #[test]
    fn merge_from_sums_every_additive_counter() {
        let mut a = EngineStats {
            events: 1,
            monitors_created: 2,
            monitors_flagged: 3,
            monitors_collected: 4,
            live_monitors: 2,
            triggers: 5,
            dead_keys: 6,
            creations_skipped: 7,
            cache_hits: 8,
            shed: 3,
            quarantined: 9,
            budget_trips: 10,
            degradations: 11,
            ..EngineStats::default()
        };
        let b = EngineStats {
            events: 10,
            monitors_created: 20,
            monitors_flagged: 30,
            monitors_collected: 40,
            live_monitors: 20,
            triggers: 50,
            dead_keys: 60,
            creations_skipped: 70,
            cache_hits: 80,
            shed: 30,
            quarantined: 90,
            budget_trips: 100,
            degradations: 1,
            ..EngineStats::default()
        };
        a.merge_from(&b);
        assert_eq!(a.events, 11);
        assert_eq!(a.monitors_created, 22);
        assert_eq!(a.monitors_flagged, 33);
        assert_eq!(a.monitors_collected, 44);
        assert_eq!(a.live_monitors, 22, "disjoint populations: live instances add up");
        assert_eq!(a.triggers, 55);
        assert_eq!(a.dead_keys, 66);
        assert_eq!(a.creations_skipped, 77);
        assert_eq!(a.cache_hits, 88);
        assert_eq!(a.shed, 33);
        assert_eq!(a.quarantined, 99);
        assert_eq!(a.budget_trips, 110);
        assert_eq!(a.degradations, 12);
    }

    /// Regression test for the peak-aggregation bug: `peak_live_monitors`
    /// is a high-water mark and must merge with `max`, never `+`. The two
    /// peaks here are both nonzero, so the pre-fix summing code reported
    /// 12 — a combined peak that never existed.
    #[test]
    fn merge_from_takes_max_of_high_water_marks() {
        let mut a = EngineStats { peak_live_monitors: 7, ..EngineStats::default() };
        let b = EngineStats { peak_live_monitors: 5, ..EngineStats::default() };
        a.merge_from(&b);
        assert_eq!(a.peak_live_monitors, 7, "peaks do not add: max(7, 5) = 7");
        // Merging in the other direction must raise the mark.
        let mut c = EngineStats { peak_live_monitors: 5, ..EngineStats::default() };
        c.merge_from(&EngineStats { peak_live_monitors: 7, ..EngineStats::default() });
        assert_eq!(c.peak_live_monitors, 7);
        // Merging an idle engine leaves the mark alone.
        c.merge_from(&EngineStats::default());
        assert_eq!(c.peak_live_monitors, 7);
    }

    #[test]
    fn display_and_json_surface_robustness_counters() {
        let s = EngineStats { shed: 2, quarantined: 1, budget_trips: 4, ..EngineStats::default() };
        let out = s.to_string();
        assert!(out.contains("shed=2"));
        assert!(out.contains("quarantined=1"));
        let json = s.to_json();
        for key in ["\"shed\":2", "\"quarantined\":1", "\"budget_trips\":4", "\"degradations\":0"] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
