//! The differential chaos harness: engine-under-fault-injection versus
//! the Figure 5 reference oracle.
//!
//! [`run_block`] drives one property block of a compiled spec over a
//! seed-reproducible random workload on a
//! [`ChaosHeap`](rv_heap::ChaosHeap), which forces collections at
//! adversarial points, kills weak references early (but legally: only
//! already-unreachable objects die), and injects allocation-pressure
//! spikes. Because the engine observes the heap solely through liveness
//! queries, none of this may change its verdicts — Theorem 1 says a
//! collected or flagged monitor could never have triggered. The harness
//! asserts exactly that: the engine's goal reports equal the oracle's on
//! the same parametric trace, and [`Engine::check_invariants`] holds after
//! every injected fault.
//!
//! The same driver backs `rvmon chaos`, the fig10 `--chaos-seed` flag,
//! and the `chaos_differential` integration suite.

use std::collections::HashSet;

use rv_heap::{ChaosHeap, ObjId, SplitMix64};
use rv_logic::{AnyFormalism, EventId};
use rv_spec::CompiledSpec;

use crate::binding::{Binding, BindingHash};
use crate::engine::{Engine, EngineConfig, GcPolicy};
use crate::error::EngineError;
use crate::reference::{monitor_trace, Trigger};
use crate::stats::EngineStats;

/// Live parameter objects available to the event generator at any time.
const POOL: usize = 6;

/// Per-event probability of killing (and replacing) a pool object instead
/// of emitting an event.
const KILL_PROB: f64 = 0.12;

/// The result of one differential chaos run.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// Parametric events actually emitted.
    pub trace_len: usize,
    /// Engine goal reports: first report per binding, sorted.
    pub engine_triggers: Vec<Trigger>,
    /// Oracle goal reports, deduplicated and sorted the same way.
    pub oracle_triggers: Vec<Trigger>,
    /// Engine statistics at the end of the run.
    pub stats: EngineStats,
    /// What the chaos heap injected (for vacuity checks: a run with no
    /// faults proves nothing).
    pub chaos: rv_heap::ChaosStats,
}

impl ChaosOutcome {
    /// Whether the engine under chaos agreed with the reference oracle.
    #[must_use]
    pub fn verdicts_match(&self) -> bool {
        self.engine_triggers == self.oracle_triggers
    }
}

/// First report per binding, sorted — the comparison the oracle suite
/// established: the oracle re-fires absorbing verdicts every event while
/// the engine retires such monitors after the first report, and order
/// within a step is unspecified on both sides.
pub(crate) fn dedup(ts: &[Trigger]) -> Vec<Trigger> {
    let mut seen: HashSet<Binding, BindingHash> = HashSet::default();
    let mut v: Vec<Trigger> = ts.iter().filter(|t| seen.insert(t.binding)).copied().collect();
    v.sort();
    v
}

/// Runs property block `block` of `spec` under `policy` on a chaos heap
/// seeded with `seed`, emitting `events` random parametric events, and
/// replays the recorded trace through the Figure 5 oracle.
///
/// Invariants are re-validated after every event (hence after every
/// injected fault) and once more after the final sweep.
///
/// # Errors
///
/// Any [`EngineError`] the engine or [`Engine::check_invariants`] reports
/// — under correct operation, none.
///
/// # Panics
///
/// Panics if `block` is out of range for `spec`.
pub fn run_block(
    spec: &CompiledSpec,
    block: usize,
    policy: GcPolicy,
    seed: u64,
    events: usize,
) -> Result<ChaosOutcome, EngineError> {
    let prop = &spec.properties[block];
    let config = EngineConfig { policy, record_triggers: true, ..EngineConfig::default() };
    let mut engine: Engine<AnyFormalism> =
        Engine::new(prop.formalism.clone(), spec.event_def.clone(), prop.goal, config);
    // The heap takes the seed itself; the event generator gets a distinct
    // stream so its choices never correlate with the injections.
    let mut chaos = ChaosHeap::new(seed);
    let mut rng =
        SplitMix64::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(block as u64 + 1));
    let class = chaos.heap_mut().register_class("Object");
    // Pool objects are pinned (never on the root stack), so liveness is
    // governed solely by the pins: a killed object is immediately
    // unreachable and fair game for the chaos injections.
    let frame = chaos.heap_mut().enter_frame();
    let mut pool: Vec<ObjId> = (0..POOL).map(|_| chaos.heap_mut().alloc(class)).collect();
    for &o in &pool {
        chaos.heap_mut().pin(o);
    }
    chaos.heap_mut().exit_frame(frame);

    let mut trace: Vec<(EventId, Binding)> = Vec::new();
    while trace.len() < events {
        if rng.chance(KILL_PROB) {
            // Kill one pool object and replace it with a fresh one; the
            // old object becomes unreachable, so the chaos heap may doom
            // it mid-event or reclaim it at the next collection.
            let slot = rng.gen_range(POOL);
            chaos.heap_mut().unpin(pool[slot]);
            let f = chaos.heap_mut().enter_frame();
            let fresh = chaos.heap_mut().alloc(class);
            chaos.heap_mut().pin(fresh);
            chaos.heap_mut().exit_frame(f);
            pool[slot] = fresh;
            continue;
        }
        let e = EventId(rng.gen_range(spec.alphabet.len()) as u16);
        let pairs: Vec<_> = spec.event_params[e.as_usize()]
            .iter()
            .map(|&p| (p, pool[rng.gen_range(POOL)]))
            .collect();
        let binding = Binding::from_pairs(&pairs);
        trace.push((e, binding));
        chaos.pre_event();
        engine.try_process(chaos.heap(), e, binding)?;
        chaos.post_event();
        engine.check_invariants(chaos.heap())?;
    }
    engine.finish(chaos.heap());
    engine.check_invariants(chaos.heap())?;

    let oracle = monitor_trace(&prop.formalism, prop.goal, &trace);
    Ok(ChaosOutcome {
        trace_len: trace.len(),
        engine_triggers: dedup(engine.triggers()),
        oracle_triggers: dedup(&oracle.triggers),
        stats: engine.stats(),
        chaos: chaos.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn has_next_spec() -> CompiledSpec {
        CompiledSpec::from_source(
            r#"HasNext(Iterator i) {
                event hasnexttrue(i);
                event hasnextfalse(i);
                event next(i);
                fsm:
                    unknown [ hasnexttrue -> more  hasnextfalse -> none  next -> error ]
                    more [ hasnexttrue -> more  next -> unknown ]
                    none [ hasnextfalse -> none  next -> error ]
                    error []
                @error { report "bad"; }
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn chaos_runs_agree_with_the_oracle_under_every_policy() {
        let spec = has_next_spec();
        for policy in [GcPolicy::None, GcPolicy::AllParamsDead, GcPolicy::CoenableLazy] {
            for seed in [1, 2] {
                let out = run_block(&spec, 0, policy, seed, 256).unwrap();
                assert!(
                    out.verdicts_match(),
                    "{policy:?} seed {seed}: engine {:?} vs oracle {:?}",
                    out.engine_triggers,
                    out.oracle_triggers
                );
                assert_eq!(out.trace_len, 256);
            }
        }
    }

    /// Regression test for a bug the chaos harness found: when the final
    /// event of a match is itself the join-creating event (so its coenable
    /// set is empty and `ALIVENESS(e) = false`), the old "born dead" veto
    /// suppressed the creation under [`GcPolicy::CoenableLazy`] — and with
    /// it the trigger the creating step would have fired.
    #[test]
    fn final_join_event_with_empty_coenable_still_triggers() {
        use crate::engine::EngineConfig;
        use rv_heap::{Heap, HeapConfig};
        use rv_logic::ParamId;

        let spec = CompiledSpec::from_source(
            r#"UnsafeSyncMap(Map m, Collection c, Iterator i) {
                event sync(m);
                event createset(m, c);
                event asynccreateiter(c, i);
                event synccreateiter(c, i);
                event accessiter(i);
                ere: sync createset asynccreateiter
                   | sync createset synccreateiter accessiter
                @match { report "bad"; }
            }"#,
        )
        .unwrap();
        let prop = &spec.properties[0];
        let config = EngineConfig {
            policy: GcPolicy::CoenableLazy,
            record_triggers: true,
            ..EngineConfig::default()
        };
        let mut engine: Engine<AnyFormalism> =
            Engine::new(prop.formalism.clone(), spec.event_def.clone(), prop.goal, config);
        let mut heap = Heap::new(HeapConfig::manual());
        let cls = heap.register_class("Object");
        let _f = heap.enter_frame();
        let (m, c, i) = (heap.alloc(cls), heap.alloc(cls), heap.alloc(cls));
        let ev = |name: &str| spec.alphabet.lookup(name).unwrap();
        let (pm, pc, pi) = (ParamId(0), ParamId(1), ParamId(2));
        engine.try_process(&heap, ev("sync"), Binding::from_pairs(&[(pm, m)])).unwrap();
        engine
            .try_process(&heap, ev("createset"), Binding::from_pairs(&[(pm, m), (pc, c)]))
            .unwrap();
        engine
            .try_process(&heap, ev("asynccreateiter"), Binding::from_pairs(&[(pc, c), (pi, i)]))
            .unwrap();
        assert_eq!(engine.stats().triggers, 1, "{:?}", engine.stats());
    }

    #[test]
    fn chaos_runs_are_not_vacuous_and_are_reproducible() {
        let spec = has_next_spec();
        let a = run_block(&spec, 0, GcPolicy::CoenableLazy, 7, 384).unwrap();
        let b = run_block(&spec, 0, GcPolicy::CoenableLazy, 7, 384).unwrap();
        assert_eq!(a.engine_triggers, b.engine_triggers, "same seed, same run");
        assert_eq!(a.chaos, b.chaos);
        assert!(a.chaos.dooms > 0, "faults must actually be injected: {:?}", a.chaos);
        assert!(a.chaos.forced_collects > 0, "{:?}", a.chaos);
        let c = run_block(&spec, 0, GcPolicy::CoenableLazy, 8, 384).unwrap();
        assert_ne!(a.chaos, c.chaos, "different seeds must diverge");
    }
}
