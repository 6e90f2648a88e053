//! The central correctness property of the whole system: on random
//! parametric traces with random object lifetimes, the indexing-tree
//! engine — under **every** GC policy — reports exactly the goal verdicts
//! of the paper's Figure 5 reference algorithm.
//!
//! This simultaneously checks trace slicing (Definition 6), the enable-set
//! creation discipline (no spurious or missing monitors), and GC
//! soundness (Theorem 1: collected monitors could never have triggered).
//!
//! Each test first replays the counterexamples proptest once shrank for
//! this file, then a fixed battery of seeds; a failure names its case.

use std::collections::HashSet;

use rv_monitor::core::{monitor_trace, Binding, Engine, EngineConfig, GcPolicy, Trigger};
use rv_monitor::heap::{Heap, HeapConfig, ObjId, SplitMix64};
use rv_monitor::logic::{AnyFormalism, EventId, ParamId};
use rv_monitor::props::{compiled, Property};
use rv_monitor::spec::CompiledSpec;
use rv_monitor::tracematches::TraceMatch;

const ALL_POLICIES: [GcPolicy; 3] =
    [GcPolicy::None, GcPolicy::AllParamsDead, GcPolicy::CoenableLazy];

/// A step of the random program: emit an event over live objects, kill an
/// object, or run a heap collection.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Emit event `event` binding the object-pool slots in `picks`.
    Emit { event: usize, picks: [usize; 3] },
    /// Unroot pool slot `slot` (a later GC reclaims it).
    Kill { slot: usize },
    /// Run a collection.
    Collect,
}

/// A random step, weighted 6:1:1 in declaration order.
fn random_step(rng: &mut SplitMix64) -> Step {
    match rng.gen_range(8) {
        0..=5 => Step::Emit {
            event: rng.next_u64() as usize,
            picks: std::array::from_fn(|_| rng.next_u64() as usize),
        },
        6 => Step::Kill { slot: rng.next_u64() as usize },
        _ => Step::Collect,
    }
}

/// `Step::Emit` from raw draws (the `as usize` keeps the literals below
/// portable).
fn emit(event: u64, picks: [u64; 3]) -> Step {
    Step::Emit { event: event as usize, picks: picks.map(|p| p as usize) }
}

fn kill(slot: u64) -> Step {
    Step::Kill { slot: slot as usize }
}

/// The counterexamples proptest shrank and recorded for this file when it
/// still drove these tests.
fn recorded_programs() -> [Vec<Step>; 3] {
    [
        vec![
            emit(5295374097210139343, [13913756821000440876, 0, 0]),
            emit(249106707861239460, [44492, 7551313331696332524, 14586432440417651573]),
        ],
        vec![
            kill(5808837202497713271),
            emit(18063541398440362708, [1148499711086192393, 0, 0]),
            kill(7144061056008268638),
            emit(
                16944361371840322875,
                [8889114918459233024, 14153888679376494452, 9338189107487511217],
            ),
            emit(
                532881259264683027,
                [17601354086801476274, 2372902386577865512, 11785800413974196067],
            ),
            emit(
                13858524646054867609,
                [4703733884301470406, 16080436492497602288, 875598879688148592],
            ),
            emit(
                13127003352873844609,
                [10477167880583335968, 18040733549980348389, 7899056697037207990],
            ),
            kill(4886099438842680053),
            kill(16355227265972800622),
            emit(
                14706921886817506955,
                [4441808380773079732, 18092422712029516594, 8433976005639397057],
            ),
        ],
        vec![
            kill(3622161659270912502),
            emit(4501055879075898068, [13951485171023459207, 30040627182203300, 0]),
            emit(
                12277873134455274100,
                [15356499650255338835, 17579152664910478111, 11837845049122271112],
            ),
            kill(8075122827834852149),
            emit(
                4044116969399495073,
                [4396408763836435497, 12276891906494032845, 2292307495774372590],
            ),
            kill(10010822151446402596),
            emit(
                16900132567189958655,
                [2873567774750112051, 16904555103260441268, 11026637060869656258],
            ),
            emit(
                7040602914312698005,
                [13198741346082678006, 11963959310574011623, 9081398131961162443],
            ),
            emit(
                9072493387106437563,
                [17241658865729580860, 17613481382726240637, 8493337498342173244],
            ),
            emit(
                15333235147749591598,
                [14715690901942422328, 14036268126716344362, 9007888130802772286],
            ),
        ],
    ]
}

/// Runs `check` on the recorded programs, then on `cases` seeded programs
/// of fewer than `max_len` steps. `check` gets a label naming the case.
fn for_each_program(cases: u64, max_len: usize, mut check: impl FnMut(&str, &[Step])) {
    for (i, steps) in recorded_programs().iter().enumerate() {
        check(&format!("recorded program {i}"), steps);
    }
    for seed in 0..cases {
        let mut rng = SplitMix64::new(seed);
        let steps: Vec<Step> = (0..rng.gen_range(max_len)).map(|_| random_step(&mut rng)).collect();
        check(&format!("seed {seed}"), &steps);
    }
}

/// Replays `steps` against a fresh heap, handing every emitted event to
/// `sink` as it happens. Returns the recorded trace.
fn replay(
    steps: &[Step],
    spec: &CompiledSpec,
    mut sink: impl FnMut(&Heap, EventId, Binding),
) -> Vec<(EventId, Binding)> {
    const POOL: usize = 6;
    let mut heap = Heap::new(HeapConfig::manual());
    let class = heap.register_class("Object");
    // Allocate in a frame that exits immediately: liveness is governed
    // solely by the pins, so Kill + Collect really reclaims (and the GC
    // paths of the engine are genuinely exercised).
    let frame = heap.enter_frame();
    let pool: Vec<ObjId> = (0..POOL).map(|_| heap.alloc(class)).collect();
    for &o in &pool {
        heap.pin(o);
    }
    heap.exit_frame(frame);
    let mut alive = [true; POOL];
    let mut trace = Vec::new();
    for &step in steps {
        match step {
            Step::Emit { event, picks } => {
                let e = EventId((event % spec.alphabet.len()) as u16);
                let params = &spec.event_params[e.as_usize()];
                // Bind each parameter to a live pool object; skip the
                // event if too few are alive.
                let live: Vec<ObjId> =
                    pool.iter().zip(alive.iter()).filter_map(|(&o, &a)| a.then_some(o)).collect();
                if live.is_empty() {
                    continue;
                }
                let pairs: Vec<(ParamId, ObjId)> = params
                    .iter()
                    .enumerate()
                    .map(|(k, &p)| (p, live[picks[k.min(2)] % live.len()]))
                    .collect();
                // Distinct parameters may pick the same object — that is a
                // legal parametric event; dedup only identical params.
                let binding = Binding::from_pairs(&pairs);
                trace.push((e, binding));
                sink(&heap, e, binding);
            }
            Step::Kill { slot } => {
                let s = slot % POOL;
                if alive[s] {
                    alive[s] = false;
                    heap.unpin(pool[s]);
                }
            }
            Step::Collect => {
                // Dead pool slots keep their stale ids; they are never
                // used again because `alive` is false.
                heap.collect();
            }
        }
    }
    trace
}

/// First report per binding. The oracle re-fires absorbing goal verdicts
/// on every event, while the engine terminates such monitors after the
/// first report.
fn first_reports(ts: &[Trigger]) -> Vec<Trigger> {
    let mut seen = HashSet::new();
    ts.iter().filter(|t| seen.insert(t.binding)).copied().collect()
}

fn check_property(case: &str, property: Property, steps: &[Step], policy: GcPolicy) {
    let spec = compiled(property).expect("bundled property");
    for prop in &spec.properties {
        let mut engine = Engine::new(
            prop.formalism.clone(),
            spec.event_def.clone(),
            prop.goal,
            EngineConfig { policy, record_triggers: true, ..EngineConfig::default() },
        );
        let trace = replay(steps, &spec, |heap, e, b| engine.process(heap, e, b));
        let oracle = monitor_trace(&prop.formalism, prop.goal, &trace);
        // Order within a step is unspecified (both sides iterate
        // hash-based structures), so sort.
        let sorted = |ts: &[Trigger]| {
            let mut v = first_reports(ts);
            v.sort();
            v
        };
        assert_eq!(
            sorted(engine.triggers()),
            sorted(&oracle.triggers),
            "{case}: {property:?} {policy:?} block {:?} diverged on trace {trace:?}",
            prop.kind
        );
    }
}

#[test]
fn unsafe_iter_matches_oracle_under_every_policy() {
    for_each_program(96, 60, |case, steps| {
        for policy in ALL_POLICIES {
            check_property(case, Property::UnsafeIter, steps, policy);
        }
    });
}

#[test]
fn has_next_matches_oracle_under_every_policy() {
    for_each_program(96, 60, |case, steps| {
        for policy in ALL_POLICIES {
            check_property(case, Property::HasNext, steps, policy);
        }
    });
}

#[test]
fn unsafe_map_iter_matches_oracle() {
    for_each_program(96, 50, |case, steps| {
        check_property(case, Property::UnsafeMapIter, steps, GcPolicy::CoenableLazy);
        check_property(case, Property::UnsafeMapIter, steps, GcPolicy::AllParamsDead);
    });
}

#[test]
fn unsafe_sync_coll_matches_oracle() {
    for_each_program(96, 50, |case, steps| {
        check_property(case, Property::UnsafeSyncColl, steps, GcPolicy::CoenableLazy);
    });
}

#[test]
fn hash_set_matches_oracle() {
    for_each_program(96, 50, |case, steps| {
        check_property(case, Property::HashSet, steps, GcPolicy::CoenableLazy);
    });
}

#[test]
fn safe_lock_cfg_matches_oracle() {
    // The CFG property exercises the Earley monitor and the permissive
    // creation fallback.
    for_each_program(96, 30, |case, steps| {
        check_property(case, Property::SafeLock, steps, GcPolicy::CoenableLazy);
        check_property(case, Property::SafeLock, steps, GcPolicy::None);
    });
}

/// The Tracematches-style baseline must agree with the oracle too (it is
/// a different engine entirely, so this exercises its disjunct semantics,
/// slice gating, and retirement tombstones).
fn check_tracematches(case: &str, property: Property, steps: &[Step]) {
    let spec = compiled(property).expect("bundled property");
    let prop = &spec.properties[0];
    let AnyFormalism::Dfa(dfa) = &prop.formalism else {
        panic!("tracematches check needs a finite-state property");
    };
    let mut tm = TraceMatch::new(dfa.clone(), spec.event_def.clone(), prop.goal);
    let trace = replay(steps, &spec, |_, _, _| {});
    let tm_trace = replay(steps, &spec, |heap, e, b| tm.process(heap, e, b));
    assert_eq!(trace, tm_trace, "{case}: replays must be deterministic");
    let oracle = monitor_trace(&prop.formalism, prop.goal, &trace);
    assert_eq!(
        tm.stats().triggers,
        first_reports(&oracle.triggers).len() as u64,
        "{case}: {property:?} TM diverged on trace {trace:?}"
    );
}

#[test]
fn tracematches_matches_oracle_on_unsafe_iter() {
    for_each_program(64, 50, |case, steps| {
        check_tracematches(case, Property::UnsafeIter, steps);
    });
}

#[test]
fn tracematches_matches_oracle_on_unsafe_sync_coll() {
    for_each_program(64, 50, |case, steps| {
        check_tracematches(case, Property::UnsafeSyncColl, steps);
    });
}
