//! Brute-force soundness of the coenable analysis (the paper's
//! Theorem 1): if the ALIVENESS formula declares a monitor unnecessary —
//! its most recent event was `e` and the parameters in `dead` are gone —
//! then **no** continuation built from still-possible events can reach
//! the goal. Checked exhaustively on random machines up to the pumping
//! bound.
//!
//! Also the complementary precision check: when ALIVENESS says
//! *necessary*, some continuation over the allowed events reaches the
//! goal from at least one state where `e` can occur (the analysis is
//! event-indexed, so this is existential over states).
//!
//! Each test runs a fixed battery of seeds (the ALIVENESS checks first
//! replay the counterexample proptest once recorded for this file); a
//! failure names its case.

use rv_heap::SplitMix64;
use rv_logic::dfa::{Dfa, DfaBuilder, DEAD};
use rv_logic::event::{Alphabet, EventId};
use rv_logic::param::{EventDef, ParamId, ParamSet};
use rv_logic::verdict::{GoalSet, Verdict};

const EVENTS: usize = 3;
const STATES: usize = 4;

/// A random partial DFA over 3 events and ≤4 states, with random verdicts.
#[derive(Clone, Debug)]
struct RandomDfa {
    /// `trans[s][e]`: target state or `STATES` for "undefined".
    trans: [[usize; EVENTS]; STATES],
    /// Which states report Match.
    matching: [bool; STATES],
}

fn random_dfa(rng: &mut SplitMix64) -> RandomDfa {
    let mut d = RandomDfa { trans: [[0; EVENTS]; STATES], matching: [false; STATES] };
    for row in &mut d.trans {
        for t in row {
            *t = rng.gen_range(STATES + 1);
        }
    }
    for m in &mut d.matching {
        *m = rng.chance(0.5);
    }
    d
}

/// The counterexample proptest shrank and recorded for this file, then
/// one random machine and dead-parameter set per seed in `0..cases`; each
/// comes with a label.
fn cases(cases: u64) -> impl Iterator<Item = (String, RandomDfa, ParamSet)> {
    let recorded = RandomDfa {
        trans: [[0, 0, 1], [0, 0, 0], [0, 0, 0], [0, 0, 0]],
        matching: [false, true, false, false],
    };
    std::iter::once(("recorded machine".to_owned(), recorded, ParamSet(1))).chain((0..cases).map(
        |seed| {
            let mut rng = SplitMix64::new(seed);
            let raw = random_dfa(&mut rng);
            (format!("seed {seed}"), raw, ParamSet(rng.gen_range(4) as u32))
        },
    ))
}

fn build(d: &RandomDfa) -> (Alphabet, Dfa) {
    let alphabet = Alphabet::from_names(&["a", "b", "c"]);
    let mut b = DfaBuilder::new(alphabet.clone());
    for s in 0..STATES {
        b.add_state(if d.matching[s] { Verdict::Match } else { Verdict::Unknown });
    }
    for s in 0..STATES {
        for e in 0..EVENTS {
            if d.trans[s][e] < STATES {
                b.set_transition(s as u32, EventId(e as u16), d.trans[s][e] as u32);
            }
        }
    }
    (alphabet, b.finish(0))
}

/// D: a → {x0}, b → {x1}, c → {x0, x1}.
fn event_def(alphabet: &Alphabet) -> EventDef {
    EventDef::new(
        alphabet,
        &["x0", "x1"],
        vec![
            ParamSet::singleton(ParamId(0)),
            ParamSet::singleton(ParamId(1)),
            ParamSet::singleton(ParamId(0)).with(ParamId(1)),
        ],
    )
}

/// Can any goal verdict be produced from `state` by **one or more**
/// further events whose parameters avoid `dead`, within `bound` steps?
/// Zero-step "reachability" does not count: the verdict at `state` was
/// already reported when the event that led there was processed —
/// ALIVENESS is about reaching the goal *again* (§3: "our interest is in
/// the ability to reach G again in the future").
fn goal_reachable_avoiding(
    dfa: &Dfa,
    def: &EventDef,
    goal: GoalSet,
    state: u32,
    dead: ParamSet,
    bound: usize,
) -> bool {
    let possible = |e: EventId| {
        // An event is only possible if none of its parameters are dead
        // (Definition 6 discussion: a dead object can never appear in a
        // future event).
        def.params_of(e).intersection(dead).is_empty()
    };
    // One explicit first step, then BFS.
    let mut frontier: Vec<u32> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for e in dfa.alphabet().iter() {
        if !possible(e) {
            continue;
        }
        let t = dfa.step(state, e);
        if t != DEAD && seen.insert(t) {
            frontier.push(t);
        }
    }
    for _ in 0..=bound {
        let mut next = Vec::new();
        for &s in &frontier {
            if goal.contains(dfa.verdict(s)) {
                return true;
            }
            for e in dfa.alphabet().iter() {
                if !possible(e) {
                    continue;
                }
                let t = dfa.step(s, e);
                if t != DEAD && seen.insert(t) {
                    next.push(t);
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    false
}

#[test]
fn aliveness_false_implies_goal_unreachable() {
    // Theorem 1, brute-forced: for every reachable state s and event e
    // defined at s, if ALIVENESS(e) is false under `dead`, then the goal
    // is unreachable from σ(s, e) using events avoiding `dead`.
    for (case, raw, dead) in cases(512) {
        let (alphabet, dfa) = build(&raw);
        let def = event_def(&alphabet);
        let goal = GoalSet::MATCH;
        let aliveness = dfa.coenable(goal).lift(&def).aliveness();
        let reachable = dfa.reachable();
        for s in 0..dfa.state_count() {
            if !reachable[s as usize] {
                continue;
            }
            for e in alphabet.iter() {
                let t = dfa.step(s, e);
                if t == DEAD {
                    continue;
                }
                if !aliveness.is_necessary(e, dead) && !dfa.is_terminal_state(t, goal) {
                    assert!(
                        !goal_reachable_avoiding(&dfa, &def, goal, t, dead, STATES + 1),
                        "{case}: state {s} --{e:?}--> {t}: flagged unnecessary but goal \
                         reachable (dead = {dead:?})"
                    );
                }
            }
        }
    }
}

#[test]
fn aliveness_true_has_a_witness_somewhere() {
    // The event-indexed analysis is existential over occurrence states:
    // ALIVENESS(e) true with no parameters dead means some reachable,
    // non-terminal occurrence of e has a goal-reaching continuation —
    // "COENABLE(e) is non-empty ⇒ e occurs on some goal trace".
    for (case, raw, _) in cases(512) {
        let (alphabet, dfa) = build(&raw);
        let def = event_def(&alphabet);
        let goal = GoalSet::MATCH;
        let aliveness = dfa.coenable(goal).lift(&def).aliveness();
        let reachable = dfa.reachable();
        for e in alphabet.iter() {
            if !aliveness.is_necessary(e, ParamSet::EMPTY) {
                continue;
            }
            let mut witness = false;
            for s in 0..dfa.state_count() {
                if !reachable[s as usize] || dfa.is_constant_verdict(s) {
                    continue;
                }
                let t = dfa.step(s, e);
                if t != DEAD
                    && goal_reachable_avoiding(&dfa, &def, goal, t, ParamSet::EMPTY, STATES + 1)
                {
                    witness = true;
                    break;
                }
            }
            assert!(witness, "{case}: ALIVENESS({e:?}) true but no goal-reaching occurrence");
        }
    }
}

#[test]
fn state_aliveness_is_at_least_as_precise_as_event_aliveness() {
    // The Tracematches-style state-indexed analysis refines the
    // event-indexed one (§3 Discussion: "theirs is more precise"):
    // whenever the state analysis keeps a binding in the state reached
    // *after* e, the event analysis must have kept it too.
    for (case, raw, dead) in cases(512) {
        let (alphabet, dfa) = build(&raw);
        let def = event_def(&alphabet);
        let goal = GoalSet::MATCH;
        let event_al = dfa.coenable(goal).lift(&def).aliveness();
        let state_al = dfa.state_aliveness(goal, &def);
        let reachable = dfa.reachable();
        for s in 0..dfa.state_count() {
            if !reachable[s as usize] || dfa.is_constant_verdict(s) {
                continue;
            }
            for e in alphabet.iter() {
                let t = dfa.step(s, e);
                if t == DEAD {
                    continue;
                }
                if state_al.is_necessary(t, dead) {
                    assert!(
                        event_al.is_necessary(e, dead),
                        "{case}: state analysis keeps {t} after {e:?} but event analysis \
                         collects (dead = {dead:?})"
                    );
                }
            }
        }
    }
}

/// Soundness of instrumentation pruning: filtering a trace down to the
/// required events never changes the final verdict (dropped events are
/// invisible self-loops), and `can_trigger == false` means no emittable
/// trace reaches the goal at any point.
#[test]
fn instrumentation_pruning_is_sound() {
    use rv_logic::event::EventSet;
    use rv_logic::instrument::plan;
    for seed in 0..256 {
        let mut rng = SplitMix64::new(seed);
        let raw = random_dfa(&mut rng);
        let emitted = EventSet(1 + rng.gen_range(7) as u64);
        let len = rng.gen_range(10);
        let trace: Vec<u16> = (0..len).map(|_| rng.gen_range(EVENTS) as u16).collect();
        let (_alphabet, dfa) = build(&raw);
        let goal = GoalSet::MATCH;
        let p = plan(&dfa, goal, emitted);
        // Restrict to an emittable trace.
        let full: Vec<EventId> =
            trace.into_iter().map(EventId).filter(|e| emitted.contains(*e)).collect();
        if !p.can_trigger {
            // No prefix of any emittable trace may carry a goal verdict.
            let mut s = dfa.initial();
            assert!(!goal.contains(dfa.verdict(s)), "seed {seed}");
            for &e in &full {
                s = dfa.step(s, e);
                assert!(
                    !goal.contains(dfa.verdict(s)),
                    "seed {seed}: goal reached though can_trigger is false"
                );
            }
        } else {
            let filtered: Vec<EventId> =
                full.iter().copied().filter(|e| p.required.contains(*e)).collect();
            assert_eq!(
                dfa.classify(&full),
                dfa.classify(&filtered),
                "seed {seed}: pruned instrumentation changed the verdict"
            );
        }
    }
}
