//! A direct transliteration of the paper's Figure 5 monitoring algorithm,
//! used as the *oracle* for the indexing-tree engine.
//!
//! `MONITOR(M)` maintains the table `Δ` of monitor states indexed by
//! parameter instances and the set `Θ` of known instances, joining every
//! incoming event instance with all compatible known instances. It is
//! O(|Θ|) per event and keeps everything forever — exactly what the real
//! engine must *not* do — but it defines the ground truth: every verdict
//! the optimized engine reports must match this table, and every goal
//! verdict this table reaches must be reported by the engine (GC
//! soundness, Theorem 1).

use std::collections::HashMap;

use rv_logic::{EventId, Formalism, GoalSet, Verdict};

use crate::binding::{Binding, BindingHash};

/// One goal-verdict occurrence: the engine and the oracle must agree on
/// these exactly.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, PartialOrd, Ord)]
pub struct Trigger {
    /// Zero-based index of the event in the parametric trace.
    pub step: usize,
    /// The parameter instance whose slice reached the goal.
    pub binding: Binding,
    /// The goal verdict reached.
    pub verdict: Verdict,
}

/// The result of running the reference algorithm.
#[derive(Clone, Debug)]
pub struct ReferenceRun {
    /// Final verdict per known parameter instance (the `Γ` table).
    pub verdicts: HashMap<Binding, Verdict, BindingHash>,
    /// Every goal verdict, in trace order.
    pub triggers: Vec<Trigger>,
    /// `|Θ|` at the end (including `⊥`).
    pub instances: usize,
}

/// Runs Figure 5's `MONITOR(M)` over a parametric trace, under the
/// *termination* refinement every practical system applies: a monitor that
/// reports a goal verdict it can never produce again is retired, and
/// instances whose state is inherited from a retired (terminal) monitor
/// never report — they could only restate an already-reported verdict.
/// Without this refinement absorbing verdicts would re-fire on every
/// event, which no real handler semantics wants.
///
/// Each trace element is `(e, θ)`; callers are responsible for `θ` being
/// `D`-consistent (`dom(θ) = D(e)`), as Definition 4 requires.
#[must_use]
pub fn monitor_trace<F: Formalism>(
    formalism: &F,
    goal: GoalSet,
    trace: &[(EventId, Binding)],
) -> ReferenceRun {
    // Δ and Θ; Θ is join-closed at all times (line 7 adds all joins), which
    // makes `max {θ'' ∈ Θ | θ'' ⊑ θ'}` well-defined: the candidates are
    // closed under ⊔, hence directed, hence have a unique maximum.
    let mut delta: HashMap<Binding, F::State, BindingHash> = HashMap::default();
    delta.insert(Binding::BOTTOM, formalism.initial_state());
    let mut theta: Vec<Binding> = vec![Binding::BOTTOM];
    let mut verdicts: HashMap<Binding, Verdict, BindingHash> = HashMap::default();
    // Instances whose state was terminal at creation: their slices are
    // continuations of an already-settled verdict.
    let mut born_dead: HashMap<Binding, bool, BindingHash> = HashMap::default();
    born_dead.insert(Binding::BOTTOM, false);
    let mut triggers = Vec::new();

    for (step, &(event, ref inst)) in trace.iter().enumerate() {
        // {θ} ⊔ Θ — all joins of the event instance with known instances.
        let mut joins: Vec<Binding> = Vec::new();
        for &known in &theta {
            if let Some(j) = inst.lub(known) {
                if !joins.contains(&j) {
                    joins.push(j);
                }
            }
        }
        // Line 4 reads the *pre-event* Δ; stage updates and apply at once.
        let mut staged: Vec<(Binding, F::State, bool)> = Vec::with_capacity(joins.len());
        for &join in &joins {
            let max = theta
                .iter()
                .copied()
                .filter(|t| t.less_informative(join))
                .max_by_key(|t| t.domain().len())
                .expect("⊥ is always a candidate");
            let fresh = !delta.contains_key(&join);
            let dead = born_dead[&max]
                || (fresh && formalism.is_terminal(&delta[&max], goal))
                || (!fresh && born_dead[&join]);
            let mut state = delta[&max].clone();
            let verdict = formalism.step(&mut state, event);
            staged.push((join, state, dead));
            verdicts.insert(join, verdict);
            if goal.contains(verdict) && !dead {
                triggers.push(Trigger { step, binding: join, verdict });
            }
        }
        for (join, state, dead) in staged {
            if !theta.contains(&join) {
                theta.push(join);
            }
            delta.insert(join, state);
            born_dead.insert(join, dead);
        }
    }

    ReferenceRun { verdicts, triggers, instances: theta.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_heap::{Heap, HeapConfig, ObjId};
    use rv_logic::ere::unsafe_iter_ere;
    use rv_logic::{Alphabet, ParamId};

    struct Fixture {
        #[allow(dead_code)]
        heap: Heap,
        dfa: rv_logic::dfa::Dfa,
        alphabet: Alphabet,
        objs: Vec<ObjId>,
    }

    fn fixture() -> Fixture {
        let alphabet = Alphabet::from_names(&["create", "update", "next"]);
        let dfa = unsafe_iter_ere(&alphabet).compile(&alphabet, 1_000).unwrap();
        let mut heap = Heap::new(HeapConfig::manual());
        let cls = heap.register_class("Obj");
        let frame = heap.enter_frame();
        let objs = (0..4).map(|_| heap.alloc(cls)).collect();
        let _keep_rooted = frame; // never exited: objects stay rooted
        Fixture { heap, dfa, alphabet, objs }
    }

    const C: ParamId = ParamId(0);
    const I: ParamId = ParamId(1);

    #[test]
    fn reproduces_the_papers_slicing_example() {
        // Trace: update⟨c1⟩ update⟨c2⟩ create⟨c1,i1⟩ next⟨i1⟩ (§2).
        let f = fixture();
        let ev = |n: &str| f.alphabet.lookup(n).unwrap();
        let c1 = f.objs[0];
        let c2 = f.objs[1];
        let i1 = f.objs[2];
        let trace = vec![
            (ev("update"), Binding::from_pairs(&[(C, c1)])),
            (ev("update"), Binding::from_pairs(&[(C, c2)])),
            (ev("create"), Binding::from_pairs(&[(C, c1), (I, i1)])),
            (ev("next"), Binding::from_pairs(&[(I, i1)])),
        ];
        let run = monitor_trace(&f.dfa, GoalSet::MATCH, &trace);
        // Slices: ⟨c1⟩ = "update", ⟨c2⟩ = "update", ⟨c1,i1⟩ = "update
        // create next", ⟨i1⟩ = "next".
        let b_c1 = Binding::from_pairs(&[(C, c1)]);
        let b_c2 = Binding::from_pairs(&[(C, c2)]);
        let b_c1i1 = Binding::from_pairs(&[(C, c1), (I, i1)]);
        let b_i1 = Binding::from_pairs(&[(I, i1)]);
        assert_eq!(run.verdicts[&b_c1], Verdict::Unknown);
        assert_eq!(run.verdicts[&b_c2], Verdict::Unknown);
        assert_eq!(run.verdicts[&b_c1i1], Verdict::Unknown, "no update after create yet");
        assert_eq!(run.verdicts[&b_i1], Verdict::Fail, "bare next can never match");
        assert!(run.triggers.is_empty());
        // Θ: ⊥, c1, c2, (c1,i1), i1, and the join (c2,i1).
        assert_eq!(run.instances, 6);
    }

    #[test]
    fn detects_the_unsafe_iteration() {
        let f = fixture();
        let ev = |n: &str| f.alphabet.lookup(n).unwrap();
        let c1 = f.objs[0];
        let i1 = f.objs[2];
        let trace = vec![
            (ev("create"), Binding::from_pairs(&[(C, c1), (I, i1)])),
            (ev("next"), Binding::from_pairs(&[(I, i1)])),
            (ev("update"), Binding::from_pairs(&[(C, c1)])),
            (ev("next"), Binding::from_pairs(&[(I, i1)])),
        ];
        let run = monitor_trace(&f.dfa, GoalSet::MATCH, &trace);
        assert_eq!(run.triggers.len(), 1);
        let t = run.triggers[0];
        assert_eq!(t.step, 3);
        assert_eq!(t.binding, Binding::from_pairs(&[(C, c1), (I, i1)]));
        assert_eq!(t.verdict, Verdict::Match);
    }

    #[test]
    fn events_on_other_objects_do_not_leak_across_slices() {
        let f = fixture();
        let ev = |n: &str| f.alphabet.lookup(n).unwrap();
        let (c1, c2, i1, i2) = (f.objs[0], f.objs[1], f.objs[2], f.objs[3]);
        // c2 is updated, but i1 iterates c1: no match anywhere.
        let trace = vec![
            (ev("create"), Binding::from_pairs(&[(C, c1), (I, i1)])),
            (ev("create"), Binding::from_pairs(&[(C, c2), (I, i2)])),
            (ev("update"), Binding::from_pairs(&[(C, c2)])),
            (ev("next"), Binding::from_pairs(&[(I, i1)])),
        ];
        let run = monitor_trace(&f.dfa, GoalSet::MATCH, &trace);
        assert!(run.triggers.is_empty());
        // But updating c1 then using i1 matches.
        let trace2 = vec![
            (ev("create"), Binding::from_pairs(&[(C, c1), (I, i1)])),
            (ev("update"), Binding::from_pairs(&[(C, c1)])),
            (ev("next"), Binding::from_pairs(&[(I, i1)])),
        ];
        let run2 = monitor_trace(&f.dfa, GoalSet::MATCH, &trace2);
        assert_eq!(run2.triggers.len(), 1);
    }

    #[test]
    fn update_before_create_is_remembered_through_the_less_informative_instance() {
        // update⟨c1⟩ create⟨c1,i1⟩ next⟨i1⟩ — the ⟨c1,i1⟩ slice is
        // "update create next": an ? trace (update* create next*).
        let f = fixture();
        let ev = |n: &str| f.alphabet.lookup(n).unwrap();
        let (c1, i1) = (f.objs[0], f.objs[2]);
        let trace = vec![
            (ev("update"), Binding::from_pairs(&[(C, c1)])),
            (ev("create"), Binding::from_pairs(&[(C, c1), (I, i1)])),
            (ev("next"), Binding::from_pairs(&[(I, i1)])),
            // A second update and next: now it matches.
            (ev("update"), Binding::from_pairs(&[(C, c1)])),
            (ev("next"), Binding::from_pairs(&[(I, i1)])),
        ];
        let run = monitor_trace(&f.dfa, GoalSet::MATCH, &trace);
        assert_eq!(run.triggers.len(), 1);
        assert_eq!(run.triggers[0].step, 4);
    }
}
