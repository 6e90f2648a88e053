//! A Tracematches-style baseline engine (Allan et al. \[4\], Avgustinov et
//! al. \[8\]) for the paper's §5 comparison.
//!
//! Tracematches differs from the RV/JavaMOP architecture in two ways the
//! evaluation leans on:
//!
//! 1. **Regex only.** The property is hardwired to a finite automaton; the
//!    CFG plugin has no counterpart here (the paper: a state-based GC
//!    "could not be used for context-free properties because the state
//!    space is unbounded").
//! 2. **Constraint/disjunct representation.** Instead of one monitor
//!    object per parameter instance reached through indexing trees, each
//!    automaton state carries the *set of partial bindings* (disjuncts)
//!    currently in that state. Every event performs linear compatibility
//!    scans over these sets — the architectural source of Tracematches'
//!    higher runtime overhead — while its garbage collection is *state
//!    indexed* and more precise ("coenable sets indexed by state rather
//!    than events", §3 Discussion), which is why its memory usage is
//!    sometimes lower than RV's.
//!
//! # Example
//!
//! ```
//! use rv_heap::{Heap, HeapConfig};
//! use rv_logic::ere::unsafe_iter_ere;
//! use rv_logic::{Alphabet, EventDef, GoalSet, ParamId, ParamSet};
//! use rv_tracematches::TraceMatch;
//! use rv_core::Binding;
//!
//! let alphabet = Alphabet::from_names(&["create", "update", "next"]);
//! let dfa = unsafe_iter_ere(&alphabet).compile(&alphabet, 1_000)?;
//! let (c, i) = (ParamId(0), ParamId(1));
//! let def = EventDef::new(
//!     &alphabet,
//!     &["c", "i"],
//!     vec![ParamSet::singleton(c).with(i), ParamSet::singleton(c), ParamSet::singleton(i)],
//! );
//! let mut tm = TraceMatch::new(dfa, def, GoalSet::MATCH);
//!
//! let mut heap = Heap::new(HeapConfig::manual());
//! let cls = heap.register_class("Obj");
//! let frame = heap.enter_frame();
//! let coll = heap.alloc(cls);
//! let iter = heap.alloc(cls);
//! let ev = |n: &str| alphabet.lookup(n).unwrap();
//! tm.process(&heap, ev("create"), Binding::from_pairs(&[(c, coll), (i, iter)]));
//! tm.process(&heap, ev("update"), Binding::from_pairs(&[(c, coll)]));
//! tm.process(&heap, ev("next"), Binding::from_pairs(&[(i, iter)]));
//! assert_eq!(tm.stats().triggers, 1);
//! heap.exit_frame(frame);
//! # Ok::<(), rv_logic::ere::EreError>(())
//! ```

use std::collections::HashSet;

use rv_core::{Binding, BindingHash};
use rv_heap::Heap;
use rv_logic::dfa::{Dfa, StateAliveness, DEAD};
use rv_logic::{EventDef, EventId, GoalSet, ParamSet};

/// Statistics for a [`TraceMatch`] run, mirroring the RV engine's counters
/// where they make sense.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceMatchStats {
    /// Events processed.
    pub events: u64,
    /// Disjuncts (partial bindings) created.
    pub disjuncts_created: u64,
    /// Disjuncts removed by the state-indexed GC.
    pub disjuncts_collected: u64,
    /// Goal verdicts reported.
    pub triggers: u64,
    /// Peak simultaneously-live disjuncts.
    pub peak_live: usize,
}

/// One disjunct: a partial binding sitting in an automaton state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Disjunct {
    binding: Binding,
}

/// A Tracematches-style monitor for one regular property.
#[derive(Debug)]
pub struct TraceMatch {
    dfa: Dfa,
    event_def: EventDef,
    goal: GoalSet,
    aliveness: StateAliveness,
    /// Disjunct sets, indexed by automaton state.
    states: Vec<Vec<Disjunct>>,
    live: usize,
    stats: TraceMatchStats,
    /// GC scan cursor (states are scanned round-robin, one per event, like
    /// Tracematches' incremental leak elimination).
    scan_state: usize,
    /// Bindings whose verdict was reported and sealed: joins above them
    /// must not restart the slice. Pruned incrementally as their objects
    /// die.
    retired: Vec<Binding>,
    retired_cursor: usize,
    /// Every binding that currently has a disjunct, in whatever state: a
    /// binding's slice is tracked by exactly one disjunct, so joins and
    /// ⊥-starts must not mint a second one. (Membership bookkeeping only —
    /// the per-event work stays the linear compatibility scans.)
    present: HashSet<Binding, BindingHash>,
    /// Event instances seen so far — the disable table. A fresh disjunct
    /// for β sourced from a disjunct covering `covered ⊆ dom(β)` is exact
    /// only if no event instance β|S with S ⊈ covered ever occurred;
    /// otherwise its slice would silently miss history (the same check the
    /// RV engine performs). Pruned as objects die.
    seen: HashSet<Binding, BindingHash>,
    seen_ring: Vec<Binding>,
    seen_cursor: usize,
}

impl TraceMatch {
    /// Builds a Tracematches-style monitor for a regular property.
    #[must_use]
    pub fn new(dfa: Dfa, event_def: EventDef, goal: GoalSet) -> Self {
        let aliveness = dfa.state_aliveness(goal, &event_def);
        let n = dfa.state_count() as usize;
        TraceMatch {
            dfa,
            event_def,
            goal,
            aliveness,
            states: vec![Vec::new(); n],
            live: 0,
            stats: TraceMatchStats::default(),
            scan_state: 0,
            retired: Vec::new(),
            retired_cursor: 0,
            present: HashSet::default(),
            seen: HashSet::default(),
            seen_ring: Vec::new(),
            seen_cursor: 0,
        }
    }

    /// The event definition.
    #[must_use]
    pub fn event_def(&self) -> &EventDef {
        &self.event_def
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> TraceMatchStats {
        self.stats
    }

    /// Estimated bytes held by the disjunct sets (Fig. 9B metric).
    #[must_use]
    pub fn estimated_bytes(&self) -> usize {
        self.states.iter().map(|s| s.len() * std::mem::size_of::<Disjunct>()).sum::<usize>()
            + self.states.len() * std::mem::size_of::<Vec<Disjunct>>()
    }

    /// Processes one parametric event.
    ///
    /// Semantics: the initial state conceptually always holds the empty
    /// binding `⊥`. For every state `s` with `σ(s, e)` defined and every
    /// disjunct `b ∈ s` compatible with `θ`:
    ///
    /// * if `θ ⊑ b`, the event belongs to `b`'s slice: `b` *moves* to
    ///   `σ(s, e)`;
    /// * otherwise the join `b ⊔ θ` is *added* to `σ(s, e)` while `b`
    ///   stays (a partial path other futures may still extend).
    ///
    /// Both scans are linear in the disjunct sets — Tracematches'
    /// constraint solving.
    pub fn process(&mut self, heap: &Heap, event: EventId, binding: Binding) {
        self.stats.events += 1;
        let n = self.states.len();
        // Staged disjuncts: (target, disjunct, Some(covered domain) when
        // freshly created from a source covering that domain).
        let mut staged: Vec<(u32, Disjunct, Option<ParamSet>)> = Vec::new();
        for s in 0..n {
            let target = self.dfa.step(s as u32, event);
            if target == DEAD {
                // Disjuncts whose slice includes this event fall off the
                // machine: a permanent fail, remove them.
                let before = self.states[s].len();
                let present = &mut self.present;
                self.states[s].retain(|d| {
                    if binding.less_informative(d.binding) {
                        present.remove(&d.binding);
                        false
                    } else {
                        true
                    }
                });
                let removed = before - self.states[s].len();
                self.live -= removed;
                self.stats.disjuncts_collected += removed as u64;
                continue;
            }
            let mut idx = 0;
            while idx < self.states[s].len() {
                let d = self.states[s][idx];
                if binding.less_informative(d.binding) {
                    // Part of the slice: move.
                    self.states[s].swap_remove(idx);
                    staged.push((target, d, None));
                    continue;
                }
                if d.binding.compatible(binding) {
                    if let Some(join) = d.binding.lub(binding) {
                        staged.push((target, Disjunct { binding: join }, Some(d.binding.domain())));
                    }
                }
                idx += 1;
            }
        }
        // The implicit ⊥ in the initial state starts θ's slice.
        let init_target = self.dfa.step(self.dfa.initial(), event);
        if init_target != DEAD {
            staged.push((init_target, Disjunct { binding }, Some(ParamSet::EMPTY)));
        }
        let already_retired =
            |retired: &[Binding], b: Binding| retired.iter().any(|r| r.less_informative(b));
        for (target, d, fresh) in staged {
            if let Some(covered) = fresh {
                // A binding's slice has exactly one disjunct: never mint a
                // second (the existing one, wherever it sits, has the true
                // slice state), never restart a sealed slice, never shadow
                // a sealed sub-slice, and never create a disjunct whose
                // slice already missed events (the disable-table check).
                if self.present.contains(&d.binding)
                    || already_retired(&self.retired, d.binding)
                    || !self.slice_complete(d.binding, covered)
                {
                    continue;
                }
                self.live += 1;
                self.stats.disjuncts_created += 1;
                self.present.insert(d.binding);
            }
            if self.goal.contains(self.dfa.verdict(target)) {
                self.stats.triggers += 1;
                // Terminal for the goal: report once and seal the slice.
                if self.dfa.is_terminal_state(target, self.goal) {
                    self.live -= 1;
                    self.stats.disjuncts_collected += 1;
                    self.present.remove(&d.binding);
                    self.retired.push(d.binding);
                    continue;
                }
            }
            self.states[target as usize].push(d);
        }
        self.stats.peak_live = self.stats.peak_live.max(self.live);
        // Incremental state-indexed GC (the [8] "collectable states"
        // technique): scan one state's set per event.
        self.collect_state(heap, self.scan_state % n);
        self.scan_state = (self.scan_state + 1) % n;
        // Prune a few retired tombstones whose objects are gone: no future
        // event can mention them, so they can never be restarted anyway.
        for _ in 0..8.min(self.retired.len()) {
            if self.retired_cursor >= self.retired.len() {
                self.retired_cursor = 0;
            }
            let b = self.retired[self.retired_cursor];
            if b.iter().any(|(_, o)| !heap.is_alive(o)) {
                self.retired.swap_remove(self.retired_cursor);
            } else {
                self.retired_cursor += 1;
            }
        }
        // Record the event instance in the disable table, pruning a few
        // dead entries.
        if self.seen.insert(binding) {
            self.seen_ring.push(binding);
        }
        for _ in 0..8.min(self.seen_ring.len()) {
            if self.seen_cursor >= self.seen_ring.len() {
                self.seen_cursor = 0;
            }
            let b = self.seen_ring[self.seen_cursor];
            if b.iter().any(|(_, o)| !heap.is_alive(o)) {
                self.seen.remove(&b);
                self.seen_ring.swap_remove(self.seen_cursor);
            } else {
                self.seen_cursor += 1;
            }
        }
    }

    /// Whether a fresh disjunct for `target`, inheriting a source that
    /// covers `covered ⊆ dom(target)`, would have the complete slice: no
    /// event instance over an uncovered sub-domain may have occurred.
    fn slice_complete(&self, target: Binding, covered: ParamSet) -> bool {
        let dom = target.domain();
        let bits = dom.0;
        let mut sub = bits;
        loop {
            let s = ParamSet(sub);
            if !s.is_empty() && !s.is_subset(covered) && self.seen.contains(&target.restrict(s)) {
                return false;
            }
            if sub == 0 {
                break;
            }
            sub = (sub - 1) & bits;
        }
        true
    }

    /// Removes disjuncts in `state` that can no longer reach the goal
    /// given which of their bound objects have died.
    fn collect_state(&mut self, heap: &Heap, state: usize) {
        let aliveness = &self.aliveness;
        let present = &mut self.present;
        let before = self.states[state].len();
        self.states[state].retain(|d| {
            let dead = d.binding.dead_params(heap);
            if aliveness.is_necessary(state as u32, dead) {
                true
            } else {
                present.remove(&d.binding);
                false
            }
        });
        let removed = before - self.states[state].len();
        self.live -= removed;
        self.stats.disjuncts_collected += removed as u64;
    }

    /// Runs the state-indexed GC over every state (safepoint sweep).
    pub fn full_sweep(&mut self, heap: &Heap) {
        for s in 0..self.states.len() {
            self.collect_state(heap, s);
        }
    }

    /// Currently live disjuncts.
    #[must_use]
    pub fn live(&self) -> usize {
        self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_heap::{HeapConfig, ObjId};
    use rv_logic::ere::unsafe_iter_ere;
    use rv_logic::{Alphabet, ParamId, ParamSet};

    const C: ParamId = ParamId(0);
    const I: ParamId = ParamId(1);

    fn tm() -> (TraceMatch, Alphabet) {
        let alphabet = Alphabet::from_names(&["create", "update", "next"]);
        let dfa = unsafe_iter_ere(&alphabet).compile(&alphabet, 1_000).unwrap();
        let def = EventDef::new(
            &alphabet,
            &["c", "i"],
            vec![ParamSet::singleton(C).with(I), ParamSet::singleton(C), ParamSet::singleton(I)],
        );
        (TraceMatch::new(dfa, def, GoalSet::MATCH), alphabet)
    }

    fn alloc_n(heap: &mut Heap, n: usize) -> Vec<ObjId> {
        let cls = heap.register_class("Obj");
        let f = heap.enter_frame();
        let v = (0..n).map(|_| heap.alloc(cls)).collect();
        let _keep_rooted = f; // never exited: objects stay rooted
        v
    }

    #[test]
    fn detects_the_unsafe_iteration() {
        let (mut t, alphabet) = tm();
        let mut heap = Heap::new(HeapConfig::manual());
        let o = alloc_n(&mut heap, 2);
        let ev = |n: &str| alphabet.lookup(n).unwrap();
        t.process(&heap, ev("create"), Binding::from_pairs(&[(C, o[0]), (I, o[1])]));
        t.process(&heap, ev("next"), Binding::from_pairs(&[(I, o[1])]));
        t.process(&heap, ev("update"), Binding::from_pairs(&[(C, o[0])]));
        t.process(&heap, ev("next"), Binding::from_pairs(&[(I, o[1])]));
        assert_eq!(t.stats().triggers, 1);
    }

    #[test]
    fn unrelated_updates_do_not_trigger() {
        let (mut t, alphabet) = tm();
        let mut heap = Heap::new(HeapConfig::manual());
        let o = alloc_n(&mut heap, 4);
        let ev = |n: &str| alphabet.lookup(n).unwrap();
        t.process(&heap, ev("create"), Binding::from_pairs(&[(C, o[0]), (I, o[1])]));
        t.process(&heap, ev("create"), Binding::from_pairs(&[(C, o[2]), (I, o[3])]));
        t.process(&heap, ev("update"), Binding::from_pairs(&[(C, o[2])]));
        t.process(&heap, ev("next"), Binding::from_pairs(&[(I, o[1])]));
        assert_eq!(t.stats().triggers, 0);
    }

    #[test]
    fn update_before_create_is_part_of_the_slice() {
        let (mut t, alphabet) = tm();
        let mut heap = Heap::new(HeapConfig::manual());
        let o = alloc_n(&mut heap, 2);
        let ev = |n: &str| alphabet.lookup(n).unwrap();
        // update create next: the slice is ?, not a match.
        t.process(&heap, ev("update"), Binding::from_pairs(&[(C, o[0])]));
        t.process(&heap, ev("create"), Binding::from_pairs(&[(C, o[0]), (I, o[1])]));
        t.process(&heap, ev("next"), Binding::from_pairs(&[(I, o[1])]));
        assert_eq!(t.stats().triggers, 0);
        // A further update + next matches.
        t.process(&heap, ev("update"), Binding::from_pairs(&[(C, o[0])]));
        t.process(&heap, ev("next"), Binding::from_pairs(&[(I, o[1])]));
        assert_eq!(t.stats().triggers, 1);
    }

    #[test]
    fn state_indexed_gc_collects_dead_iterator_disjuncts() {
        let (mut t, alphabet) = tm();
        let mut heap = Heap::new(HeapConfig::manual());
        let cls = heap.register_class("Obj");
        let _outer = heap.enter_frame();
        let coll = heap.alloc(cls);
        let ev = |n: &str| alphabet.lookup(n).unwrap();
        for _ in 0..20 {
            let inner = heap.enter_frame();
            let iter = heap.alloc(cls);
            t.process(&heap, ev("create"), Binding::from_pairs(&[(C, coll), (I, iter)]));
            t.process(&heap, ev("next"), Binding::from_pairs(&[(I, iter)]));
            heap.exit_frame(inner);
        }
        heap.collect();
        t.full_sweep(&heap);
        // Only the ⟨coll⟩ partial disjunct(s) should remain.
        assert!(t.live() <= 3, "live disjuncts: {}", t.live());
        assert!(t.stats().disjuncts_collected >= 20);
    }

    #[test]
    fn matches_the_reference_oracle_on_a_mixed_trace() {
        let (mut t, alphabet) = tm();
        let mut heap = Heap::new(HeapConfig::manual());
        let o = alloc_n(&mut heap, 6);
        let ev = |n: &str| alphabet.lookup(n).unwrap();
        let trace = vec![
            (ev("update"), Binding::from_pairs(&[(C, o[0])])),
            (ev("create"), Binding::from_pairs(&[(C, o[0]), (I, o[1])])),
            (ev("create"), Binding::from_pairs(&[(C, o[2]), (I, o[3])])),
            (ev("next"), Binding::from_pairs(&[(I, o[1])])),
            (ev("update"), Binding::from_pairs(&[(C, o[0])])),
            (ev("update"), Binding::from_pairs(&[(C, o[2])])),
            (ev("next"), Binding::from_pairs(&[(I, o[1])])),
            (ev("next"), Binding::from_pairs(&[(I, o[3])])),
        ];
        for &(e, b) in &trace {
            t.process(&heap, e, b);
        }
        let dfa = unsafe_iter_ere(&alphabet).compile(&alphabet, 1_000).unwrap();
        let oracle = rv_core::monitor_trace(&dfa, GoalSet::MATCH, &trace);
        assert_eq!(t.stats().triggers, oracle.triggers.len() as u64);
    }
}
