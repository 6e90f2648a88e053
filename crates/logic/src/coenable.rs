//! Coenable sets and the ALIVENESS formula (paper §3 and §4.2.2).
//!
//! For each event `e`, the *property coenable set* `COENABLE(e)` collects,
//! over all goal traces containing `e`, the sets of events that occur after
//! `e` (Definition 10, with `∅` dropped). Lifting through the event
//! definition `D` yields the *parameter coenable set* (Definition 11), and
//! minimizing the resulting DNF gives the runtime [`Aliveness`] check: a
//! monitor whose last event was `e` is still *necessary* iff for some
//! `S ∈ COENABLEˣ(e)` every parameter in `S` is still alive.

use std::fmt;

use crate::event::{Alphabet, EventId, EventSet};
use crate::param::{EventDef, ParamSet};

/// A family of event sets — the value of `COENABLE(e)` for one event.
///
/// Stored sorted and deduplicated, so equality is structural.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SetFamily(Vec<EventSet>);

impl SetFamily {
    /// The empty family.
    #[must_use]
    pub fn new() -> Self {
        SetFamily::default()
    }

    /// Builds a family from arbitrary sets, dropping `∅` members (the
    /// paper's Definition 10 explicitly removes them), sorting, and
    /// deduplicating.
    #[must_use]
    pub fn from_sets<I: IntoIterator<Item = EventSet>>(sets: I) -> Self {
        let mut v: Vec<EventSet> = sets.into_iter().filter(|s| !s.is_empty()).collect();
        v.sort_unstable();
        v.dedup();
        SetFamily(v)
    }

    /// Inserts a set (no-op for `∅` or duplicates). Returns whether the
    /// family changed.
    pub fn insert(&mut self, s: EventSet) -> bool {
        if s.is_empty() {
            return false;
        }
        match self.0.binary_search(&s) {
            Ok(_) => false,
            Err(pos) => {
                self.0.insert(pos, s);
                true
            }
        }
    }

    /// The member sets, sorted.
    #[must_use]
    pub fn sets(&self) -> &[EventSet] {
        &self.0
    }

    /// Whether the family is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of member sets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether `s` is a member.
    #[must_use]
    pub fn contains(&self, s: EventSet) -> bool {
        self.0.binary_search(&s).is_ok()
    }

    /// The family with non-minimal members removed: if `S ⊂ S'` both occur,
    /// `S'` is dropped. By DNF absorption (`∧S ∨ ∧S' = ∧S` when `S ⊆ S'`)
    /// this preserves the ALIVENESS boolean function while shrinking it —
    /// the "minimized boolean formula" of §4.2.2.
    #[must_use]
    pub fn minimized(&self) -> SetFamily {
        let mut keep: Vec<EventSet> = Vec::with_capacity(self.0.len());
        for &s in &self.0 {
            if !self.0.iter().any(|&t| t != s && t.is_subset(s)) {
                keep.push(s);
            }
        }
        SetFamily(keep)
    }
}

impl FromIterator<EventSet> for SetFamily {
    fn from_iter<I: IntoIterator<Item = EventSet>>(iter: I) -> Self {
        SetFamily::from_sets(iter)
    }
}

/// The property coenable sets `COENABLE_{P,G} : E → P(P(E))`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoenableSets {
    per_event: Vec<SetFamily>,
}

impl CoenableSets {
    /// Builds coenable sets from per-event families (indexed by event id).
    #[must_use]
    pub fn new(per_event: Vec<SetFamily>) -> Self {
        CoenableSets { per_event }
    }

    /// `COENABLE(e)`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range for the property's alphabet.
    #[must_use]
    pub fn of(&self, e: EventId) -> &SetFamily {
        &self.per_event[e.as_usize()]
    }

    /// Number of events covered.
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.per_event.len()
    }

    /// Lifts to parameter coenable sets through `D` (Definition 11):
    /// `COENABLEˣ(e) = { D(E) | E ∈ COENABLE(e) }`.
    #[must_use]
    pub fn lift(&self, def: &EventDef) -> ParamCoenable {
        let per_event = self
            .per_event
            .iter()
            .map(|family| {
                let mut v: Vec<ParamSet> =
                    family.sets().iter().map(|&s| def.params_of_set(s)).collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        ParamCoenable { per_event }
    }

    /// Renders the sets with names, for the `coenable_tables` harness.
    #[must_use]
    pub fn display<'a>(&'a self, alphabet: &'a Alphabet) -> DisplayCoenable<'a> {
        DisplayCoenable { sets: self, alphabet }
    }
}

/// Renders [`CoenableSets`] with event names.
#[derive(Debug)]
pub struct DisplayCoenable<'a> {
    sets: &'a CoenableSets,
    alphabet: &'a Alphabet,
}

impl fmt::Display for DisplayCoenable<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in self.alphabet.iter() {
            write!(f, "COENABLE({}) = {{", self.alphabet.name(e))?;
            for (i, s) in self.sets.of(e).sets().iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", s.display(self.alphabet))?;
            }
            writeln!(f, "}}")?;
        }
        Ok(())
    }
}

/// The parameter coenable sets `COENABLEˣ_{P,G} : E → P(P(X))`
/// (Definition 11), *not* yet minimized.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParamCoenable {
    per_event: Vec<Vec<ParamSet>>,
}

impl ParamCoenable {
    /// `COENABLEˣ(e)`, sorted and deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[must_use]
    pub fn of(&self, e: EventId) -> &[ParamSet] {
        &self.per_event[e.as_usize()]
    }

    /// Compiles the minimized runtime ALIVENESS formula (§4.2.2).
    #[must_use]
    pub fn aliveness(&self) -> Aliveness {
        let per_event = self
            .per_event
            .iter()
            .map(|sets| {
                let mut keep: Vec<ParamSet> = Vec::with_capacity(sets.len());
                for &s in sets {
                    if !sets.iter().any(|&t| t != s && t.is_subset(s)) {
                        keep.push(s);
                    }
                }
                keep
            })
            .collect();
        Aliveness { per_event }
    }
}

/// The compiled runtime check
/// `ALIVENESS(e) = ⋁_{S ∈ COENABLEˣ(e)} ⋀_{x ∈ S} live_x`.
///
/// Each disjunct is a parameter bitmask; the whole check is a scan of a
/// short mask list with one AND each — the "minimized boolean formula"
/// evaluation the paper performs in notified monitor instances.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Aliveness {
    per_event: Vec<Vec<ParamSet>>,
}

impl Aliveness {
    /// Whether a monitor whose most recent event was `e` can still reach the
    /// goal, given the set of parameters whose bound objects are `dead`.
    ///
    /// Parameters never bound yet must *not* be in `dead` (they could still
    /// be bound to live objects in the future).
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[must_use]
    pub fn is_necessary(&self, e: EventId, dead: ParamSet) -> bool {
        self.per_event[e.as_usize()].iter().any(|&mask| mask.intersection(dead).is_empty())
    }

    /// The disjunct masks for event `e` (for inspection and tests).
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[must_use]
    pub fn masks(&self, e: EventId) -> &[ParamSet] {
        &self.per_event[e.as_usize()]
    }

    /// Total number of disjuncts across all events (a size measure that
    /// the §4.2.2 minimization shrinks).
    #[must_use]
    pub fn total_disjuncts(&self) -> usize {
        self.per_event.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::{EventDef, ParamId};

    fn ids(bits: &[u16]) -> EventSet {
        bits.iter().map(|&b| EventId(b)).collect()
    }

    #[test]
    fn family_drops_empty_and_dedups() {
        let f = SetFamily::from_sets(vec![EventSet::EMPTY, ids(&[1]), ids(&[1]), ids(&[0, 1])]);
        assert_eq!(f.len(), 2);
        assert!(f.contains(ids(&[1])));
        assert!(!f.contains(EventSet::EMPTY));
    }

    #[test]
    fn family_minimization_absorbs_supersets() {
        // {next}, {next,update}, {next,create,update} → {next}
        let f = SetFamily::from_sets(vec![ids(&[2]), ids(&[1, 2]), ids(&[0, 1, 2])]);
        let m = f.minimized();
        assert_eq!(m.sets(), &[ids(&[2])]);
    }

    #[test]
    fn family_minimization_keeps_incomparable_sets() {
        let f = SetFamily::from_sets(vec![ids(&[0, 1]), ids(&[1, 2])]);
        assert_eq!(f.minimized().len(), 2);
    }

    #[test]
    fn insert_reports_change() {
        let mut f = SetFamily::new();
        assert!(f.insert(ids(&[0])));
        assert!(!f.insert(ids(&[0])));
        assert!(!f.insert(EventSet::EMPTY));
        assert_eq!(f.len(), 1);
    }

    /// The §3 worked example: UNSAFEITER with events create(c,i),
    /// update(c), next(i).
    fn unsafe_iter() -> (Alphabet, EventDef, CoenableSets) {
        let a = Alphabet::from_names(&["create", "update", "next"]);
        let c = ParamId(0);
        let i = ParamId(1);
        let def = EventDef::new(
            &a,
            &["c", "i"],
            vec![ParamSet::singleton(c).with(i), ParamSet::singleton(c), ParamSet::singleton(i)],
        );
        // COENABLE(create) = {{next, update}}
        // COENABLE(update) = {{next}, {next, update}, {next, create, update}}
        // COENABLE(next)   = {{next, update}}
        let sets = CoenableSets::new(vec![
            SetFamily::from_sets(vec![ids(&[1, 2])]),
            SetFamily::from_sets(vec![ids(&[2]), ids(&[1, 2]), ids(&[0, 1, 2])]),
            SetFamily::from_sets(vec![ids(&[1, 2])]),
        ]);
        (a, def, sets)
    }

    #[test]
    fn lifting_matches_the_papers_worked_example() {
        let (a, def, sets) = unsafe_iter();
        let lifted = sets.lift(&def);
        let c = ParamSet::singleton(ParamId(0));
        let i = ParamSet::singleton(ParamId(1));
        let ci = c.union(i);
        // COENABLEˣ(create) = {{c, i}}
        assert_eq!(lifted.of(a.lookup("create").unwrap()), &[ci]);
        // COENABLEˣ(update) = {{i}, {c, i}}
        assert_eq!(lifted.of(a.lookup("update").unwrap()), &[i, ci]);
        // COENABLEˣ(next) = {{c, i}}
        assert_eq!(lifted.of(a.lookup("next").unwrap()), &[ci]);
    }

    #[test]
    fn aliveness_marks_dead_iterator_monitors_unnecessary() {
        let (a, def, sets) = unsafe_iter();
        let aliveness = sets.lift(&def).aliveness();
        let update = a.lookup("update").unwrap();
        let next = a.lookup("next").unwrap();
        let dead_i = ParamSet::singleton(ParamId(1));
        let dead_c = ParamSet::singleton(ParamId(0));
        // If the Iterator is dead, no goal is reachable — the paper's
        // motivating observation for UnsafeIter.
        assert!(!aliveness.is_necessary(update, dead_i));
        assert!(!aliveness.is_necessary(next, dead_i));
        // If only the Collection is dead after `update`, {i} can still fire.
        assert!(aliveness.is_necessary(update, dead_c));
        // But after `next`, both must be alive.
        assert!(!aliveness.is_necessary(next, dead_c));
        // Nothing dead: necessary.
        assert!(aliveness.is_necessary(update, ParamSet::EMPTY));
    }

    #[test]
    fn aliveness_minimizes_update_to_single_mask() {
        let (a, def, sets) = unsafe_iter();
        let aliveness = sets.lift(&def).aliveness();
        // {{i}, {c,i}} minimizes to {{i}} by absorption.
        assert_eq!(
            aliveness.masks(a.lookup("update").unwrap()),
            &[ParamSet::singleton(ParamId(1))]
        );
        assert_eq!(aliveness.total_disjuncts(), 3);
    }

    #[test]
    fn empty_family_means_never_necessary() {
        let sets = CoenableSets::new(vec![SetFamily::new()]);
        let a = Alphabet::from_names(&["e"]);
        let def = EventDef::new(&a, &["p"], vec![ParamSet::singleton(ParamId(0))]);
        let aliveness = sets.lift(&def).aliveness();
        assert!(!aliveness.is_necessary(EventId(0), ParamSet::EMPTY));
    }

    #[test]
    fn display_renders_event_names() {
        let (a, _, sets) = unsafe_iter();
        let out = sets.display(&a).to_string();
        assert!(
            out.contains("COENABLE(update) = {{next}, {update, next}, {create, update, next}}"),
            "{out}"
        );
    }
}
