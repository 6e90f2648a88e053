//! Property parameters and the event definition `D`.
//!
//! Definition 4: a *parametric event definition* `D : E → P(X)` maps each
//! base event to the set of parameters it instantiates at runtime (e.g.
//! `D(create) = {c, i}`, `D(update) = {c}`, `D(next) = {i}` for
//! `UnsafeIter`).

use std::fmt;

use crate::event::{Alphabet, EventId};

/// A dense identifier for a property parameter (the `x ∈ X` of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub u8);

impl ParamId {
    /// The raw index.
    #[must_use]
    pub fn as_usize(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Debug for ParamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A set of parameters, as a 32-bit bitset. Real properties bind at most a
/// few parameters (the paper's largest has two plus a thread).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ParamSet(pub u32);

impl ParamSet {
    /// The empty parameter set.
    pub const EMPTY: ParamSet = ParamSet(0);

    /// The singleton `{p}`.
    #[must_use]
    pub fn singleton(p: ParamId) -> ParamSet {
        ParamSet(1u32 << p.0)
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether `p` is a member.
    #[must_use]
    pub fn contains(self, p: ParamId) -> bool {
        self.0 & (1u32 << p.0) != 0
    }

    /// Inserts `p`.
    #[must_use]
    pub fn with(self, p: ParamId) -> ParamSet {
        ParamSet(self.0 | (1u32 << p.0))
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: ParamSet) -> ParamSet {
        ParamSet(self.0 | other.0)
    }

    /// Set intersection.
    #[must_use]
    pub fn intersection(self, other: ParamSet) -> ParamSet {
        ParamSet(self.0 & other.0)
    }

    /// Whether `self ⊆ other`.
    #[must_use]
    pub fn is_subset(self, other: ParamSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Number of members.
    #[must_use]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterates over members in increasing id order.
    pub fn iter(self) -> impl Iterator<Item = ParamId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros() as u8;
                bits &= bits - 1;
                Some(ParamId(i))
            }
        })
    }
}

impl FromIterator<ParamId> for ParamSet {
    fn from_iter<I: IntoIterator<Item = ParamId>>(iter: I) -> Self {
        iter.into_iter().fold(ParamSet::EMPTY, ParamSet::with)
    }
}

impl fmt::Debug for ParamSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// The event definition `D : E → P(X)` together with parameter names.
///
/// Invariant: every event of the alphabet has an entry; parameter ids are
/// dense in `0..param_names.len()`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventDef {
    param_names: Vec<String>,
    /// Indexed by `EventId`.
    params_of: Vec<ParamSet>,
}

impl EventDef {
    /// Builds an event definition.
    ///
    /// `params_of[e]` is `D(e)`, indexed by event id of `alphabet`.
    ///
    /// # Panics
    ///
    /// Panics if `params_of.len() != alphabet.len()`, if more than 32
    /// parameters are named, or if some `D(e)` mentions an out-of-range
    /// parameter.
    #[must_use]
    pub fn new<S: AsRef<str>>(
        alphabet: &Alphabet,
        param_names: &[S],
        params_of: Vec<ParamSet>,
    ) -> Self {
        assert!(param_names.len() <= 32, "at most 32 parameters supported");
        assert_eq!(params_of.len(), alphabet.len(), "every event needs a D(e) entry");
        let universe = ParamSet((1u64.wrapping_shl(param_names.len() as u32) - 1) as u32);
        for (i, &ps) in params_of.iter().enumerate() {
            assert!(
                ps.is_subset(universe),
                "D({}) mentions an undeclared parameter",
                EventId(i as u16)
            );
        }
        EventDef {
            param_names: param_names.iter().map(|s| s.as_ref().to_owned()).collect(),
            params_of,
        }
    }

    /// `D(e)`: the parameters instantiated by `e`.
    #[must_use]
    pub fn params_of(&self, e: EventId) -> ParamSet {
        self.params_of[e.as_usize()]
    }

    /// The name of parameter `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn param_name(&self, p: ParamId) -> &str {
        &self.param_names[p.as_usize()]
    }

    /// Looks up a parameter by name.
    #[must_use]
    pub fn lookup_param(&self, name: &str) -> Option<ParamId> {
        self.param_names.iter().position(|n| n == name).map(|i| ParamId(i as u8))
    }

    /// The full parameter set `X`.
    #[must_use]
    pub fn universe(&self) -> ParamSet {
        ParamSet((1u64.wrapping_shl(self.param_names.len() as u32) - 1) as u32)
    }

    /// `D` extended to event sets (Definition 4): the union of `D(e)` over
    /// `e ∈ events`.
    #[must_use]
    pub fn params_of_set(&self, events: crate::event::EventSet) -> ParamSet {
        events.iter().fold(ParamSet::EMPTY, |acc, e| acc.union(self.params_of(e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventSet;

    fn unsafe_iter_def() -> (Alphabet, EventDef) {
        let a = Alphabet::from_names(&["create", "update", "next"]);
        let c = ParamId(0);
        let i = ParamId(1);
        let def = EventDef::new(
            &a,
            &["c", "i"],
            vec![
                ParamSet::singleton(c).with(i), // create
                ParamSet::singleton(c),         // update
                ParamSet::singleton(i),         // next
            ],
        );
        (a, def)
    }

    #[test]
    fn d_maps_events_to_params() {
        let (a, def) = unsafe_iter_def();
        let create = a.lookup("create").unwrap();
        let update = a.lookup("update").unwrap();
        assert_eq!(def.params_of(create).len(), 2);
        assert_eq!(def.params_of(update), ParamSet::singleton(ParamId(0)));
        assert_eq!(def.param_name(ParamId(1)), "i");
        assert_eq!(def.lookup_param("i"), Some(ParamId(1)));
        assert_eq!(def.lookup_param("z"), None);
    }

    #[test]
    fn d_extends_to_event_sets() {
        let (a, def) = unsafe_iter_def();
        let update = a.lookup("update").unwrap();
        let next = a.lookup("next").unwrap();
        let s: EventSet = [update, next].into_iter().collect();
        assert_eq!(def.params_of_set(s), def.universe());
        assert_eq!(def.params_of_set(EventSet::EMPTY), ParamSet::EMPTY);
    }

    #[test]
    fn param_set_operations() {
        let p = ParamId(0);
        let q = ParamId(5);
        let s = ParamSet::singleton(p).with(q);
        assert_eq!(s.len(), 2);
        assert!(s.contains(q));
        assert!(ParamSet::singleton(p).is_subset(s));
        assert_eq!(s.intersection(ParamSet::singleton(q)), ParamSet::singleton(q));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![p, q]);
        let collected: ParamSet = [p, q].into_iter().collect();
        assert_eq!(collected, s);
    }

    #[test]
    #[should_panic(expected = "every event needs a D(e) entry")]
    fn event_def_validates_arity() {
        let a = Alphabet::from_names(&["a", "b"]);
        let _ = EventDef::new(&a, &["p"], vec![ParamSet::EMPTY]);
    }

    #[test]
    #[should_panic(expected = "undeclared parameter")]
    fn event_def_validates_param_range() {
        let a = Alphabet::from_names(&["a"]);
        let _ = EventDef::new(&a, &["p"], vec![ParamSet::singleton(ParamId(3))]);
    }
}
