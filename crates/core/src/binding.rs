//! Parameter instances (the partial functions `θ ∈ [X ⇁ V]` of
//! Definition 3) and their lattice operations (Definition 5).

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::OnceLock;

use rv_heap::ObjId;
pub use rv_logic::MAX_PARAMS;
use rv_logic::{ParamId, ParamSet};

/// A parameter instance `θ`: a partial map from parameters to heap
/// objects.
///
/// Bindings hold objects *weakly* — storing a binding never keeps its
/// objects alive (they are packed handles, not roots), which is the
/// property the paper's indexing trees rely on.
///
/// Every exact table, indexing tree, expunge ring, disable-table entry and
/// monitor slot holds bindings by value, so its [`MAX_PARAMS`] slots make
/// it 32 bytes: two to a cache line.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Binding {
    domain: ParamSet,
    /// Packed [`ObjId`] bits per parameter slot; zero when unbound.
    vals: [u64; MAX_PARAMS],
}

impl Binding {
    /// The empty instance `⊥`.
    pub const BOTTOM: Binding = Binding { domain: ParamSet::EMPTY, vals: [0; MAX_PARAMS] };

    /// Builds a binding from `(parameter, object)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if a parameter index is `≥ MAX_PARAMS` or repeats.
    #[must_use]
    pub fn from_pairs(pairs: &[(ParamId, ObjId)]) -> Binding {
        let mut b = Binding::BOTTOM;
        for &(p, v) in pairs {
            assert!(p.as_usize() < MAX_PARAMS, "parameter index {p:?} out of range");
            assert!(!b.domain.contains(p), "parameter {p:?} bound twice");
            b.domain = b.domain.with(p);
            b.vals[p.as_usize()] = v.to_bits();
        }
        b
    }

    /// The domain `dom(θ)`.
    #[must_use]
    pub fn domain(self) -> ParamSet {
        self.domain
    }

    /// `θ(p)`, if bound.
    #[must_use]
    pub fn get(self, p: ParamId) -> Option<ObjId> {
        if self.domain.contains(p) {
            Some(ObjId::from_bits(self.vals[p.as_usize()]))
        } else {
            None
        }
    }

    /// Iterates over `(parameter, object)` pairs in parameter order.
    pub fn iter(self) -> impl Iterator<Item = (ParamId, ObjId)> {
        self.domain.iter().map(move |p| (p, ObjId::from_bits(self.vals[p.as_usize()])))
    }

    /// Whether `self` and `other` are *compatible*: they agree on every
    /// shared parameter (Definition 5).
    #[must_use]
    pub fn compatible(self, other: Binding) -> bool {
        let shared = self.domain.intersection(other.domain);
        shared.iter().all(|p| self.vals[p.as_usize()] == other.vals[p.as_usize()])
    }

    /// The least upper bound `self ⊔ other` (Definition 5), or `None` if
    /// incompatible.
    #[must_use]
    pub fn lub(self, other: Binding) -> Option<Binding> {
        if !self.compatible(other) {
            return None;
        }
        let mut vals = self.vals;
        for p in other.domain.iter() {
            vals[p.as_usize()] = other.vals[p.as_usize()];
        }
        Some(Binding { domain: self.domain.union(other.domain), vals })
    }

    /// Whether `self ⊑ other` (`self` is less informative, Definition 5).
    #[must_use]
    pub fn less_informative(self, other: Binding) -> bool {
        self.domain.is_subset(other.domain)
            && self.domain.iter().all(|p| self.vals[p.as_usize()] == other.vals[p.as_usize()])
    }

    /// The restriction `θ|P` to the parameters in `P ∩ dom(θ)`.
    #[must_use]
    pub fn restrict(self, params: ParamSet) -> Binding {
        let keep = self.domain.intersection(params);
        let mut vals = [0u64; MAX_PARAMS];
        for p in keep.iter() {
            vals[p.as_usize()] = self.vals[p.as_usize()];
        }
        Binding { domain: keep, vals }
    }

    /// The set of bound parameters whose objects are no longer alive on
    /// `heap` — the `dead` input of the ALIVENESS check (§4.2.2).
    #[must_use]
    pub fn dead_params(self, heap: &rv_heap::Heap) -> ParamSet {
        let mut dead = ParamSet::EMPTY;
        for (p, v) in self.iter() {
            if !heap.is_alive(v) {
                dead = dead.with(p);
            }
        }
        dead
    }
}

/// Hashes the domain and the bound slots only. Unbound slots are always
/// zero, so equal bindings still hash equal, and a probe of a
/// binding-keyed table hashes one word per bound parameter.
impl Hash for Binding {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u32(self.domain.0);
        for p in self.domain.iter() {
            state.write_u64(self.vals[p.as_usize()]);
        }
    }
}

/// The hasher of every table keyed by [`Binding`]: the engine's exact
/// tables and indexing trees ([`RvMap`](crate::trees::RvMap)), its disable
/// table, the Figure 5 oracle's maps and the Tracematches baseline's sets.
///
/// Each written word is folded into the state with one 64×64→128-bit
/// multiply (the xor of the product's two halves), and `finish` folds once
/// more. A multiply alone would not do: [`ObjId::to_bits`] puts the slot
/// index in the high 32 bits, and the low bits of a product depend only on
/// the low bits of its inputs, so sequential objects would share one
/// bucket; the fold brings the high half of the product, which depends on
/// every input bit, down into the bucket bits.
///
/// The seed is drawn once per process from [`RandomState`], so table
/// iteration order is as unpredictable as with SipHash and equal bindings
/// hash equal through any two builders. Flooding resistance is not needed
/// here: the keys are heap handles the monitor assigns, never bytes a
/// client chooses. Tables keyed by client-chosen strings (object names,
/// tenant names) stay on SipHash.
#[derive(Clone, Copy, Debug)]
pub struct BindingHash {
    seed: u64,
}

impl Default for BindingHash {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        BindingHash { seed: *SEED.get_or_init(|| RandomState::new().hash_one(0u64)) }
    }
}

impl BuildHasher for BindingHash {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher { state: self.seed }
    }
}

/// The [`Hasher`] a [`BindingHash`] builds.
#[derive(Clone, Copy, Debug)]
pub struct FoldHasher {
    state: u64,
}

/// An odd multiplier with well-spread bits (the 64-bit golden ratio).
const FOLD_K: u64 = 0x9e37_79b9_7f4a_7c15;

/// The xor of the two halves of the 128-bit product `a·b`.
#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

impl Hasher for FoldHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.state = fold(self.state ^ n, FOLD_K);
    }

    #[inline]
    fn finish(&self) -> u64 {
        fold(self.state, FOLD_K)
    }
}

impl fmt::Debug for Binding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, (p, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p:?}↦{v}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_heap::{Heap, HeapConfig};

    fn objs(n: usize) -> (Heap, Vec<ObjId>) {
        let mut h = Heap::new(HeapConfig::manual());
        let c = h.register_class("Obj");
        let _f = h.enter_frame();
        let ids = (0..n).map(|_| h.alloc(c)).collect();
        // The frame token is intentionally never passed to exit_frame:
        // objects stay rooted for the whole test.
        (h, ids)
    }

    #[test]
    fn lub_of_compatible_bindings() {
        let (_h, o) = objs(2);
        let c = Binding::from_pairs(&[(ParamId(0), o[0])]);
        let i = Binding::from_pairs(&[(ParamId(1), o[1])]);
        let ci = c.lub(i).unwrap();
        assert_eq!(ci.domain().len(), 2);
        assert_eq!(ci.get(ParamId(0)), Some(o[0]));
        assert_eq!(ci.get(ParamId(1)), Some(o[1]));
        assert!(c.less_informative(ci));
        assert!(i.less_informative(ci));
        assert!(!ci.less_informative(c));
        assert!(Binding::BOTTOM.less_informative(c));
    }

    #[test]
    fn incompatible_bindings_have_no_lub() {
        let (_h, o) = objs(2);
        let a = Binding::from_pairs(&[(ParamId(0), o[0])]);
        let b = Binding::from_pairs(&[(ParamId(0), o[1])]);
        assert!(!a.compatible(b));
        assert!(a.lub(b).is_none());
        // Compatible with itself and with ⊥.
        assert!(a.compatible(a));
        assert!(a.compatible(Binding::BOTTOM));
        assert_eq!(a.lub(a), Some(a));
    }

    #[test]
    fn restriction_projects_the_domain() {
        let (_h, o) = objs(2);
        let ci = Binding::from_pairs(&[(ParamId(0), o[0]), (ParamId(1), o[1])]);
        let c = ci.restrict(ParamSet::singleton(ParamId(0)));
        assert_eq!(c.domain(), ParamSet::singleton(ParamId(0)));
        assert_eq!(c.get(ParamId(1)), None);
        // Restriction to an unrelated parameter is ⊥.
        assert_eq!(ci.restrict(ParamSet::singleton(ParamId(5))), Binding::BOTTOM);
    }

    #[test]
    fn equality_ignores_stale_slots() {
        let (_h, o) = objs(2);
        let ci = Binding::from_pairs(&[(ParamId(0), o[0]), (ParamId(1), o[1])]);
        let via_restrict = ci.restrict(ParamSet::singleton(ParamId(0)));
        let direct = Binding::from_pairs(&[(ParamId(0), o[0])]);
        assert_eq!(via_restrict, direct);
    }

    #[test]
    fn dead_params_tracks_the_heap() {
        let mut h = Heap::new(HeapConfig::manual());
        let cls = h.register_class("Obj");
        let outer = h.enter_frame();
        let coll = h.alloc(cls);
        let inner = h.enter_frame();
        let iter = h.alloc(cls);
        let b = Binding::from_pairs(&[(ParamId(0), coll), (ParamId(1), iter)]);
        assert!(b.dead_params(&h).is_empty());
        h.exit_frame(inner);
        h.collect();
        assert_eq!(b.dead_params(&h), ParamSet::singleton(ParamId(1)));
        h.exit_frame(outer);
        h.collect();
        assert_eq!(b.dead_params(&h).len(), 2);
    }

    #[test]
    fn hash_agrees_with_eq_and_separates_domains() {
        let (_h, o) = objs(3);
        // Two builders, one process: the seed is drawn once, so a table
        // built later hashes a binding as one built earlier did.
        let (hasher, other_builder) = (BindingHash::default(), BindingHash::default());
        let ci = Binding::from_pairs(&[(ParamId(0), o[0]), (ParamId(2), o[2])]);
        let wide =
            Binding::from_pairs(&[(ParamId(0), o[0]), (ParamId(1), o[1]), (ParamId(2), o[2])]);
        let c = Binding::from_pairs(&[(ParamId(0), o[0])]);
        let i = Binding::from_pairs(&[(ParamId(2), o[2])]);
        // One instance three ways: built directly, restricted from a wider
        // binding (whose dropped slot is zeroed), and joined from parts.
        let restricted = wide.restrict(ci.domain());
        let joined = c.lub(i).unwrap();
        for other in [restricted, joined] {
            assert_eq!(other, ci);
            assert_eq!(hasher.hash_one(other), hasher.hash_one(ci));
            assert_eq!(other_builder.hash_one(other), hasher.hash_one(ci));
        }
        // Same object, different parameter: equal slot values, different
        // domains, different hashes.
        let as_x0 = Binding::from_pairs(&[(ParamId(0), o[1])]);
        let as_x1 = Binding::from_pairs(&[(ParamId(1), o[1])]);
        assert_ne!(as_x0, as_x1);
        assert_ne!(hasher.hash_one(as_x0), hasher.hash_one(as_x1));
    }

    /// `ObjId::to_bits` puts the slot index in the high 32 bits. A
    /// multiply-only (Fx-style) hash of such keys leaves the low bits, the
    /// ones a hash table picks buckets with, depending on the generation
    /// alone: these 4096 objects would share one bucket. A random hash
    /// spreads them over about 4096·(1 − 1/e) ≈ 2589 of 4096.
    #[test]
    fn sequential_slots_spread_over_the_low_bucket_bits() {
        let hasher = BindingHash::default();
        let mut buckets = std::collections::HashSet::new();
        for index in 0..4096u64 {
            let b = Binding::from_pairs(&[(ParamId(0), ObjId::from_bits(index << 32))]);
            buckets.insert(hasher.hash_one(b) & 0xfff);
        }
        assert!(buckets.len() >= 2400, "{} distinct low-12-bit buckets", buckets.len());
    }

    /// Every engine table stores bindings by value, so their size is a
    /// throughput cost: engine-avrora processes ~1.2× the events/s at 32
    /// bytes that it does at 72. A wider layout has to be a measured
    /// change, not a side effect.
    #[test]
    fn a_binding_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Binding>(), 32);
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn duplicate_parameter_is_rejected() {
        let (_h, o) = objs(1);
        let _ = Binding::from_pairs(&[(ParamId(0), o[0]), (ParamId(0), o[0])]);
    }

    #[test]
    fn debug_renders_pairs() {
        let (_h, o) = objs(1);
        let b = Binding::from_pairs(&[(ParamId(0), o[0])]);
        let s = format!("{b:?}");
        assert!(s.starts_with('⟨') && s.ends_with('⟩'));
        assert!(s.contains("x0"));
    }
}
