//! Algebraic laws of the parameter-instance lattice (Definition 5): `⊔`
//! is a partial commutative, associative, idempotent join; `⊑` is the
//! induced partial order; restriction is monotone and interacts with `⊔`
//! as expected. Each law is checked on a fixed battery of seeds; a
//! failure names the seed that reproduces it.

use rv_core::{Binding, MAX_PARAMS};
use rv_heap::{Heap, HeapConfig, ObjId, SplitMix64};
use rv_logic::{ParamId, ParamSet};

/// Every slot a binding has, so the laws cover every domain a spec can bind.
const PARAMS: u8 = MAX_PARAMS as u8;
const OBJS: usize = 3;
const CASES: u64 = 256;

/// One generator per seed in `0..CASES`, paired with its seed.
fn seeds() -> impl Iterator<Item = (u64, SplitMix64)> {
    (0..CASES).map(|seed| (seed, SplitMix64::new(seed)))
}

/// A binding described by an assignment array: `assign[p]` = object index
/// + 1, or 0 for unbound.
fn random_assign(rng: &mut SplitMix64) -> [u8; PARAMS as usize] {
    std::array::from_fn(|_| rng.gen_range(OBJS + 1) as u8)
}

fn materialize(assign: &[u8; PARAMS as usize], pool: &[ObjId]) -> Binding {
    let pairs: Vec<(ParamId, ObjId)> = assign
        .iter()
        .enumerate()
        .filter_map(|(p, &v)| (v > 0).then(|| (ParamId(p as u8), pool[(v - 1) as usize])))
        .collect();
    Binding::from_pairs(&pairs)
}

fn pool() -> (Heap, Vec<ObjId>) {
    let mut heap = Heap::new(HeapConfig::manual());
    let cls = heap.register_class("Obj");
    let frame = heap.enter_frame();
    let pool = (0..OBJS).map(|_| heap.alloc(cls)).collect();
    let _keep_rooted = frame;
    (heap, pool)
}

#[test]
fn lub_is_commutative() {
    let (_heap, objs) = pool();
    for (seed, mut rng) in seeds() {
        let a = materialize(&random_assign(&mut rng), &objs);
        let b = materialize(&random_assign(&mut rng), &objs);
        assert_eq!(a.lub(b), b.lub(a), "seed {seed}");
    }
}

#[test]
fn lub_is_idempotent_and_reflexive() {
    let (_heap, objs) = pool();
    for (seed, mut rng) in seeds() {
        let a = materialize(&random_assign(&mut rng), &objs);
        assert_eq!(a.lub(a), Some(a), "seed {seed}");
        assert!(a.less_informative(a), "seed {seed}");
        assert!(a.compatible(a), "seed {seed}");
        assert!(Binding::BOTTOM.less_informative(a), "seed {seed}");
        assert_eq!(a.lub(Binding::BOTTOM), Some(a), "seed {seed}");
    }
}

#[test]
fn lub_is_associative_when_defined() {
    let (_heap, objs) = pool();
    for (seed, mut rng) in seeds() {
        let a = materialize(&random_assign(&mut rng), &objs);
        let b = materialize(&random_assign(&mut rng), &objs);
        let c = materialize(&random_assign(&mut rng), &objs);
        let left = a.lub(b).and_then(|ab| ab.lub(c));
        let right = b.lub(c).and_then(|bc| a.lub(bc));
        // When both sides are defined they agree; one side may be defined
        // while the other is not only if some pair is incompatible — in a
        // *pairwise compatible* triple both are defined and equal.
        if a.compatible(b) && b.compatible(c) && a.compatible(c) {
            assert!(left.is_some() && right.is_some(), "seed {seed}");
            assert_eq!(left, right, "seed {seed}");
        }
    }
}

#[test]
fn lub_is_the_least_upper_bound() {
    let (_heap, objs) = pool();
    for (seed, mut rng) in seeds() {
        let a = materialize(&random_assign(&mut rng), &objs);
        let b = materialize(&random_assign(&mut rng), &objs);
        if let Some(j) = a.lub(b) {
            assert!(a.less_informative(j), "seed {seed}");
            assert!(b.less_informative(j), "seed {seed}");
            assert_eq!(j.domain(), a.domain().union(b.domain()), "seed {seed}");
        } else {
            assert!(!a.compatible(b), "seed {seed}");
        }
    }
}

#[test]
fn less_informative_is_a_partial_order() {
    let (_heap, objs) = pool();
    for (seed, mut rng) in seeds() {
        let a = materialize(&random_assign(&mut rng), &objs);
        let b = materialize(&random_assign(&mut rng), &objs);
        let c = materialize(&random_assign(&mut rng), &objs);
        // Antisymmetry.
        if a.less_informative(b) && b.less_informative(a) {
            assert_eq!(a, b, "seed {seed}");
        }
        // Transitivity.
        if a.less_informative(b) && b.less_informative(c) {
            assert!(a.less_informative(c), "seed {seed}");
        }
    }
}

#[test]
fn restriction_is_monotone_and_projective() {
    let (_heap, objs) = pool();
    for (seed, mut rng) in seeds() {
        let a = materialize(&random_assign(&mut rng), &objs);
        let p = ParamSet(rng.gen_range(16) as u32);
        let r = a.restrict(p);
        assert!(r.less_informative(a), "seed {seed}");
        assert!(r.domain().is_subset(p), "seed {seed}");
        // Restriction is idempotent.
        assert_eq!(r.restrict(p), r, "seed {seed}");
        // Restricting to the full domain is the identity.
        assert_eq!(a.restrict(a.domain()), a, "seed {seed}");
    }
}

#[test]
fn compatibility_is_witnessed_by_a_common_upper_bound() {
    let (_heap, objs) = pool();
    for (seed, mut rng) in seeds() {
        let a = materialize(&random_assign(&mut rng), &objs);
        let b = materialize(&random_assign(&mut rng), &objs);
        assert_eq!(a.compatible(b), a.lub(b).is_some(), "seed {seed}");
    }
}

#[test]
fn dead_params_is_monotone_in_the_binding() {
    // If a ⊑ b then dead(a) ⊆ dead(b), whatever died.
    for (seed, mut rng) in seeds() {
        let (assign_a, assign_b) = (random_assign(&mut rng), random_assign(&mut rng));
        let kill = rng.gen_range(OBJS);
        let mut heap = Heap::new(HeapConfig::manual());
        let cls = heap.register_class("Obj");
        let frame = heap.enter_frame();
        let objs: Vec<ObjId> = (0..OBJS)
            .map(|_| {
                let o = heap.alloc(cls);
                heap.pin(o);
                o
            })
            .collect();
        heap.exit_frame(frame);
        let (a, b) = (materialize(&assign_a, &objs), materialize(&assign_b, &objs));
        heap.unpin(objs[kill]);
        heap.collect();
        if a.less_informative(b) {
            assert!(a.dead_params(&heap).is_subset(b.dead_params(&heap)), "seed {seed}");
        }
    }
}
