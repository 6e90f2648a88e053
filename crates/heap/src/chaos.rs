//! Deterministic fault injection for the heap — the adversarial half of
//! the chaos harness.
//!
//! [`ChaosHeap`] wraps a [`Heap`] and, driven by a seed-reproducible
//! in-repo PRNG ([`SplitMix64`]), injects three kinds of faults around
//! each monitored event:
//!
//! * **early-but-legal weak-ref deaths** — a random subset of the objects
//!   a collection would reclaim *right now* ([`Heap::unreachable_objects`])
//!   is doomed behind a short liveness-query fuse ([`Heap::arm_doom`]), so
//!   the deaths land in the middle of event dispatch: between index lookup
//!   and transition, or mid tree-maintenance;
//! * **forced collections** at event boundaries; and
//! * **allocation-pressure spikes** (a burst of immediately-garbage
//!   allocations).
//!
//! The injections are *legal* by construction: doomed objects are already
//! unreachable, so a real collector could have reclaimed them at exactly
//! that point — a monitoring engine that changes its verdicts under these
//! faults is wrong (Theorem 1). The differential chaos suite in `rv-core`
//! exploits this: same trace, same verdicts, any seed.

use crate::heap::{Heap, HeapConfig};
use crate::object::ClassId;

/// A tiny, dependency-free splitmix64 PRNG. Deterministic for a given
/// seed, which is what makes every chaos run reproducible.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn gen_range(&mut self, n: usize) -> usize {
        assert!(n > 0, "gen_range over empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// A biased coin flip with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// Injection probabilities and sizes for a [`ChaosHeap`].
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Per-event probability of dooming unreachable objects behind a
    /// liveness-query fuse (mid-event deaths).
    pub doom_prob: f64,
    /// Per-doomed-candidate probability of actually being doomed.
    pub kill_prob: f64,
    /// Per-event probability of a forced collection at the event boundary.
    pub collect_prob: f64,
    /// Per-event probability of an allocation-pressure spike.
    pub spike_prob: f64,
    /// Objects allocated (and immediately dropped) per spike.
    pub spike_size: usize,
    /// Upper bound on the liveness-query fuse: the doom lands after
    /// `0..fuse_max` further `is_alive` queries.
    pub fuse_max: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            doom_prob: 0.35,
            kill_prob: 0.5,
            collect_prob: 0.2,
            spike_prob: 0.1,
            spike_size: 64,
            fuse_max: 24,
        }
    }
}

/// Counters describing what a chaos run actually injected — used by the
/// differential suite to assert the run was not vacuously fault-free.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Events bracketed by [`ChaosHeap::pre_event`]/[`ChaosHeap::post_event`].
    pub events: u64,
    /// Times a doom fuse was armed.
    pub dooms: u64,
    /// Objects doomed across all arms.
    pub doomed_objects: u64,
    /// Forced boundary collections.
    pub forced_collects: u64,
    /// Allocation-pressure spikes.
    pub spikes: u64,
}

/// A [`Heap`] wrapper that injects deterministic, seed-reproducible faults
/// around each event. See the module docs for the fault catalogue.
#[derive(Debug)]
pub struct ChaosHeap {
    heap: Heap,
    rng: SplitMix64,
    config: ChaosConfig,
    stats: ChaosStats,
    scratch_class: Option<ClassId>,
}

impl ChaosHeap {
    /// A chaos heap with default injection rates, seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        ChaosHeap::with_config(seed, ChaosConfig::default())
    }

    /// A chaos heap with explicit injection rates.
    #[must_use]
    pub fn with_config(seed: u64, config: ChaosConfig) -> Self {
        ChaosHeap {
            heap: Heap::new(HeapConfig::manual()),
            rng: SplitMix64::new(seed),
            config,
            stats: ChaosStats::default(),
            scratch_class: None,
        }
    }

    /// The wrapped heap.
    #[must_use]
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Mutable access to the wrapped heap (allocation, frames, edges).
    pub fn heap_mut(&mut self) -> &mut Heap {
        &mut self.heap
    }

    /// What this run injected so far.
    #[must_use]
    pub fn stats(&self) -> ChaosStats {
        self.stats
    }

    /// Pre-event injection point: maybe force a boundary collection, maybe
    /// arm mid-event dooms. Call immediately before dispatching an event.
    pub fn pre_event(&mut self) {
        self.stats.events += 1;
        if self.rng.chance(self.config.collect_prob) {
            self.stats.forced_collects += 1;
            self.heap.collect();
        }
        if self.rng.chance(self.config.doom_prob) {
            let unreachable = self.heap.unreachable_objects();
            let mut doomed = Vec::new();
            for id in unreachable {
                if self.rng.chance(self.config.kill_prob) {
                    doomed.push(id);
                }
            }
            if !doomed.is_empty() {
                let fuse = self.rng.next_u64() % self.config.fuse_max.max(1);
                self.stats.dooms += 1;
                self.stats.doomed_objects += doomed.len() as u64;
                self.heap.arm_doom(fuse, doomed);
            }
        }
    }

    /// Post-event injection point: finalize any armed dooms (the doomed
    /// objects really are unreachable, so a collection reclaims them) and
    /// maybe inject an allocation-pressure spike. Call right after the
    /// event was dispatched.
    pub fn post_event(&mut self) {
        if self.heap.doom_armed() {
            self.heap.collect();
        }
        if self.rng.chance(self.config.spike_prob) {
            self.stats.spikes += 1;
            self.spike();
        }
    }

    /// Allocates and immediately drops a burst of garbage objects.
    fn spike(&mut self) {
        let cls = match self.scratch_class {
            Some(c) => c,
            None => {
                let c = self.heap.register_class("ChaosGarbage");
                self.scratch_class = Some(c);
                c
            }
        };
        let f = self.heap.enter_frame();
        for _ in 0..self.config.spike_size {
            let _ = self.heap.alloc(cls);
        }
        self.heap.exit_frame(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spread() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys, "same seed, same stream");
        let mut c = SplitMix64::new(43);
        assert_ne!(xs[0], c.next_u64(), "different seed diverges");
        let f = SplitMix64::new(7).next_f64();
        assert!((0.0..1.0).contains(&f));
    }

    #[test]
    fn chaos_runs_are_seed_reproducible() {
        let run = |seed: u64| {
            let mut ch = ChaosHeap::new(seed);
            let cls = ch.heap_mut().register_class("Obj");
            let _f = ch.heap_mut().enter_frame();
            for i in 0..200 {
                ch.pre_event();
                if i % 3 == 0 {
                    let g = ch.heap_mut().enter_frame();
                    let _ = ch.heap_mut().alloc(cls);
                    ch.heap_mut().exit_frame(g);
                }
                ch.post_event();
            }
            ch.stats()
        };
        assert_eq!(run(1), run(1), "same seed, same injections");
        assert_ne!(run(1), run(2), "different seeds diverge");
        let s = run(1);
        assert!(s.dooms > 0 && s.forced_collects > 0 && s.spikes > 0, "{s:?}");
    }

    #[test]
    fn doomed_objects_are_only_ever_unreachable_ones() {
        let mut ch =
            ChaosHeap::with_config(9, ChaosConfig { doom_prob: 1.0, ..Default::default() });
        let cls = ch.heap_mut().register_class("Obj");
        let _f = ch.heap_mut().enter_frame();
        let pinned = ch.heap_mut().alloc(cls);
        ch.heap_mut().pin(pinned);
        for _ in 0..100 {
            ch.pre_event();
            // However the dice land, a reachable object never dies.
            assert!(ch.heap().is_alive(pinned));
            ch.post_event();
            assert!(ch.heap().is_alive(pinned));
        }
    }
}
