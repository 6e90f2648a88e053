//! The heap proper: slots, roots, edges, and the mark-sweep collector.

use std::cell::Cell;
use std::fmt;
use std::time::Instant;

use crate::object::{ClassId, ObjId, WeakRef};
use crate::stats::HeapStats;

/// One completed heap collection, kept in a bounded in-heap log so
/// observability layers (which rv-heap cannot depend on) can drain and
/// re-emit cycles as their own record types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeapCycle {
    /// `true` for an explicit [`Heap::collect`] call; `false` when the
    /// allocation budget (`gc_every_allocs`) triggered the cycle.
    pub forced: bool,
    /// Nanoseconds since heap creation at which the pause ended.
    pub end_ns: u64,
    /// Stop-the-world duration of the mark-sweep in nanoseconds.
    pub pause_ns: u64,
    /// Live objects examined by the cycle (occupancy before).
    pub live_before: u64,
    /// Objects reclaimed.
    pub swept: u64,
    /// Live objects surviving the cycle.
    pub live_after: u64,
}

/// Cap on the per-heap [`HeapCycle`] log; once full, further cycles are
/// counted in [`HeapStats`] but not individually logged.
pub const MAX_HEAP_CYCLES: usize = 1 << 16;

/// Configuration for a [`Heap`].
#[derive(Clone, Debug)]
pub struct HeapConfig {
    /// Run a collection automatically after this many allocations.
    /// `None` disables automatic collection (only explicit
    /// [`Heap::collect`] calls reclaim memory).
    pub gc_every_allocs: Option<usize>,
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig { gc_every_allocs: Some(4096) }
    }
}

impl HeapConfig {
    /// A configuration that never collects automatically.
    #[must_use]
    pub fn manual() -> Self {
        HeapConfig { gc_every_allocs: None }
    }

    /// A configuration that collects after every `n` allocations.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn auto(n: usize) -> Self {
        assert!(n > 0, "auto-GC period must be positive");
        HeapConfig { gc_every_allocs: Some(n) }
    }
}

/// One heap slot. Freed slots keep their (bumped) generation so stale
/// handles can be detected.
#[derive(Debug)]
struct Slot {
    generation: u32,
    occupied: bool,
    marked: bool,
    class: ClassId,
    /// Outgoing strong references. Duplicates are allowed (a Collection may
    /// be referenced twice); `remove_edge` removes a single occurrence.
    edges: Vec<ObjId>,
    /// Number of times this object is pinned as a long-lived root.
    pin_count: u32,
}

/// A token returned by [`Heap::enter_frame`], consumed by
/// [`Heap::exit_frame`]. Frames follow strict stack discipline, mirroring
/// the call stack of the simulated program.
#[derive(Debug, PartialEq, Eq)]
#[must_use = "a frame token must be passed back to exit_frame"]
pub struct FrameToken {
    depth: usize,
}

/// Fault-injection state (see [`Heap::arm_doom`]): after `fuse` further
/// [`Heap::is_alive`] queries, the `doomed` objects report dead. The query
/// counter is a `Cell` because liveness queries take `&Heap`.
struct DoomState {
    queries: Cell<u64>,
    fuse: u64,
    doomed: Vec<ObjId>,
}

/// A simulated managed heap: generational slots, a root stack plus pinned
/// roots, reference edges, and a stop-the-world mark-sweep collector.
///
/// See the crate docs for the role this plays in the reproduction.
pub struct Heap {
    config: HeapConfig,
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Root stack (simulated local variables), with frame boundaries.
    root_stack: Vec<ObjId>,
    frame_bases: Vec<usize>,
    allocs_since_gc: usize,
    live: usize,
    stats: HeapStats,
    class_names: Vec<String>,
    /// Scratch mark stack, retained across collections to avoid churn.
    mark_scratch: Vec<u32>,
    /// Armed fault injection, if any (see [`Heap::arm_doom`]).
    doom: Option<Box<DoomState>>,
    /// Creation instant: time origin for [`HeapCycle::end_ns`].
    epoch: Instant,
    /// Bounded log of completed collections, drained by observers.
    cycles: Vec<HeapCycle>,
}

impl Heap {
    /// Creates an empty heap.
    #[must_use]
    pub fn new(config: HeapConfig) -> Self {
        Heap {
            config,
            slots: Vec::new(),
            free: Vec::new(),
            root_stack: Vec::new(),
            frame_bases: Vec::new(),
            allocs_since_gc: 0,
            live: 0,
            stats: HeapStats::default(),
            class_names: Vec::new(),
            mark_scratch: Vec::new(),
            doom: None,
            epoch: Instant::now(),
            cycles: Vec::new(),
        }
    }

    /// Registers a class name and returns its tag.
    ///
    /// # Panics
    ///
    /// Panics if more than `u16::MAX` classes are registered.
    pub fn register_class(&mut self, name: &str) -> ClassId {
        let id = u16::try_from(self.class_names.len()).expect("too many classes");
        self.class_names.push(name.to_owned());
        ClassId(id)
    }

    /// The debug name of `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` was not registered on this heap.
    #[must_use]
    pub fn class_name(&self, class: ClassId) -> &str {
        &self.class_names[usize::from(class.0)]
    }

    /// Allocates a new object of class `class` and pushes it on the current
    /// root frame (a freshly allocated object is referenced by the "local
    /// variable" receiving it). May trigger an automatic collection *before*
    /// the allocation if the configured allocation budget is exhausted.
    pub fn alloc(&mut self, class: ClassId) -> ObjId {
        if let Some(period) = self.config.gc_every_allocs {
            if self.allocs_since_gc >= period {
                self.collect_inner(false);
            }
        }
        self.allocs_since_gc += 1;
        self.stats.allocations += 1;
        let id = match self.free.pop() {
            Some(index) => {
                let slot = &mut self.slots[index as usize];
                debug_assert!(!slot.occupied);
                slot.occupied = true;
                slot.class = class;
                slot.edges.clear();
                slot.pin_count = 0;
                slot.marked = false;
                ObjId { index, generation: slot.generation }
            }
            None => {
                let index = u32::try_from(self.slots.len()).expect("heap exhausted");
                self.slots.push(Slot {
                    generation: 0,
                    occupied: true,
                    marked: false,
                    class,
                    edges: Vec::new(),
                    pin_count: 0,
                });
                ObjId { index, generation: 0 }
            }
        };
        self.live += 1;
        self.stats.peak_live = self.stats.peak_live.max(self.live);
        self.root_stack.push(id);
        id
    }

    /// Number of currently live objects.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Whether `id` refers to a live object.
    #[must_use]
    pub fn is_alive(&self, id: ObjId) -> bool {
        if let Some(doom) = &self.doom {
            let q = doom.queries.get() + 1;
            doom.queries.set(q);
            if q > doom.fuse && doom.doomed.contains(&id) {
                return false;
            }
        }
        self.slots
            .get(id.index as usize)
            .is_some_and(|s| s.occupied && s.generation == id.generation)
    }

    /// The class of live object `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale.
    #[must_use]
    pub fn class_of(&self, id: ObjId) -> ClassId {
        assert!(self.is_alive(id), "class_of on dead object {id}");
        self.slots[id.index as usize].class
    }

    /// Creates a weak reference to live object `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale: a weak reference can only be captured while
    /// the referent is alive (as in Java, where one needs the strong
    /// reference in hand to construct the `WeakReference`).
    pub fn weak_ref(&self, id: ObjId) -> WeakRef {
        assert!(self.is_alive(id), "weak_ref to dead object {id}");
        WeakRef { target: id }
    }

    // ----- roots ----------------------------------------------------------

    /// Opens a new root frame (simulated method entry).
    pub fn enter_frame(&mut self) -> FrameToken {
        self.frame_bases.push(self.root_stack.len());
        FrameToken { depth: self.frame_bases.len() }
    }

    /// Closes the most recent root frame (simulated method exit), dropping
    /// every root pushed since the matching [`Heap::enter_frame`].
    ///
    /// # Panics
    ///
    /// Panics if `token` is not the most recently opened frame.
    pub fn exit_frame(&mut self, token: FrameToken) {
        assert_eq!(
            token.depth,
            self.frame_bases.len(),
            "exit_frame out of order: frames must nest"
        );
        let base = self.frame_bases.pop().expect("no open frame");
        self.root_stack.truncate(base);
    }

    /// Pushes an additional root for `id` onto the current frame
    /// (simulates assigning an existing object to another local).
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale.
    pub fn push_root(&mut self, id: ObjId) {
        assert!(self.is_alive(id), "push_root on dead object {id}");
        self.root_stack.push(id);
    }

    /// Pins `id` as a long-lived root (simulates a static field).
    /// Pins nest: each `pin` must be matched by an `unpin` before the
    /// object becomes collectable.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale.
    pub fn pin(&mut self, id: ObjId) {
        assert!(self.is_alive(id), "pin on dead object {id}");
        self.slots[id.index as usize].pin_count += 1;
    }

    /// Releases one pin on `id`. Stale handles are ignored (the object is
    /// already gone, so the pin no longer matters).
    ///
    /// # Panics
    ///
    /// Panics if `id` is live but not pinned.
    pub fn unpin(&mut self, id: ObjId) {
        if self.is_alive(id) {
            let slot = &mut self.slots[id.index as usize];
            assert!(slot.pin_count > 0, "unpin without pin on {id}");
            slot.pin_count -= 1;
        }
    }

    // ----- edges ----------------------------------------------------------

    /// Adds a strong reference edge `from → to` (e.g. Iterator → Collection).
    ///
    /// # Panics
    ///
    /// Panics if either handle is stale.
    pub fn add_edge(&mut self, from: ObjId, to: ObjId) {
        assert!(self.is_alive(from), "add_edge from dead object {from}");
        assert!(self.is_alive(to), "add_edge to dead object {to}");
        self.slots[from.index as usize].edges.push(to);
    }

    /// Removes one occurrence of the edge `from → to`, if present. Returns
    /// whether an edge was removed. Stale `from` handles are ignored.
    pub fn remove_edge(&mut self, from: ObjId, to: ObjId) -> bool {
        if !self.is_alive(from) {
            return false;
        }
        let edges = &mut self.slots[from.index as usize].edges;
        if let Some(pos) = edges.iter().position(|&e| e == to) {
            edges.swap_remove(pos);
            true
        } else {
            false
        }
    }

    /// The current outgoing edges of live object `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale.
    #[must_use]
    pub fn edges_of(&self, id: ObjId) -> &[ObjId] {
        assert!(self.is_alive(id), "edges_of on dead object {id}");
        &self.slots[id.index as usize].edges
    }

    // ----- collection -----------------------------------------------------

    /// Runs a full stop-the-world mark-sweep collection and returns the
    /// number of objects reclaimed. Every [`WeakRef`] whose referent is
    /// reclaimed observes the death immediately afterwards. Any armed
    /// fault injection ([`Heap::arm_doom`]) is disarmed first — the
    /// collection reclaims the genuinely unreachable objects, making the
    /// injected deaths real.
    pub fn collect(&mut self) -> usize {
        self.collect_inner(true)
    }

    fn collect_inner(&mut self, forced: bool) -> usize {
        let live_before = self.live;
        let t_pause = Instant::now();
        self.doom = None;
        self.stats.collections += 1;
        self.allocs_since_gc = 0;

        // Mark.
        let mut stack = std::mem::take(&mut self.mark_scratch);
        stack.clear();
        for &root in &self.root_stack {
            if self.slots[root.index as usize].occupied
                && self.slots[root.index as usize].generation == root.generation
                && !self.slots[root.index as usize].marked
            {
                self.slots[root.index as usize].marked = true;
                stack.push(root.index);
            }
        }
        for (index, slot) in self.slots.iter_mut().enumerate() {
            if slot.occupied && slot.pin_count > 0 && !slot.marked {
                slot.marked = true;
                stack.push(index as u32);
            }
        }
        while let Some(index) = stack.pop() {
            // Edges can only point at objects that were alive when the edge
            // was added; an edge to a since-collected object cannot exist
            // because reachability would have kept it alive.
            for i in 0..self.slots[index as usize].edges.len() {
                let target = self.slots[index as usize].edges[i];
                let t = &mut self.slots[target.index as usize];
                if t.occupied && t.generation == target.generation && !t.marked {
                    t.marked = true;
                    stack.push(target.index);
                }
            }
        }
        self.mark_scratch = stack;

        // Sweep.
        let mut swept = 0;
        for (index, slot) in self.slots.iter_mut().enumerate() {
            if slot.occupied {
                if slot.marked {
                    slot.marked = false;
                } else {
                    slot.occupied = false;
                    slot.generation = slot.generation.wrapping_add(1);
                    slot.edges = Vec::new();
                    swept += 1;
                    self.free.push(index as u32);
                }
            }
        }
        self.live -= swept;
        self.stats.swept += swept as u64;
        let pause_ns = u64::try_from(t_pause.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.stats.gc_pause_ns = self.stats.gc_pause_ns.saturating_add(pause_ns);
        if self.cycles.len() < MAX_HEAP_CYCLES {
            self.cycles.push(HeapCycle {
                forced,
                end_ns: self.clock_ns(),
                pause_ns,
                live_before: live_before as u64,
                swept: swept as u64,
                live_after: self.live as u64,
            });
        }
        swept
    }

    /// Drains the bounded log of completed collections, oldest first.
    /// Observability layers call this after driving the heap to convert
    /// cycles into their own telemetry records.
    pub fn drain_cycles(&mut self) -> Vec<HeapCycle> {
        std::mem::take(&mut self.cycles)
    }

    /// Nanoseconds since the heap was created: the clock of
    /// [`HeapCycle::end_ns`], for callers that stamp their own cycles on
    /// the same timeline.
    #[must_use]
    pub fn clock_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// A snapshot of the heap statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> HeapStats {
        let mut s = self.stats;
        s.live = self.live;
        s
    }

    // ----- fault injection ------------------------------------------------

    /// The objects a collection run right now would reclaim, computed by a
    /// non-mutating mark pass. Used by the chaos harness to pick victims
    /// whose early deaths are *legal* (they are already unreachable, so no
    /// future event can involve them).
    #[must_use]
    pub fn unreachable_objects(&self) -> Vec<ObjId> {
        let mut marked = vec![false; self.slots.len()];
        let mut stack: Vec<u32> = Vec::new();
        for &root in &self.root_stack {
            let s = &self.slots[root.index as usize];
            if s.occupied && s.generation == root.generation && !marked[root.index as usize] {
                marked[root.index as usize] = true;
                stack.push(root.index);
            }
        }
        for (index, slot) in self.slots.iter().enumerate() {
            if slot.occupied && slot.pin_count > 0 && !marked[index] {
                marked[index] = true;
                stack.push(index as u32);
            }
        }
        while let Some(index) = stack.pop() {
            for &target in &self.slots[index as usize].edges {
                let t = &self.slots[target.index as usize];
                if t.occupied && t.generation == target.generation && !marked[target.index as usize]
                {
                    marked[target.index as usize] = true;
                    stack.push(target.index);
                }
            }
        }
        let mut out = Vec::new();
        for (index, slot) in self.slots.iter().enumerate() {
            if slot.occupied && !marked[index] {
                out.push(ObjId { index: index as u32, generation: slot.generation });
            }
        }
        out
    }

    /// Arms deterministic fault injection: after `fuse` further
    /// [`Heap::is_alive`] queries, the `doomed` objects report dead — as if
    /// a concurrent collection landed mid-event (between index lookup and
    /// transition, or in the middle of tree maintenance).
    ///
    /// Callers must pass objects that are genuinely unreachable (see
    /// [`Heap::unreachable_objects`]) so the early deaths are legal: the
    /// engine only observes the heap through liveness queries, and a real
    /// collector could have reclaimed exactly these objects at that point.
    /// The next [`Heap::collect`] disarms the injection and makes the
    /// deaths real.
    pub fn arm_doom(&mut self, fuse: u64, doomed: Vec<ObjId>) {
        self.doom = Some(Box::new(DoomState { queries: Cell::new(0), fuse, doomed }));
    }

    /// Disarms fault injection without collecting.
    pub fn disarm_doom(&mut self) {
        self.doom = None;
    }

    /// Whether fault injection is currently armed.
    #[must_use]
    pub fn doom_armed(&self) -> bool {
        self.doom.is_some()
    }
}

impl fmt::Debug for Heap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Heap")
            .field("live", &self.live)
            .field("slots", &self.slots.len())
            .field("roots", &self.root_stack.len())
            .field("frames", &self.frame_bases.len())
            .field("stats", &self.stats)
            .field("doom_armed", &self.doom.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> (Heap, ClassId) {
        let mut h = Heap::new(HeapConfig::manual());
        let c = h.register_class("Obj");
        (h, c)
    }

    /// A heap may move to the thread that drives it, so `Heap` must stay
    /// `Send`; it is not `Sync`, since the doom fuse is a `Cell`. This is
    /// a compile-time property; the test exists so removing it is a
    /// deliberate act.
    #[test]
    fn heap_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Heap>();
    }

    #[test]
    fn rooted_objects_survive_collection() {
        let (mut h, c) = heap();
        let _f = h.enter_frame();
        let a = h.alloc(c);
        assert_eq!(h.collect(), 0);
        assert!(h.is_alive(a));
    }

    #[test]
    fn unrooted_objects_are_swept() {
        let (mut h, c) = heap();
        let f = h.enter_frame();
        let a = h.alloc(c);
        h.exit_frame(f);
        assert!(h.is_alive(a), "not swept until a collection runs");
        assert_eq!(h.collect(), 1);
        assert!(!h.is_alive(a));
    }

    #[test]
    fn edges_keep_targets_alive() {
        let (mut h, c) = heap();
        let outer = h.enter_frame();
        let coll = h.alloc(c);
        let inner = h.enter_frame();
        let iter = h.alloc(c);
        h.add_edge(iter, coll);
        // Drop the frame rooting `coll`: it must survive through `iter`.
        h.exit_frame(inner);
        h.exit_frame(outer);
        h.push_root_for_test(iter);
        h.collect();
        assert!(h.is_alive(coll));
        assert!(h.is_alive(iter));
    }

    impl Heap {
        fn push_root_for_test(&mut self, id: ObjId) {
            self.root_stack.push(id);
        }
    }

    #[test]
    fn iterator_dies_before_collection_like_the_paper() {
        // The UnsafeIter scenario: the Collection outlives the Iterator.
        let (mut h, c) = heap();
        let _outer = h.enter_frame();
        let coll = h.alloc(c);
        let inner = h.enter_frame();
        let iter = h.alloc(c);
        h.add_edge(iter, coll);
        let weak_iter = h.weak_ref(iter);
        let weak_coll = h.weak_ref(coll);
        h.exit_frame(inner);
        h.collect();
        assert!(!weak_iter.is_alive(&h), "iterator must die");
        assert!(weak_coll.is_alive(&h), "collection must survive");
    }

    #[test]
    fn cycles_are_collected() {
        let (mut h, c) = heap();
        let f = h.enter_frame();
        let a = h.alloc(c);
        let b = h.alloc(c);
        h.add_edge(a, b);
        h.add_edge(b, a);
        h.exit_frame(f);
        assert_eq!(h.collect(), 2);
    }

    #[test]
    fn pin_keeps_alive_until_unpin() {
        let (mut h, c) = heap();
        let f = h.enter_frame();
        let a = h.alloc(c);
        h.pin(a);
        h.exit_frame(f);
        h.collect();
        assert!(h.is_alive(a));
        h.unpin(a);
        h.collect();
        assert!(!h.is_alive(a));
    }

    #[test]
    fn nested_pins_require_matching_unpins() {
        let (mut h, c) = heap();
        let f = h.enter_frame();
        let a = h.alloc(c);
        h.pin(a);
        h.pin(a);
        h.exit_frame(f);
        h.unpin(a);
        h.collect();
        assert!(h.is_alive(a));
        h.unpin(a);
        h.collect();
        assert!(!h.is_alive(a));
    }

    #[test]
    fn slot_reuse_bumps_generation() {
        let (mut h, c) = heap();
        let f = h.enter_frame();
        let a = h.alloc(c);
        h.exit_frame(f);
        h.collect();
        let _g = h.enter_frame();
        let b = h.alloc(c);
        assert_eq!(a.index(), b.index(), "slot should be reused");
        assert_ne!(a.generation(), b.generation());
        assert!(!h.is_alive(a));
        assert!(h.is_alive(b));
    }

    #[test]
    fn automatic_gc_triggers_on_allocation_budget() {
        let mut h = Heap::new(HeapConfig::auto(10));
        let c = h.register_class("Obj");
        for _ in 0..100 {
            let f = h.enter_frame();
            let _ = h.alloc(c);
            h.exit_frame(f);
        }
        assert!(h.stats().collections >= 9, "collections: {}", h.stats().collections);
        assert!(h.live_count() <= 11);
    }

    #[test]
    fn remove_edge_makes_target_collectable() {
        let (mut h, c) = heap();
        let _f = h.enter_frame();
        let a = h.alloc(c);
        let g = h.enter_frame();
        let b = h.alloc(c);
        h.add_edge(a, b);
        h.exit_frame(g);
        assert!(h.remove_edge(a, b));
        assert!(!h.remove_edge(a, b));
        h.collect();
        assert!(!h.is_alive(b));
        assert!(h.is_alive(a));
    }

    #[test]
    fn duplicate_edges_are_counted() {
        let (mut h, c) = heap();
        let _f = h.enter_frame();
        let a = h.alloc(c);
        let g = h.enter_frame();
        let b = h.alloc(c);
        h.add_edge(a, b);
        h.add_edge(a, b);
        h.exit_frame(g);
        assert!(h.remove_edge(a, b));
        h.collect();
        assert!(h.is_alive(b), "second edge still holds b");
    }

    #[test]
    #[should_panic(expected = "exit_frame out of order")]
    fn frames_must_nest() {
        let (mut h, _) = heap();
        let f1 = h.enter_frame();
        let _f2 = h.enter_frame();
        h.exit_frame(f1);
    }

    #[test]
    #[should_panic(expected = "weak_ref to dead object")]
    fn weak_ref_requires_live_target() {
        let (mut h, c) = heap();
        let f = h.enter_frame();
        let a = h.alloc(c);
        h.exit_frame(f);
        h.collect();
        let _ = h.weak_ref(a);
    }

    #[test]
    fn unreachable_objects_match_what_collect_reclaims() {
        let (mut h, c) = heap();
        let _outer = h.enter_frame();
        let kept = h.alloc(c);
        let inner = h.enter_frame();
        let doomed_a = h.alloc(c);
        let doomed_b = h.alloc(c);
        h.add_edge(doomed_a, doomed_b);
        h.exit_frame(inner);
        let mut unreachable = h.unreachable_objects();
        unreachable.sort_unstable_by_key(|o| o.index());
        assert_eq!(unreachable, vec![doomed_a, doomed_b]);
        assert!(h.is_alive(kept) && h.is_alive(doomed_a), "mark pass must not mutate");
        assert_eq!(h.collect(), 2);
    }

    #[test]
    fn armed_doom_kills_after_the_fuse_and_collect_disarms() {
        let (mut h, c) = heap();
        let _outer = h.enter_frame();
        let kept = h.alloc(c);
        let inner = h.enter_frame();
        let victim = h.alloc(c);
        h.exit_frame(inner);
        h.arm_doom(2, vec![victim]);
        assert!(h.is_alive(victim), "query 1: fuse not blown");
        assert!(h.is_alive(victim), "query 2: fuse not blown");
        assert!(!h.is_alive(victim), "query 3: doom reports it dead");
        assert!(h.is_alive(kept), "non-doomed objects unaffected");
        h.collect();
        assert!(!h.doom_armed());
        assert!(!h.is_alive(victim), "death was made real");
        assert!(h.is_alive(kept));
    }

    #[test]
    fn stats_track_peak_live() {
        let (mut h, c) = heap();
        let f = h.enter_frame();
        for _ in 0..5 {
            let _ = h.alloc(c);
        }
        h.exit_frame(f);
        h.collect();
        let s = h.stats();
        assert_eq!(s.allocations, 5);
        assert_eq!(s.peak_live, 5);
        assert_eq!(s.live, 0);
        assert_eq!(s.swept, 5);
    }
}
